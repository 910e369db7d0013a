"""Tests for the exception hierarchy."""

import numpy as np
import pytest

from repro.errors import (
    BudgetExceededError,
    ConvergenceError,
    DiskFormatError,
    GraphError,
    MeasureError,
    NodeNotFoundError,
    ReproError,
    SearchError,
)
from repro.graph.disk import DiskGraph, write_disk_graph
from repro.graph.dynamic import DynamicGraph
from repro.graph.generators import path_graph


def test_hierarchy():
    assert issubclass(GraphError, ReproError)
    assert issubclass(NodeNotFoundError, GraphError)
    assert issubclass(DiskFormatError, GraphError)
    assert issubclass(MeasureError, ReproError)
    assert issubclass(SearchError, ReproError)
    assert issubclass(ConvergenceError, SearchError)
    assert issubclass(BudgetExceededError, SearchError)


def test_node_not_found_payload():
    err = NodeNotFoundError(42, 10)
    assert err.node == 42
    assert err.num_nodes == 10
    assert "42" in str(err) and "0..9" in str(err)


def test_convergence_payload():
    err = ConvergenceError(100, 0.5, 1e-5)
    assert err.iterations == 100
    assert err.residual == 0.5
    assert err.tol == 1e-5
    assert "100 iterations" in str(err)


def test_budget_payload():
    err = BudgetExceededError(120, 100)
    assert err.visited == 120
    assert err.budget == 100
    assert "120" in str(err)


def test_catchable_at_base():
    with pytest.raises(ReproError):
        raise NodeNotFoundError(1, 1)


@pytest.fixture(params=["csr", "overlay", "disk"])
def substrate(request, tmp_path):
    """A five-node path: plain, as an overlay with one mutated row, or
    as a disk store."""
    if request.param == "csr":
        yield path_graph(5)
    elif request.param == "overlay":
        dyn = DynamicGraph(path_graph(5))
        dyn.add_edge(0, 4, 2.0)
        yield dyn
    else:
        write_disk_graph(path_graph(5), tmp_path / "path.flos")
        with DiskGraph(tmp_path / "path.flos") as disk:
            yield disk


BATCH_READS = ["degrees_of", "neighbors_many"]


class TestBatchReadErrors:
    """Batch reads reject out-of-range ids with the typed error, naming
    the first bad id in batch order (``degrees_of([-1])`` used to return
    the last node's degree)."""

    @pytest.mark.parametrize("read", BATCH_READS)
    def test_negative_id(self, substrate, read):
        with pytest.raises(NodeNotFoundError) as info:
            getattr(substrate, read)(np.array([1, -1, 7]))
        assert info.value.node == -1 and info.value.num_nodes == 5

    @pytest.mark.parametrize("read", BATCH_READS)
    def test_id_equal_to_num_nodes(self, substrate, read):
        with pytest.raises(NodeNotFoundError) as info:
            getattr(substrate, read)(np.array([0, 5, -1]))
        assert info.value.node == 5

    def test_empty_batch(self, substrate):
        assert substrate.degrees_of(np.array([], dtype=np.int64)).shape == (0,)
        ids, weights, counts = substrate.neighbors_many(
            np.array([], dtype=np.int64)
        )
        assert ids.shape == weights.shape == counts.shape == (0,)
