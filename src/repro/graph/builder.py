"""Edge lists to :class:`~repro.graph.memory.CSRGraph`.

``GraphBuilder`` accepts edges one at a time (or in bulk), deduplicates,
and produces an immutable CSR graph.  It exists because generators and
file readers want an append-style API while the search code wants the
frozen array layout.

:func:`assemble_csr` is the one edge-list-to-CSR path: both
:meth:`GraphBuilder.build` and :meth:`CSRGraph.from_edges
<repro.graph.memory.CSRGraph.from_edges>` go through it.  It uses only
stable counting sorts (scipy's ``coo_tocsr`` kernel, the COO-to-CSR
bucket pass), so it runs in O(n + m) and each duplicate group keeps its
input order.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import _sparsetools

from repro.errors import GraphError
from repro.graph.memory import CSRGraph, check_weights

_INT32_LIMIT = 2**31


def _counting_sort(num_rows, rows, cols, data, index_dtype):
    """Stable bucket sort of ``(rows, cols, data)`` by ``rows``.

    Returns CSR ``(indptr, cols, data)``: row ``r`` holds the entries
    whose row is ``r``, in their input order.
    """
    nnz = len(rows)
    indptr = np.empty(num_rows + 1, dtype=index_dtype)
    out_cols = np.empty(nnz, dtype=index_dtype)
    out_data = np.empty(nnz, dtype=data.dtype)
    _sparsetools.coo_tocsr(
        num_rows, num_rows, nnz, rows, cols, data, indptr, out_cols, out_data
    )
    return indptr, out_cols, out_data


def _row_ids(indptr: np.ndarray) -> np.ndarray:
    """Row id of every CSR entry."""
    return np.repeat(
        np.arange(len(indptr) - 1, dtype=indptr.dtype), np.diff(indptr)
    )


def assemble_csr(
    num_nodes: int,
    u: np.ndarray,
    v: np.ndarray,
    weights: np.ndarray,
    merge: str = "sum",
) -> CSRGraph:
    """Symmetric CSR graph of the undirected edges ``(u[i], v[i])``.

    The caller has validated the input: ``u < v`` elementwise, endpoints
    in range, weights positive and finite.  Duplicates of one edge are
    merged in input order by ``merge`` (``"sum"``, ``"max"`` or
    ``"first"``), and every row comes out sorted by neighbour id.

    Three stable counting sorts do all the ordering: by ``v``, then by
    ``u`` (together the order of a stable sort on ``(u, v)``), then the
    symmetric layout with rows ``concat(v, u)``: each row lists its lower
    neighbours ascending, then its higher ones ascending.
    """
    m = len(u)
    sort_dtype = (
        np.int32 if max(num_nodes, 2 * m) < _INT32_LIMIT else np.int64
    )
    u = u.astype(sort_dtype, copy=False)
    v = v.astype(sort_dtype, copy=False)

    by_v, u_by_v, w_by_v = _counting_sort(
        num_nodes, v, u, weights, sort_dtype
    )
    upper_ptr, cols, w_sorted = _counting_sort(
        num_nodes, u_by_v, _row_ids(by_v), w_by_v, sort_dtype
    )
    # Row u of the upper triangle now lists its v's ascending, each
    # duplicate group in input order.  A group starts at every row start
    # and wherever the column changes.
    boundary = np.empty(m + 1, dtype=bool)
    boundary[0] = True
    np.not_equal(cols[1:], cols[:-1], out=boundary[1:m])
    boundary[upper_ptr] = True
    rows = _row_ids(upper_ptr)
    if boundary[:m].all():
        merged_w = w_sorted
    else:
        starts = np.flatnonzero(boundary[:m])
        rows, cols = rows[starts], cols[starts]
        if merge == "sum":
            merged_w = np.add.reduceat(w_sorted, starts)
        elif merge == "max":
            merged_w = np.maximum.reduceat(w_sorted, starts)
        else:  # first
            merged_w = w_sorted[starts]

    both_rows = np.concatenate([cols, rows], dtype=np.int64)
    both_cols = np.concatenate([rows, cols], dtype=np.int64)
    indptr, indices, data = _counting_sort(
        num_nodes,
        both_rows,
        both_cols,
        np.concatenate([merged_w, merged_w]),
        np.int64,
    )
    return CSRGraph(indptr, indices, data)


class GraphBuilder:
    """Accumulate undirected weighted edges, then :meth:`build` a CSR graph.

    Duplicate edges are merged by *summing* weights by default, by
    keeping the maximum with ``merge="max"``, or by keeping the first
    added with ``merge="first"`` — generators such as R-MAT emit
    duplicates by design.
    """

    def __init__(self, num_nodes: int, *, merge: str = "sum"):
        if num_nodes < 0:
            raise GraphError("num_nodes must be non-negative")
        if merge not in ("sum", "max", "first"):
            raise GraphError("merge must be one of 'sum', 'max', 'first'")
        self._num_nodes = num_nodes
        self._merge = merge
        # Canonical endpoints are stored in the narrowest dtype that
        # holds every node id, which is the dtype the sorts run in.
        self._id_dtype = np.int32 if num_nodes < _INT32_LIMIT else np.int64
        self._us: list[np.ndarray] = []
        self._vs: list[np.ndarray] = []
        self._ws: list[np.ndarray] = []
        self._count = 0

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def num_pending_edges(self) -> int:
        """Number of edge records added so far (before deduplication)."""
        return self._count

    def add_edge(self, u: int, v: int, weight: float = 1.0) -> None:
        """Add one undirected edge."""
        self.add_edges(
            np.array([[u, v]], dtype=np.int64),
            np.array([weight], dtype=np.float64),
        )

    def add_edges(
        self, edges: np.ndarray, weights: np.ndarray | None = None
    ) -> None:
        """Add a batch of edges given as an ``(m, 2)`` int array.

        Self loops are dropped silently: random generators produce them
        and the paper's model excludes them.
        """
        edges = np.asarray(edges, dtype=np.int64)
        if edges.size == 0:
            return
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise GraphError("edges must have shape (m, 2)")
        # A negative id wraps to a huge unsigned value: one max covers
        # both ends of the range.
        if edges.view(np.uint64).max() >= self._num_nodes:
            raise GraphError("edge endpoint out of range")
        if weights is None:
            weights = np.ones(edges.shape[0], dtype=np.float64)
        else:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != (edges.shape[0],):
                raise GraphError("weights length must match edges")
            check_weights(weights)
        a, b = edges[:, 0], edges[:, 1]
        keep = a != b
        if not keep.all():
            a, b, weights = a[keep], b[keep], weights[keep]
            if not len(a):
                return
        # Canonical orientation u < v so duplicates collapse regardless of
        # the direction they arrived in.
        u = np.empty(len(a), dtype=self._id_dtype)
        v = np.empty(len(a), dtype=self._id_dtype)
        np.minimum(a, b, out=u, casting="unsafe")
        np.maximum(a, b, out=v, casting="unsafe")
        self._us.append(u)
        self._vs.append(v)
        self._ws.append(weights)
        self._count += len(u)

    def build(self) -> CSRGraph:
        """Freeze the accumulated edges into a :class:`CSRGraph`."""
        if not self._us:
            empty = np.empty(0, dtype=self._id_dtype)
            return assemble_csr(
                self._num_nodes, empty, empty, np.empty(0), self._merge
            )
        return assemble_csr(
            self._num_nodes,
            np.concatenate(self._us),
            np.concatenate(self._vs),
            np.concatenate(self._ws),
            self._merge,
        )
