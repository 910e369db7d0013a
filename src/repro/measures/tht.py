"""L-truncated hitting time (THT) [Sarkar & Moore 2007].

Finite-horizon hitting time (paper Appendix 10.1)::

    r_q = 0
    r^L_i = 1 + sum_{j in N_i} p_{i,j} r^{L-1}_j      (i != q),  r^0 = 0

Only walks of length below ``L`` count; any node farther than ``L`` hops
from the query gets exactly ``L``.  Smaller is closer, and THT has no local
minimum among nodes within ``L`` hops of the query (Lemma 7).

THT is **not** a PHP re-scaling — its horizon makes it a finite DP rather
than a stationary linear system — so the FLoS driver runs it over its own
finite-horizon bound model (:mod:`repro.core.flos_tht`): the lower bound
reroutes boundary-crossing transitions to a step-indexed dummy, the upper
bound reroutes them to a dummy node pinned at the maximal value ``L``
(paper Appendix 10.4).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.errors import MeasureError
from repro.graph.memory import CSRGraph
from repro.measures.base import Direction, Measure
from repro.measures.matrices import absorbed_transition_matrix, ones_except


class THT(Measure):
    """Truncated hitting time with horizon ``L`` (paper experiments: 10)."""

    name = "THT"
    direction = Direction.LOWER_IS_CLOSER

    def __init__(self, horizon: int = 10):
        if horizon < 1:
            raise MeasureError(f"horizon must be >= 1, got {horizon}")
        self.horizon = int(horizon)

    @property
    def fixed_iterations(self) -> int:  # type: ignore[override]
        return self.horizon

    def params(self) -> str:
        return f"L={self.horizon}"

    def matrix_recursion(
        self, graph: CSRGraph, q: int
    ) -> tuple[sp.csr_matrix, np.ndarray]:
        graph.validate_node(q)
        t = absorbed_transition_matrix(graph, q)
        e = ones_except(graph.num_nodes, q)
        # Isolated nodes can never reach q; pin them at the horizon L
        # instead of the spurious value 1 their empty recursion sum
        # would otherwise produce.
        isolated = graph.degrees == 0
        isolated[q] = False
        e[isolated] = self.max_value
        return t, e

    def query_value(self, graph: CSRGraph, q: int) -> float:
        return 0.0

    @property
    def max_value(self) -> float:
        """THT is capped at the horizon ``L``."""
        return float(self.horizon)
