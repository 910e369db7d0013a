"""Random walk with restart (RWR / personalized PageRank) [Tong et al. 2006].

Recursive definition (paper Sec. 5.6)::

    r_i = (1-c) * sum_{j in N_i} p_{j,i} r_j             (i != q)
    r_q = (1-c) * sum_{j in N_q} p_{j,q} r_j + c

with restart probability ``0 < c < 1``; matrix form ``r = (1-c) Pᵀ r + c e_q``.
RWR **has** local maxima (Lemma 8) so Theorem 1's pruning does not apply
directly.  FLoS handles it through Theorem 6: on undirected graphs,

    RWR(i) = (RWR(q) / w_q) * w_i * PHP(i)

where PHP uses decay ``1 - c``.  Rankings under RWR therefore equal
rankings under ``w_i * PHP(i)``, and the query factor is again local:

    RWR(q) = c / (1 - (1-c) * sum_{j in N_q} p_{q,j} PHP(j)).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.graph.memory import CSRGraph
from repro.measures.base import Direction, PHPFamilyMeasure, _check_unit_interval
from repro.measures.matrices import transition_matrix, unit_vector


class RWR(PHPFamilyMeasure):
    """Random walk with restart, restart probability ``c`` (paper: 0.5)."""

    name = "RWR"
    direction = Direction.HIGHER_IS_CLOSER

    def __init__(self, c: float = 0.5):
        self.c = _check_unit_interval(c, "restart probability c")

    def params(self) -> str:
        return f"c={self.c:g}"

    def matrix_recursion(
        self, graph: CSRGraph, q: int
    ) -> tuple[sp.csr_matrix, np.ndarray]:
        graph.validate_node(q)
        p = transition_matrix(graph)
        return ((1.0 - self.c) * p.T).tocsr(), unit_vector(
            graph.num_nodes, q, self.c
        )

    # PHP-family reduction (Theorem 6). -----------------------------------

    @property
    def php_decay(self) -> float:
        return 1.0 - self.c

    def uses_degree_weighting(self) -> bool:
        return True

    def query_scale(
        self,
        query_degree: float,
        neighbor_probs: np.ndarray,
        neighbor_php: np.ndarray,
    ) -> float:
        rwr_q = self.c / (
            1.0 - (1.0 - self.c) * float(neighbor_probs @ neighbor_php)
        )
        return rwr_q / query_degree

    def from_php(self, php_value: float, degree: float, scale: float) -> float:
        return scale * degree * php_value
