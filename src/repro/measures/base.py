"""Measure abstractions.

Every proximity measure in the paper (Table 2) is defined by a linear
recursion ``r = M r + e`` over the transition structure of the graph:

========  ============================  =====================  =========
Measure   ``M``                         ``e``                  direction
========  ============================  =====================  =========
PHP       ``c T``                       ``e_q``                higher
EI        ``(1-c) P``                   ``(c / w_q) e_q``      higher
DHT       ``(1-c) T``                   ``1 - e_q``            lower
THT       ``T`` (L steps from 0)        ``1 - e_q``            lower
RWR       ``(1-c) Pᵀ``                  ``c e_q``              higher
========  ============================  =====================  =========

where ``P`` is the row-stochastic transition matrix and ``T`` is ``P`` with
the query row zeroed (paper Table 1).

:class:`Measure` exposes that recursion (:meth:`matrix_recursion`) so exact
solvers and the GI baseline are measure-agnostic.  :class:`PHPFamilyMeasure`
additionally exposes the reduction to PHP that makes FLoS *unified*: PHP,
EI, and DHT are PHP re-scalings (Theorem 2), and RWR is a degree-weighted
PHP (Theorem 6).  The scale factors are computable *locally* — from the
PHP values of the query's own neighbors — which is what lets FLoS report
measure-native proximity bounds without any global information (see
:meth:`PHPFamilyMeasure.query_scale`).
"""

from __future__ import annotations

import abc
import enum

import numpy as np
import scipy.sparse as sp

from repro.errors import MeasureError
from repro.graph.memory import CSRGraph


class Direction(enum.Enum):
    """Whether larger or smaller proximity means *closer* (paper Sec. 3.1)."""

    HIGHER_IS_CLOSER = "higher"
    LOWER_IS_CLOSER = "lower"


def _check_unit_interval(value: float, name: str) -> float:
    if not 0.0 < value < 1.0:
        raise MeasureError(f"{name} must lie strictly in (0, 1), got {value}")
    return float(value)


class Measure(abc.ABC):
    """A random-walk proximity measure ``r`` with respect to a query node."""

    #: Short name used in registries and benchmark tables.
    name: str
    #: Ranking direction.
    direction: Direction
    #: For finite-horizon measures (THT): the exact number of recursion
    #: steps from the zero vector.  ``None`` for stationary measures.
    fixed_iterations: int | None = None

    @abc.abstractmethod
    def matrix_recursion(
        self, graph: CSRGraph, q: int
    ) -> tuple[sp.csr_matrix, np.ndarray]:
        """Return ``(M, e)`` of the defining recursion ``r = M r + e``."""

    def query_value(self, graph: CSRGraph, q: int) -> float | None:
        """Proximity of the query node itself when it is a constant
        (PHP: 1, DHT/THT: 0), else ``None`` (EI, RWR)."""
        return None

    def rank_descending(self) -> bool:
        """True when top-k sorts by decreasing proximity."""
        return self.direction is Direction.HIGHER_IS_CLOSER

    def top_k_from_vector(
        self, values: np.ndarray, q: int, k: int
    ) -> np.ndarray:
        """Top-k node ids from a full proximity vector, excluding ``q``.

        Ties are broken by node id so results are deterministic and
        comparable across algorithms.
        """
        order = np.argsort(
            -values if self.rank_descending() else values, kind="stable"
        )
        out = order[order != q][:k]
        return out.astype(np.int64)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.params()})"

    def params(self) -> str:
        """Human-readable parameter string."""
        return ""


class PHPFamilyMeasure(Measure):
    """A measure reducible to penalized hitting probability.

    Subclasses declare the decay of the equivalent PHP
    (:attr:`php_decay`), whether the ranking weight is the node degree
    (:meth:`uses_degree_weighting`), and the locally-computable scale
    factor used to convert PHP values back to native values
    (:meth:`query_scale`, :meth:`from_php`).
    """

    @property
    @abc.abstractmethod
    def php_decay(self) -> float:
        """Decay factor of the PHP whose values determine this measure."""

    def uses_degree_weighting(self) -> bool:
        """True when ranking weights vary with node degree (RWR only)."""
        return False

    def query_scale(
        self,
        query_degree: float,
        neighbor_probs: np.ndarray,
        neighbor_php: np.ndarray,
    ) -> float:
        """Scale factor relating native values to PHP values.

        ``neighbor_probs[j] = p_{q,j}`` and ``neighbor_php[j] = PHP(j)`` for
        the query's neighbors.  For PHP/DHT the factor is constant; EI and
        RWR derive it from these local quantities (DESIGN.md §4, and the
        identities in the class docstrings of :class:`repro.measures.ei.EI`
        and :class:`repro.measures.rwr.RWR`).
        """
        return 1.0

    @abc.abstractmethod
    def from_php(self, php_value: float, degree: float, scale: float) -> float:
        """Convert PHP values to this measure's native values.

        Elementwise arithmetic: ``php_value`` and ``degree`` may be
        scalars or equal-length arrays.
        """
