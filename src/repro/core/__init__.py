"""FLoS core: local view, bound engines, sessions, and the query API."""

from repro.core.api import QueryOverrides, QueryRequest, flos_top_k
from repro.core.basic_search import basic_top_k
from repro.core.degree_index import DegreeIndex, degree_descending_order
from repro.core.flos import FLoSOptions, PHPSpaceEngine
from repro.core.flos_tht import THTEngine
from repro.core.localgraph import LocalView
from repro.core.result import BatchSummary, SearchStats, TopKResult
from repro.core.session import QuerySession, SessionMetrics

__all__ = [
    "flos_top_k",
    "QueryOverrides",
    "QueryRequest",
    "BatchSummary",
    "basic_top_k",
    "FLoSOptions",
    "PHPSpaceEngine",
    "THTEngine",
    "LocalView",
    "DegreeIndex",
    "degree_descending_order",
    "QuerySession",
    "SessionMetrics",
    "TopKResult",
    "SearchStats",
]
