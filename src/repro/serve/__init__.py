"""Multi-process sharded serving over zero-copy shared graphs.

Layering:

* :mod:`repro.serve.shared` — publish a graph once
  (``multiprocessing.shared_memory`` for in-memory CSR, mmap for
  ``.flos`` disk stores) and attach zero-copy from worker processes.
* :mod:`repro.serve.worker` — the worker-process loop: one private,
  cache-less :class:`~repro.core.session.QuerySession` per worker over
  the shared graph.
* :mod:`repro.serve.dispatcher` — :class:`ShardedServer`: one result
  cache in front of the worker pipes, stable-hash sharding by query
  node, deadline-aware admission control, crash recovery with
  respawn-and-retry-once, and aggregated
  :class:`~repro.serve.metrics.ServeMetrics`.

Requests use the :class:`~repro.core.api.QueryRequest` /
:class:`~repro.core.api.QueryOverrides` contract shared with
:func:`repro.flos_top_k` and :class:`~repro.core.session.QuerySession`.
See ``docs/serving.md`` ("Process-pool deployment") for operational
guidance.
"""

from repro.serve.dispatcher import ShardedServer
from repro.serve.metrics import ServeMetrics
from repro.serve.shared import (
    AttachedGraph,
    SharedGraph,
    SharedGraphDescriptor,
    attach_shared,
    open_shared,
)

__all__ = [
    "ShardedServer",
    "ServeMetrics",
    "SharedGraph",
    "SharedGraphDescriptor",
    "AttachedGraph",
    "open_shared",
    "attach_shared",
]
