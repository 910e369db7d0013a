"""In-memory span recorder for the traced benchmark run.

The recorder wraps the public entry points of each ``src/repro`` layer
from the outside (class attributes and module functions are swapped for
timing wrappers while a :func:`instrument` block is active), so the
library itself carries no tracing code.  Every span records its name,
start, end, parent span and the id of the request it belongs to; spans
stay in Python lists until :meth:`SpanRecorder.dump` writes them out.

A span's *self time* is its duration minus the durations of its direct
children.  The recorder keeps one call stack, so it must only be used
from one thread -- every traced workload drives the library from a
single client thread.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.core import degree_index, flos, flos_tht, kernels, localgraph, session
from repro.graph import dynamic, memory, updates
from repro.serve import dispatcher

#: ``(owner, attribute, span name)`` of the in-process layers' entry
#: points.  The span name's prefix before the first dot is the layer.
LIBRARY_ENTRY_POINTS = (
    (memory.CSRGraph, "transition_probabilities_many", "graph.fetch"),
    (memory.CSRGraph, "degrees_of", "graph.fetch"),
    (dynamic.DynamicGraph, "neighbors", "graph.fetch"),
    (updates, "apply_edge_updates", "updates.apply"),
    (dynamic.DynamicGraph, "add_edge", "updates.event"),
    (dynamic.DynamicGraph, "remove_edge", "updates.event"),
    (localgraph.LocalView, "__init__", "localgraph.init"),
    (localgraph.LocalView, "expand_batch", "localgraph.expand"),
    (localgraph.LocalView, "visit_sequence", "localgraph.warm"),
    (kernels.DualBoundKernel, "refresh", "kernels.dual_refresh"),
    (kernels.THTDPKernel, "run", "kernels.tht_dp"),
    (degree_index.DegreeIndex, "__call__", "degree_index.next"),
    (flos.PHPSpaceEngine, "__init__", "engine.init"),
    (flos.PHPSpaceEngine, "run", "engine.run"),
    (flos_tht.THTEngine, "__init__", "engine.init"),
    (flos_tht.THTEngine, "run", "engine.run"),
    (session.QuerySession, "top_k", "session.top_k"),
)

#: Client-side entry points of the serving tier.  Worker processes are
#: forked from the client, so wrapping the in-process layers while a
#: server starts would trace inside the workers too; the ``serve``
#: workload therefore wraps only these.
SERVE_ENTRY_POINTS = (
    (dispatcher.ShardedServer, "serve_requests", "dispatcher.serve_requests"),
    (dispatcher, "open_shared", "shared.open_shared"),
)


class SpanRecorder:
    """Columnar in-memory span store with a single-thread call stack."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.requests: list[int] = []
        self.request_id = -1
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.requests.append(self.request_id)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that every call records a span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    # ------------------------------------------------------------------

    def clear(self) -> None:
        """Forget every recorded span (the call stack must be empty)."""
        self.__init__()

    def self_times(self) -> np.ndarray:
        """Each span's duration minus its direct children's durations."""
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents, dtype=np.int64)
        nested = parents >= 0
        child = np.bincount(
            parents[nested], weights=dur[nested], minlength=len(dur)
        )
        return dur - child

    def totals(self) -> tuple[dict[str, int], dict[str, float]]:
        """Span count and summed self seconds per span name."""
        counts: dict[str, int] = {}
        seconds: dict[str, float] = {}
        for name, self_s in zip(self.names, self.self_times().tolist()):
            counts[name] = counts.get(name, 0) + 1
            seconds[name] = seconds.get(name, 0.0) + self_s
        return counts, seconds

    def requests_with(self, name: str) -> set[int]:
        """Ids of the requests that recorded a span named ``name``."""
        return {r for n, r in zip(self.names, self.requests) if n == name}

    def root_seconds(self) -> float:
        """Summed duration of top-level spans (= sum of all self times)."""
        return float(sum(
            e - s
            for s, e, parent in zip(self.starts, self.ends, self.parents)
            if parent < 0
        ))

    def dump(self, path: Path) -> None:
        """Write every span as columnar JSON (times relative to the first)."""
        origin = self.starts[0] if self.starts else 0.0
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": table,
                    "name": [index[n] for n in self.names],
                    "start": [round(s - origin, 9) for s in self.starts],
                    "end": [round(e - origin, 9) for e in self.ends],
                    "parent": self.parents,
                    "request": self.requests,
                },
                fh,
            )


@contextmanager
def instrument(recorder: SpanRecorder, entry_points):
    """Swap every entry point for a recording wrapper; restore on exit."""
    saved = []
    try:
        for owner, attr, name in entry_points:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(name, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
