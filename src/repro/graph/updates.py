"""Versioned edge-update log for evolving graphs.

The paper's core selling point is that FLoS needs *no preprocessing*
(Sec. 1): a query issued right after an edge update is answered against
the fresh topology at no extra cost.  What the serving layer needs on
top of that is a way to tell *which cached answers an update could have
touched* — a query's certificate only depends on its visited ball, so
an update whose endpoints stay outside the ball leaves the cached
result exact (see ``docs/serving.md``).

:class:`UpdateLog` is the bridge: an append-only sequence of
``(version, u, v, kind)`` :class:`EdgeEvent` records with a monotone
version counter.  :class:`~repro.graph.dynamic.DynamicGraph` owns one
and records every mutation; :class:`~repro.core.session.QuerySession`
stamps each cached result with the version it was computed at and, on
lookup, replays :meth:`UpdateLog.events_since` to decide hit or
cold.

The log keeps a **bounded replay window**: once more than ``window``
events accumulate, the oldest are dropped and ``events_since`` answers
``None`` for versions that fell off the window — the caller must treat
that as "anything may have changed" (cold start).  :meth:`compact` is
the handshake with :meth:`DynamicGraph.compact`: folding the delta into
a fresh CSR graph invalidates every outstanding version, so the log
drops its retained events while keeping the counter monotone.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.errors import GraphError

__all__ = [
    "EVENT_KINDS",
    "EdgeEvent",
    "EdgeUpdate",
    "UpdateLog",
    "apply_edge_updates",
]

#: Event kinds recorded by the log.  ``"add"`` covers both fresh
#: insertions and weight overwrites (they are the same call on
#: :meth:`DynamicGraph.add_edge`); ``"remove"`` is a deletion.
EVENT_KINDS = ("add", "remove")

#: Default replay-window length.  Sized so that a busy serving session
#: (LRU of a few hundred entries, updates trickling in between queries)
#: practically never falls off the window, while a bulk loader that
#: streams millions of edges degrades to cold starts instead of an
#: unbounded event list.
DEFAULT_WINDOW = 65_536


@dataclass(frozen=True)
class EdgeEvent:
    """One recorded mutation: edge ``(u, v)`` changed at ``version``."""

    version: int
    u: int
    v: int
    kind: str


@dataclass(frozen=True)
class EdgeUpdate:
    """One *requested* mutation — the wire format of
    :meth:`repro.serve.ShardedServer.apply_updates` broadcasts.

    ``kind`` is ``"add"`` (insert, or overwrite the weight of an
    existing edge) or ``"remove"`` (``weight`` is ignored).
    """

    u: int
    v: int
    kind: str = "add"
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise GraphError(
                f"update kind must be one of {EVENT_KINDS}, got {self.kind!r}"
            )


class UpdateLog:
    """Append-only ``(version, u, v, kind)`` events with a bounded window."""

    def __init__(self, window: int = DEFAULT_WINDOW):
        if window < 1:
            raise GraphError("update-log window must be >= 1")
        self._window = int(window)
        self._events: deque[EdgeEvent] = deque()
        self._version = 0

    @property
    def version(self) -> int:
        """Monotone counter: the version of the latest recorded event."""
        return self._version

    @property
    def window(self) -> int:
        return self._window

    def __len__(self) -> int:
        return len(self._events)

    def record(self, u: int, v: int, kind: str) -> int:
        """Append one event; returns the new version."""
        if kind not in EVENT_KINDS:
            raise GraphError(
                f"event kind must be one of {EVENT_KINDS}, got {kind!r}"
            )
        self._version += 1
        self._events.append(EdgeEvent(self._version, int(u), int(v), kind))
        while len(self._events) > self._window:
            self._events.popleft()
        return self._version

    def events_since(self, version: int) -> list[EdgeEvent] | None:
        """Events recorded after ``version``, oldest first.

        Returns ``[]`` when ``version`` is current, and ``None`` when
        ``version`` predates the replay window (or a :meth:`compact`):
        the caller cannot know what changed and must fall back to a
        cold start.
        """
        if version >= self._version:
            return []
        oldest = self._version - len(self._events)
        if version < oldest:
            return None
        # Events carry consecutive versions, so the suffix is a slice.
        skip = version - oldest
        out = list(self._events)
        return out[skip:]

    def touched_since(self, version: int) -> np.ndarray | None:
        """Sorted unique endpoints touched after ``version`` (or None)."""
        events = self.events_since(version)
        if events is None:
            return None
        if not events:
            return np.empty(0, dtype=np.int64)
        flat = np.fromiter(
            (x for e in events for x in (e.u, e.v)),
            dtype=np.int64,
            count=2 * len(events),
        )
        return np.unique(flat)

    def compact(self) -> int:
        """Drop every retained event, keeping the counter monotone.

        Called by :meth:`DynamicGraph.compact`: the compacted CSR graph
        is a *new* object, so every version handed out against the old
        overlay is stale by construction — after this, ``events_since``
        answers ``None`` for all of them (cold start), which is exactly
        right.  Returns the current version.
        """
        self._events.clear()
        return self._version


def apply_edge_updates(graph, updates: Sequence[EdgeUpdate] | Iterable[EdgeUpdate]) -> int:
    """Apply a batch of :class:`EdgeUpdate` to a mutable graph.

    ``graph`` must expose ``add_edge`` / ``remove_edge`` (duck-typed so
    serving code can pass any mutable overlay).  Applies strictly in
    order and stops at the first failure — the raised
    :class:`~repro.errors.GraphError` reports how many were applied, so
    a broadcast caller can reconcile.  Returns the number applied.
    """
    batch = list(updates)
    applied = 0
    for update in batch:
        try:
            if update.kind == "add":
                graph.add_edge(update.u, update.v, update.weight)
            else:
                graph.remove_edge(update.u, update.v)
        except GraphError as err:
            raise GraphError(
                f"update {applied + 1}/{len(batch)} "
                f"({update.kind} {update.u}-{update.v}) failed: {err}"
            ) from err
        applied += 1
    return applied
