"""Disk-resident :class:`~repro.graph.base.GraphAccess` implementation.

``DiskGraph`` answers neighbor queries by reading byte ranges of the store
file through an :class:`~repro.graph.disk.cache.LRUPageCache`.  Nothing but
the 64-byte header and the bounded cache lives in memory, so graphs far
larger than RAM can be searched — the setting of the paper's Sec. 6.4.

There is one read path: the two batch reads of the graph contract
(:meth:`DiskGraph.neighbors_many`, :meth:`DiskGraph.degrees_of`) read the
index entries of the whole batch, then gather the ids, weights or degrees
regions with each needed page going through the cache once per batch.  The
per-node reads are one-element batches.
"""

from __future__ import annotations

from pathlib import Path
from types import TracebackType

import numpy as np

from repro.errors import DiskFormatError
from repro.graph.base import GraphAccess
from repro.graph.disk.cache import CacheStats, LRUPageCache
from repro.graph.disk.format import HEADER_SIZE, Header
from repro.nputil import concatenated_ranges

#: Default in-memory budget for the page cache: 64 MiB, a scaled-down
#: analogue of the paper's 2 GB cap on ~13 GB graphs.
DEFAULT_MEMORY_BUDGET = 64 * 1024 * 1024


class DiskGraph(GraphAccess):
    """Read-only paged graph store.

    Use as a context manager or call :meth:`close` explicitly::

        with DiskGraph("graph.flos") as g:
            ids, weights = g.neighbors(42)
    """

    def __init__(
        self,
        path: str | Path,
        *,
        memory_budget: int = DEFAULT_MEMORY_BUDGET,
    ):
        self._path = Path(path)
        self._fh = self._path.open("rb")
        raw = self._fh.read(HEADER_SIZE)
        try:
            self._header = Header.unpack(raw)
        except DiskFormatError:
            self._fh.close()
            raise
        actual = self._path.stat().st_size
        if actual < self._header.file_size:
            self._fh.close()
            raise DiskFormatError(
                f"{self._path} truncated: {actual} bytes < expected "
                f"{self._header.file_size}"
            )
        self._cache = LRUPageCache(
            self._fh, self._header.page_size, memory_budget
        )
        self._closed = False

    # ------------------------------------------------------------------
    # GraphAccess interface
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return self._header.num_nodes

    @property
    def num_edges(self) -> int:
        return self._header.num_edges

    @property
    def max_degree(self) -> float:
        return self._header.max_degree

    def neighbors(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        ids, weights, _ = self.neighbors_many(np.array([u]))
        return ids, weights

    def degree(self, u: int) -> float:
        return float(self.degrees_of(np.array([u]))[0])

    def out_degree(self, u: int) -> int:
        _, counts = self._row_ranges(self._checked(np.array([u])))
        return int(counts[0])

    def neighbors_many(
        self, nodes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        starts, counts = self._row_ranges(self._checked(nodes))
        head = self._header
        ids = self._gather(head.indices_offset, starts, counts, "<i8")
        if head.weighted:
            weights = self._gather(head.weights_offset, starts, counts, "<f8")
        else:
            weights = np.ones(len(ids), dtype=np.float64)
        return ids, weights, counts

    def degrees_of(self, nodes: np.ndarray) -> np.ndarray:
        nodes = self._checked(nodes)
        return self._gather(
            self._header.degree_offset, nodes, np.ones_like(nodes), "<f8"
        )

    # ------------------------------------------------------------------
    # IO bookkeeping
    # ------------------------------------------------------------------

    @property
    def path(self) -> Path:
        """Path of the backing store file.

        The zero-copy serving tier (:mod:`repro.serve.shared`) uses it
        to re-open the same store in worker processes via mmap.
        """
        return self._path

    @property
    def cache_stats(self) -> CacheStats:
        """IO counters of the underlying page cache."""
        return self._cache.stats

    def drop_cache(self) -> None:
        """Evict every cached page — benchmarks call this between queries
        to model a cold-ish cache."""
        self._cache.clear()

    @property
    def file_size(self) -> int:
        """On-disk size in bytes (the 'disk size' column of Table 7)."""
        return self._header.file_size

    def close(self) -> None:
        if not self._closed:
            self._fh.close()
            self._closed = True

    def __enter__(self) -> "DiskGraph":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()

    # ------------------------------------------------------------------

    def _checked(self, nodes: np.ndarray) -> np.ndarray:
        if self._closed:
            raise DiskFormatError("store is closed")
        return self.validate_nodes(nodes)

    def _row_ranges(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(starts, counts)`` of the rows of ``nodes``: one batch read of
        their index entries ``indptr[u], indptr[u + 1]``."""
        bounds = self._gather(
            self._header.index_offset, nodes, np.full_like(nodes, 2), "<u8"
        ).reshape(-1, 2)
        lo, hi = bounds[:, 0], bounds[:, 1]
        bad = (hi < lo) | (hi > self._header.total_entries)
        if bad.any():
            i = int(np.argmax(bad))
            raise DiskFormatError(
                f"corrupt index entry for node {int(nodes[i])}: "
                f"[{int(lo[i])}, {int(hi[i])})"
            )
        return lo.astype(np.int64), (hi - lo).astype(np.int64)

    def _gather(
        self, offset: int, starts: np.ndarray, counts: np.ndarray, dtype: str
    ) -> np.ndarray:
        """Entries ``[starts[i], starts[i] + counts[i])`` of the region at
        byte ``offset``, back to back.

        Every page the batch touches goes through the cache once: the
        needed pages are grouped into maximal runs of consecutive pages,
        and each run is one :meth:`LRUPageCache.read`.  An entry may
        straddle two pages of a run, so entries are read through a
        byte-strided view of the joined runs.
        """
        width = np.dtype(dtype).itemsize
        pos = offset + width * concatenated_ranges(starts, counts)
        if not len(pos):
            return np.empty(0, dtype=dtype)
        size = self._cache.page_size
        pages = np.unique(
            np.concatenate([pos // size, (pos + width - 1) // size])
        )
        run_heads = np.r_[0, np.flatnonzero(np.diff(pages) > 1) + 1]
        firsts = pages[run_heads]
        run_pages = np.diff(np.r_[run_heads, len(pages)])
        blob = b"".join(
            self._cache.read(first * size, n * size)
            for first, n in zip(firsts.tolist(), run_pages.tolist())
        )
        # Byte position of each entry in ``blob``: its offset within its
        # run plus the bytes of the runs before it.
        run = np.searchsorted(firsts, pos // size, side="right") - 1
        run_start = (np.cumsum(run_pages) - run_pages) * size
        at = pos - firsts[run] * size + run_start[run]
        entries = np.ndarray(
            (len(blob) - width + 1,), dtype=dtype, buffer=blob, strides=(1,)
        )
        return entries[at]
