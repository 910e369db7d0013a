"""Byte-budgeted LRU page cache over a binary file.

The cache mediates *all* data reads of :class:`~repro.graph.disk.store.DiskGraph`.
Pages are fixed-size byte blocks addressed by page number; the memory budget
caps how many pages stay resident, emulating the paper's "memory usage
restricted to 2 GB" setting at a smaller scale.  Hit/miss/byte counters are
kept so benchmarks can report IO behaviour alongside wall time.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import BinaryIO


@dataclass
class CacheStats:
    """Counters accumulated over the cache's lifetime."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    bytes_read: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    def reset(self) -> None:
        self.hits = self.misses = self.evictions = self.bytes_read = 0


class LRUPageCache:
    """Least-recently-used cache of fixed-size file pages."""

    def __init__(self, fh: BinaryIO, page_size: int, memory_budget: int):
        if page_size <= 0:
            raise ValueError("page_size must be positive")
        if memory_budget < page_size:
            raise ValueError("memory budget must hold at least one page")
        self._fh = fh
        self._page_size = page_size
        self._capacity = max(1, memory_budget // page_size)
        self._pages: OrderedDict[int, bytes] = OrderedDict()
        self.stats = CacheStats()

    @property
    def page_size(self) -> int:
        return self._page_size

    @property
    def resident_pages(self) -> int:
        return len(self._pages)

    def read(self, offset: int, length: int) -> bytes:
        """Read ``length`` bytes starting at file ``offset`` through the cache."""
        if length <= 0:
            return b""
        first = offset // self._page_size
        last = (offset + length - 1) // self._page_size
        chunks: list[bytes] = []
        for page_no in range(first, last + 1):
            page = self._get_page(page_no)
            start = offset - page_no * self._page_size if page_no == first else 0
            end = (
                offset + length - page_no * self._page_size
                if page_no == last
                else self._page_size
            )
            chunks.append(page[start:end])
        return b"".join(chunks)

    def _get_page(self, page_no: int) -> bytes:
        page = self._pages.get(page_no)
        if page is not None:
            self.stats.hits += 1
            self._pages.move_to_end(page_no)
            return page
        self.stats.misses += 1
        self._fh.seek(page_no * self._page_size)
        page = self._fh.read(self._page_size)
        self.stats.bytes_read += len(page)
        self._pages[page_no] = page
        if len(self._pages) > self._capacity:
            self._pages.popitem(last=False)
            self.stats.evictions += 1
        return page

    def clear(self) -> None:
        """Drop every resident page (counters are kept)."""
        self._pages.clear()
