"""Zero-copy graph publication for the multi-process serving tier.

FLoS needs no per-graph preprocessing, so the only thing worth sharing
between serving workers is the graph itself.  Two publication paths,
one attach contract:

* **Shared memory** (:func:`open_shared` on a
  :class:`~repro.graph.memory.CSRGraph`): the four CSR arrays —
  ``indptr``, ``indices``, ``weights``, plus the precomputed weighted
  ``degrees`` — are copied **once** into a single
  :class:`multiprocessing.shared_memory.SharedMemory` segment.  Workers
  attach by segment name and wrap numpy views over the same physical
  pages via :meth:`CSRGraph.from_arrays`; N workers cost one graph's
  RAM, not N.
* **mmap of the disk store** (:func:`open_shared` on a
  :class:`~repro.graph.disk.store.DiskGraph` or a ``.flos`` path): the
  on-disk binary format (:mod:`repro.graph.disk.format`) is already a
  flat CSR layout, so workers ``np.memmap`` the index/degree/indices/
  weights regions read-only and let the OS page cache share pages
  between them — graphs larger than RAM ride the same serving path
  (paper Sec. 6.4).

The :class:`SharedGraphDescriptor` is the small picklable handle that
crosses the process boundary; :func:`attach_shared` turns it back into
a read-only :class:`~repro.graph.memory.CSRGraph` without copying edge
data (the one exception: *unweighted* ``.flos`` stores have no weights
region, so each attaching worker synthesises a unit-weight array of
O(m) floats — prefer ``write_disk_graph(..., force_weighted=True)``
for larger-than-RAM unweighted serving).

Ownership: the process that called :func:`open_shared` owns the
segment and must call :meth:`SharedGraph.close` (or use the handle as
a context manager) to unlink it.  Attaching workers never unlink; a
killed worker therefore cannot leak the segment — POSIX frees the
mapping with the process, and the name disappears when the owner
unlinks.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from repro.errors import ConfigurationError, GraphError
from repro.graph.base import GraphAccess
from repro.graph.disk.format import Header
from repro.graph.disk.store import DiskGraph
from repro.graph.memory import CSRGraph

__all__ = [
    "SharedGraphDescriptor",
    "SharedGraph",
    "AttachedGraph",
    "open_shared",
    "attach_shared",
]

#: Prefix of every shared-memory segment this module creates; tests and
#: operators can audit ``/dev/shm`` for leaks by this prefix.
SEGMENT_PREFIX = "flos-csr-"

_INT64 = np.dtype("<i8")
_FLOAT64 = np.dtype("<f8")


@dataclass(frozen=True)
class SharedGraphDescriptor:
    """Picklable handle to a published graph (the cross-process token).

    ``kind`` is ``"shm"`` (segment of CSR arrays) or ``"mmap"``
    (``.flos`` store on disk).  Everything a worker needs to attach —
    sizes, the segment name or file path, and the precomputed
    ``max_degree`` scalar — rides in this dataclass; no graph data
    does.
    """

    kind: str
    num_nodes: int
    num_entries: int
    max_degree: float
    segment: str | None = None
    path: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("shm", "mmap"):
            raise ConfigurationError(
                f"unknown shared-graph kind {self.kind!r}"
            )
        if self.kind == "shm" and not self.segment:
            raise ConfigurationError("shm descriptor needs a segment name")
        if self.kind == "mmap" and not self.path:
            raise ConfigurationError("mmap descriptor needs a store path")


def _segment_layout(num_nodes: int, num_entries: int):
    """Byte offsets of the four arrays inside one shm segment."""
    indptr_bytes = (num_nodes + 1) * _INT64.itemsize
    indices_bytes = num_entries * _INT64.itemsize
    weights_bytes = num_entries * _FLOAT64.itemsize
    degrees_bytes = num_nodes * _FLOAT64.itemsize
    offsets = {}
    cursor = 0
    for name, size in (
        ("indptr", indptr_bytes),
        ("indices", indices_bytes),
        ("weights", weights_bytes),
        ("degrees", degrees_bytes),
    ):
        offsets[name] = cursor
        cursor += size
    return offsets, cursor


class AttachedGraph:
    """A worker-side zero-copy view of a published graph.

    Holds the attached :class:`~repro.graph.memory.CSRGraph` plus
    whatever keeps its buffers alive (the ``SharedMemory`` handle for
    ``shm``, the memmaps for ``mmap``).  Keep the handle for as long as
    the graph is used; :meth:`close` drops the views and detaches.
    Never unlinks — that is the owner's job.
    """

    def __init__(self, graph: CSRGraph, *, _shm=None):
        self.graph = graph
        self._shm = _shm
        self._closed = False

    def close(self) -> None:
        """Detach from the segment (no-op for mmap; never unlinks)."""
        if self._closed:
            return
        self._closed = True
        # Drop the numpy views before closing: SharedMemory.close()
        # raises BufferError while exported views exist.
        self.graph = None
        if self._shm is not None:
            try:
                self._shm.close()
            except BufferError:  # a caller still holds a view; detach
                pass             # happens at process exit instead
            self._shm = None

    def __enter__(self) -> "AttachedGraph":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class SharedGraph:
    """Owner handle of one published graph segment.

    Returned by :func:`open_shared`.  ``descriptor`` is what you ship
    to workers; ``close()`` (or context-manager exit) unlinks a shared-
    memory segment — after every worker has exited, the kernel frees
    the pages.  For ``mmap`` publications there is nothing to own (the
    store file outlives the server), so ``close()`` is a no-op.
    """

    def __init__(self, descriptor: SharedGraphDescriptor, *, _shm=None):
        self.descriptor = descriptor
        self._shm = _shm
        self._closed = False

    @property
    def kind(self) -> str:
        return self.descriptor.kind

    def close(self) -> None:
        """Release and unlink the segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._shm is not None:
            try:
                self._shm.close()
            except BufferError:  # pragma: no cover - defensive
                pass
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            self._shm = None

    def __enter__(self) -> "SharedGraph":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        d = self.descriptor
        where = d.segment if d.kind == "shm" else d.path
        return (
            f"SharedGraph({d.kind}:{where}, {d.num_nodes} nodes, "
            f"{d.num_entries} entries)"
        )


GraphSource = Union[GraphAccess, str, Path]


def open_shared(graph: GraphSource) -> SharedGraph:
    """Publish a graph once for zero-copy multi-process attachment.

    * :class:`~repro.graph.memory.CSRGraph` → one shared-memory
      segment holding ``indptr``/``indices``/``weights``/``degrees``.
    * :class:`~repro.graph.disk.store.DiskGraph` or a ``.flos`` path →
      an mmap descriptor pointing at the store file (no copy at all;
      graphs larger than RAM stay on disk).

    Any other :class:`~repro.graph.base.GraphAccess` cannot cross a
    process boundary zero-copy and raises
    :class:`~repro.errors.ConfigurationError` — convert via
    :class:`CSRGraph` or :func:`repro.graph.disk.write_disk_graph`
    first, or serve it in-process with a
    :class:`~repro.core.session.QuerySession`.
    """
    if isinstance(graph, (str, Path)):
        path = Path(graph)
        if path.suffix.lower() != ".flos":
            raise ConfigurationError(
                f"only .flos disk stores can be published by path, got "
                f"{path.name!r}"
            )
        header = _read_header(path)
        return SharedGraph(
            SharedGraphDescriptor(
                kind="mmap",
                num_nodes=header.num_nodes,
                num_entries=header.total_entries,
                max_degree=header.max_degree,
                path=str(path),
            )
        )
    if isinstance(graph, DiskGraph):
        return open_shared(graph.path)
    if isinstance(graph, CSRGraph):
        return _publish_csr(graph)
    raise ConfigurationError(
        f"{type(graph).__name__} has no zero-copy publication path: "
        "only the immutable CSRGraph (shared memory) and the .flos disk "
        "store (mmap) can be shared across worker processes.  Convert "
        "with CSRGraph.from_edges/GraphBuilder or write_disk_graph, or "
        "serve in-process with QuerySession."
    )


def _publish_csr(graph: CSRGraph) -> SharedGraph:
    from multiprocessing import shared_memory

    num_nodes = graph.num_nodes
    num_entries = int(len(graph._indices))
    offsets, total = _segment_layout(num_nodes, num_entries)
    shm = shared_memory.SharedMemory(
        name=SEGMENT_PREFIX + secrets.token_hex(6),
        create=True,
        size=max(total, 1),
    )
    try:
        # Copy each array into its slot, then drop the temporary views
        # so close() never trips over exported buffers.
        for name, source, dtype, count in (
            ("indptr", graph._indptr, _INT64, num_nodes + 1),
            ("indices", graph._indices, _INT64, num_entries),
            ("weights", graph._weights, _FLOAT64, num_entries),
            ("degrees", graph.degrees, _FLOAT64, num_nodes),
        ):
            view = np.ndarray(
                (count,), dtype=dtype, buffer=shm.buf, offset=offsets[name]
            )
            view[:] = source
            del view
    except BaseException:
        shm.close()
        shm.unlink()
        raise
    descriptor = SharedGraphDescriptor(
        kind="shm",
        num_nodes=num_nodes,
        num_entries=num_entries,
        max_degree=graph.max_degree,
        segment=shm.name,
    )
    return SharedGraph(descriptor, _shm=shm)


def attach_shared(descriptor: SharedGraphDescriptor) -> AttachedGraph:
    """Attach to a published graph and wrap it as a read-only CSRGraph.

    The returned :class:`AttachedGraph` holds views over the shared
    pages — no edge data is copied (see the module docstring for the
    unweighted-store exception).  Like any :class:`CSRGraph` the
    wrapped graph is immutable, so threads inside one worker may also
    share it.
    """
    if descriptor.kind == "shm":
        return _attach_shm(descriptor)
    return _attach_mmap(descriptor)


def _attach_shm(descriptor: SharedGraphDescriptor) -> AttachedGraph:
    from multiprocessing import shared_memory

    offsets, total = _segment_layout(
        descriptor.num_nodes, descriptor.num_entries
    )
    try:
        shm = shared_memory.SharedMemory(name=descriptor.segment)
    except FileNotFoundError as err:
        raise GraphError(
            f"shared graph segment {descriptor.segment!r} does not exist "
            "(was the owning server closed?)"
        ) from err
    if shm.size < total:
        shm.close()
        raise GraphError(
            f"shared graph segment {descriptor.segment!r} is too small: "
            f"{shm.size} bytes < expected {total}"
        )

    def view(name: str, dtype: np.dtype, count: int) -> np.ndarray:
        arr = np.ndarray(
            (count,), dtype=dtype, buffer=shm.buf, offset=offsets[name]
        )
        arr.setflags(write=False)
        return arr

    n, entries = descriptor.num_nodes, descriptor.num_entries
    graph = CSRGraph.from_arrays(
        view("indptr", _INT64, n + 1),
        view("indices", _INT64, entries),
        view("weights", _FLOAT64, entries),
        degrees=view("degrees", _FLOAT64, n),
        max_degree=descriptor.max_degree,
        validate=False,
    )
    return AttachedGraph(graph, _shm=shm)


def _read_header(path: Path) -> Header:
    with Path(path).open("rb") as fh:
        return Header.unpack(fh.read(64))


def _attach_mmap(descriptor: SharedGraphDescriptor) -> AttachedGraph:
    path = Path(descriptor.path)
    header = _read_header(path)
    if (
        header.num_nodes != descriptor.num_nodes
        or header.total_entries != descriptor.num_entries
    ):
        raise GraphError(
            f"{path} changed since publication: header says "
            f"{header.num_nodes} nodes / {header.total_entries} entries, "
            f"descriptor says {descriptor.num_nodes} / "
            f"{descriptor.num_entries}"
        )

    def region(offset: int, dtype: str, count: int) -> np.ndarray:
        return np.memmap(path, dtype=dtype, mode="r", offset=offset,
                         shape=(count,))

    n, entries = header.num_nodes, header.total_entries
    # indptr is stored unsigned; the int64 conversion copies (n+1)*8
    # bytes — the only non-shared allocation on the weighted path.
    indptr = region(header.index_offset, "<u8", n + 1).astype(np.int64)
    indices = region(header.indices_offset, "<i8", entries)
    degrees = region(header.degree_offset, "<f8", n)
    if header.weighted:
        weights = region(header.weights_offset, "<f8", entries)
    else:
        # No weights region on disk: synthesise unit weights (O(m) per
        # worker — see module docstring).
        weights = np.ones(entries, dtype=np.float64)
    graph = CSRGraph.from_arrays(
        indptr,
        indices,
        weights,
        degrees=degrees,
        max_degree=header.max_degree,
        validate=False,
    )
    return AttachedGraph(graph)
