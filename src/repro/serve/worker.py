"""Worker-process entry point of the sharded serving tier.

Each worker attaches to the published graph (zero-copy, see
:mod:`repro.serve.shared`), builds its own
:class:`~repro.core.session.QuerySession` with no result cache
(``cache_size=0``: the dispatcher's one cache answers repeats before
they reach a worker), and then loops on its request queue.  Nothing
asks a worker for metrics: each answer carries its own work counters,
and the dispatcher records them per worker slot.
Because the worker answers through :meth:`QuerySession.serve`, the
multi-process path executes the exact same code as in-process serving;
bitwise-identical results are by construction, not by luck.

Wire protocol (all tuples, pickled over multiprocessing queues):

======================  =====================================================
dispatcher → worker     ``("query", seq, QueryRequest)`` — answer it;
                        ``("update", seq, [EdgeUpdate, ...])`` — apply
                        an edge-update batch to the worker's mutable
                        overlay (``mutable=True`` servers only);
                        ``("crash", 0, None)`` — test hook, die
                        instantly via ``os._exit`` (no cleanup, as a
                        real crash would); ``None`` — drain and exit.
worker → dispatcher     ``(worker_id, seq, kind, payload)`` with kind
                        ``"ready"`` (payload: pid), ``"ok"`` (payload:
                        TopKResult), ``"error"`` (payload: exception
                        class name + message), ``"updated"`` (payload:
                        the overlay's new version), ``"update_error"``
                        (payload: class name + message — the dispatcher
                        raises it at the next ``apply_updates``), or
                        ``"fatal"`` (startup failed).
======================  =====================================================

Mutable serving (``mutable=True``): the worker wraps the shared
immutable CSR segment in a private
:class:`~repro.graph.dynamic.DynamicGraph` overlay.  The base arrays
stay zero-copy; only the delta is per-worker, and because every worker
applies the same update sequence in the same order (per-worker FIFO
queues guarantee an update is visible to every later query on that
worker), the overlays are replicas of the dispatcher's shadow overlay.
The worker attaches the closed visited ball to each answer, and the
dispatcher's cache validates it against the shadow's update log — no
global flush message exists, which is the point.

Responses travel over a **per-worker pipe**, not a shared queue, and
that choice is load-bearing for crash recovery: a shared
``multiprocessing.Queue`` serializes writers through one cross-process
lock, so a worker killed mid-``put`` leaves the lock held and every
*other* worker blocks forever.  With one pipe per worker, a killed
writer can only truncate its own stream — the dispatcher sees EOF,
respawns it, and the rest of the pool never stalls.

Exceptions cross the boundary as ``(class_name, message)`` pairs, not
pickled objects: several library exceptions take structured constructor
arguments and would not survive an unpickle round-trip.  The dispatcher
rebuilds the closest class from :mod:`repro.errors` by name.
"""

from __future__ import annotations

import os

from repro.core.flos import FLoSOptions
from repro.core.session import QuerySession
from repro.graph.dynamic import DynamicGraph
from repro.graph.updates import apply_edge_updates
from repro.serve.shared import SharedGraphDescriptor, attach_shared

__all__ = ["worker_main"]


def worker_main(
    worker_id: int,
    descriptor: SharedGraphDescriptor,
    measure,
    options: FLoSOptions | None,
    requests,
    responses,
    mutable: bool = False,
) -> None:
    """Run one serving worker until the ``None`` sentinel arrives.

    ``requests`` is this worker's ``SimpleQueue``; ``responses`` is the
    send end of this worker's private pipe.  With ``mutable=True`` the
    shared graph is wrapped in a private :class:`DynamicGraph` overlay
    and ``"update"`` messages mutate it (module docstring).  Never
    raises: startup failures are reported as a ``"fatal"`` message (the
    dispatcher turns them into
    :class:`~repro.errors.WorkerCrashError`), per-request failures as
    ``"error"`` responses that fail only the offending request.
    """
    try:
        handle = attach_shared(descriptor)
        graph = DynamicGraph(handle.graph) if mutable else handle.graph
        session = QuerySession(graph, measure, options=options, cache_size=0)
    except BaseException as err:  # report, don't traceback to stderr
        responses.send(
            (worker_id, -1, "fatal", (type(err).__name__, str(err)))
        )
        return
    responses.send((worker_id, -1, "ready", os.getpid()))

    try:
        while True:
            message = requests.get()
            if message is None:
                break
            kind, seq, payload = message
            if kind == "crash":
                # Test hook: die the way SIGKILL would — immediately,
                # skipping atexit/finally, leaving the request
                # unanswered so crash recovery has something to do.
                os._exit(1)
            if kind == "update":
                try:
                    apply_edge_updates(graph, payload)
                except Exception as err:
                    responses.send(
                        (
                            worker_id,
                            seq,
                            "update_error",
                            (type(err).__name__, str(err)),
                        )
                    )
                else:
                    responses.send(
                        (worker_id, seq, "updated", graph.version)
                    )
                continue
            try:
                result = session.serve(payload)
            except Exception as err:
                responses.send(
                    (worker_id, seq, "error", (type(err).__name__, str(err)))
                )
            else:
                responses.send((worker_id, seq, "ok", result))
    finally:
        handle.close()
