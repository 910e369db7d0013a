"""Monte-Carlo random-walk estimators for RWR and PHP.

Sampling actual walks is the third classical way (besides iteration and
linear solves) to evaluate random-walk proximities, and a standard
baseline in the personalized-PageRank literature [Fogaras et al. 2005;
Avrachenkov et al. 2007].  It lives in ``tests/`` as a reference: an
*independent* implementation path against which the test suite
cross-validates the exact solvers, which would catch a systematic error
shared by the algebraic code paths.

Estimators
----------
``monte_carlo_rwr``   forward walks from the query with restart
                      probability ``c``; node visit frequencies converge
                      to the RWR vector.
``monte_carlo_php``   walks from a *start* node absorbed at the query,
                      length-penalised by ``c`` per step; the estimator
                      averages ``c^len`` over walks that hit the query,
                      which is exactly PHP's path-sum definition.
``monte_carlo_php_many``  one PHP estimate per start node, each driven
                      by an *independent* child stream spawned from one
                      seed, so estimates are uncorrelated yet the whole
                      batch is reproducible.

Randomness contract
-------------------
Every estimator accepts ``seed`` as an ``int``, ``None``, or an already
constructed :class:`numpy.random.Generator`.  An ``int`` gives a
reproducible run; ``None`` draws fresh OS entropy; a ``Generator`` is
used *as passed* — its state advances, so two consecutive calls sharing
one generator produce different (independent) sample sets.  Passing the
same *integer* to two calls intentionally replays the identical walk
sequence; callers that want several independent estimates from one seed
should spawn child streams with :func:`spawn_rngs` (or pass a shared
``Generator``), never reuse the integer.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MeasureError
from repro.graph.base import GraphAccess
from repro.graph.memory import CSRGraph


def spawn_rngs(
    seed: int | np.random.Generator | None, n: int
) -> list[np.random.Generator]:
    """``n`` statistically independent generators from one seed.

    Uses :meth:`numpy.random.SeedSequence.spawn`, the supported way to
    derive non-overlapping child streams — unlike ``default_rng(seed)``
    repeated ``n`` times, which replays one identical stream.  When
    ``seed`` is already a ``Generator``, children are spawned from its
    internal bit generator (advancing it), keeping the whole family
    reproducible from the original seed.
    """
    if n < 0:
        raise MeasureError("cannot spawn a negative number of streams")
    if isinstance(seed, np.random.Generator):
        return [
            np.random.default_rng(ss)
            for ss in seed.bit_generator.seed_seq.spawn(n)
        ]
    return [np.random.default_rng(ss) for ss in np.random.SeedSequence(seed).spawn(n)]


def monte_carlo_rwr(
    graph: CSRGraph,
    query: int,
    *,
    restart: float = 0.5,
    num_walks: int = 10_000,
    seed: int | np.random.Generator | None = None,
) -> np.ndarray:
    """Estimate the full RWR vector by simulating restart walks.

    Each walk starts at ``query``; at every step it stops with
    probability ``restart`` (contributing its current position) or moves
    to a random neighbor.  The empirical distribution of stop positions
    is an unbiased estimate of the RWR vector.  ``seed`` follows the
    module-level randomness contract (int / ``Generator`` / ``None``).
    """
    if not 0.0 < restart < 1.0:
        raise MeasureError("restart must lie in (0, 1)")
    if num_walks < 1:
        raise MeasureError("num_walks must be >= 1")
    graph.validate_node(query)
    rng = np.random.default_rng(seed)
    counts = np.zeros(graph.num_nodes, dtype=np.int64)

    indptr, indices = graph._indptr, graph._indices
    weights = graph._weights
    degrees = graph.degrees

    for _ in range(num_walks):
        node = query
        while rng.random() >= restart:
            lo, hi = indptr[node], indptr[node + 1]
            if lo == hi:
                break  # dangling: the walk is stuck, count it here
            w = weights[lo:hi]
            if degrees[node] <= 0:
                break
            step = rng.choice(hi - lo, p=w / degrees[node])
            node = int(indices[lo + step])
        counts[node] += 1
    return counts / num_walks


def monte_carlo_php(
    graph: CSRGraph,
    query: int,
    start: int,
    *,
    decay: float = 0.5,
    num_walks: int = 10_000,
    max_steps: int = 200,
    seed: int | np.random.Generator | None = None,
) -> tuple[float, float]:
    """Estimate ``PHP(start)`` w.r.t. ``query`` by absorbed walks.

    PHP admits the path-sum form
    ``PHP(i) = Σ_walks i→q  P(walk) · c^len(walk)``; the estimator
    samples walks from ``start`` and averages ``c^len`` for walks
    absorbed at the query (0 for walks truncated at ``max_steps``,
    which introduces a bias below ``c^max_steps`` — negligible for the
    defaults).  Returns ``(estimate, standard_error)``.  ``seed``
    follows the module-level randomness contract (int / ``Generator`` /
    ``None``); pass a shared ``Generator`` (or :func:`spawn_rngs`
    children) when estimating several starts, so samples are
    independent rather than replays of one walk sequence.
    """
    if not 0.0 < decay < 1.0:
        raise MeasureError("decay must lie in (0, 1)")
    if num_walks < 1:
        raise MeasureError("num_walks must be >= 1")
    graph.validate_node(query)
    graph.validate_node(start)
    if start == query:
        return 1.0, 0.0
    rng = np.random.default_rng(seed)
    indptr, indices = graph._indptr, graph._indices
    weights = graph._weights
    degrees = graph.degrees

    samples = np.zeros(num_walks)
    for w_idx in range(num_walks):
        node = start
        value = 1.0
        for _ in range(max_steps):
            lo, hi = indptr[node], indptr[node + 1]
            if lo == hi or degrees[node] <= 0:
                value = 0.0
                break
            w = weights[lo:hi]
            step = rng.choice(hi - lo, p=w / degrees[node])
            node = int(indices[lo + step])
            value *= decay
            if node == query:
                break
        else:
            value = 0.0
        if node != query:
            value = 0.0
        samples[w_idx] = value
    estimate = float(samples.mean())
    stderr = float(samples.std(ddof=1) / np.sqrt(num_walks)) if num_walks > 1 else 0.0
    return estimate, stderr


def monte_carlo_php_many(
    graph: CSRGraph,
    query: int,
    starts,
    *,
    decay: float = 0.5,
    num_walks: int = 10_000,
    max_steps: int = 200,
    seed: int | np.random.Generator | None = None,
) -> list[tuple[float, float]]:
    """One :func:`monte_carlo_php` estimate per start node.

    Each start is driven by its own child stream from
    :func:`spawn_rngs`, so the estimates are statistically independent
    of each other while the whole batch replays exactly from one
    integer ``seed``.  (Naively passing the same ``seed`` int to a loop
    of :func:`monte_carlo_php` calls would feed every start the *same*
    walk randomness — correlated errors that defeat cross-validation.)
    Returns ``[(estimate, standard_error), ...]`` in ``starts`` order.
    """
    starts = [int(s) for s in starts]
    rngs = spawn_rngs(seed, len(starts))
    return [
        monte_carlo_php(
            graph,
            query,
            start,
            decay=decay,
            num_walks=num_walks,
            max_steps=max_steps,
            seed=rng,
        )
        for start, rng in zip(starts, rngs)
    ]
