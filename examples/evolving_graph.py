"""Queries against a live, changing graph — no re-preprocessing, ever.

The paper's core motivation (Sec. 1): precomputation-based methods must
repeat their expensive offline step "whenever the graph changes", while
FLoS needs none, so queries issued right after updates are answered
against the fresh topology at full exactness.

This example simulates a social feed where friendships appear over
time, served by ONE persistent :class:`repro.core.QuerySession` instead
of a cold engine run per edit batch:

1. wraps a base graph in :class:`repro.graph.dynamic.DynamicGraph` —
   every mutation lands in its append-only update log;
2. warms the session's result cache, applies an edge batch through
   :func:`repro.graph.apply_edge_updates`, and queries again: cached
   answers whose visited ball the batch never touched survive as hits,
   only the touched neighborhoods recompute;
3. contrasts that with K-dash, whose index is stale the moment an edge
   changes and must be rebuilt (we measure the rebuild cost).

Run:  python examples/evolving_graph.py
"""

import time

from repro import RWR
from repro.baselines import KDashIndex
from repro.core.session import QuerySession
from repro.graph.dynamic import DynamicGraph
from repro.graph.generators import community_graph
from repro.graph.updates import EdgeUpdate, apply_edge_updates


def main():
    base = community_graph(
        8_000, num_communities=160, avg_internal_degree=5.0,
        avg_external_degree=0.5, seed=11,
    )
    graph = DynamicGraph(base)
    user, k = 4040, 5
    users = [user, 120, 1500, 2750, 5620, 7001]
    session = QuerySession(graph, RWR(c=0.5))

    print(f"social graph: {graph.num_nodes} users, {graph.num_edges} ties")
    before = session.top_k(user, k)
    for other in users[1:]:  # warm the cache for the rest of the feed
        session.top_k(other, k)
    print(f"\nsuggested connections for user #{user}: "
          f"{[int(n) for n in before.nodes]}")

    # The user makes three new friends, one of them far away.  One
    # batch through the update log: the graph version advances and the
    # session learns exactly which cached answers the batch touched.
    new_friends = [int(before.nodes[0]), 77, 6003]
    batch = [
        EdgeUpdate(user, friend, "add", weight=3.0)
        for friend in new_friends
        if not graph.has_edge(user, friend)
    ]
    apply_edge_updates(graph, batch)
    print(f"user #{user} connects with {new_friends} "
          f"(graph version {graph.version})")

    # Query again immediately: fresh topology, still certified exact,
    # already-connected users excluded like a real recommender would.
    t0 = time.perf_counter()
    after = session.top_k(user, k, exclude=set(new_friends))
    ms = (time.perf_counter() - t0) * 1e3
    print(
        f"updated suggestions ({ms:.0f} ms, zero re-preprocessing): "
        f"{[int(n) for n in after.nodes]}"
    )
    moved = set(map(int, after.nodes)) - set(map(int, before.nodes))
    print(f"  {len(moved)} suggestions changed because of the new ties")

    # The rest of the feed re-renders too — but the batch only touched
    # user #4040's neighborhood, so everyone else's cached answer is
    # still provably valid and served as a hit, no recomputation.
    for other in users[1:]:
        session.top_k(other, k)
    m = session.metrics()
    print(
        f"feed re-render after the update: {m.cache_hits} cache hits, "
        f"{m.cache_invalidations} invalidated, of {m.queries_served} "
        f"queries total"
    )

    # The precompute-based alternative: rebuild the whole index.
    t0 = time.perf_counter()
    KDashIndex(graph.compact(), RWR(c=0.5))
    rebuild_s = time.perf_counter() - t0
    print(
        f"\nfor comparison, rebuilding a K-dash index after the same "
        f"update costs {rebuild_s:.1f} s — "
        f"{rebuild_s * 1e3 / max(ms, 1e-9):.0f}x one FLoS query"
    )


if __name__ == "__main__":
    main()
