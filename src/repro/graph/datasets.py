"""Deterministic stand-ins for the paper's SNAP datasets (Table 4).

The paper evaluates on four real graphs from http://snap.stanford.edu/data/:

====== ============ =========== ==========
Abbr.  Dataset      Nodes       Edges
====== ============ =========== ==========
AZ     Amazon       334,863     925,872
DP     DBLP         317,080     1,049,866
YT     Youtube      1,134,890   2,987,624
LJ     LiveJournal  3,997,962   34,681,189
====== ============ =========== ==========

This environment has no network access, so we build *stand-ins*: synthetic
graphs whose node count, edge count, density, and degree-distribution shape
replicate the originals at a configurable scale (default 1/10, LiveJournal
1/20 for tractability).  AZ and DP (co-purchase / co-authorship) get
community-structured generators with near-uniform degrees; YT and LJ
(social networks) get heavy-tailed R-MAT graphs.  Local search behaviour
depends on exactly these local-structure statistics — not on node
identities — so relative method orderings survive the substitution
(see DESIGN.md §5).

Graphs are generated once per process and memoised; ``load_dataset`` can
additionally cache them on disk as ``.npz`` for benchmark reuse.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.errors import GraphError
from repro.graph.generators import chung_lu, community_graph
from repro.graph.io.binary import load_npz, save_npz
from repro.graph.memory import CSRGraph

#: Bump when any stand-in generator changes so stale on-disk caches are
#: never picked up.
DATASET_VERSION = 2

#: Node/edge counts of the real SNAP graphs (paper Table 4).
PAPER_TABLE4 = {
    "AZ": (334_863, 925_872),
    "DP": (317_080, 1_049_866),
    "YT": (1_134_890, 2_987_624),
    "LJ": (3_997_962, 34_681_189),
}


@dataclass(frozen=True)
class DatasetSpec:
    """One stand-in dataset: identity, scale, and generator."""

    name: str
    full_name: str
    paper_nodes: int
    paper_edges: int
    scale: float
    seed: int
    build: Callable[[int, int, int], CSRGraph]


def _build_community(nodes: int, edges: int, seed: int) -> CSRGraph:
    """Near-uniform-degree community graph (Amazon / DBLP shape)."""
    # The spanning spine contributes ~1 edge per node; split the rest
    # 80/20 between intra- and inter-community edges.
    surplus = max(0, edges - (nodes - 1))
    avg_deg = 2.0 * surplus / nodes
    return community_graph(
        nodes,
        num_communities=max(1, nodes // 40),
        avg_internal_degree=avg_deg * 0.8,
        avg_external_degree=avg_deg * 0.2,
        seed=seed,
    )


def _build_social(exponent: float, hub_fraction: float):
    """Heavy-tailed Chung–Lu builder (Youtube / LiveJournal shape).

    ``hub_fraction`` fixes the top hub's expected degree as a fraction of
    the node count, preserving the hub *scale* of the original graph
    (Youtube's largest degree is ~2.5% of |V|, LiveJournal's ~0.4%).
    """

    def build(nodes: int, edges: int, seed: int) -> CSRGraph:
        return chung_lu(
            nodes,
            edges,
            exponent=exponent,
            max_degree=max(8.0, hub_fraction * nodes),
            seed=seed,
        )

    return build


DATASETS: dict[str, DatasetSpec] = {
    "AZ": DatasetSpec(
        "AZ", "Amazon (stand-in)", *PAPER_TABLE4["AZ"], 0.10, 1401, _build_community
    ),
    "DP": DatasetSpec(
        "DP", "DBLP (stand-in)", *PAPER_TABLE4["DP"], 0.10, 1402, _build_community
    ),
    "YT": DatasetSpec(
        "YT",
        "Youtube (stand-in)",
        *PAPER_TABLE4["YT"],
        0.10,
        1403,
        _build_social(exponent=2.1, hub_fraction=0.025),
    ),
    "LJ": DatasetSpec(
        "LJ",
        "LiveJournal (stand-in)",
        *PAPER_TABLE4["LJ"],
        0.05,
        1404,
        _build_social(exponent=2.4, hub_fraction=0.004),
    ),
}

_memo: dict[tuple[str, float], CSRGraph] = {}


def cache_dir() -> Path:
    """Directory for on-disk dataset caches (``REPRO_CACHE_DIR`` overrides)."""
    env = os.environ.get("REPRO_CACHE_DIR")
    base = Path(env) if env else Path.home() / ".cache" / "repro-flos"
    base.mkdir(parents=True, exist_ok=True)
    return base


def load_dataset(
    name: str,
    *,
    scale: float | None = None,
    use_disk_cache: bool = True,
) -> CSRGraph:
    """Load (generating if needed) the stand-in graph for ``name``.

    Parameters
    ----------
    name:
        One of ``AZ``, ``DP``, ``YT``, ``LJ``.
    scale:
        Override the default scale factor (fraction of the real graph's
        node/edge counts).
    use_disk_cache:
        Persist/reuse the generated graph as ``.npz`` under
        :func:`cache_dir`.  When false, nothing on disk is read,
        written or created.
    """
    try:
        spec = DATASETS[name.upper()]
    except KeyError:
        raise GraphError(
            f"unknown dataset {name!r}; choose from {sorted(DATASETS)}"
        ) from None
    eff_scale = spec.scale if scale is None else scale
    key = (spec.name, eff_scale)
    if key in _memo:
        return _memo[key]
    cache_file = None
    if use_disk_cache:
        cache_file = (
            cache_dir() / f"{spec.name}_v{DATASET_VERSION}_{eff_scale:g}.npz"
        )
    if cache_file is not None and cache_file.exists():
        graph = load_npz(cache_file)
    else:
        nodes = max(64, int(spec.paper_nodes * eff_scale))
        edges = max(64, int(spec.paper_edges * eff_scale))
        graph = spec.build(nodes, edges, spec.seed)
        if cache_file is not None:
            save_npz(graph, cache_file)
    _memo[key] = graph
    return graph


def clear_memo() -> None:
    """Drop the in-process dataset memo (tests use this)."""
    _memo.clear()
