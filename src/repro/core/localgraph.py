"""Bookkeeping of the visited subgraph during local search.

``LocalView`` maintains, incrementally as nodes are visited, everything the
bound computations of paper Sec. 4–5 need:

* the visited set ``S`` with a global↔local id mapping;
* the edges *within* ``S`` as one append-only store of symmetric weights
  ``A_uv = p_uv · w_u`` (Theorem 4 guarantees restoration only tightens
  bounds, so the edge set is append-only);
* per visited node, the residual transition mass to unvisited neighbors
  (the ``T_{i,d}`` dummy column of Algorithm 5);
* the boundary ``δS`` (visited nodes with at least one unvisited neighbor);
* when tightening is enabled, the star-to-mesh self-loop sums of Sec. 5.3,
  maintained *incrementally*: a node's sums only change when one of its
  neighbors is visited, so each restored edge costs O(1) instead of
  rescanning the whole boundary every iteration.

Transition probabilities always use the node's **full** degree in the
original graph — deleting a transition probability is *not* deleting an
edge and never renormalizes the rest (paper Sec. 4.1).  This also gives a
search-free identity used throughout: for an undirected edge,
``p_{v,u} = w_uv / w_v = p_{u,v} · w_u / w_v``.

It is also why the store keeps weights, not probabilities: ``A`` is
symmetric, so each undirected edge is written once, as a CSR entry in
the row of its later-visited endpoint.  That makes the store strictly
lower-triangular in local ids (``L``), and a batch of new nodes only
appends rows.  The transition matrix is recovered by row scaling,
``T_S x = (L x + Lᵀ x) / w`` with the query row zeroed — see
:class:`TransitionOperator`, the one reader of the store.

Everything lives in growing numpy buffers, so nothing is ever
re-assembled, and restoration visits a whole batch of nodes at once:
membership resolution is one int32 lookup-table gather (the table and
the global-id buffer are the only membership structures), the batch's
store rows are one masked append, dummy-mass and star-to-mesh
retractions are bincount scatter ops, and the batch's own
dummy/boundary/tightening state is computed by segment sums over the
concatenated adjacency.  The result equals visiting the batch one node
at a time (up to float summation order): visiting ``{u₁, u₂}``
sequentially first charges ``u₁``'s dummy with the mass to the
then-unvisited ``u₂`` and retracts it when ``u₂`` is visited, while the
batched pass never charges it at all.  The one-node-at-a-time loop lives
in ``tests/references.py`` as the oracle the equivalence tests grow in
lockstep with this class.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

# The compiled CSR/CSC kernels behind scipy's ``@``.  Calling them
# directly skips ~15µs of Python dispatch per product, which outweighs
# the compute for the small systems most refreshes solve — but they
# trust their arguments, so :meth:`TransitionOperator.sync` checks the
# store's shape first.
from scipy.sparse import _sparsetools

from repro.errors import TransitionStoreError
from repro.graph.base import GraphAccess
from repro.nputil import concatenated_ranges, segment_sums

_INITIAL_CAPACITY = 64


class _GrowingBuffer:
    """Append-only numpy buffer with capacity doubling."""

    def __init__(self, dtype):
        self._data = np.empty(_INITIAL_CAPACITY, dtype=dtype)
        self._size = 0

    def append(self, values: np.ndarray) -> None:
        need = self._size + len(values)
        if need > len(self._data):
            new_cap = max(need, 2 * len(self._data))
            grown = np.empty(new_cap, dtype=self._data.dtype)
            grown[: self._size] = self._data[: self._size]
            self._data = grown
        self._data[self._size : need] = values
        self._size = need

    def append_scalar(self, value) -> None:
        if self._size == len(self._data):
            grown = np.empty(2 * len(self._data), dtype=self._data.dtype)
            grown[: self._size] = self._data
            self._data = grown
        self._data[self._size] = value
        self._size += 1

    @property
    def raw(self) -> np.ndarray:
        """The underlying buffer (over-allocated); for in-place updates."""
        return self._data

    def view(self) -> np.ndarray:
        return self._data[: self._size]

    def __len__(self) -> int:
        return self._size


class LocalView:
    """Incrementally maintained visited subgraph around a query node."""

    def __init__(
        self,
        graph: GraphAccess,
        query: int,
        *,
        track_tightening: bool = True,
    ):
        graph.validate_node(query)
        self.graph = graph
        self.query = query
        self.track_tightening = track_tightening

        # Global id per local id, grown in step with the view.
        self._gids = _GrowingBuffer(np.int64)
        # Membership: local id per global id, -1 = unvisited (int32
        # halves the memset cost; node counts beyond 2**31 are far
        # outside this reproduction's reach).
        self._lut = np.full(graph.num_nodes, -1, dtype=np.int32)

        # Cached full adjacency of each visited node, stored concatenated
        # (global ids / probs) with per-node offsets so batch expansion
        # can gather many nodes' neighborhoods in one multi-slice.
        self._adj_ids = _GrowingBuffer(np.int64)
        self._adj_probs = _GrowingBuffer(np.float64)
        self._adj_offsets = _GrowingBuffer(np.int64)
        self._adj_offsets.append_scalar(0)
        self._degrees = _GrowingBuffer(np.float64)

        # Symmetric edge weights within S as a strictly lower-triangular
        # CSR in local ids (module docstring): ``len(indptr) == |S| + 1``.
        self._indptr = _GrowingBuffer(np.int32)
        self._indptr.append_scalar(0)
        self._indices = _GrowingBuffer(np.int32)
        self._weights = _GrowingBuffer(np.float64)

        # Residual transition mass to unvisited neighbors, per local node.
        self._dummy_mass = _GrowingBuffer(np.float64)
        # Count of unvisited neighbors, per local node (δS membership).
        self._unvisited_count = _GrowingBuffer(np.int64)

        # Star-to-mesh sums (Sec. 5.3), *without* the decay factor:
        #   loop_sum[i]  = Σ_{j ∈ N_i unvisited} p_{i,j} p_{j,i}
        #   tight_sum[i] = Σ_{j ∈ N_i unvisited} p_{i,j} (1 - p_{j,i})
        self._loop_sum = _GrowingBuffer(np.float64)
        self._tight_sum = _GrowingBuffer(np.float64)

        self.neighbor_queries = 0
        self._visit_batch(np.array([query], dtype=np.int64))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        """|S| — number of visited nodes."""
        return len(self._gids)

    @property
    def restored_entries(self) -> int:
        """Adjacency entries read so far: every visited node's full row."""
        return len(self._adj_ids)

    @property
    def stored_entries(self) -> int:
        """Entries of the symmetric store: the edges within S, once each."""
        return len(self._indices)

    def is_visited(self, node: int) -> bool:
        return self._lut[node] >= 0

    def local_id(self, node: int) -> int:
        """Local id of a visited node; ``KeyError`` if it is unvisited."""
        local = int(self._lut[node])
        if local < 0:
            raise KeyError(node)
        return local

    def global_ids(self) -> np.ndarray:
        """Global id per local id (read-only view, cached incrementally)."""
        out = self._gids.view()
        out.flags.writeable = False
        return out

    def local_degree(self, local: int) -> float:
        """Weighted degree (in the *full* graph) of a visited node."""
        return float(self._degrees.view()[local])

    def degrees_array(self) -> np.ndarray:
        return self._degrees.view()

    def dummy_mass(self) -> np.ndarray:
        """Residual transition mass ``T_{i,d}`` per visited node (local)."""
        return self._dummy_mass.view()

    def boundary_mask(self) -> np.ndarray:
        """Boolean mask over local ids: True for nodes in ``δS``."""
        return self._unvisited_count.view() > 0

    def settled_mask(self) -> np.ndarray:
        """Mask of nodes in ``S \\ δS`` — every neighbor already visited."""
        return self._unvisited_count.view() == 0

    def unvisited_counts(self) -> np.ndarray:
        """Unvisited-neighbor count per local id (read-only view)."""
        out = self._unvisited_count.view()
        out.flags.writeable = False
        return out

    def adjacency(self, local: int) -> tuple[np.ndarray, np.ndarray]:
        """Cached ``(neighbor_global_ids, transition_probs)`` of a visited node."""
        offsets = self._adj_offsets.view()
        lo, hi = offsets[local], offsets[local + 1]
        return self._adj_ids.view()[lo:hi], self._adj_probs.view()[lo:hi]

    def symmetric_store(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR ``(indptr, indices, weights)`` of the lower-triangular ``L``.

        Each undirected edge within S appears once, in the row of its
        later-visited endpoint, with weight ``A_uv = p_uv · w_u``.
        """
        return self._indptr.view(), self._indices.view(), self._weights.view()

    def closed_ball(self) -> np.ndarray:
        """Sorted closed visited ball ``S ∪ N(S)`` as global ``int32`` ids.

        This is every node whose graph record the search *read*: the
        visited set plus its one-hop boundary (boundary degrees enter the
        star-to-mesh tightening of Sec. 5.3, so an edge update touching a
        boundary node can change the computed bounds even though the node
        was never visited).  The serving cache stores this array per
        result and invalidates only entries whose ball intersects an
        updated endpoint — see ``docs/serving.md``.
        """
        ball = np.unique(
            np.concatenate([self._gids.view(), self._adj_ids.view()])
        )
        return ball.astype(np.int32, copy=False)

    def visit_sequence(self, nodes: np.ndarray) -> None:
        """Visit ``nodes`` (global ids, unvisited, distinct) as one batch.

        The search never calls this; it is kept because the ``perfbench``
        harness wraps it by name.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        if len(nodes):
            self._visit_batch(nodes)

    # ------------------------------------------------------------------
    # State invariants (runtime audit layer)
    # ------------------------------------------------------------------

    def check_invariants(self, *, tol: float = 1e-8) -> list[str]:
        """Verify the incrementally maintained state against its definition.

        The restoration bookkeeping — dummy masses, unvisited counts,
        star-to-mesh sums — is updated by increments and retractions; a
        drift silently corrupts every bound built on top.  Checked here:

        * store shape: ``indptr`` starts at 0, is monotone and ends at
          the entry count, and every column lies below its row (each
          edge sits in the row of its later-visited endpoint);
        * transition-mass conservation: for every visited non-query node
          with positive degree, restored row mass ``(L + Lᵀ)·1 / w``
          plus dummy mass is 1 (the query row of ``T`` is zeroed, so its
          total is 0);
        * dummy masses lie in ``[0, 1]`` and unvisited counts are
          non-negative;
        * settled nodes (``unvisited_count == 0``) carry no dummy mass;
        * restored weights are positive and finite;
        * when tightening is tracked, the star-to-mesh sums are finite
          and non-negative up to retraction round-off.

        Returns human-readable violation strings (empty = consistent).
        """
        problems: list[str] = []
        m = self.size
        dummy = self._dummy_mass.view()
        counts = self._unvisited_count.view()
        degrees = self._degrees.view()
        indptr, indices, weights = self.symmetric_store()

        if (counts < 0).any():
            bad = int(np.flatnonzero(counts < 0)[0])
            problems.append(
                f"negative unvisited-neighbor count at local {bad} "
                f"({int(counts[bad])})"
            )
        if (dummy < -tol).any() or (dummy > 1.0 + tol).any():
            bad = int(np.flatnonzero((dummy < -tol) | (dummy > 1.0 + tol))[0])
            problems.append(
                f"dummy mass outside [0, 1] at local {bad} "
                f"({float(dummy[bad]):.3e})"
            )
        settled = counts == 0
        if (dummy[settled] > tol).any():
            bad = int(np.flatnonzero(settled & (dummy > tol))[0])
            problems.append(
                f"settled node at local {bad} still carries dummy mass "
                f"{float(dummy[bad]):.3e}"
            )
        if len(weights) and (
            (weights <= 0).any() or not np.isfinite(weights).all()
        ):
            problems.append("restored edge weights must be positive and finite")

        row_len = np.diff(indptr)
        if (
            len(indptr) != m + 1
            or indptr[0] != 0
            or (row_len < 0).any()
            or indptr[-1] != len(indices)
            or len(weights) != len(indices)
            or indptr.dtype != indices.dtype
        ):
            problems.append(
                f"symmetric store is mis-shaped: {len(indptr)} {indptr.dtype} "
                f"row pointers for {m} nodes, {len(indices)} {indices.dtype} "
                f"columns, {len(weights)} weights"
            )
            return problems
        rows = np.repeat(np.arange(m), row_len)
        above = (indices < 0) | (indices >= rows)
        if above.any():
            bad = int(np.flatnonzero(above)[0])
            problems.append(
                f"store entry ({int(rows[bad])}, {int(indices[bad])}) is not "
                f"below the diagonal"
            )
            return problems

        sym_mass = np.bincount(rows, weights=weights, minlength=m) + np.bincount(
            indices, weights=weights, minlength=m
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            row_mass = np.where(degrees > 0, sym_mass / degrees, 0.0)
        row_mass[0] = 0.0  # the operator zeroes the query row of T
        total = row_mass + dummy
        expected = (degrees > 0).astype(np.float64)
        expected[0] = 0.0  # the query row of T is zeroed (Table 1)
        off = np.abs(total - expected)
        off[0] = abs(total[0])  # row 0 must be exactly empty
        if (off > 1e-6).any():
            bad = int(np.argmax(off))
            problems.append(
                f"transition mass of local {bad} sums to "
                f"{float(total[bad]):.9f} (expected {float(expected[bad]):g})"
            )

        if self.track_tightening:
            # The query row is exempt: its sums are zeroed at creation
            # (row 0 of T stays zero) yet still receive retractions when
            # its neighbors are visited, and ``self_loop_terms`` never
            # reads them — benign drift in unused state.
            loops = self._loop_sum.view()
            tight = self._tight_sum.view()
            for name, arr in (("loop", loops), ("tight", tight)):
                if not np.isfinite(arr).all():
                    problems.append(f"non-finite star-to-mesh {name} sum")
                    continue
                bad_mask = arr < -1e-6
                bad_mask[0] = False
                if bad_mask.any():
                    bad = int(np.flatnonzero(bad_mask)[0])
                    problems.append(
                        f"star-to-mesh {name} sum at local {bad} is "
                        f"{float(arr[bad]):.3e} (retraction drift)"
                    )
        return problems

    # ------------------------------------------------------------------
    # Expansion
    # ------------------------------------------------------------------

    def expand(self, local: int) -> list[int]:
        """Visit all unvisited neighbors of a visited node (Algorithm 3).

        Returns the newly visited nodes (global ids).
        """
        return self.expand_batch(np.array([local], dtype=np.int64))

    def expand_batch(self, locals_: np.ndarray) -> list[int]:
        """Visit every unvisited neighbor of a batch of visited nodes.

        Membership of the whole batch's concatenated neighborhoods is
        resolved in one vectorized pass; new nodes are assigned local ids
        in the order a one-node-at-a-time loop would (owners in the given
        order, each owner's neighbors in adjacency order, first
        occurrence wins).
        """
        locals_ = np.asarray(locals_, dtype=np.int64)
        offsets = self._adj_offsets.view()
        counts = offsets[locals_ + 1] - offsets[locals_]
        take = concatenated_ranges(offsets[locals_], counts)
        candidates = self._adj_ids.view()[take]
        candidates = candidates[self._lut[candidates] < 0]
        if len(candidates) == 0:
            return []
        uniq, first_pos = np.unique(candidates, return_index=True)
        new_nodes = uniq[np.argsort(first_pos, kind="stable")]
        self._visit_batch(new_nodes)
        return new_nodes.tolist()

    # ------------------------------------------------------------------
    # Transition matrix
    # ------------------------------------------------------------------

    def transition_csr(self) -> sp.csr_matrix:
        """Sparse ``T_S``: transitions within S, query row zeroed.

        Assembled from the store on demand (audits and tests); the hot
        paths apply :meth:`transition_operator` instead.
        """
        m = self.size
        indptr, indices, weights = self.symmetric_store()
        lower = sp.csr_matrix((weights, indices, indptr), shape=(m, m))
        row_scale = TransitionOperator(self).row_scale
        return (sp.diags(row_scale) @ (lower + lower.T)).tocsr()

    def transition_operator(
        self, scale: float = 1.0, diag: np.ndarray | None = None
    ) -> "TransitionOperator":
        """``scale · T_S`` (plus optional diagonal) over the live store."""
        return TransitionOperator(self, scale, diag)

    def self_loop_terms(
        self, decay: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Star-to-mesh self-loop tightening terms (Sec. 5.3).

        Returns ``(locals, loop_probs, tight_dummy_mass)`` for boundary
        nodes ``i ∈ δS`` (query excluded):

        * ``loop_probs  = decay · Σ_{j ∈ N_i ∩ δS̄} p_{i,j} p_{j,i}``
          — the self-loop of Lemmas 3 and 4;
        * ``tight_dummy_mass = decay · Σ_{j} p_{i,j} (1 - p_{j,i})``
          — the reduced dummy transition of Lemma 4 (upper bound only;
          the lower bound keeps its dummy at proximity zero).
        """
        if not self.track_tightening:
            raise RuntimeError(
                "self-loop terms requested but track_tightening is off"
            )
        mask = self.boundary_mask().copy()
        mask[0] = False  # the query row of T stays zero
        locals_out = np.flatnonzero(mask)
        loops = decay * np.maximum(self._loop_sum.view()[locals_out], 0.0)
        tight = decay * np.maximum(self._tight_sum.view()[locals_out], 0.0)
        return locals_out, loops, tight

    # ------------------------------------------------------------------
    # Restoration
    # ------------------------------------------------------------------

    def _visit_batch(self, nodes: np.ndarray) -> None:
        """Visit a batch of unvisited nodes in one vectorized pass.

        Equivalent to visiting each node in order; see the module
        docstring for the equivalence argument.
        """
        base = self.size
        n_new = len(nodes)
        lut = self._lut
        lut[nodes] = base + np.arange(n_new, dtype=np.int32)
        self._gids.append(nodes)

        # The two batch reads of the graph contract; rows are normalised
        # here, 0 for a zero-degree row (paper Table 1).
        ids, weights, counts = self.graph.neighbors_many(nodes)
        w_new = self.graph.degrees_of(nodes)
        inv = np.zeros(n_new, dtype=np.float64)
        nz = w_new > 0
        inv[nz] = 1.0 / w_new[nz]
        probs = weights * np.repeat(inv, counts)
        self.neighbor_queries += n_new
        self._adj_ids.append(ids)
        self._adj_probs.append(probs)
        offset0 = self._adj_offsets.view()[-1]
        self._adj_offsets.append(offset0 + np.cumsum(counts))
        self._degrees.append(w_new)

        owner_rel = np.repeat(np.arange(n_new, dtype=np.int64), counts)
        w_owner = np.repeat(w_new, counts)

        visited = lut[ids]
        old_mask = (visited >= 0) & (visited < base)
        outside = visited < 0

        # Every edge into an earlier-visited node — already visited, or
        # earlier in this batch — becomes one entry of the owner's new
        # store row.  Rows are appended in local-id order because
        # ``owner_rel`` is non-decreasing.
        lower = (visited >= 0) & (visited < base + owner_rel)
        row_len = np.bincount(owner_rel[lower], minlength=n_new)
        self._indptr.append(self._indptr.view()[-1] + np.cumsum(row_len))
        self._indices.append(visited[lower])
        self._weights.append(probs[lower] * w_owner[lower])

        # Incoming transitions from already-visited neighbors — the
        # "restoration" step of Sec. 5.2 — retract mass from their dummy
        # columns.  No adjacency search is needed: by symmetry of edge
        # weights, p_{v,u} = p_{u,v} · w_u / w_v.
        if old_mask.any():
            v_local = visited[old_mask].astype(np.int64)
            p_uv = probs[old_mask]
            w_v = self._degrees.raw[v_local]
            with np.errstate(divide="ignore", invalid="ignore"):
                p_vu = np.where(w_v > 0, p_uv * w_owner[old_mask] / w_v, 0.0)

            dummy = self._dummy_mass.raw
            dummy[:base] -= segment_sums(p_vu, v_local, base)
            np.maximum(dummy[:base], 0.0, out=dummy[:base])
            self._unvisited_count.raw[:base] -= np.bincount(
                v_local, minlength=base
            )[:base]
            if self.track_tightening:
                # The batch left v's unvisited neighborhood: retract its
                # contribution to v's star-to-mesh sums.
                self._loop_sum.raw[:base] -= segment_sums(
                    p_vu * p_uv, v_local, base
                )
                self._tight_sum.raw[:base] -= segment_sums(
                    p_vu * (1.0 - p_uv), v_local, base
                )

        # The new nodes' own dummy mass, unvisited counts, and sums —
        # computed directly over their still-unvisited neighbors.
        out_owner = owner_rel[outside]
        out_probs = probs[outside]
        dummy_new = segment_sums(out_probs, out_owner, n_new)
        count_new = np.bincount(out_owner, minlength=n_new)[:n_new]
        if base == 0:
            dummy_new[0] = 0.0  # query row of T is zero: no dummy column
        self._dummy_mass.append(dummy_new)
        self._unvisited_count.append(count_new)

        if self.track_tightening and len(out_probs):
            w_j = self.graph.degrees_of(ids[outside])
            w_u = w_owner[outside]
            with np.errstate(divide="ignore", invalid="ignore"):
                p_ju = np.where(w_j > 0, out_probs * (w_u / w_j), 0.0)
            loop_new = segment_sums(out_probs * p_ju, out_owner, n_new)
            tight_new = segment_sums(out_probs * (1.0 - p_ju), out_owner, n_new)
            if base == 0:
                loop_new[0] = tight_new[0] = 0.0
        else:
            loop_new = np.zeros(n_new)
            tight_new = np.zeros(n_new)
        self._loop_sum.append(loop_new)
        self._tight_sum.append(tight_new)


class TransitionOperator:
    """``scale · T_S`` (plus an optional diagonal) over a view's store.

    With the store's lower-triangular weights ``L`` and ``s = scale / w``
    (zero on the query row, which ``T`` zeroes, and on zero-degree rows),

        ``scale · T_S x = s ⊙ (L x + Lᵀ x)``,

    one compiled CSR product plus one compiled CSC product over the same
    three arrays (the CSR arrays of ``L`` are the CSC arrays of ``Lᵀ``).
    The view only appends to its store, so there is nothing to rebuild:
    :meth:`sync` re-reads the arrays and extends ``s`` once per refresh.
    """

    def __init__(self, view, scale: float = 1.0, diag: np.ndarray | None = None):
        self.view = view
        self.factor = scale
        self.diag = diag
        self.size = -1
        self.sync()

    def sync(self) -> int:
        """Bind the view's current store; returns ``|S|``.

        Raises :class:`~repro.errors.TransitionStoreError` when the
        store's shape does not match the view — the compiled products
        would otherwise read out of bounds.
        """
        indptr, indices, weights = self.view.symmetric_store()
        m = self.view.size
        if (
            len(indptr) != m + 1
            or indptr[-1] != len(indices)
            or len(indices) != len(weights)
            or indptr.dtype != indices.dtype
            or weights.dtype != np.float64
        ):
            raise TransitionStoreError(
                f"transition store does not match the visited set: {m} "
                f"nodes, {len(indptr)} row pointers ending at "
                f"{int(indptr[-1]) if len(indptr) else None}, "
                f"{len(indices)} {indices.dtype} columns, "
                f"{len(weights)} {weights.dtype} weights "
                f"(pointers are {indptr.dtype})"
            )
        if m != self.size:
            degrees = self.view.degrees_array()
            with np.errstate(divide="ignore"):
                row_scale = np.where(degrees > 0, self.factor / degrees, 0.0)
            row_scale[0] = 0.0  # the query row of T is zero (Table 1)
            self.row_scale = row_scale
            self.size = m
        self._store = (indptr, indices, weights)
        return m

    def apply(self, x: np.ndarray) -> np.ndarray:
        """``scale · T_S @ x`` for a vector ``x`` of length ``m``."""
        m = self.size
        if x.shape != (m,):
            raise TransitionStoreError(
                f"operator over {m} nodes applied to shape {x.shape}"
            )
        x = np.ascontiguousarray(x, dtype=np.float64)
        y = np.zeros(m)
        _sparsetools.csr_matvec(m, m, *self._store, x, y)
        _sparsetools.csc_matvec(m, m, *self._store, x, y)
        y *= self.row_scale
        return y

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        y = self.apply(x)
        if self.diag is not None:
            y += self.diag * x
        return y
