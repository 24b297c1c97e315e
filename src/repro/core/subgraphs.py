"""The six 1.5D subgraph components and their traversal primitives.

Each directed arc of the symmetrized graph lands in exactly one of the six
components by the degree classes of its endpoints (§4.1):

========  ===========  ===========  =============================================
name      source       destination  stored at (mesh placement)
========  ===========  ===========  =============================================
EH2EH     E or H       E or H       rank (row(owner(dst)), col(owner(src))) — 2D
E2L       E            L            owner(dst) — with L, like heavy 1D delegation
L2E       L            E            owner(src)
H2L       H            L            rank (row(owner(dst)), col(owner(src))) —
                                    H's column, messaging stays intra-row
L2H       L            H            owner(src) — reverse of H2L
L2L       L            L            owner(src) — plain 1D
========  ===========  ===========  =============================================

:class:`SubgraphComponent` stores one component with two access paths:

- a compact by-source CSR for *push* (top-down): selecting the frontier's
  arcs costs O(frontier sources + selected arcs);
- a (rank, destination)-grouped ordering for *pull* (bottom-up): each
  group is one destination's arc run on one rank, scanned with early exit.

Both paths also carry the owning rank per arc so every sub-iteration can
report exact per-rank work to the ledger.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SubgraphComponent",
    "PushSelection",
    "PullScan",
    "PullSelection",
    "LanePullScan",
    "COMPONENT_ORDER",
    "arc_keys",
    "merge_arc_delta",
]

#: Execution order within an iteration: densest (highest-degree endpoints)
#: first, so later sub-iterations see the freshest visited state (§4.2).
COMPONENT_ORDER = ("EH2EH", "E2L", "L2E", "H2L", "L2H", "L2L")


@dataclass(frozen=True)
class PushSelection:
    """Arcs selected by a top-down sub-iteration (sources in frontier)."""

    src: np.ndarray
    dst: np.ndarray
    rank: np.ndarray

    @property
    def num_arcs(self) -> int:
        return int(self.src.size)

    def per_rank(self, num_ranks: int) -> np.ndarray:
        """Arcs handled by each rank (exact load vector)."""
        return np.bincount(self.rank, minlength=num_ranks)


@dataclass(frozen=True)
class PullScan:
    """Result of a bottom-up sub-iteration with early exit."""

    #: Destinations that found a parent, their parent, and the rank that
    #: found it (first hit in deterministic (rank, dst) group order).
    hit_dst: np.ndarray
    hit_src: np.ndarray
    hit_rank: np.ndarray
    #: Arcs scanned by each rank, counting early exit.
    scanned_per_rank: np.ndarray

    @property
    def num_hits(self) -> int:
        return int(self.hit_dst.size)

    @property
    def scanned_arcs(self) -> int:
        return int(self.scanned_per_rank.sum())


@dataclass(frozen=True)
class PullSelection:
    """Arcs selected by a bottom-up sub-iteration *without* early exit.

    Vertex programs with value combines (min-label, sum-of-contrib) must
    see **every** active in-neighbour of a candidate destination, so the
    BFS early exit does not apply: each candidate group is scanned to the
    end and all arcs with an active source are returned.
    """

    src: np.ndarray
    dst: np.ndarray
    rank: np.ndarray
    #: Arcs scanned by each rank — the *full* runs of every candidate
    #: group, not just the selected arcs.
    scanned_per_rank: np.ndarray

    @property
    def num_arcs(self) -> int:
        return int(self.src.size)

    @property
    def scanned_arcs(self) -> int:
        return int(self.scanned_per_rank.sum())


@dataclass(frozen=True)
class LanePullScan:
    """Result of a bottom-up sub-iteration shared by up to 64 lanes."""

    #: Per-lane hits: ``(lane, hit_dst, hit_src)`` triples, each lane's
    #: winners chosen by exactly the sequential :class:`PullScan` rule.
    updates: list
    #: Arcs scanned by each rank; a group's scan depth is the deepest
    #: early exit any participating lane needed.
    scanned_per_rank: np.ndarray
    #: Unique (dst, rank) hit messages across all lanes — one wire
    #: message carries a destination plus its 64-bit lane word.
    msg_dst: np.ndarray
    msg_rank: np.ndarray

    @property
    def num_messages(self) -> int:
        return int(self.msg_dst.size)

    @property
    def scanned_arcs(self) -> int:
        return int(self.scanned_per_rank.sum())


class SubgraphComponent:
    """One of the six arc components, frozen for traversal."""

    def __init__(
        self,
        name: str,
        src: np.ndarray,
        dst: np.ndarray,
        rank: np.ndarray,
        num_ranks: int,
    ) -> None:
        self.name = name
        self.num_ranks = int(num_ranks)
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        rank = np.asarray(rank, dtype=np.int64)
        if not (src.shape == dst.shape == rank.shape):
            raise ValueError("src/dst/rank arrays must have equal shape")
        if rank.size and (rank.min() < 0 or rank.max() >= num_ranks):
            raise ValueError("arc rank out of range")
        self.num_arcs = int(src.size)

        # --- by-source CSR (push path) --------------------------------
        order = np.lexsort((dst, src))
        s_sorted = src[order]
        self._push_dst = dst[order]
        self._push_rank = rank[order]
        if s_sorted.size:
            boundaries = np.concatenate(
                ([True], s_sorted[1:] != s_sorted[:-1])
            )
            starts = np.flatnonzero(boundaries)
            self.src_ids = s_sorted[starts]
            self.src_indptr = np.concatenate((starts, [s_sorted.size])).astype(
                np.int64
            )
        else:
            self.src_ids = np.array([], dtype=np.int64)
            self.src_indptr = np.array([0], dtype=np.int64)

        # --- (rank, dst) groups (pull path) ----------------------------
        order2 = np.lexsort((src, dst, rank))
        self._pull_src = src[order2]
        d_sorted = dst[order2]
        r_sorted = rank[order2]
        if d_sorted.size:
            boundaries = np.concatenate(
                (
                    [True],
                    (d_sorted[1:] != d_sorted[:-1]) | (r_sorted[1:] != r_sorted[:-1]),
                )
            )
            starts = np.flatnonzero(boundaries)
            self.grp_ptr = np.concatenate((starts, [d_sorted.size])).astype(np.int64)
            self.grp_dst = d_sorted[starts]
            self.grp_rank = r_sorted[starts]
        else:
            self.grp_ptr = np.array([0], dtype=np.int64)
            self.grp_dst = np.array([], dtype=np.int64)
            self.grp_rank = np.array([], dtype=np.int64)

        #: Exact arcs stored per rank (Fig. 13's load-balance data).
        self.arcs_per_rank = np.bincount(rank, minlength=num_ranks)

    # ------------------------------------------------------------------

    @property
    def num_groups(self) -> int:
        return int(self.grp_dst.size)

    def arcs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All arcs as ``(src, dst, rank)`` (push order)."""
        src = np.repeat(self.src_ids, np.diff(self.src_indptr))
        return src, self._push_dst.copy(), self._push_rank.copy()

    # ------------------------------------------------------------------
    # push
    # ------------------------------------------------------------------

    def push_select(self, active: np.ndarray) -> PushSelection:
        """Arcs whose source is in the frontier.

        ``active`` is a boolean mask over all vertices.  Cost is
        O(unique sources + selected arcs) — the frontier's arcs only.
        Arcs come back in by-source CSR slot order.
        """
        sel_srcs = np.flatnonzero(active[self.src_ids])
        if sel_srcs.size == 0:
            empty = np.array([], dtype=np.int64)
            return PushSelection(empty, empty, empty)
        starts = self.src_indptr[sel_srcs]
        lens = self.src_indptr[sel_srcs + 1] - starts
        idx = np.repeat(starts, lens) + _run_offsets(lens)
        return PushSelection(
            np.repeat(self.src_ids[sel_srcs], lens),
            self._push_dst[idx],
            self._push_rank[idx],
        )

    # ------------------------------------------------------------------
    # pull
    # ------------------------------------------------------------------

    def _candidate_runs(self, cand_groups: np.ndarray):
        """``(starts, lens, offs, srcs)`` of the candidate groups' arc
        runs, concatenated in group order (``offs`` is each arc's
        position within its run)."""
        starts = self.grp_ptr[cand_groups]
        lens = self.grp_ptr[cand_groups + 1] - starts
        offs = _run_offsets(lens)
        srcs = self._pull_src[np.repeat(starts, lens) + offs]
        return starts, lens, offs, srcs

    def pull_scan(
        self, candidate_dst: np.ndarray, active_src: np.ndarray
    ) -> PullScan:
        """Bottom-up scan with early exit.

        For every (rank, dst) group whose destination satisfies
        ``candidate_dst`` (a boolean mask — typically "unvisited"), scan the
        group's arcs in order until the first source satisfying
        ``active_src``; count exactly the scanned arcs (paper §2.1.2 early
        exit, available because these arcs are rank-local).

        When several ranks hit the same destination, the winner is the
        lowest (rank, position) — deterministic.
        """
        empty = np.array([], dtype=np.int64)
        cand_groups = np.flatnonzero(candidate_dst[self.grp_dst])
        if cand_groups.size == 0:
            no_scan = np.zeros(self.num_ranks, dtype=np.int64)
            return PullScan(empty, empty, empty, no_scan)
        starts, lens, offs, srcs = self._candidate_runs(cand_groups)
        first_pos = _first_hits(
            active_src[srcs], _group_of_arc(lens), offs, lens.size
        )
        scanned = np.where(first_pos >= 0, first_pos + 1, lens)
        scanned_per_rank = np.bincount(
            self.grp_rank[cand_groups], weights=scanned,
            minlength=self.num_ranks,
        ).astype(np.int64)

        hit_groups = np.flatnonzero(first_pos >= 0)
        if hit_groups.size == 0:
            return PullScan(empty, empty, empty, scanned_per_rank)
        g_dst = self.grp_dst[cand_groups[hit_groups]]
        g_rank = self.grp_rank[cand_groups[hit_groups]]
        g_src = self._pull_src[starts[hit_groups] + first_pos[hit_groups]]
        # Groups arrive in (rank, dst) order; reorder by (dst, rank) and
        # keep each destination's first hit — the lowest rank wins.
        order = np.lexsort((g_rank, g_dst))
        g_dst, g_rank, g_src = g_dst[order], g_rank[order], g_src[order]
        hit_dst, first = np.unique(g_dst, return_index=True)
        return PullScan(hit_dst, g_src[first], g_rank[first], scanned_per_rank)

    def pull_select(
        self, candidate_dst: np.ndarray, active_src: np.ndarray
    ) -> PullSelection:
        """Bottom-up arc selection without early exit (vertex programs).

        Every (rank, dst) group whose destination satisfies
        ``candidate_dst`` is scanned end to end; arcs whose source
        satisfies ``active_src`` are returned in group order.  With
        ``candidate_dst`` all-true the selected arc *set* equals
        ``push_select(active_src)`` (ordering differs: pull order is
        grouped by (rank, dst)), which is what makes direction choice
        value-neutral for commutative combines.
        """
        empty = np.array([], dtype=np.int64)
        cand_groups = np.flatnonzero(candidate_dst[self.grp_dst])
        if cand_groups.size == 0:
            no_scan = np.zeros(self.num_ranks, dtype=np.int64)
            return PullSelection(empty, empty, empty, no_scan)
        _, lens, _, srcs = self._candidate_runs(cand_groups)
        scanned_per_rank = np.bincount(
            self.grp_rank[cand_groups], weights=lens, minlength=self.num_ranks
        ).astype(np.int64)
        keep = active_src[srcs]
        if not np.any(keep):
            return PullSelection(empty, empty, empty, scanned_per_rank)
        dst_of_arc = np.repeat(self.grp_dst[cand_groups], lens)
        rank_of_arc = np.repeat(self.grp_rank[cand_groups], lens)
        return PullSelection(
            srcs[keep], dst_of_arc[keep], rank_of_arc[keep], scanned_per_rank
        )

    def pull_scan_lanes(
        self, candidate_bits: np.ndarray, active_bits: np.ndarray, group_lanes
    ) -> LanePullScan:
        """Bottom-up scan shared by the lanes of ``group_lanes``.

        ``candidate_bits``/``active_bits`` are per-vertex lane words
        already restricted to the group's lanes.  Per lane the hits and
        the early-exit depths are exactly what :meth:`pull_scan` would
        produce for that lane's boolean masks; a group's *charged* scan
        depth is the max over its participating lanes (the batched
        kernel scans once and every lane reads the shared stream).
        """
        from repro.core.lanes import iter_lanes, lane_bit

        empty = np.array([], dtype=np.int64)
        grp_cand_bits = candidate_bits[self.grp_dst]
        cand_groups = np.flatnonzero(grp_cand_bits != 0)
        if cand_groups.size == 0:
            no_scan = np.zeros(self.num_ranks, dtype=np.int64)
            return LanePullScan([], no_scan, empty, empty)
        grp_cand_bits = grp_cand_bits[cand_groups]
        starts, lens, offs, srcs = self._candidate_runs(cand_groups)
        # An arc hits for lane l iff its source is active in l AND the
        # group's destination is still a candidate in l.
        grp_of_arc = _group_of_arc(lens)
        hit_bits = active_bits[srcs] & grp_cand_bits[grp_of_arc]

        scanned_max = np.zeros(cand_groups.size, dtype=np.int64)
        updates = []
        win_dst, win_rank = [], []
        for lane in iter_lanes(group_lanes):
            bit = lane_bit(lane)
            lane_cand = (grp_cand_bits & bit) != 0
            first_pos = _first_hits(
                (hit_bits & bit) != 0, grp_of_arc, offs, cand_groups.size
            )
            # Early exit per lane: first hit + 1, the full group when the
            # lane scanned it dry, nothing when the lane wasn't pulling
            # this destination at all.
            scanned_lane = np.where(
                first_pos >= 0,
                first_pos + 1,
                np.where(lane_cand, lens, 0),
            )
            np.maximum(scanned_max, scanned_lane, out=scanned_max)
            hit_groups = np.flatnonzero(first_pos >= 0)
            if hit_groups.size == 0:
                continue
            # Each lane's winners by exactly the :meth:`pull_scan` rule.
            g_dst = self.grp_dst[cand_groups[hit_groups]]
            g_src = self._pull_src[starts[hit_groups] + first_pos[hit_groups]]
            g_rank = self.grp_rank[cand_groups[hit_groups]]
            order = np.lexsort((g_rank, g_dst))
            g_dst, g_rank, g_src = g_dst[order], g_rank[order], g_src[order]
            uniq, first = np.unique(g_dst, return_index=True)
            updates.append((lane, uniq, g_src[first]))
            win_dst.append(uniq)
            win_rank.append(g_rank[first])

        scanned_per_rank = np.bincount(
            self.grp_rank[cand_groups], weights=scanned_max,
            minlength=self.num_ranks,
        ).astype(np.int64)
        if not win_dst:
            return LanePullScan(updates, scanned_per_rank, empty, empty)
        all_dst = np.concatenate(win_dst)
        all_rank = np.concatenate(win_rank)
        # One wire message per unique (dst, rank) pair — the lane word
        # rides along, so overlapping lanes share the message.
        key = all_dst * np.int64(self.num_ranks) + all_rank
        _, first = np.unique(key, return_index=True)
        return LanePullScan(
            updates, scanned_per_rank, all_dst[first], all_rank[first]
        )


def _run_offsets(lens: np.ndarray) -> np.ndarray:
    """Each element's position within its run, for runs of ``lens``
    laid end to end."""
    total = int(lens.sum())
    return np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(lens) - lens, lens
    )


def _group_of_arc(lens: np.ndarray) -> np.ndarray:
    """Each element's run index, for runs of ``lens`` laid end to end."""
    return np.repeat(np.arange(lens.size, dtype=np.int64), lens)


def _first_hits(hit, grp_of_arc, offs, num_groups: int) -> np.ndarray:
    """Position of the first ``hit`` arc within each of ``num_groups``
    runs (-1 where a run has none)."""
    first_pos = np.full(num_groups, -1, dtype=np.int64)
    if np.any(hit):
        hit_idx = np.flatnonzero(hit)
        holder = np.full(num_groups, offs.size + 1, dtype=np.int64)
        np.minimum.at(holder, grp_of_arc[hit_idx], offs[hit_idx])
        found = holder <= offs.size
        first_pos[found] = holder[found]
    return first_pos


# ----------------------------------------------------------------------
# incremental repair primitives (repro.dynamic)
# ----------------------------------------------------------------------


def arc_keys(src: np.ndarray, dst: np.ndarray, num_vertices: int) -> np.ndarray:
    """Directed-arc identity key ``src * n + dst`` (``int64``).

    The key space is injective while ``n**2`` fits in int64 (n < ~3e9,
    far beyond anything the simulator holds in memory), so set algebra
    on arcs — the overlay diffs below — is plain sorted-array work.
    """
    return src.astype(np.int64) * np.int64(num_vertices) + dst.astype(np.int64)


def merge_arc_delta(
    component: SubgraphComponent,
    *,
    add_src: np.ndarray,
    add_dst: np.ndarray,
    add_rank: np.ndarray,
    drop_src: np.ndarray,
    drop_dst: np.ndarray,
    num_vertices: int,
) -> SubgraphComponent:
    """Merge a pending overlay into a frozen component (compaction).

    Drops every base arc whose directed ``(src, dst)`` pair appears in
    the drop set, appends the added arcs, and re-freezes.  Because the
    component's packed orders are value sorts of the arc content (push:
    ``(src, dst)``; pull: ``(rank, dst, src)``), merging a delta and
    rebuilding from scratch produce bit-identical arrays whenever the
    surviving arc *sets* match — the property the incremental-vs-rebuild
    equivalence gate checks.  The in-simulator merge re-sorts for
    simplicity; the honest cost (a linear merge of two sorted runs plus
    an alltoallv of only the delta arcs) is what
    :class:`repro.dynamic.repair.IncrementalGraph` charges its ledger.

    Arcs must be unique per directed pair within the component (true for
    any deduplicated undirected edge set, which is what the dynamic
    layer maintains).
    """
    base_src, base_dst, base_rank = component.arcs()
    if drop_src.size:
        keys = arc_keys(base_src, base_dst, num_vertices)
        drop = np.sort(arc_keys(drop_src, drop_dst, num_vertices))
        pos = np.searchsorted(drop, keys)
        pos[pos == drop.size] = drop.size - 1 if drop.size else 0
        keep = drop[pos] != keys if drop.size else np.ones(keys.size, bool)
        base_src, base_dst, base_rank = (
            base_src[keep], base_dst[keep], base_rank[keep],
        )
    src = np.concatenate([base_src, add_src.astype(np.int64)])
    dst = np.concatenate([base_dst, add_dst.astype(np.int64)])
    rank = np.concatenate([base_rank, add_rank.astype(np.int64)])
    return SubgraphComponent(
        component.name, src, dst, rank, component.num_ranks
    )
