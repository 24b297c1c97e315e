"""Bit-packed lane state for multi-source (batched) traversal.

A *lane* is one BFS rooted at one vertex.  Up to 64 lanes share a single
level-synchronous wave: per vertex, one ``uint64`` word holds the lane
membership bits of the frontier (``active``) and of the visited set
(``visited``), so a batched sub-iteration touches each arc once for all
lanes instead of once per root (Buluç & Madduri's amortization argument;
"MS-BFS" bit-parallelism).

The representation is deliberately *exact* with respect to the
sequential engine: lane ``l``'s view of ``active``/``visited`` — bit
``l`` of each word — evolves exactly as the boolean masks of a
single-root run from ``roots[l]`` would, because the batched kernels
select the same arcs in the same deterministic order per lane.  That is
what lets the serving layer promise parent trees bit-identical to
per-root runs.

Everything here is engine-agnostic: plain bit plumbing plus the per-lane
class population counters the §4.2 direction heuristics need.  The
counters are kept exact at the one place lanes mutate
(:meth:`LaneState.commit` and :meth:`LaneState.advance`), so reading a
lane's per-class active/unvisited counts costs O(lanes), and keeping
them costs O(activations) per wave instead of a rescan of every
vertex's lane word before every component.
"""

from __future__ import annotations

import numpy as np

from repro.core.partition import VertexClass

__all__ = [
    "MAX_LANES",
    "LaneState",
    "LaneClassState",
    "lane_bit",
    "lanes_mask",
    "iter_lanes",
    "all_lanes_mask",
]

#: Width of the lane word: one bit per concurrent root.
MAX_LANES = 64

#: Rows of the per-lane class counters: one per ``VertexClass`` code.
NUM_CLASSES = 3

#: The heuristic classes ("EH" is the merged E+H class) and the counter
#: rows (class codes) each one sums, as a 0/1 matrix over the rows.
_CLASS_CODES = {
    "E": [VertexClass.E],
    "H": [VertexClass.H],
    "L": [VertexClass.L],
    "EH": [VertexClass.E, VertexClass.H],
}
_CLASS_SUM = np.array(
    [np.isin(np.arange(NUM_CLASSES), codes) for codes in _CLASS_CODES.values()],
    dtype=np.int64,
)

_ONE = np.uint64(1)
#: ``_LANE_BITS[l]`` is lane ``l``'s single-bit mask.
_LANE_BITS = _ONE << np.arange(MAX_LANES, dtype=np.uint64)


def lane_bit(lane: int) -> np.uint64:
    """The single-bit mask of lane ``lane``."""
    return _ONE << np.uint64(lane)


def lanes_mask(selected: np.ndarray) -> np.uint64:
    """Mask with the bit of every lane ``l`` where ``selected[l]``."""
    return np.bitwise_or.reduce(_LANE_BITS[: selected.size][selected])


def all_lanes_mask(num_lanes: int) -> np.uint64:
    """Mask with the low ``num_lanes`` bits set."""
    if not 1 <= num_lanes <= MAX_LANES:
        raise ValueError(f"num_lanes must be in [1, {MAX_LANES}]")
    if num_lanes == MAX_LANES:
        return np.uint64(0xFFFFFFFFFFFFFFFF)
    return np.uint64((1 << num_lanes) - 1)


def iter_lanes(mask) -> list[int]:
    """Lane indices whose bit is set in ``mask`` (ascending)."""
    m = int(mask)
    lanes = []
    while m:
        low = m & -m
        lanes.append(low.bit_length() - 1)
        m ^= low
    return lanes


class LaneState:
    """Frontier/visited/parent state of up to 64 concurrent BFS lanes.

    ``vclass`` is the per-vertex degree-class code
    (:attr:`~repro.core.partition.PartitionedGraph.vclass`).  Beside the
    lane words, the state keeps exact ``int64 (3, num_lanes)`` population
    counters indexed by class code:

    * ``frontier_counts[c, l]`` — class-``c`` vertices in lane ``l``'s
      current frontier;
    * ``unvisited_counts[c, l]`` — class-``c`` vertices lane ``l`` has not
      visited yet (it falls as sub-iterations commit, §4.2 freshness);
    * ``newly_counts[c, l]`` — class-``c`` vertices committed to lane
      ``l`` so far this wave (the next frontier's counts).
    """

    def __init__(self, vclass, roots) -> None:
        vclass = np.asarray(vclass)
        roots = np.asarray(roots, dtype=np.int64)
        if roots.ndim != 1 or not 1 <= roots.size <= MAX_LANES:
            raise ValueError(
                f"batch must hold 1..{MAX_LANES} roots, got shape {roots.shape}"
            )
        if np.unique(roots).size != roots.size:
            raise ValueError("batch roots must be distinct")
        num_vertices = int(vclass.size)
        if roots.min() < 0 or roots.max() >= num_vertices:
            raise ValueError(f"root out of range for n={num_vertices}")
        self.vclass = vclass
        self.num_vertices = num_vertices
        self.num_lanes = int(roots.size)
        self.roots = roots
        lanes = np.arange(self.num_lanes)
        bits = _LANE_BITS[: self.num_lanes]
        #: Lane membership bits of the current frontier, per vertex.
        self.active = np.zeros(num_vertices, dtype=np.uint64)
        self.active[roots] = bits
        #: Lane membership bits of the visited set, per vertex.
        self.visited = self.active.copy()
        #: Lane bits committed during the current wave (the next frontier).
        self.newly = np.zeros(num_vertices, dtype=np.uint64)
        #: Per-lane parent trees, ``parent[lane, vertex]``.
        self.parent = np.full((self.num_lanes, num_vertices), -1, dtype=np.int64)
        self.parent[lanes, roots] = roots
        #: Vertices per class code.
        self.class_sizes = np.bincount(vclass, minlength=NUM_CLASSES)
        self.frontier_counts = self._class_counts([self._keys(lanes, roots)])
        self.unvisited_counts = self.class_sizes[:, None] - self.frontier_counts
        self.newly_counts = np.zeros_like(self.frontier_counts)

    def _class_counts(self, keys: list) -> np.ndarray:
        """``(3, num_lanes)`` counts of ``class_code * num_lanes + lane``
        keys — one ``bincount`` over the concatenated keys."""
        size = NUM_CLASSES * self.num_lanes
        return np.bincount(np.concatenate(keys), minlength=size).reshape(
            NUM_CLASSES, self.num_lanes
        )

    def _keys(self, lane, vertices) -> np.ndarray:
        return self.vclass[vertices].astype(np.intp) * self.num_lanes + lane

    @property
    def active_lane_mask(self) -> np.uint64:
        """Bits of lanes whose frontier is non-empty."""
        return lanes_mask(self.frontier_sizes() > 0)

    def frontier_sizes(self) -> np.ndarray:
        """Per-lane frontier vertex counts."""
        return self.frontier_counts.sum(axis=0)

    def commit(self, updates) -> None:
        """Apply a sub-iteration's per-lane activations.

        ``updates`` is a list of ``(lane, dsts, parents)`` triples; the
        destinations of each lane must be distinct and fresh (unvisited
        in that lane).  They are OR-ed into ``visited`` so the next
        sub-iteration of the same wave sees them (§4.2 freshness) and
        into ``newly`` for the next frontier; the class counters move by
        one ``bincount`` over the activations.
        """
        keys = []
        for lane, dsts, parents in updates:
            if dsts.size == 0:
                continue
            bit = _LANE_BITS[lane]
            self.parent[lane, dsts] = parents
            self.visited[dsts] |= bit
            self.newly[dsts] |= bit
            keys.append(self._keys(lane, dsts))
        if keys:
            fresh = self._class_counts(keys)
            self.unvisited_counts -= fresh
            self.newly_counts += fresh

    def advance(self) -> None:
        """End the wave: this wave's commits become the frontier."""
        self.active = self.newly
        self.newly = np.zeros(self.num_vertices, dtype=np.uint64)
        self.frontier_counts = self.newly_counts
        self.newly_counts = np.zeros_like(self.frontier_counts)


class LaneClassState:
    """Per-lane active/unvisited ratios per degree class (§4.2 inputs).

    The sequential engine measures ``(active_ratio, unvisited_ratio)``
    per class as integer population counts divided by the class size;
    the lane state's counters hold exactly those integers per lane, so
    per-lane direction decisions are bit-equal to the decisions each
    sequential run would have made at the same level.
    """

    def measure(self, lanes: LaneState) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """``{class: (active_ratio[num_lanes], unvisited_ratio[num_lanes])}``.

        An empty class divides its all-zero counts by 1, so both of its
        ratios are zero.
        """
        sizes = np.maximum(_CLASS_SUM @ lanes.class_sizes, 1)[:, None]
        act = (_CLASS_SUM @ lanes.frontier_counts) / sizes
        unvis = (_CLASS_SUM @ lanes.unvisited_counts) / sizes
        return {
            name: (act[i], unvis[i]) for i, name in enumerate(_CLASS_CODES)
        }
