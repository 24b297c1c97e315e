"""Bit-parallel multi-source BFS (the serving layer's batch engine).

Packs up to 64 concurrent roots into a uint64 lane word per vertex and
runs them as *one* level-synchronous traversal through the shared
:class:`~repro.core.kernels.scheduler.LevelSyncScheduler` and the 1.5D
:class:`~repro.core.kernels.fifteend` kernel set.  The design contract:

**Bit-identity.**  Lane ``l``'s parent tree is bit-identical to a
sequential :class:`~repro.core.engine.DistributedBFS` run from
``roots[l]`` under the same config.  Two properties make that hold:

1. every component picks its direction *per lane* with exactly the
   sequential §4.2 heuristics (same integer population counts, same
   float comparisons), and lanes are grouped by chosen direction — a
   component executes at most one shared push pass and one shared pull
   pass per wave, so no lane is ever traversed in a direction its
   sequential run would not have used (push and pull pick different
   parents when a destination's arcs span ranks);
2. within a pass, lane ``l``'s arc subset is the sequential selection in
   the same deterministic order, so first-writer-per-destination (push)
   and lowest-(rank, position) winners (pull) coincide per lane.

**Amortization.**  Traffic is charged through the same
:class:`~repro.runtime.ledger.TrafficLedger` choke point with lane-word
message sizes (16 bytes: vertex ID + lane word, vs 8 sequential):
overlapping frontiers collapse per-arc messages, frontier syncs and
parent reductions are priced per batch instead of per root, and the
wave count is the *max* of the lanes' depths rather than their sum —
which is why a 64-root batch charges strictly less than 64 sequential
runs combined.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import BFSConfig
from repro.core.direction import choose_whole_iteration_direction
from repro.core.kernels.fifteend import FifteenDContext, build_fifteend_kernels
from repro.core.kernels.scheduler import (
    BatchRunState,
    LevelSyncScheduler,
    SchedulerHost,
)
from repro.core.lanes import (
    MAX_LANES,
    LaneClassState,
    iter_lanes,
    lane_bit,
)
from repro.core.metrics import BFSRunResult, IterationRecord
from repro.core.partition import (
    COMPONENT_CLASSES,
    NODE_LOCAL_COMPONENTS,
    PartitionedGraph,
)
from repro.core.subgraphs import COMPONENT_ORDER
from repro.machine.network import MachineSpec
from repro.obs.metrics import NULL_METRICS
from repro.obs.tracer import Tracer
from repro.resilience.faults import NULL_FAULTS, RankCrashError
from repro.resilience.recovery import RecoveryError, RecoveryPolicy

__all__ = [
    "MAX_BATCH_ROOTS",
    "MSBFSResult",
    "MultiSourceBFS",
    "BatchRecovery",
    "run_batch_with_recovery",
]

#: Lane-word width: roots per batch.
MAX_BATCH_ROOTS = MAX_LANES


@dataclass
class MSBFSResult:
    """Outcome of one multi-source batch.

    Per-root views (:meth:`lane_parent`, :meth:`lane_records`,
    :meth:`per_root_result`) expose each lane as if it had been a
    sequential run; batch-level aggregates (``ledger``,
    ``total_seconds``, ``records``) price the shared traversal once.
    """

    roots: np.ndarray
    #: ``parent[lane, vertex]`` — lane ``l``'s full parent tree.
    parent: np.ndarray = field(repr=False)
    #: One aggregate record per wave.
    records: list[IterationRecord] = field(repr=False)
    #: Per wave: per-lane frontier sizes.
    lane_frontiers: list[np.ndarray] = field(repr=False)
    #: Per wave: ``{component: (push_mask, pull_mask)}`` lane groups.
    lane_directions: list[dict] = field(repr=False)
    ledger: object = field(repr=False)
    total_seconds: float = 0.0
    num_input_edges: int = 0
    metrics: object = field(default=NULL_METRICS, repr=False)

    @property
    def num_lanes(self) -> int:
        return int(self.roots.size)

    @property
    def num_waves(self) -> int:
        return len(self.records)

    @property
    def amortized_seconds(self) -> float:
        """Simulated cost per query when the batch is shared fairly."""
        return self.total_seconds / self.num_lanes

    def lane_parent(self, lane: int) -> np.ndarray:
        return self.parent[lane]

    def lane_depth(self, lane: int) -> int:
        """Levels lane ``lane`` actually ran (its sequential iteration
        count)."""
        depth = 0
        for sizes in self.lane_frontiers:
            if sizes[lane] == 0:
                break
            depth += 1
        return depth

    def lane_records(self, lane: int) -> list[IterationRecord]:
        """Lane-eye view of the wave records: one record per level the
        lane was live, with the direction *that lane* ran per component
        (matching its sequential run's records)."""
        bit = lane_bit(lane)
        out = []
        for it, sizes in enumerate(self.lane_frontiers):
            if sizes[lane] == 0:
                break
            rec = IterationRecord(index=it, frontier_size=int(sizes[lane]))
            dirs = self.lane_directions[it]
            for name, agg_dir in self.records[it].directions.items():
                if name not in dirs:
                    rec.directions[name] = agg_dir  # "-": component empty
                    continue
                push_mask, pull_mask = dirs[name]
                if int(push_mask) & int(bit):
                    rec.directions[name] = "push"
                elif int(pull_mask) & int(bit):
                    rec.directions[name] = "pull"
                else:
                    rec.directions[name] = "-"
            out.append(rec)
        return out

    def per_root_result(self, lane: int, *, share_ledger: bool = False) -> BFSRunResult:
        """A :class:`BFSRunResult`-shaped view of one lane.

        ``total_seconds`` is the amortized share of the batch.  The
        batch ledger is attached only when ``share_ledger`` — exactly
        one lane of a batch should carry it, so that summing ledgers
        across per-root results counts the shared traversal once.
        """
        from repro.runtime.ledger import TrafficLedger

        ledger = (
            self.ledger
            if share_ledger
            else TrafficLedger(self.ledger.cost_model)
        )
        return BFSRunResult(
            root=int(self.roots[lane]),
            parent=self.parent[lane],
            iterations=self.lane_records(lane),
            ledger=ledger,
            total_seconds=self.amortized_seconds,
            num_input_edges=self.num_input_edges,
            metrics=self.metrics,
        )


class MultiSourceBFS(SchedulerHost):
    """Multi-source 1.5D BFS host: the batched sibling of
    :class:`~repro.core.engine.DistributedBFS`, sharing its kernels,
    context, and config — differing only in the batched scheduler hooks."""

    def __init__(
        self,
        part: PartitionedGraph,
        machine: MachineSpec | None = None,
        config: BFSConfig = BFSConfig(),
        tracer: Tracer | None = None,
        metrics=None,
    ) -> None:
        self.part = part
        self.mesh = part.mesh
        self.config = config
        self.tracer = tracer
        self.metrics = metrics
        if machine is None:
            machine = self.mesh.machine or MachineSpec(
                num_nodes=self.mesh.num_ranks
            )
        if machine.num_nodes < self.mesh.num_ranks:
            raise ValueError("machine smaller than the mesh")
        self.machine = machine

        self.ctx = FifteenDContext(part, machine, config)
        self.kernels = build_fifteend_kernels(self.ctx, COMPONENT_ORDER)
        self.scheduler = LevelSyncScheduler(
            self, self.kernels, tracer=tracer, metrics=metrics
        )
        self.lane_class_state = LaneClassState(self.ctx.masks)

        self.num_vertices = part.num_vertices
        self.num_input_edges = part.total_arcs // 2

    @property
    def cost(self):
        return self.ctx.cost

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def run_batch(self, roots, *, faults=None, span_attrs=None) -> MSBFSResult:
        """Traverse up to 64 distinct roots as one batched wave sequence.

        ``faults`` forwards the scheduler's injector hook; a crash fault
        aborts the whole batch with a
        :class:`~repro.resilience.faults.RankCrashError` (recover with
        :func:`run_batch_with_recovery`, or let the service replay the
        batch from its queue).  ``span_attrs`` merges extra attributes
        (the service's request trace ids) into the ``msbfs`` span.
        """
        state: BatchRunState = self.scheduler.run_batch(
            roots, faults=faults, span_attrs=span_attrs
        )
        return MSBFSResult(
            roots=state.lanes.roots,
            parent=state.lanes.parent,
            records=state.records,
            lane_frontiers=state.lane_frontiers,
            lane_directions=state.lane_directions,
            ledger=state.ledger,
            total_seconds=state.ledger.total_seconds,
            num_input_edges=self.num_input_edges,
            metrics=self.metrics if self.metrics is not None else NULL_METRICS,
        )

    # ------------------------------------------------------------------
    # batched scheduler hooks (the 1.5D policy, per lane)
    # ------------------------------------------------------------------

    def begin_batch_iteration(self, ledger, lanes) -> None:
        self.ctx.charge_delegate_sync_lanes(ledger, lanes)

    def batch_iteration_directions(self, lanes):
        if self.config.sub_iteration_direction:
            return None
        # Whole-iteration (Beamer) mode, per lane: each lane evaluates
        # the sequential heuristic on its own boolean view.
        degrees = self.part.degrees
        push_mask = np.uint64(0)
        pull_mask = np.uint64(0)
        for lane in iter_lanes(lanes.active_lane_mask):
            bit = lane_bit(lane)
            active = (lanes.active & bit) != 0
            visited = (lanes.visited & bit) != 0
            direction = choose_whole_iteration_direction(
                active, visited, degrees, self.config
            )
            if direction == "pull":
                pull_mask |= bit
            else:
                push_mask |= bit
        return push_mask, pull_mask

    def batch_component_directions(self, name, lanes):
        # Fresh per-lane ratios (§4.2): the integer population counts and
        # float comparisons match each lane's sequential decision exactly.
        ratios = self.lane_class_state.measure(lanes)
        src_cls, dst_cls = COMPONENT_CLASSES[name]
        active_src = ratios[src_cls][0]
        unvisited_dst = ratios[dst_cls][1]
        if name in NODE_LOCAL_COMPONENTS:
            pull = active_src > self.config.local_pull_threshold
        else:
            pull = unvisited_dst < active_src * self.config.cross_pull_bias
        push_mask = np.uint64(0)
        pull_mask = np.uint64(0)
        for lane in iter_lanes(lanes.active_lane_mask):
            if pull[lane]:
                pull_mask |= lane_bit(lane)
            else:
                push_mask |= lane_bit(lane)
        return push_mask, pull_mask

    def record_batch_activation(self, record: IterationRecord, newly) -> None:
        # (vertex, lane) activation pairs per class — the batch analogue
        # of the sequential per-class counts.
        for cls in ("E", "H", "L"):
            record.newly_activated[cls] = int(
                np.bitwise_count(newly[self.ctx.masks[cls]]).sum()
            )

    def end_batch_iteration(self, ledger, record, lanes, newly) -> None:
        if not self.config.delayed_reduction:
            self.ctx.charge_parent_reduction(ledger, lanes.num_lanes)

    def end_batch_run(self, ledger, tracer, lanes) -> None:
        if self.config.delayed_reduction:
            with tracer.span("parent_reduction", category="phase"):
                self.ctx.charge_parent_reduction(ledger, lanes.num_lanes)


@dataclass
class BatchRecovery:
    """A recovered batch plus its crash accounting."""

    result: MSBFSResult
    crashes: int = 0
    wasted_seconds: float = 0.0


def run_batch_with_recovery(
    engine: MultiSourceBFS,
    roots,
    *,
    faults=NULL_FAULTS,
    policy: RecoveryPolicy = RecoveryPolicy(),
    metrics=NULL_METRICS,
) -> BatchRecovery:
    """Run one batch, replaying it from scratch on injected rank crashes.

    A mid-batch crash fails only this batch: the whole batch is re-run
    (there is no per-root checkpoint inside a shared wave), the aborted
    attempts' ledgers are merged into the final result so
    ``total_seconds`` reflects the true end-to-end cost, and the restart
    budget is the policy's ``max_restarts``.  Only ``restart`` mode is
    meaningful for a batch — ``degrade`` excision is per-root machinery.
    """
    if policy.mode != "restart":
        raise RecoveryError(
            "batched runs support restart recovery only "
            f"(policy mode {policy.mode!r})"
        )
    crashes = 0
    wasted: list = []
    wasted_seconds = 0.0
    while True:
        try:
            result = engine.run_batch(
                roots, faults=faults if faults is not NULL_FAULTS else None
            )
            break
        except RankCrashError as crash:
            crashes += 1
            metrics.counter("rank_crashes").inc()
            if crash.ledger is not None:
                wasted.append(crash.ledger)
                wasted_seconds += crash.ledger.total_seconds
            if crashes > policy.max_restarts:
                raise RecoveryError(
                    f"rank {crash.rank} crashed mid-batch; restart budget "
                    f"({policy.max_restarts}) exhausted"
                ) from crash
            metrics.counter("recoveries", mode="restart").inc()
    recovery_seconds = 0.0
    for ledger in wasted:
        recovery_seconds += ledger.total_seconds
        result.ledger.merge(ledger)
    if wasted:
        result.total_seconds = result.ledger.total_seconds
        metrics.counter("recovery_time").inc(recovery_seconds)
    return BatchRecovery(
        result=result, crashes=crashes, wasted_seconds=wasted_seconds
    )
