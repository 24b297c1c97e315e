"""The distributed 1.5D BFS engine (paper §4-§5).

Executes Graph500 BFS over a :class:`~repro.core.partition.PartitionedGraph`
on the simulated runtime.  Functional semantics are exact level-synchronous
BFS — the parent array validates under the Graph500 specification and the
levels match the serial reference — while every kernel and collective the
real machine would run is charged to a :class:`~repro.runtime.ledger.TrafficLedger`
with its exactly-counted volume.

The engine is a facade over the component-kernel layer
(:mod:`repro.core.kernels`): the six edge components execute as
:class:`~repro.core.kernels.base.ComponentKernel` objects from
:data:`~repro.core.kernels.fifteend.FIFTEEND_KERNELS` — each owning its
push/pull kernels, compute rates, message routing, and ledger charges —
mounted densest-first (EH2EH, E2L, L2E, H2L, L2H, L2L) on the shared
:class:`~repro.core.kernels.scheduler.LevelSyncScheduler`.  The engine
itself only supplies the 1.5D scheduler hooks: the per-iteration
delegate frontier sync, the §4.2 direction policy (every component picks
its own direction from the *latest* visited state), the per-class
activation trace, and the §5 (optionally delayed) parent reduction.
``ReplayBFS`` and the 1D/2D baselines mount their own kernel sets on the
same scheduler, so all engines share one frontier/visited/parent
semantics and one tracing shape.

Communication pattern per the 1.5D scheme:

- E frontier bits: global allreduce each iteration (E is tiny).
- H frontier bits: column + row allreduce each iteration (the delegate
  sync; rows are intra-supernode, columns cross the fat-tree layer).
- H2L / L2H messaging: row alltoallv (intra-supernode by construction).
- L2L messaging: two-stage forwarding through the intersection rank of the
  source column and destination row (§4.4) — a column alltoallv (crossing
  supernodes) followed by a row alltoallv.
- pull prerequisites: H2L pull row-allgathers the row's unvisited-L bits;
  L2L pull all-gathers the global active-L bits (the §2.3 scalability
  wall of bottom-up 1D, priced explicitly).
- parent arrays of delegated vertices: reduce-scatter at run end (delayed
  reduction, §5) or every iteration when disabled.

Observability: pass ``tracer=`` a :class:`~repro.obs.tracer.Tracer` to
record the run as a span tree — one span per BFS, per iteration, and per
executed component sub-iteration (annotated with the chosen direction,
frontier size, and scanned-arc/message counters) with every ledger charge
as a leaf underneath.  The default :data:`~repro.obs.tracer.NULL_TRACER`
is a no-op and leaves results bit-identical to an untraced run.  Pass
``metrics=`` a :class:`~repro.obs.metrics.MetricsRegistry` to additionally
accumulate the aggregate metric families (see
:mod:`repro.core.kernels.scheduler` and :mod:`repro.runtime.ledger`);
build a :class:`~repro.obs.report.RunReport` artifact from the run with
:func:`repro.obs.report.report_from_bfs`.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import BFSConfig
from repro.core.direction import (
    choose_component_direction,
    choose_whole_iteration_direction,
)
from repro.core.kernels.fifteend import FifteenDContext, build_fifteend_kernels
from repro.core.kernels.scheduler import LevelSyncScheduler, SchedulerHost
from repro.core.metrics import BFSRunResult, IterationRecord
from repro.core.partition import PartitionedGraph
from repro.core.subgraphs import COMPONENT_ORDER
from repro.machine.network import MachineSpec
from repro.obs.tracer import Tracer

__all__ = ["DistributedBFS"]


class DistributedBFS(SchedulerHost):
    """BFS over a 1.5D-partitioned graph on a simulated machine."""

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

        self.num_vertices = part.num_vertices
        self.num_input_edges = part.total_arcs // 2

    # Convenience views onto the kernel context (public API of old).
    @property
    def cost(self):
        return self.ctx.cost

    @property
    def rates(self):
        return self.ctx.rates

    @property
    def masks(self):
        return self.ctx.masks

    @property
    def class_state(self):
        return self.ctx.class_state

    @property
    def seg_plan(self):
        return self.ctx.seg_plan

    @property
    def use_segmenting(self):
        return self.ctx.use_segmenting

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def run(self, root: int, **resilience) -> BFSRunResult:
        """Run one BFS from ``root``; returns the validated-shape result.

        ``**resilience`` forwards the scheduler's optional
        ``faults``/``checkpointer``/``resume`` hooks (see
        :meth:`~repro.core.kernels.scheduler.LevelSyncScheduler.run`).
        """
        return self.scheduler.run(root, **resilience)

    def run_program(self, program, **resilience):
        """Run a :class:`~repro.core.programs.base.VertexProgram` through
        the six 1.5D kernels.

        Binds the program to this engine's partition and enters
        :meth:`~repro.core.kernels.scheduler.LevelSyncScheduler.run_program`;
        the program inherits the engine's delegate-sync pricing, §4.2
        direction policy, per-class activation trace and §5 parent/state
        reduction through the same host hooks BFS uses.  ``**resilience``
        forwards ``faults``/``checkpointer``/``resume``.
        """
        program.bind(self.part)
        return self.scheduler.run_program(program, **resilience)

    # ------------------------------------------------------------------
    # scheduler hooks (the 1.5D policy)
    # ------------------------------------------------------------------

    def begin_iteration(self, ledger, active, visited) -> None:
        self.ctx.charge_delegate_sync(ledger, active)

    def iteration_direction(self, active, visited) -> str | None:
        if self.config.sub_iteration_direction:
            return None
        return choose_whole_iteration_direction(
            active, visited, self.part.degrees, self.config
        )

    def component_direction(self, name, active, visited) -> str:
        ratios = self.ctx.class_state.measure(active, visited)
        return choose_component_direction(name, ratios, self.config)

    def record_activation(self, record: IterationRecord, next_active) -> None:
        for cls in ("E", "H", "L"):
            record.newly_activated[cls] = int(
                np.count_nonzero(next_active & self.ctx.masks[cls])
            )

    def end_iteration(self, ledger, record, active, visited, parent, next_active):
        if not self.config.delayed_reduction:
            self.ctx.charge_parent_reduction(ledger)

    def end_run(self, ledger, tracer, parent) -> None:
        if self.config.delayed_reduction:
            with tracer.span("parent_reduction", category="phase"):
                self.ctx.charge_parent_reduction(ledger)

    # ------------------------------------------------------------------
    # back-compat delegates (analytic charge paths, used by cross-checks)
    # ------------------------------------------------------------------

    def _charge_row_alltoallv(self, name, send_msgs_per_rank, ledger):
        self.ctx.charge_row_alltoallv(name, send_msgs_per_rank, ledger)

    def _charge_l2l_alltoallv(self, sender_rank, dest_rank, ledger):
        self.ctx.charge_l2l_alltoallv(sender_rank, dest_rank, ledger)
