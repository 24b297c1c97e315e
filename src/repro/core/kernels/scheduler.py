"""The shared level-synchronous scheduler.

Every traversal engine in the repo — the 1.5D ``DistributedBFS``, the
rank-explicit ``ReplayBFS``, and the 1D/2D baselines — executes through
one :class:`LevelSyncScheduler`.  The scheduler owns the only
sub-iteration loop: per BFS level it prices the engine's frontier sync,
resolves each component's direction (whole-iteration or fresh
per-component), runs the mounted :class:`~repro.core.kernels.base.ComponentKernel`
set densest-first inside ``component`` tracer spans, and commits
activations so later sub-iterations of the same level see the fresh
visited state (§4.2's freshness rule).

Engines differ only through the :class:`SchedulerHost` hooks they
implement: what a frontier sync costs, how directions are chosen, how
activations are recorded, and what happens at iteration/run end (eager
vs §5-delayed parent reduction, the replay's message routing and
delegate seeding).  One loop, one frontier/visited/parent semantics,
one tracing shape (``bfs`` → ``iteration`` → ``component`` → charge
leaves) for every engine.

Because the loop is shared, so is the metrics surface: pass ``metrics=``
a :class:`~repro.obs.metrics.MetricsRegistry` and every engine emits the
same aggregate families with zero per-engine code — per-component
``edges_scanned``/``messages``/``activated``/``subiterations`` counters
labeled by ``component`` and chosen ``direction``, ``subiteration_skips``
for empty components, ``direction_mode`` (fresh per-component vs whole
iteration) freshness counts, the ``frontier_size`` histogram, and —
through the ledger the registry is shared with — the comm/compute
families documented in :mod:`repro.runtime.ledger`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.lanes import LaneState
from repro.core.metrics import BFSRunResult, IterationRecord
from repro.obs.metrics import NULL_METRICS
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.runtime.ledger import TrafficLedger

__all__ = [
    "LevelSyncScheduler",
    "SchedulerHost",
    "BatchRunState",
    "ResumePoint",
    "ProgramResumePoint",
]


@dataclass
class BatchRunState:
    """Raw outcome of a batched (multi-source) scheduler run.

    The serving layer's :class:`~repro.serve.msbfs.MSBFSResult` wraps
    this into per-root views; the scheduler only guarantees the lane
    semantics: ``lanes.parent[l]`` is bit-identical to the parent array
    of a sequential run from ``lanes.roots[l]``.
    """

    lanes: LaneState
    #: One record per wave, with batch-aggregate counters.
    records: list[IterationRecord]
    ledger: TrafficLedger
    #: Per wave: per-lane frontier sizes (``int64[num_lanes]``).
    lane_frontiers: list[np.ndarray] = field(default_factory=list)
    #: Per wave: ``{component: (push_lane_mask, pull_lane_mask)}``.
    lane_directions: list[dict] = field(default_factory=list)


@dataclass(frozen=True)
class ResumePoint:
    """A synthetic mid-traversal entry point for :meth:`LevelSyncScheduler.run`.

    Structurally identical to a
    :class:`~repro.resilience.checkpoint.Checkpoint` (the ``resume=``
    parameter is duck-typed on exactly these fields) but constructed
    from *derived* state rather than captured live state — no sha256
    fingerprint, no persistence.  The incremental result patcher
    (:mod:`repro.dynamic.patch`) builds one from a repaired result's
    unaffected level prefix and re-enters the level loop at the first
    iteration the graph delta can influence: the scheduler resumes at
    ``iteration + 1``, so ``iteration = k - 1`` re-runs levels ``k``
    onward.  ``parent``/``visited``/``active`` must be the exact state
    a fresh run would hold after completing iteration ``iteration``.
    """

    root: int
    #: Last completed iteration index (state is *after* this level).
    iteration: int
    parent: np.ndarray
    visited: np.ndarray
    active: np.ndarray
    #: Per-iteration records of the kept prefix.
    records: tuple = ()


@dataclass(frozen=True)
class ProgramResumePoint:
    """Synthetic resume for :meth:`LevelSyncScheduler.run_program`.

    The vertex-program sibling of :class:`ResumePoint` (duck-typed like
    a :class:`~repro.resilience.checkpoint.ProgramCheckpoint`): restores
    the program's ``state`` dict and re-enters the iteration loop with
    ``active`` as the frontier.  With ``iteration = -1`` the loop starts
    at 0, i.e. a fresh run seeded with arbitrary prior state — how the
    dynamic layer re-converges SSSP from patched distances instead of
    recomputing from the root.
    """

    program: str
    iteration: int
    active: np.ndarray
    state: dict
    records: tuple = ()


class SchedulerHost:
    """Hook surface an engine exposes to the scheduler.

    Subclasses must set :attr:`num_vertices`, :attr:`num_input_edges`,
    a ``config`` with ``max_iterations``, and a ``cost`` model; every
    hook has a neutral default so a minimal engine only overrides what
    its scheme actually charges.
    """

    #: Total vertices (size of the parent/visited/frontier arrays).
    num_vertices: int
    #: Undirected input edges, reported on the run result.
    num_input_edges: int
    #: Per-vertex degree-class codes keying the lane counters (batched
    #: hosts only; see :class:`~repro.core.lanes.LaneState`).
    vclass: np.ndarray

    def make_ledger(self, tracer: Tracer, metrics=NULL_METRICS) -> TrafficLedger:
        return TrafficLedger(self.cost, tracer=tracer, metrics=metrics)

    def seed(self, root: int) -> None:
        """Install the root into any engine-private state (the scheduler
        already seeded its own parent/visited/frontier arrays)."""

    def restore(self, root: int, parent, visited, active) -> None:
        """Rebuild engine-private state from checkpointed global arrays
        (called instead of :meth:`seed` when resuming mid-traversal).
        Stateless hosts — every analytic engine — need nothing: their
        per-iteration inputs are exactly the global arrays the scheduler
        restored.  The replay engine overrides this to re-shard the
        arrays into its per-rank state."""

    def begin_iteration(self, ledger, active, visited) -> None:
        """Price whatever the scheme exchanges before ranks may expand
        (delegate frontier syncs, barriers)."""

    def iteration_direction(self, active, visited) -> str | None:
        """One direction for the whole iteration, or ``None`` to ask
        :meth:`component_direction` freshly per sub-iteration."""
        return None

    def component_direction(self, name, active, visited) -> str:
        """Direction for one component, measured against the *latest*
        visited state (only consulted when :meth:`iteration_direction`
        returned ``None``)."""
        raise NotImplementedError

    def record_activation(self, record: IterationRecord, next_active) -> None:
        """Fill ``record.newly_activated`` in the scheme's granularity."""

    def end_iteration(
        self, ledger, record, active, visited, parent, next_active
    ) -> None:
        """Iteration-end work: eager parent reduction, or (for the
        replay) routing buffered messages and committing activations
        into ``visited``/``parent``/``next_active`` in place."""

    def end_run(self, ledger, tracer: Tracer, parent) -> None:
        """Run-end work (inside the ``bfs`` span): the §5 delayed parent
        reduction, final barriers, delegate parent merges."""

    # -- batched-wave hooks (multi-source runs; see ``run_batch``) ------

    def begin_batch_iteration(self, ledger, lanes) -> None:
        """Price the batched frontier sync of one wave."""

    def batch_iteration_directions(self, lanes):
        """``(push_mask, pull_mask)`` lane groups for the whole wave, or
        ``None`` to ask :meth:`batch_component_directions` freshly per
        sub-iteration (mirrors :meth:`iteration_direction`)."""
        return None

    def batch_component_directions(self, name, lanes) -> tuple:
        """``(push_mask, pull_mask)`` lane groups for one component,
        measured per lane against the latest visited state — each lane
        gets the direction its sequential run would have chosen."""
        raise NotImplementedError

    def record_batch_activation(self, record: IterationRecord, lanes) -> None:
        """Fill ``record.newly_activated`` from the wave's commits
        (``lanes.newly`` and its class counters)."""

    def end_batch_iteration(self, ledger, record, lanes) -> None:
        """Wave-end work (eager parent reductions, barriers)."""

    def end_batch_run(self, ledger, tracer: Tracer, lanes) -> None:
        """Batch-end work (the §5 delayed parent reduction, per lane)."""


class LevelSyncScheduler:
    """Runs a kernel set level-synchronously on behalf of a host."""

    def __init__(
        self,
        host: SchedulerHost,
        kernels: dict[str, "ComponentKernel"],
        *,
        tracer: Tracer | None = None,
        metrics=None,
    ) -> None:
        self.host = host
        #: Execution order within an iteration is the mounting order —
        #: densest (highest-degree endpoints) first for the 1.5D set.
        self.kernels = kernels
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS

    def run(
        self,
        root: int,
        *,
        faults=None,
        checkpointer=None,
        resume=None,
        span_attrs=None,
    ) -> BFSRunResult:
        """Run one BFS from ``root``; returns the validated-shape result.

        ``span_attrs`` (a dict) merges extra attributes — e.g. a serving
        trace id — into the root ``bfs`` span; pure labeling, never read
        by the loop.

        Resilience hooks (all default-off, leaving the fault-free path
        bit-identical):

        faults:
            A :class:`~repro.resilience.faults.FaultInjector`.  It is
            installed on the run's ledger (the charge choke point every
            engine shares) and consulted at each iteration boundary, so
            crash faults abort the run with a
            :class:`~repro.resilience.faults.RankCrashError` annotated
            with the partial ledger and completed-iteration count.
        checkpointer:
            A :class:`~repro.resilience.checkpoint.LevelCheckpointer`;
            after each level whose index matches the cadence, the
            committed ``parent``/``visited``/``active`` state and the
            per-iteration records are snapshotted and the write cost is
            charged to the ledger as a ``checkpoint``-phase collective.
        resume:
            A :class:`~repro.resilience.checkpoint.Checkpoint` to
            continue from instead of seeding from scratch: the scheduler
            restores the snapshot's arrays and records, charges the
            restore broadcast, asks the host to
            :meth:`~SchedulerHost.restore` its private state, and
            re-enters the level loop at the snapshot's next iteration.
        """
        host = self.host
        n = host.num_vertices
        if not 0 <= root < n:
            raise ValueError(f"root {root} out of range for n={n}")

        tracer = self.tracer
        metrics = self.metrics
        ledger = host.make_ledger(tracer, metrics)
        if faults is not None and faults.enabled:
            ledger.faults = faults

        if resume is None:
            parent = np.full(n, -1, dtype=np.int64)
            visited = np.zeros(n, dtype=bool)
            active = np.zeros(n, dtype=bool)
            parent[root] = root
            visited[root] = True
            active[root] = True
            iterations: list[IterationRecord] = []
            start_it = 0
            host.seed(root)
            metrics.counter("bfs_runs").inc()
        else:
            if resume.root != root:
                raise ValueError(
                    f"resume snapshot is for root {resume.root}, not {root}"
                )
            parent = resume.parent.copy()
            visited = resume.visited.copy()
            active = resume.active.copy()
            iterations = list(resume.records)
            start_it = resume.iteration + 1
            host.restore(root, parent, visited, active)
            if checkpointer is not None and resume.iteration >= 0:
                checkpointer.charge_restore(ledger, resume)
            metrics.counter("bfs_resumes").inc()

        with tracer.span("bfs", category="bfs", root=root, **(span_attrs or {})):
            try:
                self._level_loop(
                    host, ledger, parent, visited, active, iterations,
                    start_it, root, faults, checkpointer,
                )
            except Exception as exc:
                # Annotate a simulated crash with what the aborted
                # attempt cost, then let the recovery policy take over.
                from repro.resilience.faults import RankCrashError

                if isinstance(exc, RankCrashError):
                    exc.ledger = ledger
                    exc.completed_iterations = len(iterations)
                if faults is not None:
                    faults.end_run()
                raise
            host.end_run(ledger, tracer, parent)
        if faults is not None:
            faults.end_run()

        return BFSRunResult(
            root=root,
            parent=parent,
            iterations=iterations,
            ledger=ledger,
            total_seconds=ledger.total_seconds,
            num_input_edges=host.num_input_edges,
            metrics=metrics,
        )

    def _level_loop(
        self, host, ledger, parent, visited, active, iterations,
        start_it, root, faults, checkpointer,
    ) -> None:
        """The shared per-level loop (see :meth:`run` for the contract)."""
        n = host.num_vertices
        tracer = self.tracer
        metrics = self.metrics
        for it in range(start_it, host.config.max_iterations):
            if faults is not None:
                faults.begin_iteration(it)
            if not active.any():
                break
            frontier = int(np.count_nonzero(active))
            metrics.counter("iterations").inc()
            metrics.histogram("frontier_size").observe(frontier)
            with tracer.span(
                "iteration", category="iteration", index=it, frontier=frontier
            ):
                host.begin_iteration(ledger, active, visited)
                record = IterationRecord(index=it, frontier_size=frontier)
                next_active = np.zeros(n, dtype=bool)
                global_dir = host.iteration_direction(active, visited)
                metrics.counter(
                    "direction_mode",
                    mode="fresh" if global_dir is None else "whole",
                ).inc()

                for name, kernel in self.kernels.items():
                    if kernel.num_arcs == 0:
                        record.directions[name] = "-"
                        metrics.counter(
                            "subiteration_skips", component=name
                        ).inc()
                        continue
                    if global_dir is None:
                        direction = host.component_direction(
                            name, active, visited
                        )
                    else:
                        direction = global_dir
                    record.directions[name] = direction
                    with tracer.span(
                        name,
                        category="component",
                        iteration=it,
                        direction=direction,
                    ) as csp:
                        newly, parents = kernel.execute(
                            direction, active, visited, ledger, record
                        )
                        csp.add_counter(
                            "edges", record.scanned_arcs.get(name, 0)
                        )
                        if record.messages.get(name, 0):
                            csp.add_counter("messages", record.messages[name])
                        csp.add_counter("activated", newly.size)
                    labels = dict(component=name, direction=direction)
                    metrics.counter("subiterations", **labels).inc()
                    metrics.counter("edges_scanned", **labels).inc(
                        record.scanned_arcs.get(name, 0)
                    )
                    metrics.counter("messages", **labels).inc(
                        record.messages.get(name, 0)
                    )
                    metrics.counter("activated", **labels).inc(newly.size)
                    if newly.size:
                        parent[newly] = parents
                        visited[newly] = True
                        next_active[newly] = True

                host.record_activation(record, next_active)
                host.end_iteration(
                    ledger, record, active, visited, parent, next_active
                )
                iterations.append(record)
                active = next_active

            # Level committed: snapshot at the consistency point the
            # level-synchronous structure guarantees.
            if checkpointer is not None and checkpointer.due(it):
                checkpointer.save(
                    ledger=ledger, root=root, iteration=it, parent=parent,
                    visited=visited, active=active, records=iterations,
                )

    # ------------------------------------------------------------------
    # vertex programs
    # ------------------------------------------------------------------

    def run_program(
        self,
        program,
        *,
        faults=None,
        checkpointer=None,
        resume=None,
        span_attrs=None,
    ):
        """Run a bound :class:`~repro.core.programs.base.VertexProgram`
        through the mounted kernel set.

        The loop is the BFS level loop with the commit step generalized:
        instead of parent/visited bookkeeping, each component hands its
        selected arcs to the program's gather → combine → apply and the
        union of activations feeds ``program.end_iteration``, which
        returns the next frontier (or ``None`` when converged).  Faults,
        checkpointing (via
        :meth:`~repro.resilience.checkpoint.LevelCheckpointer.save_program`),
        spans (``program`` → ``iteration`` → ``component``), and the
        per-component metric families all come from the shared loop —
        zero per-algorithm glue.
        """
        from repro.core.programs.base import ProgramRunResult

        host = self.host
        tracer = self.tracer
        metrics = self.metrics
        for name, kernel in self.kernels.items():
            if kernel.num_arcs and not kernel.supports_programs:
                raise NotImplementedError(
                    f"kernel {name} does not support vertex programs"
                )
        ledger = host.make_ledger(tracer, metrics)
        if faults is not None and faults.enabled:
            ledger.faults = faults

        if resume is None:
            active = program.initial_frontier()
            records: list[IterationRecord] = []
            start_it = 0
            metrics.counter("program_runs", program=program.name).inc()
        else:
            if resume.program != program.name:
                raise ValueError(
                    f"resume snapshot is for program {resume.program!r}, "
                    f"not {program.name!r}"
                )
            program.restore(resume.state)
            active = resume.active.copy()
            records = list(resume.records)
            start_it = resume.iteration + 1
            if checkpointer is not None and resume.iteration >= 0:
                checkpointer.charge_restore(ledger, resume)
            metrics.counter("program_resumes", program=program.name).inc()

        with tracer.span(
            "program", category="bfs", program=program.name,
            **(span_attrs or {}),
        ):
            try:
                self._program_loop(
                    program, host, ledger, active, records, start_it,
                    faults, checkpointer,
                )
            except Exception as exc:
                from repro.resilience.faults import RankCrashError

                if isinstance(exc, RankCrashError):
                    exc.ledger = ledger
                    exc.completed_iterations = len(records)
                if faults is not None:
                    faults.end_run()
                raise
            host.end_run(ledger, tracer, None)
            program.end_run()
        if faults is not None:
            faults.end_run()

        return ProgramRunResult(
            program=program.name,
            state=program.state_arrays(),
            iterations=records,
            ledger=ledger,
            num_input_edges=host.num_input_edges,
            converged=program.converged,
            info=program.info(),
        )

    def _program_loop(
        self, program, host, ledger, active, records, start_it,
        faults, checkpointer,
    ) -> None:
        """The shared per-iteration program loop (see :meth:`run_program`)."""
        n = host.num_vertices
        tracer = self.tracer
        metrics = self.metrics
        pname = program.name
        for it in range(start_it, program.max_iterations):
            if faults is not None:
                faults.begin_iteration(it)
            if active is None or not active.any():
                break
            frontier = int(np.count_nonzero(active))
            metrics.counter("program_iterations", program=pname).inc()
            metrics.histogram("frontier_size").observe(frontier)
            with tracer.span(
                "iteration", category="iteration", index=it, frontier=frontier
            ):
                settled = program.settled_mask()
                host.begin_iteration(ledger, active, settled)
                program.begin_iteration(it, active)
                record = IterationRecord(index=it, frontier_size=frontier)
                touched = np.zeros(n, dtype=bool)
                free_choice = (
                    program.forced_direction is None and program.supports_pull
                )
                metrics.counter(
                    "direction_mode", mode="fresh" if free_choice else "forced"
                ).inc()

                for name, kernel in self.kernels.items():
                    if kernel.num_arcs == 0:
                        record.directions[name] = "-"
                        metrics.counter(
                            "subiteration_skips", component=name
                        ).inc()
                        continue
                    if free_choice:
                        direction = host.component_direction(
                            name, active, settled
                        )
                    else:
                        direction = program.forced_direction or "push"
                    record.directions[name] = direction
                    with tracer.span(
                        name,
                        category="component",
                        iteration=it,
                        direction=direction,
                    ) as csp:
                        newly = kernel.execute_program(
                            program, direction, active, ledger, record
                        )
                        csp.add_counter(
                            "edges", record.scanned_arcs.get(name, 0)
                        )
                        if record.messages.get(name, 0):
                            csp.add_counter("messages", record.messages[name])
                        csp.add_counter("activated", newly.size)
                    labels = dict(component=name, direction=direction)
                    metrics.counter("subiterations", **labels).inc()
                    metrics.counter("edges_scanned", **labels).inc(
                        record.scanned_arcs.get(name, 0)
                    )
                    metrics.counter("messages", **labels).inc(
                        record.messages.get(name, 0)
                    )
                    metrics.counter("activated", **labels).inc(newly.size)
                    if newly.size:
                        touched[newly] = True

                host.record_activation(record, touched)
                metrics.counter("program_updates", program=pname).inc(
                    int(np.count_nonzero(touched))
                )
                next_active = program.end_iteration(it, active, touched)
                host.end_iteration(
                    ledger, record, active, settled, None, next_active
                )
                records.append(record)
                active = next_active

            # Iteration committed — program state is the consistency
            # point, exactly like the level commit in BFS.
            if checkpointer is not None and active is not None and checkpointer.due(it):
                checkpointer.save_program(
                    ledger=ledger, program=program, iteration=it,
                    active=active, records=records,
                )

    # ------------------------------------------------------------------
    # batched (multi-source) waves
    # ------------------------------------------------------------------

    def run_batch(self, roots, *, faults=None, span_attrs=None) -> BatchRunState:
        """Run up to 64 BFS lanes as one level-synchronous traversal.

        Each *wave* advances every live lane by one level: the host
        prices one shared frontier sync, each component picks a
        direction *per lane* (grouping lanes so every lane still gets
        the direction — and therefore the parents — of its sequential
        run), and each direction group executes the component once for
        all its lanes.  Traffic is charged through the same ledger choke
        point as sequential runs, with lane-word message sizes.

        ``faults`` mirrors :meth:`run`: crash faults abort the *batch*
        with a :class:`~repro.resilience.faults.RankCrashError` annotated
        with the partial ledger — callers replay the whole batch
        (checkpoint/resume is per-root machinery and is not supported
        here).
        """
        host = self.host
        tracer = self.tracer
        metrics = self.metrics
        for name, kernel in self.kernels.items():
            if kernel.num_arcs and not kernel.supports_lanes:
                raise NotImplementedError(
                    f"kernel {name} does not support batched waves"
                )
        lanes = LaneState(host.vclass, roots)
        ledger = host.make_ledger(tracer, metrics)
        if faults is not None and faults.enabled:
            ledger.faults = faults
        records: list[IterationRecord] = []
        lane_frontiers: list[np.ndarray] = []
        lane_directions: list[dict] = []
        metrics.counter("msbfs_batches").inc()
        metrics.histogram("msbfs_batch_lanes").observe(lanes.num_lanes)

        with tracer.span(
            "msbfs", category="bfs", lanes=lanes.num_lanes,
            **(span_attrs or {}),
        ):
            try:
                for it in range(host.config.max_iterations):
                    if faults is not None:
                        faults.begin_iteration(it)
                    per_lane = lanes.frontier_sizes()
                    frontier = int(per_lane.sum())
                    if frontier == 0:
                        break
                    metrics.counter("msbfs_waves").inc()
                    metrics.histogram("frontier_size").observe(frontier)
                    with tracer.span(
                        "wave", category="iteration", index=it, frontier=frontier
                    ):
                        self._wave(
                            host, ledger, lanes, it, records,
                            lane_frontiers, lane_directions, per_lane,
                        )
            except Exception as exc:
                from repro.resilience.faults import RankCrashError

                if isinstance(exc, RankCrashError):
                    exc.ledger = ledger
                    exc.completed_iterations = len(records)
                if faults is not None:
                    faults.end_run()
                raise
            host.end_batch_run(ledger, tracer, lanes)
        if faults is not None:
            faults.end_run()
        return BatchRunState(
            lanes=lanes,
            records=records,
            ledger=ledger,
            lane_frontiers=lane_frontiers,
            lane_directions=lane_directions,
        )

    def _wave(
        self, host, ledger, lanes, it, records,
        lane_frontiers, lane_directions, per_lane,
    ) -> None:
        """One batched level: sync, per-component direction groups,
        shared execution, commit (§4.2 freshness per sub-iteration)."""
        tracer = self.tracer
        metrics = self.metrics
        host.begin_batch_iteration(ledger, lanes)
        record = IterationRecord(
            index=it, frontier_size=int(per_lane.sum())
        )
        whole = host.batch_iteration_directions(lanes)
        metrics.counter(
            "direction_mode", mode="fresh" if whole is None else "whole"
        ).inc()
        dirs_this = {}
        for name, kernel in self.kernels.items():
            if kernel.num_arcs == 0:
                record.directions[name] = "-"
                metrics.counter("subiteration_skips", component=name).inc()
                continue
            if whole is None:
                push_mask, pull_mask = host.batch_component_directions(
                    name, lanes
                )
            else:
                push_mask, pull_mask = whole
            dirs_this[name] = (int(push_mask), int(pull_mask))
            ran = []
            for direction, group in (("push", push_mask), ("pull", pull_mask)):
                if not int(group):
                    continue
                ran.append(direction)
                with tracer.span(
                    name,
                    category="component",
                    iteration=it,
                    direction=direction,
                ) as csp:
                    updates = kernel.execute_lanes(
                        direction, group, lanes, ledger, record
                    )
                    lanes.commit(updates)
                    activated = sum(int(d.size) for _, d, _ in updates)
                    csp.add_counter(
                        "edges", record.scanned_arcs.get(name, 0)
                    )
                    if record.messages.get(name, 0):
                        csp.add_counter("messages", record.messages[name])
                    csp.add_counter("activated", activated)
                labels = dict(component=name, direction=direction)
                metrics.counter("subiterations", **labels).inc()
                metrics.counter("activated", **labels).inc(activated)
            record.directions[name] = "|".join(ran) if ran else "-"
            metrics.counter(
                "edges_scanned", component=name, direction=record.directions[name]
            ).inc(record.scanned_arcs.get(name, 0))
            metrics.counter(
                "messages", component=name, direction=record.directions[name]
            ).inc(record.messages.get(name, 0))
        host.record_batch_activation(record, lanes)
        host.end_batch_iteration(ledger, record, lanes)
        records.append(record)
        lane_frontiers.append(per_lane)
        lane_directions.append(dirs_this)
        lanes.advance()
