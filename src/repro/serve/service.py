"""The serving core: batched traversal queries over resident graphs.

One implementation serves every configuration.  A
:class:`ClusterService` holds M resident tenant graphs (a
:class:`~repro.cluster.tenants.TenantRegistry`) and runs N service
*replicas*; a :class:`TraversalService` is the same class built over one
graph — one tenant (``"default"``) on one replica, with the tenant's
admission quota set to ``queue_depth``.

1. **Admission.**  :meth:`ClusterService.submit` answers from the
   tenant's :class:`~repro.serve.cache.ResultCache` when it can;
   otherwise the request enters the tenant's *bounded* queue.  A full
   queue sheds the request with a typed :class:`Overloaded` carrying the
   tenant and trace id.
2. **Routing.**  The :class:`~repro.cluster.router.ClusterRouter` picks
   the tenant whose batch runs next under weighted deficit round-robin;
   a batch is packed from exactly one tenant, so lanes never mix graphs.
3. **Batching.**  The batching window opens when a replica pops a
   tenant's first request; the batch closes when ``batch_size`` distinct
   roots are pending or the window expires.  Duplicate roots share one
   lane.
4. **Traversal.**  The batch runs as one multi-source wave sequence on
   the executor; every lane's parent tree is bit-identical to a
   sequential run, so serving batched is *not* an approximation.
5. **Resilience.**  A mid-batch :class:`~repro.resilience.faults.RankCrashError`
   re-queues the batch at the front of its tenant's queue, with submit
   times and trace ids intact.  The crashed replica is marked down only
   while another replica is live (failover); on the last live replica
   the batch replays in place.  Either way a request that crashed more
   than ``max_replays`` times fails with a typed :class:`TraversalError`.
   Any other exception from the engine fails that batch's requests with
   a :class:`TraversalError` chained to the cause, and serving goes on.

Latency is observed per request into ``serve_latency_seconds{tenant,
stage}``: ``queue`` (submit → popped off the router into a forming
batch), ``batch`` (popped → traversal start, the batching-window cost),
``traversal`` (engine wall time), ``total`` (submit → resolve).  Every
request gets a **trace id** (``req-000001``, ...) at admission; it rides
on the response, keys a bounded ring of :class:`RequestTimeline` records
(:meth:`ClusterService.request_timeline`), and — with a ``tracer`` — is
merged into the scheduler's ``msbfs`` span attrs.  A timeline's
``total_seconds`` is the *same float* observed into
``serve_latency_seconds{stage="total"}``.
"""

from __future__ import annotations

import asyncio
import functools
import time
from collections import Counter, OrderedDict
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from repro.obs.metrics import NULL_METRICS, exponential_buckets
from repro.obs.tracer import NULL_TRACER
from repro.resilience.faults import RankCrashError
from repro.serve.cache import ResultCache, fingerprint_graph

__all__ = [
    "ClusterService",
    "DEFAULT_TENANT",
    "IngestReport",
    "Overloaded",
    "ReplicaDown",
    "TraversalError",
    "TraversalResponse",
    "TraversalService",
    "ServeStats",
    "LatencyReservoir",
    "RequestTimeline",
    "LATENCY_BUCKETS",
]

#: The tenant id a single-graph :class:`TraversalService` serves under.
DEFAULT_TENANT = "default"

#: Sub-microsecond to ~9-minute wall-latency buckets.
LATENCY_BUCKETS = exponential_buckets(1e-6, 2.0, 40)


class LatencyReservoir:
    """Fixed-size uniform sample of an unbounded latency stream.

    Vitter's Algorithm R: the first ``capacity`` values are kept, after
    which each new value replaces a random slot with probability
    ``capacity / seen`` — at any point the kept set is a uniform sample
    of everything appended, so percentiles stay stable under sustained
    traffic while memory stays O(capacity).  The RNG is seeded, so a
    replayed request sequence samples identically.
    """

    __slots__ = ("capacity", "_values", "_seen", "_rng")

    def __init__(self, capacity: int = 4096, *, seed: int = 0x5EED) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._values: list[float] = []
        self._seen = 0
        self._rng = np.random.default_rng(seed)

    def append(self, value: float) -> None:
        self._seen += 1
        if len(self._values) < self.capacity:
            self._values.append(float(value))
            return
        slot = int(self._rng.integers(0, self._seen))
        if slot < self.capacity:
            self._values[slot] = float(value)

    @property
    def seen(self) -> int:
        """Values ever appended (``>= len(self)``)."""
        return self._seen

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self):
        return iter(self._values)

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self._values, dtype=dtype)


class _AttributedError(RuntimeError):
    """A typed serving error that names its tenant and request.

    The tenant id (``""`` when unset) and the trace id ride on the
    exception and in its message, so sheds and failures in logs and
    workload reports can be pinned to a tenant and a specific request.
    """

    def __init__(
        self, message: str, *, tenant: str = "", trace_id: str = ""
    ) -> None:
        detail = ""
        if tenant:
            detail += f" tenant={tenant}"
        if trace_id:
            detail += f" trace={trace_id}"
        super().__init__(message + (f" [{detail.strip()}]" if detail else ""))
        self.tenant = tenant
        self.trace_id = trace_id


class Overloaded(_AttributedError):
    """Typed admission-control rejection: the tenant's queue is full.

    Clients treat this as backpressure — back off and retry; the request
    was never enqueued.
    """

    def __init__(
        self, queue_depth: int, limit: int, *, tenant: str = "",
        trace_id: str = "",
    ) -> None:
        super().__init__(
            f"request queue full ({queue_depth}/{limit}); request shed",
            tenant=tenant,
            trace_id=trace_id,
        )
        self.queue_depth = queue_depth
        self.limit = limit


class TraversalError(_AttributedError):
    """A request's batch failed or exhausted its replay budget."""


class ReplicaDown(_AttributedError):
    """No live replica remains to serve the request."""

    def __init__(
        self, *, tenant: str = "", trace_id: str = "", replicas: int = 0
    ) -> None:
        super().__init__(
            f"no live service replica ({replicas} configured)",
            tenant=tenant,
            trace_id=trace_id,
        )
        self.replicas = replicas


@dataclass
class RequestTimeline:
    """Staged wall-clock breakdown of one served request, by trace id.

    ``total_seconds`` is exactly the value observed into
    ``serve_latency_seconds{stage="total"}`` for this request (cache
    hits observe only ``total``; failed requests observe nothing and
    record zeros here).
    """

    trace_id: str
    root: int
    program: str = "bfs"
    #: ``completed`` | ``cached`` | ``failed``
    status: str = "completed"
    batch_lanes: int = 0
    queue_seconds: float = 0.0
    batch_seconds: float = 0.0
    traversal_seconds: float = 0.0
    total_seconds: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class TraversalResponse:
    """One served query."""

    root: int
    #: Request-scoped trace id (keys :meth:`ClusterService.request_timeline`).
    trace_id: str = ""
    #: Owning tenant (:data:`DEFAULT_TENANT` for a single-graph service).
    tenant: str = ""
    parent: np.ndarray | None = field(repr=False, default=None)
    cached: bool = False
    #: Lanes in the batch that served it (0 for cache hits).
    batch_lanes: int = 0
    #: Wall-clock stage latencies (seconds).
    queue_wait: float = 0.0
    batch_wait: float = 0.0
    traversal_seconds: float = 0.0
    total_seconds: float = 0.0
    #: Amortized *simulated* machine cost of the query (0 for cache hits).
    sim_seconds: float = 0.0
    #: Which registered program served the query ("bfs" for traversals).
    program: str = "bfs"
    #: Non-BFS programs: the program's state arrays and info scalars.
    state: dict | None = field(repr=False, default=None)
    info: dict | None = None
    iterations: int = 0
    converged: bool = True


@dataclass
class ServeStats:
    """Service-lifetime counters (wall latencies in seconds)."""

    requests: int = 0
    admitted: int = 0
    completed: int = 0
    cache_hits: int = 0
    shed: int = 0
    failed: int = 0
    replays: int = 0
    batches: int = 0
    batched_lanes: int = 0
    #: Non-BFS vertex-program queries served (subset of ``completed``).
    program_runs: int = 0
    sim_seconds_total: float = 0.0
    #: Bounded uniform sample of per-request total latencies — the
    #: percentile source.  Appends like a list; never grows past its
    #: capacity under sustained traffic.
    total_latencies: LatencyReservoir = field(
        default_factory=LatencyReservoir, repr=False
    )

    @property
    def mean_batch_size(self) -> float:
        return self.batched_lanes / self.batches if self.batches else 0.0

    @property
    def sim_seconds_per_query(self) -> float:
        return (
            self.sim_seconds_total / self.completed if self.completed else 0.0
        )

    def latency_percentile(self, q: float) -> float:
        """Percentile ``q`` of sampled total latencies, or ``nan`` when
        the reservoir is empty (an idle tenant has no latencies; report
        builders render ``nan`` rather than crash or fake a zero)."""
        if not len(self.total_latencies):
            return float("nan")
        return float(np.percentile(np.asarray(self.total_latencies), q))

    @property
    def p50_seconds(self) -> float:
        return self.latency_percentile(50)

    @property
    def p99_seconds(self) -> float:
        return self.latency_percentile(99)

    @property
    def cache_hit_rate(self) -> float:
        served = self.cache_hits + self.completed
        return self.cache_hits / served if served else 0.0

    @classmethod
    def merged(cls, parts) -> "ServeStats":
        """The field-wise sum of several stats (a service-wide view over
        per-tenant counters); latency samples are pooled."""
        parts = list(parts)
        out = cls()
        for f in fields(cls):
            if f.name != "total_latencies":
                setattr(out, f.name, sum(getattr(p, f.name) for p in parts))
        pooled = [v for p in parts for v in p.total_latencies]
        out.total_latencies = LatencyReservoir(max(1, len(pooled)))
        out.total_latencies._values = pooled
        out.total_latencies._seen = sum(p.total_latencies.seen for p in parts)
        return out


@dataclass
class IngestReport:
    """Outcome of one :meth:`ClusterService.ingest_updates` call."""

    tenant: str = ""
    #: Per-batch :class:`~repro.dynamic.repair.RepairReport` objects.
    reports: list = field(repr=False, default_factory=list)
    num_batches: int = 0
    num_updates: int = 0
    #: Cache entries evicted because the delta touched their tree.
    cache_evicted: int = 0
    #: Cache entries carried over to the repaired graph's fingerprint.
    cache_rekeyed: int = 0
    old_fingerprint: str = ""
    new_fingerprint: str = ""


@dataclass
class _Request:
    root: int
    future: asyncio.Future = field(repr=False)
    submitted_at: float
    trace_id: str = ""
    popped_at: float = 0.0
    attempts: int = 0


@dataclass(eq=False)
class _Replica:
    replica_id: str
    down: bool = False
    #: Set by kill_replica(); honored at the next batch boundary — if a
    #: batch is in flight its results are discarded and the batch
    #: re-routed, which is exactly the mid-batch crash drill.
    kill_requested: bool = False
    task: asyncio.Task | None = None
    batches: int = 0


_DEFAULT_CACHE = object()

#: Bounded per-service cache of default-parameter program results.
_PROGRAM_CACHE_CAPACITY = 256


class ClusterService:
    """Serve M tenant graphs from N replicas with weighted fairness."""

    def __init__(
        self,
        registry,
        *,
        replicas: int = 2,
        batch_size: int = 64,
        batch_window: float = 0.002,
        max_replays: int = 2,
        faults=None,
        metrics=NULL_METRICS,
        tracer=NULL_TRACER,
        clock=time.monotonic,
        timeline_capacity: int = 2048,
    ) -> None:
        from repro.cluster.router import ClusterRouter
        from repro.obs.slo import SLOMonitor
        from repro.serve.msbfs import MAX_BATCH_ROOTS

        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        if not 1 <= batch_size <= MAX_BATCH_ROOTS:
            raise ValueError(f"batch_size must be in [1, {MAX_BATCH_ROOTS}]")
        if batch_window < 0:
            raise ValueError("batch_window must be >= 0")
        self.registry = registry
        self.router = ClusterRouter(registry, batch_size=batch_size)
        self.batch_size = int(batch_size)
        self.batch_window = float(batch_window)
        self.max_replays = int(max_replays)
        self._faults = faults
        self._metrics = metrics
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._clock = clock
        self._replicas: dict[str, _Replica] = {
            f"r{i}": _Replica(f"r{i}") for i in range(int(replicas))
        }
        self._wake = asyncio.Event()
        self._closed = True
        # Request-scoped tracing: a monotonic trace-id sequence and a
        # bounded (oldest-evicted) trace_id -> RequestTimeline ring.
        self._trace_seq = 0
        self._timeline_capacity = int(timeline_capacity)
        self._timelines: "OrderedDict[str, RequestTimeline]" = OrderedDict()
        #: Requests on an executor right now (batch lanes + program runs).
        self._inflight = 0
        #: Per-tenant program runs in flight; they share the quota.
        self._programs_inflight: Counter = Counter()
        self._program_cache: "OrderedDict[tuple, dict]" = OrderedDict()
        self._ingest_lock = asyncio.Lock()
        #: One burn-rate monitor per tenant, narrowed to that tenant's
        #: label on the shared latency family.
        self.slo_monitors: dict[str, SLOMonitor] = {
            tenant.tenant_id: SLOMonitor(
                metrics,
                tenant.spec.resolved_slos,
                match={"tenant": tenant.tenant_id},
                clock=clock,
            )
            for tenant in registry
        }
        self._metrics.gauge("serve_replicas_live").set(len(self._replicas))
        self._metrics.gauge("serve_tenants").set(len(registry))

    # ------------------------------------------------------------------
    # introspection (TelemetryServer surface)
    # ------------------------------------------------------------------

    @property
    def stats(self) -> ServeStats:
        """Service-wide counters: the sum over the tenants' stats."""
        return ServeStats.merged(tenant.stats for tenant in self.registry)

    @property
    def metrics(self):
        """The registry the service writes its ``serve_*`` families to."""
        return self._metrics

    @property
    def pending(self) -> int:
        return self.router.pending + self._inflight

    @property
    def replica_ids(self) -> list[str]:
        return list(self._replicas)

    @property
    def live_replicas(self) -> list[str]:
        return [r.replica_id for r in self._replicas.values() if not r.down]

    def request_timeline(self, trace_id: str) -> RequestTimeline | None:
        """The staged timeline of a recently served request, or ``None``
        once it aged out of the bounded ring (or never existed)."""
        return self._timelines.get(trace_id)

    def slo_status(self) -> dict:
        """Per-tenant SLO evaluation documents (the /slo/<tenant> view)."""
        return {
            tid: monitor.evaluate()
            for tid, monitor in self.slo_monitors.items()
        }

    def tenants_snapshot(self) -> dict:
        """The /tenants telemetry document: per-tenant queue + counters."""
        queues = self.router.snapshot()
        doc = {}
        for tenant in self.registry:
            tid = tenant.tenant_id
            stats = tenant.stats
            doc[tid] = {
                **queues[tid],
                "slo_class": tenant.spec.slo_class,
                "fingerprint": tenant.fingerprint,
                "num_vertices": tenant.num_vertices,
                "requests": stats.requests,
                "completed": stats.completed,
                "cache_hits": stats.cache_hits,
                "shed": stats.shed,
                "failed": stats.failed,
                "p50_seconds": stats.p50_seconds,
                "p99_seconds": stats.p99_seconds,
            }
        return {
            "tenants": doc,
            "replicas": {
                rid: {"down": rep.down, "batches": rep.batches}
                for rid, rep in self._replicas.items()
            },
            "pending": self.pending,
        }

    def _next_trace_id(self) -> str:
        self._trace_seq += 1
        return f"req-{self._trace_seq:06d}"

    def _record_timeline(self, timeline: RequestTimeline) -> None:
        self._timelines[timeline.trace_id] = timeline
        while len(self._timelines) > self._timeline_capacity:
            self._timelines.popitem(last=False)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        if any(r.task is not None for r in self._replicas.values()):
            raise RuntimeError("service already started")
        self._closed = False
        self._wake = asyncio.Event()
        # Zero baseline: each SLO window opens when serving starts.
        for monitor in self.slo_monitors.values():
            monitor.observe()
        for replica in self._replicas.values():
            replica.task = asyncio.create_task(self._replica_loop(replica))

    async def stop(self) -> None:
        """Drain every tenant queue on surviving replicas, then stop."""
        self._closed = True
        self._wake.set()
        for replica in self._replicas.values():
            if replica.task is not None:
                await replica.task
                replica.task = None
        # Anything still queued had no live replica to drain it.
        for tenant_id, request in self.router.drain():
            self._fail_request(
                request, self.registry[tenant_id], self._replica_down(
                    tenant_id, request.trace_id
                )
            )

    async def __aenter__(self):
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    def kill_replica(self, replica_id: str) -> None:
        """Take one replica down (failure drill / test hook).

        Takes effect at the replica's next batch boundary: an in-flight
        batch's results are discarded and the batch re-routed through
        the normal failover path, so a mid-batch kill exercises
        detection → re-queue → re-route on a surviving replica.
        """
        replica = self._replicas.get(replica_id)
        if replica is None:
            raise KeyError(
                f"unknown replica {replica_id!r} "
                f"(configured: {', '.join(self._replicas)})"
            )
        replica.kill_requested = True
        self._wake.set()

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------

    async def submit(
        self, tenant_id: str, root: int | None = None, *,
        program: str = "bfs", **params,
    ) -> TraversalResponse:
        """Serve one query against one tenant's resident graph.

        ``program="bfs"`` (the default) is the batched traversal path
        and requires ``root``.  Any other registered program name runs
        as a single execution on the executor — see
        :meth:`_submit_program`.

        Raises :class:`Overloaded` when the tenant's admission quota is
        exhausted, :class:`TraversalError` when the query's batch failed
        or exhausted its replay budget, and :class:`ReplicaDown` when no
        live replica remains.
        """
        if self._closed:
            raise RuntimeError("service is not running")
        tenant = self.registry[tenant_id]
        if program != "bfs":
            return await self._submit_program(tenant, program, root, params)
        if params:
            raise ValueError(
                f"bfs queries take no parameters (got {sorted(params)})"
            )
        if root is None:
            raise ValueError("bfs queries require a root")
        root = _checked_root(tenant, root)
        t0 = self._clock()
        trace_id = self._next_trace_id()
        tenant.stats.requests += 1
        if tenant.cache is not None:
            parent = tenant.cache.get(tenant.fingerprint, root)
            if parent is not None:
                return self._respond(
                    tenant, trace_id, root, self._clock() - t0,
                    status="cached", parent=parent,
                )
        if not self.live_replicas:
            tenant.stats.failed += 1
            self._count(tenant_id, "failed")
            raise self._replica_down(tenant_id, trace_id)
        self._check_quota(tenant, trace_id, self.router.depth(tenant_id))
        future = asyncio.get_running_loop().create_future()
        self.router.push(
            tenant_id,
            _Request(
                root=root, future=future, submitted_at=t0, trace_id=trace_id
            ),
        )
        tenant.stats.admitted += 1
        self._gauge_depth(tenant_id)
        self._wake.set()
        return await future

    def _check_quota(self, tenant, trace_id: str, depth: int, **labels) -> None:
        """Shed typed (and metered) when ``depth`` reached the quota."""
        quota = self.router.quota(tenant.tenant_id)
        if depth >= quota:
            tenant.stats.shed += 1
            self._count(tenant.tenant_id, "shed", **labels)
            raise Overloaded(
                depth, quota, tenant=tenant.tenant_id, trace_id=trace_id
            )

    def _respond(
        self, tenant, trace_id: str, root: int, total: float, *,
        program: str = "bfs", status: str = "completed",
        queue: float | None = None, batch: float | None = None,
        traversal: float = 0.0, lanes: int = 0, sim: float = 0.0,
        **payload,
    ) -> TraversalResponse:
        """Account one answered request (``completed`` or ``cached``):
        tenant stats, request counter, staged latencies and timeline;
        returns its response.  ``queue``/``batch`` are observed only for
        batched requests (a program run or cache hit has no such stage)."""
        stats = tenant.stats
        stats.total_latencies.append(total)
        if status == "cached":
            stats.cache_hits += 1
        else:
            stats.completed += 1
            stats.sim_seconds_total += sim
        labels = {} if program == "bfs" else {"program": program}
        self._count(tenant.tenant_id, status, **labels)
        for stage, seconds in (("queue", queue), ("batch", batch)):
            if seconds is not None:
                self._observe(tenant.tenant_id, stage, seconds)
        self._observe(tenant.tenant_id, "total", total)
        self._record_timeline(
            RequestTimeline(
                trace_id=trace_id,
                root=root,
                program=program,
                status=status,
                batch_lanes=lanes,
                queue_seconds=queue or 0.0,
                batch_seconds=batch or 0.0,
                traversal_seconds=traversal,
                total_seconds=total,
            )
        )
        return TraversalResponse(
            root=root,
            trace_id=trace_id,
            tenant=tenant.tenant_id,
            cached=status == "cached",
            batch_lanes=lanes,
            queue_wait=queue or 0.0,
            batch_wait=batch or 0.0,
            traversal_seconds=traversal,
            total_seconds=total,
            sim_seconds=sim,
            program=program,
            **payload,
        )

    # ------------------------------------------------------------------
    # vertex-program serving (single execution, no batching)
    # ------------------------------------------------------------------

    async def _submit_program(
        self, tenant, program: str, root: int | None, params: dict
    ) -> TraversalResponse:
        """Serve one non-BFS program query.

        Single execution on the executor against the tenant's sequential
        engine (multi-source lane batching is visited-bit machinery;
        value programs run whole-graph sweeps), bounded by the tenant's
        quota — queued batch requests and in-flight program runs share
        it.  A crash replays in place up to ``max_replays`` times.
        Default-parameter queries are answered from a bounded
        per-``(tenant, graph, program, root)`` cache; parameterized
        queries always execute.  SSSP programs are served with unit
        weights; the service holds no weight table.
        """
        from repro.core.programs import PROGRAM_REGISTRY, build_program

        spec = PROGRAM_REGISTRY.get(program)
        if spec is None:
            names = ", ".join(sorted(PROGRAM_REGISTRY))
            raise ValueError(
                f"unknown program {program!r} (available: {names})"
            )
        if spec.needs_root != (root is not None):
            need = "requires" if spec.needs_root else "does not take"
            raise ValueError(f"program {program!r} {need} a root")
        run_params = dict(params)
        if spec.needs_root:
            run_params["root"] = root = _checked_root(tenant, root)
        shown_root = -1 if root is None else root

        tid = tenant.tenant_id
        t0 = self._clock()
        trace_id = self._next_trace_id()
        tenant.stats.requests += 1
        key = (tid, tenant.fingerprint, program, shown_root)
        hit = None if params else self._program_cache.get(key)
        if hit is not None:
            self._program_cache.move_to_end(key)
            return self._respond(
                tenant, trace_id, shown_root, self._clock() - t0,
                program=program, status="cached",
                parent=hit["state"].get("parent"), **hit,
            )
        self._check_quota(
            tenant, trace_id,
            self.router.depth(tid) + self._programs_inflight[tid],
            program=program,
        )
        engine = tenant.program_engine()
        loop = asyncio.get_running_loop()
        run_kwargs = self._run_kwargs([trace_id])
        self._programs_inflight[tid] += 1
        self._inflight += 1
        tenant.stats.admitted += 1
        try:
            for attempt in range(self.max_replays + 1):
                prog = build_program(program, engine.part, **run_params)
                t_exec = self._clock()
                try:
                    result = await loop.run_in_executor(
                        None,
                        functools.partial(
                            engine.run_program, prog, **run_kwargs
                        ),
                    )
                    break
                except RankCrashError:
                    self._metrics.counter(
                        "serve_programs", tenant=tid, program=program,
                        outcome="crashed",
                    ).inc()
                    if attempt < self.max_replays:
                        tenant.stats.replays += 1
                        self._metrics.counter(
                            "serve_batch_replays", tenant=tid
                        ).inc()
            else:
                error = TraversalError(
                    f"program {program!r} query failed after "
                    f"{self.max_replays} replays (injected rank crash)",
                    tenant=tid,
                    trace_id=trace_id,
                )
                self._fail_request(
                    _Request(shown_root, None, t0, trace_id), tenant, error,
                    program=program,
                )
                raise error
        finally:
            self._programs_inflight[tid] -= 1
            self._inflight -= 1
        t_done = self._clock()
        payload = {
            "state": result.state,
            "info": result.info,
            "iterations": result.num_iterations,
            "converged": result.converged,
        }
        if not params:
            self._program_cache[key] = payload
            while len(self._program_cache) > _PROGRAM_CACHE_CAPACITY:
                self._program_cache.popitem(last=False)
        tenant.stats.program_runs += 1
        self._observe(tid, "traversal", t_done - t_exec)
        return self._respond(
            tenant, trace_id, shown_root, t_done - t0, program=program,
            traversal=t_done - t_exec, sim=result.total_seconds,
            parent=result.state.get("parent"), **payload,
        )

    # ------------------------------------------------------------------
    # replica loops and batch forming
    # ------------------------------------------------------------------

    async def _replica_loop(self, replica: _Replica) -> None:
        while True:
            if replica.kill_requested and not replica.down:
                self._mark_down(replica)
            if replica.down:
                return
            picked = self.router.next_batch()
            if picked is None:
                if self._closed:
                    return
                self._wake.clear()
                await self._wake.wait()
                continue
            tenant_id, batch = picked
            await self._form_batch(tenant_id, batch)
            await self._execute_batch(replica, tenant_id, batch)

    async def _form_batch(self, tenant_id: str, batch: list) -> None:
        """Grow a just-popped batch in place until ``batch_size`` distinct
        roots are pending or ``batch_window`` has passed since the pop.

        ``popped_at`` is stamped as each request leaves the router, so
        the window is billed to ``stage="batch"``, not ``queue``.
        """
        popped = self._clock()
        for request in batch:
            request.popped_at = popped
        roots = {request.root for request in batch}
        deadline = popped + self.batch_window
        while len(roots) < self.batch_size:
            extra = self.router.pop_extra(tenant_id, 1)
            if extra:
                extra[0].popped_at = self._clock()
                batch.append(extra[0])
                roots.add(extra[0].root)
                continue
            remaining = deadline - self._clock()
            if self._closed or remaining <= 0:
                break
            self._wake.clear()
            try:
                await asyncio.wait_for(self._wake.wait(), timeout=remaining)
            except asyncio.TimeoutError:
                break
        self._gauge_depth(tenant_id)

    def _run_kwargs(self, trace_ids) -> dict:
        run_kwargs = {"faults": self._faults}
        if self._tracer.enabled:
            run_kwargs["span_attrs"] = {
                "trace_id": ",".join(sorted(t for t in trace_ids if t))
            }
        return run_kwargs

    # ------------------------------------------------------------------
    # batch execution
    # ------------------------------------------------------------------

    async def _execute_batch(
        self, replica: _Replica, tenant_id: str, batch: list
    ) -> None:
        tenant = self.registry[tenant_id]
        t_exec = self._clock()
        # Captured before the executor hop: an ingestion may swap the
        # tenant's engine mid-flight; results cache under the
        # generation they were computed on.
        engine = tenant.batched
        fingerprint = tenant.fingerprint
        by_root: dict[int, list[_Request]] = {}
        for request in batch:
            by_root.setdefault(request.root, []).append(request)
        roots = np.array(sorted(by_root), dtype=np.int64)
        loop = asyncio.get_running_loop()
        self._inflight += len(batch)
        try:
            result = await loop.run_in_executor(
                None,
                functools.partial(
                    engine.run_batch,
                    roots,
                    **self._run_kwargs(r.trace_id for r in batch),
                ),
            )
        except RankCrashError:
            # Fail over while another replica is live; on the last one,
            # replay in place.
            self._requeue(
                replica, tenant, batch,
                down=len(self.live_replicas) > 1,
                reason="injected rank crash",
            )
            return
        except Exception as exc:
            self._metrics.counter(
                "serve_batches", tenant=tenant_id, outcome="failed"
            ).inc()
            for request in batch:
                error = TraversalError(
                    f"batch of {len(batch)} requests failed: "
                    f"{type(exc).__name__}: {exc}",
                    tenant=tenant_id,
                    trace_id=request.trace_id,
                )
                error.__cause__ = exc
                self._fail_request(request, tenant, error)
            return
        finally:
            self._inflight -= len(batch)
        if replica.kill_requested and not replica.down:
            # Killed mid-batch: the replica is gone as far as clients
            # are concerned, so its computed results are discarded and
            # the batch re-routed like a crash.
            self._requeue(
                replica, tenant, batch, down=True,
                reason=f"replica {replica.replica_id} killed",
            )
            return
        t_done = self._clock()
        traversal = t_done - t_exec
        replica.batches += 1
        tenant.stats.batches += 1
        tenant.stats.batched_lanes += result.num_lanes
        self._metrics.counter(
            "serve_batches", tenant=tenant_id, outcome="completed"
        ).inc()
        self._metrics.histogram(
            "serve_batch_size", tenant=tenant_id
        ).observe(result.num_lanes)
        self._observe(tenant_id, "traversal", traversal)
        lane_of = {int(r): lane for lane, r in enumerate(result.roots)}
        for root, requests in by_root.items():
            parent = result.lane_parent(lane_of[root])
            if tenant.cache is not None:
                tenant.cache.put(fingerprint, root, parent)
            for request in requests:
                response = self._respond(
                    tenant, request.trace_id, root,
                    t_done - request.submitted_at,
                    queue=request.popped_at - request.submitted_at,
                    batch=t_exec - request.popped_at,
                    traversal=traversal, lanes=result.num_lanes,
                    sim=result.amortized_seconds, parent=parent,
                )
                if not request.future.done():
                    request.future.set_result(response)

    # ------------------------------------------------------------------
    # failover and replay
    # ------------------------------------------------------------------

    def _mark_down(self, replica: _Replica) -> None:
        if replica.down:
            return
        replica.down = True
        replica.kill_requested = False
        self._metrics.counter(
            "serve_failovers", replica=replica.replica_id
        ).inc()
        self._metrics.gauge("serve_replicas_live").set(
            len(self.live_replicas)
        )

    def _requeue(
        self, replica: _Replica, tenant, batch: list, *, down: bool,
        reason: str,
    ) -> None:
        """The one replay path: re-queue a crashed batch at the front of
        its tenant's queue, optionally marking the replica down first.

        Requests keep their submit times and trace ids — latency
        accounting spans the replay.  Requests over the replay budget
        fail typed; with no live replica left everything fails
        :class:`ReplicaDown`.
        """
        tenant_id = tenant.tenant_id
        self._metrics.counter(
            "serve_batches", tenant=tenant_id, outcome="crashed"
        ).inc()
        if down:
            self._mark_down(replica)
        for request in batch:
            request.attempts += 1
        if not self.live_replicas:
            for request in batch:
                self._fail_request(
                    request, tenant,
                    self._replica_down(tenant_id, request.trace_id),
                )
            return
        survivors = []
        for request in batch:
            if request.attempts > self.max_replays:
                self._fail_request(
                    request,
                    tenant,
                    TraversalError(
                        f"batch of {len(batch)} requests failed after "
                        f"{self.max_replays} replays ({reason})",
                        tenant=tenant_id,
                        trace_id=request.trace_id,
                    ),
                )
            else:
                survivors.append(request)
        if survivors:
            tenant.stats.replays += 1
            self._metrics.counter(
                "serve_batch_replays", tenant=tenant_id
            ).inc()
            self.router.push_front(tenant_id, survivors)
            self._gauge_depth(tenant_id)
            self._wake.set()

    def _replica_down(self, tenant_id: str, trace_id: str) -> ReplicaDown:
        return ReplicaDown(
            tenant=tenant_id, trace_id=trace_id, replicas=len(self._replicas)
        )

    def _fail_request(
        self, request: _Request, tenant, error, *, program: str = "bfs"
    ) -> None:
        tenant.stats.failed += 1
        labels = {} if program == "bfs" else {"program": program}
        self._count(tenant.tenant_id, "failed", **labels)
        self._record_timeline(
            RequestTimeline(
                trace_id=request.trace_id,
                root=request.root,
                program=program,
                status="failed",
            )
        )
        if request.future is not None and not request.future.done():
            request.future.set_exception(error)

    # ------------------------------------------------------------------
    # streaming ingestion (per tenant)
    # ------------------------------------------------------------------

    async def ingest_updates(self, tenant_id: str, batches) -> IngestReport:
        """Apply edge-update batches to one tenant's resident graph, live.

        Requires the tenant to carry an
        :class:`~repro.dynamic.repair.IncrementalGraph` over the same
        edge set as its engines.  Each batch is repaired, and the new
        engines built, on the executor — in-flight query batches keep
        running against the old engine — then the engine swap,
        fingerprint bump and cache delta are applied atomically between
        query batches (no awaits once the new engines exist).  The cache
        is *partially* invalidated: only entries whose parent tree
        intersects the delta's touched vertices are evicted; the rest
        are re-keyed to the repaired graph.  Other tenants are
        untouched.

        Ingestions are serialized by an internal lock; queries are not
        blocked by it.
        """
        tenant = self.registry[tenant_id]
        if tenant.dynamic is None:
            raise RuntimeError(
                f"tenant {tenant_id!r} was not built with a dynamic graph "
                "(IncrementalGraph)"
            )
        loop = asyncio.get_running_loop()
        async with self._ingest_lock:
            reports = []
            num_updates = 0
            for batch in batches:
                report = await loop.run_in_executor(
                    None, tenant.dynamic.apply_batch, batch
                )
                reports.append(report)
                num_updates += batch.size
                self._metrics.counter(
                    "serve_ingest_batches", tenant=tenant_id
                ).inc()
                self._metrics.counter(
                    "serve_ingest_updates", tenant=tenant_id
                ).inc(batch.size)
            # graph() compacts pending overlays into the packed arrays.
            part = await loop.run_in_executor(None, tenant.dynamic.graph)
            # The repaired engines are built off the loop, on a staging
            # copy of the tenant (it shares the cache and stats).
            staged = replace(tenant)
            await loop.run_in_executor(None, staged.swap_graph, part)
            touched = (
                np.unique(np.concatenate([r.delta.touched for r in reports]))
                if reports
                else np.array([], dtype=np.int64)
            )
            old_fp = tenant.fingerprint
            # Atomic from here: no awaits between swap and cache delta.
            tenant.batched = staged.batched
            tenant.sequential = staged.sequential
            tenant.fingerprint = staged.fingerprint
            evicted = rekeyed = 0
            if tenant.cache is not None:
                if hasattr(tenant.cache, "apply_delta"):
                    evicted, rekeyed = tenant.cache.apply_delta(
                        old_fp, tenant.fingerprint, touched
                    )
                else:
                    evicted = tenant.cache.invalidate(old_fp)
            return IngestReport(
                tenant=tenant_id,
                reports=reports,
                num_batches=len(reports),
                num_updates=num_updates,
                cache_evicted=evicted,
                cache_rekeyed=rekeyed,
                old_fingerprint=old_fp,
                new_fingerprint=tenant.fingerprint,
            )

    # ------------------------------------------------------------------
    # metrics plumbing
    # ------------------------------------------------------------------

    def _count(self, tenant_id: str, outcome: str, **labels) -> None:
        self._metrics.counter(
            "serve_requests", tenant=tenant_id, outcome=outcome
        ).inc()
        if "program" in labels:
            self._metrics.counter(
                "serve_programs", tenant=tenant_id, outcome=outcome, **labels
            ).inc()

    def _gauge_depth(self, tenant_id: str) -> None:
        self._metrics.gauge("serve_queue_depth", tenant=tenant_id).set(
            self.router.depth(tenant_id)
        )

    def _observe(self, tenant_id: str, stage: str, seconds: float) -> None:
        self._metrics.histogram(
            "serve_latency_seconds",
            buckets=LATENCY_BUCKETS,
            tenant=tenant_id,
            stage=stage,
        ).observe(max(seconds, 0.0))


def _checked_root(tenant, root) -> int:
    root = int(root)
    if not 0 <= root < tenant.num_vertices:
        raise ValueError(
            f"root {root} out of range for tenant {tenant.tenant_id!r}"
        )
    return root


class TraversalService(ClusterService):
    """Batched serving over one graph: a one-tenant, one-replica
    :class:`ClusterService` whose tenant quota is ``queue_depth``."""

    def __init__(
        self,
        engine,
        *,
        cache=_DEFAULT_CACHE,
        queue_depth: int = 256,
        batch_size: int = 64,
        batch_window: float = 0.002,
        max_replays: int = 2,
        faults=None,
        metrics=NULL_METRICS,
        tracer=NULL_TRACER,
        clock=time.monotonic,
        timeline_capacity: int = 1024,
        dynamic=None,
    ) -> None:
        from repro.cluster.tenants import Tenant, TenantRegistry, TenantSpec

        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        self.queue_depth = int(queue_depth)
        self._tenant = Tenant(
            spec=TenantSpec(DEFAULT_TENANT, quota=self.queue_depth),
            batched=engine,
            cache=(
                ResultCache(metrics=metrics)
                if cache is _DEFAULT_CACHE
                else cache
            ),
            fingerprint=fingerprint_graph(engine.part),
            dynamic=dynamic,
        )
        self._cache = self._tenant.cache
        super().__init__(
            TenantRegistry([self._tenant]),
            replicas=1,
            batch_size=batch_size,
            batch_window=batch_window,
            max_replays=max_replays,
            faults=faults,
            metrics=metrics,
            tracer=tracer,
            clock=clock,
            timeline_capacity=timeline_capacity,
        )

    @property
    def engine(self):
        return self._tenant.batched

    @property
    def graph_fingerprint(self) -> str:
        return self._tenant.fingerprint

    @property
    def dynamic(self):
        """The attached :class:`~repro.dynamic.repair.IncrementalGraph`
        (``None`` for statically served graphs)."""
        return self._tenant.dynamic

    async def submit(
        self, root: int | None = None, *, program: str = "bfs", **params
    ) -> TraversalResponse:
        """Serve one query on the graph (see :meth:`ClusterService.submit`)."""
        return await super().submit(
            DEFAULT_TENANT, root, program=program, **params
        )

    async def ingest_updates(self, batches) -> IngestReport:
        """Apply edge-update batches to the served graph, live (see
        :meth:`ClusterService.ingest_updates`)."""
        return await super().ingest_updates(DEFAULT_TENANT, batches)

    def reload_graph(self, engine) -> None:
        """Swap the served graph; cached results of the old generation
        are invalidated (the fingerprint changes with the graph)."""
        tenant = self._tenant
        old = tenant.fingerprint
        tenant.batched = engine
        tenant.sequential = None
        tenant.fingerprint = fingerprint_graph(engine.part)
        if tenant.cache is not None:
            tenant.cache.invalidate(old)
