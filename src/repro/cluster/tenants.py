"""Tenants: resident graphs with their own caches, quotas, and SLOs.

A *tenant* is one resident graph behind the cluster serving plane: its
own partition, its own sequential + batched engine pair, its own
:class:`~repro.serve.cache.ResultCache` and graph fingerprint, its own
admission quota and fair-share weight, and (optionally) its own
:class:`~repro.dynamic.repair.IncrementalGraph` for streaming ingest.
Tenants never share lanes: an MSBFS batch is packed from exactly one
tenant's queue, so a lane word always refers to one graph.

Service classes bundle the per-tenant serving policy.  The defaults —
``gold`` / ``silver`` / ``bronze`` — trade admission quota and
scheduler weight against latency objectives:

=========  ======  =====  ==========================================
class      weight  quota  default SLO
=========  ======  =====  ==========================================
gold       4       96     99% of totals under 250 ms
silver     2       64     99% of totals under 500 ms
bronze     1       32     95% of totals under 1 s
=========  ======  =====  ==========================================

The :class:`TenantRegistry` holds the resident set and is the single
source of truth the router and replicas read tenants from.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.obs.slo import SLOSpec
from repro.serve.cache import ResultCache, fingerprint_graph
from repro.serve.service import ServeStats

__all__ = [
    "SLO_CLASSES",
    "TenantSpec",
    "Tenant",
    "TenantRegistry",
    "parse_tenant_spec",
    "build_registry",
]

#: Service classes: scheduler weight, admission quota, latency SLOs.
SLO_CLASSES: dict[str, dict] = {
    "gold": dict(
        weight=4,
        quota=96,
        slos=(SLOSpec(stage="total", threshold_seconds=0.25, objective=0.99),),
    ),
    "silver": dict(
        weight=2,
        quota=64,
        slos=(SLOSpec(stage="total", threshold_seconds=0.5, objective=0.99),),
    ),
    "bronze": dict(
        weight=1,
        quota=32,
        slos=(SLOSpec(stage="total", threshold_seconds=1.0, objective=0.95),),
    ),
}

#: Class assigned to tenants that don't name one.
DEFAULT_CLASS = "silver"


@dataclass(frozen=True)
class TenantSpec:
    """Declarative description of one tenant."""

    tenant_id: str
    #: Graph500 SCALE of the tenant's resident R-MAT graph.
    scale: int = 9
    rows: int = 2
    cols: int = 2
    #: Graph generation seed (different seeds -> different graphs).
    seed: int = 1
    #: Service class key into :data:`SLO_CLASSES`.
    slo_class: str = DEFAULT_CLASS
    #: Deficit-round-robin weight (None -> the class default).
    weight: int | None = None
    #: Admission quota: max queued requests before typed shedding
    #: (None -> the class default).
    quota: int | None = None
    #: Latency objectives (None -> the class defaults).
    slos: tuple | None = None
    e_threshold: int | None = None
    h_threshold: int | None = None
    cache_capacity: int = 1024

    def __post_init__(self) -> None:
        if not self.tenant_id:
            raise ValueError("tenant_id must be non-empty")
        if self.slo_class not in SLO_CLASSES:
            raise ValueError(
                f"unknown SLO class {self.slo_class!r} "
                f"(known: {', '.join(sorted(SLO_CLASSES))})"
            )
        if self.weight is not None and self.weight < 1:
            raise ValueError("weight must be >= 1")
        if self.quota is not None and self.quota < 1:
            raise ValueError("quota must be >= 1")

    @property
    def resolved_weight(self) -> int:
        if self.weight is not None:
            return int(self.weight)
        return int(SLO_CLASSES[self.slo_class]["weight"])

    @property
    def resolved_quota(self) -> int:
        if self.quota is not None:
            return int(self.quota)
        return int(SLO_CLASSES[self.slo_class]["quota"])

    @property
    def resolved_slos(self) -> tuple:
        if self.slos is not None:
            return tuple(self.slos)
        return tuple(SLO_CLASSES[self.slo_class]["slos"])


@dataclass
class Tenant:
    """One resident graph and its serving state.

    ``batched`` is the MSBFS engine replicas run query batches on;
    ``sequential`` is the single-root engine (validation, program
    serving), built over the same partition on first use by
    :meth:`program_engine` when not supplied.  Both views share the
    partition, so the fingerprint keys both the cache and result
    attribution.
    """

    spec: TenantSpec
    sequential: object = field(repr=False, default=None)
    batched: object = field(repr=False, default=None)
    cache: ResultCache | None = field(repr=False, default=None)
    fingerprint: str = ""
    #: Optional streaming-ingest wrapper over the same edge set.
    dynamic: object = field(repr=False, default=None)
    #: Per-tenant service-lifetime counters.
    stats: ServeStats = field(default_factory=ServeStats, repr=False)

    @property
    def tenant_id(self) -> str:
        return self.spec.tenant_id

    @property
    def num_vertices(self) -> int:
        return int(self.batched.num_vertices)

    @property
    def degrees(self):
        return self.batched.part.degrees

    def _engine_kwargs(self) -> dict:
        """Machine/config/sinks of the batched engine, so a
        rebuilt or derived engine prices and reports the same way."""
        src = self.batched
        return dict(
            machine=getattr(src, "machine", None),
            config=src.config,
            tracer=getattr(src, "tracer", None),
            metrics=getattr(src, "metrics", None),
        )

    def program_engine(self):
        """The sequential engine, built over the served partition on
        first use (a tenant that never runs a program never builds it)."""
        if self.sequential is None:
            from repro.core.engine import DistributedBFS

            self.sequential = DistributedBFS(
                self.batched.part, **self._engine_kwargs()
            )
        return self.sequential

    def swap_graph(self, part) -> None:
        """Rebuild the engines over a repaired partition (streaming
        ingest); the fingerprint moves with the graph.  A sequential
        engine is rebuilt only if the tenant already had one."""
        from repro.core.engine import DistributedBFS
        from repro.serve.msbfs import MultiSourceBFS

        kwargs = self._engine_kwargs()
        self.batched = MultiSourceBFS(part, **kwargs)
        if self.sequential is not None:
            self.sequential = DistributedBFS(part, **kwargs)
        self.fingerprint = fingerprint_graph(part)


class TenantRegistry:
    """The resident tenant set, iteration-ordered by registration."""

    def __init__(self, tenants=()) -> None:
        self._tenants: dict[str, Tenant] = {}
        for tenant in tenants:
            self.add(tenant)

    def add(self, tenant: Tenant) -> Tenant:
        if tenant.tenant_id in self._tenants:
            raise ValueError(f"duplicate tenant id {tenant.tenant_id!r}")
        self._tenants[tenant.tenant_id] = tenant
        return tenant

    def __len__(self) -> int:
        return len(self._tenants)

    def __iter__(self):
        return iter(self._tenants.values())

    def __contains__(self, tenant_id: str) -> bool:
        return tenant_id in self._tenants

    def __getitem__(self, tenant_id: str) -> Tenant:
        tenant = self._tenants.get(tenant_id)
        if tenant is None:
            known = ", ".join(self._tenants) or "<none>"
            raise KeyError(
                f"unknown tenant {tenant_id!r} (resident: {known})"
            )
        return tenant

    @property
    def tenant_ids(self) -> list[str]:
        return list(self._tenants)

    def degrees_map(self) -> dict:
        """Tenant id -> degree vector (the diurnal generator's input)."""
        return {tid: t.degrees for tid, t in self._tenants.items()}


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------


def build_tenant(spec: TenantSpec, *, dynamic: bool = False,
                 tracer=None, metrics=None) -> Tenant:
    """Build one tenant's engines and cache from its spec.

    ``dynamic=True`` additionally wraps the tenant's edge set in an
    :class:`~repro.dynamic.repair.IncrementalGraph` so update batches
    can be ingested while the tenant serves.  ``tracer``/``metrics``
    (optional) attach to the batched engine and the cache.
    """
    from repro.obs.metrics import NULL_METRICS
    from repro.serve.bench import build_serving_pair

    sequential, batched = build_serving_pair(
        spec.scale, spec.rows, spec.cols,
        seed=spec.seed,
        e_threshold=spec.e_threshold, h_threshold=spec.h_threshold,
        tracer=tracer, metrics=metrics,
    )
    tenant = Tenant(
        spec=spec,
        sequential=sequential,
        batched=batched,
        cache=ResultCache(
            capacity=spec.cache_capacity,
            metrics=NULL_METRICS if metrics is None else metrics,
        ),
        fingerprint=fingerprint_graph(batched.part),
    )
    if dynamic:
        from repro.analysis.experiments import tuned_thresholds
        from repro.dynamic.repair import IncrementalGraph
        from repro.graph500.rmat import generate_edges
        from repro.runtime.mesh import ProcessMesh

        e_thr, h_thr = spec.e_threshold, spec.h_threshold
        if e_thr is None or h_thr is None:
            e_thr, h_thr = tuned_thresholds(spec.scale)
        src, dst = generate_edges(spec.scale, seed=spec.seed)
        tenant.dynamic = IncrementalGraph(
            src, dst, 1 << spec.scale,
            ProcessMesh(spec.rows, spec.cols),
            e_threshold=e_thr, h_threshold=h_thr,
        )
    return tenant


def build_registry(specs, *, dynamic: bool = False,
                   tracer=None, metrics=None) -> TenantRegistry:
    """Build a registry of tenants from an iterable of specs."""
    return TenantRegistry(
        build_tenant(spec, dynamic=dynamic, tracer=tracer, metrics=metrics)
        for spec in specs
    )


# ----------------------------------------------------------------------
# CLI spec grammar
# ----------------------------------------------------------------------


def parse_tenant_spec(value: str, *, scale: int = 9, rows: int = 2,
                      cols: int = 2, seed: int = 1) -> list[TenantSpec]:
    """Parse the CLI ``--tenants`` grammar into specs.

    Either a bare count (``3`` — tenants ``t0..tN-1`` cycling through
    gold/silver/bronze) or a comma list of ``name:class`` pairs
    (``search:gold,feed:silver,batch:bronze``).  Each tenant's graph is
    seeded ``seed + index`` so resident graphs differ.
    """
    value = value.strip()
    if not value:
        raise ValueError("tenants spec must be non-empty")
    classes = list(SLO_CLASSES)
    base = TenantSpec(
        tenant_id="_", scale=scale, rows=rows, cols=cols, seed=seed
    )
    try:
        count = int(value)
    except ValueError:
        count = None
    if count is not None:
        # Numeric input is always the count form — "0" must fail as an
        # invalid count, not sneak through as a tenant named "0".
        if count < 1:
            raise ValueError(f"tenant count must be >= 1, got {count}")
        return [
            replace(
                base,
                tenant_id=f"t{i}",
                seed=seed + i,
                slo_class=classes[i % len(classes)],
            )
            for i in range(count)
        ]
    specs = []
    for i, token in enumerate(value.split(",")):
        token = token.strip()
        if not token:
            raise ValueError(f"empty tenant entry in {value!r}")
        name, sep, cls = token.partition(":")
        if not name:
            raise ValueError(f"tenant entry {token!r} has an empty name")
        cls = cls.strip() if sep else DEFAULT_CLASS
        if cls not in SLO_CLASSES:
            raise ValueError(
                f"unknown SLO class {cls!r} in {token!r} "
                f"(known: {', '.join(sorted(SLO_CLASSES))})"
            )
        specs.append(
            replace(base, tenant_id=name.strip(), seed=seed + i, slo_class=cls)
        )
    if len({s.tenant_id for s in specs}) != len(specs):
        raise ValueError(f"duplicate tenant names in {value!r}")
    return specs
