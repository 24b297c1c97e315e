"""repro.cluster — sharded multi-tenant serving with SLOs and failover.

The "millions of users" leg of the roadmap: M resident tenant graphs
(:mod:`~repro.cluster.tenants`) served by N replicas behind a
weighted-fair deficit-round-robin router (:mod:`~repro.cluster.router`),
with per-tenant admission quotas, per-tenant SLO burn-rate monitoring,
typed shed/fail/failover surfaces, and bit-identical re-routing of a
down replica's in-flight batches.  The service itself is the one serving
core in :mod:`repro.serve.service` (re-exported by
:mod:`~repro.cluster.service`); a single graph is one tenant on one
replica.  Open-loop diurnal workloads drive it
(:func:`~repro.serve.workload.run_cluster_workload`).
"""

from repro.serve.workload import run_cluster_workload

from .router import ClusterRouter, QueueFull
from .service import ClusterService, IngestReport, ReplicaDown
from .tenants import (
    SLO_CLASSES,
    Tenant,
    TenantRegistry,
    TenantSpec,
    build_registry,
    build_tenant,
    parse_tenant_spec,
)

__all__ = [
    "SLO_CLASSES",
    "ClusterRouter",
    "ClusterService",
    "IngestReport",
    "QueueFull",
    "ReplicaDown",
    "Tenant",
    "TenantRegistry",
    "TenantSpec",
    "build_registry",
    "build_tenant",
    "parse_tenant_spec",
    "run_cluster_workload",
]
