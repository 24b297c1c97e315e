"""The multi-tenant service names, re-exported from the one serving core.

:class:`ClusterService` — M tenant graphs served by N replicas behind the
weighted-fair :class:`~repro.cluster.router.ClusterRouter`, with typed
shedding, failover and per-tenant SLOs — is implemented in
:mod:`repro.serve.service`; a single-graph
:class:`~repro.serve.service.TraversalService` is the same class with one
tenant on one replica.
"""

from repro.serve.service import ClusterService, IngestReport, ReplicaDown

__all__ = ["ClusterService", "IngestReport", "ReplicaDown"]
