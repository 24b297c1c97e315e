"""The component-kernel layer: per-component traversal kernels behind a
shared level-synchronous scheduler.

The paper's six edge components (EH2EH, E2L, L2E, H2L, L2H, L2L) each
carry their own kernel, direction policy, and message routing (§4.2–§4.4).
This package makes that structure first-class:

- :mod:`repro.core.kernels.base` — the :class:`ComponentKernel` contract
  (one object per component: push/pull execution, compute-rate selection,
  message routing, ledger charging).
- :mod:`repro.core.kernels.fifteend` — the six 1.5D kernels and the
  shared :class:`FifteenDContext` they charge through, keyed by
  component name in :data:`FIFTEEND_KERNELS`.
- :mod:`repro.core.kernels.scheduler` — :class:`LevelSyncScheduler`, the
  one densest-first sub-iteration loop every engine runs through
  (``DistributedBFS``, ``ReplayBFS``, and the 1D/2D baselines), and the
  :class:`SchedulerHost` hook surface engines implement.

Adding an engine means mounting a kernel set on the scheduler; adding a
partitioning scheme means writing kernels — the loop, the frontier
semantics, and the tracing shape are shared.
"""

from repro.core.kernels.base import ComponentKernel
from repro.core.kernels.fifteend import (
    FIFTEEND_KERNELS,
    FifteenDContext,
    build_fifteend_kernels,
)
from repro.core.kernels.scheduler import LevelSyncScheduler, SchedulerHost

__all__ = [
    "ComponentKernel",
    "FifteenDContext",
    "FIFTEEND_KERNELS",
    "build_fifteend_kernels",
    "LevelSyncScheduler",
    "SchedulerHost",
]
