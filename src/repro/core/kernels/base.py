"""The :class:`ComponentKernel` contract and the kernel registry.

A component kernel owns everything one edge component does inside a BFS
iteration: selecting its direction-specific access path (push CSR or
pull groups), pricing its compute at the right kernel rate, routing and
charging its remote messages, and returning the vertices it activated.
The :class:`~repro.core.kernels.scheduler.LevelSyncScheduler` never
looks inside — it only asks ``execute(...)`` in densest-first order and
commits the returned activations, which is what keeps every engine's
frontier/visited/parent semantics identical.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.core.metrics import IterationRecord
from repro.runtime.ledger import TrafficLedger

__all__ = [
    "ComponentKernel",
    "KernelRegistry",
    "EMPTY_ACTIVATION",
]

#: The (newly, parents) pair of a sub-iteration that activated nothing.
EMPTY_ACTIVATION: tuple[np.ndarray, np.ndarray] = (
    np.array([], dtype=np.int64),
    np.array([], dtype=np.int64),
)


class ComponentKernel(ABC):
    """Push/pull execution of one edge component.

    Subclasses fix ``name`` (the component key, e.g. ``"EH2EH"``) and
    implement :meth:`execute`.  A kernel is mounted on exactly one
    scheduler run-loop; it may keep per-engine context (rates, mesh
    splits, per-rank state) but must not own any iteration loop — that
    is the scheduler's.
    """

    #: Component key this kernel executes (set per instance or subclass).
    name: str

    @property
    @abstractmethod
    def num_arcs(self) -> int:
        """Arcs stored in this kernel's component; 0 means the scheduler
        skips the sub-iteration entirely (recorded as direction ``"-"``)."""

    @abstractmethod
    def execute(
        self,
        direction: str,
        active: np.ndarray,
        visited: np.ndarray,
        ledger: TrafficLedger,
        record: IterationRecord,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Run one sub-iteration in ``direction`` (``"push"``/``"pull"``).

        Reads the frontier (``active``) and ``visited`` masks, charges
        every kernel and collective the component would run to
        ``ledger``, fills ``record``'s per-component counters
        (``scanned_arcs``, ``messages``), and returns ``(newly,
        parents)`` — the destinations activated this sub-iteration and
        the parent chosen for each.  The scheduler commits them (parent,
        visited, next frontier), so later sub-iterations of the same
        iteration see the fresh state (§4.2's freshness rule).
        """

    def execute_lanes(
        self,
        direction: str,
        group_lanes,
        lanes,
        ledger: TrafficLedger,
        record: IterationRecord,
    ) -> list:
        """Run one sub-iteration for the lane group ``group_lanes`` of a
        batched (multi-source) wave.

        ``lanes`` is a :class:`~repro.core.lanes.LaneState`;
        ``group_lanes`` is the uint64 lane-bit mask of the lanes that
        chose ``direction`` this wave (lanes are grouped by direction so
        each lane's parents stay bit-identical to its sequential run).
        Charges the *shared* batched cost to ``ledger`` and returns a
        list of ``(lane, dsts, parents)`` activation triples, which the
        scheduler commits through ``LaneState.commit``.

        Kernels that cannot execute batched waves leave this
        unimplemented; the batch scheduler refuses to mount them.
        """
        raise NotImplementedError(
            f"kernel {type(self).__name__} does not support lane batching"
        )

    @property
    def supports_lanes(self) -> bool:
        """Whether :meth:`execute_lanes` is implemented."""
        return type(self).execute_lanes is not ComponentKernel.execute_lanes

    def execute_program(
        self,
        program,
        direction: str,
        active: np.ndarray,
        ledger: TrafficLedger,
        record: IterationRecord,
    ) -> np.ndarray:
        """Run one vertex-program sub-iteration in ``direction``.

        Selects this component's arcs for the frontier (push: arcs whose
        source is active; pull: the full runs of the program's candidate
        destinations, filtered to active sources — no early exit, since
        value combines must see every active in-neighbour), charges the
        same kernels and collectives a BFS sub-iteration would at the
        program's ``message_bytes``, then hands the arcs to
        ``program.edge_sweep`` for gather → combine → apply.  Returns the
        vertex IDs the program activated; the scheduler accumulates them
        into the iteration's touched set.  State lives in the program, so
        the kernel stays algorithm-agnostic.

        Kernels that cannot execute programs leave this unimplemented;
        ``LevelSyncScheduler.run_program`` refuses to mount them.
        """
        raise NotImplementedError(
            f"kernel {type(self).__name__} does not support vertex programs"
        )

    @property
    def supports_programs(self) -> bool:
        """Whether :meth:`execute_program` is implemented."""
        return (
            type(self).execute_program is not ComponentKernel.execute_program
        )


class KernelRegistry:
    """Component name -> :class:`ComponentKernel` subclass.

    Engines mount a kernel set by instantiating a registry's classes
    over their components; new components (or replacement kernels for
    existing ones) register under their component key.
    """

    def __init__(self) -> None:
        self._classes: dict[str, type[ComponentKernel]] = {}

    def register(self, name: str):
        """Class decorator: ``@registry.register("H2L")``."""

        def wrap(cls: type[ComponentKernel]) -> type[ComponentKernel]:
            if name in self._classes:
                raise ValueError(f"kernel already registered for {name!r}")
            cls.name = name
            self._classes[name] = cls
            return cls

        return wrap

    def __getitem__(self, name: str) -> type[ComponentKernel]:
        return self._classes[name]

    def __contains__(self, name: str) -> bool:
        return name in self._classes

    def names(self) -> tuple[str, ...]:
        return tuple(self._classes)
