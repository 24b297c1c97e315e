"""Per-layer timing for the traced run.

The traced run wraps public functions and methods of the program in
timers for the duration of one ``with Timers(...)`` block, and passes a
:class:`repro.obs.tracer.Tracer` through the public ``tracer=`` arguments.
Both give wall-clock intervals on the same ``perf_counter`` clock;
:func:`stats.self_times` merges them into one nesting tree per thread.
Nothing here runs in the untraced run, which produces the end-to-end
numbers.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict

import numpy as np

from repro.core.subgraphs import COMPONENT_ORDER
from stats import Interval


class Timers:
    """Patch ``(owner, attribute)`` pairs with timing wrappers.

    ``targets`` maps a layer name to a list of ``(owner, attribute)``;
    every call records an :class:`Interval` on the calling thread.
    ``on_result`` maps a layer name to a callback fed each return value.
    """

    def __init__(self, targets: dict, on_result: dict | None = None) -> None:
        self.targets = targets
        self.on_result = on_result or {}
        self.main_thread = threading.get_ident()
        self._by_thread: dict[int, list] = defaultdict(list)
        self._saved: list = []

    def _wrap(self, name: str, fn):
        record = self._by_thread
        callback = self.on_result.get(name)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[threading.get_ident()].append(
                    Interval(name, t0, time.perf_counter())
                )
            if callback is not None:
                callback(out)
            return out

        return timed

    def __enter__(self) -> "Timers":
        for name, pairs in self.targets.items():
            for owner, attr in pairs:
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def intervals(self, *, main: bool) -> list:
        """Intervals from the main thread, or from every other thread."""
        out = []
        for tid, items in list(self._by_thread.items()):
            if (tid == self.main_thread) == main:
                out.extend(items)
        return out

    def per_thread(self) -> list:
        """One interval list per recording thread."""
        return [list(items) for items in list(self._by_thread.values())]

    def calls(self, name: str, spans=None) -> list:
        """Calls of one layer, optionally only those inside ``spans``."""
        out = [iv for items in list(self._by_thread.values()) for iv in items if iv.name == name]
        return out if spans is None else within(out, spans)


def within(intervals, spans) -> list:
    """The intervals that start inside one of the ``(start, end)`` spans."""
    return [iv for iv in intervals if any(a <= iv.start <= b for a, b in spans)]


def overhead(plain, traced, passes: int = 3) -> float:
    """Traced over untraced wall time of the same work.

    ``plain`` and ``traced`` each run the work once when called.  Both
    run once to warm up, then ``passes`` times each, alternating, so a
    change in host speed falls on both sides; the ratio is of the
    medians.
    """
    plain_s, traced_s = [], []
    for i in range(passes + 1):
        t0 = time.perf_counter()
        plain()
        t1 = time.perf_counter()
        traced()
        t2 = time.perf_counter()
        if i:
            plain_s.append(t1 - t0)
            traced_s.append(t2 - t1)
    return float(np.median(traced_s) / np.median(plain_s))


def engine_targets() -> dict:
    """The bookkeeping layers under the kernels, shared by both engines."""
    from repro.core.direction import ClassState
    from repro.core.lanes import LaneClassState
    from repro.machine.costmodel import CostModel, NodeKernelRates
    from repro.runtime.ledger import TrafficLedger
    from repro.runtime.mesh import ProcessMesh

    return {
        "core.direction.measure": [(ClassState, "measure")],
        "core.lanes.measure": [(LaneClassState, "measure")],
        "runtime.ledger.charge": [
            (TrafficLedger, "charge_collective"),
            (TrafficLedger, "charge_wait"),
            (TrafficLedger, "charge_compute"),
        ],
        "machine.costmodel": [
            (CostModel, "collective_time"),
            (NodeKernelRates, "kernel_time"),
        ],
        "runtime.mesh.lookup": [
            (ProcessMesh, "owner_of"),
            (ProcessMesh, "coords"),
            (ProcessMesh, "row_of"),
            (ProcessMesh, "col_of"),
        ],
    }


def partition_targets() -> dict:
    import repro.core.partition as partition
    from repro.core.subgraphs import SubgraphComponent

    return {
        "core.partition.classify": [(partition, "classify_vertices")],
        "core.partition.place_arcs": [(partition, "place_arcs")],
        "core.subgraphs.build": [(SubgraphComponent, "__init__")],
    }


def tracer_intervals(tracer) -> list:
    """The tracer's scheduler and component spans as named intervals.

    ``bfs``/``msbfs`` and ``iteration``/``wave`` spans are the scheduler;
    a ``component`` span is one kernel body in one direction.  Zero-width
    ledger charge leaves carry no wall time and are skipped.
    """
    out = []
    for sp in tracer.spans:
        if sp.wall_end is None:
            continue
        if sp.category == "component":
            name = f"core.kernels.{sp.name}.{sp.attrs.get('direction')}"
        elif sp.category in ("bfs", "iteration"):
            name = "core.scheduler"
        else:
            continue
        out.append(Interval(name, sp.wall_start, sp.wall_end))
    return out


def kernel_counts(tracer) -> tuple[float, float]:
    """Arcs scanned and vertices activated over every component span."""
    scanned = activated = 0.0
    for sp in tracer.spans:
        if sp.category == "component":
            scanned += sp.counters.get("edges", 0.0)
            activated += sp.counters.get("activated", 0.0)
    return scanned, activated


def engine_layer_metrics(selfs: dict, timers: Timers, tracer, per: int, spans) -> dict:
    """Kernel and bookkeeping metrics, in ms per root (or per batch).

    ``selfs`` are self times over the traversal windows ``spans`` only,
    so set-up work (the partition build also asks the mesh for owners)
    does not count.
    """
    per = max(per, 1)
    out = {}
    for comp in COMPONENT_ORDER:
        for direction in ("push", "pull"):
            key = f"core.kernels.{comp}.{direction}"
            out[f"{key}_ms"] = 1e3 * selfs.get(key, 0.0) / per
    scanned, activated = kernel_counts(tracer)
    out["core.kernels.edges_scanned"] = scanned / per
    out["core.kernels.activated"] = activated / per
    out["core.kernels.useful_ratio"] = activated / scanned if scanned else 0.0
    for name in (
        "core.direction.measure",
        "core.lanes.measure",
        "runtime.ledger.charge",
        "machine.costmodel",
        "runtime.mesh.lookup",
        "core.scheduler",
    ):
        key = "core.scheduler.self_ms" if name == "core.scheduler" else f"{name}_ms"
        out[key] = 1e3 * selfs.get(name, 0.0) / per
    out["runtime.ledger.charges"] = len(timers.calls("runtime.ledger.charge", spans)) / per
    out["runtime.mesh.lookups"] = len(timers.calls("runtime.mesh.lookup", spans)) / per
    return out
