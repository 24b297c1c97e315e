"""Span-based tracer for the simulated runtime.

A :class:`Tracer` records a tree of :class:`Span` objects, each carrying
two clocks:

- **simulated time** — the modeled seconds of the machine, advanced only
  by :meth:`Tracer.charge` (the ledger calls it once per priced kernel or
  collective).  This is the clock the paper's evaluation figures run on:
  the per-subgraph breakdown of Fig. 10 and the per-communication-type
  breakdown of Fig. 11 are span aggregations over it.
- **wall-clock time** — the host's ``perf_counter``, for profiling the
  simulator itself.

Spans nest through an explicit stack: ``with tracer.span(...)`` opens a
child of the innermost open span, and every :meth:`Tracer.charge` leaf
lands under it.  Because the simulated clock only moves forward while a
span is open, simulated timestamps nest monotonically — parents always
contain their children — which is what lets the Chrome ``trace_event``
exporter (:mod:`repro.obs.export`) lay the run out on a single track.

Counters (``bytes``, ``messages``, ``edges``, ...) attach to exactly one
span each, so summing a counter over all spans never double-counts: a
traced BFS run's ``bytes`` total equals the
:class:`~repro.runtime.ledger.TrafficLedger`'s ``total_bytes`` exactly.
Subtree (inclusive) totals are an exporter concern.

The default everywhere is the :data:`NULL_TRACER` singleton, whose every
method is a no-op: an untraced run allocates no spans and follows the
exact same code paths, so results are bit-identical with tracing off.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER"]


@dataclass
class Span:
    """One traced region: a node in the span tree.

    ``attrs`` are descriptive labels (direction, iteration index, root);
    ``counters`` are summable quantities (bytes, messages, edges, items).
    """

    sid: int
    parent: int | None
    name: str
    category: str
    depth: int
    sim_start: float
    wall_start: float
    sim_end: float | None = None
    wall_end: float | None = None
    attrs: dict = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)

    @property
    def closed(self) -> bool:
        return self.sim_end is not None

    @property
    def sim_seconds(self) -> float:
        """Inclusive simulated duration (0.0 while still open)."""
        return (self.sim_end - self.sim_start) if self.closed else 0.0

    @property
    def wall_seconds(self) -> float:
        return (self.wall_end - self.wall_start) if self.wall_end is not None else 0.0

    def add_counter(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + float(value)


class Tracer:
    """Records nested spans against the simulated and wall clocks."""

    enabled = True

    def __init__(self, *, wall_clock: Callable[[], float] = time.perf_counter):
        self._wall = wall_clock
        self._sim_now = 0.0
        self._stack: list[Span] = []
        #: All spans in open order; closed in place.
        self.spans: list[Span] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    @property
    def sim_now(self) -> float:
        """Current simulated time (sum of all charges so far)."""
        return self._sim_now

    @property
    def current(self) -> Span | None:
        """The innermost open span, or ``None`` at top level."""
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str, category: str = "span", **attrs) -> Iterator[Span]:
        """Open a nested span; closes (stamping both clocks) on exit.

        Keep ``name`` stable across repetitions (e.g. ``"iteration"``,
        not ``"iteration 3"``) and put the varying part in ``attrs`` —
        aggregating exporters group by the name path.
        """
        parent = self._stack[-1].sid if self._stack else None
        sp = Span(
            sid=len(self.spans),
            parent=parent,
            name=name,
            category=category,
            depth=len(self._stack),
            sim_start=self._sim_now,
            wall_start=self._wall(),
            attrs=dict(attrs),
        )
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            self._stack.pop()
            sp.sim_end = self._sim_now
            sp.wall_end = self._wall()

    def charge(
        self,
        name: str,
        *,
        category: str = "charge",
        sim_seconds: float = 0.0,
        counters: dict[str, float] | None = None,
        **attrs,
    ) -> Span:
        """Record a leaf span and advance the simulated clock by
        ``sim_seconds``.

        This is the only way simulated time moves; the ledger calls it
        once per priced event, so the simulated timeline is exactly the
        sequence of charges.
        """
        if sim_seconds < 0:
            raise ValueError("sim_seconds must be nonnegative")
        wall = self._wall()
        start = self._sim_now
        self._sim_now = start + sim_seconds
        sp = Span(
            sid=len(self.spans),
            parent=self._stack[-1].sid if self._stack else None,
            name=name,
            category=category,
            depth=len(self._stack),
            sim_start=start,
            wall_start=wall,
            sim_end=self._sim_now,
            wall_end=wall,
            attrs=dict(attrs),
            counters={k: float(v) for k, v in (counters or {}).items()},
        )
        self.spans.append(sp)
        return sp

    def add_counter(self, key: str, value: float) -> None:
        """Add to the innermost open span (dropped when none is open)."""
        if self._stack:
            self._stack[-1].add_counter(key, value)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def counter_total(self, key: str) -> float:
        """Sum one counter over all spans (each value recorded once)."""
        return float(sum(sp.counters.get(key, 0.0) for sp in self.spans))

    def children_of(self, span: Span) -> list[Span]:
        return [sp for sp in self.spans if sp.parent == span.sid]

    def roots(self) -> list[Span]:
        return [sp for sp in self.spans if sp.parent is None]

    def find(self, *, category: str | None = None, name: str | None = None) -> list[Span]:
        """Spans matching a category and/or name, in open order."""
        return [
            sp
            for sp in self.spans
            if (category is None or sp.category == category)
            and (name is None or sp.name == name)
        ]


class _NullSpanContext:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return _NULL_SPAN

    def __exit__(self, *exc) -> bool:
        return False


class _NullSpan:
    """Inert span: attribute/counter writes vanish."""

    __slots__ = ()

    sid = -1
    parent = None
    name = ""
    category = "null"
    depth = 0
    sim_start = 0.0
    sim_end = 0.0
    wall_start = 0.0
    wall_end = 0.0
    closed = True
    sim_seconds = 0.0
    wall_seconds = 0.0

    @property
    def attrs(self) -> dict:
        return {}

    @property
    def counters(self) -> dict:
        return {}

    def add_counter(self, key: str, value: float) -> None:
        pass


_NULL_SPAN = _NullSpan()
_NULL_CTX = _NullSpanContext()


class NullTracer:
    """Zero-overhead tracer: every method is a no-op.

    The default for every traced component, so untraced runs take the
    same code paths with no span allocation and produce bit-identical
    results.
    """

    enabled = False
    spans: tuple = ()
    sim_now = 0.0
    current = None

    def span(self, name: str, category: str = "span", **attrs) -> _NullSpanContext:
        return _NULL_CTX

    def charge(self, name: str, **kwargs) -> _NullSpan:
        return _NULL_SPAN

    def add_counter(self, key: str, value: float) -> None:
        pass

    def counter_total(self, key: str) -> float:
        return 0.0

    def children_of(self, span) -> list:
        return []

    def roots(self) -> list:
        return []

    def find(self, **kwargs) -> list:
        return []


#: Shared inert tracer used as the default everywhere.
NULL_TRACER = NullTracer()
