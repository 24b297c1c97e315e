"""The benchmark's own arithmetic: percentiles, rates, sampling, self time.

Everything here is a pure function of its arguments so the unit tests in
``perfbench/tests`` pin it down without running a workload.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def percentile_with_misses(latencies, failures: int, timeout: float, q: float) -> float:
    """Percentile ``q`` (0-100) of ``latencies`` with each failure counted
    as one more sample at ``timeout``.

    A failed request never answered within any limit, so it joins the
    sample as a miss at the timeout value rather than leaving it: a run
    that fails more requests can only look slower, never faster.
    """
    values = np.concatenate(
        [np.asarray(latencies, dtype=np.float64), np.full(int(failures), float(timeout))]
    )
    if values.size == 0:
        raise ValueError("no samples")
    return float(np.percentile(values, q))


def round_percentile(rounds, timeout: float, q: float) -> float:
    """Median over rounds of each round's percentile ``q``.

    ``rounds`` holds one ``(latencies, failures)`` pair per round; each
    round's percentile counts its failures as misses at ``timeout``
    (:func:`percentile_with_misses`).  A spell of slow host that covers
    fewer than half the rounds does not move the result.
    """
    if not rounds:
        raise ValueError("no rounds")
    return float(
        np.median([percentile_with_misses(lat, f, timeout, q) for lat, f in rounds])
    )


def harmonic_mean_teps(num_edges: int, seconds) -> float:
    """Harmonic mean of per-root TEPS (the Graph500 aggregate).

    With ``TEPS_i = m / t_i`` the harmonic mean is ``m / mean(t_i)``.
    """
    t = np.asarray(seconds, dtype=np.float64)
    if t.size == 0 or np.any(t <= 0):
        raise ValueError("times must be non-empty and positive")
    teps = num_edges / t
    return float(teps.size / np.sum(1.0 / teps))


def goodput(latencies, correct, limit: float, span_seconds: float) -> float:
    """Correct answers that arrived within ``limit``, per second of
    ``span_seconds``."""
    if span_seconds <= 0:
        raise ValueError("span_seconds must be positive")
    lat = np.asarray(latencies, dtype=np.float64)
    ok = np.asarray(correct, dtype=bool)
    if lat.shape != ok.shape:
        raise ValueError("latencies and correct must align")
    return float(np.count_nonzero(ok & (lat <= limit)) / span_seconds)


def distinct_roots(degrees, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` distinct non-isolated vertices, drawn without replacement."""
    candidates = np.flatnonzero(np.asarray(degrees) > 0)
    if count > candidates.size:
        raise ValueError(
            f"asked for {count} distinct roots, graph has {candidates.size}"
        )
    return rng.choice(candidates, size=count, replace=False).astype(np.int64)


def poisson_arrivals(rate: float, duration: float, rng: np.random.Generator) -> np.ndarray:
    """Open-loop send times of a Poisson stream on ``[0, duration)``,
    conditioned on its expected count ``round(rate * duration)``.

    Given its count, a Poisson process's arrival times are sorted uniform
    draws; fixing the count keeps the offered load identical across seeds
    while the gaps stay exponential-like.
    """
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be positive")
    count = max(int(round(rate * duration)), 1)
    return np.sort(rng.uniform(0.0, duration, size=count))


@dataclass(frozen=True)
class Interval:
    """One timed call or span on one thread: ``[start, end]`` seconds."""

    name: str
    start: float
    end: float


def self_times(intervals) -> dict[str, float]:
    """Self time per name: each interval's duration minus the part of it
    that its direct children cover.

    Intervals must come from one thread, where calls nest: any two are
    either disjoint or one contains the other.  Nesting is recovered from
    containment, so spans recorded by different recorders (the program's
    tracer and the benchmark's timers) merge into one tree.
    """
    order = sorted(intervals, key=lambda iv: (iv.start, -iv.end))
    totals: dict[str, float] = {}
    # Stack of [interval, covered-by-children seconds].
    stack: list[list] = []

    def close(entry) -> None:
        iv, covered = entry
        totals[iv.name] = totals.get(iv.name, 0.0) + (iv.end - iv.start) - covered

    for iv in order:
        while stack and stack[-1][0].end <= iv.start:
            close(stack.pop())
        if stack:
            stack[-1][1] += iv.end - iv.start
        stack.append([iv, 0.0])
    while stack:
        close(stack.pop())
    return totals


def median(values) -> float:
    v = np.asarray(values, dtype=np.float64)
    return float(np.median(v)) if v.size else 0.0


def pct(values, q: float) -> float:
    v = np.asarray(values, dtype=np.float64)
    return float(np.percentile(v, q)) if v.size else 0.0


def mean_duration(intervals) -> float:
    """Mean length of a list of :class:`Interval` (0 when empty)."""
    return (
        sum(iv.end - iv.start for iv in intervals) / len(intervals) if intervals else 0.0
    )
