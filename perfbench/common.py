"""Pieces the workloads share: the outcome record and the open-loop client."""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``."""

    attempted: int
    #: Failed operations: wrong answers, raised errors, typed sheds,
    #: timeouts and simulated-ledger mismatches.
    failed: int
    #: Wrong answers only (a subset of ``failed``).
    wrong: int
    #: Metric name -> value (units come from BENCHMARK.json).
    metrics: dict
    #: Everything else worth printing: workload-specific numbers, counts.
    report: dict = field(default_factory=dict)


@dataclass
class Request:
    """One open-loop request and what became of it."""

    key: object
    #: Scheduled send time on the ``time.perf_counter`` clock.
    due: float
    sent: float = 0.0
    done: float = 0.0
    response: object = None
    #: ``None`` when answered; else the exception's class name.
    error: str | None = None

    @property
    def latency(self) -> float:
        return self.done - self.due


async def run_open_loop(schedule, submit, timeout: float) -> list:
    """Send each ``(due, key)`` at its due time, whatever the service is
    doing, and bound every request by ``timeout`` seconds.

    ``submit(key)`` returns an awaitable response.  A request that raises
    or times out keeps ``error`` set; the caller counts it as a miss at
    the timeout value.
    """
    requests = [Request(key=key, due=due) for due, key in schedule]
    tasks = []

    async def one(req: Request) -> None:
        try:
            req.response = await asyncio.wait_for(submit(req.key), timeout)
        except Exception as exc:  # every failure mode is an outcome here
            req.error = type(exc).__name__
        req.done = time.perf_counter()

    for req in requests:
        delay = req.due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        req.sent = time.perf_counter()
        tasks.append(asyncio.create_task(one(req)))
    await asyncio.gather(*tasks)
    return requests


async def stop_quietly(service, timeout: float) -> str | None:
    """Stop a service; report (rather than raise) a crashed worker loop."""
    try:
        await asyncio.wait_for(service.stop(), timeout)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def lateness_ms_p99(requests) -> float:
    late = [max(r.sent - r.due, 0.0) for r in requests]
    return 1e3 * float(np.percentile(late, 99)) if late else 0.0
