"""``serve_cold``: batched serving where the cache never hits.

``TraversalService`` over ``MultiSourceBFS`` on an R-MAT SCALE 13 graph
(2x2 mesh, tuned thresholds).  The run makes ``ROUNDS`` short rounds, so
every figure's samples are spread over it and a spell of slow host falls
on a few rounds only.  A round times one set-up (the first round's is
the service that serves; the others are built and dropped), then sends
an open-loop Poisson stream at ``RATE`` queries per second for
``--seconds / ROUNDS``, then, once that is answered, a burst of
``BURST`` queries at once.  Every root of the run is distinct (drawn
without replacement), so ``serve.cache`` is consulted and never hits:
MSBFS lanes and batching do the work.

Latency runs from a query's scheduled send time to its response.  A
query that fails or outlives ``TIMEOUT_S`` counts as a miss at the
timeout.  ``p50_ms`` and ``tail_ms`` are the median over rounds of each
round's stream percentile.  Goodput counts correct answers within
``LIMIT_S`` per second of the streams' wall time, each from its first
scheduled send to its last response, so a backlog that outlasts the
schedule lowers it.  Every answer is compared, after the timed window,
with the sequential engine's parent array for that root.
"""

from __future__ import annotations

import asyncio
import time
from collections import Counter

import numpy as np

import layers
import stats
from common import Outcome, lateness_ms_p99, run_open_loop, stop_quietly

SCALE = 13
ROWS, COLS = 2, 2
#: Offered load, about a quarter of the burst capacity of a 2-CPU host
#: (240-250 queries/s).  At half of it the latency percentiles spread
#: two to three times wider over seeds (see README).
RATE = 60.0
BURST = 128
ROUNDS = 10
#: Per-layer metric prefixes measured on ``graph500`` instead: set-up
#: here builds a SCALE 13 partition, a small share of the run.
LAYERS_ELSEWHERE = ("graph500.", "core.partition.", "core.subgraphs.", "graphs.")
TIMEOUT_S = 10.0
#: The bronze service class's latency objective.
LIMIT_S = 1.0


def build(seed: int, tracer=None):
    from repro.serve.bench import build_serving_pair
    from repro.serve.service import TraversalService

    sequential, batched = build_serving_pair(
        SCALE, ROWS, COLS, seed=seed, tracer=tracer
    )
    return sequential, TraversalService(batched)


def schedule(seed: int, seconds: float, degrees):
    """Per round: Poisson send offsets with their roots, and a burst."""
    rng = np.random.default_rng(seed)
    streams = [stats.poisson_arrivals(RATE, seconds / ROUNDS, rng) for _ in range(ROUNDS)]
    count = sum(a.size for a in streams) + ROUNDS * BURST
    roots = iter(int(r) for r in stats.distinct_roots(degrees, count, rng))
    return [
        ([(t, next(roots)) for t in arrivals], [next(roots) for _ in range(BURST)])
        for arrivals in streams
    ]


async def _serve(seed: int, seconds: float, tracer=None):
    clock = time.perf_counter
    setups, streams, burst, burst_s, windows, spans = [], [], [], [], [], []
    service = plan = None
    for k in range(ROUNDS):
        t0 = clock()
        seq, svc = build(seed, tracer)
        await svc.start()
        setups.append(clock() - t0)
        if service is None:
            sequential, service = seq, svc
            plan = schedule(seed, seconds, service.engine.part.degrees)
        else:
            await svc.stop()
        offsets, roots = plan[k]
        start = clock() + 0.01
        done = await run_open_loop(
            [(start + t, r) for t, r in offsets], service.submit, TIMEOUT_S
        )
        windows.append(max(r.done for r in done) - start)
        spans.append((start, clock()))
        streams.append(done)
        t_burst = clock()
        done = await run_open_loop([(t_burst, r) for r in roots], service.submit, TIMEOUT_S)
        burst_s.append(max(r.done for r in done) - t_burst)
        spans.append((t_burst, clock()))
        burst += done
    stop_error = await stop_quietly(service, TIMEOUT_S)
    return {
        "setups": setups,
        "sequential": sequential,
        "service": service,
        "streams": streams,
        "stream": [r for done in streams for r in done],
        "burst": burst,
        "burst_s": burst_s,
        "stream_s": sum(windows),
        "spans": spans,
        "stop_error": stop_error,
    }


def check(sequential, requests) -> int:
    """Wrong answers: parent arrays that differ from the sequential run."""
    wrong = 0
    for req in requests:
        if req.error is None:
            want = sequential.run(req.key).parent
            if not np.array_equal(req.response.parent, want):
                req.error = "WrongAnswer"
                wrong += 1
    return wrong


def _latency_metrics(rounds, stream_s: float) -> dict:
    samples = [
        ([r.latency for r in done if r.error is None], sum(r.error is not None for r in done))
        for done in rounds
    ]
    requests = [r for done in rounds for r in done]
    return {
        "p50_ms": 1e3 * stats.round_percentile(samples, TIMEOUT_S, 50),
        "tail_ms": 1e3 * stats.round_percentile(samples, TIMEOUT_S, 90),
        "goodput_per_s": stats.goodput(
            [r.latency for r in requests],
            [r.error is None for r in requests],
            LIMIT_S,
            stream_s,
        ),
    }


def run(*, seed: int, seconds: float, trace: bool) -> Outcome:
    if trace:
        return _run_traced(seed, seconds)
    out = asyncio.run(_serve(seed, seconds))
    everything = out["stream"] + out["burst"]
    wrong = check(out["sequential"], everything)
    failed = sum(r.error is not None for r in everything)
    metrics = {
        "setup_s": stats.median(out["setups"]),
        **_latency_metrics(out["streams"], out["stream_s"]),
        "work_s": stats.median(out["burst_s"]),
    }
    report = _report(out)
    return Outcome(len(everything), failed, wrong, metrics, report)


def _report(out) -> dict:
    everything = out["stream"] + out["burst"]
    svc = out["service"]
    return {
        "stream_queries": len(out["stream"]),
        "burst_queries": len(out["burst"]),
        "burst_qps": BURST / stats.median(out["burst_s"]),
        "burst_s_each": out["burst_s"],
        "errors": dict(Counter(r.error for r in everything if r.error is not None)),
        "stop_error": out["stop_error"],
        "batches": svc.stats.batches,
        "cache_hits": svc.stats.cache_hits,
        "setup_s_each": out["setups"],
    }


def _run_traced(seed: int, seconds: float) -> Outcome:
    from repro.obs.tracer import Tracer
    from repro.serve.cache import ResultCache
    from repro.serve.msbfs import MultiSourceBFS

    tracer = Tracer()
    targets = {
        **layers.engine_targets(),
        "serve.msbfs.batch": [(MultiSourceBFS, "run_batch")],
        "serve.cache.get": [(ResultCache, "get")],
        "serve.cache.put": [(ResultCache, "put")],
    }
    with layers.Timers(targets) as timers:
        out = asyncio.run(_serve(seed, seconds, tracer))
    everything = out["stream"] + out["burst"]
    wrong = check(out["sequential"], everything)
    failed = sum(r.error is not None for r in everything)
    svc = out["service"].stats
    metrics = serve_layer_metrics(
        everything, timers, lanes=svc.batched_lanes, batches=svc.batches,
        hit_rate=svc.cache_hit_rate,
    )
    metrics["load.late_ms_p99"] = lateness_ms_p99(out["stream"])
    batches = max(out["service"].stats.batches, 1)
    spans = out["spans"]
    engine_ivs = timers.intervals(main=False) + layers.tracer_intervals(tracer)
    selfs = stats.self_times(layers.within(engine_ivs, spans))
    loop_selfs = stats.self_times(layers.within(timers.intervals(main=True), spans))
    metrics.update(layers.engine_layer_metrics(selfs, timers, tracer, batches, spans))
    metrics["trace.attributed_frac"] = (
        sum(selfs.values()) + sum(loop_selfs.values())
    ) / sum(b - a for a, b in spans)
    metrics["trace.overhead_frac"] = overhead(out["service"].engine, [r.key for r in everything])
    return Outcome(len(everything), failed, wrong, metrics, _report(out))


def serve_layer_metrics(requests, timers, *, lanes: int, batches: int, hit_rate: float) -> dict:
    """Queue, batching, MSBFS and cache metrics of one served run."""
    done = [r.response for r in requests if r.error is None]
    uncached = [r for r in done if not r.cached]
    batch_calls = timers.calls("serve.msbfs.batch")
    batch_ms = [1e3 * (iv.end - iv.start) for iv in batch_calls]
    gets = timers.calls("serve.cache.get")
    puts = timers.calls("serve.cache.put")
    return {
        "serve.queue_ms_p50": 1e3 * stats.median([r.queue_wait for r in uncached]),
        "serve.queue_ms_p90": 1e3 * stats.pct([r.queue_wait for r in uncached], 90),
        "serve.batch_wait_ms_p50": 1e3 * stats.median([r.batch_wait for r in uncached]),
        "serve.traversal_ms_p50": 1e3 * stats.median([r.traversal_seconds for r in uncached]),
        "serve.msbfs.batch_ms_p50": stats.median(batch_ms),
        "serve.msbfs.lanes_mean": lanes / batches if batches else 0.0,
        "serve.msbfs.ms_per_lane": sum(batch_ms) / lanes if lanes else 0.0,
        "serve.cache.hit_rate": hit_rate,
        "serve.cache.get_us": 1e6 * stats.mean_duration(gets),
        "serve.cache.put_us": 1e6 * stats.mean_duration(puts),
        "serve.shed": sum(r.error == "Overloaded" for r in requests),
    }


def overhead(engine, roots) -> float:
    """Traced over untraced wall time of one batch of up to 64 roots
    (:func:`layers.overhead`)."""
    from repro.obs.tracer import Tracer
    from repro.serve.msbfs import MultiSourceBFS

    roots = np.unique(np.asarray(roots, dtype=np.int64))[:64]
    plain = MultiSourceBFS(engine.part, machine=engine.machine, config=engine.config)
    traced = MultiSourceBFS(
        engine.part, machine=engine.machine, config=engine.config, tracer=Tracer()
    )

    def traced_batch():
        with layers.Timers(layers.engine_targets()):
            traced.run_batch(roots)

    return layers.overhead(lambda: plain.run_batch(roots), traced_batch)
