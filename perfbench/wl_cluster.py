"""``cluster_ingest``: multi-tenant serving while one tenant ingests updates.

``ClusterService`` with 2 replicas over three SCALE 12 tenants (gold,
silver, bronze; distinct graph seeds).  Queries come from
``make_diurnal_workload`` with ``hot_fraction=0.8``, so the per-tenant
caches are used heavily.  Meanwhile the gold tenant calls
``ingest_updates`` every ``INGEST_PERIOD_S`` with one seeded mixed batch
of 1 % of its edges.  Each query's latency limit is its tenant's class
SLO.  The partition builds run only in set-up.

Known defect (not worked around here): ``IncrementalGraph.graph()``
returns its live partition, and the served engine is built on it.  From
the second ingestion on, ``apply_batch`` mutates that partition while a
query batch reads it; the batch raises ``ValueError`` in
``charge_receiver_kernel`` and the exception ends the replica loop that
ran it.  Queries then wait for a replica that no longer runs; the
benchmark's per-query timeout turns each into a failure.  How many fail
depends on thread timing, which is why this workload is not in
``BENCHMARK.json`` (see README).

Answers are checked after the timed window with the Graph500 validator,
against every graph generation that was live while the query was in
flight.  The generations are rebuilt independently from the update
stream with ``repro.dynamic.updates.apply_updates``; the boundaries are
the times each ``ingest_updates`` call started and returned.
"""

from __future__ import annotations

import asyncio
import hashlib
import time
from collections import Counter

import layers
import stats
from common import Outcome, Request, lateness_ms_p99, run_open_loop, stop_quietly
from wl_serve import overhead, serve_layer_metrics

SCALE = 12
ROWS, COLS = 2, 2
REPLICAS = 2
CLASSES = ("gold", "silver", "bronze")
#: Offered queries per second, summed over tenants.
RATE = 100.0
HOT_FRACTION = 0.8
INGEST_PERIOD_S = 1.0
INGEST_FRACTION = 0.01
TIMEOUT_S = 5.0
SETUPS = 3
#: Per-layer metric prefixes measured on ``graph500`` and ``serve_cold``:
#: set-up and the engine layers under the replicas' MSBFS batches.
LAYERS_ELSEWHERE = ("graph500.", "graphs.", "core.", "runtime.", "machine.")


def tenant_seed(seed: int, index: int) -> int:
    return 3 * seed + index + 1


def build(seed: int):
    from repro.cluster.service import ClusterService
    from repro.cluster.tenants import TenantSpec, build_registry

    specs = [
        TenantSpec(
            cls, scale=SCALE, rows=ROWS, cols=COLS, seed=tenant_seed(seed, i), slo_class=cls
        )
        for i, cls in enumerate(CLASSES)
    ]
    registry = build_registry(specs, dynamic=True)
    return registry, ClusterService(registry, replicas=REPLICAS)


def ingest_stream(seed: int, seconds: float):
    """The gold tenant's update batches and the edge set after each."""
    from repro.dynamic.updates import (
        UpdateSpec,
        apply_updates,
        canonical_edges,
        generate_update_stream,
    )
    from repro.graph500.rmat import generate_edges

    n = 1 << SCALE
    src, dst = generate_edges(SCALE, seed=tenant_seed(seed, 0))
    lo, hi = canonical_edges(src, dst, n)
    count = max(int(seconds / INGEST_PERIOD_S), 1)
    spec = UpdateSpec("mixed", batches=count, size=max(int(INGEST_FRACTION * lo.size), 1))
    batches = generate_update_stream(src, dst, n, spec, seed=seed)
    generations = [(lo, hi)]
    for batch in batches:
        generations.append(apply_updates(*generations[-1], batch, n))
    return batches, generations


async def _ingest(cluster, batches, start: float, log: list) -> None:
    """Gold's ingestion schedule: one batch per period, each bounded."""
    for i, batch in enumerate(batches):
        due = start + (i + 0.5) * INGEST_PERIOD_S
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        entry = {"due": due, "call": time.perf_counter(), "ret": None, "updates": batch.size}
        log.append(entry)
        try:
            await asyncio.wait_for(cluster.ingest_updates("gold", [batch]), TIMEOUT_S)
        except Exception as exc:
            entry["error"] = type(exc).__name__
            continue
        entry["ret"] = time.perf_counter()


async def _serve(seed: int, seconds: float):
    from repro.serve.workload import make_diurnal_workload

    clock = time.perf_counter
    setups = []
    for _ in range(SETUPS):
        t0 = clock()
        registry, cluster = build(seed)
        await cluster.start()
        setups.append(clock() - t0)
        if len(setups) < SETUPS:
            await cluster.stop()
    batches, generations = ingest_stream(seed, seconds)
    workload = make_diurnal_workload(
        registry.degrees_map(),
        max(int(RATE * seconds), 1),
        seed=seed,
        duration_seconds=seconds,
        hot_fraction=HOT_FRACTION,
    )
    start = clock() + 0.05
    plan = [(start + q.arrival_seconds, (q.tenant, q.root)) for q in workload.queries]
    log: list = []
    ingest = asyncio.create_task(_ingest(cluster, batches, start, log))
    requests = await run_open_loop(plan, lambda key: cluster.submit(*key), TIMEOUT_S)
    await ingest
    t_end = clock()
    stop_error = await stop_quietly(cluster, TIMEOUT_S)
    return {
        "setups": setups,
        "registry": registry,
        "cluster": cluster,
        "requests": requests,
        "log": log,
        "generations": generations,
        "window": (start, t_end),
        "stop_error": stop_error,
    }


def live_generations(req: Request, log: list) -> range:
    """Gold generations that may have answered ``req``.

    Generation ``g`` (``g`` ingestions applied) may serve from the moment
    the ingestion that creates it starts until the next one returns; an
    ingestion that never returned leaves its old generation live for good.
    """
    first = 0
    last = len(log)
    for i, entry in enumerate(log):
        ret = entry["ret"]
        if ret is not None and ret < req.due:
            first = i + 1
        if entry["call"] > req.done:
            last = min(last, i)
    return range(first, last + 1)


def check(out) -> int:
    """Validate every answer; memoised on (tenant, root, tree, generations)."""
    from repro.graph500.rmat import generate_edges
    from repro.graph500.validate import validate_bfs_result
    from repro.graphs.csr import build_csr, symmetrize_edges

    n = 1 << SCALE
    graphs = {}

    def graph(tenant: str, gen: int):
        key = (tenant, gen)
        if key not in graphs:
            if tenant == "gold":
                lo, hi = out["generations"][gen]
            else:
                seed = tenant_seed(out["seed"], CLASSES.index(tenant))
                lo, hi = generate_edges(SCALE, seed=seed)
            graphs[key] = (build_csr(*symmetrize_edges(lo, hi), n), lo, hi)
        return graphs[key]

    verdicts: dict = {}
    wrong = 0
    for req in out["requests"]:
        if req.error is not None:
            continue
        tenant, root = req.key
        gens = live_generations(req, out["log"]) if tenant == "gold" else range(1)
        digest = hashlib.blake2b(req.response.parent.tobytes(), digest_size=16).digest()
        key = (tenant, root, digest, gens.start, gens.stop)
        if key not in verdicts:
            verdicts[key] = False
            for gen in gens:
                csr, lo, hi = graph(tenant, gen)
                try:
                    validate_bfs_result(csr, root, req.response.parent, edge_src=lo, edge_dst=hi)
                except AssertionError:
                    continue
                verdicts[key] = True
                break
        if not verdicts[key]:
            req.error = "WrongAnswer"
            wrong += 1
    return wrong


def _slo_threshold(cls: str) -> float:
    from repro.cluster.tenants import SLO_CLASSES

    return SLO_CLASSES[cls]["slos"][0].threshold_seconds


def _latency(requests, q: float) -> float:
    ok = [r.latency for r in requests if r.error is None]
    return stats.percentile_with_misses(ok, len(requests) - len(ok), TIMEOUT_S, q)


def _finish(out, seconds: float):
    requests = out["requests"]
    wrong = check(out)
    failed = sum(r.error is not None for r in requests)
    limits = [_slo_threshold(r.key[0]) for r in requests]
    in_limit = [r.error is None and r.latency <= lim for r, lim in zip(requests, limits)]
    applied = [e for e in out["log"] if e["ret"] is not None]
    ingest_wall = sum(e["ret"] - e["call"] for e in applied)
    report = {
        "queries": len(requests),
        "errors": dict(Counter(r.error for r in requests if r.error is not None)),
        "stop_error": out["stop_error"],
        "ingests_applied": len(applied),
        "ingests_failed": len(out["log"]) - len(applied),
        "ingest_ups": sum(e["updates"] for e in applied) / ingest_wall if ingest_wall else 0.0,
        "ingest_visible_ms_p50": 1e3 * stats.median([e["ret"] - e["due"] for e in applied]),
        "setup_s_each": out["setups"],
    }
    metrics = {
        "setup_s": stats.median(out["setups"]),
        "p50_ms": 1e3 * _latency(requests, 50),
        "tail_ms": 1e3 * _latency(requests, 90),
        "goodput_per_s": sum(in_limit) / seconds,
        "work_s": ingest_wall,
    }
    attempted = len(requests) + len(out["log"])
    return Outcome(attempted, failed + report["ingests_failed"], wrong, metrics, report)


def run(*, seed: int, seconds: float, trace: bool) -> Outcome:
    if trace:
        return _run_traced(seed, seconds)
    out = asyncio.run(_serve(seed, seconds))
    out["seed"] = seed
    return _finish(out, seconds)


def _run_traced(seed: int, seconds: float) -> Outcome:
    from repro.cluster.router import ClusterRouter
    from repro.cluster.tenants import Tenant
    from repro.dynamic.repair import IncrementalGraph
    from repro.serve.cache import ResultCache
    from repro.serve.msbfs import MultiSourceBFS

    migrated = []
    evicted = []
    targets = {
        "cluster.router.next_batch": [(ClusterRouter, "next_batch")],
        "dynamic.apply_batch": [(IncrementalGraph, "apply_batch")],
        "dynamic.compact": [(IncrementalGraph, "graph")],
        "cluster.swap": [(Tenant, "swap_graph")],
        "serve.msbfs.batch": [(MultiSourceBFS, "run_batch")],
        "serve.cache.get": [(ResultCache, "get")],
        "serve.cache.put": [(ResultCache, "put")],
        "serve.cache.apply_delta": [(ResultCache, "apply_delta")],
    }
    on_result = {
        "dynamic.apply_batch": lambda report: migrated.append(report.num_arcs_moved),
        "serve.cache.apply_delta": lambda pair: evicted.append(pair),
    }
    with layers.Timers(targets, on_result) as timers:
        out = asyncio.run(_serve(seed, seconds))
    out["seed"] = seed
    outcome = _finish(out, seconds)
    requests = out["requests"]
    registry = out["registry"]
    hits = sum(t.stats.cache_hits for t in registry)
    served = hits + sum(t.stats.completed for t in registry)
    metrics = serve_layer_metrics(
        requests, timers,
        lanes=sum(t.stats.batched_lanes for t in registry),
        batches=sum(t.stats.batches for t in registry),
        hit_rate=hits / served if served else 0.0,
    )
    metrics["load.late_ms_p99"] = lateness_ms_p99(requests)
    metrics["cluster.router.next_batch_us"] = 1e6 * stats.mean_duration(
        timers.calls("cluster.router.next_batch")
    )
    for cls in CLASSES:
        mine = [r for r in requests if r.key[0] == cls]
        limit = _slo_threshold(cls)
        metrics[f"cluster.{cls}.p90_ms"] = 1e3 * _latency(mine, 90) if mine else 0.0
        metrics[f"cluster.{cls}.slo_miss_frac"] = (
            sum(r.error is not None or r.latency > limit for r in mine) / len(mine)
            if mine
            else 0.0
        )
    for name in ("dynamic.apply_batch", "dynamic.compact", "cluster.swap"):
        metrics[f"{name}_ms_p50"] = 1e3 * stats.median(
            [iv.end - iv.start for iv in timers.calls(name)]
        )
    metrics["dynamic.arcs_migrated"] = float(sum(migrated))
    gone = sum(e for e, _ in evicted)
    kept = sum(k for _, k in evicted)
    metrics["serve.cache.evicted_frac"] = gone / (gone + kept) if gone + kept else 0.0
    t_start, t_end = out["window"]
    # Each thread nests its own calls; replicas and ingestion overlap.
    busy = sum(sum(stats.self_times(ivs).values()) for ivs in timers.per_thread())
    metrics["trace.attributed_frac"] = busy / (t_end - t_start)
    metrics["trace.overhead_frac"] = overhead(
        registry["gold"].batched, [r.key[1] for r in requests if r.key[0] == "gold"]
    )
    outcome.metrics = metrics
    return outcome
