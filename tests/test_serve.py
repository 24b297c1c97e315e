"""The serving layer: cache, admission-controlled service, workload.

MS-BFS correctness lives in test_msbfs.py; here we test everything
around it — eviction policy, bounded-queue shedding, batching windows,
crash replay, latency accounting, and the closed-loop workload the CI
smoke drives.
"""

import asyncio

import numpy as np
import pytest

from repro.cli import main
from repro.core import BFSConfig, DistributedBFS, partition_graph
from repro.graph500.rmat import generate_edges
from repro.graphs.csr import build_csr, symmetrize_edges
from repro.machine.network import MachineSpec
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import RunReport, report_from_serve
from repro.resilience.faults import FaultInjector
from repro.runtime.mesh import ProcessMesh
from repro.serve import (
    Overloaded,
    ResultCache,
    TraversalError,
    TraversalService,
    fingerprint_graph,
)
from repro.serve.bench import amortization_sweep, build_serving_pair
from repro.serve.msbfs import MultiSourceBFS
from repro.serve.workload import (
    make_workload_roots,
    run_serving_session,
    run_workload,
)


def build_engines(scale=9, rows=2, cols=2, e_thr=128, h_thr=16, seed=7):
    src, dst = generate_edges(scale, seed=seed)
    n = 1 << scale
    machine = MachineSpec(num_nodes=rows * cols, nodes_per_supernode=cols)
    mesh = ProcessMesh(rows, cols, machine=machine)
    part = partition_graph(
        src, dst, n, mesh, e_threshold=e_thr, h_threshold=h_thr
    )
    config = BFSConfig(e_threshold=e_thr, h_threshold=h_thr)
    sequential = DistributedBFS(part, machine=machine, config=config)
    batched = MultiSourceBFS(part, machine=machine, config=config)
    graph = build_csr(*symmetrize_edges(src, dst), n)
    return sequential, batched, graph


@pytest.fixture(scope="module")
def engines():
    return build_engines()


# ----------------------------------------------------------------------
# cache
# ----------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestResultCache:
    def _parent(self, tag):
        return np.arange(tag, tag + 4, dtype=np.int64)

    def test_hit_miss_counters(self):
        metrics = MetricsRegistry()
        cache = ResultCache(capacity=4, metrics=metrics)
        assert cache.get("fp", 1) is None
        cache.put("fp", 1, self._parent(0))
        assert np.array_equal(cache.get("fp", 1), self._parent(0))
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert metrics.counter_total("serve_cache_hits") == 1
        assert metrics.counter_total("serve_cache_misses") == 1
        assert cache.stats.hit_rate == 0.5

    def test_lru_eviction_order(self):
        cache = ResultCache(capacity=2)
        cache.put("fp", 1, self._parent(1))
        cache.put("fp", 2, self._parent(2))
        cache.get("fp", 1)  # 1 is now most-recently-used
        cache.put("fp", 3, self._parent(3))  # evicts 2
        assert cache.get("fp", 2) is None
        assert cache.get("fp", 1) is not None
        assert cache.stats.evicted_lru == 1

    def test_ttl_expiry_lazy(self):
        clock = FakeClock()
        cache = ResultCache(capacity=4, ttl_seconds=10.0, clock=clock)
        cache.put("fp", 1, self._parent(1))
        clock.now = 9.9
        assert cache.get("fp", 1) is not None
        clock.now = 20.0
        assert cache.get("fp", 1) is None
        assert cache.stats.evicted_ttl == 1
        assert len(cache) == 0

    def test_invalidate_generation(self):
        cache = ResultCache(capacity=8)
        cache.put("old", 1, self._parent(1))
        cache.put("old", 2, self._parent(2))
        cache.put("new", 1, self._parent(3))
        assert cache.invalidate("old") == 2
        assert cache.get("old", 1) is None
        assert cache.get("new", 1) is not None
        assert cache.stats.evicted_invalidation == 2
        assert cache.invalidate() == 1  # drop everything

    def test_cached_arrays_are_readonly(self):
        cache = ResultCache()
        cache.put("fp", 1, self._parent(1))
        got = cache.get("fp", 1)
        with pytest.raises(ValueError):
            got[0] = 99

    def test_fingerprint_distinguishes_graphs(self, engines):
        _, batched, _ = engines
        fp1 = fingerprint_graph(batched.part)
        assert fp1 == fingerprint_graph(batched.part)
        _, other, _ = build_engines(seed=8)
        assert fp1 != fingerprint_graph(other.part)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=0)
        with pytest.raises(ValueError):
            ResultCache(ttl_seconds=0)


# ----------------------------------------------------------------------
# service
# ----------------------------------------------------------------------


def run_async(coro):
    return asyncio.run(coro)


class TestTraversalService:
    def test_single_query_matches_sequential(self, engines):
        sequential, batched, _ = engines
        root = int(np.flatnonzero(batched.part.degrees > 0)[0])

        async def main():
            async with TraversalService(batched, batch_window=0.0) as svc:
                return await svc.submit(root)

        response = run_async(main())
        assert not response.cached
        assert np.array_equal(response.parent, sequential.run(root).parent)
        assert response.total_seconds >= 0
        assert response.batch_lanes == 1

    def test_batch_flush_on_size(self, engines):
        _, batched, _ = engines
        roots = np.flatnonzero(batched.part.degrees > 0)[:8]

        async def main():
            # A generous window: the flush must come from reaching
            # batch_size, not the deadline.
            svc = TraversalService(
                batched, batch_size=8, batch_window=30.0, cache=None
            )
            async with svc:
                out = await asyncio.gather(
                    *(svc.submit(int(r)) for r in roots)
                )
            return svc, out

        svc, out = run_async(main())
        assert svc.stats.batches == 1
        assert all(r.batch_lanes == 8 for r in out)

    def test_batch_flush_on_window_deadline(self, engines):
        _, batched, _ = engines
        root = int(np.flatnonzero(batched.part.degrees > 0)[0])

        async def main():
            svc = TraversalService(
                batched, batch_size=64, batch_window=0.01, cache=None
            )
            async with svc:
                return svc, await svc.submit(root)

        svc, response = run_async(main())
        assert svc.stats.batches == 1
        assert response.batch_lanes == 1
        assert response.batch_wait >= 0.0

    def test_duplicate_roots_share_a_lane(self, engines):
        _, batched, _ = engines
        root = int(np.flatnonzero(batched.part.degrees > 0)[0])

        async def main():
            svc = TraversalService(
                batched, batch_size=4, batch_window=0.05, cache=None
            )
            async with svc:
                return svc, await asyncio.gather(
                    *(svc.submit(root) for _ in range(4))
                )

        svc, out = run_async(main())
        assert svc.stats.batches == 1
        assert svc.stats.batched_lanes == 1  # four requests, one lane
        assert all(np.array_equal(r.parent, out[0].parent) for r in out)

    def test_overloaded_is_typed_and_queue_stays_bounded(self, engines):
        _, batched, _ = engines
        roots = np.flatnonzero(batched.part.degrees > 0)

        async def main():
            svc = TraversalService(
                batched, queue_depth=4, batch_size=4, batch_window=0.001,
                cache=None,
            )
            async with svc:
                # All twelve submit() coroutines reach the admission
                # check before the flush loop can drain: only four fit.
                tasks = [
                    asyncio.ensure_future(svc.submit(int(r)))
                    for r in roots[:12]
                ]
                done = await asyncio.gather(*tasks, return_exceptions=True)
            return svc, done

        svc, done = run_async(main())
        shed = [e for e in done if isinstance(e, Overloaded)]
        served = [r for r in done if not isinstance(r, Exception)]
        assert len(shed) > 0
        assert all(e.limit == 4 for e in shed)
        assert svc.stats.shed == len(shed)
        assert len(served) + len(shed) == 12
        assert not any(
            isinstance(e, Exception) and not isinstance(e, Overloaded)
            for e in done
        )

    def test_cache_hit_path(self, engines):
        _, batched, _ = engines
        root = int(np.flatnonzero(batched.part.degrees > 0)[0])

        async def main():
            async with TraversalService(batched, batch_window=0.0) as svc:
                first = await svc.submit(root)
                second = await svc.submit(root)
            return svc, first, second

        svc, first, second = run_async(main())
        assert not first.cached and second.cached
        assert np.array_equal(first.parent, second.parent)
        assert svc.stats.cache_hits == 1
        assert svc.stats.batches == 1

    def test_crash_replay_transparent_to_client(self, engines):
        sequential, batched, _ = engines
        root = int(np.flatnonzero(batched.part.degrees > 0)[0])
        injector = FaultInjector(
            "crash:rank=1,iter=1", rng=np.random.default_rng(0)
        )

        async def main():
            svc = TraversalService(
                batched, batch_window=0.0, faults=injector, max_replays=2
            )
            async with svc:
                return svc, await svc.submit(root)

        svc, response = run_async(main())
        assert svc.stats.replays == 1
        assert svc.stats.failed == 0
        assert np.array_equal(response.parent, sequential.run(root).parent)

    def test_replay_budget_exhaustion_fails_only_that_batch(self, engines):
        _, batched, _ = engines
        roots = np.flatnonzero(batched.part.degrees > 0)
        # One crash per attempt: first batch exhausts its budget, the
        # follow-up query (a fresh batch) succeeds.
        injector = FaultInjector(
            "crash:rank=1,iter=1;crash:rank=0,iter=1",
            rng=np.random.default_rng(0),
        )

        async def main():
            svc = TraversalService(
                batched, batch_window=0.0, faults=injector, max_replays=1
            )
            async with svc:
                with pytest.raises(TraversalError):
                    await svc.submit(int(roots[0]))
                ok = await svc.submit(int(roots[1]))
            return svc, ok

        svc, ok = run_async(main())
        assert svc.stats.failed == 1
        assert svc.stats.completed == 1
        assert ok.parent is not None

    def test_engine_error_fails_only_that_batch(self, engines):
        # A non-crash exception from the engine must fail its batch's
        # requests typed (chained to the cause) and keep serving; it
        # must never strand later queries.
        sequential, batched, _ = engines
        roots = np.flatnonzero(batched.part.degrees > 0)

        class FailOnce:
            def __init__(self, engine):
                self._engine = engine
                self.calls = 0

            def __getattr__(self, name):
                return getattr(self._engine, name)

            def run_batch(self, roots, **kwargs):
                self.calls += 1
                if self.calls == 1:
                    raise ValueError("stub engine failure")
                return self._engine.run_batch(roots, **kwargs)

        metrics = MetricsRegistry()

        async def main():
            svc = TraversalService(
                FailOnce(batched), batch_window=0.0, metrics=metrics
            )
            async with svc:
                with pytest.raises(TraversalError) as err:
                    await asyncio.wait_for(svc.submit(int(roots[0])), 3.0)
                ok = await asyncio.wait_for(svc.submit(int(roots[1])), 3.0)
            return svc, err.value, ok

        svc, error, ok = run_async(main())
        assert isinstance(error.__cause__, ValueError)
        assert error.tenant == "default" and error.trace_id
        assert svc.stats.failed == 1 and svc.stats.replays == 0
        assert metrics.counter_total("serve_requests", outcome="failed") == 1
        assert np.array_equal(
            ok.parent, sequential.run(int(roots[1])).parent
        )

    def test_latency_histograms_populated(self, engines):
        _, batched, _ = engines
        metrics = MetricsRegistry()
        roots = np.flatnonzero(batched.part.degrees > 0)[:4]

        async def main():
            svc = TraversalService(
                batched, batch_size=4, batch_window=0.05, metrics=metrics
            )
            async with svc:
                await asyncio.gather(*(svc.submit(int(r)) for r in roots))

        run_async(main())
        for stage in ("queue", "batch", "traversal", "total"):
            samples = list(
                metrics.samples("serve_latency_seconds")
            )
            labels = [lab for lab, _ in samples]
            assert {"tenant": "default", "stage": stage} in labels, (
                f"missing stage={stage}"
            )
        total = [
            inst for lab, inst in metrics.samples("serve_latency_seconds")
            if lab == {"tenant": "default", "stage": "total"}
        ][0]
        assert total.summary()["count"] == 4

    def test_reload_graph_invalidates_old_generation(self, engines):
        _, batched, _ = engines
        _, other, _ = build_engines(seed=8)
        root = int(np.flatnonzero(batched.part.degrees > 0)[0])
        root2 = int(np.flatnonzero(other.part.degrees > 0)[0])

        async def main():
            svc = TraversalService(batched, batch_window=0.0)
            async with svc:
                await svc.submit(root)
                old_fp = svc.graph_fingerprint
                svc.reload_graph(other)
                assert svc.graph_fingerprint != old_fp
                response = await svc.submit(root2)
            return svc, response

        svc, response = run_async(main())
        assert svc._cache.stats.evicted_invalidation >= 1
        assert not response.cached

    def test_submit_validates_inputs(self, engines):
        _, batched, _ = engines

        async def main():
            svc = TraversalService(batched)
            with pytest.raises(RuntimeError):
                await svc.submit(0)  # not started
            async with svc:
                with pytest.raises(ValueError):
                    await svc.submit(-1)
                with pytest.raises(ValueError):
                    await svc.submit(batched.num_vertices)

        run_async(main())

    def test_constructor_validation(self, engines):
        _, batched, _ = engines
        with pytest.raises(ValueError):
            TraversalService(batched, batch_size=0)
        with pytest.raises(ValueError):
            TraversalService(batched, batch_size=65)
        with pytest.raises(ValueError):
            TraversalService(batched, queue_depth=0)
        with pytest.raises(ValueError):
            TraversalService(batched, batch_window=-1.0)


# ----------------------------------------------------------------------
# workload
# ----------------------------------------------------------------------


class TestWorkload:
    def test_root_stream_is_seed_deterministic(self, engines):
        _, batched, _ = engines
        degrees = batched.part.degrees
        a = make_workload_roots(degrees, 64, seed=3)
        b = make_workload_roots(degrees, 64, seed=3)
        c = make_workload_roots(degrees, 64, seed=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert np.all(degrees[a] > 0)

    def test_hot_fraction_produces_repeats(self, engines):
        _, batched, _ = engines
        roots = make_workload_roots(
            batched.part.degrees, 128, seed=1,
            hot_fraction=0.9, hot_set_size=4,
        )
        assert np.unique(roots).size < 64  # heavy repetition

    def test_closed_loop_zero_wrong_parents(self, engines):
        sequential, batched, _ = engines
        roots = make_workload_roots(
            batched.part.degrees, 96, seed=11,
            hot_fraction=0.5, hot_set_size=8,
        )
        expected = {
            int(r): sequential.run(int(r)).parent for r in np.unique(roots)
        }
        report, service = run_serving_session(
            batched, roots, clients=8, expected=expected,
            batch_size=16, batch_window=0.005,
        )
        assert report.served == report.num_queries
        assert report.failed == 0
        assert report.wrong_parents == 0
        assert report.validated == report.num_queries
        assert report.cache_hit_rate > 0  # repeats hit the cache
        # Admission accounting closes: everything admitted completed.
        assert service.stats.admitted == service.stats.completed

    def test_shedding_retries_eventually_serve_everything(self, engines):
        _, batched, _ = engines
        roots = make_workload_roots(batched.part.degrees, 48, seed=2)

        async def main():
            svc = TraversalService(
                batched, queue_depth=2, batch_size=4, batch_window=0.001,
                cache=None,
            )
            async with svc:
                return svc, await run_workload(
                    svc, roots, clients=16, shed_backoff=0.0005
                )

        svc, report = run_async(main())
        assert report.served == report.num_queries
        assert report.failed == 0
        assert svc.stats.shed > 0  # backpressure actually engaged
        assert report.shed_retries == svc.stats.shed

    def test_report_from_serve_metrics(self, engines):
        _, batched, _ = engines
        roots = make_workload_roots(
            batched.part.degrees, 32, seed=5, hot_fraction=0.5
        )
        report, service = run_serving_session(
            batched, roots, clients=8, batch_size=8,
            metrics=MetricsRegistry(),
        )
        run_report = report_from_serve(
            service, report, context=dict(scale=9)
        )
        m = run_report.metrics
        assert m["serve.requests"] == 32
        assert m["serve.completed"] + m["serve.cache_hits"] == 32
        assert m["serve.failed"] == 0
        assert m["serve.sim_seconds_per_query"] > 0
        assert 0 <= m["serve.cache_hit_rate"] <= 1
        assert any(
            key.startswith("serve_latency_seconds")
            for key in run_report.summaries
        )
        assert run_report.context["batch_size"] == 8

    def test_workload_argument_validation(self, engines):
        _, batched, _ = engines
        with pytest.raises(ValueError):
            make_workload_roots(batched.part.degrees, 0, seed=1)
        with pytest.raises(ValueError):
            make_workload_roots(
                batched.part.degrees, 4, seed=1, hot_fraction=1.5
            )
        with pytest.raises(ValueError):
            make_workload_roots(np.zeros(8, dtype=np.int64), 4, seed=1)


# ----------------------------------------------------------------------
# bench core + CLI
# ----------------------------------------------------------------------


class TestServeBench:
    def test_amortization_sweep_monotone_gain(self):
        sequential, batched = build_serving_pair(
            9, 2, 2, seed=7, e_threshold=128, h_threshold=16
        )
        roots = np.flatnonzero(batched.part.degrees > 0)[:16]
        points = amortization_sweep(
            sequential, batched, roots, batch_sizes=(1, 4, 16)
        )
        assert [p.batch_size for p in points] == [1, 4, 16]
        assert points[-1].amortization_factor > points[0].amortization_factor
        assert points[-1].amortization_factor > 2.0
        for p in points:
            assert p.amortized_seconds * p.batch_size == pytest.approx(
                p.batch_seconds
            )


class TestServeCLI:
    ARGS = ["--scale", "9", "--mesh", "2x2", "--seed", "7",
            "--e-threshold", "128", "--h-threshold", "16"]

    def test_serve_command_validates(self, capsys, tmp_path):
        out_path = tmp_path / "serve.json"
        rc = main([
            "serve", *self.ARGS, "--queries", "48", "--clients", "8",
            "--batch-size", "16", "--validate", "--out", str(out_path),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "wrong parents" in out and "0/48 validated" in out
        report = RunReport.load(out_path)
        assert report.metrics["serve.requests"] == 48
        assert set(report.context["tenants"]) == {"default"}
        assert main(["compare", str(out_path), str(out_path)]) == 0

    def test_serve_command_with_faults_replays(self, capsys):
        rc = main([
            "serve", *self.ARGS, "--queries", "24", "--clients", "8",
            "--batch-size", "8", "--faults", "crash:rank=1,iter=1",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "batch replays" in out

    def test_bench_serve_command(self, capsys, tmp_path):
        json_path = tmp_path / "bench.json"
        rc = main([
            "bench-serve", *self.ARGS, "--queries", "32",
            "--batch-sizes", "1,8", "--queue-depths", "32",
            "--json", str(json_path),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "amortized simulated cost per query" in out
        assert json_path.exists()

    def test_graph500_batch_roots_flag(self, capsys):
        rc = main([
            "graph500", *self.ARGS, "--roots", "4", "--batch-roots",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "validation: PASSED" in out
