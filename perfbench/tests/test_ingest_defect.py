"""Queries served while an ingestion mutates the graph they run on.

Both services build the served engine on the partition that
``IncrementalGraph.graph()`` returns, which is the live object the next
``apply_batch`` mutates in place.  A query batch that runs while a batch
is being applied reads a half-updated partition: it raises ``ValueError``
in ``charge_receiver_kernel`` (or answers wrongly), and the exception
ends the ``TraversalService`` flusher or the ``ClusterService`` replica
loop, so every later query waits forever.

The tests pause the ingestion inside the executor just after it has
compacted the partition (``graph()``), before the service swaps in the
new engine, and send queries meanwhile.  Every query must get a valid BFS
tree of the graph before or after the update within a timeout.  They are strict xfails:
when the defect is fixed they pass, and the marker must go.
"""

import asyncio
import threading

import numpy as np
import pytest

from repro.analysis.experiments import tuned_thresholds
from repro.core.config import BFSConfig
from repro.dynamic.repair import IncrementalGraph
from repro.dynamic.updates import (
    UpdateSpec,
    apply_updates,
    canonical_edges,
    generate_update_stream,
)
from repro.graph500.rmat import generate_edges
from repro.graph500.validate import validate_bfs_result
from repro.graphs.csr import build_csr, symmetrize_edges
from repro.runtime.mesh import ProcessMesh

SCALE = 12
N = 1 << SCALE
E_THR, H_THR = tuned_thresholds(SCALE)
TIMEOUT_S = 5.0


class PausingGraph(IncrementalGraph):
    """Pauses inside the executor after each compaction when armed."""

    armed = False

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.applied = threading.Event()
        self.release = threading.Event()

    def graph(self):
        part = super().graph()
        if self.armed:
            self.applied.set()
            self.release.wait(30)
        return part


def _graph(seed):
    src, dst = generate_edges(SCALE, seed=seed)
    inc = PausingGraph(src, dst, N, ProcessMesh(2, 2), e_threshold=E_THR, h_threshold=H_THR)
    lo, hi = inc.edges()
    spec = UpdateSpec("mixed", batches=2, size=lo.size // 100)
    batches = generate_update_stream(lo, hi, N, spec, seed=seed)
    return inc, batches


def _valid_for_any(parent, root, edge_sets) -> bool:
    for lo, hi in edge_sets:
        try:
            validate_bfs_result(build_csr(*symmetrize_edges(lo, hi), N), root, parent)
        except AssertionError:
            continue
        return True
    return False


async def _query_during_ingest(submit, ingest, inc, roots):
    """Arm the pause, start ``ingest``, query while it is paused."""
    inc.armed = True
    task = asyncio.create_task(ingest())
    loop = asyncio.get_running_loop()
    try:
        assert await loop.run_in_executor(None, inc.applied.wait, 30)

        async def one(root):
            try:
                return (await asyncio.wait_for(submit(root), TIMEOUT_S)).parent
            except Exception as exc:
                return exc

        return await asyncio.gather(*(one(r) for r in roots))
    finally:
        inc.release.set()
        await asyncio.wait_for(task, 30)


def _roots(degrees, count=32):
    return [int(r) for r in np.flatnonzero(np.asarray(degrees) > 0)[:count]]


def _assert_answers(answers, roots, edge_sets):
    failures = [
        (root, ans)
        for root, ans in zip(roots, answers)
        if isinstance(ans, Exception) or not _valid_for_any(ans, root, edge_sets)
    ]
    assert not failures, f"{len(failures)} of {len(roots)} queries failed: {failures[:3]}"


@pytest.mark.xfail(strict=True, reason="served engine aliases IncrementalGraph's live partition")
def test_traversal_service_answers_queries_during_ingest():
    from repro.serve.msbfs import MultiSourceBFS
    from repro.serve.service import TraversalService

    inc, batches = _graph(seed=3)
    engine = MultiSourceBFS(inc.graph(), config=BFSConfig(e_threshold=E_THR, h_threshold=H_THR))
    service = TraversalService(engine, dynamic=inc, batch_window=0.0)
    before = inc.edges()
    after = apply_updates(*before, batches[0], N)
    roots = _roots(inc.graph().degrees)

    async def main():
        await service.start()
        try:
            return await _query_during_ingest(
                service.submit, lambda: service.ingest_updates([batches[0]]), inc, roots
            )
        finally:
            try:
                await asyncio.wait_for(service.stop(), TIMEOUT_S)
            except Exception:
                pass  # the crashed flusher re-raises here

    _assert_answers(asyncio.run(main()), roots, [before, after])


@pytest.mark.xfail(strict=True, reason="served engine aliases IncrementalGraph's live partition")
def test_cluster_service_answers_queries_during_second_ingest():
    from repro.cluster.service import ClusterService
    from repro.cluster.tenants import TenantSpec, build_registry

    spec = TenantSpec("gold", scale=SCALE, seed=3, slo_class="gold")
    registry = build_registry([spec])
    gold = registry["gold"]
    inc, batches = _graph(seed=3)
    gold.dynamic = inc
    cluster = ClusterService(registry, replicas=2, batch_window=0.0)
    lo, hi = canonical_edges(*generate_edges(SCALE, seed=3), N)
    first = apply_updates(lo, hi, batches[0], N)
    second = apply_updates(*first, batches[1], N)
    roots = _roots(gold.degrees)

    async def main():
        await cluster.start()
        try:
            # The first ingestion swaps in an engine built on the live
            # partition; the second one mutates it under the queries.
            await cluster.ingest_updates("gold", [batches[0]])
            return await _query_during_ingest(
                lambda r: cluster.submit("gold", r),
                lambda: cluster.ingest_updates("gold", [batches[1]]),
                inc,
                roots,
            )
        finally:
            try:
                await asyncio.wait_for(cluster.stop(), TIMEOUT_S)
            except Exception:
                pass  # a crashed replica loop re-raises here

    _assert_answers(asyncio.run(main()), roots, [first, second])
