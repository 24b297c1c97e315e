"""``graph500``: the paper's pipeline on the host clock.

generate (R-MAT, SCALE 16) -> ``partition_graph`` on a 2x2 mesh with the
tuned thresholds -> 64 ``sample_roots`` roots -> ``DistributedBFS.run``
per root -> ``validate_bfs_result`` per root.  It mirrors
``repro.graph500.driver.run_graph500`` step by step, so its simulated
ledgers are the CLI's, and it never enters ``serve``, ``cluster`` or
``dynamic``.

Set-up is everything before the first BFS: generation, the partition
build, the engine, root sampling and the validator's CSR.  The run makes
``ROUNDS`` rounds of set-up followed by one BFS of each of the 64 roots,
so every figure's samples are spread over the whole run; round ``k``
validates the roots whose index is ``k`` modulo ``ROUNDS``, and every
later round's parents must equal the first round's.  A root's BFS time
is its median over the rounds; ``setup_s`` is the median set-up.  The
pipeline time adds the median set-up, each root's median BFS time and
each root's validation.  ``--seconds`` does not change the work, since
the pipeline is a fixed amount of it.

Simulated-clock guard: each root's simulated seconds and ledger bytes
must equal the values pinned in ``sim_pins.json`` (``pin_sim.py`` writes
them); a mismatch is a failed operation.  The pins cover the graph seeds
``0 .. PINNED_SEEDS - 1``, and the command's ``--seed`` picks the graph
seed it equals modulo ``PINNED_SEEDS``, so every seed runs checked.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

import layers
import stats
from common import Outcome

SCALE = 16
ROWS, COLS = 2, 2
NUM_ROOTS = 64
ROUNDS = 5
#: Roots per pass of the tracing-overhead measurement.
OVERHEAD_ROOTS = 16
#: Per-layer metric prefixes of layers this workload never enters.
LAYERS_ELSEWHERE = ("serve.", "load.")
PINS = Path(__file__).resolve().parent / "sim_pins.json"
#: Graph seeds with pinned simulated ledgers: ``0 .. PINNED_SEEDS - 1``.
PINNED_SEEDS = 128


class Pipeline:
    """One set-up of the pipeline, with the time each step took."""

    def __init__(self, seed: int, tracer=None) -> None:
        from repro.analysis.experiments import tuned_thresholds
        from repro.core.config import BFSConfig
        from repro.core.engine import DistributedBFS
        from repro.core.partition import partition_graph
        from repro.graph500.driver import sample_roots
        from repro.graph500.rmat import generate_edges
        from repro.graphs.csr import build_csr, symmetrize_edges
        from repro.machine.network import MachineSpec
        from repro.runtime.mesh import ProcessMesh

        clock = time.perf_counter
        t0 = clock()
        self.src, self.dst = generate_edges(SCALE, seed=seed)
        t1 = clock()
        n = 1 << SCALE
        p = ROWS * COLS
        e_thr, h_thr = tuned_thresholds(SCALE)
        self.machine = MachineSpec(num_nodes=p, nodes_per_supernode=COLS).scaled_for(
            self.src.size / p
        )
        mesh = ProcessMesh(ROWS, COLS, machine=self.machine)
        t2 = clock()
        self.part = partition_graph(
            self.src, self.dst, n, mesh, e_threshold=e_thr, h_threshold=h_thr
        )
        t3 = clock()
        self.config = BFSConfig(e_threshold=e_thr, h_threshold=h_thr)
        self.engine = DistributedBFS(
            self.part, machine=self.machine, config=self.config, tracer=tracer
        )
        self.roots = sample_roots(
            self.part.degrees, NUM_ROOTS, rng=np.random.default_rng(seed)
        )
        t4 = clock()
        self.graph = build_csr(*symmetrize_edges(self.src, self.dst), n)
        t5 = clock()
        self.num_edges = int(self.src.size)
        self.setup_s = t5 - t0
        self.generate_s = t1 - t0
        self.partition_s = t3 - t2
        self.csr_s = t5 - t4
        self.intervals = [
            stats.Interval("graph500.generate", t0, t1),
            stats.Interval("core.partition.build", t2, t3),
            stats.Interval("graphs.csr_build", t4, t5),
        ]

    def new_engine(self, tracer=None):
        from repro.core.engine import DistributedBFS

        return DistributedBFS(
            self.part, machine=self.machine, config=self.config, tracer=tracer
        )


def graph_seed(seed: int) -> int:
    """The pinned graph seed that the command's ``--seed`` stands for."""
    return seed % PINNED_SEEDS


def load_pins(seed: int) -> dict:
    """The pinned simulated ledgers of graph seed ``seed``; exits with
    code 2 if ``sim_pins.json`` lacks them."""
    seeds = json.loads(PINS.read_text())["seeds"] if PINS.is_file() else {}
    if str(seed) not in seeds:
        print(
            f"error: seed {seed} has no pinned simulated ledgers in {PINS.name}; "
            f"pin it first with: python3 perfbench/pin_sim.py {seed} {seed}",
            file=sys.stderr,
        )
        raise SystemExit(2)
    return seeds[str(seed)]


def run_round(pipe: Pipeline, records: list, pins: dict, validate) -> None:
    """One BFS per root on ``pipe``; validates root ``i`` if ``validate(i)``.

    The first round fills ``records``; later rounds must reproduce its
    parents exactly.  Every round's roots, simulated seconds and ledger
    bytes must equal ``pins``.
    """
    from repro.graph500.validate import validate_bfs_result

    clock = time.perf_counter
    first = not records
    for i, root in enumerate(pipe.roots):
        if first:
            records.append(
                {"root": int(root), "error": None, "wrong": False, "sim_ok": True, "bfs_s": []}
            )
        rec = records[i]
        if rec["error"] is not None:
            continue
        t0 = clock()
        try:
            res = pipe.engine.run(int(root))
        except Exception as exc:
            rec["error"] = type(exc).__name__
            continue
        t1 = clock()
        rec["bfs_s"].append(t1 - t0)
        sim = (res.total_seconds, res.ledger.total_bytes)
        if first:
            rec["parent"], rec["sim"] = res.parent, sim
        elif not np.array_equal(res.parent, rec["parent"]):
            rec["wrong"] = True
        want = (pins["sim_seconds"][i], pins["bytes"][i])
        if sim != want or pins["roots"][i] != int(root):
            rec["sim_ok"] = False
        if validate(i):
            try:
                validate_bfs_result(
                    pipe.graph, int(root), res.parent, edge_src=pipe.src, edge_dst=pipe.dst
                )
            except AssertionError:
                rec["wrong"] = True
            t2 = clock()
            rec["validate_s"] = t2 - t1
            rec["interval"] = stats.Interval("graph500.validate", t1, t2)


def _failed(rec) -> bool:
    return rec["error"] is not None or rec["wrong"] or not rec["sim_ok"]


def _summary(pipe: Pipeline, records) -> tuple[int, int, dict]:
    failed = sum(_failed(r) for r in records)
    wrong = sum(r["wrong"] for r in records)
    ok = [r for r in records if not _failed(r)]
    bfs = [stats.median(r["bfs_s"]) for r in ok]
    report = {
        "roots": len(records),
        "validated": len(records) - wrong - sum(r["error"] is not None for r in records),
        "sim_mismatches": sum(not r["sim_ok"] for r in records),
        "sim_gteps_hmean": (
            stats.harmonic_mean_teps(pipe.num_edges, [r["sim"][0] for r in ok]) / 1e9
            if ok
            else 0.0
        ),
        "host_mteps": stats.harmonic_mean_teps(pipe.num_edges, bfs) / 1e6 if bfs else 0.0,
        "bfs_ms_p50": 1e3 * stats.median(bfs),
        "bfs_ms_p75": 1e3 * stats.pct(bfs, 75),
        "validate_ms_p50": 1e3 * stats.median([r["validate_s"] for r in ok]),
    }
    return failed, wrong, report


def run(*, seed: int, seconds: float, trace: bool) -> Outcome:
    seed = graph_seed(seed)
    pins = load_pins(seed)
    if trace:
        return _run_traced(seed, pins)
    records: list = []
    setups = []
    for k in range(ROUNDS):
        pipe = None  # release the previous set-up before building the next
        pipe = Pipeline(seed)
        setups.append(pipe.setup_s)
        run_round(pipe, records, pins, lambda i, k=k: i % ROUNDS == k)
    failed, wrong, report = _summary(pipe, records)
    ok_bfs = [stats.median(r["bfs_s"]) for r in records if not _failed(r)]
    graph500_s = (
        stats.median(setups)
        + sum(stats.median(r["bfs_s"]) for r in records if r["bfs_s"])
        + sum(r.get("validate_s", 0.0) for r in records)
    )
    report.update(graph_seed=seed, graph500_s=graph500_s, setup_s_each=setups)
    metrics = {
        "setup_s": stats.median(setups),
        "p50_ms": report["bfs_ms_p50"],
        "tail_ms": report["bfs_ms_p75"],
        # Validated roots per second of BFS time: |E| / this = host TEPS.
        "goodput_per_s": len(ok_bfs) / sum(ok_bfs) if ok_bfs else 0.0,
        "work_s": graph500_s,
    }
    return Outcome(len(records), failed, wrong, metrics, report)


def _run_traced(seed: int, pins) -> Outcome:
    from repro.obs.tracer import Tracer

    tracer = Tracer()
    targets = {**layers.engine_targets(), **layers.partition_targets()}
    t0 = time.perf_counter()
    records: list = []
    with layers.Timers(targets) as timers:
        pipe = Pipeline(seed, tracer=tracer)
        t_loop = time.perf_counter()
        run_round(pipe, records, pins, lambda i: True)
    t_end = time.perf_counter()
    e2e = t_end - t0

    intervals = (
        timers.intervals(main=True)
        + layers.tracer_intervals(tracer)
        + pipe.intervals
        + [r["interval"] for r in records if "interval" in r]
    )
    selfs = stats.self_times(intervals)
    loop = [(t_loop, t_end)]
    loop_selfs = stats.self_times(layers.within(intervals, loop))
    failed, wrong, report = _summary(pipe, records)
    report["graph_seed"] = seed
    metrics = {
        "graph500.generate_s": pipe.generate_s,
        "core.partition.build_s": pipe.partition_s,
        "core.partition.classify_s": selfs.get("core.partition.classify", 0.0),
        "core.partition.place_arcs_s": selfs.get("core.partition.place_arcs", 0.0),
        "core.subgraphs.build_s": selfs.get("core.subgraphs.build", 0.0),
        "graphs.csr_build_s": pipe.csr_s,
        "graph500.validate_ms_p50": report["validate_ms_p50"],
        **layers.engine_layer_metrics(loop_selfs, timers, tracer, len(records), loop),
        "trace.attributed_frac": sum(selfs.values()) / e2e,
    }

    roots = [int(r) for r in pipe.roots[:OVERHEAD_ROOTS]]
    plain, traced = pipe.new_engine(), pipe.new_engine(Tracer())

    def traced_pass():
        with layers.Timers(layers.engine_targets()):
            for root in roots:
                traced.run(root)

    metrics["trace.overhead_frac"] = layers.overhead(
        lambda: [plain.run(root) for root in roots], traced_pass
    )
    return Outcome(len(records), failed, wrong, metrics, report)
