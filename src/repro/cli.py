"""Command-line interface: ``python -m repro <command>``.

Subcommands mirror the library's experiment drivers:

- ``graph500`` — the official benchmark flow (generation, construction,
  N roots, validation, official statistics block).
- ``bfs`` — one BFS with the full per-iteration trace.
- ``sweep`` — the weak-scaling ladder (Fig. 9 data).
- ``partitions`` — the four partitioning methods side by side (Table 1).
- ``ocs`` — the Fig. 14 bucketing microbenchmark.
- ``report`` — run the benchmark metered and write a
  :class:`~repro.obs.report.RunReport` JSON artifact (plus optional
  Prometheus text and Chrome trace exports).
- ``compare OLD NEW`` — diff two RunReport artifacts; exits non-zero
  when a tracked metric regresses past ``--max-regress`` (the CI perf
  gate).
- ``chaos`` — run a fault matrix against the fault-free golden run and
  assert every recovered parent tree matches it (the CI chaos gate).
- ``mutate`` — stream seeded edge-update batches through the
  incremental partition repair path and check the repaired graph
  bit-for-bit against a from-scratch rebuild; ``--smoke`` runs the
  pinned equivalence-gate matrix (the CI dynamic gate).
- ``serve`` — run a seeded query workload through the serving core
  (per-tenant bounded queues, batching window, result cache, replicas);
  ``--validate`` checks every response bit-for-bit against a sequential
  run.  Without ``--tenants`` the graph is one tenant on one replica
  driven by closed-loop clients; ``--tenants`` serves M resident tenant
  graphs from N replicas behind a weighted-fair router with per-tenant
  quotas and SLOs, driven by a seeded diurnal workload; ``--smoke`` runs
  the pinned slo-smoke gate (validation plus a mid-run replica kill
  drill).
- ``bench-serve`` — the serving benchmark: the deterministic
  amortization sweep (batched vs sequential simulated cost per query)
  plus an end-to-end wall-clock service sweep.

``graph500`` and ``bfs`` accept the resilience flags ``--faults SPEC``
(see :mod:`repro.resilience.faults` for the grammar), ``--checkpoint-every
N``, ``--max-restarts`` and ``--recovery-mode``; a malformed spec exits 2
with a usage message.

All output is plain text; ``--csv PATH`` additionally writes machine-
readable results where it applies.  ``graph500`` and ``bfs`` accept
``--trace out.json`` to record the run with :mod:`repro.obs` and export
a Chrome ``trace_event`` file (open in ``chrome://tracing`` or
https://ui.perfetto.dev); ``bfs`` additionally accepts ``--flame`` to
print the span-tree summary.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

import numpy as np

__all__ = ["main", "build_parser"]


def _mesh_arg(value: str) -> tuple[int, int]:
    """Parse 'RxC' mesh shapes."""
    try:
        rows, cols = value.lower().split("x")
        out = (int(rows), int(cols))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"mesh must look like 8x8, got {value!r}"
        ) from exc
    if out[0] < 1 or out[1] < 1:
        raise argparse.ArgumentTypeError("mesh dimensions must be positive")
    return out


def _positive_float_arg(value: str) -> float:
    """Parse a strictly positive float (``--delta``, ``--tol``)."""
    try:
        out = float(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected a number, got {value!r}"
        ) from exc
    if not out > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value!r}")
    return out


def _damping_arg(value: str) -> float:
    """Parse a PageRank damping factor in the open interval (0, 1)."""
    try:
        out = float(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected a number, got {value!r}"
        ) from exc
    if not 0.0 < out < 1.0:
        raise argparse.ArgumentTypeError(
            f"damping must be in (0, 1), got {value!r}"
        )
    return out


def _positive_int(name: str):
    """An argparse ``type`` parsing an integer ``name`` that must be >= 1
    (``--replicas``, ``--quota``)."""

    def parse(value: str) -> int:
        try:
            out = int(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {value!r}"
            ) from exc
        if out < 1:
            raise argparse.ArgumentTypeError(
                f"{name} must be >= 1, got {value!r}"
            )
        return out

    return parse


def _slo_arg(value: str):
    """Parse and validate an ``--slo`` spec at argument time."""
    from repro.obs.slo import parse_slo_spec

    try:
        return parse_slo_spec(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _tenants_arg(value: str) -> str:
    """Validate a ``--tenants`` spec (count or name:class list) at
    argument time; the spec is re-parsed with the effective scale/mesh/
    seed later, so the validated raw string is returned."""
    from repro.cluster.tenants import parse_tenant_spec

    try:
        parse_tenant_spec(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return value


def _faults_arg(value: str):
    """Parse and validate a ``--faults`` spec at argument time, so a
    malformed spec exits 2 with usage instead of a mid-run traceback."""
    from repro.resilience.faults import FaultSpecError, parse_fault_spec

    try:
        return parse_fault_spec(value)
    except FaultSpecError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _updates_arg(value: str):
    """Parse and validate an ``--updates`` spec at argument time, so a
    malformed spec exits 2 with usage, matching ``--faults``."""
    from repro.dynamic.updates import UpdateSpecError, parse_update_spec

    try:
        return parse_update_spec(value)
    except UpdateSpecError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


#: The CI chaos gate's default scenarios: one of each recoverable
#: failure mode (crash + checkpoint restore, dropped message retries,
#: straggler slowdown).
DEFAULT_CHAOS_MATRIX = (
    "crash:rank=1,iter=2",
    "drop:phase=L2L,count=2,retries=2",
    "straggler:rank=0,factor=4,phase=EH2EH",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Scaling Graph Traversal to 281 Trillion "
            "Edges with 40 Million Cores' (PPoPP 2022) on a simulated "
            "New Sunway machine."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scale", type=int, default=14, help="Graph500 SCALE")
    common.add_argument(
        "--mesh", type=_mesh_arg, default=(8, 8), help="process mesh, e.g. 16x16"
    )
    common.add_argument("--seed", type=int, default=1)
    common.add_argument("--e-threshold", type=int, default=None)
    common.add_argument("--h-threshold", type=int, default=None)

    trace_help = "write a Chrome trace_event JSON of the run to PATH"

    resil = argparse.ArgumentParser(add_help=False)
    resil.add_argument(
        "--faults", type=_faults_arg, default=None, metavar="SPEC",
        help="inject faults, e.g. 'crash:rank=3,iter=2;drop:phase=L2L,count=2'",
    )
    resil.add_argument(
        "--checkpoint-every", type=int, default=0, metavar="N",
        help="snapshot BFS state every N levels (0 = off)",
    )
    resil.add_argument("--max-restarts", type=int, default=3)
    resil.add_argument(
        "--recovery-mode", choices=("restart", "degrade"), default="restart"
    )

    g5 = sub.add_parser(
        "graph500", parents=[common, resil],
        help="official benchmark flow",
    )
    g5.add_argument("--roots", type=int, default=8, help="BFS roots (64 = conforming)")
    g5.add_argument("--no-validate", action="store_true")
    g5.add_argument("--trace", metavar="PATH", default=None, help=trace_help)
    g5.add_argument(
        "--batch-roots", action="store_true",
        help="run roots through the multi-source batch engine (up to 64 "
             "per traversal; parents bit-identical, times amortized)",
    )

    bfs = sub.add_parser(
        "bfs", parents=[common, resil], help="one traced BFS run"
    )
    bfs.add_argument("--root", type=int, default=None, help="default: max-degree hub")
    bfs.add_argument(
        "--timeline",
        action="store_true",
        help="print the per-iteration component/time matrix",
    )
    bfs.add_argument("--trace", metavar="PATH", default=None, help=trace_help)
    bfs.add_argument(
        "--flame",
        action="store_true",
        help="print the flame-style span summary (implies tracing)",
    )

    sweep = sub.add_parser("sweep", help="weak-scaling ladder (Fig. 9)")
    sweep.add_argument(
        "--points",
        default="12:4x4,14:8x8,16:16x16",
        help="comma-separated scale:RxC ladder",
    )
    sweep.add_argument("--seed", type=int, default=1)

    parts = sub.add_parser(
        "partitions", parents=[common], help="partitioning methods (Table 1)"
    )
    del parts  # no extra flags beyond the common set

    rep = sub.add_parser(
        "report", parents=[common],
        help="metered benchmark run -> RunReport JSON artifact",
    )
    rep.add_argument("--roots", type=int, default=8, help="BFS roots")
    rep.add_argument("--out", metavar="PATH", default=None,
                     help="RunReport JSON destination (default: stdout render)")
    rep.add_argument("--prometheus", metavar="PATH", default=None,
                     help="also write Prometheus text exposition of the registry")
    rep.add_argument("--metrics-json", metavar="PATH", default=None,
                     help="also write the registry as schema-tagged JSON "
                          "(counters, gauges, histogram buckets)")
    rep.add_argument("--trace", metavar="PATH", default=None, help=trace_help)
    rep.add_argument("--smoke", action="store_true",
                     help="use the pinned SCALE-10 smoke configuration "
                          "(ignores --scale/--mesh/--seed; matches the "
                          "committed CI baseline)")

    cmp_p = sub.add_parser(
        "compare", help="diff two RunReport artifacts (perf-regression gate)"
    )
    cmp_p.add_argument("old", metavar="OLD", help="baseline RunReport JSON")
    cmp_p.add_argument("new", metavar="NEW", help="candidate RunReport JSON")
    cmp_p.add_argument("--max-regress", default="5%",
                       help="allowed relative regression, e.g. 5%% or 0.05")

    chaos = sub.add_parser(
        "chaos", parents=[common],
        help="fault matrix vs. the fault-free golden run (CI chaos gate)",
    )
    chaos.add_argument("--roots", type=int, default=4, help="BFS roots per run")
    chaos.add_argument(
        "--smoke", action="store_true",
        help="use the pinned SCALE-10 smoke configuration "
             "(ignores --scale/--mesh/--seed)",
    )
    chaos.add_argument(
        "--matrix", default=None, metavar="SPECS",
        help="'|'-separated fault specs (default: one crash, one drop, "
             "one straggler scenario)",
    )
    chaos.add_argument(
        "--checkpoint-every", type=int, default=1, metavar="N",
        help="checkpoint cadence during faulty runs",
    )

    serve = sub.add_parser(
        "serve", parents=[common],
        help="serve a seeded query workload through the batched "
             "traversal service",
    )
    serve.add_argument("--queries", type=int, default=256,
                       help="total queries in the workload")
    serve.add_argument("--clients", type=int, default=32,
                       help="concurrent closed-loop clients")
    serve.add_argument("--batch-size", type=int, default=64,
                       help="roots per batch (flush threshold, max 64)")
    serve.add_argument("--queue-depth", type=int, default=256,
                       help="admission-control queue bound (the single "
                            "graph's tenant quota)")
    serve.add_argument("--batch-window", type=float, default=0.005,
                       metavar="SECONDS", help="batching window deadline")
    serve.add_argument("--hot-fraction", type=float, default=0.5,
                       help="fraction of queries drawn from the hot set")
    serve.add_argument("--hot-set", type=int, default=16,
                       help="hot-set size (repeat roots exercise the cache)")
    serve.add_argument("--validate", action="store_true",
                       help="check every response bit-for-bit against a "
                            "sequential run of the same root")
    serve.add_argument("--faults", type=_faults_arg, default=None,
                       metavar="SPEC",
                       help="inject faults into batches (crash -> replay)")
    serve.add_argument("--min-hit-rate", type=float, default=None,
                       metavar="FRACTION",
                       help="fail unless the cache hit rate reaches this "
                            "(the CI smoke gates > 0 on repeats)")
    serve.add_argument("--out", metavar="PATH", default=None,
                       help="write the session's JSON summary (per-tenant "
                            "counters, workload report, SLOs, replicas)")
    serve.add_argument("--trace", metavar="PATH", default=None,
                       help="write the session's Chrome trace (wall clock; "
                            "one track per request)")
    serve.add_argument("--telemetry-port", type=int, default=None,
                       metavar="PORT",
                       help="start the live telemetry endpoint (/metrics, "
                            "/healthz, /slo, /timeline, /trace/<id>) on this "
                            "port (0 = ephemeral) and self-scrape it during "
                            "the run")
    serve.add_argument("--telemetry-interval", type=float, default=0.05,
                       metavar="SECONDS",
                       help="sampler and self-scrape cadence")
    serve.add_argument("--slo", type=_slo_arg, action="append", default=None,
                       metavar="SPEC",
                       help="SLO spec stage:threshold:objective[:window], "
                            "repeatable; replaces every tenant's class SLOs "
                            "(a single graph defaults to total:0.25:0.99)")
    serve.add_argument("--straggler-ms", type=float, default=None,
                       metavar="MS",
                       help="wall-clock straggler injection: every batch "
                            "sleeps this long before traversal (drives the "
                            "SLO monitor in the CI smoke)")
    serve.add_argument("--expect-slo", choices=("green", "fired"),
                       default=None,
                       help="fail unless the final SLO status matches "
                            "(green = ok with no alerts; fired = degraded "
                            "or alerted)")
    serve.add_argument("--tenants", type=_tenants_arg, default=None,
                       metavar="SPEC",
                       help="multi-tenant mode: a tenant count (3) or "
                            "name:class list (search:gold,feed:silver); "
                            "classes gold|silver|bronze set quota, weight "
                            "and SLOs; each tenant serves its own seeded "
                            "graph behind the cluster router (without it, "
                            "the graph is one tenant on one replica)")
    serve.add_argument("--replicas", type=_positive_int("replicas"), default=2,
                       metavar="N",
                       help="service replicas in multi-tenant mode (>= 1)")
    serve.add_argument("--quota", type=_positive_int("quota"), default=None, metavar="N",
                       help="override every tenant's admission quota "
                            "(default: the SLO class quota)")
    serve.add_argument("--duration", type=_positive_float_arg, default=0.5,
                       metavar="SECONDS",
                       help="diurnal workload duration in multi-tenant mode")
    serve.add_argument("--smoke", action="store_true",
                       help="pinned multi-tenant smoke: SCALE-9 tenant "
                            "graphs on 2x2 meshes, seeded diurnal workload, "
                            "bit-exact validation, and a mid-run replica "
                            "kill drill when --replicas >= 2 (the CI "
                            "slo-smoke gate; implies --tenants 3 unless "
                            "given)")

    bserve = sub.add_parser(
        "bench-serve", parents=[common],
        help="batched-serving benchmark: amortization + throughput sweep",
    )
    bserve.add_argument("--queries", type=int, default=256)
    bserve.add_argument("--batch-sizes", default="1,4,16,64",
                        help="comma-separated batch sizes for the "
                             "amortization sweep")
    bserve.add_argument("--queue-depths", default="64,256",
                        help="comma-separated queue depths for the "
                             "service sweep")
    bserve.add_argument("--windows", default="0.005",
                        help="comma-separated batching windows (seconds)")
    bserve.add_argument("--clients", type=int, default=None,
                        help="closed-loop clients (default: 2x batch size)")
    bserve.add_argument("--json", metavar="PATH", default=None,
                        help="write the sweep as a JSON artifact")

    mut = sub.add_parser(
        "mutate", parents=[common],
        help="streaming edge updates: incremental partition repair "
             "checked against a from-scratch rebuild",
    )
    mut.add_argument("--updates", type=_updates_arg, default=None,
                     metavar="SPEC",
                     help="update stream spec KIND[:key=value,...] with "
                          "KIND insert|delete|mixed and keys batches=, "
                          "size=, frac= (e.g. 'mixed:batches=4,size=64')")
    mut.add_argument("--batch-size", type=int, default=None, metavar="N",
                     help="override the spec's updates-per-batch size")
    mut.add_argument("--compact-every", type=int, default=4, metavar="N",
                     help="merge delta overlays into the packed arrays "
                          "every N batches")
    mut.add_argument("--smoke", action="store_true",
                     help="run the pinned equivalence-gate matrix "
                          "(insert/delete/mixed streams over R-MAT, "
                          "power-law and ring graphs; ignores --updates/"
                          "--scale/--mesh; the CI dynamic gate)")

    ocs = sub.add_parser("ocs", help="OCS-RMA microbenchmark (Fig. 14)")
    ocs.add_argument("--mib", type=int, default=32, help="stream size in MiB")
    ocs.add_argument("--seed", type=int, default=1)

    algo = sub.add_parser(
        "algo", parents=[common, resil],
        help="run a registered vertex program (sssp, pagerank, cc, ...)",
    )
    algo.add_argument(
        "program", nargs="?", default=None, metavar="PROGRAM",
        help="registered program name (see --list)",
    )
    algo.add_argument("--root", type=int, default=None,
                      help="source vertex for traversal programs "
                           "(default: max-degree hub)")
    algo.add_argument("--delta", type=_positive_float_arg, default=None,
                      metavar="WIDTH",
                      help="bucket width for sssp-delta (default: tuned)")
    algo.add_argument("--damping", type=_damping_arg, default=None,
                      help="PageRank damping factor in (0, 1)")
    algo.add_argument("--tol", type=_positive_float_arg, default=None,
                      help="PageRank convergence tolerance")
    algo.add_argument("--max-iterations", type=int, default=None,
                      metavar="N", help="iteration cap where the program "
                                        "takes one")
    algo.add_argument("--unit-weights", action="store_true",
                      help="run SSSP programs with unit weights instead "
                           "of the seeded weight table")
    algo.add_argument("--report", metavar="PATH", default=None,
                      help="write the run's RunReport JSON artifact")
    algo.add_argument("--trace", metavar="PATH", default=None, help=trace_help)
    algo.add_argument("--smoke", action="store_true",
                      help="run every registered program on the pinned "
                           "SCALE-12 smoke graph (ignores PROGRAM and "
                           "--scale/--mesh/--seed; matches the committed "
                           "CI baseline)")
    algo.add_argument("--list", action="store_true",
                      help="list registered programs and exit")

    return parser


def _write_trace(tracer, path) -> bool:
    from repro.obs.export import write_chrome_trace

    try:
        events = write_chrome_trace(tracer, path)
    except OSError as exc:
        print(f"error: cannot write trace to {path}: {exc}", file=sys.stderr)
        return False
    print(f"trace: {events} spans -> {path}")
    return True


def _cmd_graph500(args) -> int:
    from repro.graph500.driver import run_graph500
    from repro.obs.tracer import Tracer

    tracer = Tracer() if args.trace else None
    rows, cols = args.mesh
    report = run_graph500(
        args.scale,
        rows,
        cols,
        seed=args.seed,
        num_roots=args.roots,
        e_threshold=args.e_threshold,
        h_threshold=args.h_threshold,
        validate=not args.no_validate,
        tracer=tracer,
        faults=args.faults,
        checkpoint_every=args.checkpoint_every,
        max_restarts=args.max_restarts,
        recovery_mode=args.recovery_mode,
        batch_roots=args.batch_roots,
    )
    print(report.render())
    print(f"harmonic_mean_GTEPS: {report.mean_gteps:.3f}")
    if report.resilience is not None:
        r = report.resilience
        print(
            "resilience: "
            f"{r.get('faults_fired', 0)} faults fired, "
            f"{r['crashes']} crash(es), {r['restarts']} restart(s), "
            f"{r.get('retries', 0)} retried transfer(s), "
            f"wasted {r['wasted_seconds']:.3e} s"
        )
    wrote = _write_trace(tracer, args.trace) if tracer is not None else True
    return 0 if report.validated and wrote else 1


def _cmd_bfs(args) -> int:
    from repro.analysis.experiments import build_setup, run_15d
    from repro.analysis.reporting import ascii_table, format_seconds
    from repro.obs.tracer import Tracer

    tracer = Tracer() if (args.trace or args.flame) else None
    rows, cols = args.mesh
    setup = build_setup(args.scale, rows, cols, seed=args.seed)
    if args.root is not None:
        setup = type(setup)(
            setup.scale, setup.src, setup.dst, setup.num_vertices,
            setup.mesh, setup.machine, args.root,
        )
    part, res = run_15d(
        setup, e_threshold=args.e_threshold, h_threshold=args.h_threshold,
        tracer=tracer,
        faults=args.faults,
        checkpoint_every=args.checkpoint_every,
        max_restarts=args.max_restarts,
        recovery_mode=args.recovery_mode,
    )
    print(f"classes: {part.class_sizes()}")
    print(ascii_table(
        ["iter", "frontier"] + list(res.iterations[0].directions),
        [
            [r.index, r.frontier_size] + list(r.directions.values())
            for r in res.iterations
        ],
        title="per-iteration directions:",
    ))
    print(f"visited: {res.num_visited:,}/{setup.num_vertices:,} | "
          f"time: {format_seconds(res.total_seconds)} | "
          f"sim GTEPS: {setup.num_edges / res.total_seconds / 1e9:.1f}")
    resilient = getattr(res, "resilient", None)
    if resilient is not None:
        print(f"resilience: {resilient.summary()}")
    if args.timeline:
        from repro.analysis.timeline import render_timeline

        print()
        print(render_timeline(res, tracer=tracer))
    if args.flame:
        from repro.obs.export import render_flame

        print()
        print(render_flame(tracer))
    if args.trace and not _write_trace(tracer, args.trace):
        return 1
    return 0


def _cmd_sweep(args) -> int:
    from repro.analysis.experiments import run_scaling_sweep
    from repro.analysis.reporting import ascii_table

    points = []
    for token in args.points.split(","):
        scale_s, mesh_s = token.strip().split(":")
        rows, cols = _mesh_arg(mesh_s)
        points.append((int(scale_s), rows, cols))
    sweep = run_scaling_sweep(points=tuple(points), seed=args.seed)
    base = sweep[0]
    print(ascii_table(
        ["nodes", "scale", "sim GTEPS", "efficiency"],
        [
            [
                p.nodes, p.scale, f"{p.gteps:.1f}",
                f"{100 * p.gteps / (base.gteps * p.nodes / base.nodes):.0f}%",
            ]
            for p in sweep
        ],
        title="weak scaling:",
    ))
    return 0


def _cmd_partitions(args) -> int:
    from repro.analysis.experiments import run_partition_comparison
    from repro.analysis.reporting import ascii_table

    rows, cols = args.mesh
    rows_out = run_partition_comparison(
        points=((args.scale, rows, cols),), seed=args.seed
    )
    print(ascii_table(
        ["method", "sim GTEPS", "delegate KiB/node", "comm MB"],
        [
            [
                r["method"], f"{r['gteps']:.1f}",
                f"{r['delegate_bytes_per_node'] / 1024:.1f}",
                f"{r['comm_bytes'] / 1e6:.2f}",
            ]
            for r in rows_out
        ],
        title=f"partitioning methods at SCALE {args.scale}, {rows * cols} nodes:",
    ))
    return 0


def _cmd_report(args) -> int:
    from repro.graph500.driver import run_graph500
    from repro.obs.metrics import MetricsRegistry, to_prometheus_text
    from repro.obs.report import bfs_smoke_report, report_from_graph500
    from repro.obs.tracer import Tracer

    registry = MetricsRegistry()
    tracer = Tracer() if args.trace else None
    if args.smoke:
        report = bfs_smoke_report(metrics=registry, tracer=tracer)
    else:
        rows, cols = args.mesh
        g500 = run_graph500(
            args.scale, rows, cols,
            seed=args.seed, num_roots=args.roots,
            e_threshold=args.e_threshold, h_threshold=args.h_threshold,
            tracer=tracer, metrics=registry,
        )
        report = report_from_graph500(
            g500,
            context=dict(
                scale=args.scale, rows=rows, cols=cols, seed=args.seed,
                num_roots=args.roots,
                e_threshold=args.e_threshold, h_threshold=args.h_threshold,
            ),
        )
    if args.out:
        path = report.save(args.out)
        print(f"run report: {path}")
    else:
        print(report.render())
    if args.prometheus:
        from pathlib import Path

        prom = Path(args.prometheus)
        prom.parent.mkdir(parents=True, exist_ok=True)
        prom.write_text(to_prometheus_text(registry))
        print(f"prometheus: {args.prometheus}")
    if args.metrics_json:
        import json
        from pathlib import Path

        from repro.obs.metrics import registry_to_json

        dest = Path(args.metrics_json)
        dest.parent.mkdir(parents=True, exist_ok=True)
        dest.write_text(json.dumps(registry_to_json(registry), indent=2,
                                   sort_keys=True) + "\n")
        print(f"metrics json: {args.metrics_json}")
    if tracer is not None and not _write_trace(tracer, args.trace):
        return 1
    return 0


def _cmd_compare(args) -> int:
    from repro.obs.report import (
        RunReport,
        compare_reports,
        parse_threshold,
        render_compare,
    )

    try:
        threshold = parse_threshold(args.max_regress)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        old = RunReport.load(args.old)
        new = RunReport.load(args.new)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot load RunReport: {exc}", file=sys.stderr)
        return 2
    if old.fingerprint != new.fingerprint:
        print(
            "warning: config fingerprints differ "
            f"({old.fingerprint[:12]}... vs {new.fingerprint[:12]}...); "
            "metric deltas may reflect configuration, not code",
            file=sys.stderr,
        )
    deltas = compare_reports(old, new, threshold)
    print(render_compare(deltas, max_regress=threshold,
                         title=f"{args.old} -> {args.new}"))
    return 1 if any(d.regressed for d in deltas) else 0


def _cmd_ocs(args) -> int:
    from repro.analysis.reporting import ascii_bar_chart
    from repro.sort.bucket import mpe_bucket_sort
    from repro.sort.ocs import OCSConfig, simulate_ocs_rma

    rng = np.random.default_rng(args.seed)
    values = rng.integers(0, 2**63 - 1, size=args.mib * (1 << 20) // 8)
    buckets = values & 0xFF
    mpe = mpe_bucket_sort(values, buckets, 256)
    one = simulate_ocs_rma(values, buckets, 256, config=OCSConfig(num_cgs=1))
    six = simulate_ocs_rma(values, buckets, 256, config=OCSConfig(num_cgs=6))
    print(ascii_bar_chart(
        ["MPE", "1 CG", "6 CGs"],
        [
            mpe.throughput_bytes_per_s / 1e9,
            one.throughput_bytes_per_s / 1e9,
            six.throughput_bytes_per_s / 1e9,
        ],
        log=True,
        unit=" GB/s",
        title=f"bucketing {args.mib} MiB by low 8 bits:",
    ))
    print(f"6-CG utilization: {100 * six.bandwidth_utilization():.1f}%")
    return 0


def _cmd_algo(args) -> int:
    from repro.core.programs import PROGRAM_REGISTRY, available_programs

    if args.list:
        from repro.analysis.reporting import ascii_table

        print(ascii_table(
            ("program", "needs root", "description"),
            [
                (spec.name, "yes" if spec.needs_root else "no",
                 spec.description)
                for _, spec in sorted(PROGRAM_REGISTRY.items())
            ],
            title="registered vertex programs:",
        ))
        return 0

    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracer import Tracer

    registry = MetricsRegistry()
    tracer = Tracer() if args.trace else None

    if args.smoke:
        from repro.obs.report import programs_smoke_report

        report = programs_smoke_report(metrics=registry, tracer=tracer)
        if args.report:
            print(f"run report: {report.save(args.report)}")
        else:
            print(report.render())
        if tracer is not None and not _write_trace(tracer, args.trace):
            return 1
        return 0

    if args.program is None:
        print("error: choose a program (or pass --smoke / --list); "
              f"available: {', '.join(available_programs())}",
              file=sys.stderr)
        print("usage: see `repro algo --help`", file=sys.stderr)
        return 2
    spec = PROGRAM_REGISTRY.get(args.program)
    if spec is None:
        print(f"error: unknown program {args.program!r}; "
              f"available: {', '.join(available_programs())}",
              file=sys.stderr)
        print("usage: see `repro algo --help`", file=sys.stderr)
        return 2

    from repro.analysis.experiments import build_setup, tuned_thresholds
    from repro.analysis.reporting import format_seconds
    from repro.core import DistributedBFS, build_program, partition_graph
    from repro.obs.report import report_from_bfs, report_from_program

    rows, cols = args.mesh
    setup = build_setup(args.scale, rows, cols, seed=args.seed)
    e_thr, h_thr = args.e_threshold, args.h_threshold
    if e_thr is None or h_thr is None:
        e_thr, h_thr = tuned_thresholds(args.scale)
    part = partition_graph(
        setup.src, setup.dst, setup.num_vertices, setup.mesh,
        e_threshold=e_thr, h_threshold=h_thr,
    )
    root = args.root if args.root is not None else setup.root
    context = dict(
        scale=args.scale, rows=rows, cols=cols, seed=args.seed,
        e_threshold=e_thr, h_threshold=h_thr,
    )
    engine = DistributedBFS(
        part, machine=setup.machine, tracer=tracer, metrics=registry
    )

    if spec.native_bfs:
        res = engine.run(root)
        print(f"bfs: {res.num_iterations} levels, "
              f"visited {res.num_visited:,}/{setup.num_vertices:,}, "
              f"simulated {format_seconds(res.total_seconds)} "
              f"({res.simulated_gteps():.1f} GTEPS)")
        report = report_from_bfs(
            res, name="program.bfs", context={**context, "root": root},
            tracer=tracer,
        )
    else:
        params: dict = {}
        if spec.needs_root:
            params["root"] = root
        if args.program in ("sssp", "sssp-delta") and not args.unit_weights:
            from repro.core.programs import generate_weights

            params.update(
                weights=generate_weights(setup.src.size, seed=args.seed + 1),
                edge_src=setup.src, edge_dst=setup.dst,
            )
        if args.delta is not None and args.program == "sssp-delta":
            params["delta"] = args.delta
        if args.program == "pagerank":
            if args.damping is not None:
                params["damping"] = args.damping
            if args.tol is not None:
                params["tol"] = args.tol
        if args.max_iterations is not None and args.program in (
            "sssp", "pagerank"
        ):
            params["max_iterations"] = args.max_iterations
        try:
            program = build_program(args.program, part, **params)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            print("usage: see `repro algo --help`", file=sys.stderr)
            return 2

        resilience: dict = {}
        if args.faults is not None or args.checkpoint_every:
            from repro.resilience import (
                FaultInjector,
                LevelCheckpointer,
                RecoveryPolicy,
                run_program_with_recovery,
            )

            injector = None
            if args.faults is not None:
                injector = FaultInjector(
                    args.faults, rng=np.random.default_rng(args.scale)
                )
                injector.plan.validate(setup.mesh.num_ranks)
            recovered = run_program_with_recovery(
                engine, program,
                faults=injector,
                checkpointer=LevelCheckpointer(
                    every=args.checkpoint_every, mesh=setup.mesh
                ),
                policy=RecoveryPolicy(
                    max_restarts=args.max_restarts, mode=args.recovery_mode
                ),
            )
            res = recovered.result
        else:
            recovered = None
            res = engine.run_program(program)

        scalars = ", ".join(
            f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}"
            for k, v in sorted(res.info.items())
            if isinstance(v, (int, float, bool))
        )
        print(f"{res.program}: {res.num_iterations} iterations, "
              f"{'converged' if res.converged else 'not converged'}, "
              f"simulated {format_seconds(res.total_seconds)}")
        if scalars:
            print(f"  {scalars}")
        if recovered is not None:
            print(f"  resilience: {recovered.summary()}")
        report = report_from_program(res, context={**context, **{
            k: v for k, v in params.items()
            if isinstance(v, (int, float, bool, str))
        }})

    if args.report:
        print(f"run report: {report.save(args.report)}")
    if tracer is not None and not _write_trace(tracer, args.trace):
        return 1
    return 0


def _cmd_mutate(args) -> int:
    from repro.analysis.reporting import ascii_table, format_seconds
    from repro.dynamic.gate import (
        EquivalenceReport,
        parts_bitwise_equal,
        run_equivalence_gate,
    )
    from repro.obs.metrics import MetricsRegistry

    metrics = MetricsRegistry()
    if args.smoke:
        # The pinned gate matrix: small-world families at default batch
        # sizes (mostly recomputes) plus a long-diameter ring with tiny
        # batches, which forces the resume-from-level patched path.
        main_gate = run_equivalence_gate(metrics=metrics)
        ring_gate = run_equivalence_gate(
            families=("ring",), scale=8, batches=3, batch_size=3,
            metrics=metrics,
        )
        merged = EquivalenceReport(cases=main_gate.cases + ring_gate.cases)
        print(merged.summary())
        modes = merged.mode_counts()
        ok = merged.ok and modes.get("patched", 0) > 0
        print(f"dynamic gate: {'PASS' if ok else 'FAIL'} "
              f"({len(merged.cases)} streams, {merged.num_batches} batches, "
              f"patch modes {modes})")
        return 0 if ok else 1

    if args.updates is None:
        print("error: choose an update stream with --updates SPEC "
              "(or pass --smoke)", file=sys.stderr)
        print("usage: see `repro mutate --help`", file=sys.stderr)
        return 2

    from dataclasses import replace

    from repro.analysis.experiments import tuned_thresholds
    from repro.dynamic.repair import IncrementalGraph
    from repro.dynamic.updates import UpdateSpecError, generate_update_stream
    from repro.graph500.rmat import generate_edges
    from repro.runtime.mesh import ProcessMesh

    spec = args.updates
    try:
        if args.batch_size is not None:
            spec = replace(spec, size=args.batch_size)
        if args.compact_every < 1:
            raise UpdateSpecError("--compact-every must be >= 1")
    except UpdateSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("usage: see `repro mutate --help`", file=sys.stderr)
        return 2

    rows, cols = args.mesh
    num_vertices = 2 ** args.scale
    src, dst = generate_edges(args.scale, seed=args.seed)
    e_thr, h_thr = args.e_threshold, args.h_threshold
    if e_thr is None or h_thr is None:
        e_thr, h_thr = tuned_thresholds(args.scale)
    mesh = ProcessMesh(rows, cols)
    inc = IncrementalGraph(
        src, dst, num_vertices, mesh,
        e_threshold=e_thr, h_threshold=h_thr,
        compact_every=args.compact_every, metrics=metrics,
    )
    lo, hi = inc.edges()
    stream = generate_update_stream(lo, hi, num_vertices, spec,
                                    seed=args.seed)
    rows_out = []
    for batch in stream:
        rep = inc.apply_batch(batch)
        rows_out.append([
            rep.batch_index, rep.num_inserted_edges, rep.num_deleted_edges,
            rep.num_class_changes, rep.num_arcs_moved,
            f"{rep.seconds:.3e}", "yes" if rep.compacted else "",
        ])
    print(ascii_table(
        ["batch", "inserted", "deleted", "reclass", "arcs moved",
         "repair s", "compacted"],
        rows_out,
        title=f"{spec.kind} stream over SCALE {args.scale} "
              f"({inc.num_edges:,} live edges after "
              f"{len(stream)} batches):",
    ))
    part = inc.graph()
    problems = parts_bitwise_equal(part, inc.rebuild_reference())
    repair_s = inc.ledger.total_seconds
    rebuild_s = inc.rebuild_cost_estimate() * len(stream)
    print(f"repair cost: {format_seconds(repair_s)} simulated vs "
          f"{format_seconds(rebuild_s)} for {len(stream)} full rebuilds "
          f"({100 * repair_s / rebuild_s:.1f}%)")
    if problems:
        for p in problems[:8]:
            print(f"MISMATCH: {p}")
    print("equivalence vs rebuild:", "PASS" if not problems else "FAIL")
    return 0 if not problems else 1


def _cmd_chaos(args) -> int:
    from repro.analysis.reporting import ascii_table
    from repro.graph500.driver import run_graph500
    from repro.obs.report import SMOKE_CONFIG
    from repro.resilience.faults import parse_fault_spec

    if args.smoke:
        cfg = dict(SMOKE_CONFIG)
    else:
        rows, cols = args.mesh
        cfg = dict(
            scale=args.scale, rows=rows, cols=cols, seed=args.seed,
            num_roots=args.roots,
            e_threshold=args.e_threshold, h_threshold=args.h_threshold,
        )
    if args.matrix:
        scenarios = tuple(s.strip() for s in args.matrix.split("|") if s.strip())
    else:
        scenarios = DEFAULT_CHAOS_MATRIX
    # Parse every spec up front: a malformed matrix exits 2 before any run.
    plans = [parse_fault_spec(s) for s in scenarios]

    def _run(**resilience):
        return run_graph500(
            cfg["scale"], cfg["rows"], cfg["cols"],
            seed=cfg["seed"], num_roots=cfg["num_roots"],
            e_threshold=cfg["e_threshold"], h_threshold=cfg["h_threshold"],
            **resilience,
        )

    golden = _run()
    golden_time = float(golden.bfs_times.sum())
    print(
        f"golden: SCALE {cfg['scale']}, {cfg['rows']}x{cfg['cols']} mesh, "
        f"{golden.roots.size} roots, validated={golden.validated}"
    )
    all_ok = golden.validated
    rows_out = []
    for spec, plan in zip(scenarios, plans):
        rep = _run(faults=plan, checkpoint_every=args.checkpoint_every)
        match = (
            np.array_equal(rep.roots, golden.roots)
            and len(rep.results) == len(golden.results)
            and all(
                np.array_equal(a.parent, b.parent)
                for a, b in zip(golden.results, rep.results)
            )
        )
        all_ok &= match and rep.validated
        r = rep.resilience or {}
        overhead = 100.0 * (float(rep.bfs_times.sum()) / golden_time - 1.0)
        rows_out.append([
            spec,
            r.get("faults_fired", 0),
            r.get("crashes", 0),
            r.get("restarts", 0),
            r.get("retries", 0),
            f"{overhead:+.1f}%",
            "MATCH" if match else "DIFF",
            "ok" if rep.validated else "FAIL",
        ])
    print(ascii_table(
        ["fault spec", "fired", "crashes", "restarts", "retries",
         "overhead", "parents", "validated"],
        rows_out,
        title="chaos matrix vs. fault-free golden run:",
    ))
    print("chaos gate:", "PASS" if all_ok else "FAIL")
    return 0 if all_ok else 1


class _StragglerEngine:
    """Wraps a batch engine so every traversal sleeps ``delay`` wall
    seconds first.  Simulated faults never move the wall clock, so this
    is the honest way to make a wall-clock SLO fire in the CI smoke."""

    def __init__(self, engine, delay: float) -> None:
        self._engine = engine
        self._delay = float(delay)

    def __getattr__(self, name):
        return getattr(self._engine, name)

    def run_batch(self, roots, **kwargs):
        import time

        time.sleep(self._delay)
        return self._engine.run_batch(roots, **kwargs)


def _cmd_serve(args) -> int:
    import asyncio
    import functools
    from collections import deque
    from dataclasses import replace

    from repro.analysis.reporting import ascii_table, format_seconds
    from repro.cluster import TenantSpec, build_registry, parse_tenant_spec
    from repro.obs.export import write_chrome_trace
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.report import report_from_serve
    from repro.obs.tracer import NULL_TRACER, Tracer
    from repro.serve.service import DEFAULT_TENANT, ClusterService
    from repro.serve.workload import (
        WorkloadReport,
        make_diurnal_workload,
        make_workload_roots,
        run_cluster_workload,
        run_session,
        serve_query,
    )

    rows, cols = args.mesh
    scale, seed = args.scale, args.seed
    queries, duration = args.queries, args.duration
    hot_fraction, hot_set = args.hot_fraction, args.hot_set
    validate = args.validate
    tenants_spec = args.tenants
    if args.smoke:
        # Pinned configuration for the CI slo-smoke gate: small tenant
        # graphs, bit-exact validation, and (with >= 2 replicas) a
        # mid-run replica kill so the failover path runs every time.
        scale, rows, cols, seed = 9, 2, 2, 7
        queries, duration = 120, 0.3
        hot_fraction, hot_set = 0.8, 8
        validate = True
        if tenants_spec is None:
            tenants_spec = "3"
    multi = tenants_spec is not None
    if multi:
        specs = parse_tenant_spec(
            tenants_spec, scale=scale, rows=rows, cols=cols, seed=seed
        )
        replicas = args.replicas
    else:
        # One graph is one tenant on one replica: its quota is the queue
        # depth and its default SLO the gold class's (total < 250 ms for
        # 99% of requests).
        specs = [TenantSpec(
            DEFAULT_TENANT, scale=scale, rows=rows, cols=cols, seed=seed,
            slo_class="gold", quota=args.queue_depth,
        )]
        replicas = 1
    overrides = {}
    if args.quota is not None:
        overrides["quota"] = args.quota
    if args.slo:
        overrides["slos"] = tuple(args.slo)
    specs = [
        replace(s, e_threshold=args.e_threshold,
                h_threshold=args.h_threshold, **overrides)
        for s in specs
    ]
    metrics = MetricsRegistry()
    tracer = Tracer() if args.trace else NULL_TRACER
    registry = build_registry(specs, tracer=tracer, metrics=metrics)
    if args.straggler_ms is not None:
        for tenant in registry:
            tenant.batched = _StragglerEngine(
                tenant.batched, args.straggler_ms / 1e3
            )
    faults = None
    if args.faults is not None:
        from repro.resilience.faults import FaultInjector

        faults = FaultInjector(args.faults, rng=np.random.default_rng(seed))

    if multi:
        workload = make_diurnal_workload(
            registry.degrees_map(), queries, seed=seed,
            duration_seconds=duration,
            hot_fraction=hot_fraction, hot_set_size=hot_set,
        )
        wanted = {
            t.tenant_id: {q.root for q in workload.queries
                          if q.tenant == t.tenant_id}
            for t in registry
        }
        shape = f"{queries} queries over a {duration:g}s diurnal workload"
    else:
        roots = make_workload_roots(
            registry[DEFAULT_TENANT].degrees, queries, seed=seed,
            hot_fraction=hot_fraction, hot_set_size=hot_set,
        )
        wanted = {DEFAULT_TENANT: {int(r) for r in roots}}
        shape = f"{queries} queries from {args.clients} closed-loop clients"
    expected = None
    if validate:
        expected = {
            tid: {r: registry[tid].sequential.run(r).parent
                  for r in sorted(mine)}
            for tid, mine in wanted.items()
        }
    kill_at = None
    if args.smoke and replicas >= 2:
        kill_at = ("r0", queries // 2)

    async def drive(service):
        if multi:
            return await run_cluster_workload(
                service, workload, expected=expected,
                max_shed_retries=10_000, kill_at=kill_at,
            )
        # Closed loop: each client keeps one query in flight and retries
        # sheds, so the offered load follows the service's speed.
        submit = functools.partial(service.submit, DEFAULT_TENANT)
        pending = deque(int(r) for r in roots)
        outcomes = []

        async def client():
            while pending:
                outcomes.append(await serve_query(
                    submit, pending.popleft(), tenant=DEFAULT_TENANT,
                    expected=None if expected is None
                    else expected[DEFAULT_TENANT],
                    max_shed_retries=10_000,
                ))

        await asyncio.gather(*(client() for _ in range(args.clients)))
        return WorkloadReport(outcomes=outcomes)

    telemetry = None
    if args.telemetry_port is not None:
        telemetry = dict(
            port=args.telemetry_port, interval=args.telemetry_interval
        )
    session = run_session(
        lambda: ClusterService(
            registry, replicas=replicas, batch_size=args.batch_size,
            batch_window=args.batch_window, faults=faults, metrics=metrics,
            tracer=tracer,
        ),
        drive, telemetry=telemetry, metrics=metrics,
    )
    report, service = session[:2]
    telem = session[2] if telemetry is not None else None
    slo_docs = telem.slo if telem is not None else service.slo_status()

    per_tenant = report.per_tenant()
    table_rows = []
    for tenant in registry:
        tid = tenant.tenant_id
        sub = per_tenant.get(tid)
        stats = tenant.stats
        table_rows.append([
            tid, tenant.spec.slo_class,
            sub.num_queries if sub else 0,
            sub.served if sub else 0,
            sub.typed_sheds if sub else 0,
            sub.failed if sub else 0,
            f"{100 * stats.cache_hit_rate:.0f}%",
            format_seconds(stats.p50_seconds),
            format_seconds(stats.p99_seconds),
            slo_docs[tid]["status"],
        ])
    print(ascii_table(
        ("tenant", "class", "queries", "served", "sheds", "failed",
         "hit rate", "p50", "p99", "slo"),
        table_rows,
        title=f"serving {len(registry)} tenant(s) x {replicas} "
              f"replica(s) (SCALE {scale}, {rows}x{cols} per tenant), "
              f"{shape}; batch<={args.batch_size}, window "
              f"{args.batch_window * 1e3:g} ms:",
    ))
    stats = service.stats
    checked = ""
    if expected is not None:
        checked = (f"; wrong parents {report.wrong_parents}/"
                   f"{report.validated} validated")
    print(f"aggregate: {report.served}/{report.num_queries} served "
          f"({report.cache_hits} cached, "
          f"{100 * report.cache_hit_rate:.0f}% hit rate), "
          f"{report.typed_sheds} typed sheds, {report.shed_retries} shed "
          f"retries, {report.failed} failed; {stats.batches} batches, "
          f"{stats.mean_batch_size:.1f} mean lanes, {stats.replays} batch "
          f"replays; p50 {format_seconds(stats.p50_seconds)}, p99 "
          f"{format_seconds(stats.p99_seconds)}, "
          f"{stats.sim_seconds_per_query:.3e} sim s/query{checked}")
    print(f"replicas live: {len(service.live_replicas)}/"
          f"{len(service.replica_ids)}")

    ok = True
    if multi and report.accounted != report.num_queries:
        # Open loop: a typed shed is an answer; a silent drop is not.
        print(f"FAIL: {report.num_queries - report.accounted} queries "
              "got no response and no typed shed")
        ok = False
    if not multi and report.served != report.num_queries:
        # Closed loop: clients retry sheds, so every query is served.
        print(f"FAIL: {report.num_queries - report.served} queries dropped")
        ok = False
    if report.failed:
        print(f"FAIL: {report.failed} queries failed")
        ok = False
    if expected is not None and report.wrong_parents:
        print(f"FAIL: {report.wrong_parents}/{report.validated} validated "
              "parents wrong")
        ok = False
    elif expected is not None:
        print(f"validated: {report.validated} responses bit-identical to "
              "sequential runs")
    if kill_at is not None:
        downs = len(service.replica_ids) - len(service.live_replicas)
        if downs != 1:
            print(f"FAIL: kill drill expected exactly 1 replica down, "
                  f"found {downs}")
            ok = False
        else:
            print(f"failover drill: replica {kill_at[0]} killed mid-run; "
                  "in-flight batch re-routed, parents validated")
    if args.min_hit_rate is not None \
            and not report.cache_hit_rate > args.min_hit_rate:
        print(f"FAIL: cache hit rate {report.cache_hit_rate:.3f} "
              f"not above {args.min_hit_rate:g}")
        ok = False
    if telem is not None:
        print(f"telemetry: port {telem.port}, {telem.samples} samples, "
              f"scrapes {telem.scrapes}")
        for tid, doc in slo_docs.items():
            for row in doc["slos"]:
                print(f"  SLO {tid} {row['name']}: {row['status']} "
                      f"(burn {row['burn_rate']:.2f}, "
                      f"{row['bad']}/{row['observed']} bad in "
                      f"{row['window_seconds']:g}s)")
            for alert in doc["alerts"]:
                print(f"  alert {tid} [{alert['severity']}] "
                      f"{alert['message']}")
        if not telem.scrapes.get("/metrics") \
                or not telem.scrapes.get("/healthz"):
            print("FAIL: telemetry endpoint was never scraped successfully")
            ok = False
        if args.expect_slo is not None:
            fired = any(
                doc["status"] != "ok" or doc["alerts"]
                for doc in slo_docs.values()
            )
            if args.expect_slo == "green" and fired:
                print("FAIL: expected green SLOs, got "
                      f"{ {t: d['status'] for t, d in slo_docs.items()} }")
                ok = False
            elif args.expect_slo == "fired" and not fired:
                print("FAIL: expected the SLO to fire, but it stayed green")
                ok = False
    elif args.expect_slo is not None:
        print("FAIL: --expect-slo requires --telemetry-port")
        ok = False
    if args.trace:
        n = write_chrome_trace(tracer, args.trace, clock="wall")
        print(f"chrome trace: {args.trace} ({n} events, wall clock)")
    if args.out:
        import json
        from pathlib import Path

        run_report = report_from_serve(
            service, report,
            context=dict(
                scale=scale, rows=rows, cols=cols, seed=seed,
                queries=queries, hot_fraction=hot_fraction,
                hot_set=hot_set,
                duration_seconds=duration if multi else None,
                clients=None if multi else args.clients,
            ),
        )
        # One artifact: the serve.* RunReport (what `repro compare`
        # loads; it ignores the other keys) plus the per-tenant summary.
        doc = run_report.to_dict() | {
            "tenants": service.tenants_snapshot()["tenants"],
            "report": {
                key: getattr(report, key)
                for key in ("num_queries", "served", "cache_hits",
                            "typed_sheds", "failed", "accounted",
                            "validated", "wrong_parents")
            } | {
                "p50_seconds": report.latency_percentile(50),
                "p99_seconds": report.latency_percentile(99),
            },
            "slo": slo_docs,
            "replicas": {
                rid: rid in service.live_replicas
                for rid in service.replica_ids
            },
            "gate_passed": ok,
        }
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out}")
    print("cluster gate:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_bench_serve(args) -> int:
    from repro.analysis.reporting import ascii_table
    from repro.graph500.driver import sample_roots
    from repro.serve.bench import (
        amortization_sweep,
        build_serving_pair,
        service_sweep,
    )

    rows, cols = args.mesh
    sequential, batched = build_serving_pair(
        args.scale, rows, cols, seed=args.seed,
        e_threshold=args.e_threshold, h_threshold=args.h_threshold,
    )
    batch_sizes = [int(b) for b in args.batch_sizes.split(",") if b.strip()]
    roots = sample_roots(
        batched.part.degrees, max(batch_sizes),
        rng=np.random.default_rng(args.seed),
    )
    amort = amortization_sweep(
        sequential, batched, roots, batch_sizes=batch_sizes
    )
    print(ascii_table(
        ["batch", "sim s/query", "sequential s", "amortization",
         "bytes ratio", "waves"],
        [
            [p.batch_size, f"{p.amortized_seconds:.3e}",
             f"{p.sequential_seconds:.3e}",
             f"{p.amortization_factor:.1f}x",
             f"{p.batch_bytes / p.sequential_bytes:.2f}", p.waves]
            for p in amort
        ],
        title=f"amortized simulated cost per query "
              f"(SCALE {args.scale}, {rows}x{cols}):",
    ))
    depths = [int(d) for d in args.queue_depths.split(",") if d.strip()]
    windows = [float(w) for w in args.windows.split(",") if w.strip()]
    points = service_sweep(
        batched, batched.part.degrees,
        num_queries=args.queries, seed=args.seed,
        batch_sizes=(max(batch_sizes),),
        queue_depths=depths, batch_windows=windows, clients=args.clients,
    )
    print()
    print(ascii_table(
        ["depth", "window", "served", "hit rate", "mean batch",
         "qps", "p50", "p99"],
        [
            [p.queue_depth, f"{p.batch_window * 1e3:g}ms", p.served,
             f"{100 * p.cache_hit_rate:.0f}%", f"{p.mean_batch_size:.1f}",
             f"{p.qps:.0f}", f"{p.p50_seconds * 1e3:.1f}ms",
             f"{p.p99_seconds * 1e3:.1f}ms"]
            for p in points
        ],
        title=f"end-to-end service sweep ({args.queries} queries):",
    ))
    if args.json:
        import json
        from pathlib import Path

        out = Path(args.json)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps({
            "schema": "repro.bench_serve/1",
            "config": dict(
                scale=args.scale, rows=rows, cols=cols, seed=args.seed,
                queries=args.queries,
            ),
            "amortization": [p.to_dict() for p in amort],
            "service": [p.to_dict() for p in points],
        }, indent=2, sort_keys=True) + "\n")
        print(f"json: {out}")
    return 0


_COMMANDS = {
    "graph500": _cmd_graph500,
    "bfs": _cmd_bfs,
    "sweep": _cmd_sweep,
    "partitions": _cmd_partitions,
    "report": _cmd_report,
    "compare": _cmd_compare,
    "ocs": _cmd_ocs,
    "algo": _cmd_algo,
    "chaos": _cmd_chaos,
    "mutate": _cmd_mutate,
    "serve": _cmd_serve,
    "bench-serve": _cmd_bench_serve,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    from repro.resilience import CheckpointError, FaultSpecError, RecoveryError

    try:
        return _COMMANDS[args.command](args)
    except (FaultSpecError, CheckpointError, RecoveryError) as exc:
        # Resilience misconfiguration (bad spec, rank out of range,
        # corrupt snapshot, restart budget exhausted) is a usage-class
        # error: report it and exit 2 like argparse does, no traceback.
        print(f"error: {exc}", file=sys.stderr)
        print(f"usage: see `{parser.prog} {args.command} --help`", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
