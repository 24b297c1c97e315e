#!/usr/bin/env python3
"""The repo benchmark: one command, three workloads, host wall clock.

Run from the root of a checkout::

    python3 perfbench/run.py --workload graph500 --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the same workload with a tracer and per-call timers and
reports the per-layer metrics instead.  The metric names and units come
from ``BENCHMARK.json``; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The lines
before it record the host, the commit and the workload's own report.

Workloads (see ``perfbench/README.md``): ``graph500``, ``serve_cold`` and
``cluster_ingest``.  The program under test is imported from ``src/`` of
the same checkout; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = {
    "graph500": "wl_graph500",
    "serve_cold": "wl_serve",
    "cluster_ingest": "wl_cluster",
}


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(args) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(
            f"error: {ROOT} is not a checkout of the program "
            "(needs src/repro and BENCHMARK.json)",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads(spec_path.read_text())

    workload = importlib.import_module(WORKLOADS[args.workload])
    outcome = workload.run(seed=args.seed, seconds=args.seconds, trace=bool(args.trace))

    values = dict(outcome.metrics)
    values["peak_rss_mb"] = peak_rss_mb()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if name not in values:
            # A layer measured on another workload reads 0 here (see README).
            if not (args.trace and name.startswith(workload.LAYERS_ELSEWHERE)):
                raise KeyError(f"workload {args.workload} did not measure {name}")
            values[name] = 0.0
        metrics[name] = {"value": float(values[name]), "unit": entry["unit"]}

    print(json.dumps({"provenance": provenance(args)}))
    # Every number the workload measured, including layers outside the
    # BENCHMARK.json lists (the cluster and ingest layers).
    print(json.dumps({"report": outcome.report, "measured": values}, default=float))
    print(
        json.dumps(
            {
                "correct": outcome.wrong == 0,
                "attempted": int(outcome.attempted),
                "failed": int(outcome.failed),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
