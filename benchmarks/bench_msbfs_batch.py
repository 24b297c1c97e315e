#!/usr/bin/env python
"""Batched (MSBFS) wave wall time and the share spent choosing directions.

The serving engine packs up to 64 roots into one bit-parallel traversal,
and before every component each lane needs fresh §4.2 active/unvisited
ratios per degree class.  Those ratios come from per-lane class counters
the lane state keeps at commit, so choosing directions should cost a
small share of a batch — not a rescan of every vertex's lane word per
component.  This bench runs 1-, 11- and 64-lane batches of
:class:`~repro.serve.msbfs.MultiSourceBFS` on an R-MAT SCALE 13 graph
(2x2 mesh, tuned thresholds) and records:

- the host (CPU model, nproc, numpy) and the median batch wall per lane
  count;
- the share of batch wall spent in
  :meth:`MultiSourceBFS.batch_component_directions`, measured under
  ``cProfile`` as an in-process ratio (so host speed cancels): per lane
  count, and over one batch of each lane count together;
- a per-lane bit-identity check against sequential
  :class:`~repro.core.engine.DistributedBFS` runs (parents, frontier
  sizes, per-component directions).

Run::

    PYTHONPATH=src python benchmarks/bench_msbfs_batch.py            # writes the artifact
    PYTHONPATH=src python benchmarks/bench_msbfs_batch.py --out PATH

It exits nonzero unless every lane is bit-identical and the direction
share over the three batches together is at most
``MAX_DIRECTION_SHARE``.  Wall times vary with the host and are recorded
for context only.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import platform
import pstats
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from repro.graph500.driver import sample_roots  # noqa: E402
from repro.serve.bench import build_serving_pair  # noqa: E402

SCALE = 13
ROWS = COLS = 2
SEED = 7
LANE_COUNTS = (1, 11, 64)
#: Timed batches per lane count (after one untimed warm-up).
REPEATS = 5
#: Gate: share of batch wall spent choosing per-lane directions.
MAX_DIRECTION_SHARE = 0.10

RESULTS = Path(__file__).parent / "results" / "BENCH_msbfs.json"


def host_info() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return dict(
        cpu=cpu,
        nproc=os.cpu_count(),
        python=platform.python_version(),
        numpy=numpy.__version__,
    )


def median_wall(engine, roots) -> float:
    engine.run_batch(roots)
    walls = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        engine.run_batch(roots)
        walls.append(time.perf_counter() - t0)
    return float(np.median(walls))


def profiled_seconds(engine, roots) -> tuple[float, float]:
    """``(direction_s, batch_s)``: cumulative time in
    ``batch_component_directions`` and in ``run_batch`` of one profiled
    batch."""
    prof = cProfile.Profile()
    prof.runcall(engine.run_batch, roots)
    cum = {}
    for (path, _line, name), row in pstats.Stats(prof).stats.items():
        if path.endswith("msbfs.py"):
            cum[name] = cum.get(name, 0.0) + row[3]
    return cum.get("batch_component_directions", 0.0), cum["run_batch"]


def lane_mismatches(batch, roots, sequential_runs) -> list[str]:
    bad = []
    for lane, root in enumerate(roots):
        seq = sequential_runs[int(root)]
        if not np.array_equal(batch.lane_parent(lane), seq.parent):
            bad.append(f"{roots.size} lanes: lane {lane} parents")
            continue
        got = batch.lane_records(lane)
        if [(r.frontier_size, r.directions) for r in got] != [
            (r.frontier_size, r.directions) for r in seq.iterations
        ]:
            bad.append(f"{roots.size} lanes: lane {lane} records")
    return bad


def run() -> dict:
    sequential, batched = build_serving_pair(SCALE, ROWS, COLS, seed=SEED)
    all_roots = sample_roots(
        batched.part.degrees, max(LANE_COUNTS),
        rng=np.random.default_rng(SEED),
    )
    sequential_runs = {int(r): sequential.run(int(r)) for r in all_roots}
    points = []
    mismatches: list[str] = []
    for lanes in LANE_COUNTS:
        roots = all_roots[:lanes]
        batch = batched.run_batch(roots)
        mismatches += lane_mismatches(batch, roots, sequential_runs)
        wall = median_wall(batched, roots)
        direction_s, batch_s = profiled_seconds(batched, roots)
        points.append(dict(
            lanes=lanes,
            waves=batch.num_waves,
            batch_ms_p50=1e3 * wall,
            ms_per_lane=1e3 * wall / lanes,
            direction_share=direction_s / batch_s,
            profiled_direction_s=direction_s,
            profiled_batch_s=batch_s,
        ))
    share = sum(p["profiled_direction_s"] for p in points) / sum(
        p["profiled_batch_s"] for p in points
    )
    return dict(
        schema="bench.msbfs_batch.v1",
        host=host_info(),
        config=dict(
            scale=SCALE, mesh=f"{ROWS}x{COLS}", seed=SEED,
            e_threshold=batched.config.e_threshold,
            h_threshold=batched.config.h_threshold,
            repeats=REPEATS,
        ),
        points=points,
        gate=dict(
            max_direction_share=MAX_DIRECTION_SHARE,
            direction_share=share,
            lane_mismatches=mismatches,
            passed=share <= MAX_DIRECTION_SHARE and not mismatches,
        ),
    )


def render(result: dict) -> str:
    lines = [
        f"MSBFS batch wall: SCALE {SCALE}, {ROWS}x{COLS} mesh, seed {SEED} "
        f"({result['host']['cpu']}, nproc {result['host']['nproc']})",
        f"{'lanes':>6} {'waves':>6} {'batch ms':>9} {'ms/lane':>8} "
        f"{'direction share':>16}",
    ]
    for p in result["points"]:
        lines.append(
            f"{p['lanes']:>6} {p['waves']:>6} {p['batch_ms_p50']:>9.1f} "
            f"{p['ms_per_lane']:>8.2f} {100 * p['direction_share']:>15.1f}%"
        )
    lines.append(
        f"direction share over all batches: "
        f"{100 * result['gate']['direction_share']:.1f}%"
    )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", metavar="PATH", default=str(RESULTS),
        help="artifact destination",
    )
    args = parser.parse_args(argv)
    result = run()
    print(render(result))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=2) + "\n")
    gate = result["gate"]
    for line in gate["lane_mismatches"]:
        print(f"FAIL bit-identity: {line}")
    if gate["direction_share"] > MAX_DIRECTION_SHARE:
        print(
            f"FAIL direction share {100 * gate['direction_share']:.1f}% "
            f"> {100 * MAX_DIRECTION_SHARE:.0f}%"
        )
    return 0 if gate["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
