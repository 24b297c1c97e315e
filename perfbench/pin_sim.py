#!/usr/bin/env python3
"""Pin the ``graph500`` workload's simulated clock for a range of seeds.

For each seed this builds the workload's pipeline and records, per root,
the simulated seconds and ledger bytes of ``DistributedBFS.run``.  The
benchmark fails any root whose values differ, so a host-speed change
proves its ledgers stayed bit-identical.  Run from the checkout root::

    python3 perfbench/pin_sim.py 0 127     # seeds 0..127 inclusive

The benchmark reads only the graph seeds ``0 .. PINNED_SEEDS - 1`` of
``wl_graph500``; raise that constant before pinning beyond it.

Existing pins for other seeds are kept; pins for the given seeds are
overwritten only with ``--force``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import wl_graph500  # noqa: E402


def pin(seed: int) -> dict:
    pipe = wl_graph500.Pipeline(seed)
    out = {"roots": [], "sim_seconds": [], "bytes": []}
    for root in pipe.roots:
        res = pipe.engine.run(int(root))
        out["roots"].append(int(root))
        out["sim_seconds"].append(res.total_seconds)
        out["bytes"].append(res.ledger.total_bytes)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("first", type=int)
    ap.add_argument("last", type=int)
    ap.add_argument("--force", action="store_true")
    args = ap.parse_args()
    if not 0 <= args.first <= args.last < wl_graph500.PINNED_SEEDS:
        ap.error(f"seeds must lie in 0..{wl_graph500.PINNED_SEEDS - 1}")
    path = wl_graph500.PINS
    doc = (
        json.loads(path.read_text())
        if path.is_file()
        else {"scale": wl_graph500.SCALE, "mesh": "2x2", "seeds": {}}
    )
    for seed in range(args.first, args.last + 1):
        if str(seed) in doc["seeds"] and not args.force:
            continue
        doc["seeds"][str(seed)] = pin(seed)
        doc["seeds"] = dict(sorted(doc["seeds"].items(), key=lambda kv: int(kv[0])))
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
        print(f"pinned seed {seed}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
