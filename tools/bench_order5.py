"""Order-5 theorem1 benchmark: writes BENCH_order5.json at the repo root.

    python3 tools/bench_order5.py

"after" is measured on this checkout.  Its end-to-end time is one run of
`posemi verify theorem1 --max-order 5 --dedup iso` in a child process,
whose report stream must end in the pinned summary line and hash to the
pinned SHA-256.  Its per-layer split covers the order-5 structures alone,
timed in process with time.perf_counter in one pass: iso tables
(enumeration), compatible orders and the automorphism filter (walk), ids
and the per-table kernel, which answers c1, c2 and c3 together.  "before"
is the split measured before the kernel, at commit edb0681, as ROADMAP.md
records it; it also timed the OrderedSemigroup construction (construction)
that campaigns no longer do.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "BENCH_order5.json"

ARGV = ["verify", "theorem1", "--max-order", "5", "--dedup", "iso"]
SUMMARY = "# checked=203776 failures=0"
SHA256 = "11827f6e00129acda40a6e71786f28ee99ea6f235defdbf8da0bd73774ed3013"

BEFORE = {
    "commit": "edb0681",
    "host": "2 vCPUs, Python 3.11.7",
    "end_to_end_s": 49.4,
    "structures": 203776,
    "order5_structures": 198838,
    "layers_s": {
        "enumeration": 0.26,
        "walk": 3.55,
        "construction": 3.16,
        "ids": 5.33,
        "c1": 1.05,
        "c2": 13.7,
        "c3": 14.3,
    },
}


def end_to_end():
    """Wall time of the campaign in a child process, with its stream checked."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-m", "posemi.cli", *ARGV],
        env=env,
        check=True,
        capture_output=True,
    ).stdout
    wall = time.perf_counter() - start
    last = out.decode().rstrip("\n").rsplit("\n", 1)[-1]
    digest = hashlib.sha256(out).hexdigest()
    if last != SUMMARY or digest != SHA256:
        raise SystemExit(f"error: stream changed: {last!r}, sha256 {digest}")
    return wall


def layer_split():
    """Seconds per layer over the order-5 iso structures, and their count."""
    sys.path.insert(0, str(SRC))
    from posemi import canon, ordered
    from posemi.enumeration import _semigroup_tables, enumerate_compatible_orders

    spent = dict.fromkeys(("enumeration", "walk", "ids", "kernel"), 0.0)
    count = 0
    tables = _semigroup_tables(5, "up_to_iso")
    while True:
        t0 = time.perf_counter()
        item = next(tables, None)
        t1 = time.perf_counter()
        spent["enumeration"] += t1 - t0
        if item is None:
            break
        table, auts = item
        orders = [
            leq
            for leq in enumerate_compatible_orders(table)
            if canon.is_least(((leq, False),), auts)
        ]
        t2 = time.perf_counter()
        for leq in orders:
            canon.ordered_digest(table, leq)
        t3 = time.perf_counter()
        for leq in orders:
            ordered.theorem1_flags(table, leq)
        t4 = time.perf_counter()
        spent["walk"] += t2 - t1
        spent["ids"] += t3 - t2
        spent["kernel"] += t4 - t3
        count += len(orders)
    return {k: round(v, 2) for k, v in spent.items()}, count


def main():
    wall = end_to_end()
    layers, count = layer_split()
    after = {
        "host": f"{os.cpu_count()} vCPUs, Python {platform.python_version()}",
        "end_to_end_s": round(wall, 1),
        "structures": 203776,
        "order5_structures": count,
        "stream_sha256": SHA256,
        "layers_s": layers,
    }
    report = {"command": "posemi " + " ".join(ARGV), "before": BEFORE, "after": after}
    OUT.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(after))
    return 0


if __name__ == "__main__":
    sys.exit(main())
