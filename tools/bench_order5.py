"""Order-5 benchmark: writes BENCH_order5.json at the repo root.

    python3 tools/bench_order5.py

The file holds one entry per campaign, each with "before" and "after".
"after" is measured on this checkout.  Its end-to-end time is the median
of three runs of the campaign, each in a child process whose report stream
must end in the pinned summary line and hash to the pinned SHA-256; the
three runs are recorded too, since one run moves with host load.  Its
per-layer split is timed in process with time.perf_counter in one pass.

- `verify theorem1 --max-order 5 --dedup iso`: the split covers the order-5
  structures alone: iso tables (enumeration), compatible orders and the
  automorphism filter (walk), ids and the per-table kernel, which answers
  c1, c2 and c3 together.  "before" is the split measured before the
  kernel, at commit edb0681, as ROADMAP.md records it; it also timed the
  OrderedSemigroup construction (construction) that campaigns no longer do.
- `verify theorem2 --max-order 5 --dedup iso` and `--dedup none` at orders 4
  and 5: the split covers every order of the campaign: the labeled lattices
  (lattices), the le stream (fill: the search once per lattice class, then
  on raw streams the relabeling onto the class's other lattices and on iso
  streams the canonical forms), ids (on raw streams one per source)
  and the kernel (checks).  "before" was measured the same way at commit
  f475563, where the search ran on every labeled lattice, every structure
  became a LeSemigroup (construction), every raw structure had its own
  canonical id and `verify_theorem2` gave the checks.
- `verify remark --max-order 5 --dedup iso`: the split covers every order
  of the campaign: the (table, leq) pairs with the greatest-element filter
  (walk), ids and `le.remark_flags` (checks).  "before" was measured the
  same way at commit 8da6276, where every structure became a PoeSemigroup
  (construction) and `check_remark` with `is_intra_regular_poe` gave the
  checks; its end-to-end time is the median of three runs alternated with
  runs of the change on one host.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "BENCH_order5.json"
RUNS = 3  # end-to-end runs per campaign; the median is reported

# argv, pinned summary line, pinned stream SHA-256, "before"
CAMPAIGNS = [
    (
        ["verify", "theorem1", "--max-order", "5", "--dedup", "iso"],
        "# checked=203776 failures=0",
        "11827f6e00129acda40a6e71786f28ee99ea6f235defdbf8da0bd73774ed3013",
        {
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
        },
    ),
    (
        ["verify", "theorem2", "--max-order", "5", "--dedup", "iso"],
        "# checked=7268 failures=0",
        "8195434b332f8ca856bd101e8f708e84a1d9cc6e8ab0fae8a3eaf690385fd42d",
        {
            "commit": "f475563",
            "host": "2 vCPUs, Python 3.11.7",
            "end_to_end_s": 6.08,
            "structures": 7268,
            "layers_s": {
                "lattices": 0.117,
                "fill": 5.575,
                "construction": 0.439,
                "ids": 0.284,
                "checks": 0.392,
            },
        },
    ),
    (
        ["verify", "theorem2", "--max-order", "4", "--dedup", "none"],
        "# checked=11581 failures=0",
        "c169fd62f7d3208331e105ec2aeede44d3ad83dd80c45a7e4241dce9c664b24f",
        {
            "commit": "f475563",
            "host": "2 vCPUs, Python 3.11.7",
            "end_to_end_s": 3.3,
            "structures": 11581,
            "layers_s": {
                "lattices": 0.005,
                "fill": 0.614,
                "construction": 0.496,
                "ids": 0.915,
                "checks": 0.467,
            },
        },
    ),
    (
        ["verify", "theorem2", "--max-order", "5", "--dedup", "none"],
        "# checked=799141 failures=0",
        "e2a46d30b502a1c7658a8d04b441e1891aa7297f4bbc68cbd0c506dbd28fc76d",
        {
            "commit": "f475563",
            "host": "2 vCPUs, Python 3.11.7",
            "end_to_end_s": 389.9,
            "structures": 799141,
            "layers_s": {
                "lattices": 0.123,
                "fill": 96.076,
                "construction": 45.838,
                "ids": 174.155,
                "checks": 41.687,
            },
        },
    ),
    (
        ["verify", "remark", "--max-order", "5", "--dedup", "iso"],
        "# checked=49239 failures=0",
        "d3752bf986730e1da275fa84d95b857c9125e78dcd2195229a57766d0d47eb70",
        {
            "commit": "8da6276",
            "host": "2 vCPUs, Python 3.11.7",
            "end_to_end_s": 16.04,
            "end_to_end_runs_s": [17.01, 15.56, 16.04],
            "structures": 49239,
            "layers_s": {
                "walk": 6.569,
                "construction": 1.081,
                "ids": 0.562,
                "checks": 8.588,
            },
        },
    ),
]


def end_to_end(argv, summary, sha256):
    """Wall times of RUNS runs of the campaign, each in a child process, with
    its stream checked."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    walls = []
    for _ in range(RUNS):
        start = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-m", "posemi.cli", *argv],
            env=env,
            check=True,
            capture_output=True,
        ).stdout
        walls.append(time.perf_counter() - start)
        last = out.decode().rstrip("\n").rsplit("\n", 1)[-1]
        digest = hashlib.sha256(out).hexdigest()
        if last != summary or digest != sha256:
            raise SystemExit(f"error: stream changed: {last!r}, sha256 {digest}")
    return walls


def theorem1_split():
    """Seconds per layer over the order-5 iso structures, and their count."""
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
    return spent, {"order5_structures": count}


def theorem2_split(max_order, dedup):
    """Seconds per layer over every structure of the theorem2 campaign,
    ids taken as `cli` takes them: the digest on iso streams, one
    canonical id per source on raw ones."""
    from posemi import canon, le
    from posemi.enumeration import (
        EnumerationConfig,
        all_lattices,
        all_posets,
        le_sources,
    )

    all_lattices.cache_clear()
    all_posets.cache_clear()
    sid = canon.le_digest if dedup == "up_to_iso" else canon.le_structure_id
    spent = dict.fromkeys(("lattices", "fill", "ids", "checks"), 0.0)
    for n in range(1, max_order + 1):
        t0 = time.perf_counter()
        all_lattices(n)
        spent["lattices"] += time.perf_counter() - t0
        stream = le_sources(EnumerationConfig(n, dedup))
        ids = {}
        while True:
            t0 = time.perf_counter()
            item = next(stream, None)
            t1 = time.perf_counter()
            spent["fill"] += t1 - t0
            if item is None:
                break
            structure, source = item
            if ids.get(source) is None:
                ids[source] = sid(*source)
            t2 = time.perf_counter()
            le.theorem2_flags(*structure)
            spent["ids"] += t2 - t1
            spent["checks"] += time.perf_counter() - t2
    return spent, {}


def remark_split(max_order):
    """Seconds per layer over every structure of the iso remark campaign:
    the (table, leq, top) tuples kept by the greatest-element filter, their
    digests and `remark_flags`."""
    from posemi import canon, le
    from posemi.enumeration import EnumerationConfig, ordered_pairs

    spent = dict.fromkeys(("walk", "ids", "checks"), 0.0)
    for n in range(1, max_order + 1):
        t0 = time.perf_counter()
        items = [
            (table, leq, top)
            for table, leq in ordered_pairs(EnumerationConfig(n, "up_to_iso"))
            if (top := le.greatest(leq)) is not None
        ]
        t1 = time.perf_counter()
        for table, leq, _ in items:
            canon.ordered_digest(table, leq)
        t2 = time.perf_counter()
        for item in items:
            le.remark_flags(*item)
        t3 = time.perf_counter()
        spent["walk"] += t1 - t0
        spent["ids"] += t2 - t1
        spent["checks"] += t3 - t2
    return spent, {}


def main():
    sys.path.insert(0, str(SRC))
    host = f"{os.cpu_count()} vCPUs, Python {platform.python_version()}"
    campaigns = []
    for argv, summary, sha256, before in CAMPAIGNS:
        walls = end_to_end(argv, summary, sha256)
        if argv[1] == "theorem1":
            spent, extra = theorem1_split()
        elif argv[1] == "remark":
            spent, extra = remark_split(int(argv[3]))
        else:
            dedup = "up_to_iso" if argv[-1] == "iso" else "none"
            spent, extra = theorem2_split(int(argv[3]), dedup)
        after = {
            "host": host,
            "end_to_end_s": round(statistics.median(walls), 2),
            "end_to_end_runs_s": [round(w, 2) for w in walls],
            "structures": int(summary.split("=")[1].split()[0]),
            **extra,
            "stream_sha256": sha256,
            "layers_s": {k: round(v, 3) for k, v in spent.items()},
        }
        command = "posemi " + " ".join(argv)
        campaigns.append({"command": command, "before": before, "after": after})
        print(json.dumps({"command": command, **after}), flush=True)
    OUT.write_text(json.dumps({"campaigns": campaigns}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
