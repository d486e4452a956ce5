"""Regenerate the pinned inputs and expected outputs of the benchmark.

    python3 perfbench/pin.py pool       # rewrite perfbench/pool.json
    python3 perfbench/pin.py expected   # rewrite perfbench/expected.json

`pool` enumerates the order-2 and order-3 ordered semigroups up to
isomorphism as factors, samples direct products of each shape with a fixed
seed, and keeps those whose c2 triple space lies in products.SPACE_BAND,
with their ideal-family sizes and what a one-product campaign on each took
on the machine that ran it (milliseconds at nominal host speed, median of
five tries), by which the draw balances a campaign's cost.  `expected`
runs each CLI workload once and records its report stream: the sha256, the
chunk digests the gate uses to locate failures, and the structure count.
Run it only on a commit whose output is known to be right; the benchmark
then holds later commits to it.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import products  # noqa: E402
import workloads  # noqa: E402
from stream import checked_count, chunk_digests, sha256  # noqa: E402

POOL_SEED = 20140728
POOL_PER_STRATUM = 60
CANDIDATES = {(2, 2, 2): 1331, (3, 3): 3000, (2, 2, 3): 1500}
KINDS = ("right", "bi", "quasi", "left")


def check_seconds(posemi, table, leq, fam, tries=5):
    """Median campaign time, at nominal host speed, of a one-product
    campaign on a fresh structure."""
    rng = random.Random(POOL_SEED)
    n = len(table)
    seconds = []
    for _ in range(tries):
        d = {
            "shape": (n,),
            "structure": posemi.ordered.OrderedSemigroup(table, leq),
            "families": tuple(fam),
            "intra_regular": products.is_intra_regular(table, leq),
            "subsets": [rng.randrange(1, 1 << n) for _ in range(products.GENERATOR_SUBSETS)],
        }
        seconds.append(workloads.product_campaign(posemi, [d]).campaign_s)
    return statistics.median(seconds)


def make_pool(posemi):
    enum = posemi.enumeration
    factors = {}
    for n in (2, 3):
        cfg = enum.EnumerationConfig(order=n, dedup="up_to_iso")
        factors[n] = [
            {
                "table": [list(r) for r in s.table],
                "leq": [[i, j] for i in range(n) for j in range(n) if i != j and s.leq[i][j]],
            }
            for s in enum.enumerate_ordered_semigroups(cfg)
        ]
    loaded = {
        n: [(tuple(map(tuple, f["table"])), products.leq_matrix(n, f["leq"])) for f in fs]
        for n, fs in factors.items()
    }
    rng = random.Random(POOL_SEED)
    out = []
    lo, hi = products.SPACE_BAND
    for shape, tries in CANDIDATES.items():
        kept = {"ir": 0, "non": 0}
        seen = set()
        for _ in range(tries):
            ids = tuple(rng.randrange(len(loaded[k])) for k in shape)
            if ids in seen:
                continue
            seen.add(ids)
            fs = [loaded[k][i] for k, i in zip(shape, ids)]
            cls = "ir" if all(products.is_intra_regular(*f) for f in fs) else "non"
            if kept[cls] >= POOL_PER_STRATUM:
                continue
            table, leq = products.direct_product(fs)
            s = posemi.ordered.OrderedSemigroup(table, leq)
            fam = [len(posemi.ordered.ideal_masks(s, k)) for k in KINDS]
            if lo <= products.triple_space(fam) <= hi:
                cost = check_seconds(posemi, table, leq, fam)
                out.append(
                    {
                        "shape": list(shape),
                        "class": cls,
                        "factors": list(ids),
                        "families": fam,
                        "cost_ms": round(cost * 1000, 1),
                    }
                )
                kept[cls] += 1
        print(shape, kept, file=sys.stderr)
    return {"factors": {str(n): fs for n, fs in factors.items()}, "products": out}


def make_expected(posemi):
    out = {}
    for name, argv in workloads.CLI_ARGV.items():
        cap, status, _ = workloads.run_cli(posemi, argv)
        lines = cap.lines
        checked = checked_count(lines)
        out[name] = {
            "argv": argv,
            "exit_status": status,
            "sha256": sha256(cap.text()),
            "lines": len(lines),
            "structures": checked if checked is not None else len(lines),
            "chunks": chunk_digests(lines),
        }
        print(name, status, len(lines), out[name]["sha256"], file=sys.stderr)
    return out


def main(argv):
    posemi = workloads.fresh_import()
    if argv == ["pool"]:
        data, path = make_pool(posemi), products.POOL_PATH
    elif argv == ["expected"]:
        data, path = make_expected(posemi), workloads.EXPECTED_PATH
    else:
        print(__doc__, file=sys.stderr)
        return 2
    path.write_text(json.dumps(data, separators=(",", ":")) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
