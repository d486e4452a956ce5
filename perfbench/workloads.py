"""The four campaigns, each run against a freshly imported posemi.

Every run re-imports posemi from the checkout's src/, so lazy caches
(lru_cache tables, per-structure ideal families) start empty as they do for
a CLI user, and the tracer can patch the fresh modules without touching the
untraced ones.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import hostspeed
import products
from stream import Capture, checked_count, failed_structures, percentile, sha256

SRC = Path(__file__).resolve().parent.parent / "src"
EXPECTED_PATH = Path(__file__).with_name("expected.json")

# Below the cliff in the order-5 stream: the 1,300th table arrives after
# about 7 s, the 1,400th only after minutes.
ENUM5_LIMIT = 1300

CLI_ARGV = {
    "t1-iso4": ["verify", "theorem1", "--max-order", "4", "--dedup", "iso"],
    "t2-raw4": ["verify", "theorem2", "--max-order", "4", "--dedup", "none"],
    "enum5-prefix": [
        "enumerate", "--kind", "semigroup", "--order", "5",
        "--dedup", "iso", "--limit", str(ENUM5_LIMIT),
    ],
}
WORKLOADS = (*CLI_ARGV, "big-carrier")
IDEAL_KINDS = ("right", "bi", "quasi", "left")


def fresh_import():
    """Import posemi (and its CLI) anew from the checkout's src/."""
    for name in [m for m in sys.modules if m == "posemi" or m.startswith("posemi.")]:
        del sys.modules[name]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("posemi")
    importlib.import_module("posemi.cli")
    if Path(pkg.__file__).resolve().parent != SRC / "posemi":
        raise ImportError(f"posemi imported from {pkg.__file__}, not from {SRC}")
    return pkg


@dataclass
class Outcome:
    """One campaign: its time at nominal host speed (campaign_s), its wall
    time, the host-speed scale between them, the correctness tally, and a
    summary of its stream (the stream itself is dropped so memory does not
    grow with the number of campaigns in a run)."""

    campaign_s: float
    scale: float
    structures: int
    failed: int
    correct: bool
    digest: str
    wall_s: float
    line_gap_p50_ms: float
    line_gap_p99_ms: float


def _outcome(cap, start, structures, failed, correct):
    """Outcome of a campaign whose capture ran the host-speed probe."""
    times = cap.times or [time.perf_counter()]
    lines = hostspeed.line_seconds(start, times, cap.probes)
    scale = hostspeed.scale(lines, cap.probes)
    gaps = [t * scale * 1000.0 for t in lines[1:]]
    return Outcome(
        sum(lines) * scale,
        scale,
        structures,
        failed,
        correct,
        sha256(cap.text()),
        times[-1] - start,
        percentile(gaps, 50),
        percentile(gaps, 99),
    )


def run_cli(pkg, argv, main=None, probe=hostspeed.probe):
    """Call posemi.cli.main with stdout captured, probing the host's speed
    after each line; returns the capture, the exit status (None after a
    crash) and the perf_counter time of the call."""
    main = main or pkg.cli.main
    cap = Capture(probe=probe)
    saved = sys.stdout
    sys.stdout = cap
    status = None
    start = time.perf_counter()
    try:
        status = main(list(argv))
    except SystemExit as exc:
        status = exc.code
    except Exception:
        traceback.print_exc(file=sys.stderr)
    finally:
        sys.stdout = saved
    return cap, status, start


def load_expected(name):
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))[name]


def cli_campaign(pkg, name, main=None, probe=hostspeed.probe):
    expected = load_expected(name)
    cap, status, start = run_cli(pkg, CLI_ARGV[name], main, probe)
    lines = cap.lines
    count = checked_count(lines) if CLI_ARGV[name][0] == "verify" else len(lines)
    failed = failed_structures(lines, expected)
    correct = (
        status == 0
        and sha256(cap.text()) == expected["sha256"]
        and count == expected["structures"]
    )
    if not correct and failed == 0:
        failed = expected["structures"]
    return _outcome(cap, start, expected["structures"], failed, correct)


def prepare_products(pkg, seed):
    """Seeded big-carrier input, with posemi structures built for it."""
    factors, pool = products.load_pool()
    drawn = products.draw_products(seed, factors, pool)
    for d in drawn:
        d["structure"] = pkg.ordered.OrderedSemigroup(d["table"], d["leq"])
    return drawn


def _flag(b):
    return "true" if b else "false"


def check_product(ordered, i, d, out):
    """Check one product, writing a report line per step: pinned family
    sizes, c1 against the factor rule, c1 == c2 == c3, and every sampled
    gen_ideal against least_ideal_oracle.  Returns the verdict."""
    s = d["structure"]
    head = f"{i}\t{'x'.join(map(str, d['shape']))}"
    fam = tuple(len(ordered.ideal_masks(s, k)) for k in IDEAL_KINDS)
    out.write(f"{head}\tfamilies\t{','.join(map(str, fam))}\n")
    c1 = ordered.is_intra_regular(s)
    out.write(f"{head}\tc1\t{_flag(c1)}\n")
    c2 = ordered.condition_holds(s, "bi") is True
    out.write(f"{head}\tc2\t{_flag(c2)}\n")
    c3 = ordered.condition_holds(s, "quasi") is True
    out.write(f"{head}\tc3\t{_flag(c3)}\n")
    mismatches = sum(
        ordered.gen_ideal(s, x, k) != ordered.least_ideal_oracle(s, x, k)
        for x in d["subsets"]
        for k in products.GENERATOR_KINDS
    )
    out.write(f"{head}\toracle_mismatches\t{mismatches}\n")
    return (
        fam == d["families"]
        and c1 == d["intra_regular"]
        and c1 == c2 == c3
        and mismatches == 0
    )


def product_campaign(pkg, drawn, probe=hostspeed.probe):
    ordered = pkg.ordered
    cap = Capture(probe=probe)
    failed = 0
    start = time.perf_counter()
    for i, d in enumerate(drawn):
        try:
            failed += not check_product(ordered, i, d, cap)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            failed += len(drawn) - i
            break
    return _outcome(cap, start, len(drawn), failed, failed == 0)
