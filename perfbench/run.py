"""Campaign benchmark for posemi: one workload per invocation.

    python3 perfbench/run.py --workload t1-iso4 --seed 1 --seconds 30 --trace 0

Runs the workload's campaign again and again, each time against a freshly
imported posemi from the checkout's src/, until --seconds is spent.  With
--trace 0 it reports the end-to-end metrics; with --trace 1 every campaign
runs twice, untraced and then traced from outside the program, and it
reports the per-layer metrics.  Every campaign's output is checked.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it state the same figures by name,
with units, and stamp the run with the host and its load.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time


# Interpreter start, taken as the CPU time the process has used on reaching
# this line.  Wall time since process creation is readable only in 10 ms
# clock ticks and, on a shared host, includes waits before the interpreter
# runs; both made it swing twofold between runs.
STARTUP_S = time.process_time()
ENTRY = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

MIN_SETUPS = 5


def _read(path):
    try:
        with open(path, encoding="ascii", errors="replace") as fh:
            return fh.read()
    except OSError:
        return ""


def stamp(args):
    cpu = next(
        (
            line.split(":", 1)[1].strip()
            for line in _read("/proc/cpuinfo").splitlines()
            if line.startswith("model name")
        ),
        platform.processor(),
    )
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg": _read("/proc/loadavg").strip(),
    }


def setup(name, seed):
    """Fresh import plus the workload's input; returns (pkg, input, seconds)."""
    gc.collect()
    start = time.perf_counter()
    pkg = workloads.fresh_import()
    data = workloads.prepare_products(pkg, seed) if name == "big-carrier" else None
    return pkg, data, time.perf_counter() - start


def campaign(name, pkg, data, tracer=None):
    if tracer is None:
        if name == "big-carrier":
            return workloads.product_campaign(pkg, data)
        return workloads.cli_campaign(pkg, name)
    # probes are the benchmark's work, kept out of the self time around them
    probe = tracer.wrap("trace", hostspeed.probe)
    if name == "big-carrier":
        i = tracer.begin("bench")
        try:
            return workloads.product_campaign(pkg, data, probe)
        finally:
            tracer.end(i)
    return workloads.cli_campaign(pkg, name, tracer.wrap("cli", pkg.cli.main), probe)


def measure(args):
    """Run campaigns until the time is spent; returns the tally and metrics."""
    deadline = ENTRY + args.seconds
    setups, plain, traced, layers = [], [], [], []
    while True:
        rep_start = time.perf_counter()
        pkg, data, took = setup(args.workload, args.seed)
        setups.append(took)
        plain.append(campaign(args.workload, pkg, data))
        if args.trace:
            pkg = data = None
            pkg, data, _ = setup(args.workload, args.seed)
            tracer = spans.Tracer()
            spans.install(tracer, pkg)
            traced.append(campaign(args.workload, pkg, data, tracer))
            layers.append(spans.layer_metrics(tracer, traced[-1].scale))
            tracer = None
        pkg = data = None
        now = time.perf_counter()
        if now + (now - rep_start) > deadline:
            break
    while not args.trace and len(setups) < MIN_SETUPS:
        setups.append(setup(args.workload, args.seed)[2])

    outcomes = plain + traced
    identical = all(a.digest == b.digest for a, b in zip(plain, traced))
    walls = sorted(o.wall_s for o in plain)
    tally = {
        "walls": f"{walls[0]:.3f} / {statistics.median(walls):.3f} / {walls[-1]:.3f}",
        "correct": identical and all(o.correct for o in outcomes),
        "attempted": sum(o.structures for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "campaigns": len(plain),
        "identical": identical,
    }
    if not args.trace:
        metrics = {
            "setup_s": (STARTUP_S + statistics.median(setups), "s"),
            "campaign_s": (statistics.median(o.campaign_s for o in plain), "s"),
            "structures_per_s": (
                statistics.median(o.structures / o.campaign_s for o in plain),
                "1/s",
            ),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MB",
            ),
        }
        return tally, metrics

    metrics = {
        name: (statistics.median(m[name] for m in layers), spans.unit(name))
        for name in layers[0]
    }
    metrics["cli.line_gap_p50_ms"] = (
        statistics.median(o.line_gap_p50_ms for o in plain), "ms"
    )
    metrics["cli.line_gap_p99_ms"] = (
        statistics.median(o.line_gap_p99_ms for o in plain), "ms"
    )
    metrics["trace.overhead_s"] = (
        statistics.median(t.campaign_s - p.campaign_s for p, t in zip(plain, traced)),
        "s",
    )
    return tally, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        workloads.fresh_import()
    except ImportError as exc:
        print(f"error: cannot import posemi from {workloads.SRC}: {exc}", file=sys.stderr)
        return 2

    print("# stamp start " + json.dumps(stamp(args)), flush=True)
    tally, metrics = measure(args)
    ratio = tally["failed"] / tally["attempted"] if tally["attempted"] else 1.0
    print(
        f"# {args.workload}: {tally['campaigns']} campaigns, "
        f"{tally['attempted']} structures attempted, "
        + (
            f"traced stream identical to untraced: {tally['identical']}"
            if args.trace
            else "untraced"
        )
    )
    print(f"# campaign wall time min / median / max: {tally['walls']} s")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"fail_ratio {ratio:.6g} ratio ({tally['failed']}/{tally['attempted']})")
    print("# stamp end " + json.dumps(stamp(args)))
    print(
        json.dumps(
            {
                "correct": tally["correct"],
                "attempted": tally["attempted"],
                "failed": tally["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
