"""Order-5 benchmark: writes BENCH_order5.json at the repo root.

    python3 tools/bench_order5.py [SCOPE ...]

The file holds one entry per campaign, each with "before" and "after"; a
campaign is a `verify` run or, for the scope enumerate, `enumerate --kind
ordered --order 5 --dedup iso`.  The campaigns of each SCOPE named
(theorem1, theorem2, remark, enumerate; all of them when none is named) are
rerun, and every other entry is written back as it was read, so a rerun
moves only what it measured.  "before" is read from BENCH_order5.json and
written back unchanged.  "after" is measured on this checkout.  Its
end-to-end time is the median of three runs of the campaign, each in a
child process; the three runs are recorded too, since one run moves with
host load.  Its per-layer split comes from one more run, of `cli.main` in
this process, with the functions of `LAYERS` wrapped from outside by
setting module attributes (restored afterwards).  A layer is the self time
of its functions' calls, or of each step of the streams they return: time
in wrapped calls nested inside a call is its inner layer's.  `other`, the
run's wall time less the layers, is the rest of the command: argument
parsing, the campaign loop, the lines and their printing.  Every run, child
or in process, must hash to the SHA-256 that tests/golden/streams.json pins
for it and end in its pinned summary line or, for enumerate, which prints
none, have its pinned line count.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
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
STREAMS = ROOT / "tests" / "golden" / "streams.json"
RUNS = 3  # end-to-end runs per campaign; the median is reported

# the campaigns timed, each pinned in STREAMS
CAMPAIGNS = [
    "verify theorem1 --max-order 5 --dedup iso",
    "verify theorem2 --max-order 5 --dedup iso",
    "verify theorem2 --max-order 4 --dedup none",
    "verify theorem2 --max-order 5 --dedup none",
    "verify remark --max-order 5 --dedup iso",
    "enumerate --kind ordered --order 5 --dedup iso",
]

# scope -> {"module.function": layer}
_ORDERED = {
    "enumeration._semigroup_tables": "enumeration",
    "enumeration._compatible_orders": "walk",
    "canon.ordered_digest": "ids",
}
LAYERS = {
    "theorem1": {**_ORDERED, "ordered.theorem1_flags": "kernel"},
    "remark": {**_ORDERED, "le.top_of": "walk", "le.remark_flags": "checks"},
    # le_sources' own steps relabel and sort the search's tables (raw) or
    # canonicalize and sort them (iso); the search itself is _fill's
    "theorem2": {
        "enumeration.all_lattices": "lattices",
        "enumeration._fill": "search",
        "enumeration.le_sources": "relabel",
        "canon.le_digest": "ids",
        "canon.le_structure_id": "ids",
        "le.theorem2_flags": "checks",
    },
    "enumerate": {
        "enumeration._semigroup_tables": "enumeration",
        "enumeration._compatible_orders": "walk",
        "storage.ordered_record": "records",
    },
}


def scope(argv):
    """The LAYERS key of a campaign: its verify scope, or enumerate."""
    return argv[0] if argv[0] == "enumerate" else argv[1]


def check(status, sink, pin):
    """Exit unless the run exited 0 and the stream sink took matches pin on
    the keys pin holds: "sha256", and "summary" (the last line) for verify or
    "lines" (their count) for enumerate, which prints no summary."""
    found = {
        "summary": sink.last,
        "lines": sink.lines,
        "sha256": sink.sha256.hexdigest(),
    }
    found = {key: found[key] for key in pin}
    if status or found != pin:
        raise SystemExit(f"error: exit status {status}, stream changed: {found}")


def end_to_end(argv, pin):
    """Wall times of RUNS runs of the campaign, each in a child process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    walls = []
    for _ in range(RUNS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "posemi.cli", *argv], env=env, capture_output=True
        )
        walls.append(time.perf_counter() - start)
        sink = _Sink()
        sink.write(proc.stdout.decode())
        check(proc.returncode, sink, pin)
    return walls


class _Sink:
    """stdout that keeps the SHA-256 of what it is sent, its line count and
    its last line."""

    def __init__(self):
        self.sha256 = hashlib.sha256()
        self.lines = 0
        self.last = ""

    def write(self, text):
        self.sha256.update(text.encode())
        self.lines += text.count("\n")
        if text.strip("\n"):  # print sends a line and its newline apart
            self.last = text.rstrip("\n").rsplit("\n", 1)[-1]

    def flush(self):
        pass


def split(argv, pin):
    """(wall seconds, seconds per layer) of one run of `cli.main(argv)` in
    this process, the layers those of `LAYERS` for the scope and `other`."""
    from posemi import cli, enumeration

    enumeration.all_lattices.cache_clear()
    enumeration.all_posets.cache_clear()
    spent = {}
    nested = [0.0]  # per open call: the time of the wrapped calls inside it

    def timed(layer, fn):
        def call(*args):
            nested.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args)
            finally:
                took = time.perf_counter() - start
                spent[layer] += took - nested.pop()
                nested[-1] += took
            if hasattr(result, "__next__"):  # a stream: time each step
                return iter(timed(layer, result.__next__), object())
            return result

        return call

    patched = []
    sink = _Sink()
    try:
        for name, layer in LAYERS[scope(argv)].items():
            path, attr = name.split(".")
            module = importlib.import_module(f"posemi.{path}")
            fn = getattr(module, attr)
            patched.append((module, attr, fn))
            spent[layer] = 0.0
            setattr(module, attr, timed(layer, fn))
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            status = cli.main(argv)
        wall = time.perf_counter() - start
    finally:
        for module, attr, fn in patched:
            setattr(module, attr, fn)
    check(status, sink, pin)
    spent["other"] = wall - sum(spent.values())
    return wall, spent


def main(scopes=None):
    """Rerun the campaigns of scopes (sys.argv[1:] by default; every scope
    when empty) and rewrite OUT, the other entries as they were."""
    scopes = sys.argv[1:] if scopes is None else scopes
    unknown = sorted(set(scopes) - set(LAYERS))
    if unknown:
        raise SystemExit(f"usage: bench_order5.py [{'|'.join(LAYERS)} ...]: {unknown}")
    sys.path.insert(0, str(SRC))
    host = f"{os.cpu_count()} vCPUs, Python {platform.python_version()}"
    old = {c["command"]: c for c in json.loads(OUT.read_text())["campaigns"]}
    pins = json.loads(STREAMS.read_text())
    campaigns = []
    for campaign in CAMPAIGNS:
        argv, pin = campaign.split(), pins[campaign]
        command = "posemi " + campaign
        if scopes and scope(argv) not in scopes:
            campaigns.append(old[command])
            continue
        walls = end_to_end(argv, pin)
        wall, spent = split(argv, pin)
        structures = pin.get("lines") or int(pin["summary"].split("=")[1].split()[0])
        after = {
            "host": host,
            "end_to_end_s": round(statistics.median(walls), 2),
            "end_to_end_runs_s": [round(w, 2) for w in walls],
            "structures": structures,
            "stream_sha256": pin["sha256"],
            "in_process_s": round(wall, 3),
            "layers_s": {k: round(v, 3) for k, v in spent.items()},
        }
        campaigns.append(
            {"command": command, "before": old[command]["before"], "after": after}
        )
        print(json.dumps({"command": command, **after}), flush=True)
    OUT.write_text(json.dumps({"campaigns": campaigns}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
