"""Order-5 benchmark: writes BENCH_order5.json at the repo root.

    python3 tools/bench_order5.py [SCOPE ...]

The file holds one entry per campaign, each with "before" and "after".
The campaigns of each SCOPE named (theorem1, theorem2, remark; all of them
when none is named) are rerun, and every other entry is written back as it
was read, so a rerun moves only what it measured.  "before" is read from
BENCH_order5.json and written back unchanged.  "after" is measured on this
checkout.  Its end-to-end time is the median of three runs of the
campaign, each in a child process; the three runs are recorded too, since
one run moves with host load.  Its per-layer split
comes from one more run, of `cli.main` in this process, with the functions
of `LAYERS` wrapped from outside by setting module attributes (restored
afterwards).  A layer is the self time of its functions' calls, or of each
step of the streams they return: time in wrapped calls nested inside a call
is its inner layer's.  `other`, the run's wall time less the layers, is the
rest of the command: argument parsing, the campaign loop, the lines and
their printing.  Every run, child or in process, must end in the pinned
summary line and hash to the pinned SHA-256.
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
RUNS = 3  # end-to-end runs per campaign; the median is reported

# argv, pinned summary line, pinned stream SHA-256
CAMPAIGNS = [
    (
        ["verify", "theorem1", "--max-order", "5", "--dedup", "iso"],
        "# checked=203776 failures=0",
        "11827f6e00129acda40a6e71786f28ee99ea6f235defdbf8da0bd73774ed3013",
    ),
    (
        ["verify", "theorem2", "--max-order", "5", "--dedup", "iso"],
        "# checked=7268 failures=0",
        "8195434b332f8ca856bd101e8f708e84a1d9cc6e8ab0fae8a3eaf690385fd42d",
    ),
    (
        ["verify", "theorem2", "--max-order", "4", "--dedup", "none"],
        "# checked=11581 failures=0",
        "c169fd62f7d3208331e105ec2aeede44d3ad83dd80c45a7e4241dce9c664b24f",
    ),
    (
        ["verify", "theorem2", "--max-order", "5", "--dedup", "none"],
        "# checked=799141 failures=0",
        "e2a46d30b502a1c7658a8d04b441e1891aa7297f4bbc68cbd0c506dbd28fc76d",
    ),
    (
        ["verify", "remark", "--max-order", "5", "--dedup", "iso"],
        "# checked=49239 failures=0",
        "d3752bf986730e1da275fa84d95b857c9125e78dcd2195229a57766d0d47eb70",
    ),
]

# scope -> {"module.function": layer}
_ORDERED = {
    "enumeration._semigroup_tables": "enumeration",
    "enumeration._compatible_orders": "walk",
    "canon.ordered_digest": "ids",
}
LAYERS = {
    "theorem1": {**_ORDERED, "ordered.theorem1_flags": "kernel"},
    "remark": {**_ORDERED, "le.greatest": "walk", "le.remark_flags": "checks"},
    "theorem2": {
        "enumeration.all_lattices": "lattices",
        "enumeration.le_sources": "fill",
        "canon.le_digest": "ids",
        "canon.le_structure_id": "ids",
        "le.theorem2_flags": "checks",
    },
}


def check(status, last, digest, summary, sha256):
    if status or last != summary or digest != sha256:
        raise SystemExit(
            f"error: exit status {status}, stream changed: {last!r}, sha256 {digest}"
        )


def end_to_end(argv, summary, sha256):
    """Wall times of RUNS runs of the campaign, each in a child process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    walls = []
    for _ in range(RUNS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "posemi.cli", *argv], env=env, capture_output=True
        )
        walls.append(time.perf_counter() - start)
        last = proc.stdout.decode().rstrip("\n").rsplit("\n", 1)[-1]
        digest = hashlib.sha256(proc.stdout).hexdigest()
        check(proc.returncode, last, digest, summary, sha256)
    return walls


class _Sink:
    """stdout that keeps the SHA-256 of what it is sent and its last line."""

    def __init__(self):
        self.sha256 = hashlib.sha256()
        self.last = ""

    def write(self, text):
        self.sha256.update(text.encode())
        if text.strip("\n"):  # print sends a line and its newline apart
            self.last = text.rstrip("\n").rsplit("\n", 1)[-1]

    def flush(self):
        pass


def split(argv, summary, sha256):
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
        for name, layer in LAYERS[argv[1]].items():
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
    check(status, sink.last, sink.sha256.hexdigest(), summary, sha256)
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
    campaigns = []
    for argv, summary, sha256 in CAMPAIGNS:
        command = "posemi " + " ".join(argv)
        if scopes and argv[1] not in scopes:
            campaigns.append(old[command])
            continue
        walls = end_to_end(argv, summary, sha256)
        wall, spent = split(argv, summary, sha256)
        after = {
            "host": host,
            "end_to_end_s": round(statistics.median(walls), 2),
            "end_to_end_runs_s": [round(w, 2) for w in walls],
            "structures": int(summary.split("=")[1].split()[0]),
            "stream_sha256": sha256,
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
