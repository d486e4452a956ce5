"""The report stream a campaign writes, and the gate that checks it.

A campaign's stdout is captured in memory: every line is kept with the time
it was completed, and the whole stream is hashed.  The gate compares the
stream with a pinned sha256 and locates disagreements through pinned
digests of fixed-size chunks of lines, so a wrong stream can be charged to
the structures whose lines it changed.
"""

from __future__ import annotations

import hashlib
import math
import time

CHUNK_LINES = 64


class Capture:
    """Text sink standing in for sys.stdout; records each completed line
    and the perf_counter time at which its newline was written.  With a
    probe, it runs the probe after each line and records its seconds."""

    def __init__(self, clock=time.perf_counter, probe=None):
        self._clock = clock
        self._probe = probe
        self._partial = []
        self.lines = []
        self.times = []
        self.probes = []

    def write(self, text):
        if "\n" not in text:
            self._partial.append(text)
            return len(text)
        head, *rest = text.split("\n")
        self._partial.append(head)
        for piece in rest:
            self.lines.append("".join(self._partial))
            self.times.append(self._clock())
            if self._probe is not None:
                self.probes.append(self._probe())
            self._partial = [piece]
        return len(text)

    def flush(self):
        pass

    def text(self):
        """Everything written so far, including an unterminated last line."""
        tail = "".join(self._partial)
        return "".join(line + "\n" for line in self.lines) + tail


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def chunk_digests(lines, size=CHUNK_LINES):
    """First 16 hex digits of the sha256 of each run of `size` lines."""
    return [
        sha256("".join(line + "\n" for line in lines[i : i + size]))[:16]
        for i in range(0, max(len(lines), 1), size)
    ]


def failed_structures(lines, expected):
    """Structures whose report lines disagree with the pinned stream.

    Every structure line in a chunk whose digest differs, or that is missing
    because the stream stopped early, counts as failed.  `expected` holds
    `structures` (the structure lines at the head of the stream) and
    `chunks` (chunk_digests of the pinned stream).
    """
    got = chunk_digests(lines)
    failed = 0
    for i, want in enumerate(expected["chunks"]):
        if i >= len(got) or got[i] != want:
            lo = i * CHUNK_LINES
            failed += max(0, min(lo + CHUNK_LINES, expected["structures"]) - lo)
    if failed == 0 and got != expected["chunks"]:
        # extra lines after the pinned stream: charge the last structure
        failed = 1
    return failed


def checked_count(lines):
    """The N of a trailing `# checked=N failures=K` summary, else None."""
    if lines and lines[-1].startswith("# checked="):
        return int(lines[-1].split()[1].split("=")[1])
    return None


def percentile(values, p):
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]
