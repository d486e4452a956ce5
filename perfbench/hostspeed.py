"""Host speed, sampled by a fixed snippet of interpreter work.

On a shared host the same campaign's wall time swings by up to 2x within
minutes, and its CPU time swings with it, so the swing is the processor
running slower, not the scheduler.  A probe is a fixed snippet of tuple,
dict, bitmask and list work like posemi's own (about 15 us) run after
every report line; its duration tracks how fast the host runs such code at
that moment.  A campaign's time is reported at a nominal host speed: its
wall time, net of the probes, scaled by NOMINAL_PROBE_S over the mean probe
time, weighted by the lines' durations.
"""

from __future__ import annotations

import time

# Mean probe time in quiet phases on the host the benchmark was built on
# (2.1 GHz Xeon, 2 vCPUs, Python 3.11); a scale, the same for every commit.
NOMINAL_PROBE_S = 15e-6

# Table rows to hash, four subsets of a 12-element carrier as bitmasks, and
# a map on the carrier.  Rows alone tracked the enumeration and id work
# best, bitmasks alone the ideal scans; the probe does both.
_ROWS = tuple(tuple(range(i, i + 8)) for i in range(32))
_MASKS = tuple((i * 2654435761) & 0xFFF for i in range(1, 5))
_MAP = tuple((i * 7) % 12 for i in range(12))


def _members(mask):
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def probe(clock=time.perf_counter):
    """Seconds the fixed snippet takes now: a dict keyed by _ROWS, and the
    images of _MASKS under _MAP computed the way posemi computes set
    products."""
    start = clock()
    table = {}
    for row in _ROWS:
        table[row] = sum(row) & 7
    image = 0
    for mask in _MASKS:
        for i in _members(mask):
            image |= 1 << _MAP[i]
    return clock() - start


def line_seconds(start, times, probes):
    """Seconds each line took: from the previous line (the first from
    start), net of the probe run after the previous line."""
    return [b - a - p for a, b, p in zip([start, *times], times, [0.0, *probes])]


def scale(lines, probes):
    """NOMINAL_PROBE_S over the host's probe time during the lines.

    A line's speed sample is the mean of the probes run just before it and
    just after it; samples are weighted by the lines' durations.
    """
    net = sum(lines)
    if not probes or net <= 0:
        return 1.0
    around = [(a + b) / 2 for a, b in zip([probes[0], *probes], probes)]
    return NOMINAL_PROBE_S * net / sum(t * p for t, p in zip(lines, around))
