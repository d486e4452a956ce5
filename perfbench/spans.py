"""Spans and counts around posemi's public functions, recorded from outside.

`install` replaces public functions of a freshly imported posemi with
wrappers that open a span for each call (or each step of an enumeration
stream) and record counts at the same boundaries.  A function is replaced
in every posemi module that holds it, so calls through a `from .canon
import ...` name are traced too.  Spans nest; a span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter


class Tracer:
    """In-memory span recorder.  spans[i] is [name, start, end, parent]."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = Counter()
        self._open = []

    def begin(self, name):
        i = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, self.clock(), None, parent])
        self._open.append(i)
        return i

    def end(self, i):
        self.spans[i][2] = self.clock()
        self._open.pop()

    def innermost(self):
        """Name of the innermost open span, or None."""
        return self.spans[self._open[-1]][0] if self._open else None

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            i = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(i)

        return traced

    def summary(self):
        """name -> (calls, total seconds, self seconds, longest seconds)."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            calls, total, own, longest = out.get(name, (0, 0.0, 0.0, 0.0))
            dur = end - start
            out[name] = (calls + 1, total + dur, own + dur - covered, max(longest, dur))
        return out


class _Stream:
    """Iterator that records one span per step of an enumeration stream."""

    def __init__(self, tracer, it, counts):
        self._tracer = tracer
        self._it = it
        self._counts = counts

    def __iter__(self):
        return self

    def __next__(self):
        i = self._tracer.begin("enumeration.next")
        try:
            item = next(self._it)
        finally:
            self._tracer.end(i)
        for key in self._counts:
            self._tracer.counts[key] += 1
        return item


def _replace(pkg, original, replacement):
    for mod in (pkg, pkg.canon, pkg.cli, pkg.enumeration, pkg.le, pkg.ordered, pkg.storage):
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, replacement)


def install(tracer, pkg):
    """Trace the public functions of a freshly imported posemi package."""
    enum, canon, ordered, le, storage = (
        pkg.enumeration, pkg.canon, pkg.ordered, pkg.le, pkg.storage,
    )
    counts = tracer.counts
    sizes = []  # family sizes requested inside the current condition check
    seen = {"structure": None, "kinds": set()}

    def stream(fn, extra=()):
        # only the stream the caller iterates gets spans; streams nested
        # inside it run within its steps
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            if (tracer.innermost() or "").startswith("enumeration."):
                return it
            return _Stream(tracer, it, ("enumeration.structures", *extra))

        return traced

    for name, extra in (
        ("enumerate_semigroups", ()),
        ("enumerate_ordered_semigroups", ()),
        # the le backtracker is private; each le structure is one of its tables
        ("enumerate_le_semigroups", ("enumeration.tables",)),
    ):
        fn = getattr(enum, name)
        _replace(pkg, fn, stream(fn, extra))

    associative_tables = enum.associative_tables

    def tables(n):
        for t in associative_tables(n):
            counts["enumeration.tables"] += 1
            yield t

    _replace(pkg, associative_tables, tables)

    compatible_orders = enum.enumerate_compatible_orders
    all_posets = enum.all_posets

    def orders(table):
        counts["enumeration.orders_tried"] += len(all_posets(len(table)))
        for leq in compatible_orders(table):
            counts["enumeration.orders_found"] += 1
            yield leq

    _replace(pkg, compatible_orders, orders)

    for fn in (canon.ordered_structure_id, canon.le_structure_id):
        def structure_id(table, *rest, _fn=fn):
            i = tracer.begin("canon.id")
            try:
                return _fn(table, *rest)
            finally:
                tracer.end(i)
                counts["canon.ids"] += 1
                counts["canon.relabelings"] += math.factorial(len(table))

        _replace(pkg, fn, structure_id)

    ideal_masks = ordered.ideal_masks

    def families(s, kind, *args, **kwargs):
        i = tracer.begin("ordered.families")
        try:
            result = ideal_masks(s, kind, *args, **kwargs)
        finally:
            tracer.end(i)
        if s is not seen["structure"]:
            seen["structure"], seen["kinds"] = s, set()
            counts["ordered.subsets_classified"] += (1 << s.n) - 1
        if kind not in seen["kinds"]:
            seen["kinds"].add(kind)
            counts["ordered.ideals"] += len(result)
        sizes.append(len(result))
        return result

    _replace(pkg, ideal_masks, families)

    ideal_elements = le.ideal_elements

    def elements(struct, kind):
        result = ideal_elements(struct, kind)
        counts["le.ideal_elements"] += len(result)
        sizes.append(len(result))
        return result

    _replace(pkg, ideal_elements, elements)

    def condition(fn, layer):
        def traced(s, kind, *args, **kwargs):
            label = f"{layer}.{'c2' if kind == 'bi' else 'c3'}"
            sizes.clear()
            i = tracer.begin(label)
            try:
                result = fn(s, kind, *args, **kwargs)
            finally:
                tracer.end(i)
            counts[f"{label}_structures"] += 1
            counts[f"{label}_held"] += result is True
            counts[f"{label}_triple_space"] += math.prod(sizes) if sizes else 0
            return result

        return traced

    _replace(pkg, ordered.condition_holds, condition(ordered.condition_holds, "ordered"))
    _replace(pkg, le.le_condition_holds, condition(le.le_condition_holds, "le"))
    _replace(pkg, ordered.is_intra_regular, tracer.wrap("ordered.c1", ordered.is_intra_regular))
    _replace(pkg, le.is_intra_regular_poe, tracer.wrap("le.c1", le.is_intra_regular_poe))

    oracle = ordered.least_ideal_oracle

    def checked_oracle(*args, **kwargs):
        counts["ordered.generator_checks"] += 1
        i = tracer.begin("ordered.oracle")
        try:
            return oracle(*args, **kwargs)
        finally:
            tracer.end(i)

    _replace(pkg, oracle, checked_oracle)

    to_payload = storage.to_payload

    def payload(*args, **kwargs):
        i = tracer.begin("storage.payload")
        try:
            result = to_payload(*args, **kwargs)
        finally:
            tracer.end(i)
        # measuring the record is tracing work, kept out of the caller's self time
        i = tracer.begin("trace")
        counts["storage.bytes_out"] += len(json.dumps(result, separators=(",", ":")))
        tracer.end(i)
        return result

    _replace(pkg, to_payload, payload)


def unit(name):
    """Unit of a per-layer metric, from its name."""
    for suffix, u in (("_ms", "ms"), ("_s", "s"), ("_ratio", "ratio"), ("bytes_out", "bytes")):
        if name.endswith(suffix):
            return u
    return "count"


def layer_metrics(tracer, scale=1.0):
    """The per-layer metrics of one traced campaign, by name; times are
    multiplied by `scale`, the campaign's host-speed scale."""
    spans = tracer.summary()
    c = tracer.counts

    def own(name):
        return spans.get(name, (0, 0.0, 0.0, 0.0))[2] * scale

    def ratio(num, den):
        return c[num] / c[den] if c[den] else 0.0

    return {
        "enumeration.busy_s": own("enumeration.next"),
        "enumeration.structures": c["enumeration.structures"],
        "enumeration.tables": c["enumeration.tables"],
        "enumeration.max_gap_s": spans.get("enumeration.next", (0, 0, 0, 0.0))[3] * scale,
        "enumeration.order_hit_ratio": ratio(
            "enumeration.orders_found", "enumeration.orders_tried"
        ),
        "canon.busy_s": own("canon.id"),
        "canon.ids": c["canon.ids"],
        "canon.relabelings": c["canon.relabelings"],
        "ordered.families_s": own("ordered.families"),
        "ordered.subsets_classified": c["ordered.subsets_classified"],
        "ordered.ideals": c["ordered.ideals"],
        "ordered.c1_s": own("ordered.c1"),
        "ordered.c2_s": own("ordered.c2"),
        "ordered.c3_s": own("ordered.c3"),
        "ordered.c2_triple_space": c["ordered.c2_triple_space"],
        "ordered.c3_triple_space": c["ordered.c3_triple_space"],
        "ordered.full_scan_ratio": ratio("ordered.c2_held", "ordered.c2_structures"),
        "ordered.oracle_s": own("ordered.oracle"),
        "ordered.generator_checks": c["ordered.generator_checks"],
        "le.c1_s": own("le.c1"),
        "le.c2_s": own("le.c2"),
        "le.c3_s": own("le.c3"),
        "le.ideal_elements": c["le.ideal_elements"],
        "le.c2_triple_space": c["le.c2_triple_space"],
        "le.c3_triple_space": c["le.c3_triple_space"],
        "storage.payload_s": own("storage.payload"),
        "storage.bytes_out": c["storage.bytes_out"],
        "cli.self_s": own("cli"),
    }
