"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import products  # noqa: E402
import spans  # noqa: E402
import stream  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def posemi():
    return workloads.fresh_import()


@pytest.fixture(scope="module")
def pool():
    return products.load_pool()


def _key(drawn):
    return [(d["shape"], d["factors"], d["table"], d["leq"], d["subsets"]) for d in drawn]


def test_draw_is_deterministic_per_seed(pool):
    first = products.draw_products(7, *pool)
    assert _key(first) == _key(products.draw_products(7, *pool))
    assert _key(first) != _key(products.draw_products(8, *pool))


def test_draw_is_stratified(pool):
    drawn = products.draw_products(3, *pool)
    for shape in products.SHAPES:
        mine = [d for d in drawn if d["shape"] == shape]
        assert len(mine) == products.PER_STRATUM * len(products.CLASSES)
        assert sum(d["intra_regular"] for d in mine) == products.PER_STRATUM
        assert {len(d["table"]) for d in mine} == {len(list(itertools.product(*map(range, shape))))}


def test_drawn_products_are_valid_ordered_semigroups(posemi, pool):
    for d in products.draw_products(5, *pool):
        s = posemi.ordered.OrderedSemigroup(d["table"], d["leq"])
        assert posemi.ordered.validate(s) == []


def test_product_rule_agrees_with_is_intra_regular(posemi, pool):
    drawn = products.draw_products(11, *pool)
    for d in drawn:
        s = posemi.ordered.OrderedSemigroup(d["table"], d["leq"])
        assert posemi.ordered.is_intra_regular(s) == d["intra_regular"]
        assert products.is_intra_regular(d["table"], d["leq"]) == d["intra_regular"]


def test_pinned_families_match(posemi, pool):
    for d in products.draw_products(2, *pool)[:: products.PER_STRATUM]:
        s = posemi.ordered.OrderedSemigroup(d["table"], d["leq"])
        got = tuple(len(posemi.ordered.ideal_masks(s, k)) for k in workloads.IDEAL_KINDS)
        assert got == d["families"]


def _lines(n):
    return [f"{i:016x}\ttrue\ttrue\ttrue\ttrue" for i in range(n)] + [
        f"# checked={n} failures=0"
    ]


def test_gate_accepts_the_pinned_stream():
    lines = _lines(200)
    expected = {"structures": 200, "chunks": stream.chunk_digests(lines)}
    assert stream.failed_structures(lines, expected) == 0
    assert stream.checked_count(lines) == 200


def test_gate_rejects_one_altered_line():
    lines = _lines(200)
    expected = {"structures": 200, "chunks": stream.chunk_digests(lines)}
    altered = list(lines)
    altered[130] = altered[130].replace("\ttrue\ttrue\ttrue", "\ttrue\tfalse\ttrue", 1)
    text = "".join(x + "\n" for x in lines)
    assert stream.sha256("".join(x + "\n" for x in altered)) != stream.sha256(text)
    # the chunk holding line 130 is lines 128..191
    assert stream.failed_structures(altered, expected) == stream.CHUNK_LINES


def test_gate_charges_missing_lines_as_failed():
    lines = _lines(200)
    expected = {"structures": 200, "chunks": stream.chunk_digests(lines)}
    assert stream.failed_structures(lines[:100], expected) == 200 - 64
    assert stream.failed_structures(lines + ["extra"], expected) >= 1


def test_capture_records_lines_times_and_probes():
    ticks = iter([1.0, 2.0, 3.0, 3.5])
    probes = iter([0.1, 0.2, 0.3, 0.4])
    cap = stream.Capture(clock=lambda: next(ticks), probe=lambda: next(probes))
    cap.write("a")
    cap.write("b\nc")
    cap.write("\n")
    cap.write("d\ne\n")
    assert cap.lines == ["ab", "c", "d", "e"]
    assert cap.times == [1.0, 2.0, 3.0, 3.5]
    assert cap.probes == [0.1, 0.2, 0.3, 0.4]
    assert cap.text() == "ab\nc\nd\ne\n"


def test_line_seconds_are_net_of_probes():
    lines = hostspeed.line_seconds(0.5, [1.0, 2.0, 3.0], [0.1, 0.2, 0.3])
    assert lines == pytest.approx([0.5, 0.9, 0.8])


def test_scale_cancels_host_speed():
    nominal = hostspeed.NOMINAL_PROBE_S
    assert hostspeed.scale([1.0, 3.0], [nominal, nominal]) == pytest.approx(1.0)
    # a host running everything twice as slow reads the same
    assert 8.0 * hostspeed.scale([2.0, 6.0], [2 * nominal] * 2) == pytest.approx(4.0)
    # a line's sample is the mean of the probes around it, weighted by the
    # line's duration: (1.0 * 1 + 3.0 * 1.5) / 4.0 probe units
    assert hostspeed.scale([1.0, 3.0], [nominal, 2 * nominal]) == pytest.approx(4.0 / 5.5)


def test_self_time_is_duration_minus_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    root = tracer.begin("root")  # 0.0
    a = tracer.begin("child")  # 1.0
    tracer.end(a)  # 3.0
    b = tracer.begin("child")  # 4.0
    tracer.end(b)  # 4.5
    tracer.end(root)  # 10.0
    summary = tracer.summary()
    assert summary["root"] == (1, 10.0, 10.0 - 2.0 - 0.5, 10.0)
    assert summary["child"] == (2, 2.5, 2.5, 2.0)


def test_nested_grandchildren_count_only_against_their_parent():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 5.0, 6.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    root = tracer.begin("root")
    mid = tracer.begin("mid")
    leaf = tracer.begin("leaf")
    tracer.end(leaf)  # leaf 2..3
    tracer.end(mid)  # mid 1..5
    tracer.end(root)  # root 0..6
    s = tracer.summary()
    assert s["leaf"][2] == 1.0
    assert s["mid"][2] == 4.0 - 1.0
    assert s["root"][2] == 6.0 - 4.0


def test_traced_campaign_matches_untraced(posemi, pool):
    drawn = products.draw_products(4, *pool)[:2]
    for d in drawn:
        d["structure"] = posemi.ordered.OrderedSemigroup(d["table"], d["leq"])
    plain = workloads.product_campaign(posemi, drawn)
    pkg = workloads.fresh_import()
    for d in drawn:
        d["structure"] = pkg.ordered.OrderedSemigroup(d["table"], d["leq"])
    tracer = spans.Tracer()
    spans.install(tracer, pkg)
    traced = workloads.product_campaign(pkg, drawn)
    assert plain.correct and traced.correct
    assert traced.digest == plain.digest
    metrics = spans.layer_metrics(tracer)
    assert metrics["ordered.c2_s"] > 0 and metrics["ordered.families_s"] > 0
    assert metrics["ordered.generator_checks"] == 2 * products.GENERATOR_SUBSETS * 3
    assert metrics["enumeration.structures"] == 0
