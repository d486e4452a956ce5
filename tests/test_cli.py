"""Command-line harness: golden fixture outputs, campaign determinism,
sharding, and the exit-code contract."""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import posemi
from posemi import (
    OrderedSemigroup,
    canon,
    cli,
    enumeration,
    le,
    le_structure_id,
    load,
    ordered,
    ordered_structure_id,
    save,
    storage,
)
from posemi.cli import _fmt_bool, _line, main
from posemi.enumeration import EnumerationConfig

from conftest import FIXTURES, make_p12
from second_methods import streams

N2 = str(FIXTURES / "n2.json")
S2L = str(FIXTURES / "s2l.json")
L3NULL = str(FIXTURES / "l3null.json")
L3MEET = str(FIXTURES / "l3meet.json")
P12 = str(FIXTURES / "p12.json")
HUGE = 99999999999999999999  # above sys.maxsize, the largest islice step or stop


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_usage_error(capsys, argv):
    """stderr of an argv the parser rejects: exit status 2, empty stdout."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    return captured.err


def cap_message(flag, cap, order, why="the canonicalization cap"):
    return f"error: argument {flag}: must be at most {cap} ({why}), got {order}\n"


def order_cap(use, dedup):
    """The order cap of an enumerate kind or verify scope and its reason:
    iso semigroup and ordered streams take the bare digest, so only their
    table search bounds them; every other run needs canonical forms."""
    if dedup == "iso" and use in ("semigroup", "ordered", "theorem1", "remark"):
        return 7, "the iso table search cap"
    return 6, "the canonicalization cap"


class TestClassifyGolden:
    def test_n2_zero(self, capsys):
        code, out, _ = run(capsys, ["classify", "--file", N2, "--subset", "0"])
        assert code == 0
        assert out == (
            "left=true right=true quasi=true bi=true"
            " downward_closed=true nonempty=true\n"
        )

    def test_s2l_zero(self, capsys):
        code, out, _ = run(capsys, ["classify", "--file", S2L, "--subset", "0"])
        assert code == 0
        assert out == (
            "left=false right=true quasi=true bi=true"
            " downward_closed=true nonempty=true\n"
        )

    def test_l3null_element_a(self, capsys):
        code, out, _ = run(capsys, ["classify", "--file", L3NULL, "--element", "a"])
        assert code == 0
        assert out == "right=true left=true bi=true quasi=true quasi_defined=true\n"

    def test_element_on_plain_ordered_file_fails(self, capsys):
        # s2l's discrete order has no greatest element
        code, _, err = run(capsys, ["classify", "--file", S2L, "--element", "0"])
        assert code == 2
        assert "requires a greatest element" in err

    def test_element_on_ordered_file_with_a_top(self, capsys, tmp_path):
        # n2's order has the top a: its flags are those of its poe file
        poe = tmp_path / "n2-poe.json"
        s = load(N2).structure
        save(le.PoeSemigroup(s.table, s.leq), poe, names=["0", "a"])
        assert load(poe).kind == "poe_semigroup"
        want = run(capsys, ["classify", "--file", str(poe), "--element", "a"])
        got = run(capsys, ["classify", "--file", N2, "--element", "a"])
        assert got == want and want[0] == 0


class TestGenerateGolden:
    def test_n2_quasi(self, capsys):
        code, out, _ = run(
            capsys, ["generate", "--file", N2, "--subset", "a", "--kind", "quasi"]
        )
        assert code == 0
        assert out == "{0, a}\noracle: match\n"

    def test_s2l_left(self, capsys):
        code, out, _ = run(
            capsys, ["generate", "--file", S2L, "--subset", "0", "--kind", "left"]
        )
        assert code == 0
        assert out == "{0, 1}\noracle: match\n"

    def test_l3null_element_quasi(self, capsys):
        code, out, _ = run(
            capsys, ["generate", "--file", L3NULL, "--element", "a", "--kind", "quasi"]
        )
        assert code == 0
        assert out == "a\noracle: match\n"

    def test_empty_subset_fails(self, capsys):
        code, _, err = run(
            capsys, ["generate", "--file", N2, "--subset", "", "--kind", "quasi"]
        )
        assert code == 1
        assert "nonempty" in err

    def test_unknown_element_fails(self, capsys):
        code, _, err = run(
            capsys, ["generate", "--file", N2, "--subset", "zz", "--kind", "quasi"]
        )
        assert code == 1
        assert "unknown element" in err


class TestWitnessGolden:
    def test_s2l(self, capsys):
        code, out, _ = run(capsys, ["witness", "--file", S2L, "--element", "0"])
        assert code == 0
        assert out == "(0, 0)\n"

    def test_n2_has_none(self, capsys):
        code, out, _ = run(capsys, ["witness", "--file", N2, "--element", "a"])
        assert code == 0
        assert out == "none\n"


class TestTwelveElementFile:
    """p12.json, n2 x s2l x l3meet with the componentwise order: the file
    commands on a carrier at the subset enumeration cap."""

    def test_is_the_direct_product(self):
        assert load(P12).structure == make_p12()

    def test_classify_subset(self, capsys):
        code, out, _ = run(capsys, ["classify", "--file", P12, "--subset", "0l0,0la,0le"])
        assert code == 0
        assert out == (
            "left=false right=true quasi=true bi=true downward_closed=true nonempty=true\n"
        )

    @pytest.mark.parametrize(
        "kind, ideal",
        [
            ("left", "{0l0, 0la, 0r0, 0ra}"),
            ("right", "{0l0, 0la}"),
            ("quasi", "{0l0, 0la}"),
        ],
    )
    def test_generate_subset(self, capsys, kind, ideal):
        code, out, _ = run(
            capsys, ["generate", "--file", P12, "--subset", "0la", "--kind", kind]
        )
        assert code == 0
        assert out == f"{ideal}\noracle: match\n"

    @pytest.mark.parametrize("element, pair", [("0le", "(0le, 0le)"), ("ale", "none")])
    def test_witness(self, capsys, element, pair):
        code, out, _ = run(capsys, ["witness", "--file", P12, "--element", element])
        assert code == 0
        assert out == f"{pair}\n"


def test_file_with_a_name_subset_cannot_address(capsys, tmp_path):
    # "z,0" would be split by --subset and " a" stripped to "a"
    path = tmp_path / "names.json"
    path.write_text(
        json.dumps(
            {
                "kind": "ordered_semigroup",
                "order": 2,
                "table": [[0, 0], [0, 0]],
                "leq": [[0, 1]],
                "names": ["z,0", " a"],
            }
        ),
        encoding="utf-8",
    )
    for argv in (
        ["classify", "--file", str(path), "--subset", "z,0"],
        ["verify", "theorem1", "--file", str(path)],
    ):
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert "field 'names'[0] must not contain a comma" in err


class TestVerifyFileGolden:
    def test_n2_not_intra_regular_with_triple_witness(self, capsys):
        code, out, _ = run(capsys, ["verify", "theorem1", "--file", N2])
        assert code == 0
        assert out == (
            "eae18c2f4aeb3688\tfalse\tfalse\tfalse\ttrue\n"
            "# witness c2 X={0, a} M={0, a} Y={0, a} element=a\n"
            "# witness c3 X={0, a} M={0, a} Y={0, a} element=a\n"
            "# checked=1 failures=0\n"
        )

    def test_s2l_all_conditions_true(self, capsys):
        code, out, _ = run(capsys, ["verify", "theorem1", "--file", S2L])
        assert code == 0
        assert out == (
            "a35c5895493cbe7a\ttrue\ttrue\ttrue\ttrue\n# checked=1 failures=0\n"
        )

    def test_l3null_fails_condition_three_at_top_triple(self, capsys):
        code, out, _ = run(capsys, ["verify", "theorem2", "--file", L3NULL])
        assert code == 0
        assert out == (
            "8b79eb78bdf880c1\tfalse\tfalse\tfalse\ttrue\n"
            "# witness c2 x=e m=e y=e\n"
            "# witness c3 x=e m=e y=e\n"
            "# checked=1 failures=0\n"
        )

    def test_l3meet_satisfies_all(self, capsys):
        code, out, _ = run(capsys, ["verify", "theorem2", "--file", L3MEET])
        assert code == 0
        assert out == (
            "82938e3b3e7e896b\ttrue\ttrue\ttrue\ttrue\n# checked=1 failures=0\n"
        )

    def test_remark_on_le_file(self, capsys):
        code, out, _ = run(capsys, ["verify", "remark", "--file", L3MEET])
        assert code == 0
        assert out.endswith("# checked=1 failures=0\n")
        assert "\ttrue\ttrue\t-\ttrue\n" in out

    def test_theorem2_needs_le_file(self, capsys):
        code, _, err = run(capsys, ["verify", "theorem2", "--file", N2])
        assert code == 2
        assert "le_semigroup" in err

    def test_remark_needs_greatest_element(self, capsys):
        code, _, err = run(capsys, ["verify", "remark", "--file", S2L])
        assert code == 2
        assert "greatest" in err

    @pytest.mark.parametrize(
        "flags", [["--max-order", "3"], ["--shard", "1/2"], ["--dedup", "iso"]]
    )
    def test_campaign_flags_are_a_usage_error(self, capsys, flags):
        code, out, err = run(capsys, ["verify", "theorem1", "--file", N2, *flags])
        assert (code, out) == (2, "")
        assert err == "error: --file takes no --max-order, --shard or --dedup iso\n"


class TestVerifyFileFailure:
    """A file whose conditions the scope's kernel reports unequal gets the
    ok=false line, the witness lines of the conditions reported false,
    failures=1 and exit status 1; the kernels are patched as in
    TestCampaignFailure."""

    def flip_c1(self, monkeypatch, module, name):
        kernel = getattr(module, name)

        def flags(*parts):
            c1, c2, c3 = kernel(*parts)
            return not c1, c2, c3

        monkeypatch.setattr(module, name, flags)

    def test_theorem1(self, capsys, monkeypatch):
        self.flip_c1(monkeypatch, ordered, "theorem1_flags")
        assert run(capsys, ["verify", "theorem1", "--file", N2]) == (
            1,
            "eae18c2f4aeb3688\ttrue\tfalse\tfalse\tfalse\n"
            "# witness c2 X={0, a} M={0, a} Y={0, a} element=a\n"
            "# witness c3 X={0, a} M={0, a} Y={0, a} element=a\n"
            "# checked=1 failures=1\n",
            "",
        )

    def test_theorem2(self, capsys, monkeypatch):
        self.flip_c1(monkeypatch, le, "theorem2_flags")
        assert run(capsys, ["verify", "theorem2", "--file", L3NULL]) == (
            1,
            "8b79eb78bdf880c1\ttrue\tfalse\tfalse\tfalse\n"
            "# witness c2 x=e m=e y=e\n"
            "# witness c3 x=e m=e y=e\n"
            "# checked=1 failures=1\n",
            "",
        )

    def test_remark(self, capsys, monkeypatch):
        # flipping c1 leaves the remark's ok as it is, so the kernel's own
        # witness is patched in
        def remark(table, rel, top):
            return True, le.ElementWitness(x=1, m=2, y=0)

        monkeypatch.setattr(le, "remark_flags", remark)
        assert run(capsys, ["verify", "remark", "--file", L3MEET]) == (
            1,
            "8c5ceba7cfa17f31\ttrue\tfalse\t-\tfalse\n"
            "# witness remark x=a b=e y=0\n"
            "# checked=1 failures=1\n",
            "",
        )


@pytest.mark.parametrize("scope", ["theorem1", "theorem2"])
def test_file_searches_no_witness_for_a_true_condition(capsys, monkeypatch, scope):
    # every condition holds on these files, so no witness search may run
    def refuse(*args):
        raise AssertionError("a witness search ran on a true condition")

    monkeypatch.setattr(ordered, "condition_holds", refuse)
    monkeypatch.setattr(le, "le_condition_scan", refuse)
    path = S2L if scope == "theorem1" else L3MEET
    code, out, _ = run(capsys, ["verify", scope, "--file", path])
    assert (code, out.count("\ttrue")) == (0, 4)


def test_file_above_the_id_cap(capsys, tmp_path):
    # a 7-element left-zero band (x*y = x) with the discrete order: verify
    # --file needs its id and stops at the cap; the commands that take no id
    # answer
    n = 7
    path = str(tmp_path / "lz7.json")
    discrete = [[x == y for y in range(n)] for x in range(n)]
    save(OrderedSemigroup([[x] * n for x in range(n)], discrete), path)
    assert run(capsys, ["verify", "theorem1", "--file", path]) == (
        1,
        "",
        "error: carrier size 7 exceeds the canonicalization cap 6\n",
    )
    for argv in (
        ["classify", "--file", path, "--subset", "0"],
        ["generate", "--file", path, "--subset", "0", "--kind", "left"],
        ["witness", "--file", path, "--element", "0"],
    ):
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, ""), argv
        assert out, argv


class TestVerifyCampaign:
    def test_theorem1_small_campaign(self, capsys):
        code, out, _ = run(
            capsys, ["verify", "theorem1", "--max-order", "2", "--dedup", "iso"]
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[-1] == "# checked=12 failures=0"
        assert all(line.endswith("\ttrue") for line in lines[:-1])

    def test_theorem2_small_campaign(self, capsys):
        code, out, _ = run(capsys, ["verify", "theorem2", "--max-order", "2"])
        assert code == 0
        assert out.strip().split("\n")[-1] == "# checked=13 failures=0"

    def test_remark_small_campaign(self, capsys):
        code, out, _ = run(
            capsys, ["verify", "remark", "--max-order", "2", "--dedup", "iso"]
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[-1] == "# checked=7 failures=0"
        assert all("\t-\t" in line for line in lines[:-1])

    def test_streams_match_pinned_digests(self):
        # SHA-256 of each stdout stream: every id and line is pinned; CI
        # runs the order-5 pins
        streams(range(1, 5))

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run(capsys, ["verify", "theorem1", "--max-order", "2"])
        _, second, _ = run(capsys, ["verify", "theorem1", "--max-order", "2"])
        assert first == second

    def test_shards_partition_campaign(self, capsys):
        _, whole, _ = run(capsys, ["verify", "theorem1", "--max-order", "2"])
        whole_lines = [l for l in whole.strip().split("\n") if not l.startswith("#")]
        shard_lines = []
        for i in range(2):
            _, part, _ = run(
                capsys,
                ["verify", "theorem1", "--max-order", "2", "--shard", f"{i}/2"],
            )
            shard_lines.extend(
                l for l in part.strip().split("\n") if not l.startswith("#")
            )
        assert sorted(shard_lines) == sorted(whole_lines)
        assert len(shard_lines) == len(whole_lines)

    @pytest.mark.parametrize(
        "shard", ["0/0", "5/2", "-1/2", f"0/{HUGE}", f"{HUGE - 1}/{HUGE}"]
    )
    def test_bad_shard_is_a_usage_error(self, capsys, shard):
        for argv in (
            ["verify", "theorem1", "--max-order", "2"],
            ["enumerate", "--kind", "semigroup", "--order", "2"],
        ):
            with pytest.raises(SystemExit) as exc:
                main([*argv, f"--shard={shard}"])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "0 <= i < t" in captured.err

    def test_shard_step_up_to_maxsize(self, capsys):
        argv = ["verify", "theorem1", "--max-order", "2", "--shard", f"0/{sys.maxsize}"]
        code, out, _ = run(capsys, argv)
        assert (code, len(out.strip().split("\n"))) == (0, 2)  # one line, the summary

    @pytest.mark.parametrize("scope", ["theorem1", "theorem2", "remark"])
    @pytest.mark.parametrize("dedup", ["none", "iso"])
    def test_max_order_above_cap_is_a_usage_error(
        self, capsys, monkeypatch, scope, dedup
    ):
        # the cap reaches the campaign, which an order-7 iso run takes too
        # long to walk here; the cap plus one is refused before any walk
        cap, why = order_cap(scope, dedup)
        walked = []
        monkeypatch.setattr(cli, "_campaign", lambda *a: walked.append(a) or ())
        argv = ["verify", scope, "--dedup", dedup, "--max-order"]
        assert run(capsys, [*argv, str(cap)]) == (0, "# checked=0 failures=0\n", "")
        assert walked == [(scope, cap, dedup, 0, 1)]
        err = run_usage_error(capsys, [*argv, str(cap + 1)])
        assert err.endswith(cap_message("--max-order", cap, cap + 1, why))
        assert len(walked) == 1

    @pytest.mark.parametrize("order", ["0", "-1", "x"])
    def test_max_order_below_one_is_a_usage_error(self, capsys, order):
        err = run_usage_error(capsys, ["verify", "theorem1", "--max-order", order])
        assert "argument --max-order:" in err

    def test_max_order_required_without_file(self, capsys):
        code, _, err = run(capsys, ["verify", "theorem1"])
        assert code == 2
        assert "--max-order" in err

    def test_max_order_above_dedup_cap(self, capsys, monkeypatch):
        # canon.DEDUP_CAP is read once the arguments are parsed, and bounds
        # only the runs that need canonical forms
        monkeypatch.setattr(posemi.canon, "DEDUP_CAP", 2)
        scopes = ["theorem1", "theorem2", "remark"]
        for scope, dedup in itertools.product(scopes, ["none", "iso"]):
            argv = ["verify", scope, "--max-order", "3", "--dedup", dedup]
            if order_cap(scope, dedup)[0] == 7:
                code, out, _ = run(capsys, argv)
                assert (code, out.endswith(" failures=0\n")) == (0, True)
            else:
                err = run_usage_error(capsys, argv)
                assert err.endswith(cap_message("--max-order", 2, 3))


class TestCampaignFailure:
    """A structure on which the scope's check disagrees gets an ok=false
    line, a `# FAILED <id>` line after the structure lines, failures=1 in
    the summary and exit status 1."""

    ISO2 = EnumerationConfig(order=2, dedup="up_to_iso")

    def assert_one_failure(self, capsys, scope, sid):
        argv = ["verify", scope, "--max-order", "2", "--dedup", "iso"]
        code, out, _ = run(capsys, argv)
        lines = out.rstrip("\n").split("\n")
        body, tail = lines[:-2], lines[-2:]
        assert not any(line.startswith("#") for line in body)
        failing = [line for line in body if line.endswith("\tfalse")]
        assert [line.split("\t", 1)[0] for line in failing] == [sid]
        assert tail == [f"# FAILED {sid}", f"# checked={len(body)} failures=1"]
        assert code == 1

    def test_theorem1(self, capsys, monkeypatch):
        *_, target = enumeration.ordered_pairs(self.ISO2)
        kernel = ordered.theorem1_flags

        def flags(table, rel):
            c1, c2, c3 = kernel(table, rel)
            if (table, rel) == target:
                c3 = not c3
            return c1, c2, c3

        monkeypatch.setattr(ordered, "theorem1_flags", flags)
        self.assert_one_failure(capsys, "theorem1", ordered_structure_id(*target))

    def test_theorem2(self, capsys, monkeypatch):
        *_, (target, _) = enumeration.le_sources(self.ISO2)
        kernel = le.theorem2_flags

        def flags(*structure):
            c1, c2, c3 = kernel(*structure)
            if structure == target:
                c3 = not c3
            return c1, c2, c3

        monkeypatch.setattr(le, "theorem2_flags", flags)
        self.assert_one_failure(capsys, "theorem2", le_structure_id(*target[:3]))

    def test_remark(self, capsys, monkeypatch):
        pairs = enumeration.ordered_pairs(self.ISO2)
        *_, target = (p for p in pairs if le.top_of(p[1], len(p[0])) is not None)
        kernel = le.remark_flags

        def remark(table, rel, top):
            c1, res = kernel(table, rel, top)
            if (table, rel) == target:
                res = le.ElementWitness(x=0, m=0, y=0)
            return c1, res

        monkeypatch.setattr(le, "remark_flags", remark)
        self.assert_one_failure(capsys, "remark", ordered_structure_id(*target))


@pytest.mark.parametrize("dedup", ["none", "iso"])
@pytest.mark.parametrize("scope", ["theorem1", "theorem2", "remark"])
def test_campaign_builds_no_structure(capsys, monkeypatch, scope, dedup):
    """Every scope checks the enumerated tuples themselves: with the
    structure constructors made to raise, a campaign prints the same stream."""
    argv = ["verify", scope, "--max-order", "3", "--dedup", dedup]
    want = run(capsys, argv)

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"a {scope} campaign built a {type(self).__name__}")

    for cls in (ordered.OrderedSemigroup, le.PoeSemigroup, le.LeSemigroup):
        monkeypatch.setattr(cls, "__init__", refuse)
    assert run(capsys, argv) == want
    assert want[0] == 0 and want[1].endswith(" failures=0\n")


@pytest.mark.parametrize("dedup", ["none", "iso"])
@pytest.mark.parametrize("kind", ["semigroup", "ordered", "le"])
def test_enumerate_stdout_builds_no_structure(
    capsys, monkeypatch, tmp_path, kind, dedup
):
    """enumerate writes each record from its tuple, to stdout and to --out:
    with the structure constructors, `to_payload` and `save` made to raise,
    it prints the same stream and writes the same files."""
    argv = ["enumerate", "--kind", kind, "--order", "3", "--dedup", dedup]
    want = run(capsys, argv)
    assert run(capsys, [*argv, "--out", str(tmp_path / "want")])[0] == 0

    def refuse(*args, **kwargs):
        raise AssertionError(f"enumerate --kind {kind} built a structure")

    for cls in (ordered.OrderedSemigroup, le.PoeSemigroup, le.LeSemigroup):
        monkeypatch.setattr(cls, "__init__", refuse)
    monkeypatch.setattr(storage, "to_payload", refuse)
    monkeypatch.setattr(storage, "save", refuse)
    assert run(capsys, argv) == want
    assert want[0] == 0 and want[1].count("\n") > 20
    assert run(capsys, [*argv, "--out", str(tmp_path / "got")])[0] == 0
    files = [
        {f.name: f.read_text(encoding="utf-8") for f in (tmp_path / d).iterdir()}
        for d in ("want", "got")
    ]
    assert files[0] == files[1] and len(files[0]) > 20


@pytest.mark.parametrize("dedup, calls", [("none", 607), ("iso", 0)])
def test_theorem2_canonicalizes_each_source_once(capsys, monkeypatch, dedup, calls):
    # the raw order-<=4 le stream holds 11,581 structures on 607 distinct
    # sources, each canonicalized once; the structures of an iso stream are
    # their own canonical forms, so none is
    sources = []
    le_id = canon.le_structure_id

    def counted(*source):
        sources.append(source)
        return le_id(*source)

    monkeypatch.setattr(canon, "le_structure_id", counted)
    argv = ["verify", "theorem2", "--max-order", "4", "--dedup", dedup]
    code, out, _ = run(capsys, argv)
    assert (code, out.endswith(" failures=0\n")) == (0, True)
    assert len(sources) == len(set(sources)) == calls
    if dedup == "none":
        cfgs = (EnumerationConfig(n) for n in range(1, 5))
        assert set(sources) == {s for c in cfgs for _, s in enumeration.le_sources(c)}


def test_raw_le_ids_follow_the_source_value(monkeypatch):
    # the raw theorem2 rule memoizes by the source object: two equal but
    # distinct sources are canonicalized apart and get one id, which is the
    # id of each structure relabeled from them
    calls = []
    le_id = canon.le_structure_id

    def counted(*source):
        calls.append(source)
        return le_id(*source)

    monkeypatch.setattr(canon, "le_structure_id", counted)
    (table, join, meet, _), first = next(
        (structure, source)
        for structure, source in enumeration.le_sources(EnumerationConfig(3))
        if structure[0] != source[0]
    )
    copy = tuple(list(first))
    assert copy == first and copy is not first
    sid = cli._id_rule("theorem2", False)
    assert sid(first) == sid(copy) == sid(first) == le_structure_id(table, join, meet)
    assert calls == [first, copy]


def test_line_is_the_id_and_five_fields():
    # every (flags, ok) a scope can produce: three truth values for
    # theorem1 and theorem2, (c1, remark, None) for remark, each with
    # either ok, asked twice so the cached tails are read back too
    sid = "0123456789abcdef"
    truth = (True, False)
    flags = [
        *itertools.product(truth, repeat=3),
        *((c1, r, None) for c1 in truth for r in truth),
    ]
    for _ in range(2):
        for f, ok in itertools.product(flags, truth):
            want = "\t".join([sid, *map(_fmt_bool, f), _fmt_bool(ok)])
            assert _line(sid, f, ok) == want


@pytest.mark.parametrize("scope", ["theorem1", "remark", "theorem2"])
def test_file_path_matches_raw_campaign(capsys, tmp_path, scope):
    # every raw structure of order <= 3, written by enumerate --out and read
    # back by verify --file, gets the raw campaign's line: the file's tuple
    # is rebuilt from the loaded structure, and the file named by the id the
    # line takes; remark takes the files with a greatest element
    kind = "le" if scope == "theorem2" else "ordered"
    code, out, _ = run(capsys, ["verify", scope, "--max-order", "3"])
    assert code == 0
    *campaign, _ = out.splitlines()
    lines = []
    for n in (1, 2, 3):
        outdir = tmp_path / str(n)
        argv = ["enumerate", "--kind", kind, "--order", str(n), "--out", str(outdir)]
        assert run(capsys, argv)[0] == 0
        for path in sorted(outdir.iterdir()):
            if scope == "remark" and le.greatest(load(path).structure.leq) is None:
                continue
            code, out, _ = run(capsys, ["verify", scope, "--file", str(path)])
            line, *witnesses, summary = out.splitlines()
            assert (code, summary) == (0, "# checked=1 failures=0"), path
            assert all(w.startswith("# witness ") for w in witnesses), path
            lines.append(line)
    assert lines == campaign


class TestEnumerateCommand:
    def test_stdout_stream_counts(self, capsys):
        code, out, _ = run(
            capsys, ["enumerate", "--kind", "semigroup", "--order", "2"]
        )
        assert code == 0
        records = [json.loads(line) for line in out.strip().split("\n")]
        assert len(records) == 8
        assert all(r["kind"] == "ordered_semigroup" for r in records)
        assert all(r["leq"] == [] for r in records)

    def test_le_stream_is_loadable(self, capsys):
        code, out, _ = run(capsys, ["enumerate", "--kind", "le", "--order", "2"])
        assert code == 0
        from posemi import from_payload, validate_le

        records = [json.loads(line) for line in out.strip().split("\n")]
        assert len(records) == 12
        for r in records:
            assert validate_le(from_payload(r).structure) == []

    def test_out_dir(self, capsys, tmp_path):
        outdir = tmp_path / "structures"
        code, out, _ = run(
            capsys,
            [
                "enumerate",
                "--kind",
                "ordered",
                "--order",
                "2",
                "--dedup",
                "iso",
                "--out",
                str(outdir),
            ],
        )
        assert code == 0
        files = sorted(outdir.glob("*.json"))
        assert len(files) == 11
        assert out == f"# wrote=11 dir={outdir}\n"
        from posemi import load

        for f in files:
            load(f)  # must all be valid

    @pytest.mark.parametrize("shard", [[], ["--shard", "1/3"]])
    @pytest.mark.parametrize("dedup", ["none", "iso"])
    @pytest.mark.parametrize("kind", ["semigroup", "ordered", "le"])
    def test_out_files_are_the_stdout_lines(self, capsys, tmp_path, kind, dedup, shard):
        # names begin with the stream position, so name order is stream order
        argv = ["enumerate", "--kind", kind, "--order", "3", "--dedup", dedup, *shard]
        code, out, _ = run(capsys, argv)
        assert code == 0 and out
        code, summary, _ = run(capsys, [*argv, "--out", str(tmp_path)])
        files = sorted(tmp_path.iterdir())
        assert (code, summary) == (0, f"# wrote={len(files)} dir={tmp_path}\n")
        texts = [f.read_text(encoding="utf-8") for f in files]
        assert texts == out.splitlines(keepends=True)

    def test_out_dir_le_names_files_by_le_id(self, capsys, tmp_path):
        outdir = tmp_path / "le"
        code, _, _ = run(
            capsys, ["enumerate", "--kind", "le", "--order", "2", "--out", str(outdir)]
        )
        assert code == 0
        names = sorted(f.name for f in outdir.glob("*.json"))
        want = []
        for i, name in enumerate(names):
            L = load(outdir / name).structure
            want.append(f"{i:010d}-{le_structure_id(L.table, L.join, L.meet)}.json")
        assert len(names) == 12
        assert names == want

    def test_out_onto_existing_file(self, capsys, tmp_path):
        target = tmp_path / "some-file.json"
        target.write_text("{}", encoding="utf-8")
        code, out, err = run(
            capsys,
            ["enumerate", "--kind", "semigroup", "--order", "2", "--out", str(target)],
        )
        assert (code, out) == (1, "")
        assert err == f"error: {target}: File exists\n"
        assert target.read_text(encoding="utf-8") == "{}"

    def test_out_above_dedup_cap(self, capsys, monkeypatch, tmp_path):
        # raw file names carry canonical ids, so the cap is a usage error
        # before any write; iso names are bare digests and take no cap
        monkeypatch.setattr(posemi.canon, "DEDUP_CAP", 2)
        outdir = tmp_path / "structures"
        argv = ["enumerate", "--kind", "ordered", "--order", "3", "--out", str(outdir)]
        err = run_usage_error(capsys, argv)
        assert err.endswith(cap_message("--order", 2, 3))
        assert not outdir.exists()
        code, out, _ = run(capsys, [*argv, "--dedup", "iso"])
        assert (code, out) == (0, f"# wrote=173 dir={outdir}\n")

    def test_out_names_sort_past_a_million(self, capsys, monkeypatch, tmp_path):
        # positions 100,001 and 1,000,000: six-digit names would sort the
        # second first, ten digits keep name order the stream order
        pair = ((0,),), 1  # the one-element table and its order int
        stream = itertools.repeat(pair, 10**6 + 1)
        monkeypatch.setattr(cli, "_tuples", lambda *a: stream)
        argv = ["enumerate", "--kind", "semigroup", "--order", "1"]
        argv += ["--shard", "100001/899999", "--out", str(tmp_path)]
        assert run(capsys, argv) == (0, f"# wrote=2 dir={tmp_path}\n", "")
        names = sorted(f.name[:10] for f in tmp_path.iterdir())
        assert names == ["0000100001", "0001000000"]

    @pytest.mark.parametrize(
        "kind,dedup,order",
        [
            ("semigroup", "none", "3"),
            ("semigroup", "iso", "3"),
            ("ordered", "none", "3"),
            ("ordered", "iso", "3"),
            ("le", "none", "2"),
            ("le", "iso", "2"),
            # raw order 4 relabels the search on one diamond and one chain onto
            # the other 11 diamonds and 23 chains
            ("le", "none", "4"),
            # iso order 4 yields each class's canonical forms at their lattices
            ("le", "iso", "4"),
        ],
    )
    def test_shards_partition_the_stream(self, capsys, kind, dedup, order):
        argv = ["enumerate", "--kind", kind, "--order", order, "--dedup", dedup]
        _, whole, _ = run(capsys, argv)
        lines = whole.splitlines()
        assert len(set(lines)) == len(lines) > 3
        for i in range(3):
            _, part, _ = run(capsys, [*argv, "--shard", f"{i}/3"])
            assert part.splitlines() == lines[i::3]

    @pytest.mark.parametrize("kind", ["semigroup", "ordered", "le"])
    @pytest.mark.parametrize("dedup", ["none", "iso"])
    def test_limit_zero_yields_nothing(self, capsys, kind, dedup):
        argv = ["enumerate", "--kind", kind, "--order", "2", "--dedup", dedup]
        for shard in ([], ["--shard", "1/3"]):
            code, out, err = run(capsys, [*argv, *shard, "--limit", "0"])
            assert (code, out, err) == (0, "", "")

    def test_limit_truncates(self, capsys):
        # the limit cuts the shard, not the stream the shard is taken from
        argv = ["enumerate", "--kind", "ordered", "--order", "3", "--dedup", "iso"]
        _, whole, _ = run(capsys, argv)
        lines = whole.splitlines()
        _, head, _ = run(capsys, [*argv, "--limit", "5"])
        assert head.splitlines() == lines[:5]
        _, head, _ = run(capsys, [*argv, "--shard", "2/5", "--limit", "7"])
        assert head.splitlines() == lines[2::5][:7]

    @pytest.mark.parametrize(
        "kind,order,dedup,total", [("semigroup", "3", "none", 5), ("le", "3", "iso", 3)]
    )
    def test_sharded_out_keeps_every_structure(
        self, capsys, tmp_path, kind, order, dedup, total
    ):
        # each file is named by its position in the unsharded stream, so the
        # shards written into one directory neither collide nor differ in name
        argv = ["enumerate", "--kind", kind, "--order", order, "--dedup", dedup]
        whole, shared = tmp_path / "whole", tmp_path / "shared"
        _, out, _ = run(capsys, [*argv, "--out", str(whole)])
        count = int(out.split()[1].removeprefix("wrote="))
        for i in range(total):
            run(capsys, [*argv, "--shard", f"{i}/{total}", "--out", str(shared)])
        names = sorted(f.name for f in whole.iterdir())
        assert len(names) == count
        assert sorted(f.name for f in shared.iterdir()) == names
        for name in names:
            assert (shared / name).read_bytes() == (whole / name).read_bytes()

    def test_limit_up_to_maxsize(self, capsys):
        argv = ["enumerate", "--kind", "semigroup", "--order", "2"]
        _, whole, _ = run(capsys, argv)
        assert run(capsys, [*argv, "--limit", str(sys.maxsize)]) == (0, whole, "")

    @pytest.mark.parametrize(
        "args,flag",
        [
            (["--order", "0"], "--order"),
            (["--order", "-2"], "--order"),
            (["--order", "2", "--limit", "-1"], "--limit"),
            (["--order", "2", "--limit", str(HUGE)], "--limit"),
        ],
    )
    def test_out_of_range_is_a_usage_error(self, capsys, args, flag):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--kind", "semigroup", *args])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        bound = "most" if args[-1] == str(HUGE) else "least"
        assert f"argument {flag}: must be at {bound}" in captured.err

    @pytest.mark.parametrize("kind", ["semigroup", "ordered", "le"])
    @pytest.mark.parametrize("dedup", ["none", "iso"])
    def test_order_above_cap_is_a_usage_error(self, capsys, monkeypatch, kind, dedup):
        # the cap reaches the stream; the cap plus one is refused before it
        cap, why = order_cap(kind, dedup)
        streamed = []
        monkeypatch.setattr(cli, "_tuples", lambda *a: streamed.append(a) or ())
        argv = ["enumerate", "--kind", kind, "--dedup", dedup, "--order"]
        assert run(capsys, [*argv, str(cap)]) == (0, "", "")
        assert streamed == [(kind, [cap], dedup)]
        err = run_usage_error(capsys, [*argv, str(cap + 1)])
        assert err.endswith(cap_message("--order", cap, cap + 1, why))
        assert len(streamed) == 1

    def test_iso_semigroups_of_order_7(self, capsys):
        # the first 200 of 1,000 records are lex leaders over all 5,040
        # relabelings
        argv = ["enumerate", "--kind", "semigroup", "--order", "7", "--dedup", "iso"]
        code, out, _ = run(capsys, [*argv, "--limit", "1000"])
        records = [json.loads(line) for line in out.splitlines()]
        assert (code, len(records)) == (0, 1000)
        perms = canon.relabelings(7)
        for r in records[:200]:
            assert canon.is_least(((r["table"], True),), perms)

    def test_iso_ordered_prefix_of_order_7_loads(self, capsys):
        argv = ["enumerate", "--kind", "ordered", "--order", "7", "--dedup", "iso"]
        code, out, _ = run(capsys, [*argv, "--limit", "100"])
        lines = out.splitlines()
        assert (code, len(lines)) == (0, 100)
        for line in lines:
            s = storage.from_payload(json.loads(line)).structure
            assert (s.n, type(s)) == (7, OrderedSemigroup)


class TestErrorPaths:
    def test_interrupt_is_one_line(self, capsys, monkeypatch):
        # Ctrl-C ends a run with one stderr line and status 128 + SIGINT
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_campaign", interrupted)
        argv = ["verify", "theorem1", "--max-order", "6", "--dedup", "iso"]
        assert run(capsys, argv) == (130, "", "error: interrupted\n")

    def test_missing_file(self, capsys):
        code, out, err = run(
            capsys, ["classify", "--file", "no-such.json", "--subset", "0"]
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: no-such.json: ")
        assert "Traceback" not in err

    def test_unreadable_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, ["witness", "--file", str(tmp_path), "--element", "0"]
        )
        assert code == 1
        assert err.startswith(f"error: {tmp_path}: ")

    @pytest.mark.parametrize(
        "data, reason",
        [
            (b"\xff{}", "'utf-8' codec can't decode byte 0xff in position 0"),
            (b"[" * 100_000 + b"]" * 100_000, "JSON nested too deeply"),
        ],
        ids=["not-utf8", "deep-nesting"],
    )
    def test_undecodable_file(self, capsys, tmp_path, data, reason):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        code, out, err = run(capsys, ["verify", "theorem1", "--file", str(path)])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path}: {reason}")
        assert "Traceback" not in err

    def test_invalid_structure_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "kind": "ordered_semigroup",
                    "order": 2,
                    "table": [[0, 1], [0, 0]],
                    "leq": [],
                }
            ),
            encoding="utf-8",
        )
        code, _, err = run(capsys, ["classify", "--file", str(path), "--subset", "0"])
        assert code == 1
        assert "associativity" in err

    def test_poe_file_without_greatest_element(self, capsys, tmp_path):
        path = tmp_path / "poe.json"
        path.write_text(
            json.dumps(
                {
                    "kind": "poe_semigroup",
                    "order": 2,
                    "table": [[0, 0], [1, 1]],
                    "leq": [],
                }
            ),
            encoding="utf-8",
        )
        code, out, err = run(
            capsys, ["classify", "--file", str(path), "--element", "0"]
        )
        assert code == 1
        assert out == ""
        assert err == (
            f"error: {path}: poe_semigroup order has no unique greatest element\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "theorem1", "--file", "", "--max-order", "2"],
            ["verify", "theorem1", "--file", ""],
            ["enumerate", "--kind", "ordered", "--order", "2", "--out", ""],
            ["classify", "--file", "", "--subset", "0"],
            ["generate", "--file", "", "--subset", "0", "--kind", "left"],
            ["witness", "--file", "", "--element", "0"],
        ],
        ids=["verify-order", "verify", "enumerate", "classify", "generate", "witness"],
    )
    def test_empty_path_is_a_usage_error(self, capsys, argv):
        # an empty --file or --out names no file; it is not an absent flag
        flag = argv[argv.index("") - 1]
        err = run_usage_error(capsys, argv)
        assert err.endswith(f"error: argument {flag}: must not be empty\n")

    def test_element_generation_needs_lattice(self, capsys):
        code, _, err = run(
            capsys, ["generate", "--file", N2, "--element", "a", "--kind", "quasi"]
        )
        assert code == 2
        assert "le_semigroup" in err

    def test_witness_unknown_element(self, capsys):
        code, _, err = run(capsys, ["witness", "--file", N2, "--element", "q"])
        assert code == 1
        assert "unknown element" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--kind", "semigroup", "--order", "5", "--dedup", "iso"],
        ["verify", "theorem1", "--max-order", "4", "--dedup", "iso"],
    ],
)
def test_closed_stdout_ends_quietly(argv):
    # both streams outgrow the pipe buffer, so a write fails after the close
    src = str(Path(posemi.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.Popen(
        [sys.executable, "-m", "posemi.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (1, b"")
