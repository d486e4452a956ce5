"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The exhaustive universes (every structure of order <= 4, one per
isomorphism class) are shared session fixtures.
"""

import itertools

from posemi import (
    classify_subset,
    condition_holds,
    downward_closure,
    gen_element,
    gen_ideal,
    ideal_masks,
    least_element_oracle,
    least_ideal_oracle,
    le_structure_id,
    ordered_structure_id,
    set_product,
    verify_theorem1,
    verify_theorem2,
)
from posemi.cli import main
from posemi.enumeration import EnumerationConfig, enumerate_semigroups

from conftest import FIXTURES, truths


def report(name, failures, detail=""):
    ok = not failures
    suffix = f" ({detail})" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'} {name}{suffix}")
    assert ok, f"{name}: {failures[:5]}"


def nonempty_masks(s):
    return range(1, s.full + 1)


def test_criterion_1_theorem1_exhaustive(ordered_universe_4):
    """Every ordered semigroup of order <= 4 (dedup=iso) satisfies the
    three-way equivalence."""
    failures = []
    for s in ordered_universe_4:
        if len(set(truths(verify_theorem1(s)))) != 1:
            failures.append(ordered_structure_id(s.table, s.leq))
    report(
        "criterion 1: set-level equivalence, order <= 4",
        failures,
        f"{len(ordered_universe_4)} structures",
    )


def test_criterion_2_theorem2_exhaustive(le_universe_4):
    """Every lattice-ordered semigroup of order <= 4 (dedup=iso) satisfies
    the element-level equivalence."""
    failures = []
    for L in le_universe_4:
        if len(set(truths(verify_theorem2(L)))) != 1:
            failures.append(le_structure_id(L.table, L.join, L.meet))
    report(
        "criterion 2: element-level equivalence, order <= 4",
        failures,
        f"{len(le_universe_4)} structures",
    )


def test_criterion_3_generator_oracle_equivalence(ordered_universe_4, le_universe_4):
    """Closed-form generators match the least-ideal oracles everywhere."""
    failures = []
    for s in ordered_universe_4:
        for x in nonempty_masks(s):
            for kind in ("left", "right", "quasi", "bi"):
                if gen_ideal(s, x, kind) != least_ideal_oracle(s, x, kind):
                    failures.append((ordered_structure_id(s.table, s.leq), x, kind))
    checked = sum(s.full * 4 for s in ordered_universe_4)
    for L in le_universe_4:
        for a in range(L.n):
            for kind in ("left", "right", "quasi", "bi"):
                if gen_element(L, a, kind) != least_element_oracle(L, a, kind):
                    failures.append((le_structure_id(L.table, L.join, L.meet), a, kind))
    checked += sum(L.n * 4 for L in le_universe_4)
    report("criterion 3: generators equal oracles", failures, f"{checked} cases")


def test_criterion_4_proof_step_invariants(ordered_universe_3):
    """Generator construction steps, and the conditional chain down to
    X <= (S X^2 S] wherever the quasi-ideal triple condition holds."""
    failures = []
    cases = 0
    for s in ordered_universe_3:
        full = s.full
        quasi_condition = condition_holds(s, "quasi") is True
        for x in nonempty_masks(s):
            cases += 1
            q = gen_ideal(s, x, "quasi")
            qs = downward_closure(s, set_product(s, q, full))
            sq = downward_closure(s, set_product(s, full, q))
            xs = downward_closure(s, set_product(s, x, full))
            sx = downward_closure(s, set_product(s, full, x))
            if qs & ~xs or sq & ~sx:
                failures.append(("product-bound", s.table, x))
            if (qs & sq) & ~q:
                failures.append(("absorbed-intersection", s.table, x))
            if downward_closure(s, q) != q:
                failures.append(("downward-closed", s.table, x))
            for t in ideal_masks(s, "quasi"):
                if x & ~t == 0 and q & ~t:
                    failures.append(("not-least", s.table, x, t))
            if quasi_condition:
                xx = set_product(s, x, x)
                x3 = set_product(s, xx, x)
                sx2s = downward_closure(
                    s, set_product(s, set_product(s, full, xx), full)
                )
                x2s = downward_closure(s, set_product(s, xx, full))
                union = downward_closure(s, sx2s | x2s)
                if x & ~union or x3 & ~union:
                    failures.append(("union-chain", s.table, x))
                if xx & ~sx2s:
                    failures.append(("square", s.table, x))
                if set_product(s, xx, full) & ~sx2s:
                    failures.append(("square-times-carrier", s.table, x))
                if x & ~sx2s:
                    failures.append(("intra-conclusion", s.table, x))
    report("criterion 4: proof-step invariants, order <= 3", failures, f"{cases} subsets")


def test_criterion_5_closure_algebra(ordered_universe_3):
    """Closure is extensive and idempotent, products of closures stay inside
    the closed product, and every quasi-ideal is a bi-ideal."""
    failures = []
    pairs = 0
    for s in ordered_universe_3:
        for a in range(s.full + 1):
            ca = downward_closure(s, a)
            if a & ~ca:
                failures.append(("extensive", s.table, a))
            if downward_closure(s, ca) != ca:
                failures.append(("idempotent", s.table, a))
            flags = classify_subset(s, a)
            if flags.quasi and not flags.bi:
                failures.append(("quasi-not-bi", s.table, a))
            for b in range(s.full + 1):
                pairs += 1
                cb = downward_closure(s, b)
                cab = downward_closure(s, set_product(s, a, b))
                prod = set_product(s, ca, cb)
                if prod & ~cab:
                    failures.append(("product-bound", s.table, a, b))
                if downward_closure(s, prod) != cab:
                    failures.append(("closed-product", s.table, a, b))
    report("criterion 5: closure algebra, order <= 3", failures, f"{pairs} subset pairs")


def test_criterion_6_enumeration_cross_check(capsys):
    """Backtracking counts match generate-then-filter brute force for
    n <= 3, and sharded `enumerate` streams reproduce the unsharded stream
    exactly."""
    failures = []
    brute = {}
    for n in (1, 2, 3):
        count = 0
        for values in itertools.product(range(n), repeat=n * n):
            t = tuple(values[i * n : (i + 1) * n] for i in range(n))
            if all(
                t[t[a][b]][c] == t[a][t[b][c]]
                for a in range(n)
                for b in range(n)
                for c in range(n)
            ):
                count += 1
        brute[n] = count
        got = sum(1 for _ in enumerate_semigroups(EnumerationConfig(order=n)))
        if got != count:
            failures.append(("count", n, got, count))
    if brute[2] != 8:
        failures.append(("order-2-count", brute[2]))

    def enumerate_lines(*shard):
        main(["enumerate", "--kind", "semigroup", "--order", str(n), *shard])
        return capsys.readouterr().out.splitlines()

    for n in (2, 3):
        whole = enumerate_lines()
        merged = []
        for i in range(4):
            merged.extend(enumerate_lines("--shard", f"{i}/4"))
        if len(whole) != brute[n] or sorted(merged) != sorted(whole):
            failures.append(("shard-mismatch", n))
    report(
        "criterion 6: enumeration cross-check",
        failures,
        f"raw counts {tuple(brute.values())}",
    )


def test_criterion_7_fixture_regressions(capsys):
    """Golden command-line output for the four pinned fixtures."""
    expected = {
        ("verify", "theorem1", "--file", str(FIXTURES / "n2.json")): (
            "eae18c2f4aeb3688\tfalse\tfalse\tfalse\ttrue\n"
            "# witness c2 X={0, a} M={0, a} Y={0, a} element=a\n"
            "# witness c3 X={0, a} M={0, a} Y={0, a} element=a\n"
            "# checked=1 failures=0\n"
        ),
        ("verify", "theorem1", "--file", str(FIXTURES / "s2l.json")): (
            "a35c5895493cbe7a\ttrue\ttrue\ttrue\ttrue\n# checked=1 failures=0\n"
        ),
        ("verify", "theorem2", "--file", str(FIXTURES / "l3null.json")): (
            "8b79eb78bdf880c1\tfalse\tfalse\tfalse\ttrue\n"
            "# witness c2 x=e m=e y=e\n"
            "# witness c3 x=e m=e y=e\n"
            "# checked=1 failures=0\n"
        ),
        ("verify", "theorem2", "--file", str(FIXTURES / "l3meet.json")): (
            "82938e3b3e7e896b\ttrue\ttrue\ttrue\ttrue\n# checked=1 failures=0\n"
        ),
        ("witness", "--file", str(FIXTURES / "n2.json"), "--element", "a"): "none\n",
        ("witness", "--file", str(FIXTURES / "s2l.json"), "--element", "0"): "(0, 0)\n",
    }
    failures = []
    for argv, want in expected.items():
        code = main(list(argv))
        out = capsys.readouterr().out
        if code != 0 or out != want:
            failures.append((argv, out))
    with capsys.disabled():
        report("criterion 7: fixture regressions", failures, f"{len(expected)} commands")
