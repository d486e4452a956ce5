"""Element-level operations on poe- and lattice-ordered semigroups:
classification, generators with their oracle, intra-regularity, the
element-triple conditions and the glb-restricted variant."""

import pytest

from posemi import (
    ElementWitness,
    LeSemigroup,
    OrderedSemigroup,
    PoeSemigroup,
    classify_subset,
    element_class,
    gen_element,
    greatest,
    ideal_elements,
    is_intra_regular_poe,
    le_condition_holds,
    least_element_oracle,
    order_glb,
    validate_le,
    validate_poe,
    verify_theorem1,
    verify_theorem2,
)
from posemi import le
from posemi.le import remark_flags, theorem2_flags

from conftest import CHAIN3_JOIN, CHAIN3_MEET, make_l3null, truths


def make_one_le():
    return LeSemigroup([[0]], [[0]], [[0]])


def make_poe_no_meet():
    """Bowtie below a top: 0,1 < 2,3 < 4 with 2,3 incomparable, so the pair
    {2, 3} has lower bounds {0, 1} but no greatest one.  Element 3 multiplies
    to ae = 2 and ea = 3."""
    table = [
        [0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0],
        [0, 0, 0, 0, 2],
        [0, 0, 0, 0, 2],
        [0, 0, 2, 3, 4],
    ]
    leq = [[i == j for j in range(5)] for i in range(5)]
    for i, j in [(0, 2), (0, 3), (1, 2), (1, 3), (0, 4), (1, 4), (2, 4), (3, 4)]:
        leq[i][j] = True
    return PoeSemigroup(table, leq, top=4)


def make_poe_nonlattice_intra():
    """V-shaped order 0 < 2 > 1 (no bottom, hence no lattice) with the
    constant-top multiplication; intra-regular since a <= e for all a."""
    table = [[2, 2, 2]] * 3
    leq = [[1, 0, 1], [0, 1, 1], [0, 0, 1]]
    return PoeSemigroup(table, leq, top=2)


class TestValidateLe:
    def test_fixtures_are_valid(self, l3null, l3meet):
        assert validate_le(l3null) == []
        assert validate_le(l3meet) == []

    def test_broken_distributivity_is_reported(self):
        bad = LeSemigroup(
            [[0, 0, 0], [0, 0, 2], [0, 0, 0]], CHAIN3_JOIN, CHAIN3_MEET, top=2
        )
        msgs = validate_le(bad)
        assert any("distributivity" in m for m in msgs)

    def test_incompatible_table_is_reported(self):
        # associative, but 1 <= 2 while 1*1 = 1 !<= 2*1 = 0: the one
        # compatibility check (via validate_poe) and distributivity both fire
        bad = LeSemigroup(
            [[0, 0, 0], [0, 1, 0], [0, 0, 0]], CHAIN3_JOIN, CHAIN3_MEET, top=2
        )
        msgs = validate_le(bad)
        assert not any(m.startswith("associativity") for m in msgs)
        assert any(m.startswith("compatibility") for m in msgs)
        assert any("distributivity" in m for m in msgs)

    def test_broken_lattice_is_reported(self):
        bad_join = [[0, 1, 2], [0, 1, 2], [2, 2, 2]]
        msgs = validate_le(
            LeSemigroup([[0, 0, 0]] * 3, bad_join, CHAIN3_MEET, top=2)
        )
        assert any("commutativity" in m or "absorption" in m for m in msgs)

    def test_top_is_derived_and_checked(self):
        L = LeSemigroup([[0, 0, 0]] * 3, CHAIN3_JOIN, CHAIN3_MEET)
        assert L.top == 2

    def test_validate_poe(self):
        poe = make_poe_no_meet()
        assert validate_poe(poe) == []
        assert validate_poe(make_poe_nonlattice_intra()) == []


class TestElementClass:
    def test_l3null_all_flags(self, l3null):
        f = element_class(l3null, 1)
        assert (f.right, f.left, f.bi, f.quasi) == (True, True, True, True)
        assert f.quasi_defined

    def test_l3meet_a_and_top(self, l3meet):
        for a in (1, 2):
            f = element_class(l3meet, a)
            assert f.right and f.left and f.bi and f.quasi

    def test_poe_with_undefined_meet(self):
        poe = make_poe_no_meet()
        assert order_glb(poe.leq, (2, 3)) is None
        f = element_class(poe, 3)
        assert not f.quasi_defined
        assert not f.quasi
        assert f.left and f.bi and not f.right

    def test_poe_agrees_with_lattice_view(self, le_universe_3):
        # an le structure is a poe-semigroup on its join order: element
        # flags match the glb-based poe view (meet vs order_glb), and
        # set-level answers match the plain ordered view
        for L in le_universe_3:
            assert isinstance(L, PoeSemigroup)
            assert greatest(L.leq) == L.top
            poe = PoeSemigroup(L.table, L.leq)
            base = OrderedSemigroup(L.table, L.leq)
            for a in range(L.n):
                assert element_class(poe, a) == element_class(L, a)
            for mask in range(1 << L.n):
                assert classify_subset(L, mask) == classify_subset(base, mask)
            assert verify_theorem1(L) == verify_theorem1(base)

    def test_quasi_implies_bi(self, le_universe_3):
        for L in le_universe_3:
            for a in range(L.n):
                f = element_class(L, a)
                if f.quasi:
                    assert f.bi
                if f.left or f.right:
                    assert f.quasi


class TestGenElement:
    def test_l3null_quasi(self, l3null):
        assert gen_element(l3null, 1, "quasi") == 1

    def test_l3meet_right_absorption(self, l3meet):
        assert gen_element(l3meet, 1, "right") == 1

    def test_one_element(self):
        one = make_one_le()
        for kind in ("left", "right", "quasi"):
            assert gen_element(one, 0, kind) == 0

    def test_result_has_flag_and_dominates(self, le_universe_3):
        for L in le_universe_3:
            for a in range(L.n):
                for kind in ("left", "right", "quasi"):
                    g = gen_element(L, a, kind)
                    assert L.leq[a][g]
                    assert getattr(element_class(L, g), kind)

    def test_rejects_bi(self, l3null):
        with pytest.raises(ValueError):
            gen_element(l3null, 0, "two-sided")


class TestLeastElementOracle:
    def test_examples(self, l3null, l3meet):
        assert least_element_oracle(l3null, 1, "quasi") == 1
        assert least_element_oracle(l3meet, 0, "left") == 0

    def test_top_is_fixed_point(self, l3null, l3meet):
        for L in (l3null, l3meet):
            for kind in ("left", "right", "quasi", "bi"):
                assert least_element_oracle(L, L.top, kind) == L.top

    def test_matches_generator(self, le_universe_3):
        for L in le_universe_3:
            for a in range(L.n):
                for kind in ("left", "right", "quasi", "bi"):
                    assert gen_element(L, a, kind) == least_element_oracle(L, a, kind)


class TestIntraRegularPoe:
    def test_fixture_values(self, l3null, l3meet):
        assert is_intra_regular_poe(l3meet)
        assert not is_intra_regular_poe(l3null)
        assert is_intra_regular_poe(make_one_le())

    def test_amplification(self, le_universe_3):
        # a <= e a^2 e implies a <= e a^2 e a^2 e
        for L in le_universe_3:
            if not is_intra_regular_poe(L):
                continue
            t, e = L.table, L.top
            for a in range(L.n):
                aa = t[a][a]
                big = t[t[t[t[e][aa]][e]][aa]][e]
                assert L.leq[a][big]


class TestLeCondition:
    def test_l3null_witness_is_top_triple(self, l3null):
        assert le_condition_holds(l3null, "quasi") == ElementWitness(x=2, m=2, y=2)
        assert le_condition_holds(l3null, "bi") == ElementWitness(x=2, m=2, y=2)

    def test_l3meet_holds(self, l3meet):
        assert le_condition_holds(l3meet, "bi") is True
        assert le_condition_holds(l3meet, "quasi") is True

    def test_one_element(self):
        assert le_condition_holds(make_one_le(), "quasi") is True

    def test_witness_really_fails(self, l3null):
        w = le_condition_holds(l3null, "quasi")
        t, M = l3null.table, l3null.meet
        lhs = M[M[w.x][w.m]][w.y]
        rhs = t[t[w.y][w.m]][w.x]
        assert not l3null.leq[lhs][rhs]


class TestVerifyTheorem2:
    def test_fixture_reports(self, l3null, l3meet):
        w = ElementWitness(x=2, m=2, y=2)
        assert verify_theorem2(l3null) == (False, w, w)
        assert verify_theorem2(l3meet) == (True, True, True)

    def test_independent_of_the_kernel(self, monkeypatch):
        # the answers come from the triple scan, not from theorem2_flags
        monkeypatch.setattr(le, "theorem2_flags", lambda *s: (True, True, True))
        w = ElementWitness(x=2, m=2, y=2)
        assert verify_theorem2(make_l3null()) == (False, w, w)

    def test_one_element(self):
        assert verify_theorem2(make_one_le()) == (True, True, True)

    def test_reversal_symmetry(self, le_universe_4):
        # Reversing the multiplication (same lattice) swaps right and left
        # ideal elements and reverses products, so x ^ m ^ y <= y*m*x maps
        # onto itself and so does a <= e*a^2*e: no flag may change, in
        # verify_theorem2 or in the campaign kernel.
        flags = []
        for L in le_universe_4:
            r = truths(verify_theorem2(L))
            op = LeSemigroup(tuple(zip(*L.table)), L.join, L.meet, L.top)
            assert truths(verify_theorem2(op)) == r, L.table
            assert theorem2_flags(op.table, L.join, L.meet, L.top) == (
                theorem2_flags(L.table, L.join, L.meet, L.top)
            ), L.table
            flags.append(r)
        # both verdicts occur
        assert {(True, True, True), (False, False, False)} <= set(flags)


class TestGeneratedQuasiChain:
    """g = a v (ae ^ ea) satisfies ge ^ eg = ae ^ ea <= g, dominates a, and
    is below every quasi-ideal element above a."""

    def test_chain(self, le_universe_3):
        for L in le_universe_3:
            t, J, M, e = L.table, L.join, L.meet, L.top
            for a in range(L.n):
                u = M[t[a][e]][t[e][a]]
                g = J[a][u]
                assert M[t[g][e]][t[e][g]] == u
                assert L.leq[u][g]
                assert L.leq[a][g]
                for cand in range(L.n):
                    f = element_class(L, cand)
                    if f.quasi and L.leq[a][cand]:
                        assert L.leq[g][cand]

    def test_meet_products_stay_low(self, le_universe_3):
        # (ae ^ ea)e <= ae and e(ae ^ ea) <= ea
        for L in le_universe_3:
            t, M, e = L.table, L.meet, L.top
            for a in range(L.n):
                ae, ea = t[a][e], t[e][a]
                u = M[ae][ea]
                assert L.leq[t[u][e]][ae]
                assert L.leq[t[e][u]][ea]

    def test_quasi_element_bi_chain(self, le_universe_3):
        # qeq <= qe ^ eq <= q for quasi-ideal elements q
        for L in le_universe_3:
            t, M, e = L.table, L.meet, L.top
            for q in range(L.n):
                if not element_class(L, q).quasi:
                    continue
                qeq = t[t[q][e]][q]
                low = M[t[q][e]][t[e][q]]
                assert L.leq[qeq][low]
                assert L.leq[low][q]


class TestCheckRemark:
    """The remark, `remark_flags(table, leq, top)[1]`, on lattices and off
    them."""

    def test_le_views_are_consistent(self, l3null, l3meet, le_universe_3):
        assert remark_flags(l3meet.table, l3meet.leq, l3meet.top) == (True, True)
        assert remark_flags(l3null.table, l3null.leq, l3null.top) == (False, True)
        for L in le_universe_3:
            # the poe view of a lattice finds the lattice's top
            assert PoeSemigroup(L.table, L.leq).top == L.top
            c1, remark = remark_flags(L.table, L.leq, L.top)
            assert c1 == is_intra_regular_poe(L)
            if c1:
                assert remark is True

    def test_nonlattice_intra_regular(self):
        poe = make_poe_nonlattice_intra()
        assert is_intra_regular_poe(poe)
        assert ideal_elements(poe, "right") == [2]
        assert remark_flags(poe.table, poe.leq, poe.top)[1] is True

    def test_vacuous_when_not_intra_regular(self):
        poe = make_poe_no_meet()
        assert not is_intra_regular_poe(poe)
        assert remark_flags(poe.table, poe.leq, poe.top)[1] is True

    def test_one_element(self):
        poe = PoeSemigroup([[0]], [[1]], top=0)
        assert remark_flags(poe.table, poe.leq, poe.top) == (True, True)


class TestIdealElements:
    def test_l3null_everything_qualifies(self, l3null):
        for kind in ("left", "right", "bi", "quasi"):
            assert ideal_elements(l3null, kind) == [0, 1, 2]

    def test_unknown_kind(self, l3null):
        with pytest.raises(ValueError):
            ideal_elements(l3null, "ideal")
