"""Set-level operations: closure, products, ideal classification, generators
with their brute-force oracle, intra-regularity and the triple conditions."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from posemi import (
    ConditionWitness,
    OrderedSemigroup,
    classify_subset,
    condition_holds,
    downward_closure,
    gen_ideal,
    ideal_masks,
    intra_regular_witness,
    is_intra_regular,
    least_ideal_oracle,
    order_int,
    ordered_structure_id,
    set_product,
    subset_indices,
    subset_mask,
    validate,
    verify_theorem1,
)
from posemi import ordered
from posemi.enumeration import EnumerationConfig, enumerate_ordered_semigroups

from conftest import (
    _ordered_universe,
    condition_scan,
    direct_product,
    make_l3meet,
    make_l3null,
    make_n2,
    make_one,
    make_p12,
    make_s2l,
    make_z2,
    truths,
)
from second_methods import controls

FULL2 = 0b11


def all_masks(s):
    return range(s.full + 1)


def nonempty_masks(s):
    return range(1, s.full + 1)


def closure_by_elements(s, mask):
    """Oracle for downward_closure: the union of (i] over the elements i."""
    out = 0
    for i in subset_indices(mask):
        out |= s.below[i]
    return out


def product_by_elements(s, a_mask, b_mask):
    """Oracle for set_product: a*b for every cell (a, b) of A x B."""
    out = 0
    bs = subset_indices(b_mask)
    for i in subset_indices(a_mask):
        for j in bs:
            out |= 1 << s.table[i][j]
    return out


def left_zero_band(n):
    """x*y = x on n elements, ordered by divisibility of i + 1: every order
    is compatible with a left-zero band, and every left-zero band is
    intra-regular (a = a*a^2*a)."""
    leq = [[(j + 1) % (i + 1) == 0 for j in range(n)] for i in range(n)]
    return OrderedSemigroup([[i] * n for i in range(n)], leq)


def in_sa2s(s, a):
    """a lies in (S a^2 S], from set products and the downward closure."""
    sa2s = set_product(s, set_product(s, s.full, 1 << s.table[a][a]), s.full)
    return bool(downward_closure(s, sa2s) >> a & 1)


def intra_regular_by_sets(s):
    """Oracle for is_intra_regular: every element a lies in (S a^2 S]."""
    return all(in_sa2s(s, a) for a in range(s.n))


class TestValidate:
    def test_fixtures_are_valid(self, n2, s2l):
        assert validate(n2) == []
        assert validate(s2l) == []

    def test_nonassociative_table_is_reported(self):
        # table[0][1]=1, rest 0: (0*1)*1 = 1*1 = 0 but 0*(1*1) = 0*0 = 0; the
        # violating triple is (1,0,1) instead
        s = OrderedSemigroup([[0, 1], [0, 0]], [[1, 0], [0, 1]])
        bad = validate(s)
        assert any("associativity" in msg for msg in bad)

    def test_antisymmetry_violation(self):
        s = OrderedSemigroup([[0, 0], [0, 0]], [[1, 1], [1, 1]])
        assert "antisymmetry: 0 <= 1 and 1 <= 0" in validate(s)

    def test_incompatible_order_is_rejected(self):
        # two-element group ordered 0 < 1: 1*0=1 !<= 1*1=0
        s = OrderedSemigroup([[0, 1], [1, 0]], [[1, 1], [0, 1]])
        assert any("compatibility" in msg for msg in validate(s))

    def test_constructor_shape_errors(self):
        with pytest.raises(ValueError):
            OrderedSemigroup([[0, 0]], [[1, 0], [0, 1]])
        with pytest.raises(ValueError):
            OrderedSemigroup([[0, 2], [0, 0]], [[1, 0], [0, 1]])
        with pytest.raises(ValueError):
            OrderedSemigroup([[0, 0], [0, 0]], [[1, 0]])


class TestDownwardClosure:
    def test_n2_singleton(self, n2):
        assert downward_closure(n2, 0b10) == FULL2

    def test_full_carrier_is_closed(self, n2, s2l):
        for s in (n2, s2l):
            assert downward_closure(s, s.full) == s.full

    def test_discrete_order_fixes_everything(self, s2l):
        for m in all_masks(s2l):
            assert downward_closure(s2l, m) == m

    def test_mask_out_of_range(self, n2):
        with pytest.raises(ValueError):
            downward_closure(n2, 0b100)


class TestSetProduct:
    def test_left_zero(self, s2l):
        assert set_product(s2l, 0b01, 0b10) == 0b01

    def test_null(self, n2):
        assert set_product(n2, 0b10, 0b10) == 0b01

    def test_empty_factor(self, n2):
        assert set_product(n2, 0b11, 0) == 0
        assert set_product(n2, 0, 0b11) == 0


# factors of the direct products on 8 to 12 elements
FACTORS = {2: (make_n2, make_s2l, make_z2), 3: (make_l3null, make_l3meet)}
SHAPES = ((2, 2, 2), (3, 3), (2, 2, 3), (2, 3, 2))


class TestChunkTables:
    """downward_closure and set_product read the chunk tables a structure
    builds when it is made; the element loops above are their oracles."""

    def test_every_mask_pair_of_order_three(self, ordered_universe_3):
        for s in ordered_universe_3:
            for a in all_masks(s):
                assert downward_closure(s, a) == closure_by_elements(s, a)
                for b in all_masks(s):
                    assert set_product(s, a, b) == product_by_elements(s, a, b)

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_direct_products_of_eight_to_twelve(self, data):
        shape = data.draw(st.sampled_from(SHAPES))
        s = direct_product(*(data.draw(st.sampled_from(FACTORS[k]))() for k in shape))
        assert 8 <= s.n <= 12
        masks = st.integers(0, s.full)
        for _ in range(20):
            a, b = data.draw(masks), data.draw(masks)
            assert downward_closure(s, a) == closure_by_elements(s, a)
            assert set_product(s, a, b) == product_by_elements(s, a, b)

    @pytest.mark.parametrize("n", [13, 24])
    def test_left_zero_bands_past_the_cap(self, n):
        s = left_zero_band(n)
        rng = random.Random(n)
        for _ in range(300):
            a, b = rng.getrandbits(n), rng.getrandbits(n)
            assert downward_closure(s, a) == closure_by_elements(s, a)
            assert set_product(s, a, b) == product_by_elements(s, a, b)
        for m in (0, s.full):
            assert downward_closure(s, m) == closure_by_elements(s, m)
            assert set_product(s, m, s.full) == product_by_elements(s, m, s.full)

    def test_condition_holds_on_twenty_four_elements(self):
        # no ideal family is built past the cap; by Theorem 1 both conditions
        # hold on an intra-regular structure
        s = left_zero_band(24)
        assert is_intra_regular(s)
        assert condition_holds(s, "bi") is True
        assert condition_holds(s, "quasi") is True

    def test_one_build_serves_every_caller(self, monkeypatch):
        # the tables, R and L are built with the structure: families,
        # generators, the oracle and the conditions rebuild none of them
        s = make_l3meet()

        def refuse(*args):
            raise AssertionError("tables rebuilt")

        monkeypatch.setattr(ordered, "_chunk_tables", refuse)
        monkeypatch.setattr(ordered, "_product_tables", refuse)
        assert downward_closure(s, 0b10) == closure_by_elements(s, 0b10)
        assert set_product(s, 0b10, 0b11) == product_by_elements(s, 0b10, 0b11)
        for kind in ("quasi", "left", "right", "bi"):
            flag = getattr(classify_subset(s, 0b11), kind)
            assert flag == (0b11 in ideal_masks(s, kind))
            assert gen_ideal(s, 0b10, kind) == least_ideal_oracle(s, 0b10, kind)
        for kind in ("bi", "quasi"):
            assert condition_holds(s, kind) == condition_scan(s, kind)

    def test_principal_ideals_are_the_generated_ones(self, ordered_universe_3):
        # R(t) and L(t), built with the structure, are the right and left
        # ideals gen_ideal generates from t
        for s in [*ordered_universe_3, make_p12(), left_zero_band(24)]:
            ones = [1 << t for t in range(s.n)]
            assert list(s._right) == [gen_ideal(s, b, "right") for b in ones]
            assert list(s._left) == [gen_ideal(s, b, "left") for b in ones]

    def test_row_tables_are_shared_per_size(self, ordered_universe_3):
        # the rows chunk tables and folds depend on n alone: two structures
        # of one size on different tables share them, and their products
        # still match the oracle
        first = ordered_universe_3[-1]
        other = next(
            s for s in ordered_universe_3 if s.n == first.n and s.table != first.table
        )
        assert other._products[0] != first._products[0]
        assert other._products[1] is first._products[1]
        assert other._products[2] is first._products[2]
        for s in (first, other):
            for a in range(1 << s.n):
                for b in range(1 << s.n):
                    assert set_product(s, a, b) == product_by_elements(s, a, b)

    def test_tables_grow_linearly(self):
        # ceil(n / 6) tables of 2 ** 6 entries each, whatever the table
        for n, chunks in ((5, 1), (6, 1), (7, 2), (12, 2), (13, 3), (24, 4)):
            s = left_zero_band(n)
            columns, rows, _ = s._products
            for t in (s._closures, columns, rows):
                assert len(t) == chunks
                assert sum(map(len, t)) <= chunks * 64


class TestClassify:
    def test_n2_zero_is_everything(self, n2):
        f = classify_subset(n2, 0b01)
        assert (f.left, f.right, f.quasi, f.bi) == (True, True, True, True)

    def test_s2l_zero_right_not_left(self, s2l):
        f = classify_subset(s2l, 0b01)
        assert f.right and not f.left
        assert f.quasi and f.bi

    def test_n2_a_not_downward_closed(self, n2):
        f = classify_subset(n2, 0b10)
        assert not f.downward_closed
        assert not (f.left or f.right or f.quasi or f.bi)

    def test_empty_subset(self, n2):
        f = classify_subset(n2, 0)
        assert not f.nonempty
        assert not (f.left or f.right or f.quasi or f.bi)


class TestGenIdeal:
    def test_n2_quasi(self, n2):
        assert gen_ideal(n2, 0b10, "quasi") == FULL2

    def test_s2l_right(self, s2l):
        assert gen_ideal(s2l, 0b01, "right") == 0b01

    def test_s2l_left(self, s2l):
        assert gen_ideal(s2l, 0b01, "left") == FULL2

    def test_empty_subset_rejected(self, n2):
        with pytest.raises(ValueError):
            gen_ideal(n2, 0, "quasi")
        with pytest.raises(ValueError):
            least_ideal_oracle(n2, 0, "quasi")

    def test_unknown_kind_rejected(self, n2):
        with pytest.raises(ValueError):
            gen_ideal(n2, 0b01, "two-sided")


class TestOracle:
    def test_n2_quasi(self, n2):
        assert least_ideal_oracle(n2, 0b10, "quasi") == FULL2

    def test_s2l_right(self, s2l):
        assert least_ideal_oracle(s2l, 0b01, "right") == 0b01

    def test_one_element(self):
        one = make_one()
        for kind in ("left", "right", "quasi", "bi"):
            assert least_ideal_oracle(one, 0b1, kind) == 0b1

    def test_one_families_build_serves_every_kind(self, monkeypatch, n2):
        # the first request builds all four kinds; later ones are cache hits
        builds = []
        families = ordered._families

        def counted(s):
            builds.append(s)
            return families(s)

        monkeypatch.setattr(ordered, "_families", counted)
        for kind in ("quasi", "left", "right", "bi"):
            least_ideal_oracle(n2, 0b10, kind)
            ideal_masks(n2, kind)
        assert builds == [n2]

    def test_cap_enforced(self):
        # 13 elements: one past SUBSET_ENUM_CAP; the left-zero band xy = x
        n = 13
        s = OrderedSemigroup(
            [[i] * n for i in range(n)], [[i == j for j in range(n)] for i in range(n)]
        )
        with pytest.raises(ValueError, match="subset enumeration cap"):
            ideal_masks(s, "bi")
        with pytest.raises(ValueError, match="subset enumeration cap"):
            least_ideal_oracle(s, 0b1, "quasi")
        with pytest.raises(ValueError, match="subset enumeration cap"):
            condition_scan(s, "bi")
        # the principal-ideal path builds no family, so it has no cap
        assert condition_holds(s, "bi") is True


class TestIntraRegularity:
    def test_fixture_values(self, n2, s2l):
        assert is_intra_regular(s2l)
        assert not is_intra_regular(n2)
        assert is_intra_regular(make_z2())

    def test_witnesses(self, n2, s2l):
        assert intra_regular_witness(s2l, 0) == (0, 0)
        assert intra_regular_witness(n2, 1) is None
        assert intra_regular_witness(make_one(), 0) == (0, 0)

    def test_matches_set_oracle(self, ordered_universe_4):
        values = [is_intra_regular(s) for s in ordered_universe_4]
        assert values == [intra_regular_by_sets(s) for s in ordered_universe_4]
        assert 0 < sum(values) < len(values)

    def test_witness_agrees_with_predicate(self, ordered_universe_3):
        # a witness exists exactly when a lies in (S a^2 S], and it is one
        for s in ordered_universe_3:
            t = s.table
            for a in range(s.n):
                pair = intra_regular_witness(s, a)
                assert (pair is not None) == in_sa2s(s, a)
                if pair is not None:
                    x, y = pair
                    assert s.leq[a][t[t[x][t[a][a]]][y]]  # a <= x*a^2*y

    def test_equivalent_forms_agree(self, ordered_universe_3):
        # elementwise membership form vs the subset form A <= (S A^2 S]
        for s in ordered_universe_3:
            by_subsets = all(
                not m
                & ~downward_closure(
                    s,
                    set_product(
                        s, set_product(s, s.full, set_product(s, m, m)), s.full
                    ),
                )
                for m in nonempty_masks(s)
            )
            assert by_subsets == is_intra_regular(s)


class TestConditionHolds:
    def test_n2_quasi_witness(self, n2):
        w = condition_holds(n2, "quasi")
        assert w == ConditionWitness(x=FULL2, y=FULL2, m=FULL2, violating_element=1)

    def test_s2l_quasi(self, s2l):
        assert condition_holds(s2l, "quasi") is True

    def test_one_element_bi(self):
        assert condition_holds(make_one(), "bi") is True

    def test_bad_kind(self, n2):
        with pytest.raises(ValueError):
            condition_holds(n2, "left")

    def test_witness_invariant(self, n2):
        w = condition_holds(n2, "bi")
        inter = w.x & w.m & w.y
        ymx = downward_closure(
            n2, set_product(n2, set_product(n2, w.y, w.m), w.x)
        )
        assert inter >> w.violating_element & 1
        assert not ymx >> w.violating_element & 1


class TestVerifyTheorem1:
    def test_n2(self, n2):
        c1, r2, r3 = verify_theorem1(n2)
        assert c1 is False
        assert isinstance(r2, ConditionWitness) and isinstance(r3, ConditionWitness)

    def test_s2l(self, s2l):
        assert verify_theorem1(s2l) == (True, True, True)

    def test_one_element(self):
        assert verify_theorem1(make_one()) == (True, True, True)

    def test_id_is_relabeling_invariant(self, n2):
        relabeled = OrderedSemigroup([[1, 1], [1, 1]], [[1, 0], [1, 1]])
        assert validate(relabeled) == []
        assert ordered_structure_id(relabeled.table, order_int(relabeled.leq)) == (
            ordered_structure_id(n2.table, order_int(n2.leq))
        )

    def test_compatibility_dropped_control(self):
        # off compatible orders c1 fails while c2 and c3 hold on 18 of the
        # 230 (iso table, poset) pairs of order 3: the theorem needs
        # compatibility, and the checkers find the failures; CI runs order 4
        controls(3)


class TestClosureAlgebra:
    """(A] is extensive, idempotent, monotone, and multiplicative:
    (A](B] <= (AB] with ((A](B]] = (AB]."""

    def test_properties_exhaustive_small(self, ordered_universe_3):
        for s in ordered_universe_3:
            for a in all_masks(s):
                ca = downward_closure(s, a)
                assert a & ~ca == 0
                assert downward_closure(s, ca) == ca
                for b in all_masks(s):
                    if a & ~b == 0:
                        assert ca & ~downward_closure(s, b) == 0
                    prod_closed = downward_closure(
                        s,
                        set_product(
                            s, downward_closure(s, a), downward_closure(s, b)
                        ),
                    )
                    cab = downward_closure(s, set_product(s, a, b))
                    assert set_product(
                        s, downward_closure(s, a), downward_closure(s, b)
                    ) & ~cab == 0
                    assert prod_closed == cab


class TestIdealHierarchy:
    def test_quasi_implies_bi_and_sided_implies_quasi(self, ordered_universe_3):
        for s in ordered_universe_3:
            for m in nonempty_masks(s):
                f = classify_subset(s, m)
                if f.quasi:
                    assert f.bi
                if f.left or f.right:
                    assert f.quasi

    def test_carrier_is_every_kind(self, ordered_universe_3):
        for s in ordered_universe_3:
            f = classify_subset(s, s.full)
            assert f.left and f.right and f.quasi and f.bi

    def test_ideal_masks_match_classify_subset(self, ordered_universe_4):
        # the raw order-3 universe holds every labeling of each class, so the
        # indicators, indexed by bit position, meet each class under all of them
        for s in [*ordered_universe_4, *_ordered_universe(3, dedup="none")]:
            flags = [classify_subset(s, m) for m in nonempty_masks(s)]
            for kind in ("left", "right", "quasi", "bi"):
                expected = tuple(
                    m for m, f in zip(nonempty_masks(s), flags) if getattr(f, kind)
                )
                assert ideal_masks(s, kind) == expected, (s.table, s.leq, kind)

    def test_ideal_masks_ascending_and_cached(self, n2):
        masks = ideal_masks(n2, "quasi")
        assert list(masks) == sorted(masks)
        assert ideal_masks(n2, "quasi") is masks


class TestFamilyIndicators:
    """The helpers of `ordered._families`: indicator ints of 2^n bits, bit m
    standing for mask m."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_columns(self, n):
        cols = ordered._columns(n)
        assert len(cols) == n
        for u, col in enumerate(cols):
            assert col >> (1 << n) == 0
            assert [col >> m & 1 for m in range(1 << n)] == [
                m >> u & 1 for m in range(1 << n)
            ]
        assert ordered._columns(n) is cols

    def test_decode(self):
        assert ordered._decode(0) == ()
        assert ordered._decode(1) == (0,)
        assert ordered._decode(0b1011_0010) == (1, 4, 5, 7)
        rng = random.Random(12)
        for n in (1, 6, 7, 12):
            top = (1 << n) - 1
            ind = rng.getrandbits(1 << n) | 1 << top
            masks = ordered._decode(ind)
            assert masks == tuple(m for m in range(1 << n) if ind >> m & 1)
            assert list(masks) == sorted(set(masks))
            assert masks[-1] == top


class TestGeneratorSoundness:
    def test_matches_oracle_small(self, ordered_universe_3):
        for s in ordered_universe_3:
            for x in nonempty_masks(s):
                for kind in ("left", "right", "quasi", "bi"):
                    assert gen_ideal(s, x, kind) == least_ideal_oracle(s, x, kind)

    def test_generator_proof_steps(self, ordered_universe_3):
        for s in ordered_universe_3:
            full = s.full
            for x in nonempty_masks(s):
                q = gen_ideal(s, x, "quasi")
                qs = downward_closure(s, set_product(s, q, full))
                sq = downward_closure(s, set_product(s, full, q))
                xs = downward_closure(s, set_product(s, x, full))
                sx = downward_closure(s, set_product(s, full, x))
                assert qs & ~xs == 0
                assert sq & ~sx == 0
                assert (qs & sq) & ~q == 0
                assert downward_closure(s, q) == q
                for t in ideal_masks(s, "quasi"):
                    if x & ~t == 0:
                        assert q & ~t == 0

    def test_oracle_intersection_closure(self, ordered_universe_3):
        # the intersection the oracle returns must itself pass classification
        for s in ordered_universe_3:
            for kind in ("left", "right", "quasi", "bi"):
                for x in nonempty_masks(s):
                    got = least_ideal_oracle(s, x, kind)
                    assert getattr(classify_subset(s, got), kind)


class TestProposition2Chain:
    """When the quasi-ideal triple condition holds, every nonempty X climbs
    the inclusion chain down to X <= (S X^2 S]."""

    def test_conditional_chain(self, ordered_universe_3):
        for s in ordered_universe_3:
            if condition_holds(s, "quasi") is not True:
                continue
            full = s.full
            for x in nonempty_masks(s):
                xx = set_product(s, x, x)
                x3 = set_product(s, xx, x)
                sx2s = downward_closure(
                    s, set_product(s, set_product(s, full, xx), full)
                )
                x2s = downward_closure(s, set_product(s, xx, full))
                union = downward_closure(s, sx2s | x2s)
                assert x & ~union == 0
                assert x3 & ~union == 0
                assert xx & ~sx2s == 0
                assert set_product(s, xx, full) & ~sx2s == 0
                assert x & ~sx2s == 0


class TestMaskHelpers:
    def test_roundtrip(self):
        assert subset_mask([0, 2], 3) == 0b101
        assert subset_indices(0b101) == [0, 2]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            subset_mask([3], 3)


def test_equivalence_over_order_2_raw():
    # every ordered semigroup on two labeled points, no dedup
    for s in enumerate_ordered_semigroups(EnumerationConfig(order=2)):
        assert len(set(truths(verify_theorem1(s)))) == 1
