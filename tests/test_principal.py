"""The principal-triple checks against the exhaustive triple scans.

`condition_holds` and `le_condition_holds` answer the c2/c3 conditions from
the ideals (elements) generated by single elements; `condition_holds` also
builds its witness from them alone, while `le_condition_holds` runs
`le_condition_scan` for the witness only when the principal check fails.
`condition_scan` and `le_condition_scan` scan every ideal triple and are the
oracle here.  `condition_holds` / `le_condition_holds` must return exactly
what the scan returns, witness included.  The ideal families the scans use
are held to `classify_subset` on every subset of the direct products.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from posemi import (
    OrderedSemigroup,
    classify_subset,
    condition_holds,
    ideal_masks,
    is_intra_regular,
    le_condition_holds,
    le_condition_scan,
    validate,
    verify_theorem1,
)
from posemi import canon, le, ordered
from posemi.enumeration import (
    EnumerationConfig,
    _semigroup_tables,
    enumerate_compatible_orders,
    enumerate_ordered_semigroups,
)

from conftest import (
    _le_universe,
    _ordered_universe,
    condition_scan,
    direct_product,
    make_l3null,
    make_n2,
)

KINDS = ("bi", "quasi")


def assert_ordered_agree(s):
    for kind in KINDS:
        assert condition_holds(s, kind) == condition_scan(s, kind), (s.table, kind)


def test_ordered_iso_order_4(ordered_universe_4):
    for s in ordered_universe_4:
        assert_ordered_agree(s)


def test_ordered_raw_order_3():
    for n in (1, 2, 3):
        for s in enumerate_ordered_semigroups(EnumerationConfig(order=n)):
            assert_ordered_agree(s)


def test_ordered_iso_order_5_slice():
    # the order-5 iso stream's structures on every 200th iso table
    tables = itertools.islice(_semigroup_tables(5, "up_to_iso"), 0, None, 200)
    count = 0
    for table, auts in tables:
        for leq in enumerate_compatible_orders(table):
            if canon.is_least(((leq, False),), auts):
                assert_ordered_agree(OrderedSemigroup(table, leq))
                count += 1
    assert count == 1563


def test_no_family_needed(monkeypatch, ordered_universe_3):
    # condition_holds and verify_theorem1 answer without any ideal family
    expected = [
        (condition_scan(s, "bi"), condition_scan(s, "quasi"))
        for s in ordered_universe_3
    ]

    def refuse(s, kind):
        raise AssertionError("ideal family requested")

    monkeypatch.setattr(ordered, "ideal_masks", refuse)
    failing = 0
    for s, (c2, c3) in zip(ordered_universe_3, expected):
        assert (condition_holds(s, "bi"), condition_holds(s, "quasi")) == (c2, c3)
        assert verify_theorem1(s)[1:] == (c2, c3)
        failing += c2 is not True
    assert failing > 0


def test_principal_ideals_built_once(monkeypatch, ordered_universe_3):
    # verify_theorem1 answers bi and quasi from the R(t) and L(t) the
    # structure built when it was made, generating only each M(t), and its
    # answers stay the scan's
    made = []
    gen_ideal = ordered.gen_ideal

    def counted(s, mask, kind):
        made.append(kind)
        return gen_ideal(s, mask, kind)

    monkeypatch.setattr(ordered, "gen_ideal", counted)
    for s in ordered_universe_3:
        fresh = OrderedSemigroup(s.table, s.leq)
        made.clear()
        answer = verify_theorem1(fresh)
        assert sorted(made) == sorted(["bi", "quasi"] * s.n)
        assert answer[1:] == tuple(condition_scan(s, kind) for kind in KINDS)


def test_le_raw_order_4(monkeypatch):
    # the principal check runs the scan exactly when the scan finds a
    # witness: no false negatives, and no scan when the condition holds
    cases = [(L, kind) for L in _le_universe(4, dedup="none") for kind in KINDS]
    expected = [le_condition_scan(L, kind) for L, kind in cases]
    calls = []

    def counted(L, kind):
        calls.append((L, kind))
        return le_condition_scan(L, kind)

    monkeypatch.setattr(le, "le_condition_scan", counted)
    for (L, kind), scan in zip(cases, expected):
        calls.clear()
        assert le_condition_holds(L, kind) == scan
        assert calls == ([] if scan is True else [(L, kind)])
    assert 0 < sum(scan is not True for scan in expected) < len(cases)


def _factors(n):
    universe = [s for s in _ordered_universe(n) if s.n == n]
    ir = [s for s in universe if is_intra_regular(s)]
    non = [s for s in universe if not is_intra_regular(s)]
    return ir, non


@pytest.fixture(scope="module")
def products():
    ir2, non2 = _factors(2)
    ir3, non3 = _factors(3)
    return [
        direct_product(ir2[0], ir2[-1], ir2[len(ir2) // 2]),
        direct_product(ir2[-1], non2[0], ir2[1]),
        direct_product(ir3[len(ir3) // 3], ir3[-1]),
        direct_product(ir3[0], non3[-1]),
        direct_product(non3[len(non3) // 2], ir3[len(ir3) // 2]),
    ]


def test_direct_products(products):
    assert [s.n for s in products] == [8, 8, 9, 9, 9]
    # a product is intra-regular exactly when every factor is
    assert [is_intra_regular(s) for s in products] == [True, False, True, False, False]
    for s in products:
        assert validate(s) == []
        assert_ordered_agree(s)
        c2 = condition_holds(s, "bi") is True
        c3 = condition_holds(s, "quasi") is True
        assert is_intra_regular(s) == c2 == c3


@pytest.fixture(scope="module")
def twelve():
    # the largest carrier the families take: indicators of 4096 bits
    ir2, non2 = _factors(2)
    ir3, _ = _factors(3)
    s = direct_product(ir2[0], non2[-1], ir3[-1])
    assert s.n == 12
    return s


def test_twelve_element_product(twelve):
    assert not is_intra_regular(twelve)
    assert_ordered_agree(twelve)


def test_families_match_classify_subset(products, twelve):
    for s in [*products, twelve]:
        flags = [classify_subset(s, m) for m in range(1, s.full + 1)]
        for kind in ("left", "right", "quasi", "bi"):
            expected = tuple(
                m for m, f in zip(range(1, s.full + 1), flags) if getattr(f, kind)
            )
            assert ideal_masks(s, kind) == expected, kind


def family_flags(s):
    """ideal_masks of every kind against classify_subset on every mask."""
    flags = [classify_subset(s, m) for m in range(1, s.full + 1)]
    for kind in ("left", "right", "quasi", "bi"):
        expected = tuple(
            m for m, f in zip(range(1, s.full + 1), flags) if getattr(f, kind)
        )
        assert ideal_masks(s, kind) == expected, (s.table, s.leq, kind)
        # the carrier is an ideal of every kind: the top bit of the indicator
        assert expected[-1] == s.full


@pytest.fixture(scope="module")
def factors_by_order():
    return {n: [s for s in _ordered_universe(n) if s.n == n] for n in (2, 3)}


# carriers of 4 to 12 elements: both sides of the 6-element chunks of the
# closure and product tables, and the 12-element cap
SHAPES = ((2, 2), (2, 3), (3, 2), (3, 3), (2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2))


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_families_of_drawn_products(factors_by_order, data):
    shape = data.draw(st.sampled_from(SHAPES))
    s = direct_product(*(data.draw(st.sampled_from(factors_by_order[k])) for k in shape))
    assert 4 <= s.n <= 12
    family_flags(s)


def test_families_need_no_generator(monkeypatch, twelve, n2):
    # the families are the generators' oracle, so they are built without them
    def refuse(s, mask, kind):
        raise AssertionError("generator called")

    monkeypatch.setattr(ordered, "gen_ideal", refuse)
    for s in (twelve, n2):
        family_flags(OrderedSemigroup(s.table, s.leq))


def test_bad_kind_rejected():
    with pytest.raises(ValueError):
        condition_holds(make_n2(), "left")
    with pytest.raises(ValueError):
        le_condition_holds(make_l3null(), "right")
    with pytest.raises(TypeError):
        le_condition_holds(make_n2(), "bi")
