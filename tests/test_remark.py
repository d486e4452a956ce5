"""The element-triple scan and the remark against independent methods.

`le._triple_scan` reads every greatest lower bound off the down-sets and
the ideal elements off one flag table, on (table, leq, top) tuples.  The
reference here scans the same triples in the same order with the ideal
elements of `ideal_elements` and the bound from `order_glb` on a
poe-semigroup or from the meet table on a lattice, and the element flags
are held to those two bounds as well.  The inputs include orders that are
not compatible with the table and posets without meets, so some triples
have no greatest lower bound.

The remark has two more checks on every raw ordered semigroup of order
<= 4 with a greatest element: its c1 is the c1 of `theorem1_flags` (with
x, y <= e, a <= x a^2 y for some x, y iff a <= e a^2 e), and reversing the
multiplication leaves (c1, remark holds) unchanged.
"""

import itertools

import pytest

from posemi import (
    ElementFlags,
    ElementWitness,
    LeSemigroup,
    PoeSemigroup,
    element_class,
    greatest,
    ideal_elements,
    le_condition_scan,
    order_glb,
)
from posemi.enumeration import (
    EnumerationConfig,
    all_lattices,
    all_posets,
    enumerate_semigroups,
    ordered_pairs,
)
from posemi.le import _triple_scan, remark_flags
from posemi.ordered import theorem1_flags

# every ORDER4_TABLE_STRIDE-th of the 3,492 order-4 tables, on each lattice
ORDER4_TABLE_STRIDE = 7


def tables(n):
    return list(enumerate_semigroups(EnumerationConfig(n)))


def reference_glb(s, elems):
    if isinstance(s, LeSemigroup):
        low = elems[0]
        for x in elems[1:]:
            low = s.meet[low][x]
        return low
    return order_glb(s.leq, elems)


def reference_flags(s, a):
    t, leq, e = s.table, s.leq, s.top
    ae, ea = t[a][e], t[e][a]
    low = reference_glb(s, (ae, ea))
    return ElementFlags(
        right=leq[ae][a],
        left=leq[ea][a],
        bi=leq[t[ae][a]][a],
        quasi=low is not None and leq[low][a],
        quasi_defined=low is not None,
    )


def reference_scan(s, kind, skipped):
    """The first failing right/kind/left triple, each scanned from the
    highest index down, or True; counts the triples without a greatest
    lower bound in skipped[0]."""
    t, leq = s.table, s.leq
    for x in reversed(ideal_elements(s, "right")):
        for m in reversed(ideal_elements(s, kind)):
            for y in reversed(ideal_elements(s, "left")):
                low = reference_glb(s, (x, m, y))
                if low is None:
                    skipped[0] += 1
                elif not leq[low][t[t[y][m]][x]]:
                    return ElementWitness(x=x, m=m, y=y)
    return True


def assert_scans_agree(structures):
    """The scan, the element flags and the remark against the reference on
    every structure; returns (witnesses found, triples without a glb)."""
    witnesses, skipped = 0, [0]
    for s in structures:
        flags = [reference_flags(s, a) for a in range(s.n)]
        assert [element_class(s, a) for a in range(s.n)] == flags, (s.table, s.leq)
        for kind in ("right", "left", "bi", "quasi"):
            want = [a for a, f in enumerate(flags) if getattr(f, kind)]
            assert ideal_elements(s, kind) == want
        for kind in ("bi", "quasi"):
            want = reference_scan(s, kind, skipped)
            assert _triple_scan(s.table, s.leq, s.top, kind) == want, (s.table, s.leq)
            if isinstance(s, LeSemigroup):
                assert le_condition_scan(s, kind) == want
            witnesses += want is not True
        c1, remark = remark_flags(s.table, s.leq, s.top)
        assert remark == (reference_scan(s, "bi", [0]) if c1 else True)
    return witnesses, skipped[0]


def test_scan_on_every_poset_with_a_top():
    # every associative table of order 2 and 3 on every labeled poset with a
    # greatest element, compatible with the table or not
    structures = [
        PoeSemigroup(table, leq)
        for n in (2, 3)
        for table, leq in itertools.product(tables(n), all_posets(n))
        if greatest(leq) is not None
    ]
    assert len(structures) == 8 * 2 + 113 * 9
    witnesses, skipped = assert_scans_agree(structures)
    assert witnesses and skipped


def test_scan_on_every_lattice():
    # every order-3 table and every ORDER4_TABLE_STRIDE-th order-4 table, on
    # every labeled lattice, join-distributive or not
    cases = {3: tables(3), 4: tables(4)[::ORDER4_TABLE_STRIDE]}
    structures = [
        LeSemigroup(table, join, meet, top)
        for n, some in cases.items()
        for table, (_, join, meet, top) in itertools.product(some, all_lattices(n))
    ]
    assert len(structures) == 113 * 6 + 499 * 36
    witnesses, skipped = assert_scans_agree(structures)
    assert witnesses and not skipped


@pytest.fixture(scope="module")
def raw_poe_4():
    """(table, leq, top) of every raw ordered semigroup of order <= 4 whose
    order has a greatest element."""
    return [
        (table, leq, top)
        for n in (1, 2, 3, 4)
        for table, leq in ordered_pairs(EnumerationConfig(n))
        if (top := greatest(leq)) is not None
    ]


def test_remark_c1_is_theorem1_c1(raw_poe_4):
    assert len(raw_poe_4) == 33235
    for table, leq, top in raw_poe_4:
        assert remark_flags(table, leq, top)[0] == theorem1_flags(table, leq)[0]


def test_remark_under_reversal(raw_poe_4):
    seen = set()
    for table, leq, top in raw_poe_4:
        c1, remark = remark_flags(table, leq, top)
        flipped = remark_flags(tuple(zip(*table)), leq, top)
        assert (c1, remark is True) == (flipped[0], flipped[1] is True)
        seen.add(c1)
    assert seen == {True, False}
