"""The theorem2 campaign path against the per-structure answers.

Le streams run the search once per lattice class.  Raw streams relabel its
tables onto every other labeled lattice of the class; iso streams prune it
by the automorphisms of the lattice and canonicalize what is left.  The
oracles are the search run on every labeled lattice: plain for raw
streams, and for iso streams with lex-leader pruning on the table and
(join, meet) kept when no table automorphism makes it smaller.  Campaigns
check each structure with `theorem2_flags`, which must give the truth
values of `verify_theorem2`: intra-regularity and the full triple scan,
with no call to the kernel.  On a le-semigroup
c1 = c2 = c3, so answers alone cannot tell a wrong generated element apart:
the kernel is also held to the principal check built from `gen_element` on
(associative table, labeled lattice) pairs, distributive or not.
"""

import itertools

import pytest

from posemi import (
    LeSemigroup,
    gen_element,
    is_intra_regular_poe,
    le_structure_id,
    verify_theorem2,
)
from posemi.enumeration import (
    EnumerationConfig,
    _fill,
    _join_distributive,
    all_lattices,
    associative_tables,
    le_sources,
)
from posemi.le import theorem2_flags

from conftest import truths
from second_methods import le_lex_leaders

# every LATTICE_STRIDE-th of the 380 labeled order-5 lattices: 9 of them, in
# all five lattice classes
LATTICE_STRIDE = 47
# every ORDER4_STRIDE-th of the 11,304 raw order-4 le structures, and every
# ORDER4_TABLE_STRIDE-th of the 3,492 order-4 tables, on each lattice
ORDER4_STRIDE = 7
ORDER4_TABLE_STRIDE = 7


def per_lattice_fill(n, lattices):
    """The raw le stream of the given labeled lattices, searched lattice by
    lattice with the distributivity hook."""
    return [
        (table, join, meet, top)
        for _, join, meet, top in lattices
        for table, _ in _fill(n, _join_distributive(join, n))
    ]


def raw(n):
    return EnumerationConfig(order=n)


def iso(n):
    return EnumerationConfig(order=n, dedup="up_to_iso")


def le_structures(cfg):
    return [structure for structure, _ in le_sources(cfg)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_raw_stream_is_the_per_lattice_fill(n):
    assert le_structures(raw(n)) == per_lattice_fill(n, all_lattices(n))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_iso_stream_is_the_per_lattice_search(n):
    want = [structure for structure, _ in le_lex_leaders(n, all_lattices(n))]
    assert le_structures(iso(n)) == want


def test_raw_order_5_stride():
    lattices = all_lattices(5)
    got, sources, count = [], [], 0
    # the stream holds each lattice's structures in a row, in lattice order
    by_lattice = itertools.groupby(le_sources(raw(5)), lambda s: s[0][1])
    for i, (_, group) in enumerate(by_lattice):
        if i % LATTICE_STRIDE:
            count += sum(1 for _ in group)
            continue
        group = list(group)
        count += len(group)
        got.extend(structure for structure, _ in group)
        sources.append(group[-1])
    assert (i, count) == (379, 787560)
    assert got == per_lattice_fill(5, lattices[::LATTICE_STRIDE])
    # a structure and its source are isomorphic: one id
    for (table, join, meet, _), source in sources:
        assert le_structure_id(table, join, meet) == le_structure_id(*source)


def test_iso_order_5_stride():
    lattices = all_lattices(5)[::LATTICE_STRIDE]
    stream = le_structures(iso(5))
    assert len(stream) == 6738
    # the stream holds each lattice's structures in a row, in lattice order
    joins = {join for _, join, _, _ in lattices}
    got = [s for s in stream if s[1] in joins]
    assert len(got) == 380
    assert got == [structure for structure, _ in le_lex_leaders(5, lattices)]


def test_iso_sources_are_the_structures():
    for (table, join, meet, _), source in le_sources(iso(4)):
        assert source == (table, join, meet)


def _flags_agree(structures):
    got = [theorem2_flags(*s) for s in structures]
    assert got == [truths(verify_theorem2(LeSemigroup(*s))) for s in structures]
    assert {(True, True, True), (False, False, False)} == set(got)


def test_kernel_raw_order_3():
    _flags_agree([s for n in (1, 2, 3) for s in le_structures(raw(n))])


def test_kernel_raw_order_4_stride():
    _flags_agree(le_structures(raw(4))[::ORDER4_STRIDE])


def principal(L, kind):
    """a <= l(a)*m(a)*r(a) for every a, from `gen_element`."""
    t = L.table
    for a in range(L.n):
        left, mid, right = (gen_element(L, a, k) for k in ("left", kind, "right"))
        if not L.leq[a][t[t[left][mid]][right]]:
            return False
    return True


def test_kernel_on_tables_outside_the_theorem():
    # Off join-distributive tables the three answers can differ, so these
    # cases check each generated element the kernel builds.  Every table of
    # order <= 3 and every ORDER4_TABLE_STRIDE-th of order 4, each on every
    # labeled lattice; at order 3 no case tells a v ae from a v (ae ^ ea)
    # as the middle element of c3, at order 4 some do.
    tables = {n: list(associative_tables(n)) for n in (1, 2, 3)}
    tables[4] = list(associative_tables(4))[::ORDER4_TABLE_STRIDE]
    cases = [
        (table, join, meet, top)
        for n, some in tables.items()
        for table, (_, join, meet, top) in itertools.product(some, all_lattices(n))
    ]
    assert len(cases) == 1 + 8 * 2 + 113 * 6 + 499 * 36
    flags = set()
    for table, join, meet, top in cases:
        L = LeSemigroup(table, join, meet, top)
        got = theorem2_flags(table, join, meet, top)
        assert got == (
            is_intra_regular_poe(L),
            principal(L, "bi"),
            principal(L, "quasi"),
        ), (table, join)
        flags.add(got)
    # c2 and c3 each differ from c1 both ways, and from each other
    assert {(False, True, True), (True, True, False), (True, False, True)} <= flags
