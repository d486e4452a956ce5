"""The theorem1 campaign path against the per-structure answers.

Campaigns check (table, rel) pairs, rel the order int (bit a*n + b set iff
a <= b), with the per-table kernel `theorem1_flags` and, on iso streams,
take the bare `canon.ordered_digest` of each pair as its id.  The kernel
must give the truth values of `verify_theorem1`, and the digest must equal
`ordered_structure_id`, on the order-<=4 iso universe, the raw order-3
universe and a stride of the order-5 iso stream.  The kernel must also
agree on orders that are not compatible, where the three answers can
differ.  Reversing the multiplication (S^op, same order) swaps left and
right ideals and reverses products, so it leaves c1, c2 and c3 unchanged: a
second check on the kernel that shares no ideal code with it.

`closure_oracle` is the kernel's closure path before orders became ints:
the down-sets from the nested rows, the full closure table from
`_union_tables`, and c2 and c3 over every t in index order, with nothing
kept between calls.  The kernel caches one closure table per order, up to a
bound, answers an order that contains the last all-true order of its table
at once, and tries c2 and c3 first on the element where c1 fails: its
answers must equal the oracle's whether its caches are cold or warm and
whatever order a table's orders come in, and the cache must never outgrow
its bound.
"""

import itertools
import random

import pytest

from posemi import OrderedSemigroup, ordered, ordered_structure_id, verify_theorem1
from posemi.canon import ordered_digest
from posemi.enumeration import (
    EnumerationConfig,
    _posets,
    all_posets,
    associative_tables,
    ordered_pairs,
)
from posemi.ordered import (
    _union_tables,
    order_int,
    order_rows,
    row_masks,
    subset_indices,
    theorem1_flags,
)

from conftest import truths
from second_methods import kernel

# every ORDER5_STRIDE-th structure of the order-5 iso stream: 2,050 of
# 198,838; walking the stream is most of the test's time
ORDER5_STRIDE = 97


def _pairs(max_order, dedup="up_to_iso"):
    return [
        pair
        for n in range(1, max_order + 1)
        for pair in ordered_pairs(EnumerationConfig(order=n, dedup=dedup))
    ]


@pytest.fixture(scope="module")
def iso4():
    return _pairs(4)


@pytest.fixture(scope="module")
def iso5_stride():
    """Every ORDER5_STRIDE-th pair of the order-5 iso stream."""
    cfg = EnumerationConfig(order=5, dedup="up_to_iso")
    return list(itertools.islice(ordered_pairs(cfg), 0, None, ORDER5_STRIDE))


def closure_oracle(table, leq):
    """(c1, c2, c3) of (table, leq), leq nested rows, from the closure
    table of the down-sets row_masks(zip(*leq)) and products read off the
    table cell by cell."""
    n = len(table)
    full = (1 << n) - 1
    down = _union_tables(row_masks(zip(*leq)))

    def product(a, b):
        out = 0
        for i in subset_indices(a):
            for j in subset_indices(b):
                out |= 1 << table[i][j]
        return out

    def holds(mid):
        return all(
            down[product(product(left(t), mid(t)), right(t))] >> t & 1
            for t in range(n)
        )

    def right(t):
        return down[1 << t | product(1 << t, full)]

    def left(t):
        return down[1 << t | product(full, 1 << t)]

    def bi(t):
        return down[1 << t | product(product(1 << t, full), 1 << t)]

    def quasi(t):
        ts, st = product(1 << t, full), product(full, 1 << t)
        return down[1 << t | (down[ts] & down[st])]

    c1 = all(
        down[product(product(full, 1 << table[a][a]), full)] >> a & 1 for a in range(n)
    )
    return c1, holds(bi), holds(quasi)


def clear_kernel_caches():
    ordered._table_products.cache_clear()
    ordered._order_closures.clear()


def assert_kernel_agrees(pairs):
    got = [theorem1_flags(table, rel) for table, rel in pairs]
    structures = [OrderedSemigroup(t, order_rows(rel, len(t))) for t, rel in pairs]
    assert got == [truths(verify_theorem1(s)) for s in structures]
    # both answers occur, for each condition
    assert all(0 < sum(flags) < len(got) for flags in zip(*got))


def test_kernel_iso_order_4(iso4):
    assert len(iso4) == 4938
    assert_kernel_agrees(iso4)


def test_kernel_raw_order_3():
    assert_kernel_agrees(_pairs(3, dedup="none"))


def test_kernel_iso_order_5_stride():
    # a pass over every pair in stream order, as a campaign makes it
    kernel(5, 1, ORDER5_STRIDE)


def _outside_cases():
    """Every labeled order-3 (table, order) case, compatible or not, and
    every 97th order-4 case, each order as its nested rows."""
    return [
        *itertools.product(associative_tables(3), all_posets(3)),
        *itertools.islice(
            itertools.product(associative_tables(4), all_posets(4)), 0, None, 97
        ),
    ]


def test_kernel_on_orders_outside_the_theorem():
    # On a compatible order c2 and c3 always equal c1, and so would any
    # M(t) between (t] and (t u tS u St]: every such triple product puts
    # t^2 in each product.  With every order of a table, compatible or
    # not, the three answers differ, so these cases check how the kernel
    # builds R(t), M(t) and L(t).
    cases = [(table, order_int(leq)) for table, leq in _outside_cases()]
    assert len(cases) == 113 * 19 + 7884
    assert_kernel_agrees(cases)
    flags = {theorem1_flags(table, rel) for table, rel in cases}
    assert {(False, True, True), (False, False, True)} <= flags


@pytest.fixture(scope="module")
def cold_cases():
    """The outside-the-theorem cases and every labeled poset on each iso
    order-4 table, as (table, leq, rel), with the closure oracle's answer
    to each, which the kernel must give from nothing cached: no closure
    table, no table products and so no all-true order."""
    iso4 = EnumerationConfig(4, "up_to_iso")
    iso_tables = sorted({t for t, _ in ordered_pairs(iso4)})
    cases = _outside_cases() + list(itertools.product(iso_tables, all_posets(4)))
    assert len(cases) == 113 * 19 + 7884 + 188 * 219
    cases = [(table, leq, order_int(leq)) for table, leq in cases]
    want = [closure_oracle(table, leq) for table, leq, _ in cases]
    cold = []
    for table, _, rel in cases:
        clear_kernel_caches()
        cold.append(theorem1_flags(table, rel))
    assert cold == want
    # both answers occur, for each condition, and c1 differs from c2 or c3
    assert all(0 < sum(flags) < len(want) for flags in zip(*want))
    assert any(len(set(flags)) > 1 for flags in want)
    return cases, want


def test_closure_cache_cold_and_warm(cold_cases):
    # answers read from the cache of closure tables must equal the
    # oracle's, and each cached table the oracle's closure table
    cases, want = cold_cases
    clear_kernel_caches()
    for table, _, rel in cases:  # warm the cache with every order
        theorem1_flags(table, rel)
    assert [theorem1_flags(table, rel) for table, _, rel in cases] == want
    cached = ordered._order_closures
    assert 0 < len(cached) <= 19 + 219  # the posets of orders 3 and 4
    for rel, down in cached.items():
        n = 3 if rel.bit_length() == 9 else 4
        assert down == _union_tables(row_masks(zip(*order_rows(rel, n))))


def test_all_true_order_cold_and_warm(cold_cases):
    # each table's orders, compatible or not, in reverse and in a seeded
    # shuffle: the answers with the table's last all-true order kept must
    # equal the oracle's, whichever orders came before
    cases, want = cold_cases
    rng = random.Random(21)
    by_table = itertools.groupby(zip(cases, want), key=lambda case: case[0][0])
    held = 0
    for table, group in by_table:
        group = list(group)
        for feed in (group[::-1], rng.sample(group, len(group))):
            ordered._table_products.cache_clear()
            got = [theorem1_flags(t, rel) for (t, _, rel), _ in feed]
            assert got == [flags for _, flags in feed], table
            held += ordered._table_products(table)[-1][0] != -1
    assert held > 0


def test_closure_cache_is_bounded(monkeypatch):
    # with the bound lowered below the 4,473 posets of orders 1 to 5, the
    # cache empties itself when full and serves the oracle's tables
    bound = 4096
    monkeypatch.setattr(ordered, "_CLOSURE_CAP", bound)
    ordered._order_closures.clear()
    rels = [(rel, n) for n in range(1, 6) for rel in _posets(n)]
    assert len(rels) == 1 + 3 + 19 + 219 + 4231 > bound
    for rel, n in rels:
        down = ordered._closure_table(rel, n)
        assert len(ordered._order_closures) <= bound
        assert down == _union_tables(row_masks(zip(*order_rows(rel, n))))
    assert len(ordered._order_closures) == len(rels) - bound
    ordered._order_closures.clear()


def test_kernel_reversal_symmetry(iso4):
    for table, rel in iso4:
        reversed_table = tuple(zip(*table))
        assert theorem1_flags(reversed_table, rel) == theorem1_flags(table, rel), (
            table,
            rel,
        )


def test_digest_is_the_id_on_iso_streams(iso4, iso5_stride):
    for table, rel in iso4 + iso5_stride:
        assert ordered_digest(table, rel) == ordered_structure_id(table, rel)


def test_digest_is_not_the_id_off_canonical_form():
    # the raw stream holds non-canonical labelings, whose digest differs
    raw = _pairs(3, dedup="none")
    differ = sum(ordered_digest(t, o) != ordered_structure_id(t, o) for t, o in raw)
    assert 0 < differ < len(raw)
