"""The theorem1 campaign path against the per-structure answers.

Campaigns check (table, order) pairs with the per-table kernel
`theorem1_flags` and, on iso streams, take the bare `canon.ordered_digest`
of each pair as its id.  The kernel must give the truth values of
`verify_theorem1`, and the digest must equal `ordered_structure_id`,
on the order-<=4 iso universe, the raw order-3 universe and a stride of the
order-5 iso stream.  The kernel must also agree on orders that are not
compatible, where the three answers can differ.  Reversing the multiplication (S^op, same order) swaps
left and right ideals and reverses products, so it leaves c1, c2 and c3
unchanged: a second check on the kernel that shares no ideal code with it.
The kernel caches one closure table per order, up to a bound, and answers
an order that contains the last all-true order of its table at once: its
answers must not depend on whether either is cold or warm, nor on the order
in which a table's orders come, and the cache must never outgrow its bound.
"""

import itertools
import random

import pytest

from posemi import OrderedSemigroup, ordered, ordered_structure_id, verify_theorem1
from posemi.canon import ordered_digest
from posemi.enumeration import (
    EnumerationConfig,
    all_posets,
    associative_tables,
    ordered_pairs,
)
from posemi.ordered import theorem1_flags

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


def assert_kernel_agrees(pairs):
    got = [theorem1_flags(table, leq) for table, leq in pairs]
    assert got == [truths(verify_theorem1(OrderedSemigroup(*pair))) for pair in pairs]
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
    every 97th order-4 case."""
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
    cases = _outside_cases()
    assert len(cases) == 113 * 19 + 7884
    assert_kernel_agrees(cases)
    flags = {theorem1_flags(table, leq) for table, leq in cases}
    assert {(False, True, True), (False, False, True)} <= flags


@pytest.fixture(scope="module")
def cold_cases():
    """The outside-the-theorem cases and every order of each iso order-4
    table, with the kernel's answer to each from nothing cached: no closure
    table, no table products and so no all-true order."""
    iso_tables = {t for t, _ in ordered_pairs(EnumerationConfig(4, "up_to_iso"))}
    cases = _outside_cases() + list(itertools.product(iso_tables, all_posets(4)))
    cold = []
    for table, leq in cases:
        ordered._down_table.cache_clear()
        ordered._table_products.cache_clear()
        cold.append(theorem1_flags(table, leq))
    return cases, cold


def test_closure_cache_cold_and_warm(cold_cases):
    # answers read from the cache must equal those with each closure table
    # built afresh
    cases, cold = cold_cases
    for table, leq in cases:  # warm the cache with every order
        theorem1_flags(table, leq)
    assert [theorem1_flags(table, leq) for table, leq in cases] == cold
    assert ordered._down_table.cache_info().currsize == 19 + 219


def test_all_true_order_cold_and_warm(cold_cases):
    # each table's orders, compatible or not, in reverse and in a seeded
    # shuffle: the answers with the table's last all-true order kept must
    # equal the cold ones, whichever orders came before
    cases, cold = cold_cases
    rng = random.Random(21)
    by_table = itertools.groupby(zip(cases, cold), key=lambda case: case[0][0])
    held = 0
    for table, group in by_table:
        group = list(group)
        for feed in (group[::-1], rng.sample(group, len(group))):
            ordered._table_products.cache_clear()
            got = [theorem1_flags(*case) for case, _ in feed]
            assert got == [flags for _, flags in feed], table
            held += ordered._table_products(table)[-1][0] is not None
    assert held > 0


def test_closure_cache_is_bounded():
    cache = ordered._down_table
    bound = cache.cache_info().maxsize
    assert bound == ordered._DOWN_TABLES
    posets = [leq for n in range(1, 6) for leq in all_posets(n)]
    assert len(posets) == 1 + 3 + 19 + 219 + 4231 > bound
    cache.cache_clear()
    for leq in posets:
        cache(leq)
        assert cache.cache_info().currsize <= bound
    assert cache.cache_info().currsize == bound


def test_kernel_reversal_symmetry(iso4):
    for table, leq in iso4:
        reversed_table = tuple(zip(*table))
        assert theorem1_flags(reversed_table, leq) == theorem1_flags(table, leq), (
            table,
            leq,
        )


def test_digest_is_the_id_on_iso_streams(iso4, iso5_stride):
    for table, leq in iso4 + iso5_stride:
        assert ordered_digest(table, leq) == ordered_structure_id(table, leq)


def test_digest_is_not_the_id_off_canonical_form():
    # the raw stream holds non-canonical labelings, whose digest differs
    raw = _pairs(3, dedup="none")
    differ = sum(ordered_digest(t, o) != ordered_structure_id(t, o) for t, o in raw)
    assert 0 < differ < len(raw)
