"""Canonical forms: the early-exit relabeling search against the minimum
over every materialized relabeling."""

import itertools
import random

import pytest

from posemi import canonical_le, canonical_ordered
from posemi.canon import cmp_relabeled, perms_with_inverse, relabel_relation, relabel_table
from posemi.enumeration import (
    EnumerationConfig,
    enumerate_le_semigroups,
    enumerate_ordered_semigroups,
)


def brute_canonical_ordered(table, leq):
    return min(
        (relabel_table(table, p), relabel_relation(leq, p))
        for p in itertools.permutations(range(len(table)))
    )


def brute_canonical_le(table, join, meet):
    return min(
        tuple(relabel_table(mat, p) for mat in (table, join, meet))
        for p in itertools.permutations(range(len(table)))
    )


def _sign(x, y):
    return (x > y) - (x < y)


class TestCmpRelabeled:
    def test_matches_materialized_comparison(self):
        rng = random.Random(3)
        n = 3
        mats = [
            tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(n))
            for _ in range(30)
        ]
        mats.append(((0, 0, 0),) * 3)
        for mat in mats:
            for ref in (mat, mats[0], rng.choice(mats)):
                for perm, pinv in perms_with_inverse(n):
                    want = _sign(relabel_table(mat, perm), ref)
                    assert cmp_relabeled(mat, perm, pinv, ref) == want

    def test_boolean_relations_keep_their_values(self):
        chain = ((True, True, True), (False, True, True), (False, False, True))
        for perm, pinv in perms_with_inverse(3):
            for ref in (chain, relabel_relation(chain, (2, 0, 1))):
                want = _sign(relabel_relation(chain, perm), ref)
                assert cmp_relabeled(chain, perm, pinv, ref, values=False) == want


class TestCanonicalFormsMatchBruteForce:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_ordered_raw(self, n):
        for s in enumerate_ordered_semigroups(EnumerationConfig(order=n)):
            assert canonical_ordered(s.table, s.leq) == brute_canonical_ordered(
                s.table, s.leq
            )

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_le_raw(self, n):
        for L in enumerate_le_semigroups(EnumerationConfig(order=n)):
            assert canonical_le(L.table, L.join, L.meet) == brute_canonical_le(
                L.table, L.join, L.meet
            )

    def test_ordered_random_relabelings_of_order_four(self, ordered_universe_4):
        rng = random.Random(4)
        order4 = [s for s in ordered_universe_4 if s.n == 4]
        for s in rng.sample(order4, 600):
            perm = rng.sample(range(4), 4)
            table = relabel_table(s.table, perm)
            leq = relabel_relation(s.leq, perm)
            got = canonical_ordered(table, leq)
            assert got == brute_canonical_ordered(table, leq)
            assert got == (s.table, s.leq)  # the iso stream is canonical

    def test_le_random_relabelings_of_order_four(self, le_universe_4):
        rng = random.Random(4)
        for L in (L for L in le_universe_4 if L.n == 4):
            perm = rng.sample(range(4), 4)
            mats = [relabel_table(m, perm) for m in (L.table, L.join, L.meet)]
            got = canonical_le(*mats)
            assert got == brute_canonical_le(*mats)
            assert got == (L.table, L.join, L.meet)
