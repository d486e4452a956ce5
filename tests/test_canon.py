"""Canonical forms: the early-exit relabeling search against the minimum
over every materialized relabeling, each built by the tests' own nested
`relabeled`, independent of canon's (perm, src) relabelings."""

import itertools
import random

import pytest

from posemi import canonical_le, canonical_ordered, le_structure_id
from posemi.canon import (
    _digest,
    cmp_relabeled,
    le_digest,
    ordered_digest,
    least_relabeling,
    relabel,
    relabelings,
    row_major,
    table_relabeling,
)
from posemi.enumeration import (
    EnumerationConfig,
    _fill,
    _join_distributive,
    all_lattices,
    enumerate_le_semigroups,
    enumerate_ordered_semigroups,
    le_sources,
    ordered_pairs,
)

from conftest import relabeled


def brute_canonical_ordered(table, leq):
    return min(
        (relabeled(table, p), relabeled(leq, p, values=False))
        for p in itertools.permutations(range(len(table)))
    )


def brute_canonical_le(table, join, meet):
    return min(
        tuple(relabeled(mat, p) for mat in (table, join, meet))
        for p in itertools.permutations(range(len(table)))
    )


def _sign(x, y):
    return (x > y) - (x < y)


def _flat(mat):
    return [v for row in mat for v in row]


class TestTableRelabeling:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_row_relabeling_is_relabel(self, n):
        # J0's tables relabeled a row at a time onto every labeled lattice of
        # its class, by every relabeling that takes J0's join there, one
        # table_relabeling per relabeling as the raw le stream uses them
        perms = relabelings(n)
        classes = {}
        pairs = 0
        for _, join, _, _ in all_lattices(n):
            cells = row_major(join)
            (least,), _ = least_relabeling(((cells, True),), perms)
            first, tables = classes.setdefault(tuple(least), (cells, []))
            if first is cells:
                tables.extend(t for t, _ in _fill(n, _join_distributive(join, n)))
            for perm, src in perms:
                if relabel(first, perm, src) == cells:
                    moved = table_relabeling(perm)
                    for table in tables:
                        want = relabel(row_major(table), perm, src)
                        assert moved(table) == tuple(zip(*[iter(want)] * n))
                        pairs += 1
        assert pairs >= len(all_lattices(n))


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
                for perm, src in relabelings(n):
                    built = relabeled(mat, perm)
                    assert relabel(_flat(mat), perm, src) == _flat(built)
                    want = _sign(built, ref)
                    parts = [(_flat(mat), True)]
                    assert cmp_relabeled(parts, perm, src, [_flat(ref)]) == want

    def test_boolean_relations_keep_their_values(self):
        chain = ((True, True, True), (False, True, True), (False, False, True))
        parts = [(_flat(chain), False)]
        for perm, src in relabelings(3):
            built = relabeled(chain, perm, values=False)
            assert relabel(_flat(chain), perm, src, values=False) == _flat(built)
            for ref in (chain, relabeled(chain, (2, 0, 1), values=False)):
                want = _sign(built, ref)
                assert cmp_relabeled(parts, perm, src, [_flat(ref)]) == want

    def test_parts_compare_in_order(self):
        # the first part that differs decides, as for tuples of matrices; the
        # table is fixed by the relabelings that fix 0, so the order decides
        table = ((0, 0, 0), (0, 0, 0), (0, 0, 0))
        chain = ((True, True, True), (False, True, True), (False, False, True))
        parts = [(_flat(table), True), (_flat(chain), False)]
        for perm, src in relabelings(3):
            built = (relabeled(table, perm), relabeled(chain, perm, values=False))
            for p in ((0, 1, 2), (1, 0, 2), (2, 1, 0)):
                ref = (relabeled(table, p), relabeled(chain, p, values=False))
                got = cmp_relabeled(parts, perm, src, [_flat(m) for m in ref])
                assert got == _sign(built, ref)


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
            table = relabeled(s.table, perm)
            leq = relabeled(s.leq, perm, values=False)
            got = canonical_ordered(table, leq)
            assert got == brute_canonical_ordered(table, leq)
            assert got == (s.table, s.leq)  # the iso stream is canonical

    def test_le_random_relabelings_of_order_four(self, le_universe_4):
        rng = random.Random(4)
        for L in (L for L in le_universe_4 if L.n == 4):
            perm = rng.sample(range(4), 4)
            mats = [relabeled(m, perm) for m in (L.table, L.join, L.meet)]
            got = canonical_le(*mats)
            assert got == brute_canonical_le(*mats)
            assert got == (L.table, L.join, L.meet)


class TestLeDigest:
    """An iso campaign takes the bare `le_digest` of each le structure as
    its id: every structure of an iso stream is its own canonical form."""

    def test_is_the_id_on_iso_streams(self, le_universe_4):
        # a prefix of every 97th order-5 structure: the rest of the order-5
        # stream costs seconds, and CI pins the whole order-5 theorem2 stream
        cfg = EnumerationConfig(order=5, dedup="up_to_iso")
        stride = list(itertools.islice(enumerate_le_semigroups(cfg), 0, 97 * 25, 97))
        assert len(le_universe_4) == 530 and len(stride) == 25
        for L in le_universe_4 + stride:
            parts = L.table, L.join, L.meet
            assert le_digest(*parts) == le_structure_id(*parts)

    def test_is_not_the_id_off_canonical_form(self):
        # the raw stream holds non-canonical labelings, whose digest differs
        raw = [
            (L.table, L.join, L.meet)
            for L in enumerate_le_semigroups(EnumerationConfig(order=3))
        ]
        differ = sum(le_digest(*p) != le_structure_id(*p) for p in raw)
        assert 0 < differ < len(raw)


def _ordered_oracle(table, leq):
    return _digest({"kind": "ordered_semigroup", "table": table, "leq": leq})


def _le_oracle(table, join, meet):
    return _digest({"kind": "le_semigroup", "table": table, "join": join, "meet": meet})


class TestDigestsFromCachedText:
    """`ordered_digest` and `le_digest` hash the bytes `_digest` encodes,
    put together from cached text; `_digest` is their oracle."""

    @pytest.mark.parametrize("dedup", ["none", "up_to_iso"])
    def test_ordered_orders_one_to_four(self, dedup):
        pairs = [
            pair
            for n in range(1, 5)
            for pair in ordered_pairs(EnumerationConfig(order=n, dedup=dedup))
        ]
        assert len(pairs) == {"none": 108680, "up_to_iso": 4938}[dedup]
        got = [ordered_digest(*pair) for pair in pairs]
        assert got == [_ordered_oracle(*pair) for pair in pairs]

    @pytest.mark.parametrize("dedup", ["none", "up_to_iso"])
    def test_le_orders_one_to_four(self, dedup):
        parts = [
            structure[:3]
            for n in range(1, 5)
            for structure, _ in le_sources(EnumerationConfig(order=n, dedup=dedup))
        ]
        assert len(parts) == {"none": 11581, "up_to_iso": 530}[dedup]
        got = [le_digest(*p) for p in parts]
        assert got == [_le_oracle(*p) for p in parts]

    def test_ordered_alternating_tables(self):
        # the table text is cached for the last table only: A, B, A must
        # each get their own
        a, b = ((0, 0), (0, 0)), ((0, 1), (1, 0))
        leq = ((True, False), (False, True))
        for table in (a, b, a, b):
            assert ordered_digest(table, leq) == _ordered_oracle(table, leq)
        assert ordered_digest(a, leq) != ordered_digest(b, leq)

    def test_le_alternating_lattices(self):
        # the join and meet text is cached for the last lattice only
        cfg = EnumerationConfig(order=3)
        firsts = {}
        for (table, join, meet, _), _ in le_sources(cfg):
            firsts.setdefault((join, meet), table)
        (ja, a), (jb, b) = list(firsts.items())[:2]
        for table, (join, meet) in ((a, ja), (b, jb), (a, ja), (b, jb)):
            assert le_digest(table, join, meet) == _le_oracle(table, join, meet)
