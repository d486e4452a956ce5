"""Enumeration: backtracking generators against generate-then-filter brute
force, the table backtracker against a reference that scans every triple
after every cell, compatible orders against the two-sided compatibility
filter, canonical-form deduplication, determinism, and the pinned golden
counts.  Sharding and limits are the command line's; tests/test_cli.py
covers them."""

import functools
import hashlib
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from posemi import (
    LeSemigroup,
    OrderedSemigroup,
    all_lattices,
    all_posets,
    associative_tables,
    canonical_le,
    canonical_ordered,
    validate,
    validate_le,
)
from posemi.canon import is_least, relabelings
from posemi.enumeration import (
    EnumerationConfig,
    _compatible_orders,
    _fill,
    _include,
    _join_distributive,
    _posets,
    _walk_lookups,
    enumerate_compatible_orders,
    enumerate_le_semigroups,
    enumerate_ordered_semigroups,
    enumerate_semigroups,
    ordered_pairs,
)
from posemi.ordered import order_int, order_rows

from conftest import relabeled
from second_methods import (
    anti_isomorphism,
    burnside,
    lattice_classes,
    le_classes,
    le_count,
    pins,
    semigroup_classes,
)


def brute_force_semigroup_tables(n):
    """Generate all n^(n*n) tables and keep the associative ones."""
    out = []
    for values in itertools.product(range(n), repeat=n * n):
        t = tuple(values[i * n : (i + 1) * n] for i in range(n))
        if is_associative(t, n):
            out.append(t)
    return out


def reference_fill(n, hook=None):
    """The backtracker's reference: the cells filled in row-major order,
    every value tried, and after each cell every associativity triple whose
    cells are all set scanned before hook(table, i, j) is called; no forced
    cells and no lex-leader pruning.  Yields the tables."""
    rng = range(n)
    table = [[-1] * n for _ in rng]

    def associative_so_far():
        return all(
            table[ab][c] == table[a][bc]
            for a in rng
            for b in rng
            if (ab := table[a][b]) >= 0
            for c in rng
            if (bc := table[b][c]) >= 0 and table[ab][c] >= 0 and table[a][bc] >= 0
        )

    def fill(k):
        if k == n * n:
            yield tuple(map(tuple, table))
            return
        i, j = divmod(k, n)
        for v in rng:
            table[i][j] = v
            if associative_so_far() and (hook is None or hook(table, i, j)):
                yield from fill(k + 1)
        table[i][j] = -1

    return fill(0)


def join_distributive(t, join, n):
    """Multiplication distributes over join on both sides."""
    return all(
        t[a][join[b][c]] == join[t[a][b]][t[a][c]]
        and t[join[b][c]][a] == join[t[b][a]][t[c][a]]
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )


def is_associative(t, n):
    return all(
        t[t[a][b]][c] == t[a][t[b][c]]
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )


def is_partial_order(m, n):
    rng = range(n)
    return (
        all(m[i][i] for i in rng)
        and not any(m[i][j] and m[j][i] for i in rng for j in rng if i != j)
        and not any(
            m[i][j] and m[j][k] and not m[i][k] for i in rng for j in rng for k in rng
        )
    )


@functools.lru_cache(maxsize=None)
def brute_force_posets(n):
    """Generate all boolean matrices and keep the partial orders."""
    out = []
    for values in itertools.product((False, True), repeat=n * n):
        m = tuple(values[i * n : (i + 1) * n] for i in range(n))
        if is_partial_order(m, n):
            out.append(m)
    return tuple(out)


def compatible(table, leq, n):
    """leq is compatible with the table on both sides."""
    return all(
        leq[table[k][i]][table[k][j]] and leq[table[i][k]][table[j][k]]
        for i in range(n)
        for j in range(n)
        if leq[i][j]
        for k in range(n)
    )


def filtered_orders(table):
    """The compatible orders by filtering every partial order: brute force
    up to order 4, all_posets(5) at order 5 (pinned by count, and each
    element checked to be a partial order, in TestPosets)."""
    n = len(table)
    posets = sorted(brute_force_posets(n)) if n <= 4 else all_posets(n)
    return [leq for leq in posets if compatible(table, leq, n)]


class TestSemigroupEnumeration:
    def test_order_one(self):
        assert list(enumerate_semigroups(EnumerationConfig(order=1))) == [((0,),)]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_brute_force(self, n):
        expected = brute_force_semigroup_tables(n)
        got = list(enumerate_semigroups(EnumerationConfig(order=n)))
        assert got == sorted(expected)

    def test_order_two_has_eight_tables(self):
        assert len(brute_force_semigroup_tables(2)) == 8
        assert sum(1 for _ in enumerate_semigroups(EnumerationConfig(order=2))) == 8

    def test_golden_counts(self):
        # the iso counts in TestSymmetryBreaking: orders 1-4 by Burnside,
        # order 5 by orbit-stabilizer, as is the raw order 5
        for n, expected in pins("counts")["semigroups"]["raw"].items():
            if int(n) > 4:
                continue
            got = sum(1 for _ in enumerate_semigroups(EnumerationConfig(order=int(n))))
            assert got == expected

    def test_anti_isomorphism_counts(self):
        # OEIS A001423; CI checks order 6 (15,973)
        for n in range(1, 6):
            anti_isomorphism(n)

    @pytest.mark.parametrize("n", [2, 3])
    def test_iso_stream_is_canonical_forms_of_raw(self, n):
        discrete = [[i == j for j in range(n)] for i in range(n)]
        raw = list(enumerate_semigroups(EnumerationConfig(order=n)))
        canonical = {canonical_ordered(t, discrete)[0] for t in raw}
        iso = list(enumerate_semigroups(EnumerationConfig(order=n, dedup="up_to_iso")))
        assert set(iso) == canonical
        assert len(iso) == len(canonical)

    def test_order_cap(self):
        # the library takes any order; the command line caps each use
        cfg = EnumerationConfig(order=7, dedup="up_to_iso")
        head = list(itertools.islice(enumerate_semigroups(cfg), 50))
        assert head[0] == ((0,) * 7,) * 7  # the zero semigroup
        assert head == sorted(set(head))
        perms = relabelings(7)
        for t in head:
            assert is_associative(t, 7)
            assert is_least(((t, True),), perms)


class TestFillAgainstReference:
    """_fill, which reads forced cells and checks the rest per value, against
    reference_fill, which scans every triple after every cell."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_raw(self, n):
        assert [t for t, _ in _fill(n)] == list(reference_fill(n))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_join_distributive_on_every_labeled_lattice(self, n):
        for _, join, _, _ in all_lattices(n):
            hook = _join_distributive(join, n)
            assert [t for t, _ in _fill(n, hook)] == list(reference_fill(n, hook))

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_hook_refusing_random_cell_values(self, data):
        # a forced value the hook refuses must kill the node, and a refused
        # value must not stop the search trying the others
        n = data.draw(st.integers(1, 4))
        pair = st.tuples(st.integers(0, n * n - 1), st.integers(0, n - 1))
        refused = frozenset(data.draw(st.lists(pair, max_size=3 * n)))

        def hook(table, i, j):
            return (i * n + j, table[i][j]) not in refused

        assert [t for t, _ in _fill(n, hook)] == list(reference_fill(n, hook))


class TestPosets:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_brute_force(self, n):
        assert list(all_posets(n)) == sorted(brute_force_posets(n))

    def test_golden_counts(self):
        for n, expected in pins("counts")["posets"].items():
            assert len(all_posets(int(n))) == expected

    def test_order_five_are_distinct_partial_orders(self):
        posets = all_posets(5)
        assert len(set(posets)) == len(posets)
        assert all(is_partial_order(m, 5) for m in posets)

    def test_lattices_keep_no_posets(self):
        # all_lattices filters the poset walk as it streams past: order 6
        # would otherwise keep all 130,023 posets for the whole process
        before = all_lattices(4)
        all_posets.cache_clear()
        all_lattices.cache_clear()
        assert all_lattices(4) == before
        assert all_posets.cache_info().currsize == 0

    def test_sorted_and_discrete_first(self):
        for n in (2, 3):
            posets = all_posets(n)
            assert list(posets) == sorted(posets)
            discrete = tuple(tuple(i == j for j in range(n)) for i in range(n))
            assert posets[0] == discrete


def _sha256_of_repr(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


class TestOrderInts:
    """The walk yields each order as one int, bit a*n + b set iff a <= b;
    the library's streams turn it into the nested tuples of booleans they
    gave before (`order_rows`), pinned here by the SHA-256 of their repr,
    which tells True from 1."""

    def test_round_trip_on_every_labeled_poset(self):
        counts = []
        for n in range(1, 6):
            rels = list(_posets(n))
            assert [order_int(order_rows(rel, n)) for rel in rels] == rels
            assert [order_int(leq) for leq in all_posets(n)] == rels
            assert all(rel.bit_length() == n * n for rel in rels)
            counts.append(len(rels))
        assert counts == [1, 3, 19, 219, 4231]

    def test_all_posets_as_nested_booleans(self):
        posets = [all_posets(n) for n in range(1, 6)]
        assert _sha256_of_repr(posets) == (
            "e913fe7b19641698bfde01da41b754140f883b81e09a0bced9a0124a5fbdda03"
        )

    def test_compatible_orders_as_nested_booleans(self):
        iso4 = enumerate_semigroups(EnumerationConfig(4, "up_to_iso"))
        orders = [list(enumerate_compatible_orders(t)) for t in iso4]
        assert _sha256_of_repr(orders) == (
            "e03f053df3f64da4e057644ba3faf6d54c193809b319e1048519ffce5071df6a"
        )

    @pytest.mark.parametrize(
        "cfg,sha256",
        [
            (
                EnumerationConfig(3),
                "f7b35833dca96f59b8acdf7f58cdf6d6f68c8e17d5da4072f245b2c4cbfdfd98",
            ),
            (
                EnumerationConfig(4, "up_to_iso"),
                "9baf8bbdd4749527aa05fe7b4c9268799aad215ed6c5acc7ae306ebc610ac5c9",
            ),
        ],
        ids=["raw3", "iso4"],
    )
    def test_ordered_semigroups_as_nested_booleans(self, cfg, sha256):
        structures = list(enumerate_ordered_semigroups(cfg))
        assert _sha256_of_repr([(s.table, s.leq) for s in structures]) == sha256
        pairs = ordered_pairs(cfg)
        assert [(s.table, order_int(s.leq)) for s in structures] == list(pairs)


class TestCompatibleOrders:
    def test_null_and_left_zero_tables(self):
        assert sum(1 for _ in enumerate_compatible_orders(((0, 0), (0, 0)))) == 3
        assert sum(1 for _ in enumerate_compatible_orders(((0, 0), (1, 1)))) == 3

    def test_group_table_admits_only_discrete(self):
        orders = list(enumerate_compatible_orders(((0, 1), (1, 0))))
        assert orders == [((True, False), (False, True))]

    def test_discrete_always_included(self):
        for n in (2, 3):
            discrete = tuple(tuple(i == j for j in range(n)) for i in range(n))
            for table in enumerate_semigroups(EnumerationConfig(order=n)):
                assert discrete in set(enumerate_compatible_orders(table))

    @pytest.mark.parametrize(
        "cfg,step",
        [
            (EnumerationConfig(order=1), 1),
            (EnumerationConfig(order=2), 1),
            (EnumerationConfig(order=3), 1),
            (EnumerationConfig(order=4, dedup="up_to_iso"), 1),
            # every 50th of the 1,915 iso tables
            (EnumerationConfig(order=5, dedup="up_to_iso"), 50),
        ],
        ids=["raw1", "raw2", "raw3", "iso4", "iso5-every-50th"],
    )
    def test_matches_filter(self, cfg, step):
        for table in itertools.islice(enumerate_semigroups(cfg), 0, None, step):
            assert list(enumerate_compatible_orders(table)) == filtered_orders(table)


def include_rows(rows, pairs, a, b):
    """The walk's include on row bitmasks, the reference for _include: each
    (x, y) ors row y into every row holding x; 0 on a 2-cycle or once a
    pair before (a, b) changes."""
    closed = list(rows)
    for x, y in pairs:
        if closed[y] >> x & 1:
            return 0
        closed = [r | closed[y] if r >> x & 1 else r for r in closed]
        if closed[:a] != rows[:a] or (closed[a] ^ rows[a]) & ((1 << b) - 1):
            return 0
    return closed


def transitive_closure(rows):
    for k in range(len(rows)):
        rows = [r | rows[k] if r >> k & 1 else r for r in rows]
    return rows


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_packed_include_matches_rows(n, data):
    # a random partial order as rows and as one int with bit a*n + b for
    # a <= b, a few generators (x, y), and a cell (a, b): at n = 6 the int
    # has 36 bits, past CPython's 30-bit digit
    point = st.integers(0, n - 1)
    line = data.draw(st.permutations(range(n)))  # a linear extension
    rows = [1 << a for a in range(n)]
    for i, j in data.draw(st.lists(st.tuples(point, point), max_size=3 * n)):
        if i < j:
            rows[line[i]] |= 1 << line[j]
    rows = transitive_closure(rows)
    pair = st.tuples(point, point).filter(lambda p: p[0] != p[1])
    pairs = data.draw(st.lists(pair, min_size=1, max_size=4))
    cell = data.draw(st.integers(0, n * n - 1))
    pack = lambda rows: sum(r << a * n for a, r in enumerate(rows))
    col = _walk_lookups(n)[1]
    gens = [(col[x], x, y * n, y * n + x) for x, y in pairs]
    rel, below, row = pack(rows), (1 << cell) - 1, (1 << n) - 1
    got = _include(rel, gens, below, row)
    want = include_rows(rows, pairs, *divmod(cell, n))
    assert got == (want and pack(want))
    if got > 0:  # the closure of the order and the pairs
        closure = list(rows)
        for x, y in pairs:
            closure[x] |= 1 << y
        assert got == pack(transitive_closure(closure))
    # the walk's shortcut: a generator in a cell before (a, b) kills the
    # include unless the order holds it, and then changes nothing
    if any(x * n + y < cell and not rows[x] >> y & 1 for x, y in pairs):
        assert got == 0
    else:
        later = [g for (x, y), g in zip(pairs, gens) if x * n + y >= cell]
        assert _include(rel, later, below, row) == got


class TestOrderedEnumeration:
    def test_golden_counts(self):
        # order 4 in test_raw_counts_from_order_counts; the iso counts by
        # Burnside in TestSymmetryBreaking
        for n, expected in pins("counts")["ordered_semigroups"]["raw"].items():
            if int(n) > 3:
                continue
            got = sum(
                1 for _ in enumerate_ordered_semigroups(EnumerationConfig(order=int(n)))
            )
            assert got == expected

    def test_raw_counts_from_order_counts(self):
        # the raw stream pairs every table with every compatible order, so
        # its length is the sum of the order counts (no structure is built)
        for n, expected in pins("counts")["ordered_semigroups"]["raw"].items():
            got = sum(
                sum(1 for _ in enumerate_compatible_orders(t))
                for t in associative_tables(int(n))
            )
            assert got == expected

    def test_yields_are_valid(self):
        for s in enumerate_ordered_semigroups(EnumerationConfig(order=3)):
            assert validate(s) == []
            break  # spot check the first; the full check runs at order 2
        for s in enumerate_ordered_semigroups(EnumerationConfig(order=2)):
            assert validate(s) == []

    def test_iso_stream_matches_plain_canonicalization(self):
        # the automorphism-based dedup must agree with filtering raw pairs
        # by "equals its own canonical form"
        for n in (2, 3):
            raw = list(enumerate_ordered_semigroups(EnumerationConfig(order=n)))
            expected = [
                s for s in raw if canonical_ordered(s.table, s.leq) == (s.table, s.leq)
            ]
            got = list(
                enumerate_ordered_semigroups(
                    EnumerationConfig(order=n, dedup="up_to_iso")
                )
            )
            assert got == expected


class TestLeEnumeration:
    def test_golden_counts(self):
        # CI counts the order-6 iso stream (117,028)
        for n in range(1, 5):
            for dedup in ("none", "up_to_iso"):
                le_count(n, dedup)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_classes_by_orbit_stabilizer(self, n):
        # CI runs order 5 (6,738 classes, 787,560 labeled structures)
        le_classes(n)

    def test_order_two_brute_force(self):
        # both labeled 2-chains, all 16 tables, filtered by the axioms
        expected = 0
        for leq, join, meet, top in all_lattices(2):
            for values in itertools.product(range(2), repeat=4):
                table = (values[0:2], values[2:4])
                L = LeSemigroup(table, join, meet, top=top)
                if validate_le(L) == []:
                    expected += 1
        got = sum(1 for _ in enumerate_le_semigroups(EnumerationConfig(order=2)))
        assert got == expected == 12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_brute_force_per_lattice(self, n):
        # the shared backtracker with its distributivity hook against
        # generate-and-filter over all n^(n*n) tables, lattice by lattice
        semigroups = sorted(brute_force_semigroup_tables(n))
        expected = [
            (join, t)
            for _, join, _, _ in all_lattices(n)
            for t in semigroups
            if join_distributive(t, join, n)
        ]
        got = [
            (L.join, L.table)
            for L in enumerate_le_semigroups(EnumerationConfig(order=n))
        ]
        assert got == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_lattice_classes_by_canonical_join(self, n):
        # CI runs order 6
        lattice_classes(n)

    def test_includes_null_and_meet_chains(self, l3null, l3meet):
        members = list(enumerate_le_semigroups(EnumerationConfig(order=3)))
        assert l3null in members
        assert l3meet in members

    def test_yields_are_valid(self):
        for L in enumerate_le_semigroups(EnumerationConfig(order=3)):
            assert validate_le(L) == []

    def test_iso_is_canonical_subset(self):
        raw = list(enumerate_le_semigroups(EnumerationConfig(order=3)))
        iso = list(
            enumerate_le_semigroups(EnumerationConfig(order=3, dedup="up_to_iso"))
        )
        expected = {canonical_le(L.table, L.join, L.meet) for L in raw}
        assert {(L.table, L.join, L.meet) for L in iso} == expected


class TestSymmetryBreaking:
    """Lex-leader pruning in the search against filtering the raw stream
    with canon.is_least over every relabeling."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_semigroups_match_filtered_raw(self, n):
        perms = relabelings(n)[1:]
        expected = [
            t
            for t in enumerate_semigroups(EnumerationConfig(order=n))
            if is_least(((t, True),), perms)
        ]
        got = enumerate_semigroups(EnumerationConfig(order=n, dedup="up_to_iso"))
        assert list(got) == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_ordered_match_filtered_raw(self, n):
        perms = relabelings(n)[1:]
        expected = [
            (s.table, s.leq)
            for s in enumerate_ordered_semigroups(EnumerationConfig(order=n))
            if is_least(((s.table, True), (s.leq, False)), perms)
        ]
        cfg = EnumerationConfig(order=n, dedup="up_to_iso")
        got = enumerate_ordered_semigroups(cfg)
        assert [(s.table, s.leq) for s in got] == expected

    @staticmethod
    def filtered_walk(table, auts):
        return [
            leq
            for leq in enumerate_compatible_orders(table)
            if is_least(((leq, False),), auts)
        ]

    def test_pruned_walk_matches_filtered_walk(self):
        # the walk pruned by the table's automorphisms keeps exactly the
        # orders of the plain walk that no automorphism makes smaller, in
        # the same order: every 25th order-5 iso table
        tables = _fill(5, perms=relabelings(5)[1:])
        for t, auts in itertools.islice(tables, 0, None, 25):
            got = [order_rows(rel, 5) for rel in _compatible_orders(t, auts)]
            assert got == self.filtered_walk(t, auts)

    def test_pruned_walk_on_the_order_six_constant_table(self):
        # order-6 table 0, xy = 0, has 119 automorphisms and all 130,023
        # posets as compatible orders, of which 1,533 are kept
        t, auts = next(_fill(6, perms=relabelings(6)[1:]))
        assert t == ((0,) * 6,) * 6 and len(auts) == 119
        got = [order_rows(rel, 6) for rel in _compatible_orders(t, auts)]
        assert len(got) == 1533
        assert got == self.filtered_walk(t, auts)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_le_match_filtered_raw(self, n):
        perms = relabelings(n)[1:]
        expected = [
            (L.table, L.join, L.meet)
            for L in enumerate_le_semigroups(EnumerationConfig(order=n))
            if is_least(((L.table, True), (L.join, True), (L.meet, True)), perms)
        ]
        got = enumerate_le_semigroups(EnumerationConfig(order=n, dedup="up_to_iso"))
        assert [(L.table, L.join, L.meet) for L in got] == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_automorphisms_are_the_stabilizer(self, n):
        perms = relabelings(n)[1:]
        for t, auts in _fill(n, perms=perms):
            stabilizer = [(p, src) for p, src in perms if relabeled(t, p) == t]
            assert auts == stabilizer

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_order_classes_by_burnside(self, n):
        # CI runs order 5 and every 97th order-6 table
        burnside(n)

    def test_order_five_counts_by_orbit_stabilizer(self):
        # the raw count without walking the 183,732 labeled tables; CI runs
        # order 6
        semigroup_classes(5)


class TestCanonicalize:
    def test_idempotent(self):
        stream = enumerate_ordered_semigroups(EnumerationConfig(order=3))
        for s in itertools.islice(stream, 50):
            c = canonical_ordered(s.table, s.leq)
            assert canonical_ordered(*c) == c

    def test_left_zero_and_right_zero_differ(self):
        discrete = ((True, False), (False, True))
        lz = canonical_ordered(((0, 0), (1, 1)), discrete)
        rz = canonical_ordered(((0, 1), (0, 1)), discrete)
        assert lz != rz

    def test_relabeling_invariance(self, n2):
        relabeled_table = relabeled(n2.table, (1, 0))
        relabeled_leq = relabeled(n2.leq, (1, 0), values=False)
        assert canonical_ordered(relabeled_table, relabeled_leq) == (
            canonical_ordered(n2.table, n2.leq)
        )

    def test_cap(self):
        n = 7
        table = [[0] * n for _ in range(n)]
        discrete = [[i == j for j in range(n)] for i in range(n)]
        with pytest.raises(ValueError):
            canonical_ordered(table, discrete)


class TestShardingAndLimit:
    """The command line shards and limits a stream by position, so a stream
    must repeat exactly."""

    def test_limit_truncates(self):
        cfg = EnumerationConfig(order=3)
        head = list(itertools.islice(enumerate_semigroups(cfg), 5))
        assert head == list(enumerate_semigroups(cfg))[:5]

    def test_deterministic_repetition(self):
        cfg = EnumerationConfig(order=3)
        a = list(itertools.islice(enumerate_ordered_semigroups(cfg), 100))
        b = list(itertools.islice(enumerate_ordered_semigroups(cfg), 100))
        assert a == b


class TestConfigValidation:
    def test_bad_order(self):
        with pytest.raises(ValueError):
            EnumerationConfig(order=0)

    def test_bad_dedup(self):
        with pytest.raises(ValueError):
            EnumerationConfig(order=2, dedup="iso")


def test_associative_tables_really_are():
    # every associativity triple is checked when its last cell is set, so
    # the backtracker needs no leaf check: each table it completes is
    # associative (the counts are pinned in counts.json), with and without
    # the distributivity hook
    for n in range(1, 5):
        assert all(is_associative(t, n) for t in associative_tables(n))
        assert all(
            is_associative(L.table, n)
            for L in enumerate_le_semigroups(EnumerationConfig(order=n))
        )


def test_ordered_structures_keep_table_and_order_linked():
    # every yielded pair must consist of the yielded table and one of its
    # compatible orders
    for s in enumerate_ordered_semigroups(EnumerationConfig(order=2)):
        assert isinstance(s, OrderedSemigroup)
        assert s.leq in set(enumerate_compatible_orders(s.table))
