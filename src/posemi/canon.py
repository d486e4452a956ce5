"""Canonical forms under carrier relabeling, and relabeling-invariant ids.

A relabeling by a permutation p sends table[i][j] = k to table'[p(i)][p(j)] =
p(k) and i <= j to p(i) <= p(j).  The canonical form of a structure is the
lexicographically least encoding over all relabelings, so two structures are
isomorphic exactly when their canonical forms coincide.

Every relabeling is a (perm, src) pair from `relabelings(n)`: cell k of the
row-major relabeled matrix is read from cell src[k] of the original, and its
value goes through perm when the matrix is element-valued (a table, join or
meet) and is kept when it is a boolean relation.  Inside this module a matrix
is a row-major list of cells, and a structure is a list of (cells, values)
parts.  One builder (`relabel`), one comparison that stops at the first
differing cell (`cmp_relabeled`) and one least-search (`least_relabeling`)
serve the canonical forms; the enumeration's lex-leader searches take the
pairs directly.  Tables kept as nested tuples, as the raw le stream keeps
them, are relabeled a row at a time instead (`table_relabeling`).
`is_least` is the tests' canonicity oracle for those searches.  The
least-search also keys the enumeration's lattice classes: two labeled
lattices are isomorphic exactly when their joins have the same least
relabeling.

The table is always compared first, so canonical forms find the least
relabeled table and the relabelings that reach it once per table, and
minimize the order (or join and meet) over those relabelings alone.

An id hashes the sorted, compact JSON of a canonical form.  `_digest`
encodes the whole payload and is the tests' oracle; campaigns hash the same
bytes put together from cached text instead (`ordered_digest`,
`le_digest`), as `storage` writes its records: `part_text` is the one cache
of table, join and meet text.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from functools import lru_cache
from operator import itemgetter

DEDUP_CAP = 6

_TRUTH = (False, True)  # the value map of a boolean relation: the identity


@lru_cache(maxsize=None)
def relabelings(n):
    """Every relabeling of n points as a (perm, src) pair, identity first."""
    out = []
    for perm in itertools.permutations(range(n)):
        inv = sorted(range(n), key=perm.__getitem__)  # inv[perm[i]] = i
        out.append((perm, tuple(r * n + c for r in inv for c in inv)))
    return tuple(out)


def _check_cap(n):
    if n > DEDUP_CAP:
        raise ValueError(
            f"carrier size {n} exceeds the canonicalization cap {DEDUP_CAP}"
        )


def row_major(mat):
    """A matrix as the list of its cells in row-major order."""
    # lists, not tuples: short-lived 9- and 16-cell tuples would fill the
    # interpreter's tuple free lists and stay resident (about 0.5 MB)
    return list(itertools.chain.from_iterable(mat))


def relabel(cells, perm, src, values=True):
    """The row-major cells relabeled by (perm, src), as a list.  values=False
    relabels a boolean relation, whose cells are truth values rather than
    elements."""
    vmap = perm if values else _TRUTH
    return [vmap[cells[k]] for k in src]


class _Rows(dict):
    """Relabeled rows, keyed by the row: a missing row x is built once, as
    tuple(perm[x[c]] for c in inv) with pick = itemgetter(*inv)."""

    __slots__ = ("perm", "pick")

    def __missing__(self, row):
        out = self[row] = tuple(map(self.perm.__getitem__, self.pick(row)))
        return out


def table_relabeling(perm):
    """The relabeling by perm of n x n tables given as nested tuples, as a
    function that returns nested tuples: row r of the result is row inv[r] of
    the table, its cells picked in the order inv and mapped through perm,
    where inv is the inverse of perm.  It equals `relabel` of the row-major
    cells, cut into rows.  Each distinct row is built once and kept, so the
    many tables one perm relabels share the rows they have in common."""
    n = len(perm)
    if n == 1:  # itemgetter(0) would give a row, not a tuple of rows
        return lambda table: table  # the one relabeling, the identity
    rows = _Rows()
    rows.perm = perm
    rows.pick = pick = itemgetter(*sorted(range(n), key=perm.__getitem__))
    get = rows.__getitem__
    return lambda table: tuple(map(get, pick(table)))


def cmp_relabeled(parts, perm, src, refs):
    """-1, 0 or 1 as the (cells, values) parts relabeled by (perm, src) are
    less than, equal to or greater than refs, comparing part by part and
    cell by cell and stopping at the first difference; nothing is built."""
    for (cells, values), ref in zip(parts, refs):
        vmap = perm if values else _TRUTH
        for k, y in zip(src, ref):
            x = vmap[cells[k]]
            if x != y:
                return -1 if x < y else 1
    return 0


def is_least(parts, perms):
    """True when no (perm, src) in perms relabels the (matrix, values) parts
    to something smaller; the tests' oracle for the enumeration's lex-leader
    pruning."""
    flat = [(row_major(mat), values) for mat, values in parts]
    refs = [cells for cells, _ in flat]
    return all(cmp_relabeled(flat, perm, src, refs) >= 0 for perm, src in perms)


def least_relabeling(parts, perms):
    """The least relabeling of the (cells, values) parts over the (perm, src)
    pairs of perms, with every pair that reaches it.  Each pair is compared
    against the running least, and only a new least is built."""
    least, reach = None, []
    for perm, src in perms:
        cmp = cmp_relabeled(parts, perm, src, least) if least else -1
        if cmp < 0:
            least = [relabel(cells, perm, src, values) for cells, values in parts]
            reach = [(perm, src)]
        elif cmp == 0:
            reach.append((perm, src))
    return least, reach


@lru_cache(maxsize=1)
def _least_table(table):
    """least_relabeling of a table (nested tuples, the cache key) over every
    relabeling.  Ordered streams yield all orders of one table in a row, so
    one cached table serves them all."""
    _check_cap(len(table))
    return least_relabeling(((row_major(table), True),), relabelings(len(table)))


def _canonical(table, *rest):
    """Least relabeling of table followed by the (cells, values) parts of
    rest, compared in that order, as nested tuples.  Only the relabelings
    that take table to its least form can win, so rest is minimized over
    those alone."""
    n = len(table)
    least, reach = _least_table(tuple(map(tuple, table)))
    best, _ = least_relabeling(rest, reach)
    rows = range(0, n * n, n)
    return tuple(tuple(tuple(c[r : r + n]) for r in rows) for c in least + best)


def canonical_ordered(table, leq):
    """Least relabeling of (table, leq); the table part is compared first."""
    return _canonical(table, (list(map(bool, row_major(leq))), False))


def canonical_le(table, join, meet):
    """Least relabeling of (table, join, meet), compared in that order."""
    return _canonical(table, (row_major(join), True), (row_major(meet), True))


def _sha16(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _digest(payload):
    """The id of a payload: the first 16 hex digits of the SHA-256 of its
    sorted, compact JSON.  The oracle of `ordered_digest` and `le_digest`."""
    return _sha16(json.dumps(payload, sort_keys=True, separators=(",", ":")))


# the compact JSON text of a nested tuple, as `_digest` writes it; the
# records of `storage` are written with it too
compact = json.JSONEncoder(separators=(",", ":")).encode
_leq_row = lru_cache(maxsize=None)(compact)  # rows of booleans: 2^n of length n
# The text of a table, join or meet (nested tuples, the cache key), for ids
# and records alike.  An ordered stream yields one table's orders in a row
# and an le stream one lattice's structures, so two entries hold an ordered
# stream's table or an le stream's join and meet; le tables all differ and
# take `compact` uncached.
part_text = lru_cache(maxsize=2)(compact)


def ordered_digest(table, leq):
    """Digest of (table, leq) taken as it is: `ordered_structure_id` of a
    structure that is its own canonical form, as every structure of an
    up_to_iso stream is.  table and leq are nested tuples, leq of booleans.
    It hashes the bytes `_digest` would for {"kind": "ordered_semigroup",
    "table": table, "leq": leq}, from one cached text per order row and
    the table's cached text."""
    rows = ",".join(map(_leq_row, leq))
    return _sha16(
        f'{{"kind":"ordered_semigroup","leq":[{rows}],"table":{part_text(table)}}}'
    )


def ordered_structure_id(table, leq):
    """Relabeling-invariant id of an ordered semigroup."""
    return ordered_digest(*canonical_ordered(table, leq))


def le_digest(table, join, meet):
    """`ordered_digest` for (table, join, meet), nested tuples:
    `le_structure_id` of a structure that is its own canonical form."""
    return _sha16(
        f'{{"join":{part_text(join)},"kind":"le_semigroup",'
        f'"meet":{part_text(meet)},"table":{compact(table)}}}'
    )


def le_structure_id(table, join, meet):
    """Relabeling-invariant id of a lattice-ordered semigroup."""
    return le_digest(*canonical_le(table, join, meet))
