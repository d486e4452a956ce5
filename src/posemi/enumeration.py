"""Exhaustive generation of small finite structures.

Associative tables are produced by one backtracker over the cells in
row-major order.  Its pruning is complete: every associativity triple is
checked the moment its last cell is set, so a partial table survives only
while all of its fully known triples hold and every leaf is associative.
Join-distributive multiplications come from the same backtracker with a
per-cell distributivity hook.  Partial orders are generated by their own
backtracker, and lattices and compatible orders are filtered from them.
All streams are deterministic: ascending by the row-major encoding of the
structure, independent of sharding.

Deduplication keeps exactly the structures that equal their own canonical
relabeling, so the up_to_iso stream is the set of canonical forms of the raw
stream, one representative per isomorphism class.  The table part is
deduplicated during the search by lex-leader pruning: every node keeps the
relabelings that could still make its table row-major smaller, and cuts the
subtree as soon as one of them does on the cells known so far.  Each leaf
then comes with its automorphisms (the relabelings still live), and the
order or lattice part is kept when none of them makes it smaller.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

from . import canon
from .le import LeSemigroup
from .ordered import OrderedSemigroup

DEFAULT_MAX_ORDER = 5

DEDUP_MODES = ("none", "up_to_iso")


def max_enum_order():
    """Enumeration order cap; POSEMI_MAX_ORDER overrides the default of 5."""
    raw = os.environ.get("POSEMI_MAX_ORDER")
    if not raw:
        return DEFAULT_MAX_ORDER
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"POSEMI_MAX_ORDER must be a positive integer, got {raw!r}")
    return cap


@dataclass(frozen=True)
class EnumerationConfig:
    """Parameters for one enumeration run.

    shard=(i, t) keeps every t-th structure starting at position i of the
    deduplicated stream, so the t shards partition the unsharded output.
    limit truncates the stream after that many yielded structures.
    """

    order: int
    dedup: str = "none"
    limit: int | None = None
    shard: tuple[int, int] | None = None

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be at least 1")
        if self.dedup not in DEDUP_MODES:
            raise ValueError(f"dedup must be one of {DEDUP_MODES}")
        if self.limit is not None and self.limit < 0:
            raise ValueError("limit must be nonnegative")
        if self.shard is not None:
            i, t = self.shard
            if t < 1 or not 0 <= i < t:
                raise ValueError("shard must satisfy 0 <= index < total")


def _check_order(n):
    cap = max_enum_order()
    if n > cap:
        raise ValueError(
            f"order {n} exceeds the enumeration cap {cap}"
            " (set POSEMI_MAX_ORDER to raise it)"
        )


def _finalize(stream, cfg):
    """The configured shard of the stream, cut after `limit` structures."""
    start, step = cfg.shard or (0, 1)
    return islice(islice(stream, start, None, step), cfg.limit)


def _fill(n, hook=None, perms=()):
    """Associative n x n tables, ascending in row-major order, whose every
    cell passes hook(table, i, j) when it is set (later cells still -1), each
    yielded as (table, automorphisms).

    Each associativity triple (a, b, c) is checked as soon as the last of its
    cells is set, whichever of them that is, so no dead subtree outlives the
    cell that kills it and no leaf check is needed.

    perms, (perm, inverse) pairs, makes the search keep only the tables that
    no perm relabels to a row-major smaller table (lex-leader pruning).  Each
    node keeps the perms still live, each with the first cell at which its
    relabeled partial table is not yet known to equal the table.  After a
    cell is set, every live perm resumes its comparison there and stops at
    the first cell unset on either side: a smaller relabeled cell prunes the
    subtree, a larger one drops the perm for the subtree.  At a leaf every
    cell is known, so the perms still live are the table's automorphisms
    among perms.
    """
    rng = range(n)
    size = n * n
    table = [[-1] * n for _ in rng]
    cells = [-1] * size  # table in row-major order, for the comparisons
    preimage = [[] for _ in rng]  # preimage[v]: set cells (a, b) with ab = v
    # relabeled cell k is perm[cells[src[k]]]
    live0 = [
        (0, perm, (perm, pinv), [pinv[r] * n + pinv[c] for r in rng for c in rng])
        for perm, pinv in perms
    ]

    def consistent(i, j, v):
        row_i = table[i]
        row_j = table[j]
        row_v = table[v]
        for c in rng:  # (ij)c = i(jc)
            lhs = row_v[c]
            q = row_j[c]
            if lhs >= 0 and q >= 0:
                rhs = row_i[q]
                if rhs >= 0 and lhs != rhs:
                    return False
        for a in rng:  # (ai)j = a(ij)
            row_a = table[a]
            p = row_a[i]
            if p >= 0:
                lhs = table[p][j]
                rhs = row_a[v]
                if lhs >= 0 and rhs >= 0 and lhs != rhs:
                    return False
        for a, b in preimage[i]:  # (ab)j = a(bj) with ab = i
            q = table[b][j]
            if q >= 0:
                rhs = table[a][q]
                if rhs >= 0 and rhs != v:
                    return False
        for b, c in preimage[j]:  # i(bc) = (ib)c with bc = j
            p = row_i[b]
            if p >= 0:
                lhs = table[p][c]
                if lhs >= 0 and lhs != v:
                    return False
        return True

    def still_live(live, k):
        """The live perms once cells 0..k are set, or None when one of them
        relabels the table to a smaller one."""
        out = []
        for f, perm, pair, src in live:
            while f <= k:
                x = cells[src[f]]
                if x < 0:
                    out.append((f, perm, pair, src))
                    break
                x = perm[x]
                y = cells[f]
                if x < y:
                    return None
                if x > y:
                    break
                f += 1
            else:
                out.append((f, perm, pair, src))
        return out

    def fill(k, live):
        if k == size:
            yield tuple(tuple(row) for row in table), [e[2] for e in live]
            return
        i, j = divmod(k, n)
        row = table[i]
        for v in rng:
            row[j] = v
            cells[k] = v
            if consistent(i, j, v) and (hook is None or hook(table, i, j)):
                sub = still_live(live, k) if live else live
                if sub is not None:
                    preimage[v].append((i, j))
                    yield from fill(k + 1, sub)
                    preimage[v].pop()
        row[j] = -1
        cells[k] = -1

    return fill(0, live0)


def associative_tables(n):
    """Yield every associative n x n table, ascending in row-major order."""
    return (table for table, _ in _fill(n))


def _semigroup_tables(n, dedup):
    """(table, automorphisms) for the tables of the dedup mode; up_to_iso
    keeps the tables no relabeling makes smaller, with their non-identity
    automorphisms."""
    if dedup == "up_to_iso":
        return _fill(n, perms=canon.perms_with_inverse(n)[1:])
    return ((table, ()) for table in associative_tables(n))


def enumerate_semigroups(cfg):
    """Associative tables of the configured order.

    dedup="up_to_iso" keeps exactly the tables equal to their canonical
    relabeling: one representative per isomorphism class.
    """
    _check_order(cfg.order)
    tables = _semigroup_tables(cfg.order, cfg.dedup)
    return _finalize((table for table, _ in tables), cfg)


@lru_cache(maxsize=None)
def all_posets(n):
    """Every partial order on n labeled points, ascending by encoding.

    Each unordered pair is incomparable or related one way, which already
    enforces antisymmetry; transitivity is checked on the complete relation.
    """
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out = []
    leq = [[i == j for j in range(n)] for i in range(n)]

    def fill(k):
        if k == len(pairs):
            if _is_transitive(leq, n):
                out.append(tuple(tuple(row) for row in leq))
            return
        i, j = pairs[k]
        fill(k + 1)
        leq[i][j] = True
        fill(k + 1)
        leq[i][j] = False
        leq[j][i] = True
        fill(k + 1)
        leq[j][i] = False

    fill(0)
    out.sort()
    return tuple(out)


def _is_transitive(leq, n):
    for i in range(n):
        li = leq[i]
        for j in range(n):
            if li[j] and i != j:
                lj = leq[j]
                for k in range(n):
                    if lj[k] and not li[k]:
                        return False
    return True


def _compatible(table, leq, n):
    for i in range(n):
        li = leq[i]
        for j in range(n):
            if i != j and li[j]:
                for k in range(n):
                    tk = table[k]
                    if not leq[tk[i]][tk[j]]:
                        return False
                    if not leq[table[i][k]][table[j][k]]:
                        return False
    return True


def enumerate_compatible_orders(table):
    """Partial orders compatible with an associative table on both sides,
    ascending by encoding.  The discrete order is always among them."""
    n = len(table)
    for leq in all_posets(n):
        if _compatible(table, leq, n):
            yield leq


def enumerate_ordered_semigroups(cfg):
    """Ordered semigroups of the configured order: every associative table
    paired with every compatible partial order.

    dedup="up_to_iso" keeps canonical (table, order) pairs: the table part
    must itself be canonical, and only table automorphisms, which the search
    yields with the table, can then relabel the pair without disturbing it,
    so the order part is kept when it is minimal under those automorphisms.
    """
    _check_order(cfg.order)

    def stream():
        for table, auts in _semigroup_tables(cfg.order, cfg.dedup):
            for leq in enumerate_compatible_orders(table):
                if canon.is_least(((leq, False),), auts):
                    yield OrderedSemigroup(table, leq)

    return _finalize(stream(), cfg)


@lru_cache(maxsize=None)
def all_lattices(n):
    """Labeled lattices on n points as (leq, join, meet, top), ascending by
    the order encoding."""
    out = []
    for leq in all_posets(n):
        tables = _lattice_tables(leq, n)
        if tables is not None:
            join, meet = tables
            top = 0
            for i in range(1, n):
                top = join[top][i]
            out.append((leq, join, meet, top))
    return tuple(out)


def _lattice_tables(leq, n):
    """Join and meet tables of a poset, or None when some bound is missing."""
    join = [[0] * n for _ in range(n)]
    meet = [[0] * n for _ in range(n)]
    rng = range(n)
    for i in rng:
        for j in rng:
            ups = [k for k in rng if leq[i][k] and leq[j][k]]
            lub = next((u for u in ups if all(leq[u][w] for w in ups)), None)
            downs = [k for k in rng if leq[k][i] and leq[k][j]]
            glb = next((g for g in downs if all(leq[w][g] for w in downs)), None)
            if lub is None or glb is None:
                return None
            join[i][j] = lub
            meet[i][j] = glb
    return tuple(tuple(r) for r in join), tuple(tuple(r) for r in meet)


def _join_distributive(join, n):
    """Cell hook for _fill: multiplication distributes over join on both
    sides.

    With row-major filling, a left-distributivity instance a(b v c) lives
    entirely in row a and is checkable once its largest column is set; a
    right-distributivity instance lives in one column and is checkable once
    its largest row is reached.  Both are therefore enforced incrementally
    and completely.
    """
    by_max = [[] for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            u = join[a][b]
            by_max[max(a, b, u)].append((a, b, u))

    def hook(table, i, j):
        row_i = table[i]
        for b, c, u in by_max[j]:
            if join[row_i[b]][row_i[c]] != row_i[u]:
                return False
        for a, b, u in by_max[i]:
            if join[table[a][j]][table[b][j]] != table[u][j]:
                return False
        return True

    return hook


def enumerate_le_semigroups(cfg):
    """Lattice-ordered semigroups of the configured order, ascending by
    (lattice, multiplication); dedup keeps canonical representatives.

    The canonical form compares the table first, so the search prunes on
    the table alone and (join, meet) is then minimized over the table's
    automorphisms."""
    _check_order(cfg.order)
    n = cfg.order

    def stream():
        perms = canon.perms_with_inverse(n)[1:] if cfg.dedup == "up_to_iso" else ()
        for leq, join, meet, top in all_lattices(n):
            for table, auts in _fill(n, _join_distributive(join, n), perms):
                if canon.is_least(((join, True), (meet, True)), auts):
                    yield LeSemigroup(table, join, meet, top=top)

    return _finalize(stream(), cfg)
