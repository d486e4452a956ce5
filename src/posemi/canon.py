"""Canonical forms under carrier relabeling, and relabeling-invariant ids.

A relabeling by a permutation p sends table[i][j] = k to table'[p(i)][p(j)] =
p(k) and i <= j to p(i) <= p(j).  The canonical form of a structure is the
lexicographically least encoding over all relabelings, so two structures are
isomorphic exactly when their canonical forms coincide.

The search compares each relabeling against the running least one cell by
cell and stops at the first difference (`cmp_relabeled`), so a relabeled
copy is built only when it is a new least; the enumeration's canonicity
tests (`is_least`) use the same comparison against the structure itself.
The table is always compared first, so canonical forms find the least
relabeled table and the relabelings that reach it once per table, and
minimize the order (or join and meet) over those relabelings alone.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from functools import lru_cache

DEDUP_CAP = 6


@lru_cache(maxsize=None)
def perms_with_inverse(n):
    """All permutations of range(n), each paired with its inverse."""
    out = []
    for p in itertools.permutations(range(n)):
        inv = [0] * n
        for i, pi in enumerate(p):
            inv[pi] = i
        out.append((p, tuple(inv)))
    return tuple(out)


def _check_cap(n):
    if n > DEDUP_CAP:
        raise ValueError(
            f"carrier size {n} exceeds the canonicalization cap {DEDUP_CAP}"
        )


def relabel_table(table, perm):
    """Relabel an element-valued table: out[p(i)][p(j)] = p(table[i][j])."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        pi = perm[i]
        row = table[i]
        for j in range(n):
            out[pi][perm[j]] = perm[row[j]]
    return tuple(tuple(r) for r in out)


def relabel_relation(rel, perm):
    """Relabel a boolean relation: out[p(i)][p(j)] = rel[i][j]."""
    n = len(rel)
    out = [[False] * n for _ in range(n)]
    for i in range(n):
        pi = perm[i]
        row = rel[i]
        for j in range(n):
            out[pi][perm[j]] = row[j]
    return tuple(tuple(r) for r in out)


def cmp_relabeled(mat, perm, pinv, ref, values=True):
    """-1, 0 or 1 as mat relabeled by perm is less than, equal to or greater
    than ref, comparing cell by cell in row-major order and stopping at the
    first difference; the relabeled matrix is never built.

    pinv is the inverse of perm.  values=False compares a boolean relation,
    whose entries are truth values rather than carrier elements.
    """
    n = len(mat)
    for r in range(n):
        src = mat[pinv[r]]
        row = ref[r]
        for c in range(n):
            x = src[pinv[c]]
            if values:
                x = perm[x]
            y = row[c]
            if x != y:
                return -1 if x < y else 1
    return 0


def _cmp_parts(parts, perm, pinv, refs):
    """cmp_relabeled over the (matrix, values) parts against refs, in order:
    the first part that differs decides."""
    for (mat, values), ref in zip(parts, refs):
        cmp = cmp_relabeled(mat, perm, pinv, ref, values)
        if cmp:
            return cmp
    return 0


def is_least(parts, perms):
    """True when no (perm, inverse) in perms relabels the (matrix, values)
    parts to something smaller; the enumeration's canonicity test."""
    mats = [mat for mat, _ in parts]
    return all(_cmp_parts(parts, perm, pinv, mats) >= 0 for perm, pinv in perms)


@lru_cache(maxsize=1)
def _least_table(table):
    """Least relabeling of an element-valued table, with every (perm,
    inverse) that reaches it.  Ordered streams yield all orders of one table
    in a row, so one cached table serves them all."""
    n = len(table)
    _check_cap(n)
    perms = perms_with_inverse(n)
    best = table
    reach = [perms[0]]
    for perm, pinv in perms[1:]:
        cmp = cmp_relabeled(table, perm, pinv, best)
        if cmp < 0:
            best = relabel_table(table, perm)
            reach = [(perm, pinv)]
        elif cmp == 0:
            reach.append((perm, pinv))
    return best, tuple(reach)


def _least_relabeling(table, rest):
    """Least relabeling of table followed by the (matrix, values) parts of
    rest, compared in that order.  Only the relabelings that take table to
    its least form can win, so rest is minimized over those alone: each is
    compared against the running best and only a new best is built."""
    least, reach = _least_table(table)
    best = None
    for perm, pinv in reach:
        if best is None or _cmp_parts(rest, perm, pinv, best) < 0:
            best = [
                relabel_table(mat, perm) if values else relabel_relation(mat, perm)
                for mat, values in rest
            ]
    return (least, *best)


def canonical_ordered(table, leq):
    """Least relabeling of (table, leq); the table part is compared first."""
    table = tuple(tuple(row) for row in table)
    leq = tuple(tuple(bool(v) for v in row) for row in leq)
    return _least_relabeling(table, ((leq, False),))


def canonical_le(table, join, meet):
    """Least relabeling of (table, join, meet), compared in that order."""
    table, join, meet = (tuple(map(tuple, mat)) for mat in (table, join, meet))
    return _least_relabeling(table, ((join, True), (meet, True)))


def _digest(payload):
    data = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(data.encode("utf-8")).hexdigest()[:16]


def ordered_structure_id(table, leq):
    """Relabeling-invariant id of an ordered semigroup."""
    t, o = canonical_ordered(table, leq)
    return _digest({"kind": "ordered_semigroup", "table": t, "leq": o})


def le_structure_id(table, join, meet):
    """Relabeling-invariant id of a lattice-ordered semigroup."""
    t, j, m = canonical_le(table, join, meet)
    return _digest({"kind": "le_semigroup", "table": t, "join": j, "meet": m})
