"""Exhaustive generation of small finite structures.

Associative tables are produced by one backtracker over the cells in
row-major order.  Its pruning is complete: every associativity triple is
checked the moment its last cell is set, so a partial table survives only
while all of its fully known triples hold and every leaf is associative.
A triple whose last cell is an outer product, (ab)c or a(bc), fixes that
cell's value from its other cells, so each node first reads the values its
cell is fixed to and tries only that one (forced cells); the triples in
which the cell is an inner product are checked per value tried.
Join-distributive multiplications come from the same backtracker with a
per-cell distributivity hook, run once per lattice class; a lattice's class
is one dict lookup on its canonical join.
Compatible orders come from a closure walk, which also gives all partial
orders; lattices are filtered from those.  The walk holds each order as one
int, bit a*n + b set iff a <= b, and yields it as it is: the campaigns'
kernels, ids and records all take that int.  Only the library's streams of
orders (`all_posets`, `enumerate_compatible_orders`,
`enumerate_ordered_semigroups`) turn it into nested tuples of booleans,
with `ordered.order_rows`.
All streams are deterministic: ascending by the row-major encoding of the
structure, so a caller can take any part of one by position (the command
line shards and limits it with islice).

Deduplication keeps exactly the structures that equal their own canonical
relabeling, so the up_to_iso stream is the set of canonical forms of the raw
stream, one representative per isomorphism class.  The table part is
deduplicated during the search by lex-leader pruning: each relabeling that
could still make the table row-major smaller waits in the watch list of the
cell its comparison needs next, setting a cell resumes that cell's list
alone, and the subtree is cut as soon as one of them is smaller on the
cells known so far.  The relabelings are canon's (perm, src) pairs, taken as
they are.  Each leaf then comes with its automorphisms (the pairs equal on
every cell), and the order walk prunes by them the same way: at each node
the cells before the pair being decided are final, and the node is cut as
soon as an automorphism relabels them to something smaller.  The tests
hold both to canon.is_least over every relabeling.  The le search prunes
by the automorphisms of the lattice instead and canonicalizes what it
keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

from . import canon
from .le import LeSemigroup, greatest
from .ordered import OrderedSemigroup, down_sets, order_rows, up_sets

DEDUP_MODES = ("none", "up_to_iso")


@dataclass(frozen=True)
class EnumerationConfig:
    """Parameters for one enumeration run: the order, at least 1, and the
    dedup mode.  How large an order a run may take, and which part of a
    stream it covers (shard, limit), is the caller's choice; the command
    line decides both."""

    order: int
    dedup: str = "none"

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be at least 1")
        if self.dedup not in DEDUP_MODES:
            raise ValueError(f"dedup must be one of {DEDUP_MODES}")


def _fill(n, hook=None, perms=()):
    """Associative n x n tables, ascending in row-major order, whose every
    cell passes hook(table, i, j) when it is set (later cells still -1), each
    yielded as (table, automorphisms).

    Each associativity triple (a, b, c) is checked as soon as the last of its
    cells is set, whichever of them that is, so no dead subtree outlives the
    cell that kills it and no leaf check is needed.  Its cells are two inner
    ones, (a, b) and (b, c), and two outer ones, (ab, c) and (a, bc).  When
    the last, (i, j), is an inner cell of the triple, a loop over c,
    (ij)c = i(jc), or over a, (ai)j = a(ij), checks it for each value
    tried, with (i, j) set.  Otherwise its inner cells are cells set before
    (i, j), kept in the preimages of i and j, and if (i, j) is one outer cell
    alone, the triple's other cells fix its value, to a(bj) with ab = i or
    to (ib)c with bc = j.  Each node reads these values once, before any
    value is tried (forced cells): two different ones kill the node, and one
    is the only value tried.  If (i, j) is both outer cells, both sides of
    the triple are cell (i, j) and it holds.

    perms, (perm, src) relabelings from canon.relabelings, makes the search
    keep only the tables that no perm relabels to a row-major smaller table
    (lex-leader pruning).  A perm compares its relabeled table with the
    table cell by cell; at cell f it reads cells f and src[f], so it waits
    on the later of the two, max(f, src[f]): its wait cells, one per f,
    worked out once per perm before the search.  Each live perm sits in the
    watch list of the cell it waits on, and setting cell k resumes the perms
    of list k alone, when it holds any: each compares on until it waits on
    an unset cell and moves to that cell's list, and a smaller relabeled
    cell prunes the subtree, a larger one drops the perm for the subtree.
    Backtracking undoes the moves.  List n * n holds the perms that compared
    equal on every cell: at a leaf, the table's automorphisms among perms,
    yielded in the order of perms.  Without perms no list is kept.
    """
    rng = range(n)
    size = n * n
    table = [[-1] * n for _ in rng]
    cells = [-1] * size  # table in row-major order, for the comparisons
    preimage = [[] for _ in rng]  # preimage[v]: set cells (a, b) with ab = v
    # watch[w]: (f, perm, src, waits) whose relabeled cell f,
    # perm[cells[src[f]]], is next compared, once cell w = waits[f] =
    # max(f, src[f]) is set; waits[size] = size, past every cell
    watch = [[] for _ in range(size + 1)] if perms else None
    for perm, src in perms:
        waits = (*map(max, range(size), src), size)
        watch[waits[0]].append((0, perm, src, waits))

    def resume(k):
        """Move the perms of watch[k] on once cell k is set; the lists they
        moved to, or None, with nothing moved, when one of them relabels the
        table to a smaller one."""
        moved = []
        for f, perm, src, waits in watch[k]:
            w = waits[f]
            while w <= k:  # else it waits on cell w, or is equal on every cell
                x = perm[cells[src[f]]]
                y = cells[f]
                if x != y:
                    if x < y:
                        for out in moved:
                            out.pop()
                        return None
                    w = -1  # larger: dropped
                    break
                f += 1
                w = waits[f]
            if w >= 0:
                out = watch[w]
                out.append((f, perm, src, waits))
                moved.append(out)
        return moved

    def fill(k):
        if k == size:
            # sorted by perm: the order of canon.relabelings
            auts = sorted(e[1:3] for e in watch[size]) if watch else []
            yield tuple(tuple(row) for row in table), auts
            return
        i, j = divmod(k, n)
        row_i = table[i]
        row_j = table[j]
        forced = -1
        for a, b in preimage[i]:  # (ab)j = a(bj) with ab = i
            q = table[b][j]
            if q >= 0:
                v = table[a][q]
                if v >= 0 and v != forced:
                    if forced >= 0:
                        return
                    forced = v
        for b, c in preimage[j]:  # i(bc) = (ib)c with bc = j
            p = row_i[b]
            if p >= 0:
                v = table[p][c]
                if v >= 0 and v != forced:
                    if forced >= 0:
                        return
                    forced = v
        for v in rng if forced < 0 else (forced,):
            row_i[j] = v
            cells[k] = v
            row_v = table[v]
            for c in rng:  # (ij)c = i(jc)
                lhs = row_v[c]
                q = row_j[c]
                if lhs >= 0 and q >= 0:
                    rhs = row_i[q]
                    if rhs >= 0 and lhs != rhs:
                        break
            else:
                for row_a in table:  # (ai)j = a(ij)
                    p = row_a[i]
                    if p >= 0:
                        lhs = table[p][j]
                        rhs = row_a[v]
                        if lhs >= 0 and rhs >= 0 and lhs != rhs:
                            break
                else:
                    if hook is None or hook(table, i, j):
                        moved = resume(k) if watch and watch[k] else ()
                        if moved is not None:
                            preimage[v].append((i, j))
                            yield from fill(k + 1)
                            preimage[v].pop()
                            for out in moved:
                                out.pop()
        row_i[j] = -1
        cells[k] = -1

    return fill(0)


def associative_tables(n):
    """Yield every associative n x n table, ascending in row-major order."""
    return (table for table, _ in _fill(n))


def _semigroup_tables(n, dedup):
    """(table, automorphisms) for the tables of the dedup mode; up_to_iso
    keeps the tables no relabeling makes smaller, with their non-identity
    automorphisms, and the raw tables come with none."""
    iso = dedup == "up_to_iso"
    return _fill(n, perms=canon.relabelings(n)[1:] if iso else ())


def enumerate_semigroups(cfg):
    """Associative tables of the configured order.

    dedup="up_to_iso" keeps exactly the tables equal to their canonical
    relabeling: one representative per isomorphism class.
    """
    return (table for table, _ in _semigroup_tables(cfg.order, cfg.dedup))


@lru_cache(maxsize=None)
def _walk_lookups(n):
    """For the order walk on n points, whose relation is one int with bit
    a*n + b set iff a <= b: the cells a*n + b of the pairs (a, b), a != b,
    in row-major order, and for each x the column mask, bit r*n + x for
    every row r."""
    rng = range(n)
    cells = tuple(a * n + b for a in rng for b in rng if a != b)
    column = sum(1 << r * n for r in rng)
    return cells, tuple(column << x for x in rng)


def _include(rel, gens, below, row):
    """The partial order rel (one int, bit a*n + b set iff a <= b; row, the
    mask of one row) closed with the generators (x, y) of gens in turn, each
    given as (column x, x, y*n, y*n + x); 0 when one of them closes to a
    2-cycle or sets a bit of below."""
    closed = rel
    for column, x, yn, cycle in gens:
        if closed >> cycle & 1:
            return 0  # y <= x already
        closed |= ((closed & column) >> x) * (closed >> yn & row)
        if (closed ^ rel) & below:
            return 0
    return closed


def _compatible_orders(table, auts=()):
    """Partial orders compatible with the table on both sides, ascending by
    encoding, each as its order int: bit a*n + b set iff a <= b
    (`ordered.order_int`).  Each is the transitive closure of the least
    compatible preorders C(a, b), generated by (uav, ubv) for u, v in S^1,
    over its pairs.  The walk decides the pairs in row-major order, first
    leaving a pair out and then adding its C(a, b), and drops a branch that
    closes to a 2-cycle or to a pair left out earlier.

    A relation is one int with bit a*n + b set iff a <= b, so a bit's index
    is its cell's row-major index.  Adding a generator (x, y) to a
    transitive relation ors row y into every row that holds x (_include):
    column x shifted down by x marks those rows with bit r*n, and
    multiplying by row y puts one copy of row y on each mark.  Each copy is
    below 2^n and the marks sit n bits apart, so the copies never overlap
    and the product has no carries.  A relation that holds x <= y already
    has row y in every row holding x, so such a generator adds nothing.

    The pairs decided before (a, b) are the bits below a*n + b, and closure
    only adds bits, so the first of them an include sets decides that it
    dies.  A generator of C(a, b) in one of those cells kills the include
    unless the relation holds it, and then adds nothing: those generators
    are one mask test before any closure, and _include ends at the first
    of the others that sets such a bit.

    auts, (perm, src) automorphisms of the table, makes the walk keep only
    the orders that no aut relabels to a row-major smaller order (lex-leader
    pruning, as in _fill).  At each node every cell before the pair being
    decided is final, so each aut still live compares its relabeled order
    with the order over those cells, from where it stopped: a smaller
    relabeled cell prunes the node, a larger one drops the aut for the
    subtree, and a cell not final on either side stops it until a later
    node.
    """
    n = len(table)
    rng = range(n)
    lefts = {tuple(rng), *map(tuple, table)}  # x -> ux for u in S^1
    maps = lefts | {tuple(table[x][v] for x in row) for row in lefts for v in rng}
    cells, col = _walk_lookups(n)
    row = (1 << n) - 1
    held = []  # per pair: the generators in earlier cells, as bits
    gens = []  # per pair: the others, as _include takes them
    for c in cells:
        a, b = divmod(c, n)
        pairs = {(m[a], m[b]) for m in maps if m[a] != m[b]}
        held.append(sum(1 << x * n + y for x, y in pairs if x * n + y < c))
        gens.append(
            [(col[x], x, y * n, y * n + x) for x, y in pairs if x * n + y >= c]
        )

    def advance(live, rel, final):
        """The (f, src) of live compared on over the cells before final, the
        larger ones dropped; None when one of them is smaller there."""
        still = []
        for f, src in live:  # the relabeled cell f is cell src[f]
            while f < final and src[f] < final:
                x = rel >> src[f] & 1
                if x != rel >> f & 1:
                    if not x:
                        return None
                    break
                f += 1
            else:
                still.append((f, src))
        return still

    last = len(cells)
    belows = [(1 << c) - 1 for c in cells]  # the cells before each pair
    diagonal = sum(1 << i * (n + 1) for i in rng)
    stack = [(0, diagonal, [(0, src) for _, src in auts])]
    while stack:
        k, rel, live = stack.pop()  # bit a*n + b of rel: a <= b
        while True:  # the branch that leaves pair k out goes on here
            while k < last and rel >> cells[k] & 1:
                k += 1  # already held
            if live:
                live = advance(live, rel, cells[k] if k < last else n * n)
                if live is None:  # the cells before are final
                    break
            if k == last:
                yield rel
                break
            if not held[k] & ~rel:  # else an earlier pair changes
                closed = _include(rel, gens[k], belows[k], row)
                if closed:
                    stack.append((k + 1, closed, live))
            k += 1


def _posets(n):
    """Every partial order on n labeled points as its order int, ascending
    by encoding: the compatible orders of the left-zero band xy = x, which
    all are."""
    return _compatible_orders(tuple((x,) * n for x in range(n)))


@lru_cache(maxsize=None)
def all_posets(n):
    """`_posets(n)` as a tuple of nested tuples of booleans, held for the
    process; no campaign reads it."""
    return tuple([order_rows(rel, n) for rel in _posets(n)])


def enumerate_compatible_orders(table):
    """Partial orders compatible with an associative table on both sides,
    as nested tuples of booleans, ascending by encoding, from the closure
    walk; the discrete one is first."""
    n = len(table)
    return (order_rows(rel, n) for rel in _compatible_orders(table))


def ordered_pairs(cfg):
    """(table, rel) of the configured ordered semigroups: every associative
    table paired with every compatible partial order, as its order int.

    dedup="up_to_iso" keeps canonical (table, order) pairs: the table part
    must itself be canonical, and only table automorphisms, which the search
    yields with the table, can then relabel the pair without disturbing it,
    so the order part must be minimal under those automorphisms, and the
    walk is pruned by them.  A table without automorphisms (every table of
    the raw stream) keeps every order.
    """
    for table, auts in _semigroup_tables(cfg.order, cfg.dedup):
        for rel in _compatible_orders(table, auts):
            yield table, rel


def enumerate_ordered_semigroups(cfg):
    """The structures of `ordered_pairs`, as OrderedSemigroups."""
    n = cfg.order
    return (OrderedSemigroup(t, order_rows(rel, n)) for t, rel in ordered_pairs(cfg))


@lru_cache(maxsize=None)
def all_lattices(n):
    """Labeled lattices on n points as (leq, join, meet, top), ascending by
    the order encoding.  The posets stream past: order 6 has 130,023, and
    no campaign reads them again."""
    out = []
    for rel in _posets(n):
        tables = _lattice_tables(rel, n)
        if tables is not None:
            leq = order_rows(rel, n)
            out.append((leq, *tables, greatest(leq)))
    return tuple(out)


def _lattice_tables(rel, n):
    """Join and meet tables of a poset, its order int rel on n points, or
    None when some bound is missing.

    A common upper bound of i and j is their join exactly when its up-set is
    up[i] & up[j], the set of all their common upper bounds; so each join is
    one lookup of that bitmask among the up-sets, and each meet likewise
    among the down-sets.
    """
    tables = []
    for sets in (up_sets(rel, n), down_sets(rel, n)):
        by_set = {m: i for i, m in enumerate(sets)}
        table = []
        for a in sets:
            row = tuple(by_set.get(a & b) for b in sets)
            if None in row:
                return None
            table.append(row)
        tables.append(tuple(table))
    return tuple(tables)


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


def le_sources(cfg):
    """Each le-semigroup of the configured order as ((table, join, meet,
    top), source), ascending by (lattice, multiplication), where source is
    the (table, join, meet) the structure was relabeled from, and so
    isomorphic to it; dedup keeps canonical representatives.

    Relabeling a lattice by p relabels its join-distributive tables by p, so
    both streams run the search once per lattice class, on the class's first
    labeled lattice J0.  A lattice's class is keyed by its canonical join,
    the least relabeling of the join's cells (canon.least_relabeling): the
    join fixes the order, meet and top, so two labeled lattices are
    isomorphic exactly when their keys are equal.  The raw search keeps
    J0's tables as nested tuples, each in one source object that every
    structure relabeled from it shares.  Every labeled lattice of the class,
    J0 included, takes them relabeled a row at a time
    (canon.table_relabeling) by the first perm of canon.relabelings that
    relabels J0's join onto its own (for J0 the identity); nested tuples
    of equal-length rows sort in row-major order, the search's.  Two
    structures on J0 are isomorphic exactly when an automorphism of J0
    relabels one onto the other, so the iso search breaks symmetry by
    Aut(J0) alone and keeps one table per isomorphism class.  Each is
    canonicalized, and the canonical forms on a labeled lattice come out,
    sorted by table and each its own source, when that lattice does.
    """
    n = cfg.order
    perms = canon.relabelings(n)
    iso = cfg.dedup == "up_to_iso"
    classes = {}  # canonical join -> (J0's join cells, J0's sources)
    canonical = {}  # iso: join -> tables of the canonical forms on it
    for _, join, meet, top in all_lattices(n):
        cells = canon.row_major(join)
        (least,), _ = canon.least_relabeling(((cells, True),), perms)
        first, sources = classes.setdefault(tuple(least), (cells, []))
        if first is cells:  # J0: search the class once
            hook = _join_distributive(join, n)
            if iso:
                aut = [p for p in perms[1:] if canon.relabel(cells, *p) == cells]
                for table, _ in _fill(n, hook, aut):
                    t, j, _ = canon.canonical_le(table, join, meet)
                    canonical.setdefault(j, []).append(t)
            else:
                sources.extend((table, join, meet) for table, _ in _fill(n, hook))
        if not iso:
            perm = next(p for p, src in perms if canon.relabel(first, p, src) == cells)
            relabel = canon.table_relabeling(perm)
            moved = [(relabel(source[0]), source) for source in sources]
            moved.sort(key=itemgetter(0))
            for table, source in moved:
                yield (table, join, meet, top), source
        for table in sorted(canonical.pop(join, ())):
            yield (table, join, meet, top), (table, join, meet)


def enumerate_le_semigroups(cfg):
    """The structures of `le_sources`, as LeSemigroups."""
    return (LeSemigroup(t, j, m, top=top) for (t, j, m, top), _ in le_sources(cfg))
