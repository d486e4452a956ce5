"""Element-level algebra on poe- and lattice-ordered semigroups.

In an ordered semigroup with greatest element e, ideal membership is carried
by single elements: a is a right ideal element when ae <= a, a left ideal
element when ea <= a, a bi-ideal element when aea <= a, and a quasi-ideal
element when ae ^ ea exists in the order and lies below a.  On a lattice the
generated right/left/bi/quasi elements have closed forms built from joins:
a v ae, a v ea, a v aea and a v (ae ^ ea).

`theorem2_flags` answers intra-regularity and the element-triple
conditions from those generated elements alone.  One triple scan on
(table, leq, top) checks every triple instead, where a triple counts only
when its greatest lower bound exists: the element whose down-set is the
intersection of theirs, on lattices and off them.  The scan gives the
witnesses, answers the remark (`remark_flags`), and answers
`verify_theorem2` without `theorem2_flags`, so the tests hold the kernel
to it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ordered import OrderedSemigroup, _check_condition_kind, row_masks, validate

ELEMENT_KINDS = ("right", "left", "bi", "quasi")


def greatest(leq):
    """The unique greatest element of an order relation, or None."""
    tops = [t for t, col in enumerate(zip(*leq)) if all(col)]
    return tops[0] if len(tops) == 1 else None


class PoeSemigroup(OrderedSemigroup):
    """Ordered semigroup with a greatest element; need not be a lattice.

    top is derived from the order when not given.
    """

    __slots__ = ("top",)

    def __init__(self, table, leq, top=None):
        super().__init__(table, leq)
        if top is None:
            top = greatest(self.leq)
            if top is None:
                raise ValueError("no unique greatest element; pass top explicitly")
        elif not 0 <= top < self.n:
            raise ValueError(f"top index {top} out of range")
        self.top = top

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, top={self.top})"


class LeSemigroup(PoeSemigroup):
    """Finite lattice-ordered semigroup with greatest element: a
    poe-semigroup whose order comes from join.

    join and meet are the lattice tables; the order is derived from join
    (i <= j iff i v j = j), never supplied separately.  Construction checks
    shapes and ranges only; `validate_le` reports axiom violations.
    """

    __slots__ = ("join", "meet")

    def __init__(self, table, join, meet, top=None):
        n = len(table)
        self.join = tuple(tuple(map(int, row)) for row in join)
        self.meet = tuple(tuple(map(int, row)) for row in meet)
        for name, mat in (("join", self.join), ("meet", self.meet)):
            if len(mat) != n or any(len(row) != n for row in mat):
                raise ValueError(f"{name} must be {n}x{n}")
            if any(not 0 <= v < n for row in mat for v in row):
                raise ValueError(f"{name} entries must be carrier indices")
        leq = tuple(tuple(self.join[i][j] == j for j in range(n)) for i in range(n))
        super().__init__(table, leq, top)

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.table == other.table
            and self.join == other.join
            and self.meet == other.meet
            and self.top == other.top
        )

    def __hash__(self):
        return hash((self.table, self.join, self.meet, self.top))


def validate_le(L):
    """Check the lattice and join-distributivity axioms, then the
    poe-semigroup axioms of the induced order (`validate_poe`); one message
    per violation, empty list when valid."""
    bad = []
    n, t, J, M = L.n, L.table, L.join, L.meet
    for i in range(n):
        if J[i][i] != i:
            bad.append(f"join idempotence: {i} v {i} != {i}")
        if M[i][i] != i:
            bad.append(f"meet idempotence: {i} ^ {i} != {i}")
    for i in range(n):
        for j in range(i + 1, n):
            if J[i][j] != J[j][i]:
                bad.append(f"join commutativity: {i} v {j} != {j} v {i}")
            if M[i][j] != M[j][i]:
                bad.append(f"meet commutativity: {i} ^ {j} != {j} ^ {i}")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if J[J[i][j]][k] != J[i][J[j][k]]:
                    bad.append(
                        f"join associativity: ({i} v {j}) v {k} != {i} v ({j} v {k})"
                    )
                if M[M[i][j]][k] != M[i][M[j][k]]:
                    bad.append(
                        f"meet associativity: ({i} ^ {j}) ^ {k} != {i} ^ ({j} ^ {k})"
                    )
    for i in range(n):
        for j in range(n):
            if J[i][M[i][j]] != i:
                bad.append(f"absorption: {i} v ({i} ^ {j}) != {i}")
            if M[i][J[i][j]] != i:
                bad.append(f"absorption: {i} ^ ({i} v {j}) != {i}")
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if t[a][J[b][c]] != J[t[a][b]][t[a][c]]:
                    bad.append(
                        f"left distributivity: {a}*({b} v {c}) != {a}*{b} v {a}*{c}"
                    )
                if t[J[a][b]][c] != J[t[a][c]][t[b][c]]:
                    bad.append(
                        f"right distributivity: ({a} v {b})*{c} != {a}*{c} v {b}*{c}"
                    )
    return bad + validate_poe(L)


def validate_poe(p):
    """Ordered-semigroup axioms plus the greatest-element requirement."""
    bad = validate(p)
    for i in range(p.n):
        if not p.leq[i][p.top]:
            bad.append(f"greatest element: {i} !<= {p.top}")
    return bad


@dataclass(frozen=True)
class ElementFlags:
    right: bool
    left: bool
    bi: bool
    quasi: bool
    quasi_defined: bool


def order_glb(leq, elems):
    """Greatest lower bound of elems within a partial order, or None."""
    n = len(leq)
    lowers = [c for c in range(n) if all(leq[c][x] for x in elems)]
    for g in lowers:
        if all(leq[c][g] for c in lowers):
            return g
    return None


def _element_flags(table, leq, e):
    """(down, glb, flags): each element's down-set bitmask, the element of
    each down-set (the glb of a set, if any, owns the intersection of their
    down-sets), and each a's (right, left, bi, quasi, quasi_defined) flags:
    ae <= a, ea <= a, aea <= a, and ae ^ ea <= a where that glb exists."""
    down = row_masks(zip(*leq))
    glb = {d: a for a, d in enumerate(down)}
    flags = []
    for a, ta in enumerate(table):
        ae, ea = ta[e], table[e][a]
        low = glb.get(down[ae] & down[ea])
        defined = low is not None
        flags.append(
            (leq[ae][a], leq[ea][a], leq[table[ae][a]][a], defined and leq[low][a], defined)
        )
    return down, glb, flags


def _kind_elements(flags, kind):
    k = ELEMENT_KINDS.index(kind)
    return [a for a, f in enumerate(flags) if f[k]]


def element_class(struct, a):
    """Ideal-element flags of a in a PoeSemigroup or LeSemigroup;
    quasi_defined says whether ae ^ ea exists in the order (on a lattice,
    always)."""
    if not 0 <= a < struct.n:
        raise ValueError(f"element {a} out of range")
    return ElementFlags(*_element_flags(struct.table, struct.leq, struct.top)[2][a])


def ideal_elements(struct, kind):
    """Ascending indices whose element_class has the kind flag set."""
    if kind not in ELEMENT_KINDS:
        raise ValueError(f"unknown element kind: {kind!r}")
    return _kind_elements(_element_flags(struct.table, struct.leq, struct.top)[2], kind)


def gen_element(L, a, kind):
    """Least kind-ideal element above a: a v ae, a v ea, a v aea or
    a v (ae ^ ea)."""
    if not isinstance(L, LeSemigroup):
        raise TypeError("gen_element requires a LeSemigroup")
    if not 0 <= a < L.n:
        raise ValueError(f"element {a} out of range")
    if kind not in ELEMENT_KINDS:
        raise ValueError(f"unknown generator kind: {kind!r}")
    t, J, M, e = L.table, L.join, L.meet, L.top
    if kind == "right":
        return J[a][t[a][e]]
    if kind == "left":
        return J[a][t[e][a]]
    if kind == "bi":
        return J[a][t[t[a][e]][a]]
    return J[a][M[t[a][e]][t[e][a]]]


def least_element_oracle(L, a, kind):
    """Lattice meet of every kind-element above a; independent of the closed
    forms.  The family is never empty since the top element qualifies for
    every kind."""
    if not isinstance(L, LeSemigroup):
        raise TypeError("least_element_oracle requires a LeSemigroup")
    if not 0 <= a < L.n:
        raise ValueError(f"element {a} out of range")
    members = ideal_elements(L, kind)
    acc = L.top
    for cand in members:
        if L.leq[a][cand]:
            acc = L.meet[acc][cand]
    if not (L.leq[a][acc] and acc in members):
        raise AssertionError(f"meet of {kind} elements above {a} lost the property")
    return acc


def _intra_regular(table, leq, e):
    return all(leq[a][table[table[e][ta[a]]][e]] for a, ta in enumerate(table))


def is_intra_regular_poe(struct):
    """True iff a <= e*a^2*e for every a."""
    return _intra_regular(struct.table, struct.leq, struct.top)


@dataclass(frozen=True)
class ElementWitness:
    """Failing element triple: x ^ m ^ y is not below y*m*x."""

    x: int
    m: int
    y: int


def _triple_scan(table, leq, top, kind):
    """First right/kind/left ideal-element triple (x, m, y), scanning each
    from the highest index down, whose greatest lower bound exists and is not
    below y*m*x, as an ElementWitness; True when there is none.  The bound is
    looked up by down-set, one rule with a lattice or without."""
    down, glb, flags = _element_flags(table, leq, top)
    rights, mids, lefts = (_kind_elements(flags, k) for k in ("right", kind, "left"))
    for x in reversed(rights):
        for m in reversed(mids):
            xm = down[x] & down[m]
            for y in reversed(lefts):
                low = glb.get(xm & down[y])
                if low is not None and not leq[low][table[table[y][m]][x]]:
                    return ElementWitness(x=x, m=m, y=y)
    return True


def le_condition_scan(L, kind):
    """Check x ^ m ^ y <= y*m*x for all right ideal elements x, kind
    elements m and left ideal elements y by scanning every triple: True, or
    the first failing ElementWitness (`_triple_scan`)."""
    if not isinstance(L, LeSemigroup):
        raise TypeError("le_condition_scan requires a LeSemigroup")
    _check_condition_kind(kind)
    return _triple_scan(L.table, L.leq, L.top, kind)


def theorem2_flags(table, join, meet, top):
    """(c1, c2, c3) of the lattice-ordered semigroup (table, join, meet,
    top): the truth values of `verify_theorem2`, without witnesses or a
    LeSemigroup.  The order is read from the join (a <= x iff a v x = x).

    With r, m and l the generated right, kind- and left ideal elements
    (`gen_element`), a = x ^ m ^ y has r(a) <= x, m(a) <= m and l(a) <= y,
    so a <= l(a)*m(a)*r(a) <= y*m*x; and each principal triple is one of
    the triples.  So c2 (m bi) and c3 (m quasi) hold exactly when every a
    satisfies a <= l(a)*m(a)*r(a); c1 holds when every a <= e*a^2*e.
    """
    t, e = table, top
    te = t[e]
    c1 = c2 = c3 = True
    for a, ta in enumerate(t):
        ja = join[a]  # a <= x iff ja[x] == x
        ae, ea = ta[e], te[a]
        tl, r = t[ja[ea]], ja[ae]  # the row of l(a) = a v ea; r(a) = a v ae
        x = t[te[ta[a]]][e]  # e*a^2*e
        c1 = c1 and ja[x] == x
        x = t[tl[ja[t[ae][a]]]][r]  # l(a)*(a v aea)*r(a)
        c2 = c2 and ja[x] == x
        x = t[tl[ja[meet[ae][ea]]]][r]  # l(a)*(a v (ae ^ ea))*r(a)
        c3 = c3 and ja[x] == x
    return c1, c2, c3


def le_condition_holds(L, kind):
    """Check x ^ m ^ y <= y*m*x for all right ideal elements x, kind
    elements m and left ideal elements y.

    Returns True when `theorem2_flags` says the condition holds, else the
    witness `le_condition_scan` finds.
    """
    if not isinstance(L, LeSemigroup):
        raise TypeError("le_condition_holds requires a LeSemigroup")
    _check_condition_kind(kind)
    _, bi, quasi = theorem2_flags(L.table, L.join, L.meet, L.top)
    if bi if kind == "bi" else quasi:
        return True
    return le_condition_scan(L, kind)


def verify_theorem2(L):
    """(c1, r2, r3) of one lattice-ordered semigroup by brute force: c1 is
    intra-regularity, and r2 and r3 are the bi and quasi element-triple
    conditions, each True or its first failing ElementWitness, from the full
    triple scan (`le_condition_scan`) and never from `theorem2_flags`."""
    return (
        is_intra_regular_poe(L),
        le_condition_scan(L, "bi"),
        le_condition_scan(L, "quasi"),
    )


def remark_flags(table, leq, top):
    """(c1, remark) of the poe-semigroup (table, leq, top): c1 is
    a <= e*a^2*e for every a; remark is True when c1 fails or no right/bi/
    left ideal-element triple with a greatest lower bound fails
    x ^ b ^ y <= y*b*x, else the first failing ElementWitness."""
    c1 = _intra_regular(table, leq, top)
    return c1, _triple_scan(table, leq, top, "bi") if c1 else True
