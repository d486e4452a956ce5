"""Exact set-level algebra on finite ordered semigroups.

Carrier elements are the indices 0..n-1.  Subsets of the carrier are plain
int bitmasks (bit i set means element i is in the subset), so products,
downward closures and inclusion tests reduce to a handful of integer
operations and exhaustive scans over all 2^n subsets stay cheap at the
carrier sizes this module targets.

An ideal of any kind here is a nonempty, downward-closed subset satisfying
the kind's multiplicative condition:

  left   SA <= A          right  AS <= A
  quasi  (AS] n (SA] <= A bi     ASA <= A

where (H] = {t : t <= h for some h in H} is the downward closure.

Intra-regularity (c1) is answered element by element by
`intra_regular_witness`.  The triple conditions (c2, c3) are answered by
`condition_holds` from the ideals generated by single elements, witness
included; `condition_scan`, which walks every triple of the ideal families,
is the oracle it is held to.
"""

from __future__ import annotations

from dataclasses import dataclass

from .canon import ordered_structure_id
from .report import VerificationReport

SUBSET_ENUM_CAP = 12

IDEAL_KINDS = ("left", "right", "quasi", "bi")
CONDITION_KINDS = ("bi", "quasi")


class OrderedSemigroup:
    """Finite semigroup with a partial order compatible with multiplication.

    table[i][j] is the product i*j and leq[i][j] means i <= j.  Construction
    checks shapes and value ranges only; `validate` reports violations of the
    algebraic axioms (associativity, order axioms, two-sided compatibility).
    """

    __slots__ = ("n", "table", "leq", "below", "full", "_ideals")

    def __init__(self, table, leq):
        n = len(table)
        if n == 0:
            raise ValueError("carrier must be nonempty")
        if any(len(row) != n for row in table):
            raise ValueError("table must be square")
        self.table = tuple(tuple(map(int, row)) for row in table)
        if any(not 0 <= v < n for row in self.table for v in row):
            raise ValueError("table entries must be carrier indices")
        if len(leq) != n or any(len(row) != n for row in leq):
            raise ValueError("leq must be square and match the table size")
        self.leq = tuple(tuple(map(bool, row)) for row in leq)
        self.n = n
        self.full = (1 << n) - 1
        self.below = tuple(
            sum(1 << i for i in range(n) if self.leq[i][j]) for j in range(n)
        )
        self._ideals = {}

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.table == other.table
            and self.leq == other.leq
        )

    def __hash__(self):
        return hash((type(self).__name__, self.table, self.leq))

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n})"


def subset_mask(indices, n):
    """Bitmask for an iterable of carrier indices."""
    mask = 0
    for i in indices:
        if not 0 <= i < n:
            raise ValueError(f"element {i} out of range for carrier of size {n}")
        mask |= 1 << i
    return mask


def subset_indices(mask):
    """Sorted list of carrier indices in a bitmask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _check_mask(s, mask):
    if mask < 0 or mask >> s.n:
        raise ValueError(
            f"subset mask {mask:#x} out of range for carrier of size {s.n}"
        )


def validate(s):
    """Check the axioms; one message per violation, empty list when valid."""
    bad = []
    n, t, leq = s.n, s.table, s.leq
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if t[t[i][j]][k] != t[i][t[j][k]]:
                    bad.append(f"associativity: ({i}*{j})*{k} != {i}*({j}*{k})")
    for i in range(n):
        if not leq[i][i]:
            bad.append(f"reflexivity: not {i} <= {i}")
    for i in range(n):
        for j in range(i + 1, n):
            if leq[i][j] and leq[j][i]:
                bad.append(f"antisymmetry: {i} <= {j} and {j} <= {i}")
    for i in range(n):
        for j in range(n):
            if leq[i][j]:
                for k in range(n):
                    if leq[j][k] and not leq[i][k]:
                        bad.append(
                            f"transitivity: {i} <= {j} <= {k} but not {i} <= {k}"
                        )
    for i in range(n):
        for j in range(n):
            if i != j and leq[i][j]:
                for k in range(n):
                    if not leq[t[k][i]][t[k][j]]:
                        bad.append(
                            f"compatibility: {i} <= {j} but {k}*{i} !<= {k}*{j}"
                        )
                    if not leq[t[i][k]][t[j][k]]:
                        bad.append(
                            f"compatibility: {i} <= {j} but {i}*{k} !<= {j}*{k}"
                        )
    return bad


def downward_closure(s, mask):
    """All elements lying below some element of the subset."""
    _check_mask(s, mask)
    out = 0
    below = s.below
    m = mask
    while m:
        low = m & -m
        out |= below[low.bit_length() - 1]
        m ^= low
    return out


def set_product(s, a_mask, b_mask):
    """Elementwise product {a*b : a in A, b in B}; empty if either side is."""
    _check_mask(s, a_mask)
    _check_mask(s, b_mask)
    out = 0
    table = s.table
    bs = subset_indices(b_mask)
    for i in subset_indices(a_mask):
        row = table[i]
        for j in bs:
            out |= 1 << row[j]
    return out


@dataclass(frozen=True)
class IdealFlags:
    left: bool
    right: bool
    quasi: bool
    bi: bool
    downward_closed: bool
    nonempty: bool


def classify_subset(s, mask):
    """Ideal flags of a subset; every ideal kind requires nonempty and
    downward closed on top of its multiplicative condition."""
    _check_mask(s, mask)
    nonempty = mask != 0
    closed = downward_closure(s, mask) == mask
    if not (nonempty and closed):
        return IdealFlags(False, False, False, False, closed, nonempty)
    full = s.full
    xs = set_product(s, mask, full)
    sx = set_product(s, full, mask)
    left = not sx & ~mask
    right = not xs & ~mask
    quasi = not (downward_closure(s, xs) & downward_closure(s, sx)) & ~mask
    bi = not set_product(s, xs, mask) & ~mask
    return IdealFlags(left, right, quasi, bi, True, True)


def gen_ideal(s, x_mask, kind):
    """Ideal of the given kind generated by the nonempty subset X.

    Closed forms: right -> (X u XS]; left -> (X u SX];
    quasi -> (X u ((XS] n (SX])]; bi -> (X u XSX].  The bi form has no X^2
    term because a bi-ideal here need not be closed under products.
    """
    _check_mask(s, x_mask)
    if not x_mask:
        raise ValueError("generated ideals are defined for nonempty subsets only")
    if kind not in IDEAL_KINDS:
        raise ValueError(f"unknown generator kind: {kind!r}")
    full = s.full
    if kind == "right":
        core = set_product(s, x_mask, full)
    elif kind == "left":
        core = set_product(s, full, x_mask)
    elif kind == "bi":
        core = set_product(s, set_product(s, x_mask, full), x_mask)
    else:
        core = downward_closure(s, set_product(s, x_mask, full)) & downward_closure(
            s, set_product(s, full, x_mask)
        )
    return downward_closure(s, x_mask | core)


def _union_tables(images):
    """out[m] is the union of images[i] over the bits i of m, for every m
    below 2 ** len(images)."""
    out = [0]
    for img in images:
        out += [v | img for v in out]
    return out


def _ideal_families(s):
    """The four ideal families, each one filter over all 2^n subsets.

    Closure and products distribute over union.  So with the principal
    ideals R(t) = (t u tS] and L(t) = (t u St], and unions over t in X, a
    nonempty X is a right ideal iff U R(t) <= X, a left ideal iff
    U L(t) <= X, and a quasi-ideal iff (U R(t)) n (U L(t)) <= X, since
    (X] u ((XS] n (SX]) = ((X] u (XS]) n ((X] u (SX]).  X is a bi-ideal iff
    (X] u XSX <= X, the union of (i] u iSj u jSi over i, j in X.  Each union
    is a table over all masks; the bi table is filtered and dropped before
    the right and left tables are built, so at most two are alive at once.
    R(t) and L(t) come from `set_product` and `downward_closure`, not from
    the generators the families are the oracle for.  The flags agree with
    `classify_subset`.
    """
    n, full, below = s.n, s.full, s.below
    masks = range(1, full + 1)
    i_s = [set_product(s, 1 << i, full) for i in range(n)]
    s_i = [set_product(s, full, 1 << i) for i in range(n)]
    isj = [[set_product(s, a, 1 << j) for j in range(n)] for a in i_s]
    table = [0]
    for i in range(n):
        reach = _union_tables([isj[i][j] | isj[j][i] for j in range(i)])
        own = below[i] | isj[i][i]
        table += [v | r | own for v, r in zip(table, reach)]
    bi = tuple(m for m in masks if not table[m] & ~m)
    del table, reach
    right = _union_tables([downward_closure(s, 1 << t | a) for t, a in enumerate(i_s)])
    left = _union_tables([downward_closure(s, 1 << t | a) for t, a in enumerate(s_i)])
    return {
        "left": tuple(m for m in masks if not left[m] & ~m),
        "right": tuple(m for m in masks if not right[m] & ~m),
        "quasi": tuple(m for m in masks if not right[m] & left[m] & ~m),
        "bi": bi,
    }


def ideal_masks(s, kind):
    """All ideals of one kind as bitmasks, ascending; cached per structure."""
    if kind not in IDEAL_KINDS:
        raise ValueError(f"unknown ideal kind: {kind!r}")
    if s.n > SUBSET_ENUM_CAP:
        raise ValueError(
            f"carrier size {s.n} exceeds the subset enumeration cap"
            f" {SUBSET_ENUM_CAP}"
        )
    if not s._ideals:
        s._ideals.update(_ideal_families(s))
    return s._ideals[kind]


def least_ideal_oracle(s, x_mask, kind):
    """Intersection of every kind-ideal containing X, by exhaustive scan.

    Independent of the closed-form generators: it relies only on the ideal
    family (`ideal_masks`, which the tests hold to classify_subset over all
    subsets).  The intersection is itself checked to be a kind-ideal by
    classify_subset before being returned.
    """
    _check_mask(s, x_mask)
    if not x_mask:
        raise ValueError("generated ideals are defined for nonempty subsets only")
    acc = s.full
    for m in ideal_masks(s, kind):
        if m & x_mask == x_mask:
            acc &= m
    if not getattr(classify_subset(s, acc), kind):
        raise AssertionError(f"intersection of {kind} ideals is not a {kind} ideal")
    return acc


def is_intra_regular(s):
    """True iff every element a has an `intra_regular_witness`, that is, lies
    in (S a^2 S]."""
    return all(intra_regular_witness(s, a) is not None for a in range(s.n))


def intra_regular_witness(s, a):
    """Some (x, y) with a <= x*a^2*y, or None; first such pair in index order.

    None for some element exactly when the structure is not intra-regular.
    """
    if not 0 <= a < s.n:
        raise ValueError(f"element {a} out of range")
    t = s.table
    sq = t[a][a]
    leq_a = s.leq[a]
    for x in range(s.n):
        row = t[t[x][sq]]
        for y in range(s.n):
            if leq_a[row[y]]:
                return (x, y)
    return None


@dataclass(frozen=True)
class ConditionWitness:
    """Failing ideal triple: violating_element is in x n m n y but not (y*m*x]."""

    x: int
    y: int
    m: int
    violating_element: int


def _check_condition_kind(kind):
    if kind not in CONDITION_KINDS:
        raise ValueError(f"condition kind must be 'bi' or 'quasi', got {kind!r}")


def _principal_triples(s, kind):
    """(R(t), M(t), L(t)) for every element t: the right, kind- and left
    ideals generated by t."""
    _check_condition_kind(kind)
    return [
        tuple(gen_ideal(s, 1 << t, k) for k in ("right", kind, "left"))
        for t in range(s.n)
    ]


def _outside(s, t, y, m, x):
    """True iff element t is not in (Y M X]."""
    ymx = downward_closure(s, set_product(s, set_product(s, y, m), x))
    return not ymx >> t & 1


def condition_scan(s, kind):
    """Check X n M n Y <= (Y M X] for all right ideals X, kind-ideals M and
    left ideals Y, by scanning every triple of the ideal families.

    Returns True, or the first ConditionWitness in ascending bitmask order of
    the triple (X, M, Y), with the least violating element.  This is the
    oracle `condition_holds` is held to; like every family user it refuses
    carriers above SUBSET_ENUM_CAP.
    """
    _check_condition_kind(kind)
    rights = ideal_masks(s, "right")
    mids = ideal_masks(s, kind)
    lefts = ideal_masks(s, "left")
    for x in rights:
        for m in mids:
            xm = x & m
            if not xm:
                continue
            for y in lefts:
                inter = xm & y
                if not inter:
                    continue
                ymx = downward_closure(s, set_product(s, set_product(s, y, m), x))
                bad = inter & ~ymx
                if bad:
                    elem = (bad & -bad).bit_length() - 1
                    return ConditionWitness(x=x, y=y, m=m, violating_element=elem)
    return True


def condition_holds(s, kind):
    """Check X n M n Y <= (Y M X] for all right ideals X, kind-ideals M and
    left ideals Y, from the ideals R(t), M(t), L(t) generated by single
    elements; no ideal family is built, so any carrier size is accepted.

    Returns True, or the witness `condition_scan` finds.  A violating t of
    a triple has R(t) <= X, M(t) <= M and L(t) <= Y, so it is not in
    (L(t) M(t) R(t)]; the condition therefore holds exactly when every t
    lies in its principal (L(t) M(t) R(t)].  The first failing triple is,
    step by step, the bitmask-least of these candidates:
    X = R(t) with t not in (L(t) M(t) R(t)]; M = M(t) with t in X not in
    (L(t) M(t) X]; Y = L(t) with t in X n M not in (L(t) M X].  By the same
    inclusion every candidate t fails its principal check, so only those
    elements are tried.
    """
    right, mid, left = zip(*_principal_triples(s, kind))
    failing = [t for t in range(s.n) if _outside(s, t, left[t], mid[t], right[t])]
    if not failing:
        return True
    x = min(right[t] for t in failing)
    m = min(
        mid[t] for t in failing if x >> t & 1 and _outside(s, t, left[t], mid[t], x)
    )
    xm = x & m
    y = min(left[t] for t in failing if xm >> t & 1 and _outside(s, t, left[t], m, x))
    bad = xm & y & ~downward_closure(s, set_product(s, set_product(s, y, m), x))
    elem = (bad & -bad).bit_length() - 1
    return ConditionWitness(x=x, y=y, m=m, violating_element=elem)


def verify_theorem1(s):
    """Check that intra-regularity and both ideal-triple conditions agree on
    one structure; failing conditions carry witnesses in the report."""
    return VerificationReport.of(
        ordered_structure_id(s.table, s.leq),
        is_intra_regular(s),
        condition_holds(s, "bi"),
        condition_holds(s, "quasi"),
    )
