"""Exact set-level algebra on finite ordered semigroups.

Carrier elements are the indices 0..n-1.  Subsets of the carrier are plain
int bitmasks (bit i set means element i is in the subset), so products,
downward closures and inclusion tests reduce to a handful of integer
operations and exhaustive scans over all 2^n subsets stay cheap at the
carrier sizes this module targets.  A structure builds, when it is made,
the union tables that `downward_closure` and `set_product` read, over
chunks of 6 elements, and from them the principal ideals R(t) = (t u tS]
and L(t) = (t u St].  A closure is one lookup per chunk of the mask, and a
product one lookup per chunk of each factor and ceil(log2 n) shifts.  Each
table holds ceil(n / 6) * 64 entries (of n * n bits for the products), so
their number grows linearly with n and they serve every carrier size.
The ideal families (`ideal_masks`, up to SUBSET_ENUM_CAP elements) wait for
its first call: each is an int of 2^n bits, bit m set iff mask m is in the
family, made from R and L by n big-int operations per kind (`_families`).

An ideal of any kind here is a nonempty, downward-closed subset satisfying
the kind's multiplicative condition:

  left   SA <= A          right  AS <= A
  quasi  (AS] n (SA] <= A bi     ASA <= A

where (H] = {t : t <= h for some h in H} is the downward closure.

Intra-regularity (c1) is answered element by element by
`intra_regular_witness`.  The triple conditions (c2, c3) are answered by
`condition_holds` from the ideals generated by single elements, witness
included; the tests hold it to a scan over every triple of the ideal
families.  Campaigns need only the three truth values, and `theorem1_flags`
gives them for every order of one table from products worked out once per
table.  A campaign's order is one int, bit a*n + b set iff a <= b
(`order_int`, `order_rows` and `down_sets` convert it): its rows are the
up-sets and its columns the down-sets.  The kernel tests c1 on the rows
alone and c2 and c3 first on the element where c1 fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress

SUBSET_ENUM_CAP = 12

IDEAL_KINDS = ("left", "right", "quasi", "bi")
CONDITION_KINDS = ("bi", "quasi")


class OrderedSemigroup:
    """Finite semigroup with a partial order compatible with multiplication.

    table[i][j] is the product i*j and leq[i][j] means i <= j.  Construction
    checks shapes and value ranges only; `validate` reports violations of the
    algebraic axioms (associativity, order axioms, two-sided compatibility).
    It also builds the closure and product tables and the principal ideals
    R(t), L(t); only the ideal families wait for `ideal_masks`.
    """

    __slots__ = (
        "n", "table", "leq", "below", "full",
        "_closures", "_products", "_right", "_left", "_families",
    )

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
        self.below = row_masks(zip(*self.leq))
        self._closures = down = _chunk_tables(self.below)
        self._products = _product_tables(self.table)
        ts = [sum({1 << v for v in row}) for row in self.table]
        st = [sum({1 << v for v in col}) for col in zip(*self.table)]
        self._right = tuple([_union(down, 1 << t | m) for t, m in enumerate(ts)])
        self._left = tuple([_union(down, 1 << t | m) for t, m in enumerate(st)])
        self._families = None

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
    """All elements lying below some element of the subset, read from the
    closure tables built with the structure."""
    _check_mask(s, mask)
    return _union(s._closures, mask)


def set_product(s, a_mask, b_mask):
    """Elementwise product {a*b : a in A, b in B}; empty if either side is.
    Read from the product tables built with the structure (`_product_tables`)."""
    _check_mask(s, a_mask)
    _check_mask(s, b_mask)
    columns, rows, folds = s._products
    out = _union(columns, b_mask) & _union(rows, a_mask)
    for shift in folds:
        out |= out >> shift
    return out & s.full


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


def row_masks(rows):
    """The rows of a square 0/1 matrix as bitmasks, as a tuple: bit j of
    mask i is set iff rows[i][j].  Given zip(*leq), the down-sets."""
    rows = tuple(rows)
    bits = [1 << j for j in range(len(rows))]
    return tuple([sum(compress(bits, row)) for row in rows])


def order_int(leq):
    """The order int of a 0/1 relation matrix: bit a*n + b set iff
    leq[a][b], so row a of the int, rel >> a*n & (2^n - 1), is the up-set
    of a and its column b the down-set of b."""
    n = len(leq)
    cells = (x for row in leq for x in row)
    return sum(1 << k for k, x in enumerate(cells) if x)


def order_rows(rel, n):
    """The order int rel on n points as nested tuples of booleans, the
    inverse of `order_int`: the one place the nested form is built."""
    return tuple(map(_bool_rows(n).__getitem__, up_sets(rel, n)))


@lru_cache(maxsize=SUBSET_ENUM_CAP)
def _bool_rows(n):
    """Every n-bit row mask as a tuple of booleans, indexed by the mask."""
    return tuple(tuple(bool(m >> j & 1) for j in range(n)) for m in range(1 << n))


@lru_cache(maxsize=SUBSET_ENUM_CAP)
def _column_lookups(n):
    """(column, spread, shift, full) that `down_sets` reads a column of an
    order int on n points with: column holds bit r*n of every row r, and
    multiplying the bits r*n of a column by spread, the sum of 2^(k(n-1))
    over k < n, puts bit r*n on bit shift + r, shift = (n-1)^2, from the
    term k = n-1-r.  Every term r*n + k(n-1) lands on its own bit, since
    n and n-1 are coprime, so the product has no carries."""
    column = sum(1 << r * n for r in range(n))
    spread = sum(1 << k * (n - 1) for k in range(n))
    return column, spread, (n - 1) ** 2, (1 << n) - 1


@lru_cache(maxsize=SUBSET_ENUM_CAP)
def row_shifts(n):
    """(shifts, full) for the order ints on n points: row a of rel, the
    up-set of a, is rel >> shifts[a] & full."""
    return tuple(range(0, n * n, n)), (1 << n) - 1


def up_sets(rel, n):
    """The up-sets of the order int rel on n points, the rows of rel, as a
    tuple of n masks."""
    shifts, full = row_shifts(n)
    return tuple([rel >> s & full for s in shifts])


def down_sets(rel, n):
    """The down-sets (b] of the order int rel on n points, the columns of
    rel, as a tuple of n masks."""
    column, spread, shift, full = _column_lookups(n)
    return tuple([(rel >> b & column) * spread >> shift & full for b in range(n)])


def _union_tables(images):
    """out[m] is the union of images[i] over the bits i of m, for every m
    below 2 ** len(images)."""
    out = [0]
    for img in images:
        out += [v | img for v in out]
    return out


# Bits per chunk of the tables of `_chunk_tables`: 2 ** _CHUNK entries each.
_CHUNK = 6
_CHUNK_MASK = (1 << _CHUNK) - 1


def _chunk_tables(images):
    """The union tables of images, _CHUNK at a time: out[c][k] is the union
    of images[c * _CHUNK + i] over the bits i of k.  They hold
    ceil(n / _CHUNK) * 2 ** _CHUNK entries, linear in the length n of
    images, and `_union` reads the union over any mask from them."""
    return [_union_tables(images[c : c + _CHUNK]) for c in range(0, len(images), _CHUNK)]


def _union(tables, mask):
    """The union of the images over the bits of mask, one lookup per chunk
    of `_chunk_tables`."""
    out = 0
    for table in tables:
        out |= table[mask & _CHUNK_MASK]
        mask >>= _CHUNK
    return out


@lru_cache(maxsize=1)
def _product_tables(table):
    """The chunk tables of `set_product` for a multiplication table (nested
    tuples, the cache key: enumerations give every order of a table in a
    row), as (columns, rows, folds), over ints of n fields of n bits, field i
    standing for row i: columns over the columns j, with {i*j} in field i,
    so a lookup by B gives each row's image iB at once, and rows over the
    full fields, so a lookup by A keeps the fields of the rows in A.  The
    folds are the shifts that OR the fields into field 0, halving the
    fields left each time.  Each kept field lies in AB, so folding adds
    nothing outside it, and every field reaches field 0.  rows and folds
    depend on n alone and come from `_row_tables(n)`, shared by every table
    of n elements.
    """
    n = len(table)
    columns = [sum(1 << v << i * n for i, v in enumerate(col)) for col in zip(*table)]
    return (_chunk_tables(columns), *_row_tables(n))


@lru_cache(maxsize=SUBSET_ENUM_CAP)
def _row_tables(n):
    """The rows chunk tables and the folds of `_product_tables` for n
    elements."""
    folds = []
    k = n
    while k > 1:
        k = (k + 1) // 2
        folds.append(k * n)
    rows = [((1 << n) - 1) << i * n for i in range(n)]
    return _chunk_tables(rows), folds


# bytes.translate table from the digits of bin() to the 0/1 selectors of
# itertools.compress
_BIT_SELECTORS = bytes.maketrans(b"01", b"\0\1")


@lru_cache(maxsize=SUBSET_ENUM_CAP)
def _columns(n):
    """The column indicators of the n-element carrier: ints of 2^n bits,
    bit m of the u-th set iff mask m has bit u.  That is the upper half of
    every period of 2^(u+1) bits: the half-block times a repunit."""
    size = 1 << n
    out = []
    for u in range(n):
        half = 1 << u
        block = ((1 << half) - 1) << half
        out.append(block * (((1 << size) - 1) // ((1 << 2 * half) - 1)))
    return tuple(out)


def _decode(indicator):
    """The masks m whose bit is set in indicator, ascending: bin() and a
    bytes translation hand the bits to itertools.compress."""
    selectors = bin(indicator)[:1:-1].encode().translate(_BIT_SELECTORS)
    return tuple(compress(range(indicator.bit_length()), selectors))


def _families(s):
    """The right, left, quasi- and bi-ideals, each found on all 2^n subsets
    at once as an indicator int of 2^n bits, bit m set iff mask m is in it.

    With the principal ideals R(t) = (t u tS] and L(t) = (t u St], and
    unions over t in X, a nonempty X is a right ideal iff U R(t) <= X, a
    left ideal iff U L(t) <= X, and a quasi-ideal iff
    (U R(t)) n (U L(t)) <= X, since
    (X] u ((XS] n (SX]) = ((X] u (XS]) n ((X] u (SX]).  R(t) and L(t) are
    the structure's own, read from the table and the closure tables, not
    from the generators the families are the oracle for.  Closure and
    products distribute over union, so a nonempty X is a bi-ideal iff the
    union of (i] u iSj u jSi over i, j in X lies in X; iSj is read from the
    table.

    Over the column indicators B[u] of `_columns`, reach[u] is the
    indicator of the masks whose union holds u: the OR of B[t] over the t
    with u in R(t) (right) or L(t) (left), the AND of those two (quasi),
    and the OR of B[i] over the i >= u and of B[i] & B[j] over the i, j
    with u in iSj (bi).  A mask is out exactly when some reach[u] & ~B[u]
    holds it, so each family is n big-int operations; mask 0 is cleared.
    The flags agree with `classify_subset`.
    """
    n, table = s.n, s.table
    cols = _columns(n)
    nonempty = (1 << (1 << n)) - 2

    def reach(images):
        out = [0] * n
        for col, img in zip(cols, images):
            for u in subset_indices(img):
                out[u] |= col
        return out

    def family(reached):
        bad = 0
        for col, r in zip(cols, reached):
            bad |= r & ~col
        return _decode(nonempty & ~bad)

    right = reach(s._right)
    left = reach(s._left)
    bi = reach(s.below)
    by_column = list(zip(*table))
    for col, row in zip(cols, table):
        # pairs[u]: the masks holding some j with u in iSj, for this row's i
        values = set(row)
        pairs = reach([sum({1 << c[v] for v in values}) for c in by_column])
        bi = [b | col & p for b, p in zip(bi, pairs)]
    return {
        "left": family(left),
        "right": family(right),
        "quasi": family(map(int.__and__, right, left)),
        "bi": family(bi),
    }


def ideal_masks(s, kind):
    """All ideals of one kind as bitmasks, ascending; cached per structure.
    All four kinds are built together on the first request of any of them
    (`_families`)."""
    if kind not in IDEAL_KINDS:
        raise ValueError(f"unknown ideal kind: {kind!r}")
    if s.n > SUBSET_ENUM_CAP:
        raise ValueError(
            f"carrier size {s.n} exceeds the subset enumeration cap"
            f" {SUBSET_ENUM_CAP}"
        )
    if s._families is None:
        s._families = _families(s)
    return s._families[kind]


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
    """[R(t)], [M(t)], [L(t)] over the elements t: the right, kind- and left
    ideals generated by t.  R and L are the structure's, built when it is
    made; M(t) comes from `gen_ideal`."""
    _check_condition_kind(kind)
    return s._right, [gen_ideal(s, 1 << t, kind) for t in range(s.n)], s._left


def _outside(s, t, y, m, x):
    """True iff element t is not in (Y M X]."""
    ymx = downward_closure(s, set_product(s, set_product(s, y, m), x))
    return not ymx >> t & 1


def condition_holds(s, kind):
    """Check X n M n Y <= (Y M X] for all right ideals X, kind-ideals M and
    left ideals Y, from the ideals R(t), M(t), L(t) generated by single
    elements; no ideal family is built, so any carrier size is accepted.

    Returns True, or the first failing triple in ascending bitmask order of
    (X, M, Y), with the least violating element.  A violating t of
    a triple has R(t) <= X, M(t) <= M and L(t) <= Y, so it is not in
    (L(t) M(t) R(t)]; the condition therefore holds exactly when every t
    lies in its principal (L(t) M(t) R(t)].  The first failing triple is,
    step by step, the bitmask-least of these candidates:
    X = R(t) with t not in (L(t) M(t) R(t)]; M = M(t) with t in X not in
    (L(t) M(t) X]; Y = L(t) with t in X n M not in (L(t) M X].  By the same
    inclusion every candidate t fails its principal check, so only those
    elements are tried.
    """
    right, mid, left = _principal_triples(s, kind)
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


@lru_cache(maxsize=SUBSET_ENUM_CAP)
def _members(n):
    """The elements of every mask of n bits, indexed by the mask."""
    return tuple([subset_indices(m) for m in range(1 << n)])


@lru_cache(maxsize=1)
def _table_products(table):
    """The order-free part of `theorem1_flags` for one table (nested tuples,
    the cache key): the row union tables rows[i][m] = {i*j : j in m}, the
    elements of every mask (`_members`, shared by the tables of n
    elements), for every element t the masks tS, St and tSt, for every a
    (a, a*n, S a^2 S), a*n the shift of row a in an order int, and a
    one-element list that `theorem1_flags` keeps the last all-true order of
    the table in (-1, which no order contains, until then).  Campaigns take
    every order of a table in a row, so one cached table serves them
    all."""
    n = len(table)
    full = (1 << n) - 1
    rows = [_union_tables([1 << v for v in row]) for row in table]
    members = _members(n)

    def product(a, b):
        out = 0
        for i in members[a]:
            out |= rows[i][b]
        return out

    ts = [row[full] for row in rows]
    st = [product(full, 1 << t) for t in range(n)]
    tst = [product(a, 1 << t) for t, a in enumerate(ts)]
    sa2s = [product(full, ts[table[a][a]]) for a in range(n)]
    c1_rows = tuple(zip(range(n), range(0, n * n, n), sa2s))
    return rows, members, ts, st, tst, c1_rows, [-1]


# The closure tables of the orders met so far, keyed by the order int: a
# reflexive relation on n points has bit length n * n, so orders of
# different sizes never share a key.
# Campaigns meet the same orders on table after table (242 orders among the
# 4,938 iso structures of order <= 4), but order 6 has 130,023 posets and
# order 7 6,129,859, so the dict is emptied whenever it holds _CLOSURE_CAP
# tables, about 10 MB of them at order 6 and 19 MB at order 7.
_CLOSURE_CAP = 16384
_order_closures = {}


def _closure_table(rel, n):
    """down[m] = (m] for every mask m, of the order int rel on n points."""
    down = _order_closures.get(rel)
    if down is None:
        if len(_order_closures) >= _CLOSURE_CAP:
            _order_closures.clear()
        down = _order_closures[rel] = _union_tables(down_sets(rel, n))
    return down


def theorem1_flags(table, rel):
    """(c1, c2, c3) of the ordered semigroup (table, rel), rel an order int
    (bit a*n + b set iff a <= b): the truth values of `verify_theorem1`,
    without witnesses or an OrderedSemigroup.

    Row a of rel is the up-set of a, so c1 holds iff each row a meets
    S a^2 S, which comes once per table from `_table_products` with every
    other product.  With R(t) = (t u tS], L(t) = (t u St] and
    M(t) = (t u tSt] (bi) or (t u ((tS] n (St])] (quasi), c2 and c3 hold
    iff every t lies in (L(t) M(t) R(t)], that is, iff row t meets
    L(t) M(t) R(t), as in `condition_holds`.  The closures come from one
    closure table per order (`_closure_table`).  c2 and c3 are tried first
    on the element where c1 fails, if any, and then on every t: the answer
    is the same for any relation, and on a compatible order that element
    fails both conditions (a <= s a^2 t gives a <= (s^2 a)(a t s a)(a t^2),
    and the converse holds on every iso structure of order <= 5), so an
    all-false order stops after it.

    Every step above (union, product, intersection, closure) is monotone
    in the relation, so a relation that contains one with every flag true
    has every flag true too, compatible or not.  The last such order on
    the table is kept with its products, and an order that contains it is
    answered at once, before any closure.
    """
    rows, members, ts, st, tst, c1_rows, held = _table_products(table)
    if not held[0] & ~rel:
        return True, True, True
    n = len(table)
    down = _closure_table(rel, n)
    order = range(n)
    c1 = True
    for a, s, sa2s in c1_rows:
        if not rel >> s & sa2s:
            c1 = False
            order = (a, *order)
            break

    def meets(t, mid):  # row t, the up-set of t, meets L(t) mid R(t)
        lm = 0
        for i in members[down[1 << t | st[t]]]:
            lm |= rows[i][mid]
        right = down[1 << t | ts[t]]
        lmr = 0
        for i in members[lm]:
            lmr |= rows[i][right]
        return rel >> t * n & lmr

    c2 = c3 = True
    for t in order:
        if c2 and not meets(t, down[1 << t | tst[t]]):
            c2 = False
        if c3 and not meets(t, down[1 << t | (down[ts[t]] & down[st[t]])]):
            c3 = False
        if not (c2 or c3):
            break
    if c1 and c2 and c3:
        held[0] = rel
    return c1, c2, c3


def verify_theorem1(s):
    """(c1, r2, r3) of one ordered semigroup: c1 is intra-regularity, and r2
    and r3 are the bi and quasi ideal-triple conditions, each True or its
    first ConditionWitness (`condition_holds`)."""
    return is_intra_regular(s), condition_holds(s, "bi"), condition_holds(s, "quasi")
