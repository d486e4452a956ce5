from itertools import product
from pathlib import Path

import pytest

from posemi import (
    ConditionWitness,
    LeSemigroup,
    OrderedSemigroup,
    downward_closure,
    ideal_masks,
    set_product,
)
from posemi.enumeration import (
    EnumerationConfig,
    enumerate_le_semigroups,
    enumerate_ordered_semigroups,
)
from posemi.ordered import _check_condition_kind

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"

CHAIN3_JOIN = [[0, 1, 2], [1, 1, 2], [2, 2, 2]]
CHAIN3_MEET = [[0, 0, 0], [0, 1, 1], [0, 1, 2]]


def relabeled(mat, p, values=True):
    """mat with entry (i, j) moved to (p[i], p[j]), mapped by p when values."""
    at = {(p[i], p[j]): v for i, row in enumerate(mat) for j, v in enumerate(row)}
    rng = range(len(p))
    return tuple(tuple(p[at[i, j]] if values else at[i, j] for j in rng) for i in rng)


def truths(answer):
    """The truth values of a (c1, r2, r3) answer of `verify_theorem1` or
    `verify_theorem2`, where r2 and r3 are each True or a witness."""
    return tuple(r is True for r in answer)


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


def make_n2():
    """Two-element null semigroup with 0 < a."""
    return OrderedSemigroup([[0, 0], [0, 0]], [[1, 1], [0, 1]])


def make_s2l():
    """Two-element left-zero semigroup, discrete order."""
    return OrderedSemigroup([[0, 0], [1, 1]], [[1, 0], [0, 1]])


def make_z2():
    """Two-element group, discrete order."""
    return OrderedSemigroup([[0, 1], [1, 0]], [[1, 0], [0, 1]])


def make_one():
    """One-element semigroup."""
    return OrderedSemigroup([[0]], [[1]])


def make_l3null():
    """Chain 0 < a < e with all products 0."""
    return LeSemigroup([[0, 0, 0]] * 3, CHAIN3_JOIN, CHAIN3_MEET, top=2)


def make_l3meet():
    """Chain 0 < a < e with x*y = min(x, y)."""
    return LeSemigroup(CHAIN3_MEET, CHAIN3_JOIN, CHAIN3_MEET, top=2)


def direct_product(*factors):
    """The direct product of ordered semigroups: componentwise product and
    order, the tuples of factor elements numbered in lexicographic order."""
    elems = list(product(*(range(f.n) for f in factors)))
    index = {e: i for i, e in enumerate(elems)}
    table = [
        [index[tuple(f.table[x][y] for f, x, y in zip(factors, a, b))] for b in elems]
        for a in elems
    ]
    leq = [
        [all(f.leq[x][y] for f, x, y in zip(factors, a, b)) for b in elems]
        for a in elems
    ]
    return OrderedSemigroup(table, leq)


def make_p12():
    """n2 x s2l x l3meet, 12 elements: the structure of fixtures/p12.json."""
    return direct_product(make_n2(), make_s2l(), make_l3meet())


@pytest.fixture
def n2():
    return make_n2()


@pytest.fixture
def s2l():
    return make_s2l()


@pytest.fixture
def l3null():
    return make_l3null()


@pytest.fixture
def l3meet():
    return make_l3meet()


def _ordered_universe(max_order, dedup="up_to_iso"):
    out = []
    for n in range(1, max_order + 1):
        out.extend(enumerate_ordered_semigroups(EnumerationConfig(order=n, dedup=dedup)))
    return out


def _le_universe(max_order, dedup="up_to_iso"):
    out = []
    for n in range(1, max_order + 1):
        out.extend(enumerate_le_semigroups(EnumerationConfig(order=n, dedup=dedup)))
    return out


@pytest.fixture(scope="session")
def ordered_universe_3():
    """Ordered semigroups of order <= 3, one per isomorphism class."""
    return _ordered_universe(3)


@pytest.fixture(scope="session")
def ordered_universe_4():
    """Ordered semigroups of order <= 4, one per isomorphism class."""
    return _ordered_universe(4)


@pytest.fixture(scope="session")
def le_universe_3():
    """Lattice-ordered semigroups of order <= 3, one per isomorphism class."""
    return _le_universe(3)


@pytest.fixture(scope="session")
def le_universe_4():
    """Lattice-ordered semigroups of order <= 4, one per isomorphism class."""
    return _le_universe(4)
