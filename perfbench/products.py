"""Seeded direct products for the big-carrier workload.

Factors come from a pinned copy of the order-2 and order-3 ordered
semigroups up to isomorphism (``pool.json``), so the workload does not
shift when the enumeration order of a later commit changes.  A product of
factors F1 x ... x Fk has componentwise multiplication and componentwise
order.  The pool pins, for each product, its ideal-family sizes and what
its checks cost on the commit that made the pool; the seeded draw uses that
cost to give every campaign about the same amount of work.

Everything here is plain Python on tuples; nothing imports posemi, so the
expected answers are independent of the code under test.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

POOL_PATH = Path(__file__).with_name("pool.json")

SHAPES = ((2, 2, 2), (3, 3), (2, 2, 3))
# "ir": every factor intra-regular, so the product is and its c2/c3 scans
# run to the end; "non": some factor is not, so each scan stops at a witness
CLASSES = ("ir", "non")
# Pool products keep |R|*|B|*|L| (the c2 triple space) within this band.
SPACE_BAND = (1500, 9000)
# Products per (shape, class) stratum.  Their pinned check costs are drawn
# to sum to PER_STRATUM times the stratum's median cost: costs differ tenfold
# between products, so a fixed count and a near-fixed cost sum keep a
# campaign's work and its structure count steady across seeds while the
# products change.
PER_STRATUM = 4
# sampled nonempty subsets per product for the gen_ideal / oracle checks
GENERATOR_SUBSETS = 8
GENERATOR_KINDS = ("left", "right", "quasi")


def leq_matrix(n, pairs):
    """Boolean order matrix from strict pairs [i, j] meaning i <= j."""
    mat = [[i == j for j in range(n)] for i in range(n)]
    for i, j in pairs:
        mat[i][j] = True
    return tuple(tuple(row) for row in mat)


def is_intra_regular(table, leq):
    """a <= x*a*a*y for some x, y, for every a: the definition, by brute force."""
    n = len(table)
    for a in range(n):
        sq = table[a][a]
        if not any(leq[a][table[table[x][sq]][y]] for x in range(n) for y in range(n)):
            return False
    return True


def direct_product(factors):
    """(table, leq) of the direct product of (table, leq) factors.

    Elements are the tuples of factor elements in lexicographic order.
    """
    elems = list(itertools.product(*(range(len(t)) for t, _ in factors)))
    index = {e: i for i, e in enumerate(elems)}
    table = tuple(
        tuple(
            index[tuple(f[0][x][y] for f, x, y in zip(factors, a, b))] for b in elems
        )
        for a in elems
    )
    leq = tuple(
        tuple(all(f[1][x][y] for f, x, y in zip(factors, a, b)) for b in elems)
        for a in elems
    )
    return table, leq


def load_pool(path=POOL_PATH):
    """Factors keyed by order, as (table, leq) pairs, and the product list."""
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    factors = {
        int(n): [
            (tuple(map(tuple, f["table"])), leq_matrix(int(n), f["leq"])) for f in fs
        ]
        for n, fs in raw["factors"].items()
    }
    return factors, raw["products"]


def select(rng, stratum):
    """PER_STRATUM entries whose cost_ms sum to about PER_STRATUM times the
    stratum's median cost.

    Each pick is drawn among the entries that leave a remainder the later
    picks can still reach; the last is the entry closest to the remainder.
    """
    costs = sorted(p["cost_ms"] for p in stratum)
    lo, hi = costs[0], costs[-1]
    remaining = PER_STRATUM * costs[len(costs) // 2]
    chosen = []
    for left in range(PER_STRATUM - 1, -1, -1):
        fits = [p for p in stratum if left * lo <= remaining - p["cost_ms"] <= left * hi]
        if not (left and fits):
            gap = min(abs(remaining - p["cost_ms"]) for p in stratum)
            fits = [p for p in stratum if abs(remaining - p["cost_ms"]) == gap]
        pick = rng.choice(fits)
        chosen.append(pick)
        remaining -= pick["cost_ms"]
    return chosen


def triple_space(families):
    """|R|*|B|*|L| from family sizes ordered right, bi, quasi, left."""
    r, b, _, l = families
    return r * b * l


def draw_products(seed, factors, products):
    """Seeded campaign input, stratum by stratum.

    Returns dicts with the product's table and order, the pinned family
    sizes, the expected intra-regularity (every factor intra-regular) and
    the sampled generator subsets.
    """
    rng = random.Random(seed)
    out = []
    for shape in SHAPES:
        for cls in CLASSES:
            stratum = [
                p for p in products if tuple(p["shape"]) == shape and p["class"] == cls
            ]
            for p in select(rng, stratum):
                fs = [factors[k][i] for k, i in zip(shape, p["factors"])]
                table, leq = direct_product(fs)
                n = len(table)
                out.append(
                    {
                        "shape": shape,
                        "factors": p["factors"],
                        "table": table,
                        "leq": leq,
                        "families": tuple(p["families"]),
                        "intra_regular": all(is_intra_regular(*f) for f in fs),
                        "subsets": [
                            rng.randrange(1, 1 << n) for _ in range(GENERATOR_SUBSETS)
                        ],
                    }
                )
    return out
