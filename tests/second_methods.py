"""Second methods and the pinned campaign streams, as plain functions of the
order (and stride) that the tests and CI both call, for instance

    PYTHONPATH=src:tests python -c "import second_methods as m; m.burnside(5)"

Each check prints what it finds and asserts it against tests/golden:
counts.json, whose "samples" pin each strided call by the call, or
streams.json, which pins `verify` campaigns by their summary line and
`enumerate` streams by their line count, each with its SHA-256.  Pytest
does not collect this module: its name does not match test_*.py.
"""

import contextlib
import functools
import hashlib
import json
import math

from posemi import OrderedSemigroup, cli, enumeration, verify_theorem1
from posemi.canon import is_least, least_relabeling, relabel, relabelings, row_major
from posemi.ordered import theorem1_flags

from conftest import GOLDEN, relabeled, truths


@functools.cache
def pins(name):
    """tests/golden/NAME.json, read once."""
    return json.loads((GOLDEN / f"{name}.json").read_text())


def _pinned(section, key, n):
    return pins("counts")[section][key][str(n)]


def _found(**found):
    print(" ".join(f"{key}={value}" for key, value in found.items()), flush=True)
    return found


@functools.lru_cache(maxsize=1)
def iso_tables(n):
    """(table, non-identity automorphisms) of the order-n iso tables, from
    one lex-leader search, kept for the next check of the same order."""
    return tuple(enumeration._fill(n, perms=relabelings(n)[1:]))


def lattice_classes(n):
    """The labeled posets and lattices, and the lattice classes keyed by
    canonical join as le_sources keys them: the classes are the unlabeled
    lattices (OEIS A006966), and each holds n!/|Aut(J0)| labeled lattices,
    |Aut(J0)| counted over every relabeling."""
    perms = relabelings(n)
    firsts = {}
    for _, join, _, _ in enumeration.all_lattices(n):
        (least,), _ = least_relabeling(((row_major(join), True),), perms)
        firsts.setdefault(tuple(least), join)
    labeled = sum(
        math.factorial(n) // sum(relabeled(join, p) == join for p, _ in perms)
        for join in firsts.values()
    )
    found = _found(
        posets=len(enumeration.all_posets(n)),
        lattices=len(enumeration.all_lattices(n)),
        classes=len(firsts),
        labeled=labeled,
    )
    counts = pins("counts")
    lattices = counts["lattices"][str(n)]
    assert found == dict(
        posets=counts["posets"][str(n)],
        lattices=lattices,
        classes=counts["lattice_classes"][str(n)],
        labeled=lattices,
    )


def semigroup_classes(n):
    """The semigroups by orbit-stabilizer: the iso search keeps one table T
    per class, and the class holds n!/|Aut T| labeled tables.  The tables
    stream past, unlike iso_tables': order 7 has 1,627,672."""
    iso = raw = 0
    for _, auts in enumeration._fill(n, perms=relabelings(n)[1:]):
        iso += 1
        raw += math.factorial(n) // (len(auts) + 1)
    found = _found(iso=iso, raw=raw)
    assert found == {key: _pinned("semigroups", key, n) for key in found}


def anti_isomorphism(n):
    """The semigroups up to isomorphism and anti-isomorphism (OEIS A001423).
    An iso table T is the least relabeling of its class, row-major, so the
    lesser of T and the least relabeling of its transpose keys the class of
    both."""
    perms = relabelings(n)
    keys = set()
    for t, _ in iso_tables(n):
        (op,), _ = least_relabeling(((row_major(zip(*t)), True),), perms)
        keys.add(min(tuple(row_major(t)), tuple(op)))
    found = _found(anti_iso=len(keys))
    assert found["anti_iso"] == _pinned("semigroups", "anti_iso", n)


def le_lex_leaders(n, lattices):
    """((table, join, meet, top), table automorphisms) of the canonical
    le-semigroups on the given labeled lattices, with no lattice classes and
    no canonical forms: the lex-leader search over every relabeling keeps
    the least tables, and of those the ones on which no automorphism of the
    table makes (join, meet) smaller."""
    perms = relabelings(n)[1:]
    for _, join, meet, top in lattices:
        hook = enumeration._join_distributive(join, n)
        for table, auts in enumeration._fill(n, hook, perms):
            if is_least(((join, True), (meet, True)), auts):
                yield (table, join, meet, top), auts


def le_classes(n):
    """The le-semigroups by orbit-stabilizer: le_lex_leaders on every
    labeled lattice gives one (T, J, M) per class, and the class holds
    n!/|Aut(T, J, M)| labeled structures, Aut(T, J, M) the automorphisms of
    T that fix J.  Where streams.json pins the raw theorem2 campaign of
    orders 1 to n, its summary counts the labeled structures."""
    iso = raw = 0
    for (_, join, _, _), auts in le_lex_leaders(n, enumeration.all_lattices(n)):
        cells = row_major(join)
        iso += 1
        raw += math.factorial(n) // (1 + sum(relabel(cells, *a) == cells for a in auts))
    found = _found(iso=iso, raw=raw)
    assert found == {key: _pinned("le_semigroups", key, n) for key in found}
    campaign = pins("streams").get(f"verify theorem2 --max-order {n} --dedup none")
    if campaign:
        labeled = sum(_pinned("le_semigroups", "raw", k) for k in range(1, n + 1))
        assert campaign["summary"] == f"# checked={labeled} failures=0"


def le_count(n, dedup="up_to_iso"):
    """The le-semigroup stream of one dedup mode, counted."""
    key = {"none": "raw", "up_to_iso": "iso"}[dedup]
    cfg = enumeration.EnumerationConfig(n, dedup)
    found = _found(**{key: sum(1 for _ in enumeration.le_sources(cfg))})
    assert found[key] == _pinned("le_semigroups", key, n)


def burnside(n, table_stride=1):
    """The ordered semigroups by Burnside's lemma, with no call to
    canon.is_least: an iso table T has (1/|Aut T|) times the sum over g in
    Aut T of fix(g) classes of compatible orders, fix(g) the compatible
    orders g leaves unchanged, and the walk pruned by Aut T must keep that
    many.  Every table_stride-th table is checked, and the orders kept are
    hashed, one row-major 0/1 line each.  A strided call leaves out table 0
    (xy = 0: every relabeling is an automorphism, every poset compatible),
    which tests/test_enumeration.py holds to canon.is_least at order 6."""
    identity = relabelings(n)[0]
    tables = classes = labeled = 0
    digest = hashlib.sha256()
    first = table_stride if table_stride > 1 else 0
    for t, auts in iso_tables(n)[first::table_stride]:
        kept = list(enumeration._compatible_orders(t, auts))
        orders = [row_major(leq) for leq in enumeration._compatible_orders(t)]
        group = [identity, *auts]
        fixed = sum(relabel(c, *g, values=False) == c for g in group for c in orders)
        assert divmod(fixed, len(group)) == (len(kept), 0), t
        for leq in kept:
            digest.update("".join("01"[c] for c in row_major(leq)).encode() + b"\n")
        tables += 1
        classes += len(kept)
        labeled += len(orders)
    found = _found(
        tables=tables,
        classes=classes,
        labeled=labeled,
        orders_sha256=digest.hexdigest(),
    )
    if table_stride == 1:
        assert tables == _pinned("semigroups", "iso", n)
        assert classes == _pinned("ordered_semigroups", "iso", n)
    else:
        assert found == pins("counts")["samples"][f"burnside({n}, {table_stride})"]


def kernel(n, table_stride, structure_stride):
    """theorem1_flags held to verify_theorem1.  Every table_stride-th iso
    table goes through the walk pruned by its automorphisms, and the kernel
    takes every structure of it in walk order, as a campaign does, so its
    all-true shortcut is live; every structure_stride-th structure is held
    to verify_theorem1, and among those both answers occur for each of c1,
    c2 and c3."""
    structures = 0
    checked = []
    for t, auts in iso_tables(n)[::table_stride]:
        for leq in enumeration._compatible_orders(t, auts):
            flags = theorem1_flags(t, leq)
            if structures % structure_stride == 0:
                assert flags == truths(verify_theorem1(OrderedSemigroup(t, leq))), (t, leq)
                checked.append(flags)
            structures += 1
    assert all(0 < sum(answers) < len(checked) for answers in zip(*checked))
    found = _found(structures=structures, checked=len(checked))
    call = f"kernel({n}, {table_stride}, {structure_stride})"
    assert found == pins("counts")["samples"][call]


class _Sink:
    """stdout that keeps the SHA-256 of what it is sent, its line count and
    its tail."""

    def __init__(self):
        self.sha256 = hashlib.sha256()
        self.lines = 0
        self.tail = ""

    def write(self, text):
        self.sha256.update(text.encode())
        self.lines += text.count("\n")
        self.tail = (self.tail + text)[-256:]

    def flush(self):
        pass


def streams(orders):
    """Every stream streams.json pins with its --max-order (a campaign) or
    --order (an enumeration) in orders, run in process: each must exit 0 and
    hash to its pinned SHA-256, a campaign must end in its pinned summary
    line, and an enumeration, which prints no summary, must have its pinned
    number of lines."""
    ran = 0
    for command, pin in pins("streams").items():
        argv = command.split()
        flag = "--order" if argv[0] == "enumerate" else "--max-order"
        if int(argv[argv.index(flag) + 1]) not in orders:
            continue
        sink = _Sink()
        with contextlib.redirect_stdout(sink):
            status = cli.main(argv)
        found = {
            "summary": sink.tail.rstrip("\n").rsplit("\n", 1)[-1],
            "lines": sink.lines,
            "sha256": sink.sha256.hexdigest(),
        }
        found = {key: found[key] for key in pin}
        shown = found.get("summary", f"lines={sink.lines}")
        print(f"{command}: {shown}", flush=True)
        assert (status, found) == (0, pin), command
        ran += 1
    assert ran, f"no stream pinned with its order in {orders}"
