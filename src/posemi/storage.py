"""Structure files: JSON records with validation on load.

One record per structure.  Ordered and poe semigroups carry the order as a
list of [i, j] pairs meaning i <= j; reflexive pairs may be omitted and the
transitive closure is applied on load before re-validation.  Lattice-ordered
semigroups carry explicit join and meet tables plus the top index instead of
an order relation.  Loading refuses structures that violate their axioms.

A file `save` writes is one line, its structure's record: the sorted,
compact JSON of its `to_payload`.  `ordered_record` and `le_record` write
the record straight from a structure's tuples, for `enumerate` and its
`--out` files, put together from `canon.part_text` as `canon` puts its ids
together, with no structure built.  `load` reads indented files too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

from .canon import compact, part_text
from .le import LeSemigroup, PoeSemigroup, greatest, validate_le
from .ordered import _DOWN_TABLES, OrderedSemigroup, validate

KINDS = ("ordered_semigroup", "poe_semigroup", "le_semigroup")


class StructureFileError(Exception):
    """Malformed or invalid structure file."""


@dataclass(frozen=True)
class Loaded:
    kind: str
    structure: object
    names: tuple | None

    def label(self, i):
        return self.names[i] if self.names else str(i)

    def index_of(self, token):
        """Carrier index for an element name or a numeric index string."""
        if self.names and token in self.names:
            return self.names.index(token)
        try:
            idx = int(token)
        except ValueError:
            raise StructureFileError(f"unknown element: {token!r}") from None
        if not 0 <= idx < self.structure.n:
            raise StructureFileError(f"element index {idx} out of range")
        return idx


def _expect(obj, field, types, where):
    if field not in obj:
        raise StructureFileError(f"{where}: missing field {field!r}")
    val = obj[field]
    if not isinstance(val, types) or isinstance(val, bool):
        raise StructureFileError(f"{where}: field {field!r} has the wrong type")
    return val


def _int_matrix(val, n, field):
    if len(val) != n or any(not isinstance(row, list) or len(row) != n for row in val):
        raise StructureFileError(f"field {field!r} must be a {n}x{n} matrix")
    for row in val:
        for v in row:
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                raise StructureFileError(
                    f"field {field!r} entries must be integers in 0..{n - 1}"
                )
    return val


def _leq_matrix(obj, n):
    raw = _expect(obj, "leq", list, "order relation")
    mat = [[i == j for j in range(n)] for i in range(n)]
    for idx, pair in enumerate(raw):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or any(not isinstance(v, int) or isinstance(v, bool) for v in pair)
        ):
            raise StructureFileError(f"field 'leq'[{idx}] must be a pair [i, j]")
        i, j = pair
        if not (0 <= i < n and 0 <= j < n):
            raise StructureFileError(f"field 'leq'[{idx}] indices out of range")
        mat[i][j] = True
    # transitive closure; validation afterwards reports any induced cycle
    for k in range(n):
        for i in range(n):
            if mat[i][k]:
                row_i = mat[i]
                row_k = mat[k]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    return mat


def _fail_violations(violations):
    head = "; ".join(violations[:8])
    tail = "; ..." if len(violations) > 8 else ""
    raise StructureFileError(f"invalid structure: {head}{tail}")


def _name_fault(name):
    """Why `--subset`, which splits at commas and strips each token, could
    not address the element name, or None when it can."""
    if not isinstance(name, str):
        return "must be a string"
    if not name:
        return "must not be empty"
    if "," in name:
        return "must not contain a comma"
    if name != name.strip():
        return "must not begin or end with whitespace"
    return None


def _names_fault(names, n):
    """The first reason names cannot label a carrier of n elements, or None:
    a count other than n, a name `_name_fault` refuses, then a repeat."""
    if not isinstance(names, (list, tuple)) or len(names) != n:
        return "field 'names' must list one string per element"
    for idx, name in enumerate(names):
        if fault := _name_fault(name):
            return f"field 'names'[{idx}] {fault}: {name!r}"
    if len(set(names)) != n:
        return "field 'names' must not repeat labels"
    return None


def from_payload(obj):
    """Build and validate a structure from a parsed JSON object."""
    if not isinstance(obj, dict):
        raise StructureFileError("top level must be a JSON object")
    kind = _expect(obj, "kind", str, "structure")
    if kind not in KINDS:
        raise StructureFileError(f"unknown kind {kind!r}")
    n = _expect(obj, "order", int, kind)
    if n < 1:
        raise StructureFileError("field 'order' must be a positive integer")
    table = _int_matrix(_expect(obj, "table", list, kind), n, "table")
    names = None
    if "names" in obj:
        if fault := _names_fault(obj["names"], n):
            raise StructureFileError(fault)
        names = tuple(obj["names"])

    if kind == "le_semigroup":
        join = _int_matrix(_expect(obj, "join", list, kind), n, "join")
        meet = _int_matrix(_expect(obj, "meet", list, kind), n, "meet")
        top = _expect(obj, "top", int, kind)
        if not 0 <= top < n:
            raise StructureFileError("field 'top' must be a carrier index")
        structure = LeSemigroup(table, join, meet, top=top)
        violations = validate_le(structure)
    else:
        leq = _leq_matrix(obj, n)
        structure = OrderedSemigroup(table, leq)
        violations = validate(structure)
        if kind == "poe_semigroup" and not violations:
            # poe files carry no top field: the order must have one
            top = greatest(structure.leq)
            if top is None:
                raise StructureFileError(
                    "poe_semigroup order has no unique greatest element"
                )
            structure = PoeSemigroup(table, leq, top)
    if violations:
        _fail_violations(violations)
    return Loaded(kind=kind, structure=structure, names=names)


def to_payload(structure, names=None):
    """JSON-ready dict for a structure; the order is written as its strict
    pairs, sorted."""
    if isinstance(structure, LeSemigroup):
        payload = {
            "kind": "le_semigroup",
            "order": structure.n,
            "table": [list(row) for row in structure.table],
            "join": [list(row) for row in structure.join],
            "meet": [list(row) for row in structure.meet],
            "top": structure.top,
        }
    elif isinstance(structure, OrderedSemigroup):
        kind = (
            "poe_semigroup" if isinstance(structure, PoeSemigroup) else "ordered_semigroup"
        )
        pairs = [
            [i, j]
            for i in range(structure.n)
            for j in range(structure.n)
            if i != j and structure.leq[i][j]
        ]
        payload = {
            "kind": kind,
            "order": structure.n,
            "table": [list(row) for row in structure.table],
            "leq": pairs,
        }
    else:
        raise TypeError(f"cannot serialize {type(structure).__name__}")
    if names is not None:
        if fault := _names_fault(names, structure.n):
            raise ValueError(f"element names: {fault}")
        payload["names"] = list(names)
    return payload


@lru_cache(maxsize=_DOWN_TABLES)
def _strict_pairs(leq):
    """The text of the sorted strict pairs [i, j] of one order (nested
    tuples of booleans, the cache key); streams meet the same orders on
    table after table."""
    return compact(
        [(i, j) for i, row in enumerate(leq) for j, x in enumerate(row) if x and i != j]
    )


def ordered_record(table, leq):
    """The record of the ordered semigroup (table, leq), nested tuples: the
    text `json.dumps(to_payload(s), sort_keys=True, separators=(",", ":"))`
    gives for s = OrderedSemigroup(table, leq), which is neither built nor
    checked."""
    return (
        f'{{"kind":"ordered_semigroup","leq":{_strict_pairs(leq)},'
        f'"order":{len(table)},"table":{part_text(table)}}}'
    )


def le_record(table, join, meet, top):
    """`ordered_record` for LeSemigroup(table, join, meet, top=top)."""
    return (
        f'{{"join":{part_text(join)},"kind":"le_semigroup","meet":{part_text(meet)},'
        f'"order":{len(table)},"table":{compact(table)},"top":{top}}}'
    )


def load(path):
    """Load and validate a structure file."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise StructureFileError(f"{path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise StructureFileError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except UnicodeDecodeError as exc:
        raise StructureFileError(f"{path}: {exc}") from None
    except RecursionError:
        raise StructureFileError(f"{path}: JSON nested too deeply") from None
    try:
        return from_payload(obj)
    except StructureFileError as exc:
        raise StructureFileError(f"{path}: {exc}") from None
    except ValueError as exc:
        raise StructureFileError(f"{path}: {exc}") from None


def save(structure, path, names=None):
    """Write a structure file, its record and a newline, as `enumerate`
    writes it; load(save(s)) reproduces s exactly."""
    payload = to_payload(structure, names=names)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
