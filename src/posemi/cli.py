"""Command-line harness: enumerate structures, run verification campaigns,
and inspect single structure files.

Campaign report streams are deterministic: one tab-separated line per
structure (id, c1, c2, c3, ok) followed by a summary comment.  Every scope's
campaign runs through `_campaign`, which shards among the in-scope
structures and builds each line with `_line`, as `verify --file` does; only
the file path prints witness lines.  `_id_rule` alone decides ids, also in
`enumerate --out` file names: the bare digest on iso streams, whose
structures are their own canonical forms, and the canonical id everywhere
else, which raw theorem2 campaigns take from each structure's isomorphic
source.  `_stream` feeds `enumerate`.

What a run covers is decided here alone, and every flag is checked when
the arguments are parsed.  `--order` and `--max-order` run from 1 to
`canon.DEDUP_CAP`, the cap of the canonical ids.  `enumerate` and `verify`
take their shard by one rule, `islice(items, start, None, step)`, from the
tuple streams of `enumeration`, so only the structures kept are built;
`enumerate --limit` cuts the shard.  islice takes no step or stop above
`sys.maxsize`, and neither do `--shard` and `--limit`.

Exit status is nonzero exactly when a validation failure, an oracle
discrepancy or an equivalence failure occurred; usage errors exit with
status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from functools import lru_cache, partial
from itertools import islice
from pathlib import Path

from . import canon, enumeration, le, ordered, storage


def _fmt_bool(b):  # None is the remark scope's c3
    return "-" if b is None else "true" if b else "false"


def _parse_shard(text):
    try:
        i, t = (int(v) for v in text.split("/"))
    except ValueError:
        raise argparse.ArgumentTypeError("shard must look like i/t, e.g. 0/4") from None
    if not 0 <= i < t <= sys.maxsize:
        raise argparse.ArgumentTypeError(
            f"shard {text} must satisfy 0 <= i < t <= {sys.maxsize}"
        )
    return i, t


def _path(text):
    """argparse type of --file and --out: a path, which may not be empty."""
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return text


def _at_least(least, capped=False):
    """argparse type: an integer no smaller than least and no larger than
    sys.maxsize or, when capped, canon.DEDUP_CAP."""

    def parse(text):
        n = int(text)
        if n < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {text}")
        most = canon.DEDUP_CAP if capped else sys.maxsize
        if n > most:
            why = " (the canonicalization cap)" if capped else ""
            raise argparse.ArgumentTypeError(f"must be at most {most}{why}, got {text}")
        return n

    parse.__name__ = "int"  # argparse names it in "invalid int value: 'x'"
    return parse


def build_parser():
    parser = argparse.ArgumentParser(
        prog="posemi",
        description="finite ordered-semigroup toolkit: ideals, generators, "
        "intra-regularity and exhaustive verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="emit structure records")
    p.add_argument("--kind", required=True, choices=["semigroup", "ordered", "le"])
    p.add_argument("--order", required=True, type=_at_least(1, capped=True))
    p.add_argument("--dedup", choices=["none", "iso"], default="none")
    p.add_argument("--shard", type=_parse_shard, metavar="I/T")
    p.add_argument("--limit", type=_at_least(0))
    p.add_argument(
        "--out", type=_path, metavar="DIR", help="write one file per structure"
    )

    p = sub.add_parser("verify", help="run a verification campaign")
    p.add_argument("scope", choices=["theorem1", "theorem2", "remark"])
    p.add_argument("--max-order", type=_at_least(1, capped=True), dest="max_order")
    p.add_argument("--dedup", choices=["none", "iso"], default="none")
    p.add_argument("--shard", type=_parse_shard, metavar="I/T")
    p.add_argument(
        "--file", type=_path, help="verify one structure file instead of a universe"
    )

    p = sub.add_parser("classify", help="ideal flags of a subset or element")
    p.add_argument("--file", type=_path, required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--subset", help="comma-separated indices or names")
    g.add_argument("--element", help="index or name")

    p = sub.add_parser("generate", help="generated ideal or ideal element")
    p.add_argument("--file", type=_path, required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--subset", help="comma-separated indices or names")
    g.add_argument("--element", help="index or name")
    p.add_argument("--kind", required=True, choices=["left", "right", "quasi"])

    p = sub.add_parser("witness", help="intra-regularity witness for an element")
    p.add_argument("--file", type=_path, required=True)
    p.add_argument("--element", required=True)

    return parser


def _parse_subset(loaded, text):
    mask = 0
    for token in (t.strip() for t in text.split(",")):
        if token:
            mask |= 1 << loaded.index_of(token)
    return mask


def _set_str(label, mask):
    return "{" + ", ".join(label(i) for i in ordered.subset_indices(mask)) + "}"


def _config(order, dedup):
    dedup = "up_to_iso" if dedup == "iso" else "none"
    return enumeration.EnumerationConfig(order, dedup)


def _stream(kind, order, dedup, start, step):
    """The enumerated structures of one kind and order at positions start,
    start + step, ...: semigroups (with the discrete order), ordered
    semigroups or le-semigroups, each built after its tuple is kept."""
    cfg = _config(order, dedup)
    if kind == "le":
        items = islice(enumeration.le_sources(cfg), start, None, step)
        return (le.LeSemigroup(t, j, m, top=top) for (t, j, m, top), _ in items)
    if kind == "semigroup":
        discrete = [[i == j for j in range(order)] for i in range(order)]
        pairs = ((t, discrete) for t in enumeration.enumerate_semigroups(cfg))
    else:
        pairs = enumeration.ordered_pairs(cfg)
    return (ordered.OrderedSemigroup(*p) for p in islice(pairs, start, None, step))


def _check(scope, s):
    """(flags, ok, failed) for one structure: c1, c2 and c3 (None for c3 in
    the remark scope), ok, and the (condition, witness) pairs that failed."""
    if scope == "remark":
        c1, res = le.remark_flags(s.table, s.leq, le.greatest(s.leq))
        ok = res is True
        return (c1, ok, None), ok, () if ok else (("remark", res),)
    verify = ordered.verify_theorem1 if scope == "theorem1" else le.verify_theorem2
    report = verify(s)
    return (report.c1, report.c2, report.c3), report.equivalence_ok, report.witnesses


def _id_rule(scope, iso):
    """The scope's id function of `_parts`: on an iso campaign every
    structure is its own canonical form, so the bare digest is its id."""
    if scope == "theorem2":
        return canon.le_digest if iso else canon.le_structure_id
    return canon.ordered_digest if iso else canon.ordered_structure_id


def _parts(scope, s):
    """(table, join, meet) for theorem2, else (table, leq), whatever s is."""
    return (s.table, s.join, s.meet) if scope == "theorem2" else (s.table, s.leq)


@lru_cache(maxsize=None)  # 24 (flags, ok) at most, over the three scopes
def _tail(flags, ok):
    return "".join("\t" + _fmt_bool(b) for b in (*flags, ok))


def _line(sid, flags, ok):
    """The report line of one structure: its id, c1, c2, c3 and ok."""
    return sid + _tail(flags, ok)


def _campaign(scope, max_order, dedup, start, step):
    """(line, ok) for the in-scope structures of orders 1..max_order at
    positions start, start + step, ...: (table, leq) pairs (for remark those
    with a greatest element), or for theorem2 le structures with their
    sources.  No structure object is built: each tuple goes to its scope's
    kernel (`theorem1_flags`, `theorem2_flags`, `remark_flags`); a theorem2
    line takes the id of its source, computed once per source of the run."""
    sid = _id_rule(scope, dedup == "iso")
    orders = range(1, max_order + 1)
    stream = enumeration.le_sources if scope == "theorem2" else enumeration.ordered_pairs
    items = (x for n in orders for x in stream(_config(n, dedup)))
    if scope == "remark":  # (table, leq, top), for the orders with a greatest element
        items = ((t, o, top) for t, o in items if (top := le.greatest(o)) is not None)
    ids = {}  # theorem2: source -> id
    for item in islice(items, start, None, step):
        if scope == "remark":
            (c1, res), item_id = le.remark_flags(*item), sid(*item[:2])
            flags = c1, res is True, None
        elif scope == "theorem1":
            item_id, flags = sid(*item), ordered.theorem1_flags(*item)
        else:
            structure, source = item
            item_id = ids.get(source)
            if item_id is None:
                item_id = ids[source] = sid(*source)
            flags = le.theorem2_flags(*structure)
        ok = flags[1] if scope == "remark" else flags[0] == flags[1] == flags[2]
        yield _line(item_id, flags, ok), ok


def _witness_str(cond, w, label):
    if isinstance(w, ordered.ConditionWitness):
        return (
            f"X={_set_str(label, w.x)} M={_set_str(label, w.m)}"
            f" Y={_set_str(label, w.y)} element={label(w.violating_element)}"
        )
    mid = "b" if cond == "remark" else "m"
    return f"x={label(w.x)} {mid}={label(w.m)} y={label(w.y)}"


def _usage_error(message):
    print(f"error: {message}", file=sys.stderr)
    return 2


def cmd_verify(args):
    if args.file is not None:
        if args.max_order is not None or args.shard or args.dedup == "iso":
            return _usage_error("--file takes no --max-order, --shard or --dedup iso")
        loaded = storage.load(args.file)
        s = loaded.structure
        if args.scope == "theorem2" and not isinstance(s, le.LeSemigroup):
            return _usage_error("theorem2 requires a le_semigroup file")
        if args.scope == "remark" and le.greatest(s.leq) is None:
            return _usage_error("remark requires a greatest element")
        flags, ok, failed = _check(args.scope, s)
        print(_line(_id_rule(args.scope, False)(*_parts(args.scope, s)), flags, ok))
        for c, w in failed:
            print(f"# witness {c} {_witness_str(c, w, loaded.label)}")
        print(f"# checked=1 failures={0 if ok else 1}")
        return 0 if ok else 1
    if args.max_order is None:
        return _usage_error("--max-order is required without --file")
    start, step = args.shard or (0, 1)
    checked = 0
    failed = []
    for line, ok in _campaign(args.scope, args.max_order, args.dedup, start, step):
        print(line)
        checked += 1
        if not ok:
            failed.append(line.split("\t", 1)[0])
    for sid in failed:
        print(f"# FAILED {sid}")
    print(f"# checked={checked} failures={len(failed)}")
    return 1 if failed else 0


def cmd_classify(args):
    loaded = storage.load(args.file)
    s = loaded.structure
    if args.subset is not None:
        flags = ordered.classify_subset(s, _parse_subset(loaded, args.subset))
    elif isinstance(s, le.PoeSemigroup):
        flags = le.element_class(s, loaded.index_of(args.element))
    else:
        return _usage_error(
            "element classification requires a poe_semigroup or le_semigroup file"
        )
    names = (f.name for f in fields(flags))  # in the order the lines show
    print(" ".join(f"{k}={_fmt_bool(getattr(flags, k))}" for k in names))
    return 0


def cmd_generate(args):
    loaded = storage.load(args.file)
    s = loaded.structure
    if args.subset is not None:
        mask = _parse_subset(loaded, args.subset)
        got = ordered.gen_ideal(s, mask, args.kind)
        want = ordered.least_ideal_oracle(s, mask, args.kind)
        show = partial(_set_str, loaded.label)
    elif isinstance(s, le.LeSemigroup):
        a = loaded.index_of(args.element)
        got = le.gen_element(s, a, args.kind)
        want = le.least_element_oracle(s, a, args.kind)
        show = loaded.label
    else:
        return _usage_error("element generation requires a le_semigroup file")
    print(show(got))
    if got == want:
        print("oracle: match")
        return 0
    print(f"oracle: MISMATCH expected {show(want)}")
    return 1


def cmd_witness(args):
    loaded = storage.load(args.file)
    pair = ordered.intra_regular_witness(
        loaded.structure, loaded.index_of(args.element)
    )
    if pair is None:
        print("none")
    else:
        print(f"({loaded.label(pair[0])}, {loaded.label(pair[1])})")
    return 0


def cmd_enumerate(args):
    start, step = args.shard or (0, 1)
    structures = _stream(args.kind, args.order, args.dedup, start, step)
    structures = islice(structures, args.limit)
    if args.out is not None:
        scope = "theorem2" if args.kind == "le" else "theorem1"
        rule = _id_rule(scope, args.dedup == "iso")
        outdir = Path(args.out)
        count = 0
        try:
            outdir.mkdir(parents=True, exist_ok=True)
            for k, s in enumerate(structures):
                sid = rule(*_parts(scope, s))
                # named by position in the unsharded stream: shards share a DIR
                storage.save(s, outdir / f"{start + k * step:06d}-{sid}.json")
                count += 1
        except OSError as exc:
            print(f"error: {outdir}: {exc.strerror or exc}", file=sys.stderr)
            return 1
        print(f"# wrote={count} dir={outdir}")
    else:
        for s in structures:
            payload = storage.to_payload(s)
            print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    handlers = {
        "enumerate": cmd_enumerate,
        "verify": cmd_verify,
        "classify": cmd_classify,
        "generate": cmd_generate,
        "witness": cmd_witness,
    }
    try:
        status = handlers[args.command](args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader has gone; send what is still buffered to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except (storage.StructureFileError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
