"""Command-line harness: enumerate structures, run verification campaigns,
and inspect single structure files.

Campaign report streams are deterministic: one tab-separated line per
structure (id, c1, c2, c3, ok) followed by a summary comment.  `_answers`
builds every line, of a campaign or of `verify --file`, from its scope's
kernel; only the file path then searches witnesses, for the conditions
reported false.  `_id_rule` alone decides ids, also in `enumerate --out`
file names: the bare digest on iso streams, whose structures are their own
canonical forms, else the canonical id, of an le structure's isomorphic
source.  `_tuples` feeds both commands.  `enumerate` writes each record
straight from its tuple (`storage.ordered_record`, `storage.le_record`),
to stdout or, one line per file, to `--out`; structures are built only
from the files the other commands load.

What a run covers is decided here alone, and every flag is checked before
anything is built; `_check_flags` alone caps `--order` and `--max-order`,
by command, kind or scope and dedup mode.  `enumerate` and `verify` take
their shard by one rule, `islice(items, start, None, step)`, from the tuple
streams of `enumeration`; `enumerate --limit` cuts the shard.  islice takes
no step or stop above `sys.maxsize`, and neither do `--shard` and `--limit`.

Exit status is nonzero exactly when a validation failure, an oracle
discrepancy or an equivalence failure occurred; usage errors exit with
status 2.
"""

from __future__ import annotations

import argparse
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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="posemi",
        description="finite ordered-semigroup toolkit: ideals, generators, "
        "intra-regularity and exhaustive verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="emit structure records")
    p.add_argument("--kind", required=True, choices=["semigroup", "ordered", "le"])
    p.add_argument("--order", required=True, type=int)
    p.add_argument("--dedup", choices=["none", "iso"], default="none")
    p.add_argument("--shard", type=_parse_shard, metavar="I/T")
    p.add_argument("--limit", type=int)
    p.add_argument("--out", metavar="DIR", help="write one file per structure")

    p = sub.add_parser("verify", help="run a verification campaign")
    p.add_argument("scope", choices=["theorem1", "theorem2", "remark"])
    p.add_argument("--max-order", type=int)
    p.add_argument("--dedup", choices=["none", "iso"], default="none")
    p.add_argument("--shard", type=_parse_shard, metavar="I/T")
    p.add_argument("--file", help="verify one structure file instead of a universe")

    p = sub.add_parser("classify", help="ideal flags of a subset or element")
    p.add_argument("--file", required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--subset", help="comma-separated indices or names")
    g.add_argument("--element", help="index or name")

    p = sub.add_parser("generate", help="generated ideal or ideal element")
    p.add_argument("--file", required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--subset", help="comma-separated indices or names")
    g.add_argument("--element", help="index or name")
    p.add_argument("--kind", required=True, choices=["left", "right", "quasi"])

    p = sub.add_parser("witness", help="intra-regularity witness for an element")
    p.add_argument("--file", required=True)
    p.add_argument("--element", required=True)

    return parser


ISO_TABLE_CAP = 7  # the iso table search has run at 7: 1,627,672 tables


def _check_flags(parser, args):
    """Check the flag values once the command, its kind or scope and the
    dedup mode are known: a usage error (exit 2) before anything is built.
    An empty --file or --out names no file.  One rule caps the orders: iso
    semigroup and ordered streams take the bare digest as id, so only their
    table search caps them; every other run needs canonical forms (raw ids
    and --out names, the iso le search) and takes canon.DEDUP_CAP."""
    for dest in ("file", "out"):
        if getattr(args, dest, None) == "":
            parser.error(f"argument --{dest}: must not be empty")
    if args.command not in ("enumerate", "verify"):
        return
    use = args.kind if args.command == "enumerate" else args.scope
    if args.dedup == "iso" and use in ("semigroup", "ordered", "theorem1", "remark"):
        cap = ISO_TABLE_CAP, " (the iso table search cap)"
    else:
        cap = canon.DEDUP_CAP, " (the canonicalization cap)"
    bounds = ("order", 1, *cap), ("max_order", 1, *cap), ("limit", 0, sys.maxsize, "")
    for dest, least, most, why in bounds:
        n = getattr(args, dest, None)
        if n is not None and not least <= n <= most:
            bound = f"at least {least}" if n < least else f"at most {most}{why}"
            flag = "--" + dest.replace("_", "-")
            parser.error(f"argument {flag}: must be {bound}, got {n}")


def _parse_subset(loaded, text):
    mask = 0
    for token in (t.strip() for t in text.split(",")):
        if token:
            mask |= 1 << loaded.index_of(token)
    return mask


def _set_str(label, mask):
    return "{" + ", ".join(label(i) for i in ordered.subset_indices(mask)) + "}"


def _tuples(kind, orders, dedup):
    """The enumerated tuples of one kind over orders, in stream order:
    (table, rel) for "ordered", rel the order int (bit a*n + b set iff
    a <= b), and for "semigroup" with the discrete order; ((table, join,
    meet, top), source) for "le"."""
    mode = "up_to_iso" if dedup == "iso" else "none"
    for n in orders:
        cfg = enumeration.EnumerationConfig(n, mode)
        if kind == "le":
            yield from enumeration.le_sources(cfg)
        elif kind == "ordered":
            yield from enumeration.ordered_pairs(cfg)
        else:
            discrete = ordered.order_int([[i == j for j in range(n)] for i in range(n)])
            yield from ((t, discrete) for t in enumeration.enumerate_semigroups(cfg))


def _id_rule(scope, iso):
    """The scope's id function, of (table, rel) or of an le source, the
    (table, join, meet) tuple itself: on an iso stream every structure is
    its own canonical form, so the bare digest is its id.  A raw le stream
    hands every structure relabeled from one source the same source object,
    so theorem2's raw rule is a fresh memo per call keyed by the source's
    identity, one canonical form per source object; it keeps each source
    alive, so no later object takes its id()."""
    if scope != "theorem2":
        return canon.ordered_digest if iso else canon.ordered_structure_id
    if iso:
        return lambda source: canon.le_digest(*source)
    ids = {}
    kept = []

    def source_id(source):
        sid = ids.get(id(source))
        if sid is None:
            kept.append(source)
            sid = ids[id(source)] = canon.le_structure_id(*source)
        return sid

    return source_id


@lru_cache(maxsize=None)  # 24 (flags, ok) at most, over the three scopes
def _tail(flags, ok):
    return "".join("\t" + _fmt_bool(b) for b in (*flags, ok))


def _line(sid, flags, ok):
    """The report line of one structure: its id, c1, c2, c3 and ok."""
    return sid + _tail(flags, ok)


def _answers(scope, items, sid):
    """(line, ok, answer) for each tuple of items: (table, rel) for
    theorem1, (table, rel, top) for remark, rel the order int, and
    ((table, join, meet, top), source) for theorem2.  answer is what the
    scope's kernel returns: (c1, c2, c3) from `theorem1_flags` or
    `theorem2_flags`, (c1, remark) from `remark_flags`.  sid names each
    line, a theorem2 line by its source; no structure object is built."""
    for item in items:
        if scope == "theorem1":
            item_id = sid(*item)
            answer = flags = ordered.theorem1_flags(*item)
        elif scope == "theorem2":
            item_id = sid(item[1])
            answer = flags = le.theorem2_flags(*item[0])
        else:
            item_id, answer = sid(*item[:2]), le.remark_flags(*item)
            flags = answer[0], answer[1] is True, None
        ok = flags[1] if scope == "remark" else flags[0] == flags[1] == flags[2]
        yield _line(item_id, flags, ok), ok, answer


def _campaign(scope, max_order, dedup, start, step):
    """`_answers` for the in-scope tuples of orders 1..max_order at
    positions start, start + step, ...: for remark the (table, rel) pairs
    with a greatest element, with it."""
    kind = "le" if scope == "theorem2" else "ordered"
    items = _tuples(kind, range(1, max_order + 1), dedup)
    if scope == "remark":
        items = (
            (t, o, top) for t, o in items if (top := le.top_of(o, len(t))) is not None
        )
    items = islice(items, start, None, step)
    return _answers(scope, items, _id_rule(scope, dedup == "iso"))


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
    scope = args.scope
    if args.file is not None:
        if args.max_order is not None or args.shard or args.dedup == "iso":
            return _usage_error("--file takes no --max-order, --shard or --dedup iso")
        loaded = storage.load(args.file)
        s = loaded.structure
        item = s.table, ordered.order_int(s.leq)
        if scope == "theorem2":
            if not isinstance(s, le.LeSemigroup):
                return _usage_error("theorem2 requires a le_semigroup file")
            item = (s.table, s.join, s.meet, s.top), (s.table, s.join, s.meet)
        elif scope == "remark":
            if (top := le.greatest(s.leq)) is None:
                return _usage_error("remark requires a greatest element")
            item += (top,)
        [(line, ok, answer)] = _answers(scope, [item], _id_rule(scope, False))
        print(line)
        find = ordered.condition_holds if scope == "theorem1" else le.le_condition_scan
        # a witness for each condition the kernel reports false: the remark's is its own
        if scope == "remark":
            failed = () if answer[1] is True else (("remark", answer[1]),)
        else:
            kinds = zip(("c2", "c3"), ordered.CONDITION_KINDS, answer[1:])
            failed = [(c, find(s, kind)) for c, kind, holds in kinds if not holds]
        for c, w in failed:
            print(f"# witness {c} {_witness_str(c, w, loaded.label)}")
        print(f"# checked=1 failures={0 if ok else 1}")
        return 0 if ok else 1
    if args.max_order is None:
        return _usage_error("--max-order is required without --file")
    start, step = args.shard or (0, 1)
    checked = 0
    failed = []
    write = sys.stdout.write
    for line, ok, _ in _campaign(scope, args.max_order, args.dedup, start, step):
        write(line + "\n")
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
    elif (top := le.greatest(s.leq)) is not None:  # also of an ordered file
        s = le.PoeSemigroup(s.table, s.leq, top)
        flags = le.element_class(s, loaded.index_of(args.element))
    else:
        return _usage_error("element classification requires a greatest element")
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
    items = islice(_tuples(args.kind, [args.order], args.dedup), start, None, step)
    items = islice(items, args.limit)
    # each item becomes its record and the arguments of its id, written from
    # its tuple: an le structure is named by its source
    if args.kind == "le":
        records = ((storage.le_record(*s), (src,)) for s, src in items)
    else:
        records = ((storage.ordered_record(*pair), pair) for pair in items)
    if args.out is None:
        write = sys.stdout.write
        for record, _ in records:
            write(record + "\n")
        return 0
    sid = _id_rule("theorem2" if args.kind == "le" else "theorem1", args.dedup == "iso")
    outdir = Path(args.out)
    count = 0
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        for k, (record, parts) in enumerate(records):
            # named by position in the unsharded stream: shards share a DIR
            path = outdir / f"{start + k * step:010d}-{sid(*parts)}.json"
            path.write_text(record + "\n", encoding="utf-8")
            count += 1
    except OSError as exc:
        print(f"error: {outdir}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    print(f"# wrote={count} dir={outdir}")
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_flags(parser, args)
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
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
