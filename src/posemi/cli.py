"""Command-line harness: enumerate structures, run verification campaigns,
and inspect single structure files.

Campaign report streams are deterministic: one tab-separated line per
structure (id, c1, c2, c3, ok) followed by a summary comment.  Exit status
is nonzero exactly when a validation failure, an oracle discrepancy or an
equivalence failure occurred.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import islice
from pathlib import Path

from . import canon, enumeration, le, ordered, storage


def _fmt_bool(b):
    return "true" if b else "false"


def _parse_shard(text):
    try:
        i, t = (int(v) for v in text.split("/"))
    except ValueError:
        raise argparse.ArgumentTypeError("shard must look like i/t, e.g. 0/4") from None
    if not 0 <= i < t:
        raise argparse.ArgumentTypeError(f"shard {text} must satisfy 0 <= i < t")
    return i, t


def _at_least(least):
    """argparse type: an integer no smaller than least."""

    def parse(text):
        if int(text) < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {text}")
        return int(text)

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
    p.add_argument("--order", required=True, type=_at_least(1))
    p.add_argument("--dedup", choices=["none", "iso"], default="none")
    p.add_argument("--shard", type=_parse_shard, metavar="I/T")
    p.add_argument("--limit", type=_at_least(0))
    p.add_argument("--out", metavar="DIR", help="write one file per structure")

    p = sub.add_parser("verify", help="run a verification campaign")
    p.add_argument("scope", choices=["theorem1", "theorem2", "remark"])
    p.add_argument("--max-order", type=int, dest="max_order")
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


def _parse_subset(loaded, text):
    mask = 0
    for token in (t.strip() for t in text.split(",")):
        if token:
            mask |= 1 << loaded.index_of(token)
    return mask


def _set_str(loaded, mask):
    return "{" + ", ".join(loaded.label(i) for i in ordered.subset_indices(mask)) + "}"


def _report_line(report):
    return "\t".join(
        [
            report.structure_id,
            _fmt_bool(report.c1),
            _fmt_bool(report.c2),
            _fmt_bool(report.c3),
            _fmt_bool(report.equivalence_ok),
        ]
    )


def _structures(scope, max_order, dedup):
    """The structures a campaign checks, in stream order; remark keeps the
    ordered semigroups with a greatest element."""
    dedup_mode = "up_to_iso" if dedup == "iso" else "none"
    for n in range(1, max_order + 1):
        cfg = enumeration.EnumerationConfig(order=n, dedup=dedup_mode)
        if scope == "theorem2":
            yield from enumeration.enumerate_le_semigroups(cfg)
        else:
            for s in enumeration.enumerate_ordered_semigroups(cfg):
                if scope == "theorem1" or le.greatest(s.leq) is not None:
                    yield s


def _campaign(scope, max_order, dedup, shard):
    """Yield (line, ok) per structure of the enumerated universe."""
    start, step = shard or (0, 1)
    for s in islice(_structures(scope, max_order, dedup), start, None, step):
        if scope == "remark":
            poe = le.PoeSemigroup(s.table, s.leq)
            ok = le.check_remark(poe) is True
            yield _remark_line(poe, ok), ok
        elif scope == "theorem1":
            report = ordered.verify_theorem1(s)
            yield _report_line(report), report.equivalence_ok
        else:
            report = le.verify_theorem2(s)
            yield _report_line(report), report.equivalence_ok


def _remark_line(poe, ok):
    sid = canon.ordered_structure_id(poe.table, poe.leq)
    intra = le.is_intra_regular_poe(poe)
    return "\t".join([sid, _fmt_bool(intra), _fmt_bool(ok), "-", _fmt_bool(ok)])


def cmd_verify(args):
    if args.file:
        return _verify_file(args)
    if args.max_order is None:
        print("error: --max-order is required without --file", file=sys.stderr)
        return 2
    cap = enumeration.max_enum_order()
    if not 1 <= args.max_order <= cap:
        print(
            f"error: --max-order must be between 1 and {cap}"
            " (POSEMI_MAX_ORDER overrides the cap)",
            file=sys.stderr,
        )
        return 2
    checked = 0
    failed = []
    for line, ok in _campaign(args.scope, args.max_order, args.dedup, args.shard):
        print(line)
        checked += 1
        if not ok:
            failed.append(line.split("\t", 1)[0])
    for sid in failed:
        print(f"# FAILED {sid}")
    print(f"# checked={checked} failures={len(failed)}")
    return 1 if failed else 0


def _verify_file(args):
    loaded = storage.load(args.file)
    s = loaded.structure
    if args.scope == "theorem1":
        report = ordered.verify_theorem1(s)
        print(_report_line(report))
        for cond, w in report.witnesses:
            print(
                f"# witness {cond} X={_set_str(loaded, w.x)}"
                f" M={_set_str(loaded, w.m)} Y={_set_str(loaded, w.y)}"
                f" element={loaded.label(w.violating_element)}"
            )
        ok = report.equivalence_ok
    elif args.scope == "theorem2":
        if not isinstance(s, le.LeSemigroup):
            print("error: theorem2 requires a le_semigroup file", file=sys.stderr)
            return 2
        report = le.verify_theorem2(s)
        print(_report_line(report))
        for cond, w in report.witnesses:
            print(
                f"# witness {cond} x={loaded.label(w.x)}"
                f" m={loaded.label(w.m)} y={loaded.label(w.y)}"
            )
        ok = report.equivalence_ok
    else:
        if isinstance(s, le.PoeSemigroup):
            poe = s
        else:
            top = le.greatest(s.leq)
            if top is None:
                print("error: remark requires a greatest element", file=sys.stderr)
                return 2
            poe = le.PoeSemigroup(s.table, s.leq, top=top)
        res = le.check_remark(poe)
        ok = res is True
        print(_remark_line(poe, ok))
        if not ok:
            print(
                f"# witness remark x={loaded.label(res.x)}"
                f" b={loaded.label(res.m)} y={loaded.label(res.y)}"
            )
    print(f"# checked=1 failures={0 if ok else 1}")
    return 0 if ok else 1


def cmd_classify(args):
    loaded = storage.load(args.file)
    s = loaded.structure
    if args.subset is not None:
        flags = ordered.classify_subset(s, _parse_subset(loaded, args.subset))
        print(
            f"left={_fmt_bool(flags.left)} right={_fmt_bool(flags.right)}"
            f" quasi={_fmt_bool(flags.quasi)} bi={_fmt_bool(flags.bi)}"
            f" downward_closed={_fmt_bool(flags.downward_closed)}"
            f" nonempty={_fmt_bool(flags.nonempty)}"
        )
        return 0
    if not isinstance(s, le.PoeSemigroup):
        print(
            "error: element classification requires a poe_semigroup or"
            " le_semigroup file",
            file=sys.stderr,
        )
        return 2
    flags = le.element_class(s, loaded.index_of(args.element))
    print(
        f"right={_fmt_bool(flags.right)} left={_fmt_bool(flags.left)}"
        f" bi={_fmt_bool(flags.bi)} quasi={_fmt_bool(flags.quasi)}"
        f" quasi_defined={_fmt_bool(flags.quasi_defined)}"
    )
    return 0


def cmd_generate(args):
    loaded = storage.load(args.file)
    s = loaded.structure
    if args.subset is not None:
        mask = _parse_subset(loaded, args.subset)
        got = ordered.gen_ideal(s, mask, args.kind)
        want = ordered.least_ideal_oracle(s, mask, args.kind)
        print(_set_str(loaded, got))
        if got == want:
            print("oracle: match")
            return 0
        print(f"oracle: MISMATCH expected {_set_str(loaded, want)}")
        return 1
    if not isinstance(s, le.LeSemigroup):
        print("error: element generation requires a le_semigroup file", file=sys.stderr)
        return 2
    a = loaded.index_of(args.element)
    got = le.gen_element(s, a, args.kind)
    want = le.least_element_oracle(s, a, args.kind)
    print(loaded.label(got))
    if got == want:
        print("oracle: match")
        return 0
    print(f"oracle: MISMATCH expected {loaded.label(want)}")
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
    dedup = "up_to_iso" if args.dedup == "iso" else "none"
    cfg = enumeration.EnumerationConfig(
        order=args.order, dedup=dedup, limit=args.limit, shard=args.shard
    )

    def structures():
        if args.kind == "semigroup":
            discrete = [[i == j for j in range(args.order)] for i in range(args.order)]
            for t in enumeration.enumerate_semigroups(cfg):
                yield ordered.OrderedSemigroup(t, discrete)
        elif args.kind == "ordered":
            yield from enumeration.enumerate_ordered_semigroups(cfg)
        else:
            yield from enumeration.enumerate_le_semigroups(cfg)

    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        count = 0
        for i, s in enumerate(structures()):
            if args.kind == "le":
                sid = canon.le_structure_id(s.table, s.join, s.meet)
            else:
                sid = canon.ordered_structure_id(s.table, s.leq)
            path = outdir / f"{i:06d}-{sid}.json"
            path.write_text(
                json.dumps(storage.to_payload(s), indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
            count += 1
        print(f"# wrote={count} dir={outdir}")
    else:
        for s in structures():
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
