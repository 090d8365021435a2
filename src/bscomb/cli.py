"""Batch command-line front end.

Subcommands: gallery-type, fixed-points, project, fibres, basis, decompose,
morphism verify|enumerate|apply, weyl info.  Structured output is canonical
JSON with sorted keys; text output is for humans.  Exit codes: 0 success,
2 parse error, 3 resource limit, 4 not-in-span or verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import formats, foldcat, gallery, gkm, nested, rootsys
from .errors import (
    BscombError,
    InvalidInputError,
    NotInSpanError,
    ParseError,
    ResourceLimitError,
    VerificationError,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_RESOURCE = 3
EXIT_VERIFY = 4


def _read_doc(arg: str):
    """A document argument: a filename if one exists, else inline JSON."""
    if arg == "-":
        text = sys.stdin.read()
    elif os.path.exists(arg):
        with open(arg) as fh:
            text = fh.read()
    else:
        text = arg
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON document {arg!r}: {exc}") from exc


def _emit(args, doc: dict, text_lines: list[str]) -> None:
    if args.format == "structured":
        print(formats.dumps(doc))
    else:
        for line in text_lines:
            print(line)


def _parse_pair(text: str) -> tuple[int, int]:
    try:
        a, b = text.split("-")
        return int(a), int(b)
    except ValueError as exc:
        raise ParseError(f"bad pair {text!r}; expected like 2-6") from exc


def _check_length(args, *seqs) -> None:
    """Apply --max-length; the library's own bound still applies after it."""
    n = max(len(s) for s in seqs)
    if n > args.max_length:
        raise ResourceLimitError(f"sequence length {n} exceeds bound {args.max_length}")


def _load_plan(arg: str) -> nested.NestedPlan:
    plan = formats.parse_plan(_read_doc(arg))
    violation = nested.validate(plan)
    if violation is not None:
        raise InvalidInputError(f"plan is not nested: {violation}")
    return plan


def cmd_gallery_type(args) -> int:
    s = formats.parse_sequence(args.sequence)
    _check_length(args, s)
    rootsys.enumerate_weyl(s.rs, args.max_weyl)
    cert = gallery.is_gallery_type(s)
    if cert is None:
        _emit(args, {"gallery_type": False}, ["no labelled gallery exists"])
        return EXIT_OK
    gallery.verify_gallerification(s, cert)
    doc = {
        "gallery_type": True,
        "x": str(cert.x),
        "t": " ".join(str(t) for t in cert.t.entries),
        "gamma": formats.serialize_bits(cert.gamma.bits),
    }
    _emit(args, doc, [f"gallery type: yes",
                      f"x = {doc['x']}",
                      f"t = {doc['t'] or '(empty)'}",
                      f"gamma = {doc['gamma']}"])
    return EXIT_OK


def cmd_fixed_points(args) -> int:
    plan = _load_plan(args.plan)
    _check_length(args, plan.seq)
    points = nested.fixed_points(plan)
    bitstrings = [formats.serialize_bits(g.bits) for g in points]
    doc = {"count": len(points), "galleries": bitstrings}
    _emit(args, doc, [f"{len(points)} galleries"] + bitstrings)
    return EXIT_OK


def cmd_project(args) -> int:
    plan = _load_plan(args.plan)
    pairs = [_parse_pair(t) for t in args.pairs.split(",")] if args.pairs else []
    if not pairs:
        raise InvalidInputError("projection needs a nonempty selection F")
    F = nested.FSelection.of(plan, pairs)
    base = nested.project(plan, F)
    doc = {"base": formats.plan_to_doc(base)}
    lines = [f"s^F = {formats.serialize_sequence(base.seq)}",
             f"R^F = {[list(base.display(r)) for r in base.pairs]}"]
    for r in base.pairs:
        lines.append(f"v^F{base.display(r)} = {base.labels[r]}")
    if args.check_fixed_points:
        _check_length(args, plan.seq)
        cert = nested.factor_fixed_points(plan, F)
        doc["fixed_point_count"] = cert.count
        lines.append(f"fixed points factor: verified ({cert.count} galleries)")
    _emit(args, doc, lines)
    return EXIT_OK


def cmd_fibres(args) -> int:
    plan = _load_plan(args.plan)
    targets = ([_parse_pair(args.pair)] if args.pair
               else [plan.display(r) for r in plan.pairs])
    display_to_internal = {plan.display(r): r for r in plan.pairs}
    docs, lines = [], []
    for shown in targets:
        r = display_to_internal.get(shown)
        if r is None:
            raise InvalidInputError(f"{shown} is not a pair of the plan")
        fib = nested.fibre_data(plan, r)
        docs.append({"pair": list(shown), "fibre": formats.plan_to_doc(fib)})
        lines.append(f"fibre at {shown}: {formats.serialize_sequence(fib.seq)}"
                     f" with label {plan.labels[r]}")
    _emit(args, {"fibres": docs}, lines)
    return EXIT_OK


def cmd_basis(args) -> int:
    s = formats.parse_sequence(args.sequence)
    _check_length(args, s)
    elements = gkm.basis(s)
    docs, lines = [], []
    for e in elements:
        func = {formats.serialize_bits(b): str(p)
                for b, p in sorted(e.function.values.items())}
        docs.append({"subset": sorted(e.subset), "values": func})
        lines.append(f"B_{sorted(e.subset)}:")
        lines.extend(f"  {b} -> {p}" for b, p in sorted(func.items()))
    _emit(args, {"basis": docs}, lines)
    return EXIT_OK


def cmd_decompose(args) -> int:
    s = formats.parse_sequence(args.sequence)
    _check_length(args, s)
    g = formats.parse_fpfunction(s, _read_doc(args.function))
    coeffs = gkm.decompose(g, gkm.basis(s))
    table = {",".join(str(i) for i in sorted(J)) or "-": str(c)
             for J, c in coeffs.items()}
    _emit(args, {"coefficients": table},
          [f"c_[{J}] = {c}" for J, c in sorted(table.items())])
    return EXIT_OK


def _load_morphism(arg: str) -> foldcat.Morphism:
    doc = _read_doc(arg)
    if not isinstance(doc, dict) or "source" not in doc or "target" not in doc:
        raise ParseError("morphism document needs 'source' and 'target'")
    source = formats.parse_sequence(doc["source"])
    target = formats.parse_sequence(doc["target"])
    return formats.parse_morphism(source, target, doc)


def cmd_morphism_verify(args) -> int:
    m = _load_morphism(args.morphism)
    bad = foldcat.verify_morphism(m)
    if bad is not None:
        _emit(args, {"verified": False, "violation": str(bad)},
              [f"not a morphism: {bad}"])
        return EXIT_VERIFY
    _emit(args, {"verified": True}, ["morphism verified"])
    return EXIT_OK


def cmd_morphism_enumerate(args) -> int:
    source = formats.parse_sequence(args.source)
    target = formats.parse_sequence(args.target)
    _check_length(args, source, target)
    rootsys.enumerate_weyl(source.rs, args.max_weyl)
    found = foldcat.enumerate_morphisms(source, target)
    docs = [formats.morphism_to_doc(m) for m in found]
    lines = [f"{len(found)} morphisms"]
    for d in docs:
        lines.append(f"p={d['p']} w={d['w']} phi={d['phi']}")
    _emit(args, {"count": len(found), "morphisms": docs}, lines)
    return EXIT_OK


def cmd_morphism_apply(args) -> int:
    m = _load_morphism(args.morphism)
    bad = foldcat.verify_morphism(m)
    if bad is not None:
        raise VerificationError(f"not a morphism: {bad}")
    g = formats.parse_fpfunction(m.target, _read_doc(args.function))
    result = gkm.induced_map(m, g)
    doc = formats.fpfunction_to_doc(result)
    _emit(args, doc, [f"{b} -> {p}" for b, p in sorted(doc["values"].items())])
    return EXIT_OK


def cmd_weyl_info(args) -> int:
    rs = formats.parse_root_system(args.root_system)
    elements = rootsys.enumerate_weyl(rs, args.max_weyl)
    positive = [list(r.coords) for r in rs.roots if r.is_positive]
    doc = {
        "root_system": str(rs),
        "rank": rs.rank,
        "order": len(elements),
        "positive_roots": sorted(positive),
        # breadth-first by length, so the unique longest element comes last
        "longest_element": str(elements[-1]),
    }
    _emit(args, doc, [f"root system {doc['root_system']} (rank {rs.rank})",
                      f"|W| = {doc['order']}",
                      f"positive roots: {doc['positive_roots']}",
                      f"longest element: {doc['longest_element']}"])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bscomb",
        description="Exact Bott-Samelson gallery combinatorics.")
    parser.add_argument("--format", choices=("text", "structured"),
                        default="text")
    parser.add_argument("--max-weyl", type=int, default=rootsys.MAX_WEYL)
    parser.add_argument("--max-length", type=int, default=gallery.MAX_LENGTH)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gallery-type", help="decide gallery type, print a certificate")
    p.add_argument("sequence")
    p.set_defaults(func=cmd_gallery_type)

    p = sub.add_parser("fixed-points", help="list the galleries of a plan")
    p.add_argument("plan")
    p.set_defaults(func=cmd_fixed_points)

    p = sub.add_parser("project", help="project a plan along a selection F")
    p.add_argument("plan")
    p.add_argument("--pairs", required=True, help="e.g. 1-10,2-6")
    p.add_argument("--check-fixed-points", action="store_true")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("fibres", help="fibre data of a plan")
    p.add_argument("plan")
    p.add_argument("--pair", help="restrict to one pair, e.g. 2-6")
    p.set_defaults(func=cmd_fibres)

    p = sub.add_parser("basis", help="the triangular 2^n basis")
    p.add_argument("sequence")
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("decompose", help="decompose a function in the basis")
    p.add_argument("sequence")
    p.add_argument("function")
    p.set_defaults(func=cmd_decompose)

    pm = sub.add_parser("morphism", help="folding-category morphisms")
    msub = pm.add_subparsers(dest="subcommand", required=True)
    p = msub.add_parser("verify")
    p.add_argument("morphism")
    p.set_defaults(func=cmd_morphism_verify)
    p = msub.add_parser("enumerate")
    p.add_argument("source")
    p.add_argument("target")
    p.set_defaults(func=cmd_morphism_enumerate)
    p = msub.add_parser("apply")
    p.add_argument("morphism")
    p.add_argument("function")
    p.set_defaults(func=cmd_morphism_apply)

    pw = sub.add_parser("weyl", help="root system information")
    wsub = pw.add_subparsers(dest="subcommand", required=True)
    p = wsub.add_parser("info")
    p.add_argument("--root-system", required=True)
    p.set_defaults(func=cmd_weyl_info)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, InvalidInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (NotInSpanError, VerificationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except BscombError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
