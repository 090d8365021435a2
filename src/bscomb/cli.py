"""Batch command-line front end.

Subcommands: gallery-type, fixed-points, project, fibres, basis, decompose,
morphism verify|enumerate|apply, weyl info.  Structured output is canonical
JSON with sorted keys; text output is for humans.  The exit status is 0 on
success, else the `exit_code` of the error class raised (`errors`): 2 parse
error, 3 resource limit, 4 not-in-span or verification failure; 141 when
the reader closes stdout early, and 74 (EX_IOERR) when a write to stdout
fails otherwise, as on a full disk.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from contextlib import suppress

from . import formats, foldcat, gallery, gkm, nested, rootsys
from .errors import (MAX_LENGTH, MAX_WEYL, NUMERAL, BscombError, ParseError,
                     VerificationError, check_bound)


def numeral(text: str) -> int:
    """A bound flag's value, by the grammar's numeral rule (`errors.NUMERAL`);
    argparse turns the ValueError into a usage error."""
    if re.fullmatch(NUMERAL, text) is None:
        raise ValueError(text)
    return int(text)


def _read_doc(arg: str):
    """A document argument: a filename if one exists, else inline JSON."""
    try:
        if arg == "-":
            text = sys.stdin.read()
        elif os.path.exists(arg):
            with open(arg) as fh:
                text = fh.read()
        else:
            text = arg
        return formats.loads(text)
    # a directory or unreadable file, undecodable bytes, or what formats.loads refuses
    except (OSError, ValueError, ParseError) as exc:
        raise ParseError(f"bad JSON document {arg!r}: {exc}") from exc


def _emit(args, doc: dict, text_lines: list[str]) -> None:
    if args.format == "structured":
        print(formats.dumps(doc))
    else:
        for line in text_lines:
            print(line)


def _load_plan(arg: str) -> nested.NestedPlan:
    return nested.require_valid(formats.parse_plan(_read_doc(arg)))


def cmd_gallery_type(args) -> None:
    s = formats.parse_sequence(args.sequence, args.max_weyl)
    check_bound("sequence length", len(s), args.max_length)
    cert = gallery.is_gallery_type(s)  # verified before it is returned
    if cert is None:
        _emit(args, {"gallery_type": False}, ["no labelled gallery exists"])
        return
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


def cmd_fixed_points(args) -> None:
    plan = _load_plan(args.plan)
    check_bound("sequence length", len(plan.seq), args.max_length)
    points = nested.fixed_points(plan)
    bitstrings = [formats.serialize_bits(g) for g in points]
    doc = {"count": len(points), "galleries": bitstrings}
    _emit(args, doc, [f"{len(points)} galleries"] + bitstrings)


def cmd_project(args) -> None:
    plan = _load_plan(args.plan)
    F = nested.FSelection(tuple(formats.parse_pair(t) for t in args.pairs.split(","))
                          if args.pairs else ())
    base = nested.project(plan, F)
    doc = {"base": formats.plan_to_doc(base)}
    lines = [f"s^F = {formats.serialize_sequence(base.seq)}",
             f"R^F = {[list(base.display(r)) for r in base.pairs]}"]
    for r in base.pairs:
        lines.append(f"v^F{base.display(r)} = {base.labels[r]}")
    if args.check_fixed_points:
        check_bound("sequence length", len(plan.seq), args.max_length)
        cert = nested.factor_fixed_points(plan, F)
        doc["fixed_point_count"] = cert.count
        lines.append(f"fixed points factor: verified ({cert.count} galleries)")
    _emit(args, doc, lines)


def cmd_fibres(args) -> None:
    plan = _load_plan(args.plan)
    docs, lines = [], []
    for r in [formats.parse_pair(args.pair)] if args.pair else plan.pairs:
        fib = nested.fibre_data(plan, r)
        docs.append({"pair": list(r), "fibre": formats.plan_to_doc(fib)})
        lines.append(f"fibre at {r}: {formats.serialize_sequence(fib.seq)}"
                     f" with label {plan.labels[r]}")
    _emit(args, {"fibres": docs}, lines)


def cmd_basis(args) -> None:
    s = formats.parse_sequence(args.sequence)
    check_bound("sequence length", len(s), args.max_length)
    elements = gkm.basis(s)
    docs, lines = [], []
    for e in elements:
        func = formats.fpfunction_to_doc(e.function)["values"]
        docs.append({"subset": sorted(e.subset), "values": func})
        lines.append(f"B_{sorted(e.subset)}:")
        lines.extend(f"  {b} -> {p}" for b, p in sorted(func.items()))
    _emit(args, {"basis": docs}, lines)


def cmd_decompose(args) -> None:
    s = formats.parse_sequence(args.sequence)
    check_bound("sequence length", len(s), args.max_length)
    g = formats.parse_fpfunction(s, _read_doc(args.function))
    coeffs = gkm.decompose(g, gkm.basis(s))
    table = {",".join(str(i) for i in sorted(J)) or "-": str(c)
             for J, c in coeffs.items()}
    _emit(args, {"coefficients": table},
          [f"c_[{J}] = {c}" for J, c in sorted(table.items())])


def _load_morphism(args) -> foldcat.Morphism:
    m = formats.parse_morphism(_read_doc(args.morphism))
    check_bound("sequence length", max(len(m.source), len(m.target)), args.max_length)
    return m


def cmd_morphism_verify(args) -> int | None:
    m = _load_morphism(args)
    bad = foldcat.verify_morphism(m)
    if bad is not None:
        _emit(args, {"verified": False, "violation": str(bad)},
              [f"not a morphism: {bad}"])
        return VerificationError.exit_code
    _emit(args, {"verified": True}, ["morphism verified"])


def cmd_morphism_enumerate(args) -> None:
    source = formats.parse_sequence(args.source, args.max_weyl)
    target = formats.parse_sequence(args.target, args.max_weyl)
    check_bound("sequence length", max(len(source), len(target)), args.max_length)
    found = foldcat.enumerate_morphisms(source, target)
    docs = formats.morphism_docs(source, target, found)
    lines = [f"{len(found)} morphisms"]
    for d in docs:
        lines.append(f"p={d['p']} w={d['w']} phi={d['phi']}")
    _emit(args, {"count": len(found), "morphisms": docs}, lines)


def cmd_morphism_apply(args) -> None:
    m = _load_morphism(args)
    bad = foldcat.verify_morphism(m)
    if bad is not None:
        raise VerificationError(f"not a morphism: {bad}")
    g = formats.parse_fpfunction(m.target, _read_doc(args.function))
    result = gkm.induced_map(m, g)
    doc = formats.fpfunction_to_doc(result)
    _emit(args, doc, [f"{b} -> {p}" for b, p in sorted(doc["values"].items())])


def cmd_weyl_info(args) -> None:
    rs = formats.parse_root_system(args.root_system, args.max_weyl)
    elements = rootsys.enumerate_weyl(rs)
    doc = {
        "root_system": str(rs),
        "rank": rs.rank,
        "order": len(elements),
        # the positive half of rs.roots, already in sorted order
        "positive_roots": [list(r.coords) for r in rs.roots[:len(rs.roots) // 2]],
        # breadth-first by length, so the unique longest element comes last
        "longest_element": str(elements[-1]),
    }
    _emit(args, doc, [f"root system {doc['root_system']} (rank {rs.rank})",
                      f"|W| = {doc['order']}",
                      f"positive roots: {doc['positive_roots']}",
                      f"longest element: {doc['longest_element']}"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bscomb", description="Exact Bott-Samelson gallery combinatorics.")
    parser.add_argument("--format", choices=("text", "structured"), default="text")
    # defaults from errors, which holds every bound, so a usage error runs no layer
    parser.add_argument("--max-weyl", type=numeral, default=MAX_WEYL)
    parser.add_argument("--max-length", type=numeral, default=MAX_LENGTH)
    # path -> (help, handler, *arguments), read per call; an argument is a name or
    # (flag, options), a group has no handler, and argparse lists only a help= command
    commands = {
        "gallery-type": ("decide gallery type, print a certificate", cmd_gallery_type, "sequence"),
        "fixed-points": ("list the galleries of a plan", cmd_fixed_points, "plan"),
        "project": ("project a plan along a selection F", cmd_project, "plan",
                    ("--pairs", {"required": True, "help": "e.g. 1-10,2-6"}),
                    ("--check-fixed-points", {"action": "store_true"})),
        "fibres": ("fibre data of a plan", cmd_fibres, "plan",
                   ("--pair", {"help": "restrict to one pair, e.g. 2-6"})),
        "basis": ("the triangular 2^n basis", cmd_basis, "sequence"),
        "decompose": ("decompose a function in the basis", cmd_decompose, "sequence", "function"),
        "morphism": ("folding-category morphisms", None),
        "morphism verify": (None, cmd_morphism_verify, "morphism"),
        "morphism enumerate": (None, cmd_morphism_enumerate, "source", "target"),
        "morphism apply": (None, cmd_morphism_apply, "morphism", "function"),
        "weyl": ("root system information", None),
        "weyl info": (None, cmd_weyl_info, ("--root-system", {"required": True})),
    }
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for path, (text, func, *arguments) in commands.items():
        group, _, name = path.rpartition(" ")
        p = groups[group].add_parser(name, **({"help": text} if text else {}))
        for arg in arguments:
            flag, options = (arg, {}) if isinstance(arg, str) else arg
            p.add_argument(flag, **options)
        if func is None:
            groups[path] = p.add_subparsers(dest="subcommand", required=True)
        else:
            p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args) or 0
        sys.stdout.flush()
        return code
    except BscombError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        # stdout failed: the reader closed it (quietly) or a write failed, as on
        # a full disk.  Point it at devnull, so that the interpreter's flush at
        # exit stays quiet; a stdout in memory (pytest's capture) has no fileno
        closed = isinstance(exc, BrokenPipeError)
        if not closed:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
        with suppress(AttributeError, OSError), open(os.devnull, "w") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
        # 128 + SIGPIPE, as a shell reports a writer that SIGPIPE ended; EX_IOERR
        return 141 if closed else 74


if __name__ == "__main__":
    sys.exit(main())
