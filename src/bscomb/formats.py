"""Text and JSON formats for sequences, galleries, plans, morphisms, and
polynomials, with one parser per grammar and one reader of numerals.

Sequence documents look like "A2: s1 s2 s1" or "A2: [1,1] [1,0]"; Weyl
elements are words in simple reflections ("s1 s2", "e"); galleries are
bitstrings ("101", "-" for the empty gallery); pairs of positions are
"2-6"; plans and morphisms are JSON objects.  Serialization is canonical:
identical objects produce byte-identical structured output.
"""

from __future__ import annotations

import json
import re
from functools import cache

# read as modules, so that parsing a sequence runs none of these layers
from . import foldcat, gkm, nested, poly
from .errors import NUMERAL, InvalidInputError, ParseError
from .gallery import Bits, ReflSeq, serialize_bits
from .rootsys import Root, RootSystem, WeylElement, build_root_system, check_weyl_order

# every numeral is one errors.NUMERAL, so each reads back as it is written
_RS_RE = re.compile(rf"([ABCDG])({NUMERAL})")
_LETTER_RE = re.compile(rf"s({NUMERAL})")
_ROOT_RE = re.compile(rf"s?\[(-?{NUMERAL}(?:,-?{NUMERAL})*)\]")
_PAIR_RE = re.compile(rf"({NUMERAL})-({NUMERAL})")
_JSON_TYPES = {"string": str, "array": (list, tuple), "object": dict}


def _expect(value, kind: str, what: str):
    """A document field of the given JSON type; ParseError for any other."""
    if not isinstance(value, _JSON_TYPES[kind]):
        raise ParseError(f"{what} must be a JSON {kind}, not {value!r}")
    return value


def _fields(doc, what: str, *keys: str) -> list:
    """The values of an object's required keys; ParseError "<what> missing '<key>'"."""
    _expect(doc, "object", what)
    for key in keys:
        if key not in doc:
            raise ParseError(f"{what} missing {key!r}")
    return [doc[key] for key in keys]


def _build(make, *args):
    """make(*args), a value's own InvalidInputError read as a ParseError."""
    try:
        return make(*args)
    except InvalidInputError as exc:
        raise ParseError(str(exc)) from exc


def _number(text: str, kind=int):
    """int or Fraction of text; ParseError for a numeral it refuses (over 4,300 digits)."""
    try:
        return kind(text)
    except ValueError as exc:
        raise ParseError(f"bad numeral {text[:20]!r}: {exc}") from exc


def parse_root_system(text: str, max_weyl: int | None = None) -> RootSystem:
    """A name like "B3"; given max_weyl, rank and |W| are bounded before roots are built."""
    m = _RS_RE.fullmatch(_expect(text, "string", "root system").strip())
    if not m:
        raise ParseError(f"bad root system {text!r}; expected e.g. A2, B3, G2")
    family, rank = m.group(1), _number(m.group(2))
    if max_weyl is not None:
        check_weyl_order(family, rank, max_weyl)
    return _build(build_root_system, family, rank)


def _letter(rs: RootSystem, token: str) -> int | None:
    """i for a token "s<i>" naming a simple reflection of rs; None for other shapes."""
    m = _LETTER_RE.fullmatch(token)
    if m is None:
        return None
    i = _number(m.group(1))
    if not 1 <= i <= rs.rank:
        raise ParseError(f"no simple reflection {token} in rank {rs.rank}")
    return i


def parse_weyl(rs: RootSystem, text: str) -> WeylElement:
    """A word in simple reflections, e.g. "s1 s2 s1"; "e" is the identity."""
    text = _expect(text, "string", "Weyl word").strip()
    w = rs.identity()
    if text in ("", "e"):
        return w
    for token in text.split():
        i = _letter(rs, token)
        if i is None:
            raise ParseError(f"bad Weyl word letter {token!r}")
        w = w * rs.simple_reflection(i)
    return w


def _parse_refl_token(rs: RootSystem, token: str):
    i = _letter(rs, token)
    if i is not None:
        return rs.reflection(rs.simple_roots[i - 1])
    m = _ROOT_RE.fullmatch(token)
    if m is None:
        raise ParseError(f"bad reflection token {token!r}")
    root = Root(tuple(_number(c) for c in m.group(1).split(",")))
    if len(root.coords) != rs.rank:
        raise ParseError(f"root {token} has wrong rank for {rs}")
    if not rs.is_root(root):
        raise ParseError(f"{token} is not a root of {rs}")
    return rs.reflection(root)


def _tokens(rs: RootSystem, body: str) -> ReflSeq:
    """The sequence of whitespace-separated reflection tokens over rs."""
    return ReflSeq(rs, tuple(_parse_refl_token(rs, t) for t in body.split()))


def parse_sequence(text: str, max_weyl: int | None = None) -> ReflSeq:
    """A sequence document "A2: s1 s2" / "A2: [1,1] [1,0]"; "A2:" is empty.
    Given max_weyl, rank and |W| are bounded before the roots are built."""
    if ":" not in _expect(text, "string", "sequence document"):
        raise ParseError("sequence document must look like 'A2: s1 s2'")
    head, _, body = text.partition(":")
    return _tokens(parse_root_system(head, max_weyl), body)


def serialize_sequence(s: ReflSeq) -> str:
    body = " ".join(str(t) for t in s.entries)
    return f"{s.rs}:{' ' + body if body else ''}"


def parse_bits(text: str, n: int) -> Bits:
    """A bit pattern of length n exactly as `serialize_bits` writes it, so
    that two document keys never name the same gallery."""
    text = _expect(text, "string", "gallery bitstring")
    bits = () if text == "-" else tuple(c == "1" for c in text)
    if len(bits) != n or serialize_bits(bits) != text:
        raise ParseError(f"bad gallery bitstring {text!r} for length {n}")
    return bits


# a term is [coefficient[*]][monomial], the monomial factors joined by "*";
# a "*" after the coefficient only joins it to a monomial
_TERM_RE = re.compile(rf"(?:({NUMERAL}(?:/[1-9][0-9]*)?)(?:\*(?=w))?)?(.*)", re.S)
_FACTOR_RE = re.compile(rf"w({NUMERAL})(?:\^({NUMERAL}))?")


def parse_poly(nvars: int, text: str) -> poly.Poly:
    """Canonical sparse form, e.g. "3*w1^2*w2 - 1/2*w2"; "0" is zero.  Spaces
    may stand only at the ends and around a term's sign, as str(Poly) writes."""
    from fractions import Fraction

    text = _expect(text, "string", "polynomial").strip()
    if text in ("0", ""):
        return poly.Poly.zero(nvars)
    terms: dict = {}
    for chunk in re.split(r"\s*(?=[+-])", text):
        if not chunk:
            continue
        sign = -1 if chunk[0] == "-" else 1
        chunk = chunk[1:].lstrip() if chunk[0] in "+-" else chunk
        coeff_text, factors = _TERM_RE.fullmatch(chunk).groups()
        if coeff_text is None and not factors:
            raise ParseError(f"bad polynomial term {chunk!r}")
        coeff = sign * _number(coeff_text or "1", Fraction)
        mono = [0] * nvars
        for factor in factors.split("*") if factors else ():
            m = _FACTOR_RE.fullmatch(factor)
            if m is None:
                raise ParseError(f"bad polynomial term {chunk!r}")
            j = _number(m.group(1))
            if not 1 <= j <= nvars:
                raise ParseError(f"variable w{j} out of range 1..{nvars}")
            mono[j - 1] += _number(m.group(2) or "1")
        key = tuple(mono)
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return poly.Poly.from_dict(nvars, terms)


def _pair_key(r: nested.Pair) -> str:
    return f"{r[0]}-{r[1]}"


def parse_pair(text: str) -> nested.Pair:
    """A pair "a-b" exactly as `_pair_key` writes it, e.g. "2-6"."""
    m = _PAIR_RE.fullmatch(text)
    try:
        if m is None:
            raise ParseError("not two numerals joined by '-'")
        return _number(m[1]), _number(m[2])
    except ParseError as exc:
        raise ParseError(f"bad pair {text!r}; expected like 2-6") from exc


def parse_plan(doc) -> nested.NestedPlan:
    """A decoded plan document, its sequence bare reflection tokens:

    {"root_system": "A4", "sequence": "s4 s1 ...",
     "pairs": [[1,10],[2,6]], "labels": {"1-10": "s2 s3 s4"}}
    """
    root_system, sequence, items, texts = _fields(
        doc, "plan document", "root_system", "sequence", "pairs", "labels")
    rs = parse_root_system(root_system)
    seq = _tokens(rs, _expect(sequence, "string", "plan sequence"))
    pairs = []
    for item in _expect(items, "array", "plan pairs"):
        if (not isinstance(item, (list, tuple)) or len(item) != 2
                or not all(type(v) is int for v in item)):  # JSON true is a bool
            raise ParseError(f"bad pair {item!r}")
        pairs.append((item[0], item[1]))
    # a pair without a label is refused by NestedPlan
    keys, labels = {_pair_key(r): r for r in pairs}, {}
    for key, text in _expect(texts, "object", "plan labels").items():
        if key not in keys:
            raise ParseError(f"label for unknown pair {key!r}")
        labels[keys[key]] = parse_weyl(rs, text)
    return _build(nested.NestedPlan, seq, tuple(pairs), labels)


def plan_to_doc(plan: nested.NestedPlan) -> dict:
    return {
        "root_system": str(plan.seq.rs),
        "sequence": " ".join(str(t) for t in plan.seq.entries),
        "pairs": [list(plan.display(r)) for r in plan.pairs],
        "labels": {_pair_key(plan.display(r)): str(plan.labels[r])
                   for r in plan.pairs},
    }


def parse_morphism(doc) -> foldcat.Morphism:
    """A decoded morphism document, carrying its own source and target
    sequence documents: {"source": "A1: s1", "target": "A1: s1 s1",
    "p": [2], "w": "s1", "phi": {"0": "10", "1": "11"}}."""
    source, target, p, w, phi = _fields(
        doc, "morphism document", "source", "target", "p", "w", "phi")
    source, target = parse_sequence(source), parse_sequence(target)
    return _build(foldcat.Morphism, source, target, _expect(p, "array", "p"),
                  parse_weyl(source.rs, w),
                  {parse_bits(src_text, len(source)): parse_bits(tgt_text, len(target))
                   for src_text, tgt_text in _expect(phi, "object", "phi").items()})


def morphism_docs(source: ReflSeq, target: ReflSeq,
                  ms: list[foldcat.Morphism]) -> list[dict]:
    """Documents for the morphisms ms from source to target, in order.  The
    two sequences are serialised once per call, and so is each distinct Weyl
    element and bit pattern."""
    ends = {"source": serialize_sequence(source), "target": serialize_sequence(target)}
    word, bits_text = cache(str), cache(serialize_bits)
    return [{**ends, "p": list(m.p), "w": word(m.w),
             "phi": {bits_text(b): bits_text(img) for b, img in sorted(m.phi.items())}}
            for m in ms]


def fpfunction_to_doc(g: gkm.FPFunction) -> dict:
    return {
        "root_system": str(g.seq.rs),
        "sequence": serialize_sequence(g.seq),
        "values": {serialize_bits(b): str(p)
                   for b, p in sorted(g.values.items())},
    }


def parse_fpfunction(s: ReflSeq, doc) -> gkm.FPFunction:
    """A decoded function document {"values": {"0": "3", "1": "w1"}}."""
    (values,) = _fields(doc, "function document", "values")
    values = {parse_bits(b, len(s)): parse_poly(s.rs.rank, text)
              for b, text in _expect(values, "object", "function values").items()}
    return _build(gkm.FPFunction, s, values)


def _object(pairs) -> dict:
    """A JSON object's dict; ParseError for a key it repeats."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ParseError(f"repeated key {key!r}")
        doc[key] = value
    return doc


def loads(text: str):
    """A decoded document; ParseError for bad or too deeply nested JSON or a repeated key."""
    try:
        return json.loads(text, object_pairs_hook=_object)
    except (ValueError, RecursionError) as exc:
        raise ParseError(str(exc)) from exc


def dumps(doc) -> str:
    """Canonical structured output: sorted keys, compact separators."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
