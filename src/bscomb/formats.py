"""Text and JSON formats for sequences, galleries, plans, morphisms, and
polynomials.

Sequence documents look like "A2: s1 s2 s1" or "A2: [1,1] [1,0]"; Weyl
elements are words in simple reflections ("s1 s2", "e"); galleries are
bitstrings ("101", "-" for the empty gallery); plans and morphisms are
JSON objects.  Serialization is canonical: identical objects produce
byte-identical structured output.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .errors import InvalidInputError, ParseError
from .foldcat import Morphism
from .gallery import Bits, Gallery, ReflSeq
from .gkm import FPFunction
from .nested import NestedPlan, Pair
from .poly import Poly
from .rootsys import Root, RootSystem, WeylElement, build_root_system

_RS_RE = re.compile(r"^([ABCDG])(\d+)$")
_JSON_TYPES = {"string": str, "array": (list, tuple), "object": dict}


def _expect(value, kind: str, what: str):
    """A document field of the given JSON type; ParseError for any other."""
    if not isinstance(value, _JSON_TYPES[kind]):
        raise ParseError(f"{what} must be a JSON {kind}, not {value!r}")
    return value


def parse_root_system(text: str) -> RootSystem:
    m = _RS_RE.match(_expect(text, "string", "root system").strip())
    if not m:
        raise ParseError(f"bad root system {text!r}; expected e.g. A2, B3, G2")
    try:
        return build_root_system(m.group(1), int(m.group(2)))
    except Exception as exc:
        raise ParseError(str(exc)) from exc


def parse_weyl(rs: RootSystem, text: str) -> WeylElement:
    """A word in simple reflections, e.g. "s1 s2 s1"; "e" is the identity."""
    text = _expect(text, "string", "Weyl word").strip()
    w = rs.identity()
    if text in ("", "e"):
        return w
    for token in text.split():
        m = re.match(r"^s(\d+)$", token)
        if not m:
            raise ParseError(f"bad Weyl word letter {token!r}")
        try:
            w = w * rs.simple_reflection(int(m.group(1)))
        except Exception as exc:
            raise ParseError(str(exc)) from exc
    return w


def _parse_refl_token(rs: RootSystem, token: str):
    m = re.match(r"^s(\d+)$", token)
    if m:
        i = int(m.group(1))
        if not 1 <= i <= rs.rank:
            raise ParseError(f"no simple reflection {token} in rank {rs.rank}")
        return rs.reflection(rs.simple_roots[i - 1])
    m = re.match(r"^s?\[([-\d,\s]*)\]$", token)
    if m:
        try:
            coords = tuple(int(c) for c in m.group(1).split(","))
        except ValueError as exc:
            raise ParseError(f"bad root coordinates in {token!r}") from exc
        if len(coords) != rs.rank:
            raise ParseError(f"root {token} has wrong rank for {rs}")
        root = Root(coords)
        if not rs.is_root(root):
            raise ParseError(f"{token} is not a root of {rs}")
        return rs.reflection(root)
    raise ParseError(f"bad reflection token {token!r}")


def parse_sequence(text: str) -> ReflSeq:
    """A sequence document "A2: s1 s2" / "A2: [1,1] [1,0]"; "A2:" is empty."""
    if ":" not in _expect(text, "string", "sequence document"):
        raise ParseError("sequence document must look like 'A2: s1 s2'")
    head, _, body = text.partition(":")
    rs = parse_root_system(head)
    tokens = body.split()
    return ReflSeq(rs, tuple(_parse_refl_token(rs, t) for t in tokens))


def serialize_sequence(s: ReflSeq) -> str:
    body = " ".join(str(t) for t in s.entries)
    return f"{s.rs}:{' ' + body if body else ''}"


def parse_gallery(s: ReflSeq, text: str) -> Gallery:
    text = text.strip()
    if text == "-" and len(s) == 0:
        return Gallery(s, ())
    if len(text) != len(s) or any(c not in "01" for c in text):
        raise ParseError(f"bad gallery {text!r} for a sequence of length {len(s)}")
    return Gallery(s, tuple(c == "1" for c in text))


def serialize_bits(bits: Bits) -> str:
    return "".join("1" if b else "0" for b in bits) or "-"


def parse_bits(text: str, n: int) -> Bits:
    text = _expect(text, "string", "gallery bitstring").strip()
    if text == "-" and n == 0:
        return ()
    if len(text) != n or any(c not in "01" for c in text):
        raise ParseError(f"bad gallery bitstring {text!r} for length {n}")
    return tuple(c == "1" for c in text)


_TERM_RE = re.compile(
    r"^(?P<coeff>\d+(?:/0*[1-9]\d*)?)?(?P<star>\*)?(?P<vars>(?:w\d+(?:\^\d+)?)"
    r"(?:\*w\d+(?:\^\d+)?)*)?$")


def parse_poly(nvars: int, text: str) -> Poly:
    """Canonical sparse form, e.g. "3*w1^2*w2 - 1/2*w2"; "0" is zero."""
    text = _expect(text, "string", "polynomial").strip()
    if text in ("0", ""):
        return Poly.zero(nvars)
    chunks = re.split(r"(?=[+-])", text.replace(" ", ""))
    terms: dict = {}
    for chunk in chunks:
        if not chunk:
            continue
        sign = Fraction(1)
        if chunk[0] in "+-":
            sign = Fraction(-1) if chunk[0] == "-" else Fraction(1)
            chunk = chunk[1:]
        m = _TERM_RE.match(chunk)
        if not m or (m.group("coeff") is None and m.group("vars") is None):
            raise ParseError(f"bad polynomial term {chunk!r}")
        coeff = sign * Fraction(m.group("coeff") or 1)
        mono = [0] * nvars
        if m.group("vars"):
            for piece in m.group("vars").split("*"):
                vm = re.match(r"^w(\d+)(?:\^(\d+))?$", piece)
                j = int(vm.group(1))
                if not 1 <= j <= nvars:
                    raise ParseError(f"variable w{j} out of range 1..{nvars}")
                mono[j - 1] += int(vm.group(2) or 1)
        key = tuple(mono)
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return Poly.from_dict(nvars, terms)


def _pair_key(r: Pair) -> str:
    return f"{r[0]}-{r[1]}"


def parse_plan(doc) -> NestedPlan:
    """A decoded plan document:

    {"root_system": "A4", "sequence": "s4 s1 ...",
     "pairs": [[1,10],[2,6]], "labels": {"1-10": "s2 s3 s4"}}
    """
    _expect(doc, "object", "plan document")
    for key in ("root_system", "sequence", "pairs", "labels"):
        if key not in doc:
            raise ParseError(f"plan document missing {key!r}")
    rs = parse_root_system(doc["root_system"])
    body = _expect(doc["sequence"], "string", "plan sequence")
    if ":" in body:
        seq = parse_sequence(body)
        if seq.rs != rs:
            raise ParseError("sequence root system disagrees with the plan")
    else:
        seq = ReflSeq(rs, tuple(_parse_refl_token(rs, t) for t in body.split()))
    pairs = []
    for item in _expect(doc["pairs"], "array", "plan pairs"):
        if (not isinstance(item, (list, tuple)) or len(item) != 2
                or not all(isinstance(c, int) for c in item)):
            raise ParseError(f"bad pair {item!r}")
        pairs.append((item[0], item[1]))
    texts = _expect(doc["labels"], "object", "plan labels")
    labels = {}
    for r in pairs:
        key = _pair_key(r)
        if key not in texts:
            raise ParseError(f"plan labels missing pair {key}")
        labels[r] = parse_weyl(rs, texts[key])
    try:
        return NestedPlan(seq, tuple(pairs), labels)
    except Exception as exc:
        raise ParseError(str(exc)) from exc


def plan_to_doc(plan: NestedPlan) -> dict:
    return {
        "root_system": str(plan.seq.rs),
        "sequence": " ".join(str(t) for t in plan.seq.entries),
        "pairs": [list(plan.display(r)) for r in plan.pairs],
        "labels": {_pair_key(plan.display(r)): str(plan.labels[r])
                   for r in plan.pairs},
    }


def parse_morphism(source: ReflSeq, target: ReflSeq, doc) -> Morphism:
    """A decoded morphism document {"p": [2], "w": "s1", "phi": {"0": "10",
    "1": "11"}}; optional "source"/"target" sequence documents are checked
    for consistency."""
    _expect(doc, "object", "morphism document")
    for key in ("p", "w", "phi"):
        if key not in doc:
            raise ParseError(f"morphism document missing {key!r}")
    for key, seq in (("source", source), ("target", target)):
        if key in doc and parse_sequence(doc[key]) != seq:
            raise ParseError(f"morphism {key} disagrees with the given sequence")
    p = tuple(_expect(doc["p"], "array", "p"))
    if not all(isinstance(j, int) for j in p):
        raise ParseError("p must be a list of integers")
    w = parse_weyl(source.rs, doc["w"])
    phi = {}
    for src_text, tgt_text in _expect(doc["phi"], "object", "phi").items():
        phi[parse_bits(src_text, len(source))] = parse_bits(tgt_text, len(target))
    try:
        return Morphism(source, target, p, w, phi)
    except Exception as exc:
        raise ParseError(str(exc)) from exc


def morphism_to_doc(m: Morphism) -> dict:
    return {
        "source": serialize_sequence(m.source),
        "target": serialize_sequence(m.target),
        "p": list(m.p),
        "w": str(m.w),
        "phi": {serialize_bits(b): serialize_bits(img)
                for b, img in sorted(m.phi.items())},
    }


def fpfunction_to_doc(g: FPFunction) -> dict:
    return {
        "root_system": str(g.seq.rs),
        "sequence": serialize_sequence(g.seq),
        "values": {serialize_bits(b): str(p)
                   for b, p in sorted(g.values.items())},
    }


def parse_fpfunction(s: ReflSeq, doc) -> FPFunction:
    """A decoded function document {"values": {"0": "3", "1": "w1"}}."""
    if "values" not in _expect(doc, "object", "function document"):
        raise ParseError("function document missing 'values'")
    values = {parse_bits(b, len(s)): parse_poly(s.rs.rank, text)
              for b, text in _expect(doc["values"], "object", "function values").items()}
    try:
        return FPFunction(s, values)
    except InvalidInputError as exc:
        raise ParseError(str(exc)) from exc


def dumps(doc) -> str:
    """Canonical structured output: sorted keys, compact separators."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
