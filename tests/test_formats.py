"""Parsing and canonical serialization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bscomb.errors import ParseError
from bscomb.foldcat import enumerate_morphisms, verify_morphism
from bscomb.formats import (
    _pair_key,
    dumps,
    fpfunction_to_doc,
    morphism_docs,
    parse_bits,
    parse_fpfunction,
    parse_morphism,
    parse_pair,
    parse_plan,
    parse_poly,
    parse_root_system,
    parse_sequence,
    parse_weyl,
    plan_to_doc,
    serialize_bits,
    serialize_sequence,
)
from bscomb.gallery import ReflSeq
from bscomb.gkm import FPFunction
from bscomb.nested import NestedPlan
from bscomb.poly import Poly
from bscomb.rootsys import build_root_system

from conftest import simple_seq


def test_parse_root_system():
    assert str(parse_root_system("B3")) == "B3"
    with pytest.raises(ParseError):
        parse_root_system("Z9")
    with pytest.raises(ParseError):
        parse_root_system("A0")


def test_sequence_round_trip():
    for text in ("A2: s1 s2 s1", "A2: s[1,1] s1", "A2:", "B2: s2 s[1,1]"):
        s = parse_sequence(text)
        assert parse_sequence(serialize_sequence(s)).entries == s.entries


def test_sequence_coordinate_tokens():
    s = parse_sequence("A2: [1,1] [1,0]")
    assert serialize_sequence(s) == "A2: s[1,1] s1"


def test_sequence_errors():
    with pytest.raises(ParseError):
        parse_sequence("A2 s1")
    with pytest.raises(ParseError):
        parse_sequence("A2: s9")
    with pytest.raises(ParseError):
        parse_sequence("A2: [2,2]")


def test_parse_weyl(a2):
    assert parse_weyl(a2, "e").is_identity()
    w = parse_weyl(a2, "s1 s2")
    assert w == a2.simple_reflection(1) * a2.simple_reflection(2)
    with pytest.raises(ParseError):
        parse_weyl(a2, "t1")


def test_gallery_round_trip():
    assert parse_bits("101", 3) == (True, False, True)
    assert serialize_bits(parse_bits("101", 3)) == "101"
    with pytest.raises(ParseError):
        parse_bits("10", 3)
    # exactly as serialize_bits writes it, so no two texts name one gallery
    assert parse_bits("-", 0) == ()
    for text, n in (("", 0), (" -", 0), ("-", 1), (" 1", 1), ("1 ", 1), (" 10", 2), ("12", 2)):
        with pytest.raises(ParseError):
            parse_bits(text, n)


def test_poly_round_trip():
    for text in ("3*w1^2*w2 - 1/2*w2", "0", "-w1 + 2", "w1*w2^3", "5"):
        p = parse_poly(2, text)
        assert parse_poly(2, str(p)) == p
    with pytest.raises(ParseError):
        parse_poly(2, "w3")
    with pytest.raises(ParseError):
        parse_poly(2, "3**w1")
    # the coefficient's "*" is optional, and every factor is read
    assert parse_poly(2, "3w1*w2^2*w1") == parse_poly(2, "3*w1^2*w2^2")
    # spaces stand only at the ends and around a term's sign
    assert parse_poly(2, " -  w1+2 ") == parse_poly(2, "-w1 + 2")
    for bad in ("w1*", "w1**w2", "w1w2", "1/0", "3/w1", "*", "w1^", "2*", "*w1",
                "1 0", "w 1", "1 / 2 w 1", "3 w1", "w1 ^2", "3\nw1"):
        with pytest.raises(ParseError):
            parse_poly(2, bad)


def test_plan_round_trip():
    doc = {"root_system": "A4", "sequence": "s4 s1 s2 s1 s2 s1 s3 s4 s3 s4",
           "pairs": [[1, 10], [2, 6]],
           "labels": {"1-10": "s2 s3 s4", "2-6": "s2"}}
    plan = parse_plan(doc)
    again = parse_plan(plan_to_doc(plan))
    assert again.seq.entries == plan.seq.entries
    assert again.pairs == plan.pairs
    assert again.labels == plan.labels


def test_pair_round_trip():
    # plan documents write their label keys in the "a-b" pair grammar
    plan = parse_plan({"root_system": "A4", "sequence": "s4 s1 s2 s1 s2 s1 s3 s4 s3 s4",
                       "pairs": [[1, 10], [2, 6]],
                       "labels": {"1-10": "s2 s3 s4", "2-6": "s2"}})
    keys = plan_to_doc(plan)["labels"]
    assert sorted(parse_pair(k) for k in keys) == sorted(plan.pairs)
    for text in ("1-10", "2-6", "0-0", "12-345"):
        assert "-".join(map(str, parse_pair(text))) == text


@pytest.mark.parametrize("text", ["", "2", "2-", "-6", "2-6-7", "2--6", "a-b", "2-x",
                                  "9" * 5000 + "-1", "02-6", "2-06", "+2-6", " 2-6",
                                  "2-6 ", "1-1_0", "\u0662-6"])
def test_pair_errors(text):
    with pytest.raises(ParseError, match="bad pair"):
        parse_pair(text)


def test_plan_missing_label():
    doc = {"root_system": "A2", "sequence": "s1 s2",
           "pairs": [[1, 2]], "labels": {}}
    # refused by NestedPlan, which states every plan refusal
    with pytest.raises(ParseError, match=r"^pair \(1, 2\) has no label$"):
        parse_plan(doc)


@pytest.mark.parametrize("label", [{"9-9": "s1"}, {"x": 5}, {"1-2 ": "e"}])
def test_plan_label_for_unknown_pair(label):
    doc = {"root_system": "A2", "sequence": "s1 s2",
           "pairs": [[1, 2]], "labels": {"1-2": "e", **label}}
    with pytest.raises(ParseError, match="label for unknown pair"):
        parse_plan(doc)


@pytest.mark.parametrize("pairs", [[[True, 2]], [[1, False]], [[True, False]]])
def test_plan_pairs_refuse_booleans(pairs):
    doc = {"root_system": "A2", "sequence": "s1 s1", "pairs": pairs,
           "labels": {f"{a}-{b}": "e" for a, b in pairs}}
    with pytest.raises(ParseError, match="bad pair"):
        parse_plan(doc)


@pytest.mark.parametrize("p", [[True], [False]])
def test_morphism_positions_refuse_booleans(p):
    doc = {"source": "A1: s1", "target": "A1: s1", "p": p, "w": "e",
           "phi": {"0": "0", "1": "1"}}
    with pytest.raises(ParseError, match="p must be a list of integers"):
        parse_morphism(doc)


def test_morphism_round_trip(a1):
    s = simple_seq(a1, 1)
    target = simple_seq(a1, 1, 1)
    doc = {"source": "A1: s1", "target": "A1: s1 s1",
           "p": [2], "w": "s1", "phi": {"0": "10", "1": "11"}}
    m = parse_morphism(doc)
    assert (m.source, m.target) == (s, target)
    assert verify_morphism(m) is None
    again = parse_morphism(morphism_docs(s, target, [m])[0])
    assert (again.p, again.w, tuple(sorted(again.phi.items()))) == \
        (m.p, m.w, tuple(sorted(m.phi.items())))
    for key in ("source", "target"):
        with pytest.raises(ParseError):
            parse_morphism({k: v for k, v in doc.items() if k != key})


def test_fpfunction_round_trip(a2):
    s = simple_seq(a2, 1, 2)
    g = FPFunction(s, dict.fromkeys(s.patterns, Poly.linear(2, (1, -1))))
    doc = fpfunction_to_doc(g)
    assert parse_fpfunction(s, doc).values == g.values


def test_dumps_canonical():
    assert dumps({"b": 1, "a": [2, 3]}) == '{"a":[2,3],"b":1}'


@settings(max_examples=200, deadline=None)
@given(st.from_regex(r"[0-9]{1,3}-[0-9]{1,3}", fullmatch=True))
def test_pair_reads_back_exactly(text):
    # a pair is accepted exactly when it is written as `_pair_key` writes it
    canonical = all(str(int(side)) == side for side in text.split("-"))
    if canonical:
        assert _pair_key(parse_pair(text)) == text
    else:
        with pytest.raises(ParseError, match="bad pair"):
            parse_pair(text)


@pytest.mark.parametrize("call", [
    lambda: parse_root_system("A02"),
    lambda: parse_sequence("A2: s01"),
    lambda: parse_sequence("A2: s[01,1]"),
    lambda: parse_poly(2, "w01"),
    lambda: parse_poly(2, "w1^02"),
    lambda: parse_poly(2, "03*w1"),
    lambda: parse_poly(2, "3/06"),
], ids=["rank", "letter", "coordinate", "variable", "exponent", "coefficient",
        "denominator"])
def test_leading_zero_is_refused(call):
    with pytest.raises(ParseError):
        call()


SYSTEMS = [("A", 1), ("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3), ("C", 3), ("D", 4)]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(SYSTEMS), st.data())
def test_serializers_round_trip(system, data):
    # every document the serializers write parses back to an equal value
    rs = build_root_system(*system)
    refls = [rs.reflection(r) for r in rs.roots if r.is_positive]
    entries = data.draw(st.lists(st.sampled_from(refls), max_size=3), label="sequence")
    s = ReflSeq(rs, tuple(entries))
    assert parse_sequence(serialize_sequence(s)) == s

    letters = data.draw(st.lists(st.integers(1, rs.rank), max_size=6), label="word")
    w = rs.identity()
    for i in letters:
        w = w * rs.simple_reflection(i)
    assert parse_weyl(rs, str(w)) == w

    def polys():
        monomials = st.tuples(*[st.integers(0, 10 ** 6)] * rs.rank)
        return st.dictionaries(monomials, st.fractions(), max_size=4).map(
            lambda d: Poly.from_dict(rs.rank, d))
    p = data.draw(polys(), label="poly")
    assert parse_poly(rs.rank, str(p)) == p
    g = FPFunction(s, {bits: data.draw(polys()) for bits in s.patterns})
    assert parse_fpfunction(s, fpfunction_to_doc(g)).values == g.values

    n = len(s)
    pairs = ((1, n),) * (n > 0) + ((2, 2),) * (n == 3)
    plan = NestedPlan(s, pairs, {r: w for r in pairs})
    again = parse_plan(plan_to_doc(plan))
    assert (again.seq, again.pairs, again.labels) == (plan.seq, plan.pairs, plan.labels)
    for r in pairs:
        assert parse_pair(_pair_key(r)) == r

    target = ReflSeq(rs, tuple(entries + data.draw(st.lists(st.sampled_from(refls),
                                                              max_size=1), label="extra")))
    ms = enumerate_morphisms(s, target)
    for m, doc in zip(ms, morphism_docs(s, target, ms)):
        again = parse_morphism(doc)
        assert (again.source, again.target, again.p, again.w, dict(again.phi)) == \
            (m.source, m.target, m.p, m.w, dict(m.phi))
