"""The value types: immutable, copyable, equal and hashed by their key.

Each row gives a value, one that differs from it only in fields that are
not compared (or, where every field is compared, an equal rebuild), one
that differs in a compared field, the compared fields and the hashed ones.
A value hashes as the tuple of its hashed fields, and raises for it alike
where that tuple holds a dict.
"""

import ast
import copy
from contextlib import suppress
import inspect
import pathlib
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bscomb
from bscomb import foldcat
from bscomb.foldcat import Morphism, MorphismViolation, PointedMorphism, subsequence_morphism
from bscomb.errors import InvalidInputError
from bscomb.gallery import Gallerification, Gallery, ReflSeq, is_gallery_type
from bscomb.gkm import Basis, FPFunction, basis
from bscomb.nested import (
    FactorCertificate,
    FSelection,
    NestedPlan,
    Violation,
    fibre_data,
    restricted_seq,
)
from bscomb.poly import Poly, linear_divisor, root_forms
from bscomb.rootsys import (
    Reflection,
    Root,
    RootSystem,
    WeylElement,
    build_root_system,
    enumerate_weyl,
)

from conftest import simple_seq

RS, FRESH = build_root_system("A", 2), RootSystem("A", 2)
S1, S2 = RS.simple_reflection(1), RS.simple_reflection(2)
SEQ, SEQ_FRESH = simple_seq(RS, 1, 2), simple_seq(FRESH, 1, 2)
CERT = is_gallery_type(simple_seq(RS, 1, 2, 1))
X, Y = Poly.linear(2, [1, 0]), Poly.linear(2, [0, 1])
ONE_POS, TWO_POS = simple_seq(RS, 1), simple_seq(RS, 1, 1)
TABLE = {b: X for b in ONE_POS.patterns}
PLAN = NestedPlan(SEQ, ((1, 2),), {(1, 2): S1 * S2})
EMBED = subsequence_morphism(ONE_POS, TWO_POS, (2,))  # verified
PHI = {(False,): (False, False), (True,): (False, True)}
SWAPPED = {(False,): (False, True), (True,): (False, False)}
B = basis(SEQ)

VALUES = {
    "Root": (Root((1, 0)), Root((1, 0)), Root((0, 1)), ["coords"], ["coords"]),
    "WeylElement": (S1, WeylElement(FRESH, S1.perm), S2, ["perm"], ["perm"]),
    "Reflection": (RS.reflections[0], Reflection(FRESH, 0, Root((9, 9)), None),
                   RS.reflections[1], ["rs", "index"], ["rs", "index"]),
    "ReflSeq": (SEQ, SEQ_FRESH, simple_seq(RS, 2, 1), ["rs", "entries"], ["rs", "entries"]),
    "Gallery": (Gallery(SEQ, (True, False)), Gallery(simple_seq(RS, 2, 2), (True, False)),
                Gallery(SEQ, (False, False)), ["bits"], ["bits"]),
    "Gallerification": (CERT, Gallerification(CERT.x, CERT.t, CERT.gamma),
                        Gallerification(CERT.x * S1, CERT.t, CERT.gamma),
                        ["x", "t", "gamma"], ["x", "t", "gamma"]),
    # packed holds the terms with each monomial packed into one int
    "Poly": (X, Poly(2, (((1, 0), 1),)), Y, ["nvars", "packed"], ["nvars", "packed"]),
    "Divisor": (linear_divisor(X), linear_divisor(Poly.linear(2, [1, 0])), linear_divisor(Y),
                ["product", "pivot", "lead", "coeff", "others"],
                ["product", "pivot", "lead", "coeff", "others"]),
    # the table is compared but not hashed
    "FPFunction": (FPFunction(ONE_POS, TABLE), FPFunction(simple_seq(FRESH, 2), dict(TABLE)),
                   FPFunction(ONE_POS, {b: Y for b in ONE_POS.patterns}), ["values"], []),
    "BasisElement": (B[0], basis(SEQ_FRESH)[0], B[1], ["subset", "function", "bits"],
                     ["subset", "function", "bits"]),
    "Violation": (Violation("c", ((1, 2),)), Violation("c", ((1, 2),)),
                  Violation("c", ((1, 3),)), ["condition", "pairs"], ["condition", "pairs"]),
    # violation is not compared; the label tables make the hash raise
    "NestedPlan": (PLAN, NestedPlan(SEQ_FRESH, ((1, 2),), {(1, 2): S1 * S2}, {}),
                   NestedPlan(SEQ, ((1, 2),), {(1, 2): S2 * S1}),
                   ["seq", "pairs", "labels", "display_pairs"],
                   ["seq", "pairs", "labels", "display_pairs"]),
    "FSelection": (FSelection(((3, 4), (1, 2))), FSelection(((1, 2), (3, 4))),
                   FSelection(((1, 2),)), ["pairs"], ["pairs"]),
    "FactorCertificate": (FactorCertificate(PLAN, (), {}), FactorCertificate(PLAN, (), {}),
                          FactorCertificate(PLAN, (PLAN,), {}),
                          ["base_plan", "fibre_plans", "forward"],
                          ["base_plan", "fibre_plans", "forward"]),
    "MorphismViolation": (MorphismViolation("wall-equation", (True,), 1),
                          MorphismViolation("wall-equation", (True,), 1),
                          MorphismViolation("wall-equation", (True,), None),
                          ["condition", "bits", "position"], ["condition", "bits", "position"]),
    # verified is not compared, and phi is compared but not hashed
    "Morphism": (EMBED, Morphism(ONE_POS, TWO_POS, (2,), RS.identity(), PHI),
                 Morphism(ONE_POS, TWO_POS, (2,), RS.identity(), SWAPPED),
                 ["source", "target", "p", "w", "phi"], ["source", "target", "p", "w"]),
    "PointedMorphism": (PointedMorphism(EMBED, S1, S2),
                        PointedMorphism(Morphism(ONE_POS, TWO_POS, (2,), RS.identity(), PHI),
                                        S1, S2),
                        PointedMorphism(EMBED, S2, S2),
                        ["morphism", "x", "x_target"], ["morphism", "x", "x_target"]),
}


def fields(value):
    return [name for name in type(value).__slots__ if name != "__dict__"]


def hash_or_error(value):
    try:
        return hash(value)
    except TypeError:
        return TypeError


@pytest.mark.parametrize("name", VALUES)
def test_value_type(name):
    value, same, other, compared, hashed = VALUES[name]
    assert type(value).__name__ == name
    for field in fields(value) + ["new_field"]:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    duplicate = copy.copy(value)
    assert type(duplicate) is type(value) and duplicate == value
    assert all(getattr(duplicate, f) is getattr(value, f) for f in fields(value))
    assert value == same and not value != same
    assert value != other and value != tuple(getattr(value, f) for f in compared)
    assert hash_or_error(value) == hash_or_error(same) == hash_or_error(
        tuple(getattr(value, f) for f in hashed))


@pytest.mark.parametrize("name", VALUES)
def test_deepcopy_and_pickle_round_trip(name):
    value = VALUES[name][0]
    for duplicate in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(duplicate) is type(value) and duplicate == value
        assert hash_or_error(duplicate) == hash_or_error(value)


def test_trusted_maker_sets_the_fields_unchecked():
    # each class's maker takes every field in slot order and sets it as
    # given, with no check and no copy; pickle finds it by its qualified name
    for name, (value, *_) in VALUES.items():
        cls, names = type(value), fields(value)
        made = cls._trusted(*(getattr(value, f) for f in names))
        assert type(made) is cls and made is not value
        assert all(getattr(made, f) is getattr(value, f) for f in names)
        assert list(inspect.signature(cls._trusted).parameters) == names
        assert cls._trusted.__qualname__ == f"{name}._trusted"
        assert pickle.loads(pickle.dumps(cls._trusted)) is cls._trusted
    unchecked = WeylElement._trusted(RS, (0,))  # the constructor refuses this perm
    assert unchecked.perm == (0,) and copy.copy(unchecked).perm == (0,)


def test_values_skip_their_constructors_through_the_one_maker():
    # object.__new__ is called in errors.py alone, where Value writes each
    # class's `_trusted`; copies and pickles go through it, not __setstate__
    for path in pathlib.Path(bscomb.__file__).parent.glob("*.py"):
        nodes = list(ast.walk(ast.parse(path.read_text())))
        news = [n for n in nodes if isinstance(n, ast.Attribute) and n.attr == "__new__"
                and isinstance(n.value, ast.Name) and n.value.id == "object"]
        assert not news or path.name == "errors.py", path.name
        assert not any(isinstance(n, ast.FunctionDef) and n.name == "__setstate__"
                       for n in nodes), path.name


def test_basis_copies_are_the_basis_or_built_again():
    # a copy is the basis itself; deepcopy and pickle rebuild through
    # `basis`, which verifies every element again
    assert copy.copy(B) is B
    for duplicate in (copy.deepcopy(B), pickle.loads(pickle.dumps(B))):
        assert type(duplicate) is Basis and duplicate is not B and duplicate.seq == B.seq
        assert list(duplicate) == list(B)
        assert duplicate.columns == B.columns and duplicate.divisors == B.divisors


def test_morphism_rebuild_is_verified_again(monkeypatch):
    # deepcopy and pickle rebuild a morphism through its constructor; only
    # verify_morphism sets the flag, so a verified original is verified again
    unverified = Morphism(ONE_POS, TWO_POS, (2,), RS.identity(), PHI)
    calls, verify = [], foldcat.verify_morphism
    monkeypatch.setattr(foldcat, "verify_morphism", lambda m: calls.append(m) or verify(m))
    for m in (EMBED, unverified):
        for duplicate in (copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
            assert duplicate == m and duplicate.verified is m.verified
            assert duplicate.phi is not m.phi
    assert len(calls) == 2 and all(c.verified for c in calls)


def test_sequence_copies_drop_the_cached_tables():
    # a sequence's prefix and twist tables hold 2^n entries each; its copies
    # and pickles carry the root system and the entries alone, so they are
    # the size of a fresh sequence's (947 bytes here; the tables made 418,263)
    rs = build_root_system("B", 2)
    seq = simple_seq(rs, *[1, 2] * 6)
    assert len(seq.prefixes[-1]) == len(seq.twists) == 2 ** 12
    fresh = len(pickle.dumps(simple_seq(rs, *[1, 2] * 6)))
    assert len(pickle.dumps(seq)) == fresh < 2000
    for duplicate in (copy.deepcopy(seq), pickle.loads(pickle.dumps(seq)), copy.copy(seq)):
        assert duplicate == seq and "prefixes" not in vars(duplicate)
        assert len(pickle.dumps(duplicate)) == fresh
        assert duplicate.prefixes[-1] == seq.prefixes[-1]


def test_root_system_copies_are_the_one_cached_system():
    # a system's copies and pickles rebuild through build_root_system, so
    # they are the cached system and carry none of the tables it has built
    # (C4 pickled its Weyl order and right-product table, 39,394 bytes)
    rs = build_root_system("C", 4)
    fresh = len(pickle.dumps(RootSystem("C", 4)))
    assert len(enumerate_weyl(rs)) == 384 and root_forms(rs)
    assert len(pickle.dumps(rs)) == fresh < 100
    for duplicate in (copy.deepcopy(rs), pickle.loads(pickle.dumps(rs)), copy.copy(rs)):
        assert duplicate is rs
    # a system built apart copies to the cached one, and so do values holding it
    assert copy.deepcopy(FRESH) is RS and pickle.loads(pickle.dumps(FRESH)) is RS
    assert copy.deepcopy(SEQ_FRESH).rs is RS and copy.deepcopy(SEQ_FRESH) == SEQ


def test_reflection_copies_are_the_system_entry():
    # a reflection's copies and pickles are its system's own table entry,
    # and carry neither the Weyl element it caches nor the system's tables
    # (a C4 simple reflection pickled to 163 bytes fresh, and to 280 once
    # as_weyl and enumerate_weyl had run, and unpickled as a new object)
    rs = build_root_system("C", 4)
    t = rs.reflection(rs.simple_roots[0])
    fresh = len(pickle.dumps(t))
    assert t.as_weyl() and len(enumerate_weyl(rs)) == 384
    assert len(pickle.dumps(t)) == fresh < 100
    for duplicate in (pickle.loads(pickle.dumps(t)), copy.deepcopy(t), copy.copy(t)):
        assert duplicate is t is rs.reflections[t.index]
    # so do the entries of a sequence's copies
    assert pickle.loads(pickle.dumps(simple_seq(rs, 1, 2))).entries[0] is t


def test_fpfunction_table_is_read_only():
    # a value written into a checked table would skip the ring check, and
    # copy and concentrate pass values on without another one
    three = Poly.linear(3, [1, 0, 0])
    table = dict(TABLE)
    g = FPFunction(ONE_POS, table)
    with pytest.raises(TypeError):
        g.values[(True,)] = three
    table[(True,)] = three  # the table passed in is copied
    assert g.values[(True,)] == X
    built = basis(SEQ)[1].function  # a table gkm wrote, wrapped without a copy
    with pytest.raises(TypeError):
        built.values[(True, True)] = Y
    assert copy.copy(g) is g
    for duplicate in (copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert duplicate == g and duplicate.values is not g.values
        with pytest.raises(TypeError):
            duplicate.values[(True,)] = three


# the types that only store their arguments: the constructor is the setter
# that errors.Value writes from __slots__
RECORDS = ["Root", "Reflection", "Divisor", "Gallerification", "BasisElement",
           "Violation", "FactorCertificate", "MorphismViolation", "PointedMorphism"]


@pytest.mark.parametrize("name", RECORDS)
def test_record_constructor_is_written_from_its_slots(name):
    value = VALUES[name][0]
    cls, names = type(value), fields(value)
    assert cls.__init__ is cls._fill
    assert list(inspect.signature(cls).parameters) == names
    assert cls.__init__.__qualname__ == f"{name}._fill"
    assert cls.__init__.__module__ == cls.__module__
    for count in (len(names) - 1, len(names) + 1):
        with pytest.raises(TypeError):
            cls(*range(count))
    rebuilt = cls(*(getattr(value, f) for f in names))
    assert rebuilt == value and all(getattr(rebuilt, f) is getattr(value, f) for f in names)
    assert cls(**{f: getattr(value, f) for f in names}) == value


def test_poly_constructor_takes_its_decoded_fields():
    # Poly checks and packs its terms, so its constructor is not the setter:
    # it takes the fields as `terms` decodes them, and a rebuild from them is equal
    assert Poly.__init__ is not Poly._fill
    assert list(inspect.signature(Poly).parameters) == ["nvars", "terms"]
    for count in (1, 3):
        with pytest.raises(TypeError):
            Poly(*range(count))
    assert X.terms == (((1, 0), 1),)
    assert Poly(X.nvars, X.terms) == Poly(nvars=X.nvars, terms=X.terms) == X
    assert Poly(X.nvars, X.terms).packed == X.packed


def test_verified_flag_is_set_only_by_verification():
    unverified = Morphism(ONE_POS, TWO_POS, (2,), RS.identity(), PHI)
    assert EMBED.verified and not unverified.verified
    assert copy.copy(EMBED).verified
    with pytest.raises(TypeError):
        Morphism(ONE_POS, TWO_POS, (2,), RS.identity(), PHI, True)
    # the setter takes every field, verified last; the constructor takes all
    # but verified, and a rebuild of a verified morphism starts unverified
    assert list(inspect.signature(Morphism._fill).parameters) == ["self"] + fields(EMBED)
    assert list(inspect.signature(Morphism).parameters) == fields(EMBED)[:-1]
    assert not Morphism(*(getattr(EMBED, f) for f in fields(EMBED)[:-1])).verified


# each built from lists, and each list field stored as a tuple: the value
# hashes, and equals the one built from tuples
LIST_BUILT = {
    "Root": (lambda: Root([1, 0]), Root((1, 0)), "coords"),
    "WeylElement": (lambda: WeylElement(RS, list(S1.perm)), S1, "perm"),
    "ReflSeq": (lambda: ReflSeq(RS, list(SEQ.entries)), SEQ, "entries"),
    "Gallery": (lambda: Gallery(SEQ, [True, False]), Gallery(SEQ, (True, False)), "bits"),
}


@pytest.mark.parametrize("name", LIST_BUILT)
def test_values_built_from_lists_store_tuples(name):
    make, expected, field = LIST_BUILT[name]
    value = make()
    assert type(getattr(value, field)) is tuple
    assert value == expected and hash(value) == hash(expected)


# pair-like and position-like objects: near misses of the real ones
ATOMS = st.sampled_from([1, 2, 6, 10, True, False, 1.0, 2.0, 10.0, "1", None])
SHAPED = st.one_of(ATOMS, st.text(max_size=3), st.lists(ATOMS, max_size=3),
                   *(st.tuples(*[ATOMS] * k) for k in range(4)))
A4 = build_root_system("A", 4)
SL5 = NestedPlan(simple_seq(A4, 4, 1, 2, 1, 2, 1, 3, 4, 3, 4), ((1, 10), (2, 6)),
                 {(1, 10): A4.simple_reflection(2), (2, 6): A4.simple_reflection(2)})


def _ints(r, n) -> bool:
    """Whether r is a tuple of n ints, a bool not being one."""
    return type(r) is tuple and len(r) == n and all(type(j) is int for j in r)


@settings(max_examples=300, deadline=None)
@given(SHAPED)
@example((True, 10))
@example((1.0, 10))
@example((2.0, 6))
@example([2])
@example("2")
def test_malformed_pairs_and_positions_are_refused(x):
    # every entry point that takes a pair or positions either holds exact
    # int tuples, or answers for x only when x is one, or refuses with
    # InvalidInputError: never a raw TypeError, IndexError or KeyError
    try:
        labels = {x: RS.identity()}
    except TypeError:  # an unhashable x cannot key a label
        labels = {}
    with suppress(InvalidInputError):
        plan = NestedPlan(simple_seq(RS, 1, 2, 1, 2, 1, 2), (x,), labels)
        assert all(_ints(r, 2) for r in plan.pairs)
    with suppress(InvalidInputError):
        assert all(_ints(r, 2) for r in FSelection((x,)).pairs)
    for call in (fibre_data, restricted_seq):
        with suppress(InvalidInputError):
            call(SL5, x)
            assert _ints(x, 2), call.__name__
    for make in (lambda: Morphism(ONE_POS, TWO_POS, x, RS.identity(), PHI),
                 lambda: subsequence_morphism(ONE_POS, TWO_POS, x)):
        with suppress(InvalidInputError):
            assert _ints(make().p, 1)
