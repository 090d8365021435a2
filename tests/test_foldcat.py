"""Folding-category morphisms: verification, enumeration, pointed checks."""

import random

import pytest

from bscomb.errors import InvalidInputError, VerificationError
from bscomb.foldcat import (
    Morphism,
    PointedMorphism,
    compose,
    enumerate_morphisms,
    identity_morphism,
    subsequence_morphism,
    verify_morphism,
    verify_pointed,
)
from bscomb.gallery import galleries
from bscomb.rootsys import enumerate_weyl

from conftest import all_seqs, simple_seq


def test_identity_morphism(a2):
    s = simple_seq(a2, 1, 2)
    m = identity_morphism(s)
    assert m.verified
    for g in galleries(s):
        assert m.apply(g).bits == g.bits


def test_subsequence_morphism(a2):
    s = simple_seq(a2, 1)
    target = simple_seq(a2, 1, 2)
    m = subsequence_morphism(s, target, (1,))
    assert m.verified
    assert m.phi[(True,)] == (True, False)
    assert m.phi[(False,)] == (False, False)


def test_subsequence_requires_matching_entries(a2):
    with pytest.raises(InvalidInputError):
        subsequence_morphism(simple_seq(a2, 1), simple_seq(a2, 2, 2), (1,))


def test_empty_source_morphism(a2):
    s = simple_seq(a2)
    target = simple_seq(a2, 1, 2)
    m = subsequence_morphism(s, target, ())
    assert m.verified
    assert m.phi[()] == (False, False)


def test_verify_rejects_broken_table(a1):
    s = simple_seq(a1, 1)
    target = simple_seq(a1, 1, 1)
    good = subsequence_morphism(s, target, (1,))
    phi = dict(good.phi)
    phi[(True,)] = (False, True)  # breaks the folding equation at position 1
    bad = Morphism(s, target, (1,), a1.identity(), phi)
    violation = verify_morphism(bad)
    assert violation is not None
    assert not bad.verified


def test_enumerate_a1_example(a1):
    s = simple_seq(a1, 1)
    target = simple_seq(a1, 1, 1)
    found = enumerate_morphisms(s, target)
    hits = [m for m in found
            if m.p == (2,) and m.w == a1.simple_reflection(1)
            and m.phi[(False,)] == (True, False)
            and m.phi[(True,)] == (True, True)]
    assert len(hits) == 1


def test_enumerate_includes_subsequence_and_identity(a2):
    s = simple_seq(a2, 1)
    target = simple_seq(a2, 2, 1)
    found = enumerate_morphisms(s, target)
    sub = subsequence_morphism(s, target, (2,))
    assert any(m.key() == sub.key() for m in found)
    ident = identity_morphism(s)
    assert any(m.key() == ident.key() for m in enumerate_morphisms(s, s))


def test_enumerate_deterministic(a2):
    s = simple_seq(a2, 1)
    target = simple_seq(a2, 1, 2)
    first = [m.key() for m in enumerate_morphisms(s, target)]
    second = [m.key() for m in enumerate_morphisms(s, target)]
    assert first == second
    assert len(set(first)) == len(first)


def test_propagation_path_independence(a2):
    # folding from any gallery of the source reaches the same table
    s = simple_seq(a2, 1, 2)
    target = simple_seq(a2, 1, 2, 1)
    rng = random.Random(3)
    for m in enumerate_morphisms(s, target)[:10]:
        for start in galleries(s):
            bits = list(start.bits)
            image = list(m.phi[start.bits])
            path = list(range(1, len(s) + 1))
            rng.shuffle(path)
            for i in path:
                bits[i - 1] = not bits[i - 1]
                image[m.p[i - 1] - 1] = not image[m.p[i - 1] - 1]
                assert m.phi[tuple(bits)] == tuple(image)


def test_composition_verifies(a2):
    s = simple_seq(a2, 1)
    mid = simple_seq(a2, 1, 2)
    inner = enumerate_morphisms(s, mid)
    outer = enumerate_morphisms(mid, mid)
    for a in inner[:6]:
        for b in outer[:6]:
            c = compose(b, a)
            assert c.verified
            assert c.p == tuple(b.p[j - 1] for j in a.p)
            assert c.w == b.w * a.w


def test_compose_rejects_invalid_composite(a2):
    s = simple_seq(a2, 1)
    bad = Morphism(s, s, (1,), a2.simple_reflection(2),
                   {g.bits: g.bits for g in galleries(s)})
    with pytest.raises(VerificationError):
        compose(identity_morphism(s), bad)


def test_pointed_identity(a2):
    s = simple_seq(a2, 1, 2)
    m = identity_morphism(s)
    e = a2.identity()
    assert verify_pointed(PointedMorphism(m, e, e)) is None


def test_pointed_subsequence(a2):
    # interleaved stay steps do not change the endpoint, so x~ = x works
    s = simple_seq(a2, 1)
    target = simple_seq(a2, 1, 2)
    m = subsequence_morphism(s, target, (1,))
    for x in enumerate_weyl(a2):
        assert verify_pointed(PointedMorphism(m, x, x)) is None


def test_pointed_wrong_target_point(a2):
    s = simple_seq(a2, 1)
    target = simple_seq(a2, 1, 2)
    m = subsequence_morphism(s, target, (1,))
    e = a2.identity()
    violation = verify_pointed(PointedMorphism(m, e, a2.simple_reflection(2)))
    assert violation is not None
    assert violation.condition == "pointed-condition"


def test_p_must_increase(a2):
    s = simple_seq(a2, 1, 2)
    with pytest.raises(InvalidInputError):
        Morphism(s, s, (2, 1), a2.identity(),
                 {g.bits: g.bits for g in galleries(s)})
