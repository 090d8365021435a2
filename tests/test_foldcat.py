"""Folding-category morphisms: verification, enumeration, pointed checks."""

import random
from itertools import combinations, product

import pytest

from bscomb.errors import InvalidInputError, VerificationError
from bscomb.foldcat import (
    Morphism,
    MorphismViolation,
    PointedMorphism,
    compose,
    enumerate_morphisms,
    identity_morphism,
    subsequence_morphism,
    verify_morphism,
    verify_pointed,
)
from bscomb.gallery import Gallery, ReflSeq, galleries, prefix, twist_seq
from bscomb.rootsys import build_root_system, conjugate_reflection, enumerate_weyl

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


def _reference_verify(m):
    """verify_morphism as one twisted sequence per gallery, from twist_seq
    and prefix: the reference for the first violation reported."""
    n, nt = len(m.source), len(m.target)
    if len(m.phi) != 1 << n:
        return MorphismViolation("phi-total", ())
    for bits, image in m.phi.items():
        if len(bits) != n or len(image) != nt:
            return MorphismViolation("phi-shape", bits)
    for gamma in galleries(m.source):
        src = twist_seq(m.source, gamma)
        image = m.phi[gamma.bits]
        tgt = twist_seq(m.target, Gallery(m.target, image))
        for i in range(1, n + 1):
            j = m.p[i - 1]
            if tgt[j] != conjugate_reflection(m.w, src[i]):
                return MorphismViolation("wall-equation", gamma.bits, i)
            folded = gamma.bits[:i - 1] + (not gamma.bits[i - 1],) + gamma.bits[i:]
            expect = image[:j - 1] + (not image[j - 1],) + image[j:]
            if m.phi[folded] != expect:
                return MorphismViolation("folding-equation", gamma.bits, i)
    return None


def _reference_pointed(m, x, x_target):
    bad = _reference_verify(m)
    if bad is not None:
        return bad
    for gamma in galleries(m.source):
        image = Gallery(m.target, m.phi[gamma.bits])
        lhs = x_target * prefix(image, len(m.target)).inv()
        rhs = m.w * x * prefix(gamma, len(m.source)).inv() * m.w.inv()
        if lhs != rhs:
            return MorphismViolation("pointed-condition", gamma.bits)
    return None


def _candidate_tables(s, target):
    """Every (p, w, phi) that enumeration considers, phi propagated from the
    image of the all-stay gallery."""
    n, nt = len(s), len(target)
    for p in combinations(range(1, nt + 1), n):
        for w in enumerate_weyl(s.rs):
            for seed in product((False, True), repeat=nt):
                phi = {}
                for bits in product((False, True), repeat=n):
                    image = list(seed)
                    for i, bit in enumerate(bits):
                        image[p[i] - 1] ^= bit
                    phi[bits] = tuple(image)
                yield p, w, phi


def _reference_pairs():
    """Source/target pairs of shape (n, n~) with n <= 2, n~ <= 3, n <= n~:
    every A1 pair, and six seeded pairs of each shape in A2 and B2."""
    rng = random.Random(5)
    for family, rank, per_shape in (("A", 1, None), ("A", 2, 6), ("B", 2, 6)):
        rs = build_root_system(family, rank)
        refls = [rs.reflection(r) for r in rs.roots if r.is_positive]
        for n in range(3):
            for nt in range(n, 4):
                if per_shape is None:
                    entries = [(e, f) for e in product(refls, repeat=n)
                               for f in product(refls, repeat=nt)]
                else:
                    entries = [(tuple(rng.choice(refls) for _ in range(n)),
                                tuple(rng.choice(refls) for _ in range(nt)))
                               for _ in range(per_shape)]
                for e, f in entries:
                    yield ReflSeq(rs, e), ReflSeq(rs, f)


def test_verify_matches_twist_reference():
    rng = random.Random(9)
    accepted = rejected = pointed_ok = 0
    for s, target in _reference_pairs():
        order = enumerate_weyl(s.rs)
        for p, w, phi in _candidate_tables(s, target):
            flipped = dict(phi)
            bits = rng.choice(list(phi))
            j = rng.randrange(len(target)) if len(target) else None
            if j is not None:
                image = flipped[bits]
                flipped[bits] = image[:j] + (not image[j],) + image[j + 1:]
            for table in (phi, flipped):
                m = Morphism(s, target, p, w, table)
                expect = _reference_verify(m)
                assert verify_morphism(m) == expect, (s, target, p, w, table)
                assert m.verified == (expect is None)
                accepted += expect is None
                rejected += expect is not None
                x = rng.choice(order)
                image_max = target.rs.identity()
                for k, bit in enumerate(table[(False,) * len(s)], start=1):
                    if bit:
                        image_max = image_max * target[k].as_weyl()
                # x~ fitted at the all-stay gallery, then a random one
                for x_target in (w * x * w.inv() * image_max, rng.choice(order)):
                    fresh = Morphism(s, target, p, w, table)
                    expect = _reference_pointed(fresh, x, x_target)
                    got = verify_pointed(PointedMorphism(fresh, x, x_target))
                    assert got == expect, (s, target, p, w, table, x, x_target)
                    pointed_ok += got is None
    assert accepted > 2000 and rejected > 5000 and pointed_ok > 2000


def test_morphism_refuses_mixed_root_systems(a2, b2):
    for source in (ReflSeq(a2, ()), simple_seq(a2, 1)):
        target = simple_seq(b2, 1)
        with pytest.raises(InvalidInputError):
            Morphism(source, target, tuple(range(1, len(source) + 1)), a2.identity(),
                     {})
        with pytest.raises(InvalidInputError):
            enumerate_morphisms(source, target)
