"""Folding-category morphisms: verification, enumeration, pointed checks."""

import random
from collections import Counter
from itertools import combinations, product
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bscomb.errors import InvalidInputError, VerificationError
from bscomb.foldcat import (
    Morphism,
    MorphismViolation,
    PointedMorphism,
    compose,
    enumerate_morphisms,
    subsequence_morphism,
    verify_morphism,
    verify_pointed,
)
from bscomb.gallery import Gallery, ReflSeq, galleries, prefix, twist_seq
from bscomb.rootsys import build_root_system, conjugate_reflection, enumerate_weyl

from conftest import all_seqs, simple_seq


def test_identity_morphism(a2):
    s = simple_seq(a2, 1, 2)
    m = subsequence_morphism(s, s, (1, 2))
    assert m.verified
    for g in galleries(s):
        assert m.phi[g.bits] == g.bits


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


def test_subsequence_requires_p_on_every_source_position(a2):
    # a short p is refused up front, with the Morphism constructor's own
    # message, rather than indexed past its end
    with pytest.raises(InvalidInputError, match="p must be defined on every source position"):
        subsequence_morphism(simple_seq(a2, 1, 1), simple_seq(a2, 1, 1, 1), (1,))


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


def test_phi_keys_must_be_the_source_galleries(a1):
    # a key of the wrong length, with the right number of keys, leaves a
    # gallery of the source without an image: phi-total, as for a missing
    # or an extra key
    s, target, e = simple_seq(a1, 1), simple_seq(a1, 1, 1), a1.identity()
    good = dict(subsequence_morphism(s, target, (1,)).phi)
    for phi in ({(False,): good[(False,)], (True, False): good[(True,)]},
                {(False,): good[(False,)]},
                {**good, (True, True): (True, True)}):
        m = Morphism(s, target, (1,), e, phi)
        assert verify_morphism(m) == MorphismViolation("phi-total", (), None) == _reference_verify(m)
        assert not m.verified


def test_phi_shape_is_found_in_pattern_order(a2):
    # images that are not target patterns (of the wrong length, of the right
    # length but not bits, or not tuples) are reported at the first such
    # gallery in pattern order, whatever order the table was written in; one
    # that an earlier gallery folds onto breaks that gallery's folding equation first
    s = simple_seq(a2, 1, 2)
    good = subsequence_morphism(s, s, (1, 2)).phi
    first, last = (False, False), (True, True)
    backwards = {bits: good[bits] for bits in reversed(list(s.patterns))}
    cases = [({**backwards, first: (False,)}, MorphismViolation("phi-shape", first, None)),
             ({**backwards, last: (True,), first: (False, False, False)},
              MorphismViolation("phi-shape", first, None)),
             ({**backwards, first: ("x", "y")}, MorphismViolation("phi-shape", first, None)),
             ({**backwards, first: [False, False]}, MorphismViolation("phi-shape", first, None)),
             ({**backwards, last: (True,)}, MorphismViolation("folding-equation", (False, True), 1))]
    for phi, expect in cases:
        m = Morphism(s, s, (1, 2), a2.identity(), phi)
        assert verify_morphism(m) == expect == _reference_verify(m)
        assert not m.verified


def test_verified_flag_is_not_a_constructor_argument(a1):
    # a caller cannot vouch for a table: built as verified, a phi that breaks
    # the folding equation would pass verify_pointed on the pointed
    # condition alone, and induced_map would pull back along it
    s, target, e = simple_seq(a1, 1), simple_seq(a1, 1, 1), a1.identity()
    phi = dict(subsequence_morphism(s, target, (1,)).phi)
    phi[(True,)] = (False, True)
    with pytest.raises(TypeError):
        Morphism(s, target, (1,), e, phi, verified=True)
    with pytest.raises(TypeError):
        Morphism(s, target, (1,), e, phi, True)
    bad = Morphism(s, target, (1,), e, phi)
    assert not bad.verified
    assert verify_pointed(PointedMorphism(bad, e, e)) == verify_morphism(bad)
    assert verify_morphism(bad).condition == "folding-equation"
    assert not bad.verified


def test_phi_is_read_only(a1):
    # an edit after verification would keep `verified` true over a table
    # that breaks the folding equation
    s, target, e = simple_seq(a1, 1), simple_seq(a1, 1, 1), a1.identity()
    m = subsequence_morphism(s, target, (1,))
    with pytest.raises(TypeError):
        m.phi[(True,)] = (False, True)
    assert m.phi[(True,)] == (True, False)
    assert verify_pointed(PointedMorphism(m, e, e)) is None
    # the table passed in is copied, so editing it later changes nothing
    phi = dict(m.phi)
    m = Morphism(s, target, (1,), e, phi)
    phi[(True,)] = (False, True)
    assert verify_morphism(m) is None and m.phi[(True,)] == (True, False)


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
    key = (sub.p, sub.w, tuple(sorted(sub.phi.items())))
    assert any((m.p, m.w, tuple(sorted(m.phi.items()))) == key for m in found)
    ident = subsequence_morphism(s, s, (1,))
    key = (ident.p, ident.w, tuple(sorted(ident.phi.items())))
    assert any((m.p, m.w, tuple(sorted(m.phi.items()))) == key
               for m in enumerate_morphisms(s, s))


def test_enumerate_deterministic(a2):
    s = simple_seq(a2, 1)
    target = simple_seq(a2, 1, 2)
    first = [(m.p, m.w, tuple(sorted(m.phi.items()))) for m in enumerate_morphisms(s, target)]
    second = [(m.p, m.w, tuple(sorted(m.phi.items()))) for m in enumerate_morphisms(s, target)]
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


def test_built_morphisms_equal_their_checked_rebuild(a2, b2):
    # compose and enumerate_morphisms wrap the tables they build unchecked;
    # each is what the checking constructor makes of its fields, verified,
    # with a read-only table
    for rs in (a2, b2):
        s, mid, target = simple_seq(rs, 1), simple_seq(rs, 1, 2), simple_seq(rs, 1, 2, 1)
        inner, outer = enumerate_morphisms(s, mid), enumerate_morphisms(mid, target)
        built = inner + outer + [compose(b, a) for a in inner[:4] for b in outer[:4]]
        for m in built:
            assert m == Morphism(m.source, m.target, m.p, m.w, m.phi)
            assert m.verified and type(m.phi) is MappingProxyType
            with pytest.raises(TypeError):
                m.phi[next(iter(m.phi))] = ()


def test_compose_rejects_invalid_composite(a2):
    s = simple_seq(a2, 1)
    bad = Morphism(s, s, (1,), a2.simple_reflection(2),
                   {g.bits: g.bits for g in galleries(s)})
    with pytest.raises(VerificationError):
        compose(subsequence_morphism(s, s, (1,)), bad)


def test_pointed_identity(a2):
    s = simple_seq(a2, 1, 2)
    m = subsequence_morphism(s, s, (1, 2))
    e = a2.identity()
    assert verify_pointed(PointedMorphism(m, e, e)) is None


def test_pointed_subsequence(a2):
    # interleaved stay steps do not change the endpoint, so x~ = x works
    s = simple_seq(a2, 1)
    target = simple_seq(a2, 1, 2)
    m = subsequence_morphism(s, target, (1,))
    for x in enumerate_weyl(a2):
        assert verify_pointed(PointedMorphism(m, x, x)) is None


def test_pointed_refuses_points_of_another_system(a2, b2):
    # A3 and G2 both have 12 roots, so an A3 point fits G2's permutations;
    # the refusal is the one a product of Weyl elements of two systems makes
    g2, a3 = build_root_system("G", 2), build_root_system("A", 3)
    for rs, other in ((a2, b2), (g2, a3)):
        s = simple_seq(rs, 1, 2)
        m = subsequence_morphism(s, s, (1, 2))
        e, foreign = rs.identity(), other.simple_reflection(1)
        for x, x_target in ((foreign, e), (e, foreign)):
            with pytest.raises(InvalidInputError,
                               match="cannot multiply elements of different systems"):
                verify_pointed(PointedMorphism(m, x, x_target))


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


def test_morphism_built_from_a_list_of_positions_stores_a_tuple(a1):
    # a list p used to be stored as given: the morphism built and verified,
    # but did not hash and was unequal to the one built from a tuple
    s, target = simple_seq(a1, 1), simple_seq(a1, 1, 1)
    phi = {(False,): (False, False), (True,): (False, True)}
    listed, tupled = (Morphism(s, target, p, a1.identity(), phi) for p in ([2], (2,)))
    assert verify_morphism(listed) is None
    assert listed.p == (2,) and listed == tupled and hash(listed) == hash(tupled)


BAD_POSITIONS = [(1.5,), ("1",), (True,), (None,)]


@pytest.mark.parametrize("p", BAD_POSITIONS, ids=repr)
def test_morphism_refuses_positions_that_are_not_integers(a2, p):
    # a float or a string used to build, and fail later with TypeError; a
    # bool was read as 1
    s, target = simple_seq(a2, 1), simple_seq(a2, 1, 1)
    with pytest.raises(InvalidInputError, match="p must be a list of integers"):
        Morphism(s, target, p, a2.identity(), {(False,): (True, False), (True,): (True, True)})


@pytest.mark.parametrize("p", BAD_POSITIONS, ids=repr)
def test_subsequence_morphism_refuses_positions_that_are_not_integers(a2, p):
    # the target used to be indexed by p before anything was built
    with pytest.raises(InvalidInputError, match="p must be a list of integers"):
        subsequence_morphism(simple_seq(a2, 1), simple_seq(a2, 1, 1), p)


def _reference_verify(m):
    """verify_morphism as one twisted sequence per gallery, from twist_seq
    and prefix: the reference for the first violation reported.  phi must
    be defined on exactly the galleries of the source; then, gallery by
    gallery in pattern order, its image must equal one of the target's
    patterns before the equations there are read."""
    n, patterns = len(m.source), list(m.target.patterns)
    if set(m.phi) != {gamma.bits for gamma in galleries(m.source)}:
        return MorphismViolation("phi-total", (), None)
    for gamma in galleries(m.source):
        src = twist_seq(m.source, gamma.bits)
        image = m.phi[gamma.bits]
        if image not in patterns:  # compared by ==, so a list is no pattern
            return MorphismViolation("phi-shape", gamma.bits, None)
        tgt = twist_seq(m.target, image)
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
            return MorphismViolation("pointed-condition", gamma.bits, None)
    return None


def _reference_pointed_loop(pm):
    """verify_pointed as one Weyl product w u c per gallery: the reference
    for the loop on root permutations."""
    m = pm.morphism
    if not m.verified:
        bad = verify_morphism(m)
        if bad is not None:
            return bad
    c = pm.x.inv() * m.w.inv() * pm.x_target
    tgt = m.target.prefixes[len(m.target)]
    for bits, u in m.source.prefixes[len(m.source)].items():
        if tgt[m.phi[bits]] != m.w * u * c:
            return MorphismViolation("pointed-condition", bits, None)
    return None


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([("A", 2), ("B", 2), ("G", 2)]), st.data())
def test_pointed_matches_product_loop(system, data):
    rs = build_root_system(*system)
    refls = [rs.reflection(r) for r in rs.roots if r.is_positive]
    order = enumerate_weyl(rs)
    nt = data.draw(st.integers(0, 3), label="target length")
    target = ReflSeq(rs, tuple(data.draw(st.lists(st.sampled_from(refls),
                                                   min_size=nt, max_size=nt))))
    # a subsequence of the target has a morphism into it, the embedding
    keep = data.draw(st.lists(st.booleans(), min_size=nt, max_size=nt), label="p")
    p = tuple(j for j in range(1, nt + 1) if keep[j - 1])
    found = enumerate_morphisms(ReflSeq(rs, tuple(target[j] for j in p)), target)
    m = found[data.draw(st.integers(0, len(found) - 1), label="morphism")]
    x = data.draw(st.sampled_from(order), label="x")
    image_max = m.target.prefixes[nt][m.phi[(False,) * len(p)]]
    fitted = m.w * x * m.w.inv() * image_max
    kind = data.draw(st.sampled_from(["fitted", "mutated", "random"]), label="x~")
    if kind == "mutated":
        fitted = fitted * data.draw(st.sampled_from(refls)).as_weyl()
    elif kind == "random":
        fitted = data.draw(st.sampled_from(order))
    for morphism in (m, Morphism(m.source, target, m.p, m.w, m.phi)):
        pm = PointedMorphism(morphism, x, fitted)
        expect = _reference_pointed_loop(pm)
        assert verify_pointed(pm) == expect
        if kind == "fitted":
            assert expect is None
        elif kind == "mutated":
            assert expect is not None and expect.condition == "pointed-condition"


def _candidate_tables(s, target):
    """Every (p, w, phi) of the generate-and-test loop that enumeration
    replaced, phi propagated from the image of the all-stay gallery."""
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


def _flip(image, j):
    return image[:j] + (not image[j],) + image[j + 1:]


def _broken_tables(rng, phi, w, order, nt):
    """(table, w) pairs around a propagated table, each checked against the
    reference: its seed flipped, several images flipped, an image of the
    wrong length at a gallery other than the seed, and the table itself
    under another w."""
    keys = list(phi)
    if nt:
        seed = keys[0]
        yield {**phi, seed: _flip(phi[seed], rng.randrange(nt))}, w
        flipped = dict(phi)
        for bits in rng.sample(keys, min(3, len(keys))):
            flipped[bits] = _flip(flipped[bits], rng.randrange(nt))
        yield flipped, w
    if len(keys) > 1:
        bits = rng.choice(keys[1:])
        yield {**phi, bits: phi[bits][:-1] if nt and rng.random() < 0.5
               else phi[bits] + (False,)}, w
    yield phi, rng.choice(order)


def test_verify_matches_twist_reference():
    rng = random.Random(9)
    accepted = rejected = pointed_ok = 0
    conditions = Counter()
    for s, target in _reference_pairs():
        order = enumerate_weyl(s.rs)
        for p, w, phi in _candidate_tables(s, target):
            for table, v in _broken_tables(rng, phi, w, order, len(target)):
                m = Morphism(s, target, p, v, table)
                expect = _reference_verify(m)
                assert verify_morphism(m) == expect, (s, target, p, v, table)
                assert m.verified == (expect is None)
                conditions[expect and expect.condition] += 1
            flipped = dict(phi)
            bits = rng.choice(list(phi))
            j = rng.randrange(len(target)) if len(target) else None
            if j is not None:
                flipped[bits] = _flip(flipped[bits], j)
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
    # an image of the wrong length is folded onto from an earlier gallery,
    # which breaks its folding equation there first, or a wall equation before
    assert all(conditions[c] > 1000 for c in
               ("wall-equation", "folding-equation", None)), conditions


def test_enumerate_matches_generate_and_test(a1, a2):
    """Enumeration against generate-and-test: every candidate table checked
    by the reference, kept in candidate order.  Every A1 and A2 pair up to
    length 3, and the seeded B2 pairs of _reference_pairs."""
    pairs = [(s, t) for rs in (a1, a2)
             for s in (x for n in range(4) for x in all_seqs(rs, n))
             for t in (x for n in range(len(s), 4) for x in all_seqs(rs, n))]
    pairs += [(s, t) for s, t in _reference_pairs() if s.rs.family == "B"]
    found = 0
    for s, target in pairs:
        expect = [(p, w, tuple(sorted(phi.items())))
                  for p, w, phi in _candidate_tables(s, target)
                  if _reference_verify(Morphism(s, target, p, w, phi)) is None]
        assert [(m.p, m.w, tuple(sorted(m.phi.items())))
                for m in enumerate_morphisms(s, target)] == expect, (s, target)
        found += len(expect)
    assert found > 10000


def test_morphism_refuses_mixed_root_systems(a2, b2):
    for source in (ReflSeq(a2, ()), simple_seq(a2, 1)):
        target = simple_seq(b2, 1)
        with pytest.raises(InvalidInputError):
            Morphism(source, target, tuple(range(1, len(source) + 1)), a2.identity(),
                     {})
        with pytest.raises(InvalidInputError):
            enumerate_morphisms(source, target)
    # A3 and G2 both have 12 roots, so an A3 permutation fits G2's tables
    g2, a3 = build_root_system("G", 2), build_root_system("A", 3)
    assert len(a3.roots) == len(g2.roots)
    s = simple_seq(g2, 1, 2)
    with pytest.raises(InvalidInputError):
        Morphism(s, s, (1, 2), a3.simple_reflection(1),
                 {g.bits: g.bits for g in galleries(s)})
