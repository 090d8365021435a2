"""The fixed-point cohomology model: generators, copy/concentration, basis."""

import random
from fractions import Fraction
from operator import mul
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bscomb import gkm, poly
from bscomb.errors import (
    InvalidInputError,
    NotInSpanError,
    ResourceLimitError,
    VerificationError,
)
from bscomb.gallery import ReflSeq, galleries, prefix
from bscomb.gkm import (
    Basis,
    BasisElement,
    FPFunction,
    basis,
    combine,
    concentrate,
    concentration_identity_check,
    copy,
    decompose,
    generator,
    induced_map,
)
from bscomb.foldcat import subsequence_morphism
from bscomb.poly import (
    Poly,
    divide_linear,
    exact_divide,
    linear_divisor,
    root_poly,
    weyl_act,
)
from bscomb.rootsys import RootSystem, WeylElement, build_root_system

from conftest import all_seqs, degree, simple_seq


def rand_poly(rng, rank, max_deg=2):
    terms = {}
    for _ in range(3):
        mono = tuple(rng.randint(0, max_deg) for _ in range(rank))
        terms[mono] = Fraction(rng.randint(-4, 4))
    return Poly.from_dict(rank, terms)


def rand_fp(rng, s):
    return FPFunction(s, {g.bits: rand_poly(rng, s.rs.rank)
                          for g in galleries(s)})


def pointwise(op, *fs):
    """gamma -> op(f_1(gamma), ..., f_k(gamma)) over the first function's sequence."""
    s = fs[0].seq
    return FPFunction(s, {b: op(*(f.values[b] for f in fs)) for b in s.patterns})


def lead_products(s, reference):
    """J -> the product of B_J's lead factors, from `basis_reference(s)`."""
    out = {}
    for J, _, lead in reference:
        product = Poly.const(s.rs.rank, 1)
        for ell in lead:
            product = product * ell
        out[J] = product
    return out


def test_generator_constant_cases(a2):
    s = simple_seq(a2, 1, 2)
    c = root_poly(a2, a2.simple_roots[0])
    g = generator(s, 0, a2.identity(), c)
    assert all(p == c for p in g.values.values())
    unit = generator(s, 2, a2.simple_reflection(1), Poly.const(2, 1))
    assert all(p == Poly.const(2, 1) for p in unit.values.values())


def test_generator_single_letter(a2):
    s = simple_seq(a2, 1)
    a1 = root_poly(a2, a2.simple_roots[0])
    g = generator(s, 1, a2.identity(), a1)
    assert g.values[(False,)] == a1
    assert g.values[(True,)] == a1.scale(-1)


def test_generator_refuses_w_from_another_system():
    # C2 and G2 have B2's rank, so weyl_act alone would accept their w
    b2 = build_root_system("B", 2)
    s, c = simple_seq(b2, 1), Poly.linear(2, (1, 0))
    for family in ("C", "G"):
        w = build_root_system(family, 2).simple_reflection(1)
        with pytest.raises(InvalidInputError, match="^w is from a different root system$"):
            generator(s, 1, w, c)
    # an equal system built apart is the same system
    assert (generator(s, 1, RootSystem("B", 2).simple_reflection(1), c)
            == generator(s, 1, b2.simple_reflection(1), c))


def test_copy_constant(a2):
    s = simple_seq(a2, 1, 2)
    g = copy(s, FPFunction(s.truncated(), dict.fromkeys(s.truncated().patterns,
                                                         Poly.const(2, 7))))
    assert all(p == Poly.const(2, 7) for p in g.values.values())
    # value depends only on the truncation
    for bits in ((False,), (True,)):
        assert g.values[bits + (False,)] == g.values[bits + (True,)]


def test_concentrate_example(a2):
    s = simple_seq(a2, 1, 2)
    a1, a2p = root_poly(a2, a2.simple_roots[0]), root_poly(a2, a2.simple_roots[1])
    nab = concentrate(s, FPFunction(s.truncated(), dict.fromkeys(s.truncated().patterns,
                                                                 Poly.const(2, 1))), True)
    assert nab.values[(False, True)] == a2p
    assert nab.values[(True, True)] == a1 + a2p
    assert not nab.values[(False, False)].terms
    assert not nab.values[(True, False)].terms


def test_concentrate_degree_shift(a2):
    s = simple_seq(a2, 2, 1)
    g = FPFunction(s.truncated(), dict.fromkeys(s.truncated().patterns, Poly.const(2, 3)))
    degrees = [degree(p) for p in concentrate(s, g, True).values.values()]
    assert max(degrees) == max(degree(p) for p in g.values.values()) + 1


def test_concentration_identity(a2, b2):
    rng = random.Random(11)
    for rs in (a2, b2):
        for letters in [(1,), (2, 1), (1, 2, 1), (2, 2, 1, 2)]:
            s = simple_seq(rs, *letters)
            for _ in range(3):
                g = rand_fp(rng, s.truncated())
                assert concentration_identity_check(s, g, True)
                assert concentration_identity_check(s, g, False)


def test_basis_single_letter(a2):
    s = simple_seq(a2, 1)
    elements = basis(s)
    assert len(elements) == 2
    by_subset = {frozenset(e.subset): e for e in elements}
    empty = by_subset[frozenset()]
    assert all(p == Poly.const(2, 1) for p in empty.function.values.values())
    top = by_subset[frozenset({1})]
    assert not top.function.values[(False,)].terms
    assert top.function.values[(True,)] == root_poly(a2, a2.simple_roots[0])


def test_basis_triangularity(a2):
    s = simple_seq(a2, 1, 2, 1)
    products = lead_products(s, basis_reference(s))
    for e in basis(s):
        for bits, p in e.function.values.items():
            support = {i for i, b in enumerate(bits, start=1) if b}
            if not e.subset <= support:
                assert not p.terms
        assert e.bits == tuple(i in e.subset for i in range(1, len(s) + 1))
        lead = e.function.values[e.bits]
        assert lead == products[e.subset]
        assert lead.terms


def test_basis_count(a2):
    for s in all_seqs(a2, 2):
        assert len(basis(s)) == 4


def test_decompose_round_trip(a2):
    rng = random.Random(23)
    s = simple_seq(a2, 1, 2, 1)
    elements = basis(s)
    coeffs = {e.subset: rand_poly(rng, 2) for e in elements}
    g = combine(elements, coeffs)
    recovered = decompose(g, elements)
    assert recovered == coeffs


def test_decompose_zero(a2):
    s = simple_seq(a2, 2, 1)
    out = decompose(FPFunction(s, dict.fromkeys(s.patterns, Poly.zero(2))), basis(s))
    assert all(not c.terms for c in out.values())


def test_decompose_shifted_example(a2):
    s = simple_seq(a2, 1)
    elements = basis(s)
    a2p = root_poly(a2, a2.simple_roots[1])
    g = combine(elements, {frozenset(): Poly.const(2, 3),
                           frozenset({1}): a2p})
    out = decompose(g, elements)
    assert out[frozenset()] == Poly.const(2, 3)
    assert out[frozenset({1})] == a2p


def test_indicator_not_in_span(a2):
    s = simple_seq(a2, 1)
    g = FPFunction(s, {(False,): Poly.const(2, 1), (True,): Poly.zero(2)})
    with pytest.raises(NotInSpanError):
        decompose(g, basis(s))


def test_generators_span_products(a2):
    # products of generator classes decompose in the basis
    s = simple_seq(a2, 1, 2)
    a1 = root_poly(a2, a2.simple_roots[0])
    g1 = generator(s, 1, a2.identity(), a1)
    g2 = generator(s, 2, a2.identity(), root_poly(a2, a2.simple_roots[1]))
    decompose(pointwise(mul, g1, g2), basis(s))
    decompose(pointwise(lambda p, q: p * p + q.scale(2), g1, g2), basis(s))


def test_induced_map_identity(a2):
    rng = random.Random(5)
    s = simple_seq(a2, 1, 2)
    m = subsequence_morphism(s, s, tuple(range(1, len(s) + 1)))
    g = rand_fp(rng, s)
    assert induced_map(m, g).values == g.values


def test_induced_map_requires_verified(a2):
    from bscomb.foldcat import Morphism
    s = simple_seq(a2, 1)
    phi = {g.bits: g.bits for g in galleries(s)}
    m = Morphism(s, s, (1,), a2.identity(), phi)
    with pytest.raises(InvalidInputError):
        induced_map(m, FPFunction(s, dict.fromkeys(s.patterns, Poly.const(2, 1))))


def test_fpfunction_table_must_be_total(a2):
    s = simple_seq(a2, 1)
    with pytest.raises(InvalidInputError):
        FPFunction(s, {(False,): Poly.zero(2)})
    zero = Poly.zero(2)
    s2 = simple_seq(a2, 1, 2)
    # the right number of keys, one of them of the wrong length
    with pytest.raises(InvalidInputError):
        FPFunction(s2, {(False, False): zero, (False, True): zero,
                        (True, False): zero, (True,): zero})
    # the right number of keys, one holding an entry that is not a boolean
    with pytest.raises(InvalidInputError):
        FPFunction(s2, {(False, False): zero, (False, True): zero,
                        (True, False): zero, (True, None): zero})


# -- combine and decompose against the term-by-term reference ------------------

def combine_reference(basis_elements, coeffs):
    """sum c_J B_J by visiting all 4^n (J, gamma) pairs, one Poly at a time."""
    s = basis_elements[0].function.seq
    elems = {e.subset: e for e in basis_elements}
    values = {}
    for bits in s.patterns:
        total = Poly.zero(s.rs.rank)
        for J, c in coeffs.items():
            total = total + elems[J].function.values[bits] * c
        values[bits] = total
    return FPFunction(s, values)


def divide_by_factors(p, factors):
    """p divided by each linear form in turn; None at the first inexact step."""
    for ell in factors:
        p, rem = divide_linear(p, linear_divisor(ell))
        if rem.terms:
            return None
    return p


def first_failure_reference(g, basis_elements):
    """(subset, residue string) where the term-by-term residue chain of
    decompose first fails to divide, one lead factor of `basis_reference`
    at a time, or None when g is in the span."""
    elems = {e.subset: e for e in basis_elements}
    leads = {J: lead for J, _, lead in basis_reference(g.seq)}
    coeffs = {}
    for J in sorted(elems, key=lambda J: (len(J), sorted(J))):
        bits = elems[J].bits
        residue = g.values[bits]
        for Jp, c in coeffs.items():
            if Jp < J:
                residue = residue + (c * elems[Jp].function.values[bits]).scale(-1)
        q = divide_by_factors(residue, leads[J])
        if q is None:
            return sorted(J), str(residue)
        coeffs[J] = q
    return None


REFERENCE_SYSTEMS = [("A", 2), ("B", 2), ("G", 2)]


def reference_seqs(rs, rng):
    """Simple-letter sequences of every length up to 4 and one random
    sequence of arbitrary reflections per length."""
    refls = [rs.reflection(r) for r in rs.roots if r.is_positive]
    seqs = []
    for n in range(1, 5):
        seqs.append(simple_seq(rs, *[(k % rs.rank) + 1 for k in range(n)]))
        seqs.append(ReflSeq(rs, tuple(rng.choice(refls) for _ in range(n))))
    return seqs


def rand_frac_poly(rng, rank, min_terms=0):
    """Up to three terms, some coefficients fractional, zero allowed."""
    return Poly.from_dict(rank, {
        tuple(rng.randint(0, 2) for _ in range(rank)):
            Fraction(rng.randint(1, 5) * rng.choice((-1, 1)), rng.choice((1, 1, 2, 3)))
        for _ in range(rng.randint(min_terms, 3))})


@pytest.mark.parametrize("family,rank", REFERENCE_SYSTEMS)
def test_combine_matches_reference(family, rank):
    rs = build_root_system(family, rank)
    rng = random.Random(f"combine {family}{rank}")
    for s in reference_seqs(rs, rng):
        elements = basis(s)
        subsets = [e.subset for e in elements]
        cases = [
            {J: rand_frac_poly(rng, rank) for J in subsets},
            # partial: a random half of the subsets
            {J: rand_frac_poly(rng, rank) for J in rng.sample(subsets, len(subsets) // 2)},
            # explicit zero coefficients beside nonzero ones
            {J: (Poly.zero(rank) if k % 2 else rand_frac_poly(rng, rank))
             for k, J in enumerate(subsets)},
            {J: Poly.zero(rank) for J in subsets},
        ]
        for coeffs in cases:
            got = combine(elements, coeffs)
            assert got.seq == s
            assert got.values == combine_reference(elements, coeffs).values


@pytest.mark.parametrize("family,rank", REFERENCE_SYSTEMS)
def test_decompose_failure_matches_reference(family, rank):
    rs = build_root_system(family, rank)
    rng = random.Random(f"span {family}{rank}")
    failures = 0
    for s in reference_seqs(rs, rng):
        elements = basis(s)
        inside = combine(elements, {e.subset: rand_frac_poly(rng, rank) for e in elements})
        bump = rng.choice(sorted(s.patterns))
        candidates = [
            rand_fp(rng, s),
            # in the span except for a constant added at one gallery
            FPFunction(s, {b: p + Poly.const(rank, 1) if b == bump else p
                           for b, p in inside.values.items()}),
            inside,
        ]
        for g in candidates:
            expected = first_failure_reference(g, elements)
            if expected is None:
                decompose(g, elements)
                continue
            failures += 1
            with pytest.raises(NotInSpanError) as info:
                decompose(g, elements)
            assert (info.value.subset, str(info.value.remainder)) == expected
    assert failures >= 8


def test_decompose_refuses_a_basis_of_another_sequence(a2):
    s = simple_seq(a2, 1, 2)
    g = combine(basis(s), {frozenset({1}): Poly.const(2, 1)})
    # same length, other entries: the divisions would run and fail
    with pytest.raises(InvalidInputError, match="^basis of a different sequence$"):
        decompose(g, basis(simple_seq(a2, 2, 1)))
    # other length: the bit patterns would not be keys of g
    with pytest.raises(InvalidInputError, match="^basis of a different sequence$"):
        decompose(g, basis(simple_seq(a2, 1)))
    # an equal sequence built separately is the same sequence
    assert decompose(g, basis(simple_seq(a2, 1, 2)))[frozenset({1})] == Poly.const(2, 1)


NOT_A_BASIS = "^not a Basis; build one with gkm.basis$"


def test_decompose_refuses_an_empty_basis(a2):
    s = simple_seq(a2, 1)
    with pytest.raises(InvalidInputError, match=NOT_A_BASIS):
        decompose(FPFunction(s, dict.fromkeys(s.patterns, Poly.const(2, 1))), [])


def test_combine_refuses_an_empty_basis(a2):
    with pytest.raises(InvalidInputError, match=NOT_A_BASIS):
        combine([], {})
    with pytest.raises(InvalidInputError, match=NOT_A_BASIS):
        combine([], {frozenset(): Poly.const(2, 1)})


def test_combine_refuses_a_coefficient_outside_the_basis(a2):
    outside = "^coefficient of a subset outside the basis$"
    with pytest.raises(InvalidInputError, match=outside):
        combine(basis(simple_seq(a2, 1, 2)), {frozenset({3}): Poly.const(2, 1)})
    # every subset of a shorter sequence's basis is a subset here, not the converse
    with pytest.raises(InvalidInputError, match=outside):
        combine(basis(simple_seq(a2, 1)), {frozenset({2}): Poly.const(2, 1)})


def test_combine_and_decompose_refuse_a_plain_list(b2):
    # only `basis` builds a Basis: its own elements in a list, elements built
    # by hand, and an empty list are refused, and decompose divides nothing
    s = simple_seq(b2, 1, 2, 1)
    elements = basis(s)
    coeffs = {e.subset: Poly.const(2, 1) for e in elements}
    g = combine(elements, coeffs)
    hand_built = [BasisElement(J, FPFunction(s, values), e.bits)
                  for (J, values, _), e in zip(basis_reference(s), elements)]
    divide, calls = poly.divide_linear, []

    def counting(p, d):
        calls.append(1)
        return divide(p, d)

    with mock.patch.object(poly, "divide_linear", counting):
        for plain in (list(elements), hand_built, []):
            with pytest.raises(InvalidInputError, match=NOT_A_BASIS):
                combine(plain, coeffs)
            with pytest.raises(InvalidInputError, match=NOT_A_BASIS):
                decompose(g, plain)
        assert not calls
        assert decompose(g, elements) == coeffs
    assert calls  # the count sees a decomposition's divisions


@pytest.mark.parametrize("n", [1, 3, 5])
def test_decompose_divides_once_per_nonempty_subset(b2, n):
    # one division by each lead value, none by B_empty = 1: 2^n - 1 in all,
    # where dividing by one lead factor at a time makes n 2^(n-1)
    s = simple_seq(b2, *[1 + k % 2 for k in range(n)])
    elements = basis(s)
    rng = random.Random(n)
    coeffs = {e.subset: rand_frac_poly(rng, 2, 1) for e in elements}
    g = combine(elements, coeffs)
    divide, calls = poly.divide_linear, []

    def counting(p, d):
        calls.append(d)
        return divide(p, d)

    with mock.patch.object(poly, "divide_linear", counting):
        assert decompose(g, elements) == coeffs
    assert len(calls) == 2 ** n - 1
    assert calls == list(elements.divisors)


def test_decompose_refuses_a_wrong_reconstruction(a2):
    # every division is exact, but the recombination is off by a constant
    s = simple_seq(a2, 1, 2)
    elements = basis(s)
    g = combine(elements, {frozenset({1}): Poly.const(2, 1)})
    combine_, one = gkm.combine, Poly.const(2, 1)

    def off(b, coeffs):
        f = combine_(b, coeffs)
        return FPFunction(f.seq, {bits: p + one for bits, p in f.values.items()})

    with mock.patch.object(gkm, "combine", off):
        with pytest.raises(VerificationError, match="^decomposition failed to reconstruct g$"):
            decompose(g, elements)


# -- basis, generator and the identity check against the per-object recursion --

def basis_reference(s):
    """The recursion B_J is defined by, one validated FPFunction per step:
    copy at positions outside J and concentrate at t = s_k inside, each
    over its own prefix sequence."""
    level = {frozenset(): FPFunction(ReflSeq(s.rs, ()), {(): Poly.const(s.rs.rank, 1)})}
    for k in range(1, len(s) + 1):
        sk = ReflSeq(s.rs, s.entries[:k])
        nxt = {}
        for J, f in level.items():
            nxt[J] = copy(sk, f)
            nxt[J | {k}] = concentrate(sk, f, True)
        level = nxt
    neg_alphas = [root_poly(s.rs, t.root).scale(-1) for t in s.entries]
    out = []
    for J in sorted(level, key=lambda J: (len(J), sorted(J))):
        bits = tuple(i + 1 in J for i in range(len(s)))
        lead = tuple(weyl_act(s.prefixes[i][bits[:i]], neg_alphas[i - 1]) for i in sorted(J))
        out.append((J, level[J].values, lead))
    return out


def generator_reference(s, i, w, c):
    """gamma -> (gamma^i w) . c with one Weyl product per gallery."""
    table = s.prefixes[i]
    return FPFunction(s, {b: weyl_act(table[b[:i]] * w, c) for b in s.patterns})


def identity_check_reference(s, g, cross):
    """nabla_t g = -1/2 (Sigma(s,n-1,1)*(t alpha_n) + Sigma(s,n,1)*(alpha_n)) . Delta g,
    with the factor scaled by -1/2 as written.  Reads `gkm.concentrate` at
    call time, as the library's check does, so both see a patched one."""
    n = len(s)
    alpha = root_poly(s.rs, s[n].root)
    t_alpha = weyl_act(s[n].as_weyl(), alpha) if cross else alpha
    factor = pointwise(lambda p, q: (p + q).scale(Fraction(-1, 2)),
                       generator(s, n - 1, s.rs.identity(), t_alpha),
                       generator(s, n, s.rs.identity(), alpha))
    return gkm.concentrate(s, g, cross).values == pointwise(mul, factor, copy(s, g)).values


ORACLE_SYSTEMS = [build_root_system(f, r) for f, r in (("A", 2), ("B", 2), ("G", 2), ("B", 3))]


@st.composite
def sequences(draw, min_size=0, max_size=6, systems=ORACLE_SYSTEMS):
    """A sequence of arbitrary (not only simple) reflections in one of the
    systems, by default A2, B2, G2 or B3."""
    rs = draw(st.sampled_from(systems))
    refls = [rs.reflection(r) for r in rs.roots if r.is_positive]
    return ReflSeq(rs, tuple(draw(st.lists(st.sampled_from(refls),
                                           min_size=min_size, max_size=max_size))))


def nonsimple_seq(family, rank, n):
    """A fixed sequence of length n that cycles through every positive root."""
    rs = build_root_system(family, rank)
    refls = [rs.reflection(r) for r in rs.roots if r.is_positive]
    return ReflSeq(rs, tuple(refls[(3 * k + 1) % len(refls)] for k in range(n)))


@settings(max_examples=40, deadline=None)
@given(sequences())
@example(ReflSeq(build_root_system("A", 2), ()))
@example(nonsimple_seq("B", 3, 6))
@example(nonsimple_seq("G", 2, 6))
def test_basis_matches_reference(s):
    got = basis(s)
    expected = basis_reference(s)
    assert [e.subset for e in got] == [J for J, _, _ in expected]
    for e, (J, values, _) in zip(got, expected):
        assert e.function.seq == s
        assert list(e.function.values.items()) == list(values.items())
        assert e.bits == tuple(i in J for i in range(1, len(s) + 1))
    # each lead value, prepared as a divisor, is the product of its factors
    products = lead_products(s, expected)
    assert [d.product for d in got.divisors] == [products[e.subset] for e in got[1:]]


@settings(max_examples=60, deadline=None)
@given(sequences(), st.randoms(use_true_random=False))
@example(nonsimple_seq("B", 3, 6), random.Random(6))
def test_generator_matches_reference(s, rng):
    i = rng.randint(0, len(s))
    w = s.rs.identity()
    for _ in range(rng.randint(0, 6)):
        w = w * s.rs.simple_reflection(rng.randint(1, s.rs.rank))
    c = rand_frac_poly(rng, s.rs.rank)
    got = generator(s, i, w, c)
    assert list(got.values.items()) == list(generator_reference(s, i, w, c).values.items())


def test_generator_acts_by_w_once():
    # (gamma^i w) . c = gamma^i . (w . c): no Weyl product per prefix
    s = nonsimple_seq("B", 3, 5)
    s.prefixes  # the prefix tables are built, and their products made, here
    w = s.rs.simple_reflection(1) * s.rs.simple_reflection(3)
    c = root_poly(s.rs, s.rs.simple_roots[1])
    product, calls = WeylElement.__mul__, []

    def counting(u, v):
        calls.append(1)
        return product(u, v)

    with mock.patch.object(WeylElement, "__mul__", counting):
        got = [generator(s, i, u, c) for i in range(len(s) + 1) for u in (s.rs.identity(), w)]
    assert not calls
    assert got == [generator_reference(s, i, u, c)
                   for i in range(len(s) + 1) for u in (s.rs.identity(), w)]


def bump_one_value(concentrate_):
    """concentrate with a constant added at its last gallery."""
    def bumped(s, g, cross):
        values = dict(concentrate_(s, g, cross).values)
        last = next(reversed(values))
        values[last] = values[last] + Poly.const(s.rs.rank, 1)
        return FPFunction(s, values)
    return bumped


def flip_cross(concentrate_):
    """concentrate at the other choice of t."""
    return lambda s, g, cross: concentrate_(s, g, not cross)


@settings(max_examples=40, deadline=None)
@given(sequences(min_size=1), st.randoms(use_true_random=False))
@example(nonsimple_seq("B", 3, 6), random.Random(7))
def test_identity_check_matches_reference(s, rng):
    # every value nonzero, so a concentration at the wrong t is visible
    g = FPFunction(s.truncated(), {b: rand_frac_poly(rng, s.rs.rank, 1)
                                   for b in s.truncated().patterns})
    for cross in (False, True):
        assert concentration_identity_check(s, g, cross)
        assert identity_check_reference(s, g, cross)
        for perturb in (bump_one_value, flip_cross):
            with mock.patch.object(gkm, "concentrate", perturb(gkm.concentrate)):
                assert not concentration_identity_check(s, g, cross)
                assert not identity_check_reference(s, g, cross)


# -- the paper's multiplicative generators and the GKM edge condition ----------

def crossing_factor(gamma, i):
    """x_i(gamma) = gamma^i(-alpha_i) if gamma crosses at i, else 0, read off
    the root system's action on roots rather than on polynomials."""
    s = gamma.seq
    if not gamma.bits[i - 1]:
        return Poly.zero(s.rs.rank)
    return root_poly(s.rs, prefix(gamma, i).apply(-s[i].root))


def edge_divisible(f):
    """Whether f(gamma) - f(f_i gamma) is divisible by gamma^(i-1)(alpha_i)
    for every gallery gamma and every fold f_i."""
    s = f.seq
    for gamma in galleries(s):
        for i in range(1, len(s) + 1):
            folded = gamma.bits[:i - 1] + (not gamma.bits[i - 1],) + gamma.bits[i:]
            diff = f.values[gamma.bits] + f.values[folded].scale(-1)
            ell = root_poly(s.rs, prefix(gamma, i - 1).apply(s[i].root))
            if exact_divide(diff, linear_divisor(ell)) is None:
                return False
    return True


@settings(max_examples=40, deadline=None)
@given(sequences())
@example(nonsimple_seq("B", 3, 6))
@example(nonsimple_seq("G", 2, 6))
def test_basis_is_product_of_generators(s):
    # B_J = prod_{i in J} x_i: the classes x_i generate the basis multiplicatively
    for e in basis(s):
        for gamma in galleries(s):
            product = Poly.const(s.rs.rank, 1)
            for i in sorted(e.subset):
                product = product * crossing_factor(gamma, i)
            assert e.function.values[gamma.bits] == product


@settings(max_examples=40, deadline=None)
@given(sequences(max_size=5), st.randoms(use_true_random=False))
@example(nonsimple_seq("B", 3, 5), random.Random(8))
def test_combinations_satisfy_edge_condition(s, rng):
    elements = basis(s)
    g = combine(elements, {e.subset: rand_frac_poly(rng, s.rs.rank) for e in elements})
    assert edge_divisible(g)
    if len(s):
        # necessary, not sufficient; but not vacuous: a point indicator fails it
        one, zero = Poly.const(s.rs.rank, 1), Poly.zero(s.rs.rank)
        bump = rng.choice(sorted(s.patterns))
        assert not edge_divisible(FPFunction(s, {b: one if b == bump else zero
                                                 for b in s.patterns}))


# -- the tabled basis against the per-level recursion it replaces --------------

def _reference_basis(s):
    """The per-level recursion with one product per (subset, gallery), each
    crossing factor and lead factor read off the action on roots, and each
    element's lead value re-multiplied from its own factors: a list of
    (element, lead factors)."""
    n = len(s)
    zero = Poly.zero(s.rs.rank)
    level = {frozenset(): [Poly.const(s.rs.rank, 1)]}
    for k in range(1, n + 1):
        cross = [root_poly(s.rs, u.apply(-s[k].root)) for b, u in s.prefixes[k].items() if b[-1]]
        nxt = {}
        for J, f in level.items():
            nxt[J] = [p for p in f for _ in (False, True)]
            nxt[J | {k}] = [q for c, p in zip(cross, f)
                            for q in (zero, c * p if p.terms else zero)]
        level = nxt
    out = []
    for J in sorted(level, key=lambda J: (len(J), sorted(J))):
        f = FPFunction(s, dict(zip(s.patterns, level[J])))
        bits = tuple(i + 1 in J for i in range(n))
        lead = tuple(root_poly(s.rs, s.prefixes[i][bits[:i]].apply(-s[i].root))
                     for i in sorted(J))
        elem = BasisElement(J, f, bits)
        _reference_verify_basis_element(s, elem, lead)
        out.append((elem, lead))
    return out


def _reference_verify_basis_element(s, elem, lead):
    product = Poly.const(s.rs.rank, 1)
    for ell in lead:
        product = product * ell
    if elem.function.values[elem.bits] != product:
        raise VerificationError("basis element has the wrong leading value")
    for bits, p in elem.function.values.items():
        if p.terms and not all(bits[i - 1] for i in elem.subset):
            raise VerificationError("basis element breaks triangularity")


@settings(max_examples=60, deadline=None)
@given(sequences())
@example(ReflSeq(build_root_system("A", 2), ()))
@example(nonsimple_seq("B", 3, 6))
@example(nonsimple_seq("G", 2, 6))
@example(simple_seq(build_root_system("G", 2), 1, 2, 1, 2, 1, 2))
def test_basis_matches_per_level_recursion(s):
    got = basis(s)
    expected = _reference_basis(s)
    assert isinstance(got, Basis) and isinstance(got, tuple)
    assert [e.subset for e in got] == [ref.subset for ref, _ in expected]
    for e, (ref, _) in zip(got, expected):
        assert e.function.seq == s
        assert list(e.function.values.items()) == list(ref.function.values.items())
        assert e.bits == ref.bits
    # the tables: nonzero values per gallery, and the lead factors as divisors
    assert got.columns == {bits: [(ref.subset, ref.function.values[bits])
                                  for ref, _ in expected if ref.function.values[bits].terms]
                           for bits in s.patterns}
    divisors = []
    for ref, lead in expected[1:]:
        divisor = None
        for ell in lead:
            divisor = linear_divisor(ell, divisor)
        divisors.append(divisor)
        assert divisor.product == ref.function.values[ref.bits]
    assert got.divisors == divisors


def test_basis_products_are_made_once_per_call():
    # B_J(gamma) repeats across J and gamma; each distinct product is made
    # once per call, and no table survives the call
    s = nonsimple_seq("G", 2, 6)
    calls = []
    product = Poly.__mul__

    def counting(p, q):
        calls.append(1)
        return product(p, q)

    with mock.patch.object(Poly, "__mul__", counting):
        basis(s)
        first = len(calls)
        basis(s)
        again = len(calls) - first
        _reference_basis(s)
        reference = len(calls) - first - again
    assert first == again
    assert first < reference // 2


def level_pairs(s, k):
    """The (crossing factor, nonzero value) pairs that level k of the basis
    recursion multiplies, in (J, pattern) order: J by its membership bits
    over 1..k-1, each value from `basis_reference` of the first k-1 positions,
    and the factor at a (k-1)-bit pattern b is gamma^k(-alpha_k) for b
    extended by a cross, read off the action on roots."""
    sk = ReflSeq(s.rs, s.entries[:k - 1])
    prev = {J: values for J, values, _ in basis_reference(sk)}
    cross = {b: root_poly(s.rs, s.prefixes[k][b + (True,)].apply(-s[k].root))
             for b in sk.patterns}
    order = sorted(prev, key=lambda J: [i in J for i in range(1, k)])
    return [(cross[b], p) for J in order for b, p in prev[J].items() if p.terms]


def test_basis_checks_a_level_before_its_products():
    # a bound that every pair of levels 1..3 meets and some of level 4 do
    # not: the refusal names the first pair over it in (J, pattern) order,
    # which is not the level's largest, and no product of level 4 is made
    s = nonsimple_seq("B", 3, 4)
    pairs = [level_pairs(s, k) for k in range(1, len(s) + 1)]
    counts = [[len(c.terms) * len(p.terms) for c, p in level] for level in pairs]
    bound = max(max(level) for level in counts[:-1])
    over = [c for c in counts[-1] if c > bound]
    assert over and over[0] < max(over)
    # the crossing factors are read from the root table, so every product
    # counted below is one of the recursion's
    made, product = [], Poly.__mul__

    def counting(p, q):
        made.append((p, q))
        return product(p, q)

    with mock.patch.object(gkm, "MAX_TERMS", bound), \
            mock.patch.object(Poly, "__mul__", counting):
        with pytest.raises(ResourceLimitError,
                           match=f"^polynomial terms {over[0]} exceeds bound {bound}$"):
            basis(s)
    assert len(made) == len(set(made))
    assert set(made) == {pair for level in pairs[:-1] for pair in level}


def test_basis_checks_a_level_total_before_its_products():
    # every pair is within MAX_TERMS, but the terms of level 4's pair
    # products sum past a bound that the sums of levels 1..3 meet: the
    # refusal names that sum, and no product of level 4 is made
    s = nonsimple_seq("B", 3, 4)
    pairs = [level_pairs(s, k) for k in range(1, len(s) + 1)]
    totals = [sum(len(c.terms) * len(p.terms) for c, p in level) for level in pairs]
    bound = totals[-1] - 1
    assert max(totals[:-1]) <= bound
    made, product = [], Poly.__mul__

    def counting(p, q):
        made.append((p, q))
        return product(p, q)

    with mock.patch.object(gkm, "MAX_LEVEL_TERMS", bound), \
            mock.patch.object(Poly, "__mul__", counting):
        with pytest.raises(ResourceLimitError, match=f"^basis level polynomial terms "
                                                     f"{totals[-1]} exceeds bound {bound}$"):
            basis(s)
    assert set(made) == {pair for level in pairs[:-1] for pair in level}


def test_basis_refuses_a_wrong_lead_value(b2):
    # the recursion's first product is off by a constant, so its value at
    # gamma_{1} is; the lead values, made by `linear_divisor` from the root
    # table, are right, and the support is unchanged, so only the lead
    # comparison sees it; in length 1 that product is the whole of B_{1}
    cache_ = gkm.cache

    def first_product_off(f):
        calls = []

        def off(c, p):
            calls.append(1)
            q = f(c, p)
            return q + Poly.const(2, 1) if len(calls) == 1 else q

        return cache_(off)

    for s in (simple_seq(b2, 1, 2, 1), simple_seq(b2, 1)):
        with mock.patch.object(gkm, "cache", first_product_off):
            with pytest.raises(VerificationError, match="leading value"):
                basis(s)


def test_basis_refuses_a_value_off_its_support(b2):
    # the last level's step puts the last entry of each subset that gains
    # position n at the stay pattern beside it, so B_{n} is nonzero at a
    # gallery that stays at n; B_{n}(gamma_{n}) is unchanged, so only the
    # support test sees it
    s = simple_seq(b2, 1, 2, 1)
    step = gkm._step

    def misplaced(level, k, cross, times):
        nxt = step(level, k, cross, times)
        if k == len(s):
            for J, f in nxt.items():
                if k in J:
                    r, p = f[-1]
                    f[-1] = (r - 1, p)
        return nxt

    with mock.patch.object(gkm, "_step", misplaced):
        with pytest.raises(VerificationError, match="triangularity"):
            basis(s)


# -- the sparse basis and the identity check against the dense code they replace --

def dense_basis(s):
    """`gkm.basis` as it was before its levels went sparse, without its
    resource bounds: level k holds every value over the k-bit patterns,
    zeros included, and each element is a checked FPFunction.  Returns
    (elements, columns, divisors)."""
    n = len(s)
    one, zero = Poly.const(s.rs.rank, 1), Poly.zero(s.rs.rank)
    forms, neg = poly.root_forms(s.rs), [t.index + len(s.rs.roots) // 2 for t in s.entries]
    level = {frozenset(): [one]}
    for k in range(1, n + 1):
        cross = [forms[u.perm[neg[k - 1]]] for b, u in s.prefixes[k].items() if b[-1]]
        nxt = {}
        for J, f in level.items():
            nxt[J] = [p for p in f for _ in (False, True)]
            nxt[J | {k}] = [q for c, p in zip(cross, f)
                            for q in (zero, c * p if p.packed else zero)]
        level = nxt
    lead = {frozenset(): None}
    columns = {bits: [] for bits in s.patterns}
    by_mask = list(columns.values())
    elements = []
    for J in sorted(level, key=lambda J: (len(J), sorted(J))):
        bits = tuple(i + 1 in J for i in range(n))
        if J:
            k = max(J)
            lead[J] = linear_divisor(forms[s.prefixes[k][bits[:k]].perm[neg[k - 1]]],
                                     lead[J - {k}])
        mask, values = sum(1 << (n - i) for i in J), level[J]
        if values[mask] != (lead[J].product if J else one):
            raise VerificationError("basis element has the wrong leading value")
        for r, p in enumerate(values):
            if p.packed:
                if r & mask != mask:
                    raise VerificationError("basis element breaks triangularity")
                by_mask[r].append((J, p))
        elements.append(BasisElement(J, FPFunction(s, dict(zip(s.patterns, values))), bits))
    return elements, columns, [lead[e.subset] for e in elements[1:]]


def dense_identity_check(s, g, cross):
    """`concentration_identity_check` as it was before it skipped the
    galleries where a factor is zero: one product at every gallery.  Reads
    `gkm.concentrate` at call time, so both see a patched one."""
    k, forms = s[len(s)].index, poly.root_forms(s.rs)
    tk = k + len(s.rs.roots) // 2 if cross else k
    before, last = s.prefixes[-2], s.prefixes[-1]
    nabla, delta = gkm.concentrate(s, g, cross).values, copy(s, g).values
    return all(nabla[b].scale(-2) == (forms[before[b[:-1]].perm[tk]] + forms[last[b].perm[k]])
               * delta[b] for b in s.patterns)


SPARSE_SYSTEMS = [build_root_system(f, r) for f, r in (("A", 1), ("A", 2), ("B", 2), ("G", 2))]


@settings(max_examples=80, deadline=None)
@given(sequences(max_size=5, systems=SPARSE_SYSTEMS))
@example(ReflSeq(build_root_system("A", 1), ()))
@example(nonsimple_seq("G", 2, 5))
@example(nonsimple_seq("B", 2, 5))
def test_sparse_basis_matches_dense(s):
    got = basis(s)
    elements, columns, divisors = dense_basis(s)
    assert [(e.subset, e.bits) for e in got] == [(e.subset, e.bits) for e in elements]
    for e, ref in zip(got, elements):
        assert e.function.seq is s
        assert list(e.function.values.items()) == list(ref.function.values.items())
        assert list(e.function.values) == list(s.patterns)
    assert list(got.columns.items()) == list(columns.items())
    assert got.divisors == divisors


def zero_sum_gallery(s, cross):
    """The first gallery whose Sigma sum gamma^(n-1)(t alpha_n) +
    gamma^n(alpha_n) is zero, read off the action on roots: the first
    whose last step is not t."""
    n, alpha = len(s), s[len(s)].root
    t_alpha = -alpha if cross else alpha
    for gamma in galleries(s):
        total = (root_poly(s.rs, prefix(gamma, n - 1).apply(t_alpha))
                 + root_poly(s.rs, prefix(gamma, n).apply(alpha)))
        if not total.terms:
            assert gamma.bits[-1] != cross
            return gamma.bits
    raise AssertionError("no gallery with a zero sum")


def bump_at(bits, concentrate_):
    """concentrate with a constant added at the gallery `bits`."""
    def bumped(s, g, cross):
        values = dict(concentrate_(s, g, cross).values)
        values[bits] = values[bits] + Poly.const(s.rs.rank, 1)
        return FPFunction(s, values)
    return bumped


@settings(max_examples=80, deadline=None)
@given(sequences(min_size=1, max_size=5, systems=SPARSE_SYSTEMS),
       st.randoms(use_true_random=False))
@example(nonsimple_seq("G", 2, 5), random.Random(9))
def test_sparse_identity_check_matches_dense(s, rng):
    # some values zero, so Delta g is zero at some galleries as well
    g = FPFunction(s.truncated(), {b: rand_frac_poly(rng, s.rs.rank)
                                   for b in s.truncated().patterns})
    for cross in (False, True):
        assert concentration_identity_check(s, g, cross) is dense_identity_check(s, g, cross)
        bits = zero_sum_gallery(s, cross)
        other = rng.choice(sorted(s.patterns))
        for perturb in (bump_at(bits, gkm.concentrate), bump_at(other, gkm.concentrate),
                        flip_cross(gkm.concentrate)):
            with mock.patch.object(gkm, "concentrate", perturb):
                verdict = concentration_identity_check(s, g, cross)
                assert verdict is dense_identity_check(s, g, cross)
        with mock.patch.object(gkm, "concentrate", bump_at(bits, gkm.concentrate)):
            assert concentration_identity_check(s, g, cross) is False


def test_unchecked_tables_would_pass_the_check():
    # every table gkm builds past the FPFunction constructor's check, through
    # the class's one unchecked maker, has s.patterns as its keys, in order,
    # and a value in S of s's system at each; the constructor accepts each one
    made, trusted = [], FPFunction._trusted

    def recording(s, values):
        made.append((s, values))
        return trusted(s, values)

    rng, expected = random.Random(33), 0
    with mock.patch.object(FPFunction, "_trusted", staticmethod(recording)):
        for rs in SPARSE_SYSTEMS:
            for n in (1, 3, 5):
                s = nonsimple_seq(rs.family, rs.rank, n)
                elements = basis(s)
                g = FPFunction(s.truncated(), {b: rand_frac_poly(rng, rs.rank)
                                               for b in s.truncated().patterns})
                copy(s, g)
                concentrate(s, g, True)
                concentration_identity_check(s, g, False)  # a concentration and a copy
                combine(elements, {e.subset: rand_frac_poly(rng, rs.rank) for e in elements})
                generator(s, rng.randint(0, n), rs.simple_reflection(1),
                          rand_frac_poly(rng, rs.rank))
                expected += 2 ** n + 6
    assert len(made) == expected
    for s, values in made:
        assert list(values) == list(s.patterns)
        assert all(type(p) is Poly and p.nvars == s.rs.rank for p in values.values())
        assert FPFunction(s, values).values == values
