"""Exact polynomial arithmetic, division by linear forms, and the W-action."""

from collections import Counter
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import accumulate
from operator import add, ge, sub
from unittest import mock

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from bscomb import poly
from bscomb.errors import MAX_EXPONENT, MAX_RANK, InvalidInputError, ResourceLimitError
from bscomb.poly import (
    Poly,
    divide_linear,
    exact_divide,
    linear_divisor,
    mul_add,
    root_forms,
    root_poly,
    weight_matrix,
    weyl_act,
)
from bscomb.rootsys import RootSystem, build_root_system, enumerate_weyl

from conftest import degree, simple_seq

monomials = st.tuples(st.integers(0, 3), st.integers(0, 3))
coefficients = st.fractions(max_denominator=12).filter(lambda c: c != 0)
polys = st.dictionaries(monomials, coefficients, max_size=5).map(
    lambda d: Poly.from_dict(2, d))


def test_zero_is_canonical():
    p = Poly.from_dict(2, {(1, 0): Fraction(2)})
    assert not (p + p.scale(-1)).terms
    assert p + p.scale(-1) == Poly.zero(2)
    assert str(Poly.zero(2)) == "0"


def test_degree():
    assert degree(Poly.zero(2)) == -1
    assert degree(Poly.const(2, 5)) == 0
    assert degree(Poly.linear(2, (1, 0)) * Poly.linear(2, (0, 1))) == 2


@settings(max_examples=80, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert (p * q) * r == p * (q * r)


def test_operators_take_only_polynomials():
    # a scalar goes through `scale`, a negation through `scale(-1)`
    p, q = Poly.linear(2, (1, 0)), Poly.linear(2, (0, 1))
    for op in (lambda: p * 2, lambda: 2 * p, lambda: p * Fraction(1, 2), lambda: -p,
               lambda: p - q):
        with pytest.raises(TypeError):
            op()
    with pytest.raises(InvalidInputError, match="^polynomials in different variable counts$"):
        p * Poly.linear(3, (1, 0, 0))


@settings(max_examples=60, deadline=None)
@given(polys)
def test_divide_linear_reconstructs(p):
    ell = Poly.linear(2, (2, -1))
    q, r = divide_linear(p, linear_divisor(ell))
    assert q * ell + r == p
    # remainder is free of the pivot variable (w2 for this divisor)
    assert all(m[1] == 0 for m, _ in r.terms)


def test_exact_divide_product():
    a = Poly.linear(2, (2, -1))
    b = Poly.linear(2, (-1, 2))
    p = a * b * (a + b)
    assert exact_divide(p, linear_divisor(b, linear_divisor(a))) == a + b
    assert exact_divide(p, linear_divisor(a)) == b * (a + b)
    assert exact_divide(p + Poly.const(2, 1), linear_divisor(a)) is None


def test_divide_requires_linear_form():
    p = Poly.linear(2, (1, 0)) * Poly.linear(2, (1, 0))
    with pytest.raises(InvalidInputError):
        linear_divisor(p)
    with pytest.raises(InvalidInputError):
        linear_divisor(Poly.linear(2, (1, 0)) + Poly.const(2, 1))
    with pytest.raises(InvalidInputError):
        linear_divisor(Poly.zero(2))
    # a prepared divisor is checked against the dividend's variable count
    with pytest.raises(InvalidInputError):
        divide_linear(Poly.linear(3, (1, 0, 0)), linear_divisor(Poly.linear(2, (1, 1))))


def test_product_divisor_checks_each_form():
    ell = Poly.linear(2, (1, 1))
    for bad in (ell * ell, ell + Poly.const(2, 1), Poly.zero(2)):
        with pytest.raises(InvalidInputError, match="^divisor must be a homogeneous linear form$"):
            linear_divisor(bad, linear_divisor(ell))
    with pytest.raises(InvalidInputError, match="^polynomials in different variable counts$"):
        linear_divisor(Poly.linear(3, (1, 0, 0)), linear_divisor(ell))


NOT_LINEAR = "^divisor must be a homogeneous linear form$"


@pytest.mark.parametrize("bad", [
    Poly.zero(2), Poly.const(2, 3), Poly.from_dict(2, {(1, 1): 1}),
    Poly.from_dict(2, {(2, 0): 1}), Poly.from_dict(2, {(1, 0): 2, (0, 0): 1}),
    Poly.from_dict(2, {(0, 2): 1, (1, 0): 1}), Poly.from_dict(3, {(0, 0, 63): 1}),
    Poly.from_dict(3, {(0, 64, 0): 1}), Poly.from_dict(1, {(MAX_EXPONENT,): 1}),
], ids=["zero", "constant", "w1*w2", "w1^2", "2*w1+1", "w2^2+w1", "w3^63", "w2^64", "w1^max"])
def test_linear_divisor_refuses_a_form_that_is_not_linear(bad):
    with pytest.raises(InvalidInputError, match=NOT_LINEAR):
        linear_divisor(bad)


@pytest.mark.parametrize("nvars", [1, 2, 3, MAX_RANK])
def test_linear_divisor_takes_each_variable(nvars):
    # the first variable's field is the most significant one, the last's the least
    for j in range(nvars):
        coeffs = [0] * nvars
        coeffs[j] = -3
        d = linear_divisor(Poly.linear(nvars, coeffs))
        assert d.pivot == j and d.coeff == -3 and not d.others


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
                       st.integers(-3, 3), max_size=4))
def test_linear_divisor_refuses_as_the_degree_rule(d):
    # the bit test on packed monomials against the decoded rule: degree 1
    # and no constant term
    p = Poly.from_dict(3, d)
    linear = degree(p) == 1 and all(sum(m) == 1 for m, _ in p.terms)
    try:
        linear_divisor(p)
    except InvalidInputError:
        assert not linear
    else:
        assert linear


@pytest.mark.parametrize("forms", [[(-1, 2)], [(-1, 2), (1, 1)]], ids=["form", "product"])
def test_quotient_is_bounded_after_each_pivot_degree(forms):
    # two dividend terms of each pivot degree, so each degree adds at least
    # two quotient terms: the refusal counts the quotient after the first
    # degree that takes it past the bound, not after one term or all of them
    p = Poly.from_dict(2, {(0, 60): 1, (1, 60): 1})
    divisor = None
    for coeffs in forms:
        divisor = linear_divisor(Poly.linear(2, coeffs), divisor)
    q, _ = divide_linear(p, divisor)
    # a quotient term comes from the pivot degree of its own times the lead's
    per_degree = Counter(m[1] for m, _ in q.terms)
    counts = accumulate(per_degree[k] for k in sorted(per_degree, reverse=True))
    expected = next(c for c in counts if c > 20)
    assert expected > 21
    with mock.patch.object(poly, "MAX_TERMS", 20):
        with pytest.raises(ResourceLimitError,
                           match=f"^polynomial terms {expected} exceeds bound 20$"):
            divide_linear(p, divisor)


def test_quotient_is_bounded_within_one_pivot_degree():
    # w2^N*w3 over (-2w1+w2)(-w1-w2+w3), lead w2*w3: each quotient term adds
    # a divisible term of the same pivot degree, so the degree never ends
    # by itself; the refusal comes as soon as the quotient passes the bound
    divisor = linear_divisor(Poly.linear(3, (-1, -1, 1)),
                             linear_divisor(Poly.linear(3, (-2, 1, 0))))
    assert (poly._exponents(3, divisor.lead), divisor.pivot) == ((0, 1, 1), 2)
    p = Poly.from_dict(3, {(0, 10**12, 1): 1})
    with mock.patch.object(poly, "MAX_TERMS", 20):
        with pytest.raises(ResourceLimitError, match="^polynomial terms 21 exceeds bound 20$"):
            divide_linear(p, divisor)


def test_simple_root_embedding(a2):
    assert root_poly(a2, a2.simple_roots[0]) == Poly.linear(2, (2, -1))
    assert root_poly(a2, a2.simple_roots[1]) == Poly.linear(2, (-1, 2))


def test_weyl_act_on_roots(a2):
    s1 = a2.simple_reflection(1)
    a1 = root_poly(a2, a2.simple_roots[0])
    a2poly = root_poly(a2, a2.simple_roots[1])
    assert weyl_act(s1, a1) == a1.scale(-1)
    assert weyl_act(s1, a2poly) == a1 + a2poly
    assert weyl_act(a2.identity(), a1) == a1


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("G", 2), ("B", 3)])
def test_weyl_act_matches_root_action(family, rank):
    # and the root table agrees: w . root k is the form at w.perm[k]
    rs = build_root_system(family, rank)
    table = root_forms(rs)
    assert len(table) == len(rs.roots)
    for w in enumerate_weyl(rs):
        for k, root in enumerate(rs.roots):
            image = weyl_act(w, root_poly(rs, root))
            assert image == root_poly(rs, w.apply(root))
            assert image == table[w.perm[k]]


def test_root_forms_are_built_once_per_system():
    rs = RootSystem("B", 3)
    with mock.patch.object(poly, "root_poly", wraps=poly.root_poly) as made:
        table = root_forms(rs)
        assert root_forms(rs) is table
    assert made.call_count == len(table) == len(rs.roots)
    assert list(table) == [root_poly(rs, r) for r in rs.roots]


@pytest.mark.parametrize("family,rank,letters", [
    ("A", 5, (1, 2, 3, 4, 5, 1)), ("D", 5, (5, 3, 4, 2, 1, 3)), ("B", 6, (6, 5, 4, 3, 2, 1))])
def test_weyl_act_on_root_forms_in_higher_rank(family, rank, letters):
    # a root form uses a few of the rank variables, so most images are
    # never built; the elements are those of every gallery prefix
    rs = build_root_system(family, rank)
    s = simple_seq(rs, *letters)
    elements = {u.perm: u for level in s.prefixes for u in level.values()}.values()
    for w in elements:
        for root in rs.roots:
            assert weyl_act(w, root_poly(rs, root)) == root_poly(rs, w.apply(root))


def test_weyl_act_is_action(b2):
    p = root_poly(b2, b2.simple_roots[0]) * root_poly(b2, b2.simple_roots[1]) + Poly.const(2, 3)
    for u in enumerate_weyl(b2):
        for v in enumerate_weyl(b2):
            assert weyl_act(u * v, p) == weyl_act(u, weyl_act(v, p))


def test_weyl_act_is_ring_map(a2):
    w = a2.simple_reflection(1) * a2.simple_reflection(2)
    p = Poly.linear(2, (1, 2))
    q = Poly.linear(2, (1, 0)) * Poly.linear(2, (1, 0)) + Poly.const(2, -7)
    assert weyl_act(w, p * q) == weyl_act(w, p) * weyl_act(w, q)
    assert weyl_act(w, p + q) == weyl_act(w, p) + weyl_act(w, q)


def test_str_ordering():
    p = Poly.from_dict(2, {(2, 1): Fraction(3), (0, 1): Fraction(-1, 2)})
    assert str(p) == "3*w1^2*w2 - 1/2*w2"
    assert str(Poly.from_dict(2, {(0, 1): Fraction(-1)})) == "-w2"


def test_integral_fraction_is_stored_as_int():
    p = Poly.from_dict(2, {(1, 0): Fraction(4, 2)})
    q = Poly.from_dict(2, {(1, 0): 2})
    assert p == q
    assert p.terms == q.terms
    assert type(p.terms[0][1]) is int
    half = Poly.linear(2, (Fraction(1, 2), 0))
    assert (half + half).terms == Poly.linear(2, (1, 0)).terms
    assert type((half * Poly.const(2, 4)).terms[0][1]) is int


@pytest.mark.parametrize("build", [
    lambda: Poly.const(2, 0.1),
    lambda: Poly.linear(2, (1, 0.5)),
    lambda: Poly.from_dict(2, {(1, 0): 0.25}),
    lambda: Poly.linear(2, (1, 0)).scale(0.1),
], ids=["const", "linear", "from_dict", "scale"])
def test_float_coefficient_rejected(build):
    # a float's binary expansion is not the decimal it was written as
    with pytest.raises(InvalidInputError):
        build()


@pytest.mark.parametrize("monomial", [(1,), (-1, 0), (1, 0, 5), (1.0, 0), (True, 0)],
                         ids=["short", "negative", "long", "float", "bool"])
def test_from_dict_refuses_malformed_monomial(monomial):
    # a short monomial once broadcast into products, a negative exponent
    # printed as a positive one, and a long one printed a variable w3
    with pytest.raises(InvalidInputError, match="is not 2 exponents >= 0"):
        Poly.from_dict(2, {monomial: 1})


def test_public_constructor_checks_its_terms():
    # the constructor checks and packs as from_dict does: a short monomial
    # once printed w1^2 + w1 after a product, and a zero term stayed a term
    with pytest.raises(InvalidInputError, match="is not 2 exponents >= 0"):
        Poly(2, (((1,), 1),))
    assert Poly(2, (((0, 1), 0),)) == Poly.zero(2)
    assert Poly(2, (((1, 0), 1), ((1, 0), Fraction(1, 2)), ((0, 0), 2))) == Poly.from_dict(
        2, {(0, 0): 2, (1, 0): Fraction(3, 2)})
    with pytest.raises(InvalidInputError):
        Poly(2, (((1, 0), 0.5),))


def test_exponent_bound():
    top = Poly.from_dict(2, {(MAX_EXPONENT, 0): 1, (0, MAX_EXPONENT): -1})
    assert top.terms == (((0, MAX_EXPONENT), -1), ((MAX_EXPONENT, 0), 1))
    assert str(top) == f"w1^{MAX_EXPONENT} - w2^{MAX_EXPONENT}"
    for m in ((MAX_EXPONENT + 1, 0), (0, MAX_EXPONENT + 1)):
        with pytest.raises(ResourceLimitError, match=(
                f"^polynomial exponent {MAX_EXPONENT + 1} exceeds bound {MAX_EXPONENT}$")):
            Poly.from_dict(2, {m: 1})
    # a product past the bound sets a guard bit, which is refused, whether
    # the term survives or not; just under it, the field holds it
    half = Poly.from_dict(1, {(2 ** 62,): 1})
    with pytest.raises(ResourceLimitError, match=f"^polynomial exponent {2 ** 63} exceeds"):
        half * half
    with pytest.raises(ResourceLimitError, match="^polynomial exponent"):
        mul_add(Poly.zero(1), [(half, half), (half, half.scale(-1))])
    below = Poly.from_dict(1, {(2 ** 62 - 1,): 1})
    assert (half * below).terms == (((MAX_EXPONENT,), 1),)
    w1 = Poly.linear(2, (1, 0))
    assert (w1 * Poly.from_dict(2, {(MAX_EXPONENT - 1, 5): 1})).terms == (
        ((MAX_EXPONENT, 5), 1),)
    with pytest.raises(ResourceLimitError, match="^polynomial exponent"):
        w1 * top
    # a division that would move exponent past the bound: w1^MAX*w2 over
    # w2 - w1 leaves w1^MAX times w1 to take next
    with pytest.raises(ResourceLimitError, match=f"^polynomial exponent {MAX_EXPONENT + 1} "):
        divide_linear(Poly.from_dict(2, {(MAX_EXPONENT, 1): 1}),
                      linear_divisor(Poly.linear(2, (-1, 1))))
    q, r = divide_linear(Poly.from_dict(2, {(MAX_EXPONENT - 1, 1): 1}),
                         linear_divisor(Poly.linear(2, (-1, 1))))
    assert (q.terms, r.terms) == ((((MAX_EXPONENT - 1, 0), 1),), (((MAX_EXPONENT, 0), 1),))


@pytest.mark.parametrize("coeffs", [(1,), (1, 0, 3)])
def test_linear_needs_one_coefficient_per_variable(coeffs):
    with pytest.raises(InvalidInputError, match="2 coefficients"):
        Poly.linear(2, coeffs)


def test_str_of_fractional_terms():
    w2 = Poly.linear(2, (0, 1))
    assert str(w2.scale(Fraction(-1, 2))) == "-1/2*w2"
    assert str(Poly.linear(2, (3, Fraction(-1, 2)))) == "3*w1 - 1/2*w2"
    assert str(w2.scale(Fraction(-1, 2)) + w2.scale(Fraction(3, 2))) == "w2"
    assert str(Poly.const(2, Fraction(6, 4))) == "3/2"


# -- differential oracle: the ring against sympy ------------------------------

ORACLE_SYSTEMS = [("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3), ("C", 3)]
# integers as often as fractions, since integral coefficients take their own path
oracle_coeffs = st.one_of(st.integers(-20, 20),
                          st.fractions(min_value=-20, max_value=20, max_denominator=12))


def oracle_polys(nvars, max_size=4, coeffs=oracle_coeffs):
    monos = st.tuples(*[st.integers(0, 2)] * nvars)
    return st.dictionaries(monos, coeffs, max_size=max_size).map(
        lambda d: Poly.from_dict(nvars, d))


def oracle_linear(nvars):
    return st.lists(oracle_coeffs, min_size=nvars, max_size=nvars).filter(any).map(
        lambda cs: Poly.linear(nvars, cs))


def _gens(nvars):
    return sympy.symbols(f"w1:{nvars + 1}")


def to_sympy(p):
    gens = _gens(p.nvars)
    return sum((sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*[g ** e for g, e in zip(gens, m)]) for m, c in p.terms),
               sympy.Integer(0))


def from_sympy(expr, nvars):
    terms = sympy.Poly(sympy.expand(expr), *_gens(nvars), domain="QQ").terms()
    return Poly.from_dict(nvars, {m: Fraction(int(c.p), int(c.q)) for m, c in terms})


def assert_canonical(p):
    monos = [m for m, _ in p.terms]
    assert monos == sorted(set(monos))
    for m, c in p.terms:
        assert len(m) == p.nvars
        assert c != 0
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3]), st.data())
def test_ring_ops_match_sympy(nvars, data):
    p = data.draw(oracle_polys(nvars))
    q = data.draw(oracle_polys(nvars))
    c = data.draw(oracle_coeffs)
    P, Q, C = to_sympy(p), to_sympy(q), sympy.Rational(c.numerator, c.denominator)
    for result, expect in [(p + q, P + Q), (p + q.scale(-1), P - Q), (p * q, P * Q),
                           (p.scale(c), P * C)]:
        assert_canonical(result)
        assert result == from_sympy(expect, nvars)
        assert str(result) == str(from_sympy(expect, nvars))


def test_divide_linear_integral_operands_give_exact_fractions():
    q, r = divide_linear(Poly.linear(2, (1, 1)), linear_divisor(Poly.linear(2, (0, 3))))
    assert q == Poly.const(2, Fraction(1, 3))
    assert r == Poly.linear(2, (1, 0))
    assert type(q.terms[0][1]) is Fraction
    # a negative pivot coefficient, and an exact integral quotient stays an int
    q, r = divide_linear(Poly.linear(2, (1, 1)), linear_divisor(Poly.linear(2, (0, -3))))
    assert q == Poly.const(2, Fraction(-1, 3))
    assert r == Poly.linear(2, (1, 0))
    q, r = divide_linear(Poly.linear(2, (4, 6)), linear_divisor(Poly.linear(2, (2, -3))))
    assert q == Poly.const(2, -2)
    assert r == Poly.linear(2, (8, 0))
    assert type(q.terms[0][1]) is int


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3]), st.booleans(), st.booleans(), st.data())
def test_divide_linear_matches_sympy(nvars, negative_pivot, integral, data):
    coeffs = st.integers(-20, 20) if integral else oracle_coeffs
    p = data.draw(oracle_polys(nvars, max_size=5, coeffs=coeffs))
    # divide_linear pivots on the last variable of ell; integral operands
    # get a pivot coefficient of 2..7, so most quotients are fractional
    pivot = data.draw(st.integers(0, nvars - 1))
    a = data.draw(st.integers(2, 7) if integral else coeffs.filter(bool))
    a = -abs(a) if negative_pivot else abs(a)
    cs = data.draw(st.lists(coeffs, min_size=nvars, max_size=nvars))
    ell = Poly.linear(nvars, cs[:pivot] + [a] + [0] * (nvars - pivot - 1))
    q, r = divide_linear(p, linear_divisor(ell))
    assert_canonical(q)
    assert_canonical(r)
    # lex order with the pivot variable first makes sympy's remainder free
    # of it, and the quotient and remainder of such a division are unique
    gens = _gens(nvars)
    order = (gens[pivot],) + tuple(g for j, g in enumerate(gens) if j != pivot)
    Q, R = sympy.div(to_sympy(p), to_sympy(ell), *order, domain="QQ")
    assert q == from_sympy(Q.as_expr(), nvars)
    assert r == from_sympy(R.as_expr(), nvars)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3]), st.sampled_from([1, -1]), st.data())
def test_mul_add_matches_sympy(nvars, sign, data):
    base = data.draw(oracle_polys(nvars))
    # empty lists, zero operands and fractional coefficients all occur
    pairs = data.draw(st.lists(st.tuples(oracle_polys(nvars), oracle_polys(nvars)),
                               max_size=4))
    result = mul_add(base, pairs, sign)
    assert_canonical(result)
    expect = to_sympy(base) + sign * sum((to_sympy(a) * to_sympy(b) for a, b in pairs),
                                         sympy.Integer(0))
    assert result == from_sympy(expect, nvars)
    assert str(result) == str(from_sympy(expect, nvars))


def test_mul_add_edge_cases():
    w1, w2 = Poly.linear(2, (1, 0)), Poly.linear(2, (0, 1))
    half = Poly.const(2, Fraction(1, 2))
    assert mul_add(w1, []) == w1
    assert mul_add(Poly.zero(2), [(w1, Poly.zero(2)), (Poly.zero(2), w2)]) == Poly.zero(2)
    # everything cancels
    assert not mul_add(w1 * w2, [(w1, w2)], -1).terms
    # fractions that sum to an integer come back as an int
    total = mul_add(Poly.zero(2), [(half, w1), (half, w1)])
    assert total.terms == w1.terms
    with pytest.raises(InvalidInputError):
        mul_add(w1, [(w1, Poly.linear(3, (1, 0, 0)))])
    with pytest.raises(InvalidInputError):
        mul_add(Poly.linear(3, (1, 0, 0)), [(w1, w2)])


def product_divisor(factors):
    """The prepared divisor of a product of linear forms, one form at a time."""
    divisor = None
    for ell in factors:
        divisor = linear_divisor(ell, divisor)
    return divisor


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3]), st.booleans(), st.data())
def test_exact_divide_matches_sympy(nvars, exact, data):
    factors = data.draw(st.lists(oracle_linear(nvars), min_size=1, max_size=3))
    base = data.draw(oracle_polys(nvars))
    p = base
    for ell in factors:
        p = p * ell
    if not exact:
        p = p + data.draw(oracle_polys(nvars))
    quotient = exact_divide(p, product_divisor(factors))
    # the same product prepared in the other order is the same divisor
    assert product_divisor(factors[::-1]) == product_divisor(factors)
    gens = _gens(nvars)
    product = sympy.Mul(*[to_sympy(ell) for ell in factors])
    Q, R = sympy.div(to_sympy(p), product, *gens, domain="QQ")
    if R.is_zero:
        assert quotient is not None
        assert_canonical(quotient)
        assert quotient == from_sympy(Q.as_expr(), nvars)
    else:
        assert quotient is None
    if exact:
        assert quotient == base


def pivoted_linear(nvars):
    """A linear form whose last variable is drawn, so that the forms of a
    product often end in different variables; then other terms of the
    product share the leading term's pivot degree, and the leading term is
    not a power of one variable."""
    return st.integers(0, nvars - 1).flatmap(lambda pivot: st.tuples(
        st.lists(oracle_coeffs, min_size=pivot, max_size=pivot),
        oracle_coeffs.filter(bool),
    ).map(lambda t: Poly.linear(nvars, t[0] + [t[1]] + [0] * (nvars - pivot - 1))))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([2, 3, 4]), st.booleans(), st.data())
def test_divide_by_product_matches_sympy(nvars, exact, data):
    factors = data.draw(st.lists(pivoted_linear(nvars), min_size=1, max_size=3))
    divisor = product_divisor(factors)
    p = data.draw(oracle_polys(nvars)) * divisor.product
    if not exact:
        p = p + data.draw(oracle_polys(nvars))
    q, r = divide_linear(p, divisor)
    assert_canonical(q)
    assert_canonical(r)
    # The division algorithm in lex order with the variables reversed:
    # `sympy.reduced` runs it term by term.  `sympy.div` divides
    # recursively in its first variable and stops at the first leading
    # coefficient that does not divide, so it agrees only on exact quotients.
    order = _gens(nvars)[::-1]
    Q, R = sympy.reduced(to_sympy(p), [to_sympy(divisor.product)], *order,
                         order="lex", domain="QQ")
    assert q == from_sympy(sum(Q, sympy.Integer(0)), nvars)  # Q is empty when p is 0
    assert r == from_sympy(R, nvars)
    if exact:
        Q, R = sympy.div(to_sympy(p), to_sympy(divisor.product), *order, domain="QQ")
        assert (q, r) == (from_sympy(Q.as_expr(), nvars), Poly.zero(nvars))
        assert R.is_zero


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ORACLE_SYSTEMS), st.data())
def test_weyl_act_matches_sympy(system, data):
    rs = build_root_system(*system)
    w = data.draw(st.sampled_from(enumerate_weyl(rs)))
    p = data.draw(oracle_polys(rs.rank))
    result = weyl_act(w, p)
    assert_canonical(result)
    # w sends w_j to sum_k m[k][j] w_k
    gens = _gens(rs.rank)
    m = weight_matrix(w)
    images = {gens[j]: sum(m[k][j] * gens[k] for k in range(rs.rank))
              for j in range(rs.rank)}
    assert result == from_sympy(to_sympy(p).xreplace(images), rs.rank)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3]), st.sampled_from([2, 3]), st.data())
def test_substitute_matches_sympy(nvars, out_nvars, data):
    # exponents up to 5 take every branch of the squaring loop; the images
    # are arbitrary polynomials, zero among them, in their own variable count
    monos = st.tuples(*[st.integers(0, 5)] * nvars)
    p = data.draw(st.dictionaries(monos, oracle_coeffs, max_size=3).map(
        lambda d: Poly.from_dict(nvars, d)))
    images = [data.draw(oracle_polys(out_nvars, max_size=3)) for _ in range(nvars)]
    result = p.substitute(images)
    assert_canonical(result)
    assert result.nvars == out_nvars
    expect = to_sympy(p).xreplace({g: to_sympy(q) for g, q in zip(_gens(nvars), images)})
    assert result == from_sympy(expect, out_nvars)


# -- fast path against slow path: packed monomials against exponent tuples ----

def reference_mul_add(base, pairs, sign=1):
    """`mul_add` on exponent tuples, as before packing: the sorted terms,
    and the largest exponent of any monomial it made."""
    d, top = dict(base.terms), 0
    for a, b in pairs:
        for m1, c1 in a.terms:
            for m2, c2 in b.terms:
                m = tuple(map(add, m1, m2))
                top = max(top, *m)
                d[m] = d.get(m, 0) + sign * c1 * c2
    return canonical_terms(d), top


def reference_divide_linear(p, product, limit):
    """`divide_linear` on exponent tuples, as before packing: the sorted
    terms of quotient and remainder, and the largest exponent of any new
    term it made; None once the quotient has more than `limit` terms."""
    (lead, a), *rest_terms = product.terms
    pivot = max(j for j, e in enumerate(lead) if e)
    others = [(m, -b) for m, b in rest_terms]
    rest, top = dict(p.terms), 0
    heap = [(-m[pivot], m) for m in rest]
    heapify(heap)
    quotient = {}
    while heap:
        m = heappop(heap)[1]
        if m[pivot] < lead[pivot]:
            break
        c = rest[m]
        if c and all(map(ge, m, lead)):
            del rest[m]
            c = Fraction(c, a)
            q = tuple(map(sub, m, lead))
            quotient[q] = c
            if len(quotient) > limit:
                return None
            for t, b in others:
                t = tuple(map(add, q, t))
                if t in rest:
                    rest[t] += c * b
                else:
                    top = max(top, *t)
                    rest[t] = c * b
                    heappush(heap, (-t[pivot], t))
    return canonical_terms(quotient), canonical_terms(rest), top


def canonical_terms(d):
    return tuple(sorted((m, c.numerator if type(c) is Fraction and c.denominator == 1 else c)
                        for m, c in d.items() if c))


def spread(nvars, values):
    """Up to four values placed on the first two and the last two of nvars
    variables, so that the widest case uses its first and last fields."""
    values = tuple(values)
    if nvars <= 4:
        return values
    return values[:2] + (0,) * (nvars - 4) + values[2:]


def packed_polys(nvars, coeffs, max_size=4, near=True, min_size=0):
    # small exponents, and, unless near is False, sometimes ones next to the
    # bound, whose sums pass it
    small = st.integers(0, 3)
    exponent = st.one_of(small, small, small, st.integers(MAX_EXPONENT - 3, MAX_EXPONENT)
                         ) if near else small
    monomials = st.lists(exponent, min_size=min(nvars, 4), max_size=min(nvars, 4)).map(
        lambda e: spread(nvars, e))
    return st.dictionaries(monomials, coeffs, min_size=min_size, max_size=max_size).map(
        lambda d: Poly.from_dict(nvars, d))


# every variable count 1-4, and the widest packing once
packed_nvars = st.one_of(st.integers(1, 4), st.just(MAX_RANK))
packed_coeffs = st.one_of(st.integers(-20, 20),
                          st.fractions(min_value=-20, max_value=20, max_denominator=12))


@settings(max_examples=150, deadline=None)
@given(packed_nvars, st.sampled_from([1, -1]), st.booleans(), st.data())
def test_packed_mul_add_matches_tuples(nvars, sign, integral, data):
    coeffs = st.integers(-20, 20) if integral else packed_coeffs
    base = data.draw(packed_polys(nvars, coeffs))
    pairs = data.draw(st.lists(st.tuples(packed_polys(nvars, coeffs, 3),
                                         packed_polys(nvars, coeffs, 3)), max_size=3))
    terms, top = reference_mul_add(base, pairs, sign)
    if top > MAX_EXPONENT:
        with pytest.raises(ResourceLimitError, match="^polynomial exponent"):
            mul_add(base, pairs, sign)
    else:
        assert mul_add(base, pairs, sign).terms == terms


@settings(max_examples=150, deadline=None)
@given(packed_nvars, st.booleans(), st.data())
def test_packed_divide_linear_matches_tuples(nvars, integral, data):
    # a term near the bound divides in up to 2^63 steps, so the quotient
    # bound is lowered to 40 terms, and the reference stops there too
    coeffs = st.integers(-20, 20) if integral else packed_coeffs
    factors = data.draw(st.lists(pivoted_linear(min(nvars, 4)), min_size=1, max_size=3))
    factors = [Poly(nvars, [(spread(nvars, m), c) for m, c in f.terms]) for f in factors]
    divisor = product_divisor(factors)
    small = packed_polys(nvars, coeffs, 3, near=False)
    p = data.draw(small) * divisor.product + data.draw(packed_polys(nvars, coeffs, min_size=1))
    expected = reference_divide_linear(p, divisor.product, 40)
    with mock.patch.object(poly, "MAX_TERMS", 40):
        if expected is None or expected[2] > MAX_EXPONENT:
            with pytest.raises(ResourceLimitError):
                divide_linear(p, divisor)
        else:
            q, r = divide_linear(p, divisor)
            assert (q.terms, r.terms) == expected[:2]
