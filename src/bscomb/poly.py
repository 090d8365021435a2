"""Sparse multivariate polynomials with exact rational coefficients.

Variables are the fundamental weights w1..wr of a root system; simple
roots embed via the Cartan matrix (alpha_i = sum_j C[i][j] w_j), so the
Weyl action is an integral linear substitution.  A monomial is packed into
one non-negative int, a 64-bit field per variable with the first variable
most significant, so integer order is the lex order of exponent tuples
and a product of monomials is their sum; a set top bit of a field (the
guard mask, `_guard`) is an exponent past `errors.MAX_EXPONENT`.  A
coefficient is an `int` when integral and a `Fraction` only otherwise,
and every result's sorted term tuple is canonical.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from functools import cache, reduce
from heapq import heapify, heappop, heappush
from operator import mul, or_

from .errors import MAX_EXPONENT, MAX_TERMS, InvalidInputError, Value, check_bound
from .rootsys import Root, RootSystem, WeylElement

Monomial = tuple[int, ...]
Coeff = int | Fraction
_FIELD = (1 << 64) - 1  # one variable's field of a packed monomial


def _coeff(c) -> Coeff:
    """Any exact rational as a canonical coefficient: int when integral.

    A float is refused: its binary expansion is not the number it was
    written as."""
    if type(c) is int:
        return c
    if isinstance(c, float):
        raise InvalidInputError(f"inexact coefficient {c!r}; use an int or a Fraction")
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


@cache
def _shifts(nvars: int) -> tuple[int, ...]:
    """The bit offset of each variable's field, first variable highest."""
    return tuple(64 * (nvars - 1 - j) for j in range(nvars))


@cache
def _guard(nvars: int) -> int:
    """The top bit of every field, built once per variable count, as `_units`."""
    return sum(1 << (s + 63) for s in _shifts(nvars))


@cache
def _units(nvars: int) -> tuple[int, ...]:
    """The packed monomials w1..w_nvars, built once per variable count."""
    return tuple(1 << s for s in _shifts(nvars))


def _exponents(nvars: int, m: int) -> Monomial:
    """The exponent tuple of a packed monomial."""
    return tuple(m >> s & _FIELD for s in _shifts(nvars))


def _check_exponents(nvars: int, monomials: Iterable[int]) -> None:
    """Refuse the first packed monomial with a guard bit set, by its
    largest exponent; a field holds the sum of two exponents in full."""
    for m in monomials:
        check_bound("polynomial exponent", max(_exponents(nvars, m)), MAX_EXPONENT)


def _canon(nvars: int, d: dict[int, Coeff]) -> "Poly":
    """The polynomial of an arithmetic result, unchecked: nonzero terms,
    sorted, with integral Fractions turned back into ints."""
    return Poly._trusted(nvars, tuple(sorted([
        (m, c if type(c) is int or c.denominator != 1 else c.numerator)
        for m, c in d.items() if c])))


def mul_add(base: "Poly", pairs: Iterable[tuple["Poly", "Poly"]], sign: int = 1) -> "Poly":
    """base + sign * (sum of a * b over the pairs), for sign 1 or -1, with
    every product term accumulated in one dict that is canonicalised once.
    The one product kernel: `Poly.__mul__` is this over a zero base, and a
    pair whose term counts multiply past MAX_TERMS is refused before its
    products are made.  A product monomial is one integer add; the guard
    bits of every monomial made are checked once, when all are made."""
    nvars = base.nvars
    d = dict(base.packed)
    get = d.get
    for a, b in pairs:
        if a.nvars != nvars or b.nvars != nvars:
            raise InvalidInputError("polynomials in different variable counts")
        ap, bp = a.packed, b.packed
        if len(ap) * len(bp) > MAX_TERMS:
            check_bound("polynomial terms", len(ap) * len(bp), MAX_TERMS)
        for m1, c1 in ap:
            c1 *= sign
            for m2, c2 in bp:
                m = m1 + m2
                d[m] = get(m, 0) + c1 * c2
    if reduce(or_, d, 0) & _guard(nvars):
        _check_exponents(nvars, d)
    return _canon(nvars, d)


class Poly(Value):
    """A polynomial in `nvars` variables; zero has no terms.

    `Poly(nvars, terms)` takes (exponent tuple, coefficient) pairs, checks
    each and packs it; a repeated monomial adds.  `packed` holds the
    canonical terms, each (packed monomial, coefficient), sorted and
    nonzero, with an integral coefficient as an int."""

    __slots__ = ("nvars", "packed")

    def __init__(self, nvars: int, terms: Iterable[tuple[Monomial, Coeff]]):
        shifts, d = _shifts(nvars), {}
        for m, c in terms:
            if (type(m) is not tuple or len(m) != nvars
                    or not all(type(e) is int and e >= 0 for e in m)):
                raise InvalidInputError(f"monomial {m!r} is not {nvars} exponents >= 0")
            check_bound("polynomial exponent", max(m, default=0), MAX_EXPONENT)
            key = sum(e << s for e, s in zip(m, shifts))
            d[key] = d.get(key, 0) + _coeff(c)
        self._fill(nvars, _canon(nvars, d).packed)

    # written out, not derived from the key: the basis compares and hashes values often
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.nvars == other.nvars and self.packed == other.packed
        return NotImplemented

    def __hash__(self):
        return hash((self.nvars, self.packed))

    def __repr__(self):  # the public fields, as a valid constructor call
        return f"Poly(nvars={self.nvars!r}, terms={self.terms!r})"

    @property
    def terms(self) -> tuple[tuple[Monomial, Coeff], ...]:
        """The sorted (exponent tuple, coefficient) pairs, decoded from `packed`."""
        return tuple((_exponents(self.nvars, m), c) for m, c in self.packed)

    @staticmethod
    def from_dict(nvars: int, d: dict[Monomial, Coeff]) -> "Poly":
        """sum c * w^m over d, each monomial m being `nvars` exponents >= 0."""
        return Poly(nvars, d.items())

    @staticmethod
    @cache
    def zero(nvars: int) -> "Poly":
        """The zero polynomial, built once per variable count, as `_units`."""
        return _canon(nvars, {})

    @staticmethod
    def const(nvars: int, c) -> "Poly":
        c = _coeff(c)
        if c == 0:
            return Poly.zero(nvars)
        return _canon(nvars, {0: c})

    @staticmethod
    def linear(nvars: int, coeffs) -> "Poly":
        """sum c_j w_{j+1} over one coefficient per variable."""
        coeffs = tuple(coeffs)
        if len(coeffs) != nvars:
            raise InvalidInputError(f"a linear form in {nvars} variables needs "
                                    f"{nvars} coefficients, not {len(coeffs)}")
        return _canon(nvars, {u: _coeff(c) for u, c in zip(_units(nvars), coeffs)})

    def __add__(self, other: "Poly") -> "Poly":
        if self.nvars != other.nvars:
            raise InvalidInputError("polynomials in different variable counts")
        if not other.packed:
            return self
        if not self.packed:
            return other
        d = dict(self.packed)
        get = d.get
        for m, c in other.packed:
            d[m] = get(m, 0) + c
        return _canon(self.nvars, d)

    def __mul__(self, other):
        """The product with another `Poly`; a rational scalar goes through `scale`."""
        if not isinstance(other, Poly):
            return NotImplemented
        return mul_add(Poly.zero(self.nvars), ((self, other),))

    def scale(self, c) -> "Poly":
        c = _coeff(c)
        if c == 0:
            return Poly.zero(self.nvars)
        return _canon(self.nvars, {m: c * coeff for m, coeff in self.packed})

    def substitute(self, images: list["Poly"]) -> "Poly":
        """Ring map sending generator j to images[j]; powers by repeated
        squaring, each product bounded by `mul_add`."""
        if len(images) != self.nvars:
            raise InvalidInputError("substitution must cover every variable")
        out_nvars = images[0].nvars if images else self.nvars
        result = Poly.zero(out_nvars)
        for mono, coeff in self.packed:
            term = Poly.const(out_nvars, coeff)
            for square, e in zip(images, _exponents(self.nvars, mono)):
                while e:
                    if e & 1:
                        term = term * square
                    e >>= 1
                    if e:
                        square = square * square
            result = result + term
        return result

    def __str__(self):
        if not self.packed:
            return "0"
        ordered = sorted(self.terms, key=lambda t: (sum(t[0]), t[0]), reverse=True)
        pieces = []
        for mono, coeff in ordered:
            vars_part = "*".join(
                f"w{j + 1}" + (f"^{e}" if e > 1 else "")
                for j, e in enumerate(mono) if e
            )
            mag = abs(coeff)
            if vars_part:
                body = vars_part if mag == 1 else f"{mag}*{vars_part}"
            else:
                body = str(mag)
            pieces.append(("-" if coeff < 0 else "+", body))
        sign0, body0 = pieces[0]
        out = ("-" if sign0 == "-" else "") + body0
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out


class Divisor(Value):
    """A product of homogeneous linear forms, prepared for `divide_linear`:
    its leading term (packed monomial `lead`, coefficient `coeff`) in the
    order that ranks the last variable highest, `pivot` the last variable
    of `lead`, and the other terms negated (`others`)."""

    __slots__ = ("product", "pivot", "lead", "coeff", "others")


def linear_divisor(ell: Poly, times: Divisor | None = None) -> Divisor:
    """ell checked once as a homogeneous linear form and prepared as a
    divisor: ell itself, or the product of `times` and ell, made by one `*`.

    ell is such a form when it has a term and each of its packed monomials
    is a single bit at the foot of a field: one variable to the power 1.
    A product of linear forms has its leading term first in sorted order:
    every other term moves exponent from later variables to earlier ones.
    The pivot's field is the lowest nonzero one of the lead."""
    if not ell.packed or any(m & (m - 1) or m.bit_length() % 64 != 1 for m, _ in ell.packed):
        raise InvalidInputError("divisor must be a homogeneous linear form")
    product = ell if times is None else times.product * ell
    (lead, a), rest = product.packed[0], product.packed[1:]
    pivot = ell.nvars - 1 - ((lead & -lead).bit_length() - 1) // 64
    return Divisor(product, pivot, lead, a, tuple((m, -b) for m, b in rest))


def divide_linear(p: Poly, divisor: Divisor) -> tuple[Poly, Poly]:
    """Divide p by a product of linear forms prepared by `linear_divisor`;
    returns (quotient, remainder), the remainder with no term divisible by
    the divisor's leading term in the order that ranks the last variable
    highest, so zero exactly when the divisor divides p.  One pass over a
    heap of the remaining terms, in descending pivot degree, takes each
    term once.  A quotient past MAX_TERMS is refused, checked after each
    pivot degree and whenever a subtraction adds a term to the current
    degree, and so is a new term with an exponent past the bound.
    """
    d = divisor
    nvars, lead, a = p.nvars, d.lead, d.coeff
    if d.product.nvars != nvars:
        raise InvalidInputError("polynomials in different variable counts")
    shift, guard = _shifts(nvars)[d.pivot], _guard(nvars)
    top = lead >> shift & _FIELD
    rest = dict(p.packed)
    heap = [(-(m >> shift & _FIELD), m) for m in rest]
    heapify(heap)
    quotient: dict[int, Coeff] = {}
    level = None
    while heap:
        key, m = heappop(heap)
        if key != level:
            check_bound("polynomial terms", len(quotient), MAX_TERMS)
            if -(level := key) < top:
                break
        c = rest[m]
        # lead divides m exactly when subtracting it with every guard bit set clears none
        if c and ((m | guard) - lead) & guard == guard:
            del rest[m]
            c = c // a if type(c) is int and type(a) is int and not c % a else Fraction(c, a)
            q = m - lead
            quotient[q] = c
            for t, b in d.others:
                t += q
                if t in rest:
                    rest[t] += c * b
                else:
                    if t & guard:
                        _check_exponents(nvars, (t,))
                    rest[t] = c * b
                    k = -(t >> shift & _FIELD)
                    heappush(heap, (k, t))
                    if k == level:  # never for one form; can repeat for products
                        check_bound("polynomial terms", len(quotient), MAX_TERMS)
    check_bound("polynomial terms", len(quotient), MAX_TERMS)
    return _canon(nvars, quotient), _canon(nvars, rest) if any(rest.values()) else Poly.zero(nvars)


def exact_divide(p: Poly, divisor: Divisor) -> Poly | None:
    """p divided by a product of linear forms prepared by `linear_divisor`,
    in one `divide_linear`; None when it is inexact."""
    q, rem = divide_linear(p, divisor)
    return None if rem.packed else q


def root_poly(rs: RootSystem, root: Root) -> Poly:
    """Any root as a linear form in the fundamental-weight variables."""
    coeffs = [sum(map(mul, root.coords, col)) for col in zip(*rs.cartan)]
    return Poly.linear(rs.rank, coeffs)


def weight_matrix(w: WeylElement) -> tuple[tuple[int, ...], ...]:
    """Integer matrix of w on fundamental-weight coordinates.

    Entry (k, j), the coefficient of w_k in w(w_j), is <w_j, beta^vee> with
    beta = w^-1(alpha_k): row k is the coroot of beta.
    """
    rs, winv = w.rs, w.inv().perm
    return tuple(rs.coroots[winv[k]] for k in rs.simple_indices)


def root_forms(rs: RootSystem) -> tuple[Poly, ...]:
    """Every root as a linear form, indexed like rs.roots and built once per
    system.  Since w . root_poly(beta) = root_poly(w(beta)), the action of w
    on root k is the form at w.perm[k]: a lookup, with no substitution."""
    return rs.kept(_root_polys)


def _root_polys(rs: RootSystem) -> tuple[Poly, ...]:
    return tuple(root_poly(rs, r) for r in rs.roots)


def weyl_act(w: WeylElement, p: Poly) -> Poly:
    """The ring automorphism of S induced by w on weights.

    Only the variables that occur in p get their image w(w_j), column j of
    `weight_matrix(w)`, each in O(rank); `substitute` never reads the image
    of a variable of exponent 0, so the others share the zero form."""
    rank = w.rs.rank
    if p.nvars != rank:
        raise InvalidInputError("polynomial variable count does not match rank")
    rows, zero = weight_matrix(w), Poly.zero(rank)
    used = _exponents(rank, reduce(or_, (m for m, _ in p.packed), 0))
    return p.substitute([Poly.linear(rank, [row[j] for row in rows]) if used[j] else zero
                         for j in range(rank)])
