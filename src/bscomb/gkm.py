"""Fixed-point model of torus-equivariant cohomology for Bott-Samelson data.

Classes are functions from the gallery set Gamma(s) to the polynomial ring
S = Sym of the rational weight lattice, with W acting by linear
substitution.  The module provides the generator classes, the copy and
concentration operators, a triangular basis of 2^n elements indexed by
subsets of positions, and exact decomposition in its span.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    InvalidInputError,
    NotInSpanError,
    ResourceLimitError,
    VerificationError,
)
from .foldcat import Morphism
from .gallery import Bits, Gallery, ReflSeq, galleries, prefix
from .poly import Poly, exact_divide, root_poly, weyl_act
from .rootsys import WeylElement

MAX_BASIS_LENGTH = 12


@dataclass(frozen=True)
class FPFunction:
    """A function Gamma(s) -> S, stored as a total table keyed by bits."""

    seq: ReflSeq = field(compare=False)
    values: dict[Bits, Poly] = field(hash=False)

    def __post_init__(self):
        if set(self.values) != {g.bits for g in galleries(self.seq)}:
            raise InvalidInputError("table does not cover Gamma(s) exactly")
        for p in self.values.values():
            if p.nvars != self.seq.rs.rank:
                raise InvalidInputError("value in the wrong polynomial ring")

    def __call__(self, gamma: Gallery) -> Poly:
        if gamma.seq != self.seq:
            raise InvalidInputError("gallery does not live over this sequence")
        return self.values[gamma.bits]

    def __add__(self, other: "FPFunction") -> "FPFunction":
        if other.seq != self.seq:
            raise InvalidInputError("functions over different sequences")
        return FPFunction(self.seq, {b: p + other.values[b]
                                     for b, p in self.values.items()})

    def __sub__(self, other: "FPFunction") -> "FPFunction":
        if other.seq != self.seq:
            raise InvalidInputError("functions over different sequences")
        return FPFunction(self.seq, {b: p - other.values[b]
                                     for b, p in self.values.items()})

    def __mul__(self, other):
        """Pointwise product with a function, or scaling by S / a rational."""
        if isinstance(other, FPFunction):
            if other.seq != self.seq:
                raise InvalidInputError("functions over different sequences")
            return FPFunction(self.seq, {b: p * other.values[b]
                                         for b, p in self.values.items()})
        if isinstance(other, (Poly, int, Fraction)):
            return FPFunction(self.seq, {b: p * other
                                         for b, p in self.values.items()})
        return NotImplemented

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.values.values())

    def degree(self) -> int:
        """Maximal cohomological degree: 2 x polynomial degree; -2 if zero."""
        return 2 * max((p.degree() for p in self.values.values()), default=-1)


def constant(s: ReflSeq, c) -> FPFunction:
    p = c if isinstance(c, Poly) else Poly.const(s.rs.rank, c)
    return FPFunction(s, {g.bits: p for g in galleries(s)})


def generator(s: ReflSeq, i: int, w: WeylElement, c: Poly) -> FPFunction:
    """The restriction of the generator class: gamma -> (gamma^i w) . c.

    i = 0 plays the role of -infinity, where the prefix is trivial.
    """
    if not 0 <= i <= len(s):
        raise InvalidInputError(f"generator index {i} out of range 0..{len(s)}")
    return FPFunction(s, {g.bits: weyl_act(prefix(g, i) * w, c)
                          for g in galleries(s)})


def copy(s: ReflSeq, g: FPFunction) -> FPFunction:
    """Delta g over s, for g over the truncation of s: the value at gamma
    only depends on the truncated gallery."""
    if g.seq != s.truncated():
        raise InvalidInputError("function is not over the truncation of s")
    return FPFunction(s, {gal.bits: g.values[gal.bits[:-1]]
                          for gal in galleries(s)})


def concentrate(s: ReflSeq, g: FPFunction, cross: bool) -> FPFunction:
    """nabla_t g over s for t = s_n (cross=True) or t = 1 (cross=False).

    The value at gamma is gamma^n(-alpha_n) g(gamma') when the last step of
    gamma matches t, and zero otherwise.
    """
    if g.seq != s.truncated():
        raise InvalidInputError("function is not over the truncation of s")
    n = len(s)
    neg_alpha = -root_poly(s.rs, s[n].root)
    zero = Poly.zero(s.rs.rank)
    out = {}
    for gal in galleries(s):
        if gal.bits[-1] == cross:
            out[gal.bits] = weyl_act(prefix(gal, n), neg_alpha) * g.values[gal.bits[:-1]]
        else:
            out[gal.bits] = zero
    return FPFunction(s, out)


def concentration_identity_check(s: ReflSeq, g: FPFunction, cross: bool) -> bool:
    """Verify nabla_t g = -1/2 (Sigma(s,n-1,1)*(t alpha_n)
    + Sigma(s,n,1)*(alpha_n)) . Delta g pointwise."""
    n = len(s)
    alpha = root_poly(s.rs, s[n].root)
    t_alpha = weyl_act(s[n].as_weyl(), alpha) if cross else alpha
    factor = (generator(s, n - 1, s.rs.identity(), t_alpha)
              + generator(s, n, s.rs.identity(), alpha)) * Fraction(-1, 2)
    rhs = factor * copy(s, g)
    return concentrate(s, g, cross).values == rhs.values


@dataclass(frozen=True)
class BasisElement:
    """B_J with its leading value at gamma_J pre-factored into linear forms."""

    subset: frozenset[int]
    function: FPFunction
    lead_factors: tuple[Poly, ...]

    def lead_bits(self) -> Bits:
        n = len(self.function.seq)
        return tuple(i + 1 in self.subset for i in range(n))


def basis(s: ReflSeq) -> list[BasisElement]:
    """The 2^n triangular basis, ordered by (|J|, sorted J).
    B_J is built from the unit on the empty sequence by copying at
    positions outside J and concentrating at t = s_i for positions in J, so
    B_J vanishes off {gamma : J subset supp(gamma)} and its value at
    gamma_J is the product of the linear forms prefix(gamma_J, i)(-alpha_i)
    over i in J.  Both facts are re-verified on construction.
    """
    n = len(s)
    if n > MAX_BASIS_LENGTH:
        raise ResourceLimitError(f"sequence length {n} exceeds basis bound")
    empty = ReflSeq(s.rs, ())
    level: dict[frozenset[int], FPFunction] = {
        frozenset(): constant(empty, 1)}
    for k in range(1, n + 1):
        sk = s.prefix_seq(k)
        nxt: dict[frozenset[int], FPFunction] = {}
        for J, f in level.items():
            nxt[J] = copy(sk, f)
            nxt[J | {k}] = concentrate(sk, f, True)
        level = nxt
    out = []
    for J in sorted(level, key=lambda J: (len(J), sorted(J))):
        f = level[J]
        lead = tuple(weyl_act(prefix(Gallery(s, tuple(i + 1 in J for i in range(n))), i),
                              -root_poly(s.rs, s[i].root))
                     for i in sorted(J))
        elem = BasisElement(J, f, lead)
        _verify_basis_element(s, elem)
        out.append(elem)
    return out


def _verify_basis_element(s: ReflSeq, elem: BasisElement) -> None:
    product = Poly.const(s.rs.rank, 1)
    for ell in elem.lead_factors:
        product = product * ell
    if elem.function.values[elem.lead_bits()] != product:
        raise VerificationError("basis element has the wrong leading value")
    for bits, p in elem.function.values.items():
        if not elem.subset <= {i for i, b in enumerate(bits, start=1) if b}:
            if not p.is_zero():
                raise VerificationError("basis element breaks triangularity")


def decompose(g: FPFunction,
              basis_elements: list[BasisElement] | None = None
              ) -> dict[frozenset[int], Poly]:
    """Express g as sum c_J B_J; raises NotInSpanError when impossible.

    The recursion runs over subsets in ascending cardinality; each step
    divides exactly by the product of the linear factors of B_J, and the
    result is re-verified by reconstruction.
    """
    s = g.seq
    if basis_elements is None:
        basis_elements = basis(s)
    elems = {e.subset: e for e in basis_elements}
    coeffs: dict[frozenset[int], Poly] = {}
    for J in sorted(elems, key=lambda J: (len(J), sorted(J))):
        elem = elems[J]
        bits = elem.lead_bits()
        residue = g.values[bits]
        for Jp, c in coeffs.items():
            if Jp < J:
                residue = residue - c * elems[Jp].function.values[bits]
        q = exact_divide(residue, list(elem.lead_factors))
        if q is None:
            raise NotInSpanError(sorted(J), str(residue))
        coeffs[J] = q
    recon = constant(s, 0)
    for J, c in coeffs.items():
        recon = recon + c * elems[J].function
    if recon.values != g.values:
        raise VerificationError("decomposition failed to reconstruct g")
    return coeffs


def combine(basis_elements: list[BasisElement],
            coeffs: dict[frozenset[int], Poly]) -> FPFunction:
    """The linear combination sum c_J B_J."""
    s = basis_elements[0].function.seq
    out = constant(s, 0)
    elems = {e.subset: e for e in basis_elements}
    for J, c in coeffs.items():
        out = out + c * elems[J].function
    return out


def induced_map(m: Morphism, g: FPFunction) -> FPFunction:
    """Pull back g over the target along a verified morphism:
    gamma -> w^{-1} . g(phi(gamma))."""
    if not m.verified:
        raise InvalidInputError("morphism has not been verified")
    if g.seq != m.target:
        raise InvalidInputError("function is not over the morphism target")
    winv = m.w.inv()
    return FPFunction(m.source,
                      {bits: weyl_act(winv, g.values[m.phi[bits]])
                       for bits in m.phi})
