"""Fixed-point model of torus-equivariant cohomology for Bott-Samelson data.

Classes are functions from the gallery set Gamma(s) to the polynomial ring
S = Sym of the rational weight lattice, with W acting by linear
substitution: generator classes, the copy and concentration operators, a
triangular basis of 2^n elements indexed by subsets of positions, and
exact decomposition in its span.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import cache
from types import MappingProxyType

from . import foldcat  # for an annotation; binding the lazy module runs nothing
from .errors import (
    MAX_BASIS_LENGTH,
    MAX_LEVEL_TERMS,
    MAX_TERMS,
    InvalidInputError,
    NotInSpanError,
    Value,
    VerificationError,
    check_bound,
)
from .gallery import Bits, ReflSeq
from .poly import Poly, exact_divide, linear_divisor, mul_add, root_forms, weyl_act
from .rootsys import WeylElement


class FPFunction(Value, compare=("values",)):
    """A function Gamma(s) -> S, stored as a total table keyed by bits.
    Equal by its table alone, which is not hashed, so every function
    hashes alike.  The table is a read-only view of a private copy of the
    one the constructor is given, whose keys must be s's patterns and whose
    values must be in S of s's system; only the tables this module writes
    itself skip the check and the copy (`_table`)."""

    __slots__ = ("seq", "values")

    def __init__(self, seq: ReflSeq, values: Mapping[Bits, Poly]):
        self._fill(seq, MappingProxyType(dict(values)))
        if self.values.keys() != self.seq.patterns.keys():
            raise InvalidInputError("table does not cover Gamma(s) exactly")
        for p in self.values.values():
            if p.nvars != self.seq.rs.rank:
                raise InvalidInputError("value in the wrong polynomial ring")

    def __hash__(self):
        return hash(())

    def __reduce__(self):
        # the table view does not pickle: deepcopy and pickle rebuild
        # through the constructor, which checks the table again
        return FPFunction, (self.seq, dict(self.values))

    def __copy__(self):
        return self  # immutable, as a tuple is


def _table(s: ReflSeq, values: dict[Bits, Poly]) -> FPFunction:
    """The FPFunction of a table this module wrote over s.patterns, in a
    read-only view."""
    return FPFunction._trusted(s, MappingProxyType(values))


def generator(s: ReflSeq, i: int, w: WeylElement, c: Poly) -> FPFunction:
    """The restriction of the generator class: gamma -> (gamma^i w) . c.

    i = 0 plays the role of -infinity, where the prefix is trivial.  Acts
    by w once, then by each prefix: (gamma^i w) . c = gamma^i . (w . c).
    """
    s.rs.require_same(w.rs, "w is from a different root system")
    if not 0 <= i <= len(s):
        raise InvalidInputError(f"generator index {i} out of range 0..{len(s)}")
    wc = weyl_act(w, c)
    acted = {b: weyl_act(u, wc) for b, u in s.prefixes[i].items()}
    return _table(s, {b: acted[b[:i]] for b in s.patterns})


def copy(s: ReflSeq, g: FPFunction) -> FPFunction:
    """Delta g over s, for g over the truncation of s: the value at gamma
    only depends on the truncated gallery."""
    if g.seq != s.truncated():
        raise InvalidInputError("function is not over the truncation of s")
    return _table(s, {b: g.values[b[:-1]] for b in s.patterns})


def concentrate(s: ReflSeq, g: FPFunction, cross: bool) -> FPFunction:
    """nabla_t g over s for t = s_n (cross=True) or t = 1 (cross=False).

    The value at gamma is gamma^n(-alpha_n) g(gamma') when the last step of
    gamma matches t, and zero otherwise.
    """
    if g.seq != s.truncated():
        raise InvalidInputError("function is not over the truncation of s")
    n = len(s)
    forms, neg = root_forms(s.rs), s[n].index + len(s.rs.roots) // 2  # -alpha_n
    zero, table = Poly.zero(s.rs.rank), s.prefixes[n]
    return _table(s, {b: forms[table[b].perm[neg]] * g.values[b[:-1]]
                      if b[-1] == cross and g.values[b[:-1]].packed else zero
                      for b in s.patterns})


def concentration_identity_check(s: ReflSeq, g: FPFunction, cross: bool) -> bool:
    """Verify nabla_t g = -1/2 (Sigma(s,n-1,1)*(t alpha_n)
    + Sigma(s,n,1)*(alpha_n)) . Delta g pointwise, in the form multiplied
    by -2, which has the same solutions over Q and needs no fractions: one
    gallery at a time, stopping at the first that differs.  Both Sigma
    values at gamma are roots, gamma^(n-1)(t alpha_n) with t alpha_n =
    -alpha_n when t = s_n, and gamma^n(alpha_n), read from `root_forms`.
    Their sum is zero at every gallery whose last step is not t, so the
    product is made only where the sum and Delta g(gamma) are both
    nonzero; elsewhere the right side is zero, and nabla_t g(gamma) must
    be.  Delta g and nabla_t g are built unchecked (`_table`) from g, a
    checked function, over s.patterns."""
    k, forms = s[len(s)].index, root_forms(s.rs)  # alpha_n
    tk = k + len(s.rs.roots) // 2 if cross else k  # t alpha_n
    before, last = s.prefixes[-2], s.prefixes[-1]
    nabla, delta = concentrate(s, g, cross).values, copy(s, g).values
    for b in s.patterns:
        sigma = forms[before[b[:-1]].perm[tk]] + forms[last[b].perm[k]]
        if sigma.packed and delta[b].packed:
            if nabla[b].scale(-2) != sigma * delta[b]:
                return False
        elif nabla[b].packed:
            return False
    return True


class BasisElement(Value):
    """B_J with gamma_J (bits), the gallery that crosses exactly at J."""

    __slots__ = ("subset", "function", "bits")


class Basis(tuple):
    """Elements, one per subset, in (|J|, sorted J) order, with the nonzero
    (J, B_J(gamma)) at each gallery (`columns[bits]`) and, for each nonempty
    J in that order, its lead value B_J(gamma_J) as one prepared divisor
    (`divisors[k]` for element k + 1).  Only `basis` builds one."""

    def __new__(cls, seq: ReflSeq, elements, columns, divisors):
        self = super().__new__(cls, elements)
        self.seq, self.columns, self.divisors = seq, columns, divisors
        return self

    def __reduce__(self):
        # deepcopy and pickle rebuild through `basis`, which verifies again
        return basis, (self.seq,)

    def __copy__(self):
        return self


def _step(level: dict[frozenset[int], list[tuple[int, Poly]]], k: int,
          cross: list[Poly], times) -> dict[frozenset[int], list[tuple[int, Poly]]]:
    """Level k of `basis` from level k - 1: an entry (r, p) of J stays as
    (2r, p) and (2r + 1, p) in J, and crosses as (2r + 1, cross[r] * p) in
    J + {k}, the product made by `times`."""
    nxt = {}
    for J, f in level.items():
        nxt[J] = [(q, p) for r, p in f for q in (2 * r, 2 * r + 1)]
        nxt[J | {k}] = [(2 * r + 1, times(cross[r], p)) for r, p in f]
    return nxt


def basis(s: ReflSeq) -> Basis:
    """The 2^n triangular basis, ordered by (|J|, sorted J).

    Every (factor, value) pair of a level is checked against MAX_TERMS, in
    (J, pattern) order, and the sum over the pairs against
    MAX_LEVEL_TERMS, before any of the level's products is made.  Every
    element is re-verified: its value at gamma_J is the product of the
    forms prefix(gamma_J, i)(-alpha_i) over i in J, and it has no entry off
    its support.
    """
    n = len(s)
    check_bound("basis sequence length", n, MAX_BASIS_LENGTH)
    one, zero = Poly.const(s.rs.rank, 1), Poly.zero(s.rs.rank)
    # -alpha_k as an index: rs.roots[i + N] = -rs.roots[i] for N positive roots
    forms, neg = root_forms(s.rs), [t.index + len(s.rs.roots) // 2 for t in s.entries]

    @cache  # the product table, which lives for this call
    def times(c: Poly, p: Poly) -> Poly:
        return c * p

    level: dict[frozenset[int], list[tuple[int, Poly]]] = {frozenset(): [(0, one)]}
    for k in range(1, n + 1):
        # gamma^k(-alpha_k) for each crossing k-bit pattern, in pattern order
        cross = [forms[u.perm[neg[k - 1]]] for b, u in s.prefixes[k].items() if b[-1]]
        sizes, total = [len(c.packed) for c in cross], 0
        for f in level.values():  # the level's bounds, before any of its products
            for r, p in f:
                check_bound("polynomial terms", sizes[r] * len(p.packed), MAX_TERMS)
                total += sizes[r] * len(p.packed)
        check_bound("basis level polynomial terms", total, MAX_LEVEL_TERMS)
        level = _step(level, k, cross, times)
    lead = {frozenset(): None}  # J -> its lead value, prepared as a divisor
    patterns = list(s.patterns)
    columns = {bits: [] for bits in patterns}
    by_mask = list(columns.values())
    elements = []
    for J in sorted(level, key=lambda J: (len(J), sorted(J))):
        bits = tuple(i + 1 in J for i in range(n))
        if J:
            k = max(J)
            lead[J] = linear_divisor(forms[s.prefixes[k][bits[:k]].perm[neg[k - 1]]],
                                     lead[J - {k}])
        mask, entries = sum(1 << (n - i) for i in J), level[J]
        values = dict.fromkeys(patterns, zero)
        for r, p in entries:
            values[patterns[r]] = p
        if values[bits] != (lead[J].product if J else one):
            raise VerificationError("basis element has the wrong leading value")
        for r, p in entries:
            if r & mask != mask:
                raise VerificationError("basis element breaks triangularity")
            by_mask[r].append((J, p))
        elements.append(BasisElement(J, _table(s, values), bits))
    return Basis(s, elements, columns, [lead[e.subset] for e in elements[1:]])


def decompose(g: FPFunction, b: Basis) -> dict[frozenset[int], Poly]:
    """Express g as sum c_J B_J over the `Basis` b; raises NotInSpanError
    when impossible, and InvalidInputError, before any division, for
    anything but a `Basis` of g's sequence.

    The recursion runs over subsets in ascending cardinality.  c_empty is
    g(gamma_empty), since B_empty = 1; for each nonempty J, the residue at
    gamma_J is divided once, exactly, by the lead value B_J(gamma_J) that
    `basis` prepared (`Basis.divisors`).  The result is re-verified by
    reconstruction.
    """
    s = g.seq
    if not isinstance(b, Basis):
        raise InvalidInputError("not a Basis; build one with gkm.basis")
    if b.seq is not s and b.seq != s:
        raise InvalidInputError("basis of a different sequence")
    coeffs = {b[0].subset: g.values[b[0].bits]}
    for e, divisor in zip(b[1:], b.divisors):
        J, bits = e.subset, e.bits
        residue = mul_add(g.values[bits], [(coeffs[Jp], p) for Jp, p in b.columns[bits]
                                           if Jp < J], -1)
        q = exact_divide(residue, divisor)
        if q is None:
            raise NotInSpanError(sorted(J), str(residue))
        coeffs[J] = q
    if combine(b, coeffs).values != g.values:
        raise VerificationError("decomposition failed to reconstruct g")
    return coeffs


def combine(b: Basis, coeffs: dict[frozenset[int], Poly]) -> FPFunction:
    """sum c_J B_J over a `Basis`, one mul_add per gallery over the nonzero
    B_J(gamma); refuses anything but a `Basis`."""
    if not isinstance(b, Basis):
        raise InvalidInputError("not a Basis; build one with gkm.basis")
    if not coeffs.keys() <= {e.subset for e in b}:
        raise InvalidInputError("coefficient of a subset outside the basis")
    zero = Poly.zero(b.seq.rs.rank)
    return _table(b.seq, {bits: mul_add(zero, [(coeffs[J], p) for J, p in col if J in coeffs])
                          for bits, col in b.columns.items()})


def induced_map(m: foldcat.Morphism, g: FPFunction) -> FPFunction:
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
