"""Morphisms of folding categories.

A morphism (p, w, phi) from a sequence s of length n to a sequence s~ of
length n~ consists of a strictly increasing map p of positions, a Weyl
element w, and a map phi between gallery sets satisfying two conditions
for all galleries gamma and positions i:

    phi(gamma)^{p(i)} s~_{p(i)} (phi(gamma)^{p(i)})^{-1}
        = w gamma^i s_i (gamma^i)^{-1} w^{-1}
    phi(f_i gamma) = f_{p(i)} phi(gamma)

Since foldings act transitively on galleries, phi is determined by its
value on a single seed; enumeration exploits this, while verification
always walks the full table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .errors import InvalidInputError, ResourceLimitError, VerificationError
from .gallery import Bits, Gallery, ReflSeq
from .rootsys import WeylElement, conjugate_reflection, enumerate_weyl

MAX_MORPHISM_LENGTH = 12


@dataclass(frozen=True)
class MorphismViolation:
    """First failed check of verify_morphism or verify_pointed."""

    condition: str
    bits: Bits
    position: int | None = None

    def __str__(self):
        gallery = "".join("1" if b else "0" for b in self.bits) or "-"
        where = f" at position {self.position}" if self.position is not None else ""
        return f"{self.condition} fails at gallery {gallery}{where}"


@dataclass(frozen=True)
class Morphism:
    """A triple (p, w, phi) with phi stored as a full table on Gamma(source)."""

    source: ReflSeq
    target: ReflSeq
    p: tuple[int, ...]
    w: WeylElement
    phi: dict[Bits, Bits] = field(hash=False)
    verified: bool = field(default=False, compare=False)

    def __post_init__(self):
        if self.source.rs != self.target.rs:
            raise InvalidInputError("source and target are over different root systems")
        n, m = len(self.source), len(self.target)
        if len(self.p) != n:
            raise InvalidInputError("p must be defined on every source position")
        if any(not 1 <= j <= m for j in self.p):
            raise InvalidInputError("p maps outside the target positions")
        if any(a >= b for a, b in zip(self.p, self.p[1:])):
            raise InvalidInputError("p must be strictly increasing")

    def apply(self, gamma: Gallery) -> Gallery:
        if gamma.seq != self.source:
            raise InvalidInputError("gallery does not live over the source")
        image = self.phi.get(gamma.bits)
        if image is None:
            raise InvalidInputError("phi table is not total")
        return Gallery(self.target, image)

    def key(self) -> tuple:
        return (self.p, self.w.perm, tuple(sorted(self.phi.items())))


@dataclass(frozen=True)
class PointedMorphism:
    """A morphism between pointed sequences (s, x) -> (s~, x~)."""

    morphism: Morphism
    x: WeylElement
    x_target: WeylElement


def _table_ok(m: Morphism) -> MorphismViolation | None:
    n, nt = len(m.source), len(m.target)
    expected = 1 << n
    if len(m.phi) != expected:
        return MorphismViolation("phi-total", ())
    for bits, image in m.phi.items():
        if len(bits) != n or len(image) != nt:
            return MorphismViolation("phi-shape", bits)
    return None


def verify_morphism(m: Morphism) -> MorphismViolation | None:
    """Check both defining equations exhaustively; None means verified.

    Twist entry i of a gallery is gamma^i s_i (gamma^i)^-1, read from the
    prefix tables of source and target.  On success the morphism's verified
    flag is set in place.
    """
    if max(len(m.source), len(m.target)) > MAX_MORPHISM_LENGTH:
        raise ResourceLimitError("sequence length exceeds morphism bound")
    bad = _table_ok(m)
    if bad is not None:
        return bad
    s, t, phi = m.source, m.target, m.phi
    src, tgt = s.prefixes, t.prefixes
    for bits in s.patterns:
        image = phi[bits]
        for i, j in enumerate(m.p, start=1):
            lhs = conjugate_reflection(tgt[j][image[:j]], t[j])
            rhs = conjugate_reflection(m.w, conjugate_reflection(src[i][bits[:i]], s[i]))
            if lhs != rhs:
                return MorphismViolation("wall-equation", bits, i)
            folded = bits[:i - 1] + (not bits[i - 1],) + bits[i:]
            expect = image[:j - 1] + (not image[j - 1],) + image[j:]
            if phi[folded] != expect:
                return MorphismViolation("folding-equation", bits, i)
    object.__setattr__(m, "verified", True)
    return None


def identity_morphism(s: ReflSeq) -> Morphism:
    return subsequence_morphism(s, s, tuple(range(1, len(s) + 1)))


def subsequence_morphism(s: ReflSeq, target: ReflSeq,
                         p: tuple[int, ...]) -> Morphism:
    """The embedding with w = e placing gamma_i at p(i) and 1 elsewhere."""
    for i in range(1, len(s) + 1):
        if target[p[i - 1]] != s[i]:
            raise InvalidInputError(
                f"target entry at {p[i - 1]} does not match source entry {i}")
    phi = _propagated_table(s, p, (False,) * len(target))
    m = Morphism(s, target, p, s.rs.identity(), phi)
    bad = verify_morphism(m)
    if bad is not None:
        raise VerificationError(f"subsequence morphism unsound: {bad}")
    return m


def compose(outer: Morphism, inner: Morphism) -> Morphism:
    """outer after inner; raises VerificationError unless the composite verifies."""
    if inner.target != outer.source:
        raise InvalidInputError("morphisms are not composable")
    p = tuple(outer.p[j - 1] for j in inner.p)
    phi = {bits: outer.phi[image] for bits, image in inner.phi.items()}
    m = Morphism(inner.source, outer.target, p, outer.w * inner.w, phi)
    bad = verify_morphism(m)
    if bad is not None:
        raise VerificationError(f"composite is not a morphism: {bad}")
    return m


def _propagated_table(s: ReflSeq, p: tuple[int, ...],
                      seed_image: Bits) -> dict[Bits, Bits]:
    # Folding from the all-stay seed flips target bit p(i) whenever source
    # bit i is set; bit flips commute, so the table is path-independent.
    table = {}
    for bits in s.patterns:
        image = list(seed_image)
        for j, bit in zip(p, bits):
            if bit:
                image[j - 1] = not image[j - 1]
        table[bits] = tuple(image)
    return table


def enumerate_morphisms(s: ReflSeq, target: ReflSeq) -> list[Morphism]:
    """All morphisms s -> target, in deterministic order.

    phi is determined by (p, seed image), so candidates are propagated from
    the all-stay gallery and filtered by full verification.  Ordering is
    lexicographic in p, then enumerate_weyl order of w, then seed image.
    """
    if s.rs != target.rs:
        raise InvalidInputError("source and target are over different root systems")
    n, nt = len(s), len(target)
    if max(n, nt) > MAX_MORPHISM_LENGTH:
        raise ResourceLimitError("sequence length exceeds morphism bound")
    if n > nt:
        return []
    out = []
    weyl_order = enumerate_weyl(s.rs)
    seeds = list(target.patterns)
    for p in combinations(range(1, nt + 1), n):
        for w in weyl_order:
            for seed in seeds:
                phi = _propagated_table(s, p, seed)
                m = Morphism(s, target, p, w, phi)
                if verify_morphism(m) is None:
                    out.append(m)
    return out


def verify_pointed(pm: PointedMorphism) -> MorphismViolation | None:
    """Check the pointed condition at every gallery of the source.

    Requires x~ (phi(gamma)^max)^{-1} = w x (gamma^max)^{-1} w^{-1} for all
    gamma, which in particular carries Gamma(s, x) into Gamma(s~, x~).
    """
    m = pm.morphism
    if not m.verified:
        bad = verify_morphism(m)
        if bad is not None:
            return bad
    winv = m.w.inv()
    tgt = m.target.prefixes[len(m.target)]
    for bits, u in m.source.prefixes[len(m.source)].items():
        lhs = pm.x_target * tgt[m.phi[bits]].inv()
        rhs = m.w * pm.x * u.inv() * winv
        if lhs != rhs:
            return MorphismViolation("pointed-condition", bits)
    return None
