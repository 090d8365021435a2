"""Morphisms of folding categories.

A morphism (p, w, phi) from a sequence s of length n to a sequence s~ of
length n~ consists of a strictly increasing map p of positions, a Weyl
element w, and a map phi between gallery sets satisfying two conditions
for all galleries gamma and positions i:

    phi(gamma)^{p(i)} s~_{p(i)} (phi(gamma)^{p(i)})^{-1}
        = w gamma^i s_i (gamma^i)^{-1} w^{-1}
    phi(f_i gamma) = f_{p(i)} phi(gamma)

Since foldings act transitively on galleries, phi is determined by its
value on a single seed.  Twist entries come from one table per sequence,
`ReflSeq.twists`; enumeration keys candidates by the wall equation at the
all-stay gallery and then verifies each one in full.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from itertools import combinations
from types import MappingProxyType

from .errors import (
    MAX_CANDIDATE_GALLERIES,
    MAX_MORPHISM_LENGTH,
    InvalidInputError,
    Value,
    VerificationError,
    check_bound,
)
from .gallery import Bits, ReflSeq, serialize_bits
from .rootsys import WeylElement, enumerate_weyl, quotient_perm


class MorphismViolation(Value):
    """First failed check of verify_morphism or verify_pointed."""

    __slots__ = ("condition", "bits", "position")

    def __str__(self):
        where = f" at position {self.position}" if self.position is not None else ""
        return f"{self.condition} fails at gallery {serialize_bits(self.bits)}{where}"


class Morphism(Value, compare=("source", "target", "p", "w", "phi")):
    """A triple (p, w, phi) with phi stored as a full table on Gamma(source);
    `verified` is neither a constructor argument nor compared: it starts
    False and only `verify_morphism` sets it.  phi is compared but not
    hashed, and is a read-only view of a private copy of the table it is
    given, so a verified table cannot be edited afterwards.  The
    constructor checks the systems and p (`_positions`); only the tables
    this module builds are wrapped unchecked and uncopied (`_morphism`)."""

    __slots__ = ("source", "target", "p", "w", "phi", "verified")

    def __init__(self, source: ReflSeq, target: ReflSeq, p: tuple[int, ...],
                 w: WeylElement, phi: Mapping[Bits, Bits]):
        source.rs.require_same(target.rs, "source and target are over different root systems")
        source.rs.require_same(w.rs, "w is from a different root system")
        self._fill(source, target, _positions(p, source, target), w,
                   MappingProxyType(dict(phi)), False)

    def __hash__(self):
        return hash((self.source, self.target, self.p, self.w))

    def __reduce__(self):
        # the phi view does not pickle: deepcopy and pickle rebuild through
        # the constructor, and a verified morphism is verified again
        return _rebuild, (self.verified, self.source, self.target, self.p, self.w, dict(self.phi))

    def __copy__(self):
        return self  # immutable, as a tuple is


def _positions(p, source: ReflSeq, target: ReflSeq) -> tuple[int, ...]:
    """p as a tuple: ints (not bools), one per source position, rising in the target's."""
    if not isinstance(p, (list, tuple)) or not all(type(j) is int for j in p):
        raise InvalidInputError("p must be a list of integers")
    if len(p) != len(source):
        raise InvalidInputError("p must be defined on every source position")
    if any(not 1 <= j <= len(target) for j in p):
        raise InvalidInputError("p maps outside the target positions")
    if any(a >= b for a, b in zip(p, p[1:])):
        raise InvalidInputError("p must be strictly increasing")
    return tuple(p)


def _morphism(source: ReflSeq, target: ReflSeq, p: tuple[int, ...],
              w: WeylElement, phi: dict[Bits, Bits]) -> Morphism:
    """The unverified Morphism of a table this module has just built, in a
    read-only view."""
    return Morphism._trusted(source, target, p, w, MappingProxyType(phi), False)


def _rebuild(verified: bool, *fields) -> Morphism:
    m = Morphism(*fields)
    if verified:
        verify_morphism(m)
    return m


class PointedMorphism(Value):
    """A morphism between pointed sequences (s, x) -> (s~, x~)."""

    __slots__ = ("morphism", "x", "x_target")


def verify_morphism(m: Morphism) -> MorphismViolation | None:
    """Check both defining equations exhaustively; None means verified.

    w s_beta w^-1 = s_{w(beta)}, so the wall equation at (gamma, i) compares
    the target's twist entry p(i) with w's image of the source's entry i, up
    to sign.  phi's keys must be the source's patterns (else phi-total), and
    each image one of the target's (else phi-shape) when the pass reaches
    its gallery.  On success the verified flag is set in place.
    """
    check_bound("morphism sequence length", max(len(m.source), len(m.target)),
                MAX_MORPHISM_LENGTH)
    phi, rows = m.phi, m.source.twists
    if phi.keys() != rows.keys():
        return MorphismViolation("phi-total", (), None)
    tgt, perm, refl = m.target.twists, m.w.perm, m.w.rs.reflection_index
    for bits, src in rows.items():
        image = phi[bits]
        try:
            row = tgt[image]
        except (KeyError, TypeError):  # not one of the target's patterns
            return MorphismViolation("phi-shape", bits, None)
        for i, j in enumerate(m.p, start=1):
            if row[j - 1] != refl[perm[src[i - 1]]]:
                return MorphismViolation("wall-equation", bits, i)
            folded = bits[:i - 1] + (not bits[i - 1],) + bits[i:]
            expect = image[:j - 1] + (not image[j - 1],) + image[j:]
            if phi[folded] != expect:
                return MorphismViolation("folding-equation", bits, i)
    object.__setattr__(m, "verified", True)
    return None


def subsequence_morphism(s: ReflSeq, target: ReflSeq,
                         p: tuple[int, ...]) -> Morphism:
    """The embedding with w = e placing gamma_i at p(i) and 1 elsewhere."""
    s.rs.require_same(target.rs, "source and target are over different root systems")
    p = _positions(p, s, target)
    for i in range(1, len(s) + 1):
        if target[p[i - 1]] != s[i]:
            raise InvalidInputError(
                f"target entry at {p[i - 1]} does not match source entry {i}")
    m = _morphism(s, target, p, s.rs.identity(),
                  _propagated_table(s, p, (False,) * len(target)))
    bad = verify_morphism(m)
    if bad is not None:
        raise VerificationError(f"subsequence morphism unsound: {bad}")
    return m


def compose(outer: Morphism, inner: Morphism) -> Morphism:
    """outer after inner; raises VerificationError unless the composite verifies.

    The composite's p, w and systems are valid whenever outer's and inner's
    are, so its fresh table is wrapped unchecked (`_morphism`) and then
    verified in full."""
    if inner.target != outer.source:
        raise InvalidInputError("morphisms are not composable")
    p = tuple(outer.p[j - 1] for j in inner.p)
    phi = {bits: outer.phi[image] for bits, image in inner.phi.items()}
    m = _morphism(inner.source, outer.target, p, outer.w * inner.w, phi)
    bad = verify_morphism(m)
    if bad is not None:
        raise VerificationError(f"composite is not a morphism: {bad}")
    return m


def _propagated_table(s: ReflSeq, p: tuple[int, ...],
                      seed_image: Bits) -> dict[Bits, Bits]:
    # Folding from the all-stay seed flips target bit p(i) whenever source
    # bit i is set; bit flips commute, so the table is path-independent.
    # Patterns run in lexicographic order, so the 2^k from 2^k on are the
    # first 2^k crossed at position n - k.
    images = [seed_image]
    for j in reversed(p):
        images += [image[:j - 1] + (not image[j - 1],) + image[j:] for image in images]
    return dict(zip(s.patterns, images))


def enumerate_morphisms(s: ReflSeq, target: ReflSeq) -> list[Morphism]:
    """All morphisms s -> target, in deterministic order.

    phi is propagated from (p, seed), the image of the all-stay gallery, whose
    twist entries are s_1..s_n: the wall equation there asks that w map the
    root of s_i to +-(the seed's twist entry p(i)).  So w is keyed by those
    images, seeds by their entries at p, and only matching pairs are verified
    in full.  Order: p lexicographic, then w in enumerate_weyl order, then seed.
    Each candidate is verified over the 2^n galleries of s, and more than
    MAX_CANDIDATE_GALLERIES candidates times 2^n are refused before any is built.
    """
    s.rs.require_same(target.rs, "source and target are over different root systems")
    n, nt = len(s), len(target)
    check_bound("morphism sequence length", max(n, nt), MAX_MORPHISM_LENGTH)
    if n > nt:
        return []
    refl = s.rs.reflection_index
    keyed = [(tuple(refl[w.perm[t.index]] for t in s.entries), w)
             for w in enumerate_weyl(s.rs)]
    w_count = Counter(key for key, _ in keyed)
    # a (p, w, seed) whose keys match is a candidate; the buckets that can
    # match are kept, and the candidates counted and bounded before any is built
    plans = []
    for p in combinations(range(1, nt + 1), n):
        buckets: dict[tuple[int, ...], list[Bits]] = {}
        for seed, row in target.twists.items():
            buckets.setdefault(tuple(row[j - 1] for j in p), []).append(seed)
        plans.append((p, {key: seeds for key, seeds in buckets.items() if key in w_count}))
    check_bound("morphism candidate galleries", 2 ** n * sum(
        w_count[key] * len(seeds) for _, buckets in plans for key, seeds in buckets.items()),
        MAX_CANDIDATE_GALLERIES)
    out = []
    for p, buckets in plans:
        for key, w in keyed:
            for seed in buckets.get(key, ()):
                m = _morphism(s, target, p, w, _propagated_table(s, p, seed))
                if verify_morphism(m) is None:
                    out.append(m)
    return out


def verify_pointed(pm: PointedMorphism) -> MorphismViolation | None:
    """Check the pointed condition at every gallery of the source.

    Requires x~ (phi(gamma)^max)^{-1} = w x (gamma^max)^{-1} w^{-1} for all
    gamma, which in particular carries Gamma(s, x) into Gamma(s~, x~).
    An unverified morphism is verified first.  c = x^-1 w^-1 x~ is formed
    once, as the permutation (w x)^-1 x~ (`quotient_perm`), and each
    gallery is compared on root permutations; an x or x~ of another system
    is refused as a product refuses it, InvalidInputError("cannot multiply
    elements of different systems").
    """
    m = pm.morphism
    if not m.verified:
        bad = verify_morphism(m)
        if bad is not None:
            return bad
    # x~ v^-1 = w x u^-1 w^-1 holds exactly when v = w u c, c = x^-1 w^-1 x~;
    # composed on root permutations, (w u c)[k] = w[u[c[k]]]
    c = quotient_perm(m.w, pm.x, pm.x_target)
    w = m.w.perm.__getitem__
    phi, tgt = m.phi, m.target.prefixes[len(m.target)]
    for bits, u in m.source.prefixes[len(m.source)].items():
        if tgt[phi[bits]].perm != tuple(map(w, map(u.perm.__getitem__, c))):
            return MorphismViolation("pointed-condition", bits, None)
    return None
