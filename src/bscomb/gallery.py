"""Galleries over sequences of reflections and the gallery-type decision procedure.

A sequence of reflections s on positions 1..n carries the set Gamma(s) of
2^n galleries: one bit per position, bit i set meaning gamma_i = s_i and
clear meaning gamma_i = 1.  Folding operators flip single bits, prefix
products gamma^i live in W, and a depth-first search over chambers decides
whether the wall sequence of s can be realized by a labelled gallery,
returning a certificate (x, t, gamma) with t^(gamma) = s^x when it can.
The search remembers the (position, chamber) states it has seen fail, so it
visits at most n*|W| of them whatever the start chamber.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product

from .errors import InvalidInputError, ResourceLimitError
from .rootsys import (
    Reflection,
    RootSystem,
    WeylElement,
    conjugate_reflection,
    enumerate_weyl,
)

MAX_LENGTH = 20

Bits = tuple[bool, ...]


@dataclass(frozen=True)
class ReflSeq:
    """An ordered sequence of reflections on positions 1..n.

    Arbitrary totally ordered index sets are normalized to 1..n on
    ingestion; `positions` retains the original labels for display.
    """

    rs: RootSystem = field(compare=True)
    entries: tuple[Reflection, ...] = field(compare=True)
    positions: tuple[int, ...] = field(default=(), compare=False)

    def __post_init__(self):
        for t in self.entries:
            if t.rs != self.rs:
                raise InvalidInputError("sequence entry from a different root system")
        if not self.positions:
            object.__setattr__(self, "positions", tuple(range(1, len(self.entries) + 1)))
        elif len(self.positions) != len(self.entries):
            raise InvalidInputError("position labels do not match sequence length")

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i: int) -> Reflection:
        """1-based access, matching the position convention."""
        if not 1 <= i <= len(self.entries):
            raise InvalidInputError(f"position {i} out of range 1..{len(self.entries)}")
        return self.entries[i - 1]

    def truncated(self) -> "ReflSeq":
        """Drop the last entry (the truncation s')."""
        if not self.entries:
            raise InvalidInputError("cannot truncate an empty sequence")
        return ReflSeq(self.rs, self.entries[:-1], self.positions[:-1])

    def prefix_seq(self, k: int) -> "ReflSeq":
        return ReflSeq(self.rs, self.entries[:k], self.positions[:k])

    @cached_property
    def patterns(self) -> dict[Bits, None]:
        """The 2^n bit patterns of Gamma(s) in lexicographic order, as the
        keys of a dict (an ordered set); built once per sequence object, so
        tables keyed by them share the key tuples.  n <= MAX_LENGTH."""
        check_length(len(self.entries))
        return dict.fromkeys(product((False, True), repeat=len(self.entries)))

    @cached_property
    def prefixes(self) -> list[dict[Bits, WeylElement]]:
        """Prefix products of every gallery: level i maps each pattern of
        i bits to gamma^i, so gamma^i = prefixes[i][gamma.bits[:i]].

        Built once per sequence object by doubling over the bit tree: level
        i extends each pattern of level i-1 by a stay (same product) and a
        cross (times s_i), 2^n - 1 products in all rather than O(n) per
        gallery and index.  n <= MAX_LENGTH.
        """
        check_length(len(self.entries))
        levels = [{(): self.rs.identity()}]
        for t in self.entries:
            ti = t.as_weyl()
            levels.append({b + (x,): u * ti if x else u
                           for b, u in levels[-1].items() for x in (False, True)})
        return levels

    def all_simple(self) -> bool:
        return all(t.is_simple() for t in self.entries)

    def __str__(self):
        return " ".join(str(t) for t in self.entries) if self.entries else "(empty)"

    def __hash__(self):
        return hash(self.entries)


@dataclass(frozen=True)
class Gallery:
    """An element of Gamma(s): bit i set means gamma_i = s_i."""

    seq: ReflSeq = field(compare=False)
    bits: Bits = field(compare=True)

    def __post_init__(self):
        if len(self.bits) != len(self.seq):
            raise InvalidInputError("gallery length does not match its sequence")

    def __str__(self):
        return "".join("1" if b else "0" for b in self.bits) if self.bits else "-"

    def __hash__(self):
        return hash(self.bits)


@dataclass(frozen=True)
class Gallerification:
    """Certificate that a sequence is of gallery type: t^(gamma) = s^x."""

    x: WeylElement
    t: ReflSeq
    gamma: Gallery


def check_length(n: int) -> None:
    """Refuse a sequence whose 2^n galleries exceed the length bound."""
    if n > MAX_LENGTH:
        raise ResourceLimitError(f"sequence length {n} exceeds bound {MAX_LENGTH}")


def galleries(s: ReflSeq) -> list[Gallery]:
    """All 2^n galleries of s in bit-lexicographic order; n <= MAX_LENGTH."""
    return [Gallery(s, bits) for bits in s.patterns]


def prefix(gamma: Gallery, i: int) -> WeylElement:
    """The partial product gamma^i = gamma_1 ... gamma_i; i = 0 gives e.

    For one gallery; `ReflSeq.prefixes` tabulates every gallery at once."""
    if not 0 <= i <= len(gamma.bits):
        raise InvalidInputError(f"prefix index {i} out of range 0..{len(gamma.bits)}")
    w = gamma.seq.rs.identity()
    for k in range(1, i + 1):
        if gamma.bits[k - 1]:
            w = w * gamma.seq[k].as_weyl()
    return w


def fold(gamma: Gallery, i: int) -> Gallery:
    """Flip the choice at position i (1-based)."""
    if not 1 <= i <= len(gamma.bits):
        raise InvalidInputError(f"fold index {i} out of range")
    bits = list(gamma.bits)
    bits[i - 1] = not bits[i - 1]
    return Gallery(gamma.seq, tuple(bits))


def conj_seq(s: ReflSeq, w: WeylElement) -> ReflSeq:
    """The conjugated sequence s^w with (s^w)_i = w s_i w^-1."""
    return ReflSeq(s.rs, tuple(conjugate_reflection(w, t) for t in s.entries),
                   s.positions)


def conj_gallery(gamma: Gallery, w: WeylElement) -> Gallery:
    """gamma^w over s^w; the bit pattern is unchanged."""
    return Gallery(conj_seq(gamma.seq, w), gamma.bits)


def twist_seq(s: ReflSeq, gamma: Gallery) -> ReflSeq:
    """s^(gamma) with entry i equal to gamma^i s_i (gamma^i)^-1."""
    if gamma.seq != s:
        raise InvalidInputError("gallery does not live over this sequence")
    entries = []
    w = s.rs.identity()
    for i in range(1, len(s) + 1):
        if gamma.bits[i - 1]:
            w = w * s[i].as_weyl()
        entries.append(conjugate_reflection(w, s[i]))
    return ReflSeq(s.rs, tuple(entries), s.positions)


def fixed_points_w(s: ReflSeq, w: WeylElement) -> list[Gallery]:
    """Gamma(s, w): all galleries whose full prefix product equals w."""
    return [Gallery(s, bits) for bits, u in s.prefixes[len(s)].items() if u == w]


def d_w_shadow(gamma: Gallery, w: WeylElement) -> Gallery:
    """Transport gamma in Gamma(s, x) to Gamma(s^w, w x w^-1) by conjugation."""
    n = len(gamma.bits)
    x = prefix(gamma, n)
    image = conj_gallery(gamma, w)
    expect = w * x * w.inv()
    if prefix(image, n) != expect:
        raise InvalidInputError("conjugation did not transport the fixed point")
    return image


_GALLERY_TYPE_CACHE: dict = {}


def is_gallery_type(s: ReflSeq) -> Gallerification | None:
    """Search for a gallerification of s; None if no labelled gallery exists.

    States are chambers u.Delta+ encoded by Weyl elements u.  At position i
    the current chamber must be attached to the wall of s_i, which makes
    t_i = u^-1 s_i u simple; the walk then stays (gamma_i = 1) or crosses
    (u -> s_i u, gamma_i = t_i).  Start chambers are explored in
    enumerate_weyl order and stay before cross, so the first certificate
    found is deterministic.  x = u0^-1.  Whether a state (i, u) can be
    completed depends on nothing else, so a state that failed once is never
    walked again, from any start chamber: at most n*|W| states in all.
    """
    cache_key = (s.rs, s.entries)
    if cache_key in _GALLERY_TYPE_CACHE:
        cached = _GALLERY_TYPE_CACHE[cache_key]
        if cached is None:
            return None
        # rebuild with the caller's display positions
        t = ReflSeq(s.rs, cached.t.entries, s.positions)
        return Gallerification(cached.x, t, Gallery(t, cached.gamma.bits))
    table = s.rs.reflections
    entries = s.entries
    dead = set()

    def walk(i: int, u: WeylElement) -> tuple[tuple, Bits] | None:
        """(t entries, bits) for positions i+1..n from chamber u, or None."""
        if i == len(entries):
            return (), ()
        if (i, u.perm) in dead:
            return None
        # u^-1 s_i u = s_beta with beta = u^-1(root of s_i): beta's index is
        # the preimage under u's permutation, so u is never inverted
        ti = table[u.perm.index(entries[i].index)]
        if ti.is_simple():
            for cross in (False, True):
                rest = walk(i + 1, entries[i].as_weyl() * u if cross else u)
                if rest is not None:
                    return (ti, *rest[0]), (cross, *rest[1])
        dead.add((i, u.perm))
        return None

    for u0 in enumerate_weyl(s.rs):
        found = walk(0, u0)
        if found is not None:
            t = ReflSeq(s.rs, found[0], s.positions)
            cert = Gallerification(u0.inv(), t, Gallery(t, found[1]))
            verify_gallerification(s, cert)
            _GALLERY_TYPE_CACHE[cache_key] = cert
            return cert
    _GALLERY_TYPE_CACHE[cache_key] = None
    return None


def verify_gallerification(s: ReflSeq, cert: Gallerification) -> None:
    """Check t^(gamma) = s^x entrywise; raise if the certificate is unsound."""
    from .errors import VerificationError

    lhs = twist_seq(cert.t, cert.gamma)
    rhs = conj_seq(s, cert.x)
    if lhs.entries != rhs.entries:
        raise VerificationError("gallerification fails t^(gamma) = s^x")
    if not cert.t.all_simple():
        raise VerificationError("gallerification sequence is not simple")
