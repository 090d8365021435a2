"""Galleries over sequences of reflections and the gallery-type decision procedure.

A sequence of reflections s on positions 1..n carries the set Gamma(s) of
2^n galleries: one bit per position, bit i set meaning gamma_i = s_i and
clear meaning gamma_i = 1.  Folding operators flip single bits, prefix
products gamma^i live in W, and one backward pass over chambers decides
whether the wall sequence of s can be realized by a labelled gallery,
returning a certificate (x, t, gamma) with t^(gamma) = s^x when it can.
The pass reads one table per reflection, from each chamber attached to
its wall to the chamber across it, does O(|W|) set work per position, and
keeps no answer between calls.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product

from .errors import MAX_LENGTH, InvalidInputError, Value, VerificationError, check_bound
from .rootsys import (
    Reflection,
    RootSystem,
    WeylElement,
    attached,
    enumerate_weyl,
)

Bits = tuple[bool, ...]


class ReflSeq(Value):
    """An ordered sequence of reflections on positions 1..n.

    Equal and hashed by (root system, entries).  A plan that renumbers
    positions keeps the original pair labels itself (`NestedPlan.display_pairs`).
    """

    __slots__ = ("rs", "entries", "__dict__")

    def __init__(self, rs: RootSystem, entries: tuple[Reflection, ...]):
        self._fill(rs, tuple(entries))
        for t in self.entries:
            rs.require_same(t.rs, "sequence entry from a different root system")

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
        return ReflSeq(self.rs, self.entries[:-1])

    @cached_property
    def patterns(self) -> dict[Bits, None]:
        """The 2^n bit patterns of Gamma(s) in lexicographic order, as the
        keys of a dict (an ordered set); built once per sequence object, so
        tables keyed by them share the key tuples.  n <= MAX_LENGTH."""
        check_bound("sequence length", len(self.entries), MAX_LENGTH)
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
        check_bound("sequence length", len(self.entries), MAX_LENGTH)
        levels = [{(): self.rs.identity()}]
        for t in self.entries:
            ti = t.as_weyl()
            levels.append({b + (x,): u * ti if x else u
                           for b, u in levels[-1].items() for x in (False, True)})
        return levels

    @cached_property
    def twists(self) -> dict[Bits, tuple[int, ...]]:
        """Twist entries of every gallery: twists[bits][i-1] is the index in
        rs.reflections of gamma^i s_i (gamma^i)^-1 = gamma^{i-1} s_i
        (gamma^{i-1})^-1, so it depends on bits[:i-1] alone.  Built once per
        sequence object by doubling over the bit tree, as `prefixes`;
        `_twist_row` is the one-gallery form.  n <= MAX_LENGTH (`prefixes` checks)."""
        refl, level = self.rs.reflection_index, {(): ()}
        for t, products in zip(self.entries, self.prefixes):
            nxt = {}
            for b, row in level.items():
                row += (refl[products[b].perm[t.index]],)
                nxt[b + (False,)] = nxt[b + (True,)] = row
            level = nxt
        return level

    def all_simple(self) -> bool:
        return all(t.is_simple() for t in self.entries)


class Gallery(Value, compare=("bits",)):
    """An element of Gamma(s): bit i set means gamma_i = s_i.  Equal and
    hashed by its bits alone, whichever equal sequence it is over."""

    __slots__ = ("seq", "bits")

    def __init__(self, seq: ReflSeq, bits: Bits):
        self._fill(seq, tuple(bits))
        if len(self.bits) != len(self.seq):
            raise InvalidInputError("gallery length does not match its sequence")


def serialize_bits(bits: Bits) -> str:
    """A bit pattern as text: "101", and "-" for the empty pattern."""
    return "".join("1" if b else "0" for b in bits) or "-"


class Gallerification(Value):
    """Certificate that a sequence is of gallery type: t^(gamma) = s^x."""

    __slots__ = ("x", "t", "gamma")


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
    return Gallery(gamma.seq, bits)


def _twist_row(s: ReflSeq, bits: Bits) -> list[int]:
    """`ReflSeq.twists[bits]`, the twist row of one gallery of s, in one pass."""
    if len(bits) != len(s):
        raise InvalidInputError("gallery length does not match its sequence")
    w, row, refl = s.rs.identity().perm, [], s.rs.reflection_index
    for t, bit in zip(s.entries, bits):
        row.append(refl[w[t.index]])
        if bit:
            w = tuple(map(w.__getitem__, t.as_weyl().perm))
    return row


def twist_seq(s: ReflSeq, bits: Bits) -> ReflSeq:
    """s^(gamma) for the gallery of s with pattern bits: entry i is gamma^i s_i (gamma^i)^-1."""
    return ReflSeq(s.rs, tuple(map(s.rs.reflections.__getitem__, _twist_row(s, bits))))


def is_gallery_type(s: ReflSeq) -> Gallerification | None:
    """The first gallerification of s, or None if no labelled gallery exists.

    One backward pass over chambers in enumerate_weyl order finds alive[i],
    the chambers from which positions i+1..n can be completed.  The
    certificate starts at the first chamber u0 of alive[0], x = u0^-1, and
    stays wherever it can: the first certificate of a search over start
    chambers in enumerate_weyl order, stay before cross.  It is verified
    before it is returned, and nothing is kept between calls.
    """
    rs = s.rs
    order = enumerate_weyl(rs)
    walls = [attached(rs, t.index) for t in s.entries]
    alive = [range(len(order))]
    for wall in reversed(walls):
        a = wall.keys() & alive[-1]
        if not a:
            return None
        alive.append(a.union(map(wall.__getitem__, a)))
    alive.reverse()
    k = min(alive[0])
    u0, entries, bits = order[k], [], []
    for si, wall, ahead in zip(s.entries, walls, alive[1:]):
        cross = k not in ahead
        # t_i = s_{u^-1(beta_i)}, and both halves of the roots share one reflection
        entries.append(rs.reflections[order[k].perm.index(si.index)])
        bits.append(cross)
        if cross:
            k = wall[k]
    t = ReflSeq(rs, tuple(entries))
    cert = Gallerification(u0.inv(), t, Gallery(t, tuple(bits)))
    verify_gallerification(s, cert)
    return cert


def verify_gallerification(s: ReflSeq, cert: Gallerification) -> None:
    """Check t^(gamma) = s^x entrywise; raise VerificationError if the
    certificate is unsound, and InvalidInputError for a gallery of another
    length than t or an x of another system than a nonempty s."""
    t, x = cert.t, cert.x
    lhs = _twist_row(t, cert.gamma.bits)
    if s.entries:
        s.rs.require_same(x.rs, "mismatched root systems")
    rhs = [x.rs.reflection_index[x.perm[si.index]] for si in s.entries]
    if lhs != rhs or (rhs and t.rs != s.rs):
        raise VerificationError("gallerification fails t^(gamma) = s^x")
    if not t.all_simple():
        raise VerificationError("gallerification sequence is not simple")
