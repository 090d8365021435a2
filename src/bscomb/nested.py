"""Nested structures on index sets and the projection-along-F calculus.

A nested plan is a sequence of reflections together with a set R of
non-crossing interval constraints (r1, r2) labelled by Weyl elements: a
gallery satisfies the plan when the product of its entries over every
constrained interval equals the label.  Projection along a disjoint family
F inside R conjugates the surviving positions by the accumulated labels and
reproduces the constrained gallery set as a product of a base and fibres,
which this module verifies by explicit bijection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvalidInputError, PropertyViolationError
from .gallery import (
    Gallerification,
    Gallery,
    ReflSeq,
    check_length,
    conjugate_reflection,
    is_gallery_type,
)
from .rootsys import WeylElement

Pair = tuple[int, int]


@dataclass(frozen=True)
class Violation:
    """First violated nested-structure condition and the offending pairs."""

    condition: str
    pairs: tuple[Pair, ...]

    def __str__(self):
        return f"{self.condition}: {', '.join(map(str, self.pairs))}"


@dataclass(frozen=True)
class NestedPlan:
    """A pair (R, v): interval constraints on a sequence, labelled in W.

    `pairs` are 1-based inclusive intervals in the operational numbering of
    `seq`; `display_pairs` keeps the original labels after renumbering.
    """

    seq: ReflSeq
    pairs: tuple[Pair, ...]
    labels: dict[Pair, WeylElement] = field(default_factory=dict)
    display_pairs: dict[Pair, Pair] = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.seq)
        object.__setattr__(self, "pairs", tuple(sorted(self.pairs)))
        for r in self.pairs:
            if not (1 <= r[0] <= n and 1 <= r[1] <= n):
                raise InvalidInputError(f"pair {r} out of range 1..{n}")
            if r not in self.labels:
                raise InvalidInputError(f"pair {r} has no label")
        for r, w in self.labels.items():
            if r not in self.pairs:
                raise InvalidInputError(f"label for unknown pair {r}")
            if w.rs != self.seq.rs:
                raise InvalidInputError("label from a different root system")

    def display(self, r: Pair) -> Pair:
        return self.display_pairs.get(r, r)


def validate(plan: NestedPlan) -> Violation | None:
    """Check the three nested-structure conditions; None means ok."""
    for r in plan.pairs:
        if r[0] > r[1]:
            return Violation("endpoint order r1 <= r2 violated", (r,))
    for i, r in enumerate(plan.pairs):
        for q in plan.pairs[i + 1:]:
            if {r[0], r[1]} & {q[0], q[1]}:
                return Violation("endpoint sets not disjoint", (r, q))
    for i, r in enumerate(plan.pairs):
        for q in plan.pairs[i + 1:]:
            disjoint = r[1] < q[0] or q[1] < r[0]
            nested = (r[0] <= q[0] and q[1] <= r[1]) or (q[0] <= r[0] and r[1] <= q[1])
            if not (disjoint or nested):
                return Violation("intervals neither disjoint nor nested", (r, q))
    return None


def _require_valid(plan: NestedPlan) -> None:
    v = validate(plan)
    if v is not None:
        raise InvalidInputError(f"invalid nested structure ({v})")


@dataclass(frozen=True)
class FSelection:
    """A nonempty subset F of the plan's pairs with pairwise disjoint intervals."""

    pairs: tuple[Pair, ...]

    def __post_init__(self):
        if not self.pairs:
            raise InvalidInputError("F must be nonempty")
        ordered = tuple(sorted(self.pairs))
        object.__setattr__(self, "pairs", ordered)
        for f, g in zip(ordered, ordered[1:]):
            if g[0] <= f[1]:
                raise InvalidInputError(f"intervals {f} and {g} of F are not disjoint")

    @classmethod
    def of(cls, plan: NestedPlan, pairs) -> "FSelection":
        sel = cls(tuple(pairs))
        for f in sel.pairs:
            if f not in plan.pairs:
                raise InvalidInputError(f"{f} is not a pair of the plan")
        return sel


def v_power(plan: NestedPlan, F: FSelection, i: int) -> WeylElement:
    """The accumulated label v^i: product of v_f over f in F with f_2 < i."""
    for f in F.pairs:
        if f[0] <= i <= f[1]:
            raise InvalidInputError(f"position {i} lies inside the interval {f}")
    w = plan.seq.rs.identity()
    for f in F.pairs:
        if f[1] < i:
            w = w * plan.labels[f]
    return w


def _surviving_positions(plan: NestedPlan, F: FSelection) -> list[int]:
    covered = set()
    for f in F.pairs:
        covered.update(range(f[0], f[1] + 1))
    return [i for i in range(1, len(plan.seq) + 1) if i not in covered]


def project(plan: NestedPlan, F: FSelection) -> NestedPlan:
    """The projected plan (s^F, R^F, v^F) on the surviving positions.

    Positions are densely renumbered; original labels are retained in the
    sequence's `positions` and in `display_pairs`.
    """
    _require_valid(plan)
    F = FSelection.of(plan, F.pairs)
    survivors = _surviving_positions(plan, F)
    renum = {pos: k for k, pos in enumerate(survivors, start=1)}
    entries = []
    for pos in survivors:
        vi = v_power(plan, F, pos)
        entries.append(conjugate_reflection(vi, plan.seq[pos]))
    seq = ReflSeq(plan.seq.rs, tuple(entries),
                  tuple(plan.seq.positions[p - 1] for p in survivors))
    pairs, labels, display = [], {}, {}
    for r in plan.pairs:
        if any(f[0] <= r[0] and r[1] <= f[1] for f in F.pairs):
            continue
        image = (renum[r[0]], renum[r[1]])
        v1 = v_power(plan, F, r[0])
        v2 = v_power(plan, F, r[1])
        pairs.append(image)
        labels[image] = v1 * plan.labels[r] * v2.inv()
        display[image] = plan.display(r)
    return NestedPlan(seq, tuple(pairs), labels, display)


def fibre_data(plan: NestedPlan, f: Pair) -> NestedPlan:
    """The fibre plan over [f]: s restricted, pairs inside f, span adjoined.

    The span pair of the fibre is f itself with label v_f, so the fibre's
    nested structure is closed.
    """
    _require_valid(plan)
    if f not in plan.pairs:
        raise InvalidInputError(f"{f} is not a pair of the plan")
    lo, hi = f
    renum = {pos: pos - lo + 1 for pos in range(lo, hi + 1)}
    seq = ReflSeq(plan.seq.rs, plan.seq.entries[lo - 1:hi],
                  plan.seq.positions[lo - 1:hi])
    pairs, labels, display = [], {}, {}
    for r in plan.pairs:
        if lo <= r[0] and r[1] <= hi:
            image = (renum[r[0]], renum[r[1]])
            pairs.append(image)
            labels[image] = plan.labels[r]
            display[image] = plan.display(r)
    return NestedPlan(seq, tuple(pairs), labels, display)


def fixed_points(plan: NestedPlan) -> list[Gallery]:
    """Gamma(s, v): galleries satisfying all interval constraints, in
    bit-lexicographic order.

    The product over [a, b] is (gamma^(a-1))^-1 gamma^b, so a depth-first
    walk over the bits, stay before cross, carries gamma^0..gamma^i and
    drops a branch at position b as soon as gamma^b != gamma^(a-1) v_(a,b).
    Endpoints are distinct, so at most one pair closes at each position.
    """
    _require_valid(plan)
    seq = plan.seq
    n = len(seq)
    check_length(n)
    steps = [t.as_weyl() for t in seq.entries]
    closes = {b: (a, plan.labels[(a, b)]) for a, b in plan.pairs}
    gamma = [seq.rs.identity()] * (n + 1)
    bits = [False] * n
    out = []

    def walk(i: int) -> None:
        if i == n:
            out.append(Gallery(seq, tuple(bits)))
            return
        closing = closes.get(i + 1)
        want = gamma[closing[0] - 1] * closing[1] if closing else None
        for cross in (False, True):
            u = gamma[i] * steps[i] if cross else gamma[i]
            if want is None or u == want:
                bits[i] = cross
                gamma[i + 1] = u
                walk(i + 1)

    walk(0)
    return out


@dataclass(frozen=True)
class FactorCertificate:
    """Verified bijection Gamma(s,v) <-> Gamma(s^F,v^F) x prod Gamma(s_f,v_f)."""

    base_plan: NestedPlan
    fibre_plans: tuple[NestedPlan, ...]
    forward: dict[Gallery, tuple[Gallery, tuple[Gallery, ...]]]

    @property
    def count(self) -> int:
        return len(self.forward)


def factor_fixed_points(plan: NestedPlan, F: FSelection) -> FactorCertificate:
    """Build and verify the explicit factoring of the constrained gallery set.

    A gallery maps to its bit restriction to the surviving positions (a
    gallery over s^F) together with its restrictions to each [f].  Raises
    PropertyViolationError if the map fails to be a bijection onto the
    product, which would falsify the implementation.
    """
    _require_valid(plan)
    F = FSelection.of(plan, F.pairs)
    base_plan = project(plan, F)
    fibre_plans = tuple(fibre_data(plan, f) for f in F.pairs)
    survivors = _surviving_positions(plan, F)

    source = fixed_points(plan)
    base_set = set(fixed_points(base_plan))
    fibre_sets = [set(fixed_points(fp)) for fp in fibre_plans]

    forward: dict[Gallery, tuple[Gallery, tuple[Gallery, ...]]] = {}
    seen_images: set = set()
    for g in source:
        base = Gallery(base_plan.seq, tuple(g.bits[p - 1] for p in survivors))
        parts = tuple(
            Gallery(fp.seq, g.bits[f[0] - 1:f[1]])
            for fp, f in zip(fibre_plans, F.pairs)
        )
        if base not in base_set or any(p not in s for p, s in zip(parts, fibre_sets)):
            raise PropertyViolationError(
                f"image of gallery {g} lands outside the product")
        key = (base, parts)
        if key in seen_images:
            raise PropertyViolationError(f"factoring map is not injective at {g}")
        seen_images.add(key)
        forward[g] = key

    expected = len(base_set)
    for s in fibre_sets:
        expected *= len(s)
    if len(forward) != expected:
        raise PropertyViolationError(
            f"factoring map not surjective: {len(forward)} != {expected}")
    return FactorCertificate(base_plan, fibre_plans, forward)


def restricted_seq(plan: NestedPlan, r: Pair) -> ReflSeq:
    """The sequence s^(r,v) on I(r, R): [r] minus the maximal nested intervals,
    with surviving entries conjugated by the accumulated nested labels."""
    _require_valid(plan)
    if r not in plan.pairs:
        raise InvalidInputError(f"{r} is not a pair of the plan")
    inner = [q for q in plan.pairs
             if r[0] <= q[0] and q[1] <= r[1] and q != r]
    maximal = [q for q in inner
               if not any(p[0] <= q[0] and q[1] <= p[1] and p != q for p in inner)]
    maximal.sort()
    entries, positions = [], []
    acc = plan.seq.rs.identity()
    k = 0
    for pos in range(r[0], r[1] + 1):
        while k < len(maximal) and maximal[k][1] < pos:
            acc = acc * plan.labels[maximal[k]]
            k += 1
        if any(q[0] <= pos <= q[1] for q in maximal):
            continue
        entries.append(conjugate_reflection(acc, plan.seq[pos]))
        positions.append(plan.seq.positions[pos - 1])
    return ReflSeq(plan.seq.rs, tuple(entries), tuple(positions))


def is_gallery_type_pair(plan: NestedPlan
                         ) -> tuple[bool, dict[Pair, Gallerification | None]]:
    """Whether every restricted sequence s^(r,v) is of gallery type.

    Empty R is vacuously of gallery type.  Returns the verdict plus the
    certificate (or None) per pair.
    """
    _require_valid(plan)
    certs: dict[Pair, Gallerification | None] = {}
    ok = True
    for r in plan.pairs:
        cert = is_gallery_type(restricted_seq(plan, r))
        certs[r] = cert
        if cert is None:
            ok = False
    return ok, certs


def poincare_polynomial(seq: ReflSeq) -> tuple[int, ...]:
    """Coefficients of (1 + q^2)^n, the unconstrained Betti numbers.

    Only the R = empty case is emitted; cell dimensions for general plans
    are out of scope.
    """
    from math import comb

    n = len(seq)
    coeffs = [0] * (2 * n + 1)
    for k in range(n + 1):
        coeffs[2 * k] = comb(n, k)
    return tuple(coeffs)


def betti_rank(plan: NestedPlan) -> int:
    """Reported free rank for gallery-type plans: the fixed-point count."""
    ok, _ = is_gallery_type_pair(plan)
    if not ok:
        raise InvalidInputError("plan is not of gallery type; rank not reported")
    return len(fixed_points(plan))
