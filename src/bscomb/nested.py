"""Nested structures on index sets and the projection-along-F calculus.

A nested plan is a sequence of reflections together with a set R of
non-crossing interval constraints (r1, r2) labelled by Weyl elements: a
gallery satisfies the plan when the product of its entries over every
constrained interval equals the label.  Projection along a disjoint family
F inside R and the restricted sequences s^(r,v) are one contraction: delete
disjoint intervals and conjugate each surviving entry by the product of the
deleted labels before it.  The projection reproduces the constrained
gallery set as a product of a base and fibres, verified by explicit
bijection on bit patterns.
"""

from __future__ import annotations

from operator import itemgetter

from .errors import MAX_LENGTH, InvalidInputError, PropertyViolationError, Value, check_bound
from .gallery import Bits, Gallerification, ReflSeq, is_gallery_type, serialize_bits
from .rootsys import WeylElement, conjugate_reflection, inverse_perm

Pair = tuple[int, int]


class Violation(Value):
    """First violated nested-structure condition and the offending pairs."""

    __slots__ = ("condition", "pairs")

    def __str__(self):
        return f"{self.condition}: {', '.join(map(str, self.pairs))}"


class NestedPlan(Value, compare=("seq", "pairs", "labels", "display_pairs")):
    """A pair (R, v): interval constraints on a sequence, labelled in W.

    `pairs` are 1-based inclusive intervals in the operational numbering of
    `seq`; `display_pairs` keeps the original labels after renumbering.
    `violation` is found once, at construction, and `validate` returns it;
    it is not compared.  `labels` and `display_pairs` are copied, or empty.
    """

    __slots__ = ("seq", "pairs", "labels", "display_pairs", "violation")

    def __init__(self, seq: ReflSeq, pairs: tuple[Pair, ...],
                 labels: dict[Pair, WeylElement] | None = None,
                 display_pairs: dict[Pair, Pair] | None = None):
        pairs, labels = tuple(sorted(map(_pair, pairs))), dict(labels or {})
        n = len(seq)
        for r in pairs:
            if not (1 <= r[0] <= n and 1 <= r[1] <= n):
                raise InvalidInputError(f"pair {r} out of range 1..{n}")
            if r not in labels:
                raise InvalidInputError(f"pair {r} has no label")
        for r, w in labels.items():
            if _pair(r) not in pairs:
                raise InvalidInputError(f"label for unknown pair {r}")
            seq.rs.require_same(w.rs, "label from a different root system")
        self._fill(seq, pairs, labels, dict(display_pairs or {}), _first_violation(pairs))

    def display(self, r: Pair) -> Pair:
        return self.display_pairs.get(r, r)


def _pair(r) -> Pair:
    """r when it is a pair, a 2-tuple of ints (a bool is not one)."""
    if type(r) is not tuple or len(r) != 2 or type(r[0]) is not int or type(r[1]) is not int:
        raise InvalidInputError(f"bad pair {r!r}")
    return r


def _plan_pair(plan: NestedPlan, r) -> Pair:
    """r when it is a pair of the plan."""
    if _pair(r) not in plan.pairs:
        raise InvalidInputError(f"{r} is not a pair of the plan")
    return r


def _first_violation(pairs: tuple[Pair, ...]) -> Violation | None:
    """The first of the three nested-structure conditions the sorted pairs break."""
    for r in pairs:
        if r[0] > r[1]:
            return Violation("endpoint order r1 <= r2 violated", (r,))
    crossing = None
    for i, r in enumerate(pairs):
        for q in pairs[i + 1:]:
            if {r[0], r[1]} & {q[0], q[1]}:
                return Violation("endpoint sets not disjoint", (r, q))
            # sorted and sharing no end, r1 < q1: so they cross iff q1 < r2 < q2
            if crossing is None and q[0] < r[1] < q[1]:
                crossing = (r, q)
    return crossing and Violation("intervals neither disjoint nor nested", crossing)


def validate(plan: NestedPlan) -> Violation | None:
    """The plan's first violated nested-structure condition; None means ok."""
    return plan.violation


def require_valid(plan: NestedPlan) -> NestedPlan:
    """The plan; InvalidInputError "invalid nested structure (...)" if `validate` faults it."""
    if plan.violation is not None:
        raise InvalidInputError(f"invalid nested structure ({plan.violation})")
    return plan


class FSelection(Value):
    """A nonempty subset F of the plan's pairs with pairwise disjoint intervals."""

    __slots__ = ("pairs",)

    def __init__(self, pairs: tuple[Pair, ...]):
        if not pairs:
            raise InvalidInputError("F must be nonempty")
        ordered = tuple(sorted(map(_pair, pairs)))
        for f, g in zip(ordered, ordered[1:]):
            if g[0] <= f[1]:
                raise InvalidInputError(f"intervals {f} and {g} of F are not disjoint")
        self._fill(ordered)

    @classmethod
    def of(cls, plan: NestedPlan, pairs) -> "FSelection":
        sel = cls(tuple(pairs))
        for f in sel.pairs:
            _plan_pair(plan, f)
        return sel


def _contract(plan: NestedPlan, lo: int, hi: int,
              cut: tuple[Pair, ...]) -> dict[int, WeylElement]:
    """{i: v^i} for the positions i of lo..hi outside the sorted disjoint
    intervals `cut`, in order, where v^i is the product of the labels of
    the intervals of `cut` that end before i."""
    v = plan.seq.rs.identity()
    out = {}
    for f in cut:
        out.update(dict.fromkeys(range(lo, f[0]), v))
        v = v * plan.labels[f]
        lo = f[1] + 1
    out.update(dict.fromkeys(range(lo, hi + 1), v))
    return out


def _conjugated(plan: NestedPlan, v: dict[int, WeylElement]) -> ReflSeq:
    """The surviving entries of a contraction, entry i conjugated by v^i."""
    entries = plan.seq.entries
    return ReflSeq(plan.seq.rs,
                   tuple(conjugate_reflection(w, entries[i - 1]) for i, w in v.items()))


def _restrict(plan: NestedPlan, lo: int, hi: int, cut: tuple[Pair, ...]) -> NestedPlan:
    """The contraction of lo..hi along `cut` as a plan on the surviving
    positions, densely renumbered, with the original pair labels retained
    in `display_pairs`.  Endpoints are distinct and pairs nested or
    disjoint, so a pair of a valid plan survives exactly when its first
    endpoint does, and its label v_r becomes v^(r1) v_r (v^(r2))^-1."""
    v = _contract(plan, lo, hi, cut)
    renum = {pos: k for k, pos in enumerate(v, start=1)}
    pairs, labels, display = [], {}, {}
    for r in plan.pairs:
        if r[0] in v:
            image = (renum[r[0]], renum[r[1]])
            pairs.append(image)
            labels[image] = v[r[0]] * plan.labels[r] * v[r[1]].inv()
            display[image] = plan.display(r)
    return NestedPlan(_conjugated(plan, v), tuple(pairs), labels, display)


def project(plan: NestedPlan, F: FSelection) -> NestedPlan:
    """The projected plan (s^F, R^F, v^F): `_restrict` of 1..n with F cut out."""
    require_valid(plan)
    F = FSelection.of(plan, F.pairs)
    return _restrict(plan, 1, len(plan.seq), F.pairs)


def fibre_data(plan: NestedPlan, f: Pair) -> NestedPlan:
    """The fibre plan over [f]: s restricted, pairs inside f, span adjoined.

    The span pair of the fibre is f itself with label v_f, so the fibre's
    nested structure is closed.  Nothing is cut, so nothing is conjugated.
    """
    require_valid(plan)
    _plan_pair(plan, f)
    return _restrict(plan, f[0], f[1], ())


# live prefixes of one level before the sweep takes its entries one at a
# time: memory stays O(n * _WIDTH) while a level still shares its crossings
_WIDTH = 1024
_STAY, _CROSS = (False,), (True,)


def fixed_points(plan: NestedPlan) -> list[Bits]:
    """Gamma(s, v): the bit patterns of the galleries satisfying all
    interval constraints, in lexicographic order.

    A live prefix of i bits carries (gamma^i)^-1 as its images of the rank
    simple roots.  Pair (a, b) holds exactly when (gamma^b)^-1 =
    v_(a,b)^-1 (gamma^(a-1))^-1: that target is pushed when a opens and
    compared when b closes.  A level wider than _WIDTH is swept one entry
    at a time, so at most n levels of bounded width are held.
    """
    require_valid(plan)
    seq = plan.seq
    n = len(seq)
    check_bound("sequence length", n, MAX_LENGTH)
    steps = [t.as_weyl().perm for t in seq.entries]
    opens = {a - 1: inverse_perm(plan.labels[(a, b)].perm) for a, b in plan.pairs}
    closes = {b - 1 for _, b in plan.pairs}
    # an entry is (bits, images, stack), a stack being None or (target, stack)
    start = ((), seq.rs.simple_indices, None)
    out: list[Bits] = []

    def sweep(level: list, i: int) -> None:
        while i < n:
            if len(level) > _WIDTH:
                for entry in level:
                    sweep([entry], i)
                return
            step, target, closing = steps[i].__getitem__, opens.get(i), i in closes
            crossed, nxt = {}, []
            for bits, u, stack in level:
                if target is not None:
                    stack = (tuple(map(target.__getitem__, u)), stack)
                if closing:
                    want, stack = stack
                    if u == want:
                        nxt.append((bits + _STAY, u, stack))
                        continue
                c = crossed.get(u)
                if c is None:
                    c = crossed[u] = tuple(map(step, u))
                if not closing:
                    nxt += ((bits + _STAY, u, stack), (bits + _CROSS, c, stack))
                elif c == want:
                    nxt.append((bits + _CROSS, c, stack))
            level, i = nxt, i + 1
        out.extend(bits for bits, _, _ in level)

    sweep([start], 0)
    return out


class FactorCertificate(Value):
    """Verified bijection Gamma(s,v) <-> Gamma(s^F,v^F) x prod Gamma(s_f,v_f) on bits."""

    __slots__ = ("base_plan", "fibre_plans", "forward")

    @property
    def count(self) -> int:
        return len(self.forward)


def _picker(positions: list[int]):
    """One itemgetter from g to the tuple of g's entries at `positions`.
    An itemgetter of one index returns the bare entry, and one of none
    cannot be made, so those two read a slice."""
    if len(positions) > 1:
        return itemgetter(*positions)
    return itemgetter(slice(positions[0], positions[0] + 1) if positions else slice(0))


def factor_fixed_points(plan: NestedPlan, F: FSelection) -> FactorCertificate:
    """The verified bijection Gamma(s,v) -> Gamma(s^F,v^F) x prod Gamma(s_f,v_f)
    that restricts a gallery's bits to the surviving positions and to each
    [f].  Raises PropertyViolationError if the map is not a bijection onto
    the product; an invalid plan, or an F outside it, is refused by
    `project`."""
    base_plan = project(plan, F)
    fibre_plans = tuple(fibre_data(plan, f) for f in F.pairs)
    survivors = [i - 1 for i in _contract(plan, 1, len(plan.seq), F.pairs)]

    source = fixed_points(plan)
    base_set = set(fixed_points(base_plan))
    fibre_sets = [set(fixed_points(fp)) for fp in fibre_plans]

    bases = list(map(_picker(survivors), source))
    parts = [list(map(itemgetter(slice(a - 1, b)), source)) for a, b in F.pairs]
    images = list(zip(bases, zip(*parts)))
    if not (base_set.issuperset(bases)
            and all(s.issuperset(p) for s, p in zip(fibre_sets, parts))
            and len(set(images)) == len(images)):
        raise PropertyViolationError(_first_fault(source, images, base_set, fibre_sets))
    forward = dict(zip(source, images))

    expected = len(base_set)
    for s in fibre_sets:
        expected *= len(s)
    if len(forward) != expected:
        raise PropertyViolationError(
            f"factoring map not surjective: {len(forward)} != {expected}")
    return FactorCertificate(base_plan, fibre_plans, forward)


def _first_fault(source: list[Bits], images: list, base_set: set,
                 fibre_sets: list[set]) -> str:
    """The refusal of the first gallery, in source order, whose image lands
    outside the product or repeats an earlier image."""
    seen = set()
    for g, image in zip(source, images):
        base, parts = image
        if base not in base_set or any(p not in s for p, s in zip(parts, fibre_sets)):
            return f"image of gallery {serialize_bits(g)} lands outside the product"
        if image in seen:
            return f"factoring map is not injective at {serialize_bits(g)}"
        seen.add(image)
    raise AssertionError("no gallery at fault")


def restricted_seq(plan: NestedPlan, r: Pair) -> ReflSeq:
    """The sequence s^(r,v) on I(r, R): [r] minus the maximal nested intervals,
    with surviving entries conjugated by the accumulated nested labels."""
    require_valid(plan)
    _plan_pair(plan, r)
    # pairs are sorted by first endpoint, so an inner pair is maximal exactly
    # when it starts after the last maximal one ends
    maximal = []
    for q in plan.pairs:
        if r[0] < q[0] and q[1] < r[1] and (not maximal or maximal[-1][1] < q[0]):
            maximal.append(q)
    return _conjugated(plan, _contract(plan, r[0], r[1], tuple(maximal)))


def is_gallery_type_pair(plan: NestedPlan
                         ) -> tuple[bool, dict[Pair, Gallerification | None]]:
    """Whether every restricted sequence s^(r,v) is of gallery type.

    Empty R is vacuously of gallery type.  Returns the verdict plus the
    certificate (or None) per pair.
    """
    require_valid(plan)
    certs = {r: is_gallery_type(restricted_seq(plan, r)) for r in plan.pairs}
    return all(cert is not None for cert in certs.values()), certs

