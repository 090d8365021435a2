"""Nested structures, projections, fibres, and the counting bijection."""

import random
from itertools import product

import pytest

from bscomb.errors import InvalidInputError, PropertyViolationError
from bscomb.gallery import ReflSeq, is_gallery_type
from bscomb.nested import (
    FSelection,
    NestedPlan,
    betti_rank,
    factor_fixed_points,
    fibre_data,
    fixed_points,
    is_gallery_type_pair,
    poincare_polynomial,
    project,
    restricted_seq,
    v_power,
    validate,
)
from bscomb.rootsys import build_root_system, enumerate_weyl

from conftest import positive_root, simple_seq


def make_plan(rs, letters, pairs, words):
    seq = simple_seq(rs, *letters)
    labels = {}
    for r, word in zip(pairs, words):
        w = rs.identity()
        for i in word:
            w = w * rs.simple_reflection(i)
        labels[r] = w
    return NestedPlan(seq, tuple(pairs), labels)


@pytest.fixture(scope="module")
def sl5_plan():
    rs = build_root_system("A", 4)
    return make_plan(rs, (4, 1, 2, 1, 2, 1, 3, 4, 3, 4),
                     [(1, 10), (2, 6)], [(2, 3, 4), (2,)])


def test_validate_ok(sl5_plan):
    assert validate(sl5_plan) is None


def test_validate_overlap(a2):
    plan = make_plan(a2, (1, 2, 1, 2, 1), [(1, 3), (2, 5)], [(), ()])
    violation = validate(plan)
    assert violation is not None
    assert "nested" in violation.condition or "disjoint" in violation.condition


def test_validate_shared_endpoint(a2):
    plan = make_plan(a2, (1, 2, 1), [(1, 2), (2, 3)], [(), ()])
    assert validate(plan) is not None


def test_v_power(sl5_plan):
    F = FSelection.of(sl5_plan, [(2, 6)])
    rs = sl5_plan.seq.rs
    assert v_power(sl5_plan, F, 1).is_identity()
    assert v_power(sl5_plan, F, 7) == rs.simple_reflection(2)
    with pytest.raises(InvalidInputError):
        v_power(sl5_plan, F, 4)


def test_sl5_projection(sl5_plan):
    rs = sl5_plan.seq.rs
    F = FSelection.of(sl5_plan, [(2, 6)])
    base = project(sl5_plan, F)
    s2 = rs.simple_reflection(2)
    # s^F = (s4, s2 s3 s2, s4, s2 s3 s2, s4) as reflections
    entries = [t.as_weyl() for t in base.seq.entries]
    s4 = rs.simple_reflection(4)
    s232 = s2 * rs.simple_reflection(3) * s2
    assert entries == [s4, s232, s4, s232, s4]
    # v^F(1,10) = s2 s3 s4 s2
    (pair,) = base.pairs
    assert base.display(pair) == (1, 10)
    expected = (s2 * rs.simple_reflection(3) * rs.simple_reflection(4) * s2)
    assert base.labels[pair] == expected


def test_sl5_fibre(sl5_plan):
    rs = sl5_plan.seq.rs
    fib = fibre_data(sl5_plan, (2, 6))
    assert [t.as_weyl() for t in fib.seq.entries] == [
        rs.simple_reflection(i) for i in (1, 2, 1, 2, 1)]
    (span,) = fib.pairs
    assert fib.labels[span] == rs.simple_reflection(2)


def test_trivial_labels_project_to_restriction(a2):
    plan = make_plan(a2, (1, 2, 1, 2), [(2, 3)], [()])
    base = project(plan, FSelection.of(plan, [(2, 3)]))
    assert [t for t in base.seq.entries] == [plan.seq[1], plan.seq[4]]


def test_fixed_points_examples(a2):
    plan = make_plan(a2, (1, 2), [(1, 2)], [(1, 2)])
    assert [g.bits for g in fixed_points(plan)] == [(True, True)]
    plan2 = make_plan(a2, (1, 1), [(1, 1)], [(1,)])
    assert sorted(g.bits for g in fixed_points(plan2)) == [
        (True, False), (True, True)]


def test_fixed_points_no_constraints(a2):
    plan = make_plan(a2, (1, 2, 1), [], [])
    assert len(fixed_points(plan)) == 8


def test_factor_fixed_points_sl5(sl5_plan):
    F = FSelection.of(sl5_plan, [(2, 6)])
    cert = factor_fixed_points(sl5_plan, F)
    base_count = len(fixed_points(cert.base_plan))
    fibre_count = len(fixed_points(cert.fibre_plans[0]))
    assert cert.count == base_count * fibre_count
    assert cert.count == len(fixed_points(sl5_plan))


def test_factor_fixed_points_random_a3(a3):
    rng = random.Random(7)
    order = enumerate_weyl(a3)
    for _ in range(25):
        n = rng.randint(2, 6)
        letters = [rng.randint(1, 3) for _ in range(n)]
        pairs, used = [], set()
        for _ in range(rng.randint(1, 2)):
            a = rng.randint(1, n)
            b = rng.randint(a, n)
            if {a, b} & used:
                continue
            if all(b < c or d < a or (c <= a and b <= d) or (a <= c and d <= b)
                   for c, d in pairs):
                pairs.append((a, b))
                used.update((a, b))
        plan = make_plan(a3, letters, pairs, [()] * len(pairs))
        plan = NestedPlan(plan.seq, plan.pairs,
                          {r: rng.choice(order) for r in plan.pairs})
        if validate(plan) is not None:
            continue
        disjoint = [f for f in plan.pairs
                    if all(f == g or f[1] < g[0] or g[1] < f[0]
                           for g in plan.pairs)]
        if not disjoint:
            continue
        cert = factor_fixed_points(plan, FSelection.of(plan, disjoint))
        assert cert.count == len(fixed_points(plan))


def test_restricted_seq(sl5_plan):
    rs = sl5_plan.seq.rs
    # I((1,10), R) drops [2,6]; entries after position 6 are conjugated by v(2,6)
    s = restricted_seq(sl5_plan, (1, 10))
    assert len(s) == 5
    s2 = rs.simple_reflection(2)
    assert s.entries[0] == sl5_plan.seq[1]
    for k, i in enumerate((7, 8, 9, 10), start=1):
        expected = positive_root(s2.apply(sl5_plan.seq[i].root))
        assert s.entries[k].root == expected


def test_gallery_type_pair(sl5_plan, a2):
    ok, certs = is_gallery_type_pair(sl5_plan)
    assert ok
    assert set(certs) == {(1, 10), (2, 6)}
    plan = make_plan(a2, (1, 2, 1), [], [])
    assert is_gallery_type_pair(plan)[0]


def test_projection_stability_small(a2):
    # projections and fibres of gallery-type plans stay gallery-type
    plan = make_plan(a2, (1, 2, 1, 2), [(1, 4), (2, 3)], [(1,), (2,)])
    assert validate(plan) is None
    assert is_gallery_type_pair(plan)[0]
    F = FSelection.of(plan, [(2, 3)])
    assert is_gallery_type_pair(project(plan, F))[0]
    assert is_gallery_type_pair(fibre_data(plan, (2, 3)))[0]


def test_poincare_polynomial(a2):
    s = simple_seq(a2, 1, 2, 1)
    assert poincare_polynomial(s) == (1, 0, 3, 0, 3, 0, 1)
    plan = make_plan(a2, (1, 2, 1), [], [])
    assert betti_rank(plan) == 8 == len(fixed_points(plan))


def _reference_fixed_points(plan):
    """Every gallery whose product over each constrained interval equals the
    label, filtered in bit-lexicographic order: the definition of
    Gamma(s, v), as a reference for the depth-first walk."""
    rs = plan.seq.rs
    out = []
    for bits in product((False, True), repeat=len(plan.seq)):
        ok = True
        for r in plan.pairs:
            w = rs.identity()
            for i in range(r[0], r[1] + 1):
                if bits[i - 1]:
                    w = w * plan.seq[i].as_weyl()
            ok = ok and w == plan.labels[r]
        if ok:
            out.append(bits)
    return out


def _nested_pair_sets(n):
    """Every set of pairs on 1..n that satisfies the nested-structure rules."""
    cands = [(a, b) for a in range(1, n + 1) for b in range(a, n + 1)]

    def extend(chosen, start):
        yield chosen
        for k in range(start, len(cands)):
            r = cands[k]
            if all(not {r[0], r[1]} & {q[0], q[1]}
                   and (r[1] < q[0] or q[1] < r[0]
                        or (q[0] <= r[0] and r[1] <= q[1])
                        or (r[0] <= q[0] and q[1] <= r[1])) for q in chosen):
                yield from extend(chosen + (r,), k + 1)

    return list(extend((), 0))


def _interval_products(seq, pairs, bits):
    rs = seq.rs
    out = []
    for r in pairs:
        w = rs.identity()
        for i in range(r[0], r[1] + 1):
            if bits[i - 1]:
                w = w * seq[i].as_weyl()
        out.append(w)
    return tuple(out)


def test_fixed_points_match_filter_all_a2_plans(a2):
    # Every A2 sequence up to length 4 with every nested pair set.  Labels
    # range over every tuple some gallery attains, plus one tuple no gallery
    # attains when there is one, which covers every distinct fixed-point set.
    refls = [a2.reflection(r) for r in a2.roots if r.is_positive]
    order = enumerate_weyl(a2)
    checked = 0
    for n in range(5):
        pair_sets = _nested_pair_sets(n)
        for entries in product(refls, repeat=n):
            seq = ReflSeq(a2, entries)
            patterns = list(product((False, True), repeat=n))
            for pairs in pair_sets:
                if not pairs:
                    label_sets = [()]
                else:
                    attained = {_interval_products(seq, pairs, b) for b in patterns}
                    missed = next((t for t in product(order, repeat=len(pairs))
                                   if t not in attained), None)
                    label_sets = sorted(attained, key=lambda t: [w.perm for w in t])
                    label_sets += [missed] if missed else []
                for labels in label_sets:
                    plan = NestedPlan(seq, pairs, dict(zip(pairs, labels)))
                    got = [g.bits for g in fixed_points(plan)]
                    assert got == _reference_fixed_points(plan), (seq, pairs, labels)
                    checked += 1
    assert checked > 10_000


@pytest.mark.parametrize("system", [("A", 3), ("B", 3), ("D", 4)])
def test_fixed_points_match_filter_random(system):
    rs = build_root_system(*system)
    refls = [rs.reflection(r) for r in rs.roots if r.is_positive]
    order = enumerate_weyl(rs)
    rng = random.Random(11)
    nonempty = 0
    for _ in range(40):
        n = rng.randint(0, 9)
        seq = ReflSeq(rs, tuple(rng.choice(refls) for _ in range(n)))
        pairs = rng.choice(_nested_pair_sets(n)) if n <= 6 else _random_pairs(rng, n)
        # labels read off a random gallery, so the set is mostly nonempty,
        # or drawn at random
        bits = tuple(rng.random() < 0.5 for _ in range(n))
        labels = (_interval_products(seq, pairs, bits) if rng.random() < 0.75
                  else tuple(rng.choice(order) for _ in pairs))
        plan = NestedPlan(seq, pairs, dict(zip(pairs, labels)))
        got = [g.bits for g in fixed_points(plan)]
        assert got == _reference_fixed_points(plan), (seq, pairs, labels)
        nonempty += bool(got)
    assert nonempty >= 20


def _random_pairs(rng, n):
    """A random nested pair set on 1..n, built by rejection."""
    pairs = []
    for _ in range(rng.randint(1, 4)):
        a = rng.randint(1, n)
        r = (a, rng.randint(a, n))
        if all(not {r[0], r[1]} & {q[0], q[1]}
               and (r[1] < q[0] or q[1] < r[0]
                    or (q[0] <= r[0] and r[1] <= q[1])
                    or (r[0] <= q[0] and q[1] <= r[1])) for q in pairs):
            pairs.append(r)
    return tuple(pairs)
