"""Nested structures, projections, fibres, and the counting bijection."""

import random
from itertools import combinations, product
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bscomb import nested
from bscomb.errors import InvalidInputError, PropertyViolationError
from bscomb.gallery import Gallery, ReflSeq, is_gallery_type
from bscomb.nested import (
    FSelection,
    NestedPlan,
    factor_fixed_points,
    fibre_data,
    fixed_points,
    is_gallery_type_pair,
    project,
    restricted_seq,
    validate,
)
from bscomb.rootsys import build_root_system, conjugate_reflection, enumerate_weyl

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


@pytest.mark.parametrize("pair", [(1,), (1, 3, 5), (1.5, 3), ("1", 3), (True, 3), [1, 3]],
                         ids=repr)
def test_plan_refuses_pairs_that_are_not_two_integers(a2, pair):
    # these raised IndexError or TypeError, built a plan whose fixed points
    # then failed, or read True as 1
    labels = {} if type(pair) is list else {pair: a2.identity()}
    with pytest.raises(InvalidInputError, match="bad pair"):
        NestedPlan(simple_seq(a2, 1, 2, 1, 2, 1), (pair,), labels)


@pytest.mark.parametrize("pair", [(True, 10), (1.0, 10)], ids=repr)
@pytest.mark.parametrize("call", [fibre_data, restricted_seq], ids=lambda f: f.__name__)
def test_pair_arguments_that_only_compare_equal_are_refused(sl5_plan, call, pair):
    # (True, 10) was answered as (1, 10), and (1.0, 10) raised TypeError
    with pytest.raises(InvalidInputError, match="bad pair"):
        call(sl5_plan, pair)


@pytest.mark.parametrize("key", [(True, 3), (1.0, 3)], ids=repr)
def test_plan_refuses_a_label_keyed_by_a_look_alike_pair(a2, key):
    # such a key used to be stored as given, since it compares equal to (1, 3)
    with pytest.raises(InvalidInputError, match="bad pair"):
        NestedPlan(simple_seq(a2, 1, 2, 1, 2), ((1, 3),), {key: a2.identity()})


def test_selection_refuses_a_float_pair():
    # it used to build, and `project` then raised TypeError
    with pytest.raises(InvalidInputError, match="bad pair"):
        FSelection(((2.0, 6),))


def test_plan_keeps_its_own_label_tables(a2):
    # editing or emptying the caller's dict after construction changed the
    # fixed points, or made them raise KeyError
    seq, s1, s2 = simple_seq(a2, 1, 2, 1, 2), a2.simple_reflection(1), a2.simple_reflection(2)
    labels, display = {(1, 3): s1 * s2 * s1}, {(1, 3): (5, 7)}
    plan = NestedPlan(seq, ((1, 3),), labels, display)
    before = fixed_points(plan)
    assert len(before) == 2
    labels[(1, 3)], display[(1, 3)] = a2.identity(), (1, 3)
    assert fixed_points(plan) == before and plan.display((1, 3)) == (5, 7)
    labels.clear()
    assert fixed_points(plan) == before


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


def _reference_first_violation(pairs):
    """One pass per condition, in the order the conditions are stated."""
    for r in pairs:
        if r[0] > r[1]:
            return nested.Violation("endpoint order r1 <= r2 violated", (r,))
    for i, r in enumerate(pairs):
        for q in pairs[i + 1:]:
            if {r[0], r[1]} & {q[0], q[1]}:
                return nested.Violation("endpoint sets not disjoint", (r, q))
    for i, r in enumerate(pairs):
        for q in pairs[i + 1:]:
            disjoint = r[1] < q[0] or q[1] < r[0]
            inside = (r[0] <= q[0] and q[1] <= r[1]) or (q[0] <= r[0] and r[1] <= q[1])
            if not (disjoint or inside):
                return nested.Violation("intervals neither disjoint nor nested", (r, q))
    return None


@settings(max_examples=500, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 10), st.integers(1, 10)), max_size=6))
# a crossing is met before a shared endpoint, which is still reported first
@example([(1, 4), (2, 5), (3, 4)])
def test_first_violation_matches_one_pass_per_condition(pairs):
    pairs = tuple(sorted(pairs))
    assert nested._first_violation(pairs) == _reference_first_violation(pairs)


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
    assert fixed_points(plan) == [(True, True)]
    plan2 = make_plan(a2, (1, 1), [(1, 1)], [(1,)])
    assert sorted(fixed_points(plan2)) == [
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


@pytest.mark.parametrize("call", [project, factor_fixed_points], ids=lambda f: f.__name__)
def test_selection_outside_the_plan_refused(sl5_plan, call):
    # factor_fixed_points leaves the membership check to its project call
    with pytest.raises(InvalidInputError) as info:
        call(sl5_plan, FSelection(((3, 5),)))
    assert str(info.value) == "(3, 5) is not a pair of the plan"


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
                    got = fixed_points(plan)
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
        got = fixed_points(plan)
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


def _perm_walk_fixed_points(plan):
    """The depth-first walk the level sweep replaced, kept as a reference:
    stay before cross, carrying every prefix gamma^0..gamma^i as a raw root
    permutation, (xy)[k] = x[y[k]], and dropping a branch at position b as
    soon as gamma^b != gamma^(a-1) v_(a,b)."""
    seq = plan.seq
    n = len(seq)
    steps = [t.as_weyl().perm for t in seq.entries]
    closes = {b: (a, plan.labels[(a, b)].perm) for a, b in plan.pairs}
    gamma = [seq.rs.identity().perm] * (n + 1)
    bits = [False] * n
    out = []

    def walk(i):
        if i == n:
            out.append(tuple(bits))
            return
        closing = closes.get(i + 1)
        want = tuple(map(gamma[closing[0] - 1].__getitem__, closing[1])) if closing else None
        for cross in (False, True):
            u = tuple(map(gamma[i].__getitem__, steps[i])) if cross else gamma[i]
            if want is None or u == want:
                bits[i] = cross
                gamma[i + 1] = u
                walk(i + 1)

    walk(0)
    return out


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([("A", 3), ("B", 3), ("D", 4)]), st.integers(0, 12),
       st.sampled_from([1, 3, nested._WIDTH]), st.data())
def test_sweep_matches_perm_walk(system, n, width, data):
    # A level wider than the sweep's width is split: with the library width
    # that happens from length 12, and narrower widths split at every length.
    rs = build_root_system(*system)
    refls = [rs.reflection(r) for r in rs.roots if r.is_positive]
    seq = ReflSeq(rs, tuple(data.draw(st.lists(st.sampled_from(refls),
                                                min_size=n, max_size=n), label="seq")))
    pairs = _random_pairs(random.Random(data.draw(st.integers(0, 2 ** 32), label="pairs")),
                          n) if n else ()
    # labels read off one gallery, so the set is never empty, or drawn from W
    bits = data.draw(st.lists(st.booleans(), min_size=n, max_size=n), label="gallery")
    if data.draw(st.booleans(), label="read off"):
        labels = _interval_products(seq, pairs, bits)
    else:
        labels = tuple(data.draw(st.sampled_from(enumerate_weyl(rs))) for _ in pairs)
    plan = NestedPlan(seq, tuple(pairs), dict(zip(pairs, labels)))
    with mock.patch.object(nested, "_WIDTH", width):
        got = fixed_points(plan)
    assert got == _perm_walk_fixed_points(plan)


# Reference gate for the one-pass contraction: the per-position `v_power`
# projection, the slice-and-filter fibre, the accumulator `restricted_seq`
# and the Gallery-keyed factoring, kept here as the slow paths the library's
# versions replace.


def _reference_v_power(plan, F, i):
    for f in F.pairs:
        if f[0] <= i <= f[1]:
            raise InvalidInputError(f"position {i} lies inside the interval {f}")
    w = plan.seq.rs.identity()
    for f in F.pairs:
        if f[1] < i:
            w = w * plan.labels[f]
    return w


def _reference_survivors(plan, F):
    covered = set()
    for f in F.pairs:
        covered.update(range(f[0], f[1] + 1))
    return [i for i in range(1, len(plan.seq) + 1) if i not in covered]


def _reference_project(plan, F):
    survivors = _reference_survivors(plan, F)
    renum = {pos: k for k, pos in enumerate(survivors, start=1)}
    entries = [conjugate_reflection(_reference_v_power(plan, F, pos), plan.seq[pos])
               for pos in survivors]
    pairs, labels, display = [], {}, {}
    for r in plan.pairs:
        if any(f[0] <= r[0] and r[1] <= f[1] for f in F.pairs):
            continue
        image = (renum[r[0]], renum[r[1]])
        v1 = _reference_v_power(plan, F, r[0])
        v2 = _reference_v_power(plan, F, r[1])
        pairs.append(image)
        labels[image] = v1 * plan.labels[r] * v2.inv()
        display[image] = plan.display(r)
    return NestedPlan(ReflSeq(plan.seq.rs, tuple(entries)), tuple(pairs), labels, display)


def _reference_fibre_data(plan, f):
    lo, hi = f
    seq = ReflSeq(plan.seq.rs, plan.seq.entries[lo - 1:hi])
    pairs, labels, display = [], {}, {}
    for r in plan.pairs:
        if lo <= r[0] and r[1] <= hi:
            image = (r[0] - lo + 1, r[1] - lo + 1)
            pairs.append(image)
            labels[image] = plan.labels[r]
            display[image] = plan.display(r)
    return NestedPlan(seq, tuple(pairs), labels, display)


def _reference_restricted_seq(plan, r):
    inner = [q for q in plan.pairs
             if r[0] <= q[0] and q[1] <= r[1] and q != r]
    maximal = sorted(q for q in inner
                     if not any(p[0] <= q[0] and q[1] <= p[1] and p != q for p in inner))
    entries = []
    acc = plan.seq.rs.identity()
    k = 0
    for pos in range(r[0], r[1] + 1):
        while k < len(maximal) and maximal[k][1] < pos:
            acc = acc * plan.labels[maximal[k]]
            k += 1
        if any(q[0] <= pos <= q[1] for q in maximal):
            continue
        entries.append(conjugate_reflection(acc, plan.seq[pos]))
    return tuple(entries)


def _reference_forward(plan, F, base_plan, source):
    """The Gallery-keyed factoring map of the plan's fixed points `source`
    onto the reference projection, with its three checks as asserts."""
    fibre_plans = [_reference_fibre_data(plan, f) for f in F.pairs]
    survivors = _reference_survivors(plan, F)
    base_set = {Gallery(base_plan.seq, b) for b in _reference_fixed_points(base_plan)}
    fibre_sets = [{Gallery(fp.seq, b) for b in _reference_fixed_points(fp)}
                  for fp in fibre_plans]
    forward, seen = {}, set()
    for bits in source:
        g = Gallery(plan.seq, bits)
        base = Gallery(base_plan.seq, tuple(g.bits[p - 1] for p in survivors))
        parts = tuple(Gallery(fp.seq, g.bits[f[0] - 1:f[1]])
                      for fp, f in zip(fibre_plans, F.pairs))
        assert base in base_set and all(p in s for p, s in zip(parts, fibre_sets))
        assert (base, parts) not in seen
        seen.add((base, parts))
        forward[g] = (base, parts)
    expected = len(base_set)
    for s in fibre_sets:
        expected *= len(s)
    assert len(forward) == expected
    return forward


def _as_bits(forward):
    """A factoring map as (bits, (base bits, fibre bits)) items in order;
    Gallery objects and bit tuples alike become bit tuples."""
    def bits(g):
        return getattr(g, "bits", g)

    return [(bits(g), (bits(b), tuple(map(bits, parts))))
            for g, (b, parts) in forward.items()]


def _plan_fields(p):
    return p.seq.entries, p.pairs, p.labels, p.display_pairs


def _selections(plan):
    return [FSelection.of(plan, sel) for k in range(1, len(plan.pairs) + 1)
            for sel in combinations(plan.pairs, k)
            if all(f[1] < g[0] or g[1] < f[0] for f, g in combinations(sel, 2))]


def _check_against_reference(plan, twice=False):
    for r in plan.pairs:
        assert restricted_seq(plan, r).entries == _reference_restricted_seq(plan, r)
        assert _plan_fields(fibre_data(plan, r)) == _plan_fields(_reference_fibre_data(plan, r))
    source = _reference_fixed_points(plan)
    for F in _selections(plan):
        cert = factor_fixed_points(plan, F)
        base, reference = cert.base_plan, _reference_project(plan, F)
        assert _plan_fields(base) == _plan_fields(reference)
        assert _plan_fields(project(plan, F)) == _plan_fields(reference)
        assert (_as_bits(cert.forward)
                == _as_bits(_reference_forward(plan, F, reference, source)))
        for G in _selections(base) if twice else ():  # display labels carry over
            assert (_plan_fields(project(base, G))
                    == _plan_fields(_reference_project(base, G)))


def test_projection_matches_reference_all_a2_plans(a2):
    # every labelled A2 plan up to length 3, every selection F
    refls = [a2.reflection(r) for r in a2.roots if r.is_positive]
    order = enumerate_weyl(a2)
    checked = 0
    for n in range(4):
        for pairs in _nested_pair_sets(n):
            if not pairs:
                continue
            for entries in product(refls, repeat=n):
                seq = ReflSeq(a2, entries)
                for labels in product(order, repeat=len(pairs)):
                    _check_against_reference(NestedPlan(seq, pairs, dict(zip(pairs, labels))))
                    checked += 1
    assert checked > 10_000


@pytest.mark.parametrize("system", [("A", 3), ("B", 3)])
def test_projection_matches_reference_random(system):
    rs = build_root_system(*system)
    refls = [rs.reflection(r) for r in rs.roots if r.is_positive]
    order = enumerate_weyl(rs)
    rng = random.Random(29)
    pair_sets = {n: _nested_pair_sets(n) for n in range(1, 7)}
    # nests three and four deep, where a maximal inner pair holds others
    deep = [((1, 7), (2, 6), (3, 5), (4, 4)), ((1, 7), (2, 4), (3, 3), (5, 6))]
    for k in range(80):
        n = 7 if k >= 60 else rng.randint(1, 7)
        seq = ReflSeq(rs, tuple(rng.choice(refls) for _ in range(n)))
        if k >= 60:
            pairs = deep[k % 2]
        elif n <= 6:
            pairs = rng.choice(pair_sets[n])
        else:
            pairs = _random_pairs(rng, n)
        bits = tuple(rng.random() < 0.5 for _ in range(n))
        labels = (_interval_products(seq, pairs, bits) if rng.random() < 0.75
                  else tuple(rng.choice(order) for _ in pairs))
        _check_against_reference(NestedPlan(seq, pairs, dict(zip(pairs, labels))), twice=True)


@pytest.mark.parametrize("pairs, message", [
    (((1, 3), (2, 5)), "intervals neither disjoint nor nested: (1, 3), (2, 5)"),
    (((1, 2), (2, 4)), "endpoint sets not disjoint: (1, 2), (2, 4)"),
    (((4, 2),), "endpoint order r1 <= r2 violated: (4, 2)"),
], ids=["crossing", "shared-endpoint", "reversed"])
def test_invalid_plan_refused_alike_everywhere(a2, pairs, message):
    plan = make_plan(a2, (1, 2, 1, 2, 1), pairs, [(1,)] * len(pairs))
    r = plan.pairs[0]
    F = FSelection((r,))
    calls = [lambda: project(plan, F), lambda: fibre_data(plan, r),
             lambda: fixed_points(plan), lambda: factor_fixed_points(plan, F),
             lambda: restricted_seq(plan, r), lambda: is_gallery_type_pair(plan)]
    assert str(validate(plan)) == message
    for call in calls:
        with pytest.raises(InvalidInputError) as info:
            call()
        assert str(info.value) == f"invalid nested structure ({message})"


def _two_fibre_plan():
    # F = ((2, 4), (5, 7)) inside (1, 8): 8 = 2 * 2 * 2 fixed points
    a2 = build_root_system("A", 2)
    return make_plan(a2, (1, 2, 1, 2, 2, 1, 2, 1), [(1, 8), (2, 4), (5, 7)],
                     [(1,), (2,), (2,)])


def _drop(k):
    return lambda points: points[:k] + points[k + 1:]


def _add_foreign(points):
    """The points and the first pattern of their length that is not one of them."""
    n = len(points[0])
    return points + [next(p for p in product((False, True), repeat=n) if p not in points)]


def _repeat(k, at):
    """The points with a second copy of points[k] inserted at position `at`."""
    return lambda points: points[:at] + [points[k]] + points[at:]


def _factor_with_edits(plan, F, edits):
    """factor_fixed_points(plan, F) with each edit applied to the fixed points
    of one plan it asks for: "source" is the plan itself, "base" its
    projection, and k the fibre over F.pairs[k]."""
    roles = [(plan, "source"), (project(plan, F), "base"),
             *((fibre_data(plan, f), k) for k, f in enumerate(F.pairs))]
    real = nested.fixed_points

    def edited(p):
        role = next(r for q, r in roles if q == p)
        return edits[role](real(p)) if role in edits else real(p)

    with mock.patch.object(nested, "fixed_points", edited):
        return factor_fixed_points(plan, F)


@pytest.mark.parametrize("which, selection, edits, message", [
    ("sl5", [(2, 6)], {"base": _drop(0)},
     "image of gallery 0000100011 lands outside the product"),
    ("sl5", [(2, 6)], {"base": _drop(4)},
     "image of gallery 1000101110 lands outside the product"),
    ("sl5", [(2, 6)], {0: _drop(4)},
     "image of gallery 0111110011 lands outside the product"),
    ("two", [(2, 4), (5, 7)], {1: _drop(1)},
     "image of gallery 00011001 lands outside the product"),
    ("sl5", [(2, 6)], {"source": _repeat(3, 10)},
     "factoring map is not injective at 0010000011"),
    ("two", [(2, 4), (5, 7)], {"source": _repeat(0, 8)},
     "factoring map is not injective at 00010011"),
    # the first gallery at fault in source order is named, whichever check it fails
    ("sl5", [(2, 6)], {"source": _repeat(1, 2), "base": _drop(4)},
     "factoring map is not injective at 0000101001"),
    ("sl5", [(2, 6)], {"source": _repeat(8, 20), "base": _drop(4)},
     "image of gallery 1000101110 lands outside the product"),
    ("sl5", [(2, 6)], {"base": _add_foreign}, "factoring map not surjective: 25 != 30"),
    ("sl5", [(2, 6)], {0: _add_foreign}, "factoring map not surjective: 25 != 30"),
    ("two", [(2, 4), (5, 7)], {1: _add_foreign}, "factoring map not surjective: 8 != 12"),
    ("two", [(2, 4), (5, 7)], {"base": _add_foreign, 0: _add_foreign},
     "factoring map not surjective: 8 != 18"),
], ids=["base-drops-first", "base-drops-last", "fibre-drops", "second-fibre-drops",
        "source-repeats", "source-repeats-last", "repeat-before-outside",
        "outside-before-repeat", "base-adds", "fibre-adds", "second-fibre-adds",
        "base-and-fibre-add"])
def test_factoring_refusals_name_the_first_fault(sl5_plan, which, selection, edits, message):
    # no correct plan reaches these refusals: the fixed points of the plan,
    # its projection or a fibre are edited so that the factoring map fails
    plan = sl5_plan if which == "sl5" else _two_fibre_plan()
    F = FSelection.of(plan, selection)
    with pytest.raises(PropertyViolationError) as info:
        _factor_with_edits(plan, F, edits)
    assert str(info.value) == message
