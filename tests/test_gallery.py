"""Galleries, foldings, and gallery-type certificates."""

import os
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bscomb.errors import InvalidInputError, ResourceLimitError, VerificationError
from bscomb.gallery import (
    MAX_LENGTH,
    Gallery,
    Gallerification,
    ReflSeq,
    conj_gallery,
    conj_seq,
    d_w_shadow,
    fixed_points_w,
    fold,
    galleries,
    is_gallery_type,
    prefix,
    twist_seq,
    verify_gallerification,
)
from bscomb.rootsys import build_root_system, conjugate_reflection, enumerate_weyl

from conftest import all_seqs, simple_seq


def test_gallery_count(a2):
    s = simple_seq(a2, 1, 2, 1)
    assert len(galleries(s)) == 8


def test_prefix_products(a2):
    s = simple_seq(a2, 1, 2)
    g = Gallery(s, (True, True))
    assert prefix(g, 0).is_identity()
    assert prefix(g, 1) == a2.simple_reflection(1)
    assert prefix(g, 2) == a2.simple_reflection(1) * a2.simple_reflection(2)


def test_fold_is_involution(a2):
    s = simple_seq(a2, 1, 2, 1)
    for g in galleries(s):
        for i in range(1, 4):
            assert fold(fold(g, i), i) == g


def test_folds_commute(a2):
    s = simple_seq(a2, 2, 1, 2)
    for g in galleries(s):
        for i in range(1, 4):
            for j in range(1, 4):
                assert fold(fold(g, i), j) == fold(fold(g, j), i)


def test_folding_orbit_is_everything(a2):
    s = simple_seq(a2, 1, 2, 1)
    start = Gallery(s, (False, False, False))
    seen = {start}
    frontier = [start]
    while frontier:
        g = frontier.pop()
        for i in range(1, 4):
            h = fold(g, i)
            if h not in seen:
                seen.add(h)
                frontier.append(h)
    assert len(seen) == 8


def test_twist_matches_conjugated_walk(a2):
    s = simple_seq(a2, 1, 2, 1)
    for g in galleries(s):
        t = twist_seq(s, g)
        # entry i is a conjugate of s_i, so it has the same length signature
        for i in range(1, 4):
            assert t[i].as_weyl() == (
                prefix(g, i) * s[i].as_weyl() * prefix(g, i).inv())


def test_conj_seq_identity(a2):
    s = simple_seq(a2, 1, 2)
    assert conj_seq(s, a2.identity()).entries == s.entries


def test_fixed_points_w(a2):
    s = simple_seq(a2, 1, 2)
    target = a2.simple_reflection(1) * a2.simple_reflection(2)
    pts = fixed_points_w(s, target)
    assert [g.bits for g in pts] == [(True, True)]


def test_d_w_shadow_transports(a2):
    s = simple_seq(a2, 1, 2, 1)
    w = a2.simple_reflection(2)
    for g in galleries(s):
        image = d_w_shadow(g, w)
        assert image.bits == g.bits
        assert image.seq.entries == conj_seq(s, w).entries


def test_empty_sequence_certificate(a2):
    cert = is_gallery_type(ReflSeq(a2, ()))
    assert cert is not None
    assert cert.x.is_identity()


def test_gallery_type_simple_sequences(a2):
    # sequences of simple reflections always carry the trivial certificate
    s = simple_seq(a2, 1, 2, 1, 2)
    cert = is_gallery_type(s)
    assert cert is not None
    verify_gallerification(s, cert)


def test_gallery_type_nonsimple_entries(a2):
    for s in all_seqs(a2, 2):
        cert = is_gallery_type(s)
        assert cert is not None
        verify_gallerification(s, cert)
        assert cert.t.all_simple()


def test_certificate_deterministic(a2):
    s = all_seqs(a2, 3)[13]
    c1 = is_gallery_type(s)
    c2 = is_gallery_type(s)
    assert (c1.x, c1.gamma.bits, c1.t.entries) == (c2.x, c2.gamma.bits, c2.t.entries)


def test_verify_rejects_bad_certificate(a2):
    s = simple_seq(a2, 1, 2)
    cert = is_gallery_type(s)
    wrong = Gallerification(a2.simple_reflection(1) * cert.x, cert.t, cert.gamma)
    with pytest.raises(VerificationError):
        verify_gallerification(s, wrong)


def test_prefix_out_of_range(a2):
    s = simple_seq(a2, 1)
    g = Gallery(s, (True,))
    with pytest.raises(InvalidInputError):
        prefix(g, 2)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_twist_of_conjugate(data):
    """Conjugating the sequence conjugates the twist: (s^w)^(gamma^w) = (s^(gamma))^w."""
    rs = build_root_system("A", 2)
    seqs = all_seqs(rs, 3)
    s = data.draw(st.sampled_from(seqs))
    w = data.draw(st.sampled_from(enumerate_weyl(rs)))
    bits = tuple(data.draw(st.booleans()) for _ in range(3))
    g = Gallery(s, bits)
    lhs = twist_seq(conj_seq(s, w), conj_gallery(g, w))
    rhs = conj_seq(twist_seq(s, g), w)
    assert lhs.entries == rhs.entries


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3)]), st.data())
def test_prefix_tables_match_prefix(system, data):
    """The doubled tables agree with the per-gallery product at every index."""
    rs = build_root_system(*system)
    refls = [rs.reflection(r) for r in rs.roots if r.is_positive]
    n = data.draw(st.integers(0, 5))
    s = ReflSeq(rs, tuple(data.draw(st.sampled_from(refls)) for _ in range(n)))
    assert list(s.patterns) == [g.bits for g in galleries(s)]
    assert [len(level) for level in s.prefixes] == [2 ** i for i in range(n + 1)]
    for g in galleries(s):
        for i in range(n + 1):
            assert s.prefixes[i][g.bits[:i]] == prefix(g, i)


def test_tables_respect_length_bound(a1):
    s = simple_seq(a1, *[1] * (MAX_LENGTH + 1))
    with pytest.raises(ResourceLimitError):
        s.patterns
    with pytest.raises(ResourceLimitError):
        s.prefixes


def _reference_gallery_type(s):
    """The search with every chamber inverted at every node, as a reference
    for the first-found certificate."""
    n = len(s)
    for u0 in enumerate_weyl(s.rs):
        stack = [(1, u0, (), ())]
        while stack:
            i, u, t_entries, bits = stack.pop()
            if i > n:
                return u0.inv(), t_entries, bits
            ti = conjugate_reflection(u.inv(), s[i])
            if not ti.is_simple():
                continue
            stack.append((i + 1, s[i].as_weyl() * u, t_entries + (ti,), bits + (True,)))
            stack.append((i + 1, u, t_entries + (ti,), bits + (False,)))
    return None


def _random_seqs(rs, max_length, count=500, seed=0):
    """Seeded sequences of reflections, of every length 0..max_length."""
    rng = random.Random(seed)
    refls = [rs.reflection(r) for r in rs.roots if r.is_positive]
    return [ReflSeq(rs, tuple(rng.choice(refls) for _ in range(rng.randint(0, max_length))))
            for _ in range(count)]


# every sequence of the given length up to 4; above that, seeded samples
@pytest.mark.parametrize("system,length", [(("A", 2), 3), (("B", 2), 3), (("G", 2), 2),
                                           (("A", 3), 2), (("A", 2), 4), (("B", 2), 4),
                                           (("A", 3), 9), (("B", 3), 9), (("D", 4), 9)])
def test_gallery_type_matches_reference(system, length):
    rs = build_root_system(*system)
    for s in all_seqs(rs, length) if length <= 4 else _random_seqs(rs, length):
        cert = is_gallery_type(s)
        expect = _reference_gallery_type(s)
        if expect is None:
            assert cert is None
        else:
            assert (cert.x, cert.t.entries, cert.gamma.bits) == expect


def test_gallery_type_search_is_bounded_by_states():
    # a negative answer at the length bound: every start chamber used to
    # restart a full walk, doubling the time with each position
    seq = "B3:" + " [0,0,1]" * 19 + " [0,1,1]"
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "bscomb.cli", "gallery-type", seq],
                          cwd=root, env=env, capture_output=True, timeout=30)
    assert proc.returncode == 0
    assert time.perf_counter() - start < 5


def test_sequences_over_different_systems_differ(a2, b2):
    assert ReflSeq(a2, ()) != ReflSeq(b2, ())
    assert simple_seq(a2, 1) != simple_seq(b2, 1)
