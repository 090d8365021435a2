"""Galleries, foldings, and gallery-type certificates."""

import copy
import os
import random
import subprocess
import sys
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bscomb.errors import MAX_LENGTH, InvalidInputError, ResourceLimitError, VerificationError
from bscomb.gallery import (
    Gallery,
    Gallerification,
    ReflSeq,
    fold,
    galleries,
    is_gallery_type,
    prefix,
    twist_seq,
    verify_gallerification,
)
from bscomb.formats import parse_sequence
from bscomb.rootsys import (
    RootSystem,
    WeylElement,
    attached,
    build_root_system,
    conjugate_reflection,
    enumerate_weyl,
)

from conftest import TABLE_SYSTEMS, all_seqs, simple_seq


def test_gallery_count(a2):
    s = simple_seq(a2, 1, 2, 1)
    assert len(galleries(s)) == 8


def test_sequences_and_galleries_hash_as_they_compare():
    # a value hashes as the tuple of the fields that equality compares
    shared, fresh = build_root_system("B", 3), RootSystem("B", 3)
    s, t = simple_seq(shared, 1, 2, 3, 2), simple_seq(fresh, 1, 2, 3, 2)
    assert s == t and hash(s) == hash(t)
    assert len({s, t, simple_seq(fresh, 1, 2, 3)}) == 2
    # a gallery compares by its bits alone, whichever equal sequence it is over
    points = {Gallery(s, b) for b in s.patterns} | {Gallery(t, b) for b in t.patterns}
    assert len(points) == 16
    assert {g.bits for g in points} == set(s.patterns)


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
        t = twist_seq(s, g.bits)
        # entry i is a conjugate of s_i, so it has the same length signature
        for i in range(1, 4):
            assert t[i].as_weyl() == (
                prefix(g, i) * s[i].as_weyl() * prefix(g, i).inv())


@pytest.mark.parametrize("bits", [(), (True,), (False, True), (True, False, True, False)])
def test_twist_refuses_pattern_of_other_length(a2, bits):
    s = simple_seq(a2, 1, 2, 1)
    with pytest.raises(InvalidInputError, match="gallery length"):
        twist_seq(s, bits)


def _conj(s, w):
    """The conjugated sequence s^w, (s^w)_i = w s_i w^-1."""
    return ReflSeq(s.rs, tuple(conjugate_reflection(w, t) for t in s.entries))


def test_conj_reference_identity(a2):
    s = simple_seq(a2, 1, 2)
    assert _conj(s, a2.identity()).entries == s.entries


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


def _reference_verify(s, cert):
    """The check t^(gamma) = s^x on the two sequences themselves."""
    if twist_seq(cert.t, cert.gamma.bits).entries != _conj(s, cert.x).entries:
        raise VerificationError("gallerification fails t^(gamma) = s^x")
    if not cert.t.all_simple():
        raise VerificationError("gallerification sequence is not simple")


def _verdict(check, s, cert):
    try:
        check(s, cert)
    except Exception as e:  # the class and the text are compared
        return type(e), str(e)
    return None


VERIFY_SYSTEMS = [("A", 2), ("B", 2), ("A", 3), ("B", 3)]
BREAKS = ["none", "flip-bit", "x-times-simple", "non-simple-t", "t-of-other-system",
          "x-of-other-system", "shorter-t", "shorter-t-and-gamma"]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(VERIFY_SYSTEMS), st.sampled_from(VERIFY_SYSTEMS),
       st.sampled_from(BREAKS), st.data())
def test_verify_matches_sequence_reference(system, other, broken, data):
    """verify_gallerification gives the verdict, the exception class and the
    text of the check on whole sequences, for sound certificates
    s = (t^(gamma))^(x^-1) and for each way of breaking one."""
    rs, far = build_root_system(*system), build_root_system(*other)
    simple = [rs.reflection(a) for a in rs.simple_roots]
    n = data.draw(st.integers(0, 8))
    t = ReflSeq(rs, tuple(data.draw(st.sampled_from(simple)) for _ in range(n)))
    bits = tuple(data.draw(st.booleans()) for _ in range(n))
    x = data.draw(st.sampled_from(enumerate_weyl(rs)))
    s = _conj(twist_seq(t, bits), x.inv())
    cert = Gallerification(x, t, Gallery(t, bits))
    k = data.draw(st.integers(0, max(n - 1, 0)))
    if broken == "flip-bit" and n:
        flipped = bits[:k] + (not bits[k],) + bits[k + 1:]
        cert = Gallerification(x, t, Gallery(t, flipped))
    elif broken == "x-times-simple":
        j = data.draw(st.integers(1, rs.rank))
        cert = Gallerification(x * rs.simple_reflection(j), t, cert.gamma)
    elif broken == "non-simple-t" and n:
        other_refl = data.draw(st.sampled_from(
            [r for r in rs.reflections if not r.is_simple()]))
        u = ReflSeq(rs, t.entries[:k] + (other_refl,) + t.entries[k + 1:])
        cert = Gallerification(x, u, Gallery(u, bits))
    elif broken == "t-of-other-system":
        u = ReflSeq(far, tuple(far.reflections[e.index % (len(far.roots) // 2)]
                               for e in t.entries))
        cert = Gallerification(x, u, Gallery(u, bits))
    elif broken == "x-of-other-system":
        cert = Gallerification(data.draw(st.sampled_from(enumerate_weyl(far))), t, cert.gamma)
    elif broken == "shorter-t" and n:
        # the certificate's gallery keeps the longer pattern
        cert = Gallerification(x, t.truncated(), cert.gamma)
    elif broken == "shorter-t-and-gamma" and n:
        u = t.truncated()
        cert = Gallerification(x, u, Gallery(u, bits[:-1]))
    verdict = _verdict(verify_gallerification, s, cert)
    assert verdict == _verdict(_reference_verify, s, cert)
    if broken == "none":
        assert verdict is None


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
    lhs = twist_seq(_conj(s, w), bits)
    rhs = _conj(twist_seq(s, bits), w)
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


@pytest.mark.parametrize("system", [("A", 2), ("B", 2), ("G", 2)],
                         ids=lambda s: "".join(map(str, s)))
def test_twist_table_matches_twist_seq(system):
    """The doubled twist table names the reflections of twist_seq at every
    gallery of every sequence up to length 4, the empty one included."""
    rs = build_root_system(*system)
    for n in range(5):
        for s in all_seqs(rs, n):
            assert list(s.twists) == list(s.patterns)
            for bits, row in s.twists.items():
                named = tuple(rs.reflections[k] for k in row)
                assert named == twist_seq(s, bits).entries


def test_tables_respect_length_bound(a1):
    s = simple_seq(a1, *[1] * (MAX_LENGTH + 1))
    with pytest.raises(ResourceLimitError):
        s.patterns
    with pytest.raises(ResourceLimitError):
        s.prefixes
    with pytest.raises(ResourceLimitError):
        s.twists


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


@pytest.mark.parametrize("system", TABLE_SYSTEMS, ids=lambda s: "".join(map(str, s)))
def test_attached_tables_match_conjugation(system):
    # chamber k is in the table of t exactly when u^-1 t u = s_j is simple,
    # and then its entry is the chamber across the wall, t u = u s_j, whose
    # own entry leads back to k
    rs = build_root_system(*system)
    order = enumerate_weyl(rs)
    for t in rs.reflections[:len(rs.reflections) // 2]:
        table = attached(rs, t.index)
        letters = [conjugate_reflection(u.inv(), t).letter for u in order]
        assert table.keys() == {k for k, j in enumerate(letters) if j is not None}
        for k, partner in table.items():
            u = order[k]
            assert order[partner] == t.as_weyl() * u == u * rs.simple_reflection(letters[k])
            assert table[partner] == k


@st.composite
def fresh_sequences(draw):
    """A sequence of length 0..12 over a new root system: uniform
    reflections, or one built from a certificate (x, t, gamma) as
    s = (t^(gamma))^(x^-1), so of gallery type."""
    rs = RootSystem(*draw(st.sampled_from([("A", 3), ("B", 3), ("D", 4), ("G", 2)])))
    n = draw(st.integers(0, 12))
    if draw(st.booleans()):
        refls = rs.reflections[:len(rs.reflections) // 2]
        return ReflSeq(rs, tuple(draw(st.sampled_from(refls)) for _ in range(n)))
    simple = [rs.reflection(a) for a in rs.simple_roots]
    t = ReflSeq(rs, tuple(draw(st.sampled_from(simple)) for _ in range(n)))
    bits = tuple(draw(st.booleans()) for _ in range(n))
    x = draw(st.sampled_from(enumerate_weyl(rs)))
    return _conj(twist_seq(t, bits), x.inv())


@settings(max_examples=150, deadline=None)
@given(fresh_sequences())
def test_gallery_type_on_fresh_systems_matches_reference(s):
    cert = is_gallery_type(s)
    found = None if cert is None else (cert.x, cert.t.entries, cert.gamma.bits)
    assert found == _reference_gallery_type(s)


def _random_seqs(rs, max_length, count=500, seed=0):
    """Seeded sequences of reflections, of every length 0..max_length."""
    rng = random.Random(seed)
    refls = [rs.reflection(r) for r in rs.roots if r.is_positive]
    return [ReflSeq(rs, tuple(rng.choice(refls) for _ in range(rng.randint(0, max_length))))
            for _ in range(count)]


# every sequence of the given length up to 4; above that, seeded samples
@pytest.mark.parametrize("system,length", [(("A", 2), 3), (("B", 2), 3), (("G", 2), 2),
                                           (("A", 3), 2), (("A", 2), 4), (("B", 2), 4),
                                           (("A", 3), 9), (("B", 3), 9), (("D", 4), 9),
                                           (("A", 4), 9), (("G", 2), 8)])
def test_gallery_type_matches_reference(system, length):
    rs = build_root_system(*system)
    for s in all_seqs(rs, length) if length <= 4 else _random_seqs(rs, length):
        cert = is_gallery_type(s)
        expect = _reference_gallery_type(s)
        if expect is None:
            assert cert is None
        else:
            assert (cert.x, cert.t.entries, cert.gamma.bits) == expect


def test_gallery_type_walk_multiplies_no_weyl_elements():
    # the pass reads integer tables of chamber indices and the certificate
    # check composes raw permutations: neither a negative answer at length
    # 16 nor a positive one makes a Weyl product
    rs = RootSystem("B", 3)  # a fresh system, with no table built yet

    def fresh(text):
        return ReflSeq(rs, tuple(rs.reflections[t.index]
                                 for t in parse_sequence(text).entries))

    negative = fresh("B3:" + " [0,0,1]" * 15 + " [0,1,1]")
    positive = fresh("B3: s[0,1,2] s[1,1,0] s3 s[1,2,2] s[0,1,2] s3 s[1,2,2] "
                     "s[1,1,2] s[1,1,1] s2 s[1,1,2] s3")
    calls = []
    product = WeylElement.__mul__

    def counted(self, other):
        calls.append(other)
        return product(self, other)

    with mock.patch.object(WeylElement, "__mul__", counted):
        assert is_gallery_type(negative) is None
        assert calls == []
        cert = is_gallery_type(positive)
    assert cert is not None and sum(cert.gamma.bits) > 0
    assert calls == []


def test_gallery_type_keeps_no_answers():
    # once every wall's table is built, 2,000 distinct sequences asked of
    # the shared D4, about half of gallery type, leave every attribute of
    # the system as it was: it holds structure tables, not answers
    rs = build_root_system("D", 4)
    positives = rs.reflections[:len(rs.reflections) // 2]
    for t in positives:
        attached(rs, t.index)
    before = {name: copy.copy(value) for name, value in vars(rs).items()}
    rng = random.Random(24)
    simple, order = [rs.reflection(a) for a in rs.simple_roots], enumerate_weyl(rs)
    seqs = {}
    while len(seqs) < 2000:
        n = rng.randint(4, 12)
        if rng.random() < 0.5:
            s = ReflSeq(rs, tuple(rng.choice(positives) for _ in range(n)))
        else:
            t = ReflSeq(rs, tuple(rng.choice(simple) for _ in range(n)))
            bits = tuple(rng.random() < 0.5 for _ in range(n))
            s = _conj(twist_seq(t, bits), rng.choice(order).inv())
        seqs[s.entries] = s
    found = sum(is_gallery_type(s) is not None for s in seqs.values())
    assert 900 <= found < 2000
    assert vars(rs) == before
    assert sum(type(k) is int for k in rs._tables) <= len(positives)


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
