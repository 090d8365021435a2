"""Root systems, Weyl elements, and reflections."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bscomb.errors import InvalidInputError, ResourceLimitError
from bscomb.rootsys import (
    Root,
    RootSystem,
    build_root_system,
    conjugate_reflection,
    enumerate_weyl,
    is_attached,
)
from bscomb.poly import weight_matrix

from conftest import positive_root

# (family, rank) -> (number of roots, |W|), classical values
KNOWN_SIZES = {
    ("A", 1): (2, 2),
    ("A", 2): (6, 6),
    ("A", 3): (12, 24),
    ("A", 4): (20, 120),
    ("B", 2): (8, 8),
    ("B", 3): (18, 48),
    ("C", 3): (18, 48),
    ("D", 4): (24, 192),
    ("G", 2): (12, 12),
}


@pytest.mark.parametrize("family,rank", sorted(KNOWN_SIZES))
def test_root_and_weyl_counts(family, rank):
    rs = build_root_system(family, rank)
    n_roots, order = KNOWN_SIZES[(family, rank)]
    assert len(rs.roots) == n_roots
    assert len(enumerate_weyl(rs)) == order == rs.weyl_order


def test_cartan_matrix_a2(a2):
    assert a2.cartan == ((2, -1), (-1, 2))


def test_cartan_matrix_g2():
    g2 = build_root_system("G", 2)
    assert g2.cartan == ((2, -1), (-3, 2))
    # the two root lengths give an asymmetric pairing
    assert g2.pairing(g2.simple_roots[0].coords, g2.simple_roots[1]) == -1
    assert g2.pairing(g2.simple_roots[1].coords, g2.simple_roots[0]) == -3


def test_simple_reflection_negates_own_root(a2):
    for i, alpha in enumerate(a2.simple_roots, start=1):
        s = a2.simple_reflection(i)
        assert s.apply(alpha) == -alpha


def test_reflections_are_involutions(b2):
    for root in b2.roots:
        s = b2.reflection(root).as_weyl()
        assert not s.is_identity()
        assert (s * s).is_identity()


def test_roots_closed_under_weyl(a3):
    for w in enumerate_weyl(a3):
        for root in a3.roots:
            assert a3.is_root(w.apply(root))


def test_word_recovery(a3):
    for w in enumerate_weyl(a3):
        rebuilt = a3.identity()
        for i in w.word():
            rebuilt = rebuilt * a3.simple_reflection(i)
        assert rebuilt == w


def test_longest_element_a2(a2):
    w0 = max(enumerate_weyl(a2), key=lambda w: len(w.word()))
    assert len(w0.word()) == 3
    assert (w0 * w0).is_identity()


def test_inverse(a3):
    for w in enumerate_weyl(a3):
        assert (w * w.inv()).is_identity()
        assert (w.inv() * w).is_identity()


def test_conjugate_reflection_moves_root(a2):
    t = a2.reflection(a2.simple_roots[0])
    s2 = a2.simple_reflection(2)
    conj = conjugate_reflection(s2, t)
    assert conj.root == positive_root(s2.apply(t.root))
    assert conj.as_weyl() == s2 * t.as_weyl() * s2.inv()


def test_attachment_matches_simplicity(a2):
    highest = a2.reflection(Root((1, 1)))
    assert not highest.is_simple()
    for u in enumerate_weyl(a2):
        expected = conjugate_reflection(u.inv(), highest).is_simple()
        assert is_attached(u, highest) == expected


def test_enumerate_weyl_respects_bound(a3):
    with pytest.raises(ResourceLimitError):
        enumerate_weyl(a3, max_weyl=5)


def test_bad_inputs():
    with pytest.raises(InvalidInputError):
        build_root_system("E", 8)
    a2 = build_root_system("A", 2)
    with pytest.raises(InvalidInputError):
        a2.simple_reflection(3)
    for coords in ((5, 0), (1, -1), (2, 2), (0, 0, 1)):
        with pytest.raises(InvalidInputError):
            a2.reflection(Root(coords))


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 3), ("G", 2)])
def test_reflection_table_is_interned(family, rank):
    rs = build_root_system(family, rank)
    for root in rs.roots:
        t = rs.reflection(root)
        assert rs.reflection(-root) is t
        assert t.root == positive_root(root)
        assert t.is_simple() == (t.root in rs.simple_roots)
    # a rebuilt system has its own objects, which still compare equal
    twin = RootSystem(family, rank)
    assert twin.reflections == rs.reflections
    assert twin.reflections[0] is not rs.reflections[0]


def test_reflections_of_different_systems_differ(a2, b2):
    # same root coordinates, different systems
    assert a2.reflection(Root((1, 0))) != b2.reflection(Root((1, 0)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_conjugate_reflection_matches_coordinates(data):
    """The table lookup against the coordinate formula: w applied to the root
    by its word matrix, then the sign rule, then a lookup by coordinates."""
    family, rank = data.draw(st.sampled_from([("A", 3), ("B", 3), ("C", 3), ("D", 4),
                                              ("G", 2)]))
    rs = build_root_system(family, rank)
    word = data.draw(st.lists(st.integers(1, rank), max_size=12))
    w = rs.identity()
    for i in word:
        w = w * rs.simple_reflection(i)
    t = rs.reflection(data.draw(st.sampled_from(rs.roots)))
    wm = _word_matrix(rs, word)
    image = Root(tuple(sum(a * c for a, c in zip(row, t.root.coords)) for row in wm))
    assert conjugate_reflection(w, t) is rs.reflection(positive_root(image))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_group_action_axiom(data):
    rs = build_root_system("A", 2)
    order = enumerate_weyl(rs)
    u = data.draw(st.sampled_from(order))
    v = data.draw(st.sampled_from(order))
    root = data.draw(st.sampled_from(rs.roots))
    assert (u * v).apply(root) == u.apply(v.apply(root))


def test_enumerate_weyl_deterministic(a3):
    assert enumerate_weyl(a3) == enumerate_weyl(a3)
    # identity first, then by increasing length
    order = enumerate_weyl(a3)
    assert order[0].is_identity()
    lengths = [len(w.word()) for w in order]
    assert lengths == sorted(lengths)


# sha256 of " | ".join(str(w) for w in enumerate_weyl(rs)); this order picks
# the first-found certificates and the morphism order.
WEYL_ORDER_SHA256 = {
    ("A", 3): "18a20d11da72f2e7c2c38332593f95df38ac2df6f2beae8da981a5fdcd1aeccc",
    ("B", 3): "fd5143f5f1b022bd077c3b902b4afa784f3ee98714b856bbf132d0bd2ed3f998",
    ("D", 4): "4d91952ed1952aa8c927ce47cea735af56c5c17ebff66bb11afb5dbe5af5a12f",
    ("G", 2): "4e5b13d94e76c7139a78509387c754bb6ddd25122ffd0b7381370fe25c883c5e",
}


@pytest.mark.parametrize("family,rank", sorted(WEYL_ORDER_SHA256))
def test_enumerate_weyl_order_pinned(family, rank):
    text = " | ".join(str(w) for w in enumerate_weyl(build_root_system(family, rank)))
    assert hashlib.sha256(text.encode()).hexdigest() == WEYL_ORDER_SHA256[(family, rank)]


# Independent reference: Weyl elements as integer matrices on simple-root
# coordinates, built from the Cartan matrix alone.

def _mat_mul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def _simple_matrix(rs, i):
    """s_i(alpha_k) = alpha_k - C[k][i] alpha_i, with column k the image of alpha_k."""
    n = rs.rank
    return tuple(tuple(int(r == k) - (rs.cartan[k][i] if r == i else 0) for k in range(n))
                 for r in range(n))


def _word_matrix(rs, word):
    m = tuple(tuple(int(r == c) for c in range(rs.rank)) for r in range(rs.rank))
    for i in word:
        m = _mat_mul(m, _simple_matrix(rs, i - 1))
    return m


def _word_weight_matrix(w):
    """w on fundamental-weight coordinates, via s_i(w_j) = w_j - delta_ij alpha_i."""
    rank = w.rs.rank
    # E_i acts on coordinate vectors by (E_i a)_j = a_j - a_i C[i][j]; the
    # matrix of w = s_{i1}...s_{im} is E_{i1} ... E_{im}.
    mat = [[int(r == c) for c in range(rank)] for r in range(rank)]
    for letter in reversed(w.word()):
        i = letter - 1
        mat = [[mat[r][c] - w.rs.cartan[i][r] * mat[i][c]
                for c in range(rank)] for r in range(rank)]
    return tuple(tuple(r) for r in mat)


PERM_SYSTEMS = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
                ("C", 3), ("D", 4), ("G", 2)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_permutation_arithmetic_matches_matrices(data):
    family, rank = data.draw(st.sampled_from(PERM_SYSTEMS))
    rs = build_root_system(family, rank)
    words = st.lists(st.integers(1, rank), max_size=12)
    uw, vw, xw = data.draw(words), data.draw(words), data.draw(words)
    u, v = rs.identity(), rs.identity()
    for i in uw:
        u = u * rs.simple_reflection(i)
    for i in vw:
        v = v * rs.simple_reflection(i)
    um, vm = _word_matrix(rs, uw), _word_matrix(rs, vw)
    for i in range(1, rank + 1):
        assert rs.simple_reflection(i).matrix == _simple_matrix(rs, i - 1)
    assert u.matrix == um
    assert (u * v).matrix == _mat_mul(um, vm)
    assert _mat_mul(u.inv().matrix, u.matrix) == _word_matrix(rs, ())
    root = data.draw(st.sampled_from(rs.roots))
    image = tuple(sum(a * c for a, c in zip(row, root.coords)) for row in um)
    assert u.apply(root).coords == image
    # t = s_beta with beta = x(alpha_i), so t = x s_i x^-1 as a matrix
    i = data.draw(st.integers(1, rank))
    xm = _word_matrix(rs, xw)
    tm = _mat_mul(_mat_mul(xm, _simple_matrix(rs, i - 1)), _word_matrix(rs, xw[::-1]))
    t = rs.reflection(Root(tuple(row[i - 1] for row in xm)))
    assert t.as_weyl().matrix == tm
    conj = _mat_mul(_mat_mul(um, tm), _word_matrix(rs, uw[::-1]))
    assert conjugate_reflection(u, t).as_weyl().matrix == conj
    assert weight_matrix(u) == _word_weight_matrix(u)
