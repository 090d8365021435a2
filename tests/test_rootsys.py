"""Root systems, Weyl elements, and reflections."""

import ast
import copy
import hashlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bscomb.errors import MAX_RANK, InvalidInputError, ResourceLimitError
from bscomb.gallery import ReflSeq, is_gallery_type
from bscomb.rootsys import (
    Root,
    RootSystem,
    WeylElement,
    build_root_system,
    check_weyl_order,
    closed_weyl_order,
    conjugate_reflection,
    enumerate_weyl,
    quotient_perm,
)
from bscomb.poly import Poly, weight_matrix, weyl_act

from conftest import TABLE_SYSTEMS, positive_root

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
    assert len(enumerate_weyl(rs)) == order == closed_weyl_order(family, rank)


def test_cartan_matrix_a2(a2):
    assert a2.cartan == ((2, -1), (-1, 2))


def test_cartan_matrix_g2():
    g2 = build_root_system("G", 2)
    assert g2.cartan == ((2, -1), (-3, 2))


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


def test_quotient_perm_matches_products(a2, b2):
    for rs, other in ((a2, b2), (b2, a2)):
        order = enumerate_weyl(rs)
        for u in order:
            for v in order[::3]:
                for t in order[::5]:
                    assert quotient_perm(u, v, t) == ((u * v).inv() * t).perm
        e, foreign = rs.identity(), other.simple_reflection(1)
        for v, t in ((foreign, e), (e, foreign)):
            with pytest.raises(InvalidInputError,
                               match="cannot multiply elements of different systems"):
                quotient_perm(e, v, t)


def test_conjugate_reflection_moves_root(a2):
    t = a2.reflection(a2.simple_roots[0])
    s2 = a2.simple_reflection(2)
    conj = conjugate_reflection(s2, t)
    assert conj.root == positive_root(s2.apply(t.root))
    assert conj.as_weyl() == s2 * t.as_weyl() * s2.inv()


def test_enumerate_weyl_respects_bound():
    # a caller's tighter bound applies where the system is parsed; the
    # enumeration itself refuses |W(A8)| = 362,880 > MAX_WEYL
    with pytest.raises(ResourceLimitError):
        check_weyl_order("A", 3, 5)
    with pytest.raises(ResourceLimitError):
        enumerate_weyl(RootSystem("A", 8))


def test_rank_bound():
    with pytest.raises(ResourceLimitError):
        RootSystem("A", MAX_RANK + 1)
    # the rank is refused before |W| = 300001! is computed or printed
    with pytest.raises(ResourceLimitError, match="rank"):
        check_weyl_order("A", 300_000)
    assert RootSystem("A", MAX_RANK).rank == MAX_RANK


def test_memo_tables_belong_to_their_system():
    # answers on the registry's B3 leave a new B3's tables empty, and the
    # new system builds the same tables and answers for itself
    shared, fresh = build_root_system("B", 3), RootSystem("B", 3)
    w = enumerate_weyl(shared)[17]
    # a simple sequence conjugated by w: of gallery type with x != e
    entries = [conjugate_reflection(w, shared.reflections[i]).root for i in (0, 1, 0, 4)]
    seq = ReflSeq(shared, tuple(shared.reflection(r) for r in entries))
    cert = is_gallery_type(seq)
    assert not cert.x.is_identity()
    walls = {t.index for t in seq.entries}
    # the system keeps its tables in one holder: the Weyl order and the
    # right-simple table by name, each wall's attached table by its index
    assert walls <= shared._tables.keys() and shared._tables["right"] is not None
    assert fresh._tables == {}
    fresh_seq = ReflSeq(fresh, tuple(fresh.reflection(r) for r in entries))
    fresh_cert = is_gallery_type(fresh_seq)
    assert ((fresh_cert.x, fresh_cert.t.entries, fresh_cert.gamma.bits)
            == (cert.x, cert.t.entries, cert.gamma.bits))
    # the fresh system rebuilt the tables it needed, equal to the shared ones
    assert fresh._tables["right"] == shared._tables["right"]
    assert ({k: t for k, t in fresh._tables.items() if type(k) is int}
            == {r: shared._tables[r] for r in walls})
    # the Weyl action keeps nothing: 2,000 distinct polynomials leave every
    # attribute of the system as it was
    before = [{name: copy.copy(value) for name, value in vars(rs).items()}
              for rs in (shared, fresh)]
    polys = [Poly.linear(3, (k, k % 7 - 3, 1)) * Poly.linear(3, (1, 0, k % 5))
             for k in range(2000)]
    assert len({p.terms for p in polys}) == len(polys)
    for p in polys:
        assert weyl_act(w, p) == weyl_act(WeylElement(fresh, w.perm), p)
    assert [vars(shared), vars(fresh)] == before
    # a repeat is decided again, to the same certificate
    repeat = is_gallery_type(fresh_seq)
    assert repeat is not fresh_cert
    assert ((repeat.x, repeat.t.entries, repeat.gamma.bits)
            == (fresh_cert.x, fresh_cert.t.entries, fresh_cert.gamma.bits))


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


@pytest.mark.parametrize("family,rank", TABLE_SYSTEMS)
def test_right_simple_table_matches_products(family, rank):
    rs = build_root_system(family, rank)
    order = enumerate_weyl(rs)
    right = rs._tables["right"]
    assert len(right) == rank * len(order)
    for k, u in enumerate(order):
        for j in range(1, rank + 1):
            assert order[right[k * rank + j - 1]] == u * rs.simple_reflection(j)


def test_enumerate_weyl_returns_its_stored_tuple():
    # the order is built once per system and handed out uncopied
    rs = RootSystem("B", 3)
    order = enumerate_weyl(rs)
    assert type(order) is tuple and type(rs._tables["right"]) is tuple
    assert enumerate_weyl(rs) is order is rs._tables["order"]


@pytest.mark.parametrize("family,rank", TABLE_SYSTEMS)
def test_layout_tuples_state_the_root_order(family, rank):
    # positive roots first and roots[k + N] = -roots[k]: the reflection,
    # the negative and the simple roots read off by index
    rs = build_root_system(family, rank)
    assert len(rs.reflection_index) == len(rs.negative) == len(rs.roots)
    for k, root in enumerate(rs.roots):
        assert rs.roots[rs.negative[k]] == -root and rs.negative[rs.negative[k]] == k
        assert rs.reflections[k].index == rs.reflection_index[k]
        assert rs.roots[rs.reflection_index[k]] == (root if root.is_positive else -root)
    assert [rs.roots[k] for k in rs.simple_indices] == list(rs.simple_roots)
    assert [rs.reflections[k].letter for k in rs.simple_indices] == list(range(1, rank + 1))


def test_only_rootsys_knows_the_layout_and_the_tables():
    # no other module re-derives the layout from a root count, reads the
    # system's private index or tables, or touches the one holder of its
    # tables but through `RootSystem.kept`
    private = {"_index", "_weyl_cache", "_weyl_right", "_attached", "_root_forms", "_tables"}
    faults = []
    for path in sorted((Path(__file__).parent.parent / "src" / "bscomb").glob("*.py")):
        if path.name == "rootsys.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in private:
                faults.append(f"{path.name}:{node.lineno} .{node.attr}")
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv)
                    and isinstance(node.left, ast.Call)
                    and getattr(node.left.func, "id", None) == "len"
                    and any(getattr(a, "attr", getattr(a, "id", None)) in ("roots", "perm")
                            for a in node.left.args)):
                faults.append(f"{path.name}:{node.lineno} len(...) // 2")
    assert faults == []


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


def _reference_enumerate_weyl(rs):
    """Breadth-first search by WeylElement products, each level sorted by
    matrix: the search enumerate_weyl ran before it moved to raw perms."""
    simples = [rs.simple_reflection(i) for i in range(1, rs.rank + 1)]
    seen = {rs.identity()}
    order = [rs.identity()]
    level = [rs.identity()]
    while level:
        nxt = []
        for u in level:
            for s in simples:
                v = u * s
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        level = sorted(nxt, key=lambda w: w.matrix)
        order.extend(level)
    return order


@pytest.mark.parametrize("family,rank", [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("A", 6),
    ("B", 2), ("B", 3), ("B", 4), ("C", 3), ("D", 4), ("G", 2)])
def test_enumerate_weyl_matches_reference_order(family, rank):
    rs = RootSystem(family, rank)
    assert [w.perm for w in enumerate_weyl(rs)] == \
        [w.perm for w in _reference_enumerate_weyl(rs)]


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


# Reference: the symmetrized construction the package used before it read
# pairings from the coroot table.  (alpha_i, alpha_j) = d_j C[i][j] is a
# W-invariant integral form, and <x, beta^vee> = 2(x, beta)/(beta, beta).

REFERENCE_SYSTEMS = ([("A", n) for n in range(1, 8)] + [("B", n) for n in range(2, 6)]
                     + [("C", n) for n in range(2, 6)] + [("D", n) for n in range(4, 7)]
                     + [("G", 2)])


def _reference_symmetrizer(family, rank):
    if family == "B":
        return [2] * (rank - 1) + [1]
    if family == "C":
        return [1] * (rank - 1) + [2]
    return [1, 3] if family == "G" else [1] * rank


def _reference_form(rs):
    d = _reference_symmetrizer(rs.family, rs.rank)
    return lambda x, y: sum(xi * yj * d[j] * rs.cartan[i][j]
                            for i, xi in enumerate(x) for j, yj in enumerate(y))


def _reference_reflect(form, x, beta):
    p, r = divmod(2 * form(x, beta), form(beta, beta))
    assert r == 0
    return tuple(xj - p * bj for xj, bj in zip(x, beta))


def _reference_roots(rs, form):
    simple = [tuple(int(i == j) for j in range(rs.rank)) for i in range(rs.rank)]
    seen, frontier = set(simple), list(simple)
    while frontier:
        nxt = []
        for v in frontier:
            for a in simple:
                w = _reference_reflect(form, v, a)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    positives = sorted(v for v in seen if next(c for c in v if c) > 0)
    return positives + [tuple(-c for c in v) for v in positives]


def _reference_coroot(form, beta):
    """2 beta/(beta, beta) in simple-coroot coordinates: coordinate j is
    beta_j (alpha_j, alpha_j)/(beta, beta)."""
    norm = form(beta, beta)
    out = []
    for j, bj in enumerate(beta):
        e = tuple(int(i == j) for i in range(len(beta)))
        q, r = divmod(bj * form(e, e), norm)
        assert r == 0
        out.append(q)
    return tuple(out)


def _reference_weight_matrix(w, coroot):
    """Row k is the coroot of w^-1(alpha_k), read from `coroot` by coordinates."""
    winv = w.inv()
    return tuple(coroot[winv.apply(a).coords] for a in w.rs.simple_roots)


@pytest.mark.parametrize("family,rank", REFERENCE_SYSTEMS)
def test_root_geometry_matches_symmetrized_form(family, rank):
    rs = RootSystem(family, rank)
    form = _reference_form(rs)
    roots = _reference_roots(rs, form)
    assert [r.coords for r in rs.roots] == roots
    index = {v: k for k, v in enumerate(roots)}
    for t in rs.reflections:
        assert t.as_weyl().perm == tuple(index[_reference_reflect(form, v, t.root.coords)]
                                         for v in roots)
    coroot = {v: _reference_coroot(form, v) for v in roots}
    if closed_weyl_order(family, rank) <= 6000:
        for w in enumerate_weyl(rs):
            assert weight_matrix(w) == _reference_weight_matrix(w, coroot)


@pytest.mark.parametrize("family,rank", REFERENCE_SYSTEMS)
def test_coroot_table_matches_symmetrized_form(family, rank):
    rs = build_root_system(family, rank)
    form = _reference_form(rs)
    assert rs.coroots == tuple(_reference_coroot(form, r.coords) for r in rs.roots)
