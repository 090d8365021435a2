"""Exact root-system and Weyl-group arithmetic.

Roots are stored as integer coordinate tuples in the simple-root basis, so
everything here is integer linear algebra: no floats, no Euclidean space.
Pairings come from a table-driven Cartan matrix, Weyl elements are integer
matrices acting on simple-root coordinates, and chambers are represented by
the Weyl elements u (the chamber u.Delta+), which turns geometric attachment
tests into simplicity tests on conjugated reflections.

Supported families: A (n>=1), B (n>=2), C (n>=2), D (n>=4), G (n=2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .errors import InvalidInputError, ResourceLimitError

MAX_WEYL = 100_000

Matrix = tuple[tuple[int, ...], ...]


def _identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(ra[k] * cb[k] for k in range(n)) for cb in bt) for ra in a
    )


def _mat_vec(a: Matrix, v: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(row[k] * v[k] for k in range(len(v))) for row in a)


def _mat_inv(a: Matrix) -> Matrix:
    """Exact inverse of an integer matrix with unit determinant."""
    n = len(a)
    work = [[Fraction(a[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
            for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if work[r][col] != 0)
        work[col], work[pivot] = work[pivot], work[col]
        pv = work[col][col]
        work[col] = [x / pv for x in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    inv = tuple(tuple(int(work[i][n + j]) for j in range(n)) for i in range(n))
    return inv


def _cartan_matrix(family: str, rank: int) -> Matrix:
    """Cartan matrix with entries C[i][j] = <alpha_i, alpha_j>."""
    def chain(n):
        return [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)]
                for i in range(n)]

    if family == "A" and rank >= 1:
        c = chain(rank)
    elif family == "B" and rank >= 2:
        c = chain(rank)
        c[rank - 2][rank - 1] = -2
    elif family == "C" and rank >= 2:
        c = chain(rank)
        c[rank - 1][rank - 2] = -2
    elif family == "D" and rank >= 4:
        c = chain(rank)
        c[rank - 2][rank - 1] = c[rank - 1][rank - 2] = 0
        c[rank - 3][rank - 1] = c[rank - 1][rank - 3] = -1
        c[rank - 2][rank - 3] = c[rank - 3][rank - 2] = -1
    elif family == "G" and rank == 2:
        c = [[2, -1], [-3, 2]]
    else:
        raise InvalidInputError(f"unsupported root system {family}{rank}")
    return tuple(tuple(row) for row in c)


def _symmetrizer(family: str, rank: int) -> tuple[int, ...]:
    """Integers d_i with d_j*C[i][j] symmetric ((alpha_i, alpha_j) = d_j*C[i][j])."""
    if family == "B":
        return tuple([2] * (rank - 1) + [1])
    if family == "C":
        return tuple([1] * (rank - 1) + [2])
    if family == "G":
        return (1, 3)
    return tuple([1] * rank)


@dataclass(frozen=True)
class Root:
    """A root in simple-root coordinates (all-nonnegative or all-nonpositive)."""

    coords: tuple[int, ...]

    @property
    def is_positive(self) -> bool:
        return next(c for c in self.coords if c != 0) > 0

    def __neg__(self) -> "Root":
        return Root(tuple(-c for c in self.coords))


class RootSystem:
    """The full root datum of a finite family/rank: roots, pairings, Weyl group.

    Construct via :func:`build_root_system`; instances are immutable and
    compare by (family, rank).
    """

    def __init__(self, family: str, rank: int):
        self.family = family
        self.rank = rank
        self.cartan = _cartan_matrix(family, rank)
        self._sym = _symmetrizer(family, rank)
        self.simple_roots = tuple(
            Root(tuple(1 if j == i else 0 for j in range(rank))) for i in range(rank)
        )
        self.roots = self._close_roots()
        self._root_set = frozenset(r.coords for r in self.roots)
        self._refl_matrices: dict[tuple[int, ...], Matrix] = {}
        self._inv_cache: dict[Matrix, Matrix] = {}
        self._word_cache: dict[Matrix, tuple[int, ...]] = {}
        self._weyl_cache: list["WeylElement"] | None = None

    # -- scalar products ---------------------------------------------------

    def bilinear(self, x: tuple[int, ...], y: tuple[int, ...]) -> int:
        """(x, y) for the W-invariant integral form fixed by the symmetrizer."""
        total = 0
        for i, xi in enumerate(x):
            if xi:
                for j, yj in enumerate(y):
                    if yj:
                        total += xi * yj * self._sym[j] * self.cartan[i][j]
        return total

    def pairing(self, x: tuple[int, ...], beta: Root) -> int:
        """<x, beta> = 2(x, beta)/(beta, beta); exact and integral."""
        num = 2 * self.bilinear(x, beta.coords)
        den = self.bilinear(beta.coords, beta.coords)
        q, r = divmod(num, den)
        if r:
            raise InvalidInputError("pairing is not integral; beta is not a root")
        return q

    # -- roots -------------------------------------------------------------

    def _close_roots(self) -> tuple[Root, ...]:
        simple_refl = []
        for i in range(self.rank):
            # s_i(alpha_k) = alpha_k - C[k][i] alpha_i, as a matrix on coordinates
            mt = tuple(tuple(int(r == c) - (self.cartan[c][i] if r == i else 0)
                             for c in range(self.rank)) for r in range(self.rank))
            simple_refl.append(mt)
        seen = {a.coords for a in self.simple_roots}
        frontier = [a.coords for a in self.simple_roots]
        while frontier:
            nxt = []
            for v in frontier:
                for m in simple_refl:
                    w = _mat_vec(m, v)
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        seen |= {tuple(-c for c in v) for v in seen}
        positives = sorted(v for v in seen if Root(v).is_positive)
        return tuple(Root(v) for v in positives) + tuple(Root(tuple(-c for c in v))
                                                         for v in positives)

    def is_root(self, root: Root) -> bool:
        return root.coords in self._root_set

    def positive_representative(self, root: Root) -> Root:
        return root if root.is_positive else -root

    # -- reflections and Weyl elements --------------------------------------

    def reflection_matrix(self, root: Root) -> Matrix:
        key = root.coords
        cached = self._refl_matrices.get(key)
        if cached is not None:
            return cached
        if key not in self._root_set:
            raise InvalidInputError(f"{root} is not a root of {self}")
        n = self.rank
        cols = []
        for k in range(n):
            e_k = tuple(int(j == k) for j in range(n))
            pk = self.pairing(e_k, root)
            cols.append(tuple(e_k[j] - pk * root.coords[j] for j in range(n)))
        m = tuple(tuple(cols[c][r] for c in range(n)) for r in range(n))
        self._refl_matrices[key] = m
        return m

    def identity(self) -> "WeylElement":
        return WeylElement(self, _identity(self.rank))

    def simple_reflection(self, i: int) -> "WeylElement":
        """s_i for 1-based simple index i."""
        if not 1 <= i <= self.rank:
            raise InvalidInputError(f"no simple reflection s{i} in rank {self.rank}")
        return WeylElement(self, self.reflection_matrix(self.simple_roots[i - 1]))

    def reflection(self, root: Root) -> "Reflection":
        return Reflection(self, self.positive_representative(root))

    def _inverse(self, m: Matrix) -> Matrix:
        inv = self._inv_cache.get(m)
        if inv is None:
            inv = _mat_inv(m)
            self._inv_cache[m] = inv
        return inv

    def __eq__(self, other):
        return (isinstance(other, RootSystem)
                and (self.family, self.rank) == (other.family, other.rank))

    def __hash__(self):
        return hash((self.family, self.rank))

    def __repr__(self):
        return f"{self.family}{self.rank}"


@dataclass(frozen=True)
class WeylElement:
    """A Weyl group element as an exact integer matrix on simple-root coordinates."""

    rs: RootSystem = field(compare=False)
    matrix: Matrix = field(compare=True)

    def __post_init__(self):
        if len(self.matrix) != self.rs.rank:
            raise InvalidInputError("matrix size does not match rank")

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        if self.rs != other.rs:
            raise InvalidInputError("cannot multiply elements of different systems")
        return WeylElement(self.rs, _mat_mul(self.matrix, other.matrix))

    def inv(self) -> "WeylElement":
        return WeylElement(self.rs, self.rs._inverse(self.matrix))

    def is_identity(self) -> bool:
        return self.matrix == _identity(self.rs.rank)

    def apply(self, root: Root) -> Root:
        """The action w(beta); the result is again a root."""
        if not self.rs.is_root(root):
            raise InvalidInputError(f"{root} is not a root of {self.rs}")
        image = Root(_mat_vec(self.matrix, root.coords))
        if not self.rs.is_root(image):
            raise InvalidInputError("matrix does not permute the roots")
        return image

    def word(self) -> tuple[int, ...]:
        """A reduced word (1-based simple indices), recovered by descent exchange.

        Display aid only; equality of elements is matrix equality.
        """
        cached = self.rs._word_cache.get(self.matrix)
        if cached is not None:
            return cached
        letters: list[int] = []
        u = self
        while not u.is_identity():
            i = next(k for k, a in enumerate(self.rs.simple_roots, start=1)
                     if not u.apply(a).is_positive)
            letters.append(i)
            u = u * self.rs.simple_reflection(i)
        word = tuple(reversed(letters))
        self.rs._word_cache[self.matrix] = word
        return word

    def __str__(self):
        w = self.word()
        return " ".join(f"s{i}" for i in w) if w else "e"

    def __hash__(self):
        return hash(self.matrix)


@dataclass(frozen=True)
class Reflection:
    """The reflection s_alpha; its wall is L_alpha, with alpha kept positive."""

    rs: RootSystem = field(compare=False)
    root: Root = field(compare=True)

    def __post_init__(self):
        if not self.rs.is_root(self.root):
            raise InvalidInputError(f"{self.root} is not a root of {self.rs}")
        if not self.root.is_positive:
            raise InvalidInputError("reflection root must be the positive representative")

    def as_weyl(self) -> WeylElement:
        return WeylElement(self.rs, self.rs.reflection_matrix(self.root))

    def is_simple(self) -> bool:
        return self.root in self.rs.simple_roots

    def __str__(self):
        if self.is_simple():
            return f"s{self.rs.simple_roots.index(self.root) + 1}"
        return "s[" + ",".join(str(c) for c in self.root.coords) + "]"

    def __hash__(self):
        return hash(self.root)


@lru_cache(maxsize=None)
def build_root_system(family: str, rank: int) -> RootSystem:
    """Build the root datum for a valid (family, rank) pair.

    Roots come positive-first, each half sorted lexicographically by
    coordinates; the ordering is deterministic.
    """
    rs = RootSystem(family, rank)
    return rs


def conjugate_reflection(w: WeylElement, t: Reflection) -> Reflection:
    """w s_alpha w^-1 = s_{w(alpha)}, with the root kept positive."""
    if w.rs != t.rs:
        raise InvalidInputError("mismatched root systems")
    return w.rs.reflection(w.apply(t.root))


def enumerate_weyl(rs: RootSystem, max_weyl: int = MAX_WEYL) -> list[WeylElement]:
    """All Weyl elements, by closure under simple reflections.

    |W| is bounded by min(max_weyl, MAX_WEYL): a caller can only tighten it.
    Deterministic order: breadth-first by word length, matrices sorted
    within each level.  Cached on the root system.
    """
    bound = min(max_weyl, MAX_WEYL)
    if rs._weyl_cache is not None:
        if len(rs._weyl_cache) > bound:
            raise ResourceLimitError(
                f"|W| = {len(rs._weyl_cache)} exceeds bound {bound}")
        return list(rs._weyl_cache)
    simples = [rs.simple_reflection(i) for i in range(1, rs.rank + 1)]
    seen = {rs.identity().matrix}
    order = [rs.identity()]
    level = [rs.identity()]
    while level:
        nxt = {}
        for u in level:
            for s in simples:
                m = (u * s).matrix
                if m not in seen:
                    seen.add(m)
                    nxt[m] = WeylElement(rs, m)
            if len(seen) > bound:
                raise ResourceLimitError(f"|W| exceeds bound {bound}")
        level = [nxt[m] for m in sorted(nxt)]
        order.extend(level)
    rs._weyl_cache = list(order)
    return order


def is_attached(u: WeylElement, t: Reflection) -> bool:
    """Whether the chamber u.Delta+ is attached to the wall of t.

    Combinatorially: u^-1 t u is a simple reflection.
    """
    if u.rs != t.rs:
        raise InvalidInputError("mismatched root systems")
    conj = conjugate_reflection(u.inv(), t)
    return conj.is_simple()
