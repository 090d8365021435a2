"""Exact root-system and Weyl-group arithmetic.

Roots are stored as integer coordinate tuples in the simple-root basis, so
everything here is integer arithmetic: no floats, no Euclidean space.
Pairings come from a table-driven Cartan matrix.  W acts faithfully on the
finite root list, so a Weyl element is stored as the permutation it induces
on `RootSystem.roots`: products, inverses and the action on a root are index
lookups.  A reflection is one object per positive root, built with the
system and indexed by root index, so beta and -beta share it and the
conjugate w s_beta w^-1 = s_{w(beta)} is a table lookup at w's image of
beta's index.  Chambers are represented by the Weyl elements u (the chamber
u.Delta+), which turns geometric attachment tests into simplicity tests on
conjugated reflections.

Supported families: A (n>=1), B (n>=2), C (n>=2), D (n>=4), G (n=2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import factorial

from .errors import InvalidInputError, ResourceLimitError

MAX_WEYL = 100_000

Matrix = tuple[tuple[int, ...], ...]
Perm = tuple[int, ...]


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
        self._index = {r.coords: k for k, r in enumerate(self.roots)}
        letters = {a.coords: i for i, a in enumerate(self.simple_roots, start=1)}
        positive = [Reflection(self, k, r, letters.get(r.coords))
                    for k, r in enumerate(self.roots[:len(self.roots) // 2])]
        # roots[k + N] = -roots[k], so both halves share the reflection objects
        self.reflections = tuple(positive + positive)
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

    def _reflect(self, x: tuple[int, ...], beta: Root) -> tuple[int, ...]:
        """s_beta(x) = x - <x, beta> beta."""
        p = self.pairing(x, beta)
        return tuple(xj - p * bj for xj, bj in zip(x, beta.coords))

    @property
    def weyl_order(self) -> int:
        """|W| in closed form: (n+1)!, 2^n n!, 2^(n-1) n!, or 12 for G2."""
        n = self.rank
        return {"A": factorial(n + 1), "B": 2 ** n * factorial(n),
                "C": 2 ** n * factorial(n), "D": 2 ** (n - 1) * factorial(n),
                "G": 12}[self.family]

    # -- roots -------------------------------------------------------------

    def _close_roots(self) -> tuple[Root, ...]:
        seen = {a.coords for a in self.simple_roots}
        frontier = [a.coords for a in self.simple_roots]
        while frontier:
            nxt = []
            for v in frontier:
                for a in self.simple_roots:
                    w = self._reflect(v, a)
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        seen |= {tuple(-c for c in v) for v in seen}
        positives = sorted(v for v in seen if Root(v).is_positive)
        return tuple(Root(v) for v in positives) + tuple(Root(tuple(-c for c in v))
                                                         for v in positives)

    def is_root(self, root: Root) -> bool:
        return root.coords in self._index

    # -- reflections and Weyl elements --------------------------------------

    def identity(self) -> "WeylElement":
        return WeylElement(self, tuple(range(len(self.roots))))

    def simple_reflection(self, i: int) -> "WeylElement":
        """s_i for 1-based simple index i."""
        if not 1 <= i <= self.rank:
            raise InvalidInputError(f"no simple reflection s{i} in rank {self.rank}")
        return self.reflection(self.simple_roots[i - 1]).as_weyl()

    def reflection(self, root: Root) -> "Reflection":
        """s_beta = s_-beta, the table entry of either root; refuses a non-root."""
        k = self._index.get(root.coords)
        if k is None:
            raise InvalidInputError(f"{root} is not a root of {self}")
        return self.reflections[k]

    def __eq__(self, other):
        return (isinstance(other, RootSystem)
                and (self.family, self.rank) == (other.family, other.rank))

    def __hash__(self):
        # integers only, so the hash is the same in every run
        return hash((ord(self.family), self.rank))

    def __repr__(self):
        return f"{self.family}{self.rank}"


@dataclass(frozen=True)
class WeylElement:
    """A Weyl group element as the permutation it induces on the roots.

    perm[k] is the index in rs.roots of w(rs.roots[k]); since W acts
    faithfully on the roots, equality of elements is equality of perms.
    """

    rs: RootSystem = field(compare=False)
    perm: Perm = field(compare=True)

    def __post_init__(self):
        if len(self.perm) != len(self.rs.roots):
            raise InvalidInputError("permutation size does not match the root count")

    @property
    def matrix(self) -> Matrix:
        """Integer matrix on simple-root coordinates; column j is w(alpha_j)."""
        images = (self.apply(a).coords for a in self.rs.simple_roots)
        return tuple(zip(*images))

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        if self.rs != other.rs:
            raise InvalidInputError("cannot multiply elements of different systems")
        return WeylElement(self.rs, tuple(map(self.perm.__getitem__, other.perm)))

    def inv(self) -> "WeylElement":
        inverse = [0] * len(self.perm)
        for k, image in enumerate(self.perm):
            inverse[image] = k
        return WeylElement(self.rs, tuple(inverse))

    def is_identity(self) -> bool:
        return self.perm == tuple(range(len(self.perm)))

    def apply(self, root: Root) -> Root:
        """The action w(beta); the result is again a root."""
        k = self.rs._index.get(root.coords)
        if k is None:
            raise InvalidInputError(f"{root} is not a root of {self.rs}")
        return self.rs.roots[self.perm[k]]

    def word(self) -> tuple[int, ...]:
        """A reduced word (1-based simple indices), recovered by descent exchange.

        Display aid only; equality of elements is permutation equality.
        """
        letters: list[int] = []
        u = self
        while not u.is_identity():
            i = next(k for k, a in enumerate(self.rs.simple_roots, start=1)
                     if not u.apply(a).is_positive)
            letters.append(i)
            u = u * self.rs.simple_reflection(i)
        return tuple(reversed(letters))

    def __str__(self):
        w = self.word()
        return " ".join(f"s{i}" for i in w) if w else "e"


@dataclass(frozen=True)
class Reflection:
    """The reflection s_alpha for the positive root alpha = rs.roots[index].

    Its system builds one per positive root; reach it through
    `RootSystem.reflection` or `conjugate_reflection`.  Equal and hashed by
    (root system, index).  `letter` is i when alpha = alpha_i, else None.
    """

    rs: RootSystem
    index: int
    root: Root = field(compare=False)
    letter: int | None = field(compare=False)

    @cached_property
    def _weyl(self) -> WeylElement:
        rs = self.rs
        perm = tuple(rs._index[rs._reflect(g.coords, self.root)] for g in rs.roots)
        return WeylElement(rs, perm)

    def as_weyl(self) -> WeylElement:
        """s_alpha as a Weyl element; its permutation is built on first use."""
        return self._weyl

    def is_simple(self) -> bool:
        return self.letter is not None

    def __str__(self):
        if self.letter is not None:
            return f"s{self.letter}"
        return "s[" + ",".join(str(c) for c in self.root.coords) + "]"


@lru_cache(maxsize=None)
def build_root_system(family: str, rank: int) -> RootSystem:
    """Build the root datum for a valid (family, rank) pair.

    Roots come positive-first, each half sorted lexicographically by
    coordinates; the ordering is deterministic.
    """
    rs = RootSystem(family, rank)
    return rs


def conjugate_reflection(w: WeylElement, t: Reflection) -> Reflection:
    """w s_alpha w^-1 = s_{w(alpha)}: the table entry at w's image of alpha."""
    if w.rs is not t.rs and w.rs != t.rs:
        raise InvalidInputError("mismatched root systems")
    return w.rs.reflections[w.perm[t.index]]


def enumerate_weyl(rs: RootSystem, max_weyl: int = MAX_WEYL) -> list[WeylElement]:
    """All Weyl elements, by closure under simple reflections.

    |W| is bounded by min(max_weyl, MAX_WEYL): a caller can only tighten it,
    and the closed-form order is checked before any element is built.
    Deterministic order: breadth-first by word length, elements sorted by
    matrix within each level.  Cached on the root system.
    """
    bound = min(max_weyl, MAX_WEYL)
    if rs.weyl_order > bound:
        raise ResourceLimitError(f"|W| = {rs.weyl_order} exceeds bound {bound}")
    if rs._weyl_cache is None:
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
        rs._weyl_cache = order
    return list(rs._weyl_cache)


def is_attached(u: WeylElement, t: Reflection) -> bool:
    """Whether the chamber u.Delta+ is attached to the wall of t.

    Combinatorially: u^-1 t u is a simple reflection.
    """
    if u.rs != t.rs:
        raise InvalidInputError("mismatched root systems")
    conj = conjugate_reflection(u.inv(), t)
    return conj.is_simple()
