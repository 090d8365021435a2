"""Exact root-system and Weyl-group arithmetic.

Roots are stored as integer coordinate tuples in the simple-root basis, so
everything here is integer arithmetic: no floats, no Euclidean space.
Each root carries its coroot, and every pairing reads the Cartan matrix
and that coroot.  W acts faithfully on the finite root list, so a Weyl
element is stored as the permutation it induces on `RootSystem.roots`:
products, inverses and the action on a root are index lookups.  A
reflection is one object per positive root, built with the system and
indexed by root index, so beta and -beta share it and the conjugate
w s_beta w^-1 = s_{w(beta)} is a table lookup at w's image of beta's index.
Chambers are represented by the Weyl elements u (the chamber u.Delta+),
which turns geometric attachment tests into simplicity tests on conjugated
reflections.

Supported families: A (n>=1), B (n>=2), C (n>=2), D (n>=4), G (n=2).
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import factorial
from operator import mul

from .errors import MAX_RANK, MAX_WEYL, InvalidInputError, Value, check_bound

Matrix = tuple[tuple[int, ...], ...]
Perm = tuple[int, ...]


def _cartan_matrix(family: str, rank: int) -> Matrix:
    """Cartan matrix with entries C[i][j] = <alpha_i, alpha_j^vee>."""
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


def _reflector(cartan: Matrix, root: tuple[int, ...], coroot: tuple[int, ...]):
    """x -> x - <x, beta^vee> beta, with <x, beta^vee> = sum_ij x_i C[i][j] b_j
    and C b computed once.  With the transposed matrix it reflects coroots."""
    weights = [sum(map(mul, row, coroot)) for row in cartan]

    def reflect(x: tuple[int, ...]) -> tuple[int, ...]:
        p = sum(map(mul, x, weights))
        return tuple(xj - p * bj for xj, bj in zip(x, root)) if p else x
    return reflect


class Root(Value):
    """A root in simple-root coordinates (all-nonnegative or all-nonpositive)."""

    __slots__ = ("coords",)

    def _fill(self, coords: tuple[int, ...]):  # the constructor: coords kept as a tuple
        object.__setattr__(self, "coords", tuple(coords))

    @property
    def is_positive(self) -> bool:
        return next(c for c in self.coords if c != 0) > 0

    def __neg__(self) -> "Root":
        return Root(tuple(-c for c in self.coords))


def closed_weyl_order(family: str, n: int) -> int:
    """|W| from family and rank alone: (n+1)!, 2^n n!, 2^(n-1) n!, or 12."""
    if family == "A":
        return factorial(n + 1)
    return 12 if family == "G" else 2 ** (n - 1 if family == "D" else n) * factorial(n)


def check_weyl_order(family: str, rank: int, max_weyl: int = MAX_WEYL) -> None:
    """Refuse rank above MAX_RANK, then |W| above min(max_weyl, MAX_WEYL): a
    caller can only tighten it, and |W| is computed only for a rank within bound."""
    check_bound("rank", rank, MAX_RANK)
    check_bound("|W| =", closed_weyl_order(family, rank), min(max_weyl, MAX_WEYL))


class RootSystem:
    """The full root datum of a finite family/rank: roots, coroots, Weyl group.

    Construct via :func:`build_root_system`; instances compare by (family,
    rank).  Root k has its reflection at `reflection_index[k]` and its
    negative at `negative[k]`; alpha_i is root `simple_indices[i - 1]`.  A
    system keeps the tables of pure functions of it in one dict, each
    filled on first use (`kept`, `enumerate_weyl`, `attached`).  Copies
    and pickles rebuild through `build_root_system`, and carry no table.
    """

    def __init__(self, family: str, rank: int):
        check_bound("rank", rank, MAX_RANK)
        self.family = family
        self.rank = rank
        self.cartan = _cartan_matrix(family, rank)
        self.simple_roots = tuple(Root(tuple(int(j == i) for j in range(rank)))
                                  for i in range(rank))
        self.roots, self.coroots = self._close_roots()
        self._index = {r.coords: k for k, r in enumerate(self.roots)}
        # roots[k + N] = -roots[k], so both halves share the reflection objects
        half = len(self.roots) // 2
        self.reflection_index = tuple(range(half)) * 2
        self.negative = tuple(range(half, 2 * half)) + tuple(range(half))
        self.simple_indices = tuple(self._index[a.coords] for a in self.simple_roots)
        letters = {k: i for i, k in enumerate(self.simple_indices, start=1)}
        positive = [Reflection(self, k, r, letters.get(k))
                    for k, r in enumerate(self.roots[:half])]
        self.reflections = tuple(positive + positive)
        self._identity = WeylElement(self, tuple(range(len(self.roots))))
        self._tables: dict = {}

    def __reduce__(self):
        return build_root_system, (self.family, self.rank)

    def kept(self, build):
        """build(self), built on first use and kept with the system."""
        table = self._tables.get(build)
        if table is None:
            table = self._tables[build] = build(self)
        return table

    def _root_index(self, root: Root) -> int:
        """The index of root in `roots`; refuses a non-root."""
        k = self._index.get(root.coords)
        if k is None:
            raise InvalidInputError(f"{root} is not a root of {self}")
        return k

    # -- roots -------------------------------------------------------------

    def _close_roots(self) -> tuple[tuple[Root, ...], tuple[tuple[int, ...], ...]]:
        """The roots, positive half first, and the coroot of each (in
        simple-coroot coordinates, alpha_j^vee = e_j), by closing the simple
        roots under simple reflections: s_a(y) = y - <alpha_a, y> alpha_a^vee."""
        simple = [a.coords for a in self.simple_roots]
        moves = [(_reflector(self.cartan, a, a), _reflector(tuple(zip(*self.cartan)), a, a))
                 for a in simple]
        coroot = dict(zip(simple, simple))
        frontier = simple
        while frontier:
            nxt = []
            for v in frontier:
                for on_root, on_coroot in moves:
                    w = on_root(v)
                    if w not in coroot:
                        coroot[w] = on_coroot(coroot[v])
                        nxt.append(w)
            frontier = nxt
        positives = sorted(v for v in coroot if Root(v).is_positive)
        roots = [Root(v) for v in positives] + [-Root(v) for v in positives]
        return tuple(roots), tuple(coroot[r.coords] for r in roots)

    def is_root(self, root: Root) -> bool:
        return root.coords in self._index

    # -- reflections and Weyl elements --------------------------------------

    def identity(self) -> "WeylElement":
        """The identity element, built once with the system."""
        return self._identity

    def simple_reflection(self, i: int) -> "WeylElement":
        """s_i for 1-based simple index i."""
        if not 1 <= i <= self.rank:
            raise InvalidInputError(f"no simple reflection s{i} in rank {self.rank}")
        return self.reflection(self.simple_roots[i - 1]).as_weyl()

    def reflection(self, root: Root) -> "Reflection":
        """s_beta = s_-beta, the table entry of either root; refuses a non-root."""
        return self.reflections[self._root_index(root)]

    def require_same(self, other: "RootSystem", message: str) -> None:
        """Refuse another system with InvalidInputError(message)."""
        if other is not self and other != self:
            raise InvalidInputError(message)

    def __eq__(self, other):
        return (isinstance(other, RootSystem)
                and (self.family, self.rank) == (other.family, other.rank))

    def __hash__(self):
        # integers only, so the hash is the same in every run
        return hash((ord(self.family), self.rank))

    def __repr__(self):
        return f"{self.family}{self.rank}"


class WeylElement(Value, compare=("perm",)):
    """A Weyl group element as the permutation it induces on the roots.

    perm[k] is the index in rs.roots of w(rs.roots[k]); since W acts
    faithfully on the roots, equality of elements is equality of perms.
    """

    __slots__ = ("rs", "perm")

    def __init__(self, rs: RootSystem, perm: Perm):
        self._fill(rs, tuple(perm))
        if len(self.perm) != len(self.rs.roots):
            raise InvalidInputError("permutation size does not match the root count")

    @property
    def matrix(self) -> Matrix:
        """Integer matrix on simple-root coordinates; column j is w(alpha_j)."""
        images = (self.apply(a).coords for a in self.rs.simple_roots)
        return tuple(zip(*images))

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        return WeylElement(self.rs, _times(self.rs, self.perm, other))

    def inv(self) -> "WeylElement":
        return WeylElement(self.rs, inverse_perm(self.perm))

    def is_identity(self) -> bool:
        return self.perm == self.rs.identity().perm

    def apply(self, root: Root) -> Root:
        """The action w(beta); the result is again a root."""
        return self.rs.roots[self.perm[self.rs._root_index(root)]]

    def word(self) -> tuple[int, ...]:
        """A reduced word (1-based simple indices), recovered by descent exchange.

        Display aid only; equality of elements is permutation equality.
        """
        # the positive roots are the first half of rs.roots
        half, simple = len(self.perm) // 2, self.rs.simple_indices
        letters: list[int] = []
        u = self
        while not u.is_identity():
            i = next(i for i, k in enumerate(simple, start=1) if u.perm[k] >= half)
            letters.append(i)
            u = u * self.rs.simple_reflection(i)
        return tuple(reversed(letters))

    def __str__(self):
        w = self.word()
        return " ".join(f"s{i}" for i in w) if w else "e"


def _times(rs: RootSystem, perm: Perm, other: WeylElement) -> Perm:
    """The perm of (the element of rs with this perm) * other."""
    rs.require_same(other.rs, "cannot multiply elements of different systems")
    return tuple(map(perm.__getitem__, other.perm))


def inverse_perm(perm: Perm) -> Perm:
    """The perm of w^-1 from the perm of w, as `WeylElement.inv` takes it."""
    inverse = [0] * len(perm)
    for k, image in enumerate(perm):
        inverse[image] = k
    return tuple(inverse)


def quotient_perm(u: WeylElement, v: WeylElement, t: WeylElement) -> Perm:
    """The perm of (u v)^-1 t, as ((u * v).inv() * t).perm but with no
    element built; factors of different systems are refused as `*`
    refuses them."""
    return _times(u.rs, inverse_perm(_times(u.rs, u.perm, v)), t)


class Reflection(Value, compare=("rs", "index")):
    """The reflection s_alpha for the positive root alpha = rs.roots[index].

    Its system builds one per positive root; reach it through
    `RootSystem.reflection` or `conjugate_reflection`.  Equal and hashed by
    (root system, index).  `letter` is i when alpha = alpha_i, else None.
    Copies and pickles are its system's own table entry.
    """

    __slots__ = ("rs", "index", "root", "letter", "__dict__")

    def __reduce__(self):
        # (system, index) alone: the cached `_weyl` is not carried along
        return _reflection, (self.rs, self.index)

    @cached_property
    def _weyl(self) -> WeylElement:
        rs = self.rs
        reflect = _reflector(rs.cartan, self.root.coords, rs.coroots[self.index])
        return WeylElement(rs, tuple(rs._index[reflect(g.coords)] for g in rs.roots))

    def as_weyl(self) -> WeylElement:
        """s_alpha as a Weyl element; its permutation is built on first use."""
        return self._weyl

    def is_simple(self) -> bool:
        return self.letter is not None

    def __str__(self):
        if self.letter is not None:
            return f"s{self.letter}"
        return "s[" + ",".join(str(c) for c in self.root.coords) + "]"


def _reflection(rs: RootSystem, index: int) -> Reflection:
    return rs.reflections[index]


@lru_cache(maxsize=None)
def build_root_system(family: str, rank: int) -> RootSystem:
    """Build the root datum for a valid (family, rank) pair.

    Roots come positive-first, each half sorted lexicographically by
    coordinates; the ordering is deterministic.
    """
    return RootSystem(family, rank)


def conjugate_reflection(w: WeylElement, t: Reflection) -> Reflection:
    """w s_alpha w^-1 = s_{w(alpha)}: the table entry at w's image of alpha."""
    w.rs.require_same(t.rs, "mismatched root systems")
    return w.rs.reflections[w.perm[t.index]]


def enumerate_weyl(rs: RootSystem) -> tuple[WeylElement, ...]:
    """All Weyl elements, by closure under simple reflections.

    |W| is bounded by MAX_WEYL before any element is built.
    Deterministic order: breadth-first by word length, elements sorted by
    matrix within each level.  Built once and kept on the root system as a
    tuple that every call returns uncopied, with the products the closure
    makes anyway: the right-simple table holds at k * rank + j - 1 the
    index of order[k] * s_j, rank*|W| integers kept as long as the system.
    """
    if "order" not in rs._tables:
        check_weyl_order(rs.family, rs.rank)
        # u * s on raw perms, (us)[k] = u[s[k]]; only each new element is wrapped.
        # A product first met on this level's pass is numbered ~p, its place
        # p in nxt, until the next level is sorted
        simples = [rs.simple_reflection(i).perm for i in range(1, rs.rank + 1)]
        level = [rs.identity()]
        index = {level[0].perm: 0}
        order, right = list(level), []
        while level:
            nxt, row = [], []
            for u in level:
                get = u.perm.__getitem__
                for s in simples:
                    v = tuple(map(get, s))
                    k = index.setdefault(v, ~len(nxt))
                    if k == ~len(nxt):
                        nxt.append(WeylElement(rs, v))
                    row.append(k)
            level = sorted(nxt, key=lambda w: w.matrix)
            index.update((w.perm, k) for k, w in enumerate(level, len(order)))
            order.extend(level)
            final = [index[w.perm] for w in nxt]
            right += [k if k >= 0 else final[~k] for k in row]
        rs._tables["order"], rs._tables["right"] = tuple(order), tuple(right)
    return rs._tables["order"]


def attached(rs: RootSystem, r: int) -> dict[int, int]:
    """{k: k'} over the chambers u = enumerate_weyl(rs)[k] attached to the wall
    of rs.reflections[r], those with u^-1(beta_r) = +-alpha_j, where k' is the
    index of the chamber across that wall, s_r u = u s_j, read from the
    right-simple table.  Built on first use and kept on the system."""
    table = rs._tables.get(r)
    if table is None:
        order = enumerate_weyl(rs)  # builds the right-simple table
        right, rank, letters = rs._tables["right"], rs.rank, [t.letter for t in rs.reflections]
        table = rs._tables[r] = {k: right[k * rank + j - 1] for k, u in enumerate(order)
                                 if (j := letters[u.perm.index(r)])}
    return table
