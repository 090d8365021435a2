"""Independent Weyl-group arithmetic used to check the library's answers.

The library stores Weyl elements as integer matrices on simple-root
coordinates.  This module works in the classical epsilon basis instead:
roots are integer vectors, reflections come from the formula
s_b(v) = v - 2(v, b)/(b, b) b with the standard dot product, and a Weyl
element is the permutation it induces on the finite root set.  Nothing
here imports bscomb, so a check that agrees with the library was reached
by a different route.
"""

from __future__ import annotations

from itertools import combinations, product


def _simple_roots(family: str, rank: int) -> list[tuple[int, ...]]:
    def e(dim, *terms):
        v = [0] * dim
        for k, c in terms:
            v[k] += c
        return tuple(v)

    if family == "A":
        return [e(rank + 1, (i, 1), (i + 1, -1)) for i in range(rank)]
    if family in "BD":
        chain = [e(rank, (i, 1), (i + 1, -1)) for i in range(rank - 1)]
        last = {"B": e(rank, (rank - 1, 1)),
                "D": e(rank, (rank - 2, 1), (rank - 1, 1))}[family]
        return chain + [last]
    if family == "G" and rank == 2:
        return [e(3, (0, 1), (1, -1)), e(3, (0, -2), (1, 1), (2, 1))]
    raise ValueError(f"no oracle for {family}{rank}")


def _dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def _reflect(v, b) -> tuple[int, ...]:
    k, r = divmod(2 * _dot(v, b), _dot(b, b))
    if r:
        raise ValueError("non-integral pairing; not a root system")
    return tuple(x - k * y for x, y in zip(v, b))


class RootData:
    """Roots of one system in the epsilon basis, with reflections as permutations."""

    def __init__(self, family: str, rank: int):
        self.rank = rank
        simple = _simple_roots(family, rank)
        # closure under simple reflections, tracking simple-root coordinates
        coords = {v: tuple(int(j == i) for j in range(rank)) for i, v in enumerate(simple)}
        frontier = list(coords)
        while frontier:
            nxt = []
            for v in frontier:
                for i, a in enumerate(simple):
                    w = _reflect(v, a)
                    if w not in coords:
                        k = 2 * _dot(v, a) // _dot(a, a)
                        coords[w] = tuple(c - k * (j == i) for j, c in enumerate(coords[v]))
                        nxt.append(w)
            frontier = nxt
        self.roots = sorted(coords)
        self.index = {v: k for k, v in enumerate(self.roots)}
        self.coords = [coords[v] for v in self.roots]
        self.by_coords = {c: k for k, c in enumerate(self.coords)}
        self.positive = [next(c for c in cs if c) > 0 for cs in self.coords]
        self.neg = [self.index[tuple(-x for x in v)] for v in self.roots]
        self.simple = [self.index[v] for v in simple]
        self.identity = tuple(range(len(self.roots)))
        self.refl = [tuple(self.index[_reflect(v, b)] for v in self.roots)
                     for b in self.roots]

        self._weyl: list[tuple[int, ...]] | None = None

    def weyl(self) -> list[tuple[int, ...]]:
        """Every Weyl element: the closure of the identity under simple reflections."""
        if self._weyl is None:
            seen = {self.identity}
            frontier = [self.identity]
            while frontier:
                nxt = []
                for g in frontier:
                    for k in self.simple:
                        h = mul(g, self.refl[k])
                        if h not in seen:
                            seen.add(h)
                            nxt.append(h)
                frontier = nxt
            self._weyl = sorted(seen)
        return self._weyl

    def pos(self, k: int) -> int:
        return k if self.positive[k] else self.neg[k]

    def root_of(self, coords) -> int:
        """Index of the root with these simple-root coordinates."""
        return self.by_coords[tuple(coords)]

    def is_simple(self, k: int) -> bool:
        return k in self.simple

    def from_matrix(self, matrix) -> tuple[int, ...]:
        """The permutation of a library Weyl matrix (acting on simple-root coordinates)."""
        r = self.rank
        return tuple(self.by_coords[tuple(sum(matrix[i][j] * c[j] for j in range(r))
                                          for i in range(r))]
                     for c in self.coords)


def mul(p, q) -> tuple[int, ...]:
    """p after q."""
    return tuple(p[k] for k in q)


def inv(p) -> tuple[int, ...]:
    out = [0] * len(p)
    for k, v in enumerate(p):
        out[v] = k
    return tuple(out)


def twisted(rd: RootData, entries, bits) -> list[int]:
    """Positive roots of t^(gamma): entry i is gamma^i t_i (gamma^i)^-1."""
    g = rd.identity
    out = []
    for k, bit in zip(entries, bits):
        if bit:
            g = mul(g, rd.refl[k])
        out.append(rd.pos(g[k]))
    return out


def certificate_holds(rd: RootData, s_entries, x_perm, t_entries, bits) -> bool:
    """t^(gamma) = s^x entrywise, with every t_i simple."""
    if len(t_entries) != len(s_entries) or len(bits) != len(s_entries):
        return False
    if not all(rd.is_simple(k) for k in t_entries):
        return False
    rhs = [rd.pos(x_perm[k]) for k in s_entries]
    return twisted(rd, t_entries, bits) == rhs


def gallery_type(rd: RootData, s_entries) -> bool:
    """Whether some (x, t, gamma) satisfies t^(gamma) = s^x with every t_i simple.

    Write y = x^-1 g, where g is the product of the t_j crossed before
    position i.  Entry i then forces t_i = pos(y^-1 s_i), which must be
    simple, and crossing t_i turns y into y t_i = s_i y.  The search keeps
    the set of every reachable y, starting from y = x^-1 for all x in W, so
    it decides the question without ever naming a certificate.
    """
    states = set(rd.weyl())
    for k in s_entries:
        states = {z for y in states if rd.is_simple(rd.pos(inv(y)[k]))
                  for z in (y, mul(rd.refl[k], y))}
        if not states:
            return False
    return True


def count_fixed_points(rd: RootData, entries, pairs, labels) -> int:
    """Galleries whose product over every pair (a, b) equals its label."""
    n = len(entries)
    ending = {b: (a, labels[(a, b)]) for a, b in pairs}
    prefix = [rd.identity] * (n + 1)

    def walk(i: int) -> int:
        if i > n:
            return 1
        total = 0
        for bit in (False, True):
            p = mul(prefix[i - 1], rd.refl[entries[i - 1]]) if bit else prefix[i - 1]
            if i in ending:
                a, label = ending[i]
                if mul(prefix[a - 1], label) != p:
                    continue
            prefix[i] = p
            total += walk(i + 1)
        return total

    return walk(1)


def full_product(rd: RootData, entries, bits) -> tuple[int, ...]:
    g = rd.identity
    for k, bit in zip(entries, bits):
        if bit:
            g = mul(g, rd.refl[k])
    return g


def morphism_holds(rd: RootData, src, tgt, p, w_perm, phi) -> bool:
    """Both defining equations of a folding morphism, at every gallery."""
    n = len(src)
    if len(phi) != 1 << n:
        return False
    for bits, image in phi.items():
        lhs = twisted(rd, tgt, image)
        rhs = twisted(rd, src, bits)
        for i in range(n):
            if lhs[p[i] - 1] != rd.pos(w_perm[rhs[i]]):
                return False
            folded = bits[:i] + (not bits[i],) + bits[i + 1:]
            j = p[i] - 1
            if phi.get(folded) != image[:j] + (not image[j],) + image[j + 1:]:
                return False
    return True


def morphisms(rd: RootData, src, tgt) -> set:
    """Keys (p, w, phi table) of every morphism src -> tgt, by exhaustive search.

    p runs over the increasing position maps, w over W, and phi over the
    tables the folding equation phi(f_i gamma) = f_p(i) phi(gamma) allows,
    one per image of the all-stay gallery.  A candidate is kept if
    `morphism_holds` accepts it.
    """
    n, nt = len(src), len(tgt)
    out = set()
    for p in combinations(range(1, nt + 1), n):
        for seed in product((False, True), repeat=nt):
            phi = {}
            for bits in product((False, True), repeat=n):
                image = list(seed)
                for i, bit in enumerate(bits):
                    if bit:
                        image[p[i] - 1] = not image[p[i] - 1]
                phi[bits] = tuple(image)
            table = tuple(sorted(phi.items()))
            out.update((p, w, table) for w in rd.weyl()
                       if morphism_holds(rd, src, tgt, p, w, phi))
    return out


def pointed_holds(rd: RootData, src, tgt, w_perm, phi, x_perm, xt_perm) -> bool:
    """x~ (phi(gamma)^max)^-1 = w x (gamma^max)^-1 w^-1 at every gallery."""
    winv = inv(w_perm)
    for bits, image in phi.items():
        lhs = mul(xt_perm, inv(full_product(rd, tgt, image)))
        rhs = mul(mul(mul(w_perm, x_perm), inv(full_product(rd, src, bits))), winv)
        if lhs != rhs:
            return False
    return True


def random_element(rd: RootData, rng) -> tuple[int, ...]:
    """A Weyl element as a random word in the simple reflections."""
    g = rd.identity
    for _ in range(rng.randint(0, 2 * len(rd.roots))):
        g = mul(g, rd.refl[rng.choice(rd.simple)])
    return g


def gallery_type_sequence(rd: RootData, rng, n: int) -> list[int]:
    """Positive roots of a sequence built to be of gallery type.

    Picks simple t, bits gamma and x, and returns s = (t^(gamma))^(x^-1), so
    (x, t, gamma) is a gallerification of s by construction.
    """
    t = [rng.choice(rd.simple) for _ in range(n)]
    bits = [rng.random() < 0.5 for _ in range(n)]
    xinv = inv(random_element(rd, rng))
    return [rd.pos(xinv[k]) for k in twisted(rd, t, bits)]
