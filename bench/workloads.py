"""The three library workloads: seeded inputs, one timed call per item, checks.

Each workload yields its inputs in rounds.  A round holds a fixed mix of
item kinds and root systems, so every seed and every run length sees the
same proportions; the seed only changes the concrete sequences.  `run` is
the timed part of an item.  `check` runs untimed right after it, compares
the answer with `oracle` (which does not use the library), and returns the
text that goes into the answer digest.  Checks use no library function
that fills a cache the timed calls read.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import oracle
from bscomb.errors import NotInSpanError, VerificationError
from bscomb.foldcat import (
    Morphism,
    PointedMorphism,
    compose,
    enumerate_morphisms,
    subsequence_morphism,
    verify_pointed,
)
from bscomb.gallery import Gallery, ReflSeq, is_gallery_type, prefix
from bscomb.gkm import (
    FPFunction,
    basis,
    combine,
    concentration_identity_check,
    decompose,
    induced_map,
)
from bscomb.nested import (
    FSelection,
    NestedPlan,
    factor_fixed_points,
    is_gallery_type_pair,
    restricted_seq,
)
from bscomb.poly import Poly
from bscomb.rootsys import Root, enumerate_weyl

def _bits_text(bits) -> str:
    return "".join("1" if b else "0" for b in bits) or "-"


def _seq_text(s: ReflSeq) -> str:
    return f"{s.rs}:" + " ".join(",".join(map(str, t.root.coords)) for t in s.entries)


class _Workload:
    """Shared plumbing: root systems, their oracles, and sequence helpers."""

    lengths: tuple[int, int]

    def __init__(self, seed: int, systems: list):
        self.rng = random.Random(seed)
        self.systems = systems
        self.rd = {rs: oracle.RootData(rs.family, rs.rank) for rs in systems}
        self.refls = {rs: [rs.reflection(r) for r in rs.roots if r.is_positive]
                      for rs in systems}

    def random_seq(self, rs, n: int) -> ReflSeq:
        return ReflSeq(rs, tuple(self.rng.choice(self.refls[rs]) for _ in range(n)))

    def seq_from_oracle(self, rs, roots) -> ReflSeq:
        rd = self.rd[rs]
        return ReflSeq(rs, tuple(rs.reflection(Root(rd.coords[k])) for k in roots))

    def oracle_entries(self, s: ReflSeq) -> list[int]:
        return [self.rd[s.rs].root_of(t.root.coords) for t in s.entries]

    def sizes(self) -> dict:
        return {"n": list(self.lengths),
                "W": {str(rs): len(enumerate_weyl(rs)) for rs in self.systems}}


class Certify(_Workload):
    """Gallery-type decisions and nested-plan checks in A3, B3, A4 and D4.

    A round holds, per root system, one sequence of each length 4..9 built
    to be of gallery type, two uniform random sequences of each length
    (mostly not of gallery type once n >= 6), three nested plans of
    rotating length, and four repeats of earlier sequences, which the
    gallery-type cache answers.  Every round has the same mix.
    """

    lengths = (4, 9)

    def __init__(self, seed, systems):
        super().__init__(seed, systems)
        self.history: list[ReflSeq] = []
        self.plan_length = self.lengths[0]

    def rounds(self):
        rng = self.rng
        lo, hi = self.lengths
        while True:
            batch = []
            for rs in self.systems:
                rd = self.rd[rs]
                for n in range(lo, hi + 1):
                    batch.append(("decide", self.seq_from_oracle(
                        rs, oracle.gallery_type_sequence(rd, rng, n))))
                    batch += [("decide", self.random_seq(rs, n)) for _ in range(2)]
                for _ in range(3):
                    batch.append(("plan", self.random_plan(rs, self.plan_length)))
                    self.plan_length = lo + (self.plan_length + 1 - lo) % (hi - lo + 1)
            self.history.extend(s for kind, s in batch if kind == "decide")
            batch += [("decide", rng.choice(self.history)) for _ in range(4 * len(self.systems))]
            rng.shuffle(batch)
            yield batch

    def random_plan(self, rs, n: int):
        """A nested plan of length n whose labels are products of one random
        gallery, so its constrained gallery set is never empty, and a
        selection F."""
        rng = self.rng
        s = self.random_seq(rs, n)
        bits = [rng.random() < 0.5 for _ in range(n)]
        pairs, used = [], set()
        for _ in range(rng.randint(1, 3)):
            a = rng.randint(1, n)
            b = rng.randint(a, n)
            if {a, b} & used:
                continue
            if all(b < c or d < a or (c <= a and b <= d) or (a <= c and d <= b)
                   for c, d in pairs):
                pairs.append((a, b))
                used.update((a, b))
        labels = {}
        for a, b in pairs:
            w = rs.identity()
            for i in range(a, b + 1):
                if bits[i - 1]:
                    w = w * s[i].as_weyl()
            labels[(a, b)] = w
        plan = NestedPlan(s, tuple(pairs), labels)
        disjoint = [sel for k in range(1, len(plan.pairs) + 1)
                    for sel in combinations(plan.pairs, k)
                    if all(f[1] < g[0] or g[1] < f[0] for f, g in combinations(sel, 2))]
        return plan, FSelection(rng.choice(disjoint))

    def run(self, item):
        kind, data = item
        if kind == "decide":
            return is_gallery_type(data)
        plan, F = data
        cert = factor_fixed_points(plan, F)
        base = is_gallery_type_pair(cert.base_plan)
        fibres = [is_gallery_type_pair(fp) for fp in cert.fibre_plans]
        return cert, base, fibres

    def _cert_text(self, s: ReflSeq, cert) -> str | None:
        """Digest text of a gallery-type answer, or None if the oracle rejects
        it: a certificate that fails t^(gamma) = s^x, or "not of gallery
        type" for a sequence the oracle finds a gallerification of."""
        rd = self.rd[s.rs]
        if cert is None:
            return None if oracle.gallery_type(rd, self.oracle_entries(s)) else "none"
        if not oracle.certificate_holds(rd, self.oracle_entries(s), rd.from_matrix(cert.x.matrix),
                                        self.oracle_entries(cert.t), cert.gamma.bits):
            return None
        return f"{cert.x.matrix}|{_seq_text(cert.t)}|{_bits_text(cert.gamma.bits)}"

    def check(self, item, answer):
        kind, data = item
        if kind == "decide":
            text = self._cert_text(data, answer)
            return text is not None, f"decide {_seq_text(data)} {text}", None
        plan, F = data
        cert, base, fibres = answer
        rs = plan.seq.rs
        rd = self.rd[rs]

        def count(p):
            labels = {r: rd.from_matrix(w.matrix) for r, w in p.labels.items()}
            return oracle.count_fixed_points(rd, self.oracle_entries(p.seq), p.pairs, labels)

        product = count(cert.base_plan)
        for fp in cert.fibre_plans:
            product *= count(fp)
        ok = cert.count == count(plan) == product
        parts = [f"plan {_seq_text(plan.seq)} {plan.pairs} F={F.pairs} count={cert.count}"]
        for p, (verdict, certs) in zip((cert.base_plan, *cert.fibre_plans), (base, *fibres)):
            ok = ok and verdict == all(c is not None for c in certs.values())
            for r in p.pairs:
                text = self._cert_text(restricted_seq(p, r), certs[r])
                ok = ok and text is not None
                parts.append(f"{r}:{text}")
        return ok, " ".join(parts), None


def _random_poly(rng, nvars: int, top: int, span: int) -> Poly:
    return Poly.from_dict(nvars, {tuple(rng.randint(0, top) for _ in range(nvars)):
                                  Fraction(rng.randint(-span, span))})


class Cohomology(_Workload):
    """Basis, concentration identity, round trip and rejection in A2, B2, G2.

    A round holds, per root system, lengths 3, 3, 4, 4, 5, 6.  The weights
    put the median and the tail percentiles inside one length class rather
    than on the boundary between two.
    """

    lengths = (3, 6)
    round_lengths = (3, 3, 4, 4, 5, 6)

    def rounds(self):
        rng = self.rng
        while True:
            batch = []
            for rs in self.systems:
                for n in self.round_lengths:
                    s = self.random_seq(rs, n)
                    g = {b: _random_poly(rng, rs.rank, 2, 4) for b in _all_bits(n - 1)}
                    coeffs = {J: _random_poly(rng, rs.rank, 1, 3) for J in _all_subsets(n)}
                    indicator = tuple(rng.random() < 0.5 for _ in range(n))
                    batch.append((s, g, coeffs, indicator))
            rng.shuffle(batch)
            yield batch

    def run(self, item):
        s, g_values, coeffs, indicator = item
        elements = basis(s)
        g = FPFunction(s.truncated(), g_values)
        identity = (concentration_identity_check(s, g, False),
                    concentration_identity_check(s, g, True))
        recovered = decompose(combine(elements, coeffs), elements)
        one, zero = Poly.const(s.rs.rank, 1), Poly.zero(s.rs.rank)
        delta = FPFunction(s, {b: one if b == indicator else zero for b in _all_bits(len(s))})
        try:
            decompose(delta, elements)
            rejected = None
        except NotInSpanError as exc:
            rejected = list(exc.subset)
        return len(elements), identity, recovered, rejected

    def check(self, item, answer):
        s, _, coeffs, indicator = item
        size, identity, recovered, rejected = answer
        # The basis is triangular with nonconstant leading values, so a
        # delta function first fails at the support of its gallery (at {1}
        # when that support is empty).
        support = [i for i, b in enumerate(indicator, start=1) if b] or [1]
        ok = (size == 2 ** len(s) and identity == (True, True)
              and recovered == coeffs and rejected == support)
        return ok, f"{_seq_text(s)} {size} {identity} {rejected}", None


def _all_bits(n: int):
    if n == 0:
        return [()]
    return [b + (x,) for b in _all_bits(n - 1) for x in (False, True)]


def _all_subsets(n: int):
    return [frozenset(c) for k in range(n + 1) for c in combinations(range(1, n + 1), k)]


class Morphisms(_Workload):
    """Morphism enumeration between short sequences in A1, A2 and B2.

    Per root system a round holds one pair of each shape (source length,
    target length) in (1, 2), (1, 3), (2, 2), (2, 3).
    """

    lengths = (1, 3)
    shapes = ((1, 2), (1, 3), (2, 2), (2, 3))

    def rounds(self):
        rng = self.rng
        while True:
            batch = []
            for rs in self.systems:
                order = len(enumerate_weyl(rs))
                for n, nt in self.shapes:
                    source, target = self.random_seq(rs, n), self.random_seq(rs, nt)
                    p = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, n))))
                    batch.append((source, target, p, rng.randrange(order),
                                  rng.randrange(1 << nt)))
            rng.shuffle(batch)
            yield batch

    def run(self, item):
        source, target, p, x_index, class_index = item
        rs = source.rs
        found = enumerate_morphisms(source, target)
        x = enumerate_weyl(rs)[x_index]
        sub = ReflSeq(rs, tuple(source[j] for j in p))
        inner = subsequence_morphism(sub, source, p)
        # Flip the image of the all-stay gallery at p(1): the folding
        # equation then fails there, so every composite through it is invalid.
        zero = (False,) * len(sub)
        phi = dict(inner.phi)
        phi[zero] = tuple(not b if k == p[0] - 1 else b for k, b in enumerate(phi[zero]))
        mutated = Morphism(sub, source, p, inner.w, phi)
        results = []
        for m in found:
            start = Gallery(target, m.phi[(False,) * len(source)])
            x_target = m.w * x * m.w.inv() * prefix(start, len(target))
            pointed = verify_pointed(PointedMorphism(m, x, x_target))
            composite = compose(m, inner)
            try:
                compose(m, mutated)
                mutated_rejected = False
            except VerificationError:
                mutated_rejected = True
            results.append((m, x_target, pointed, composite, mutated_rejected))
        pullback = None
        if found:
            target_class = basis(target)[class_index].function
            source_basis = basis(source)
            g = induced_map(found[0], target_class)
            pullback = (g, source_basis, decompose(g, source_basis))
        return found, x, results, pullback

    def check(self, item, answer):
        source, target, *_ = item
        found, x, results, pullback = answer
        rd = self.rd[source.rs]
        src, tgt = self.oracle_entries(source), self.oracle_entries(target)
        x_perm = rd.from_matrix(x.matrix)
        keys = [(m.p, rd.from_matrix(m.w.matrix), tuple(sorted(m.phi.items()))) for m in found]
        ok = len(set(keys)) == len(keys) and set(keys) == oracle.morphisms(rd, src, tgt)
        mutated_kept = 0
        texts = []
        for m, x_target, pointed, composite, mutated_rejected in results:
            w = rd.from_matrix(m.w.matrix)
            ok = ok and m.verified and oracle.morphism_holds(rd, src, tgt, m.p, w, m.phi)
            ok = ok and pointed is None and oracle.pointed_holds(
                rd, src, tgt, w, m.phi, x_perm, rd.from_matrix(x_target.matrix))
            sub = self.oracle_entries(composite.source)
            ok = ok and composite.verified and oracle.morphism_holds(
                rd, sub, tgt, composite.p, rd.from_matrix(composite.w.matrix), composite.phi)
            mutated_kept += not mutated_rejected
            texts.append(f"{m.p}{m.w.matrix}{sorted(m.phi.items())}")
        if pullback is not None:
            g, source_basis, coeffs = pullback
            ok = ok and combine(source_basis, coeffs).values == g.values
        probe = (len(results), mutated_kept)
        return ok, f"{_seq_text(source)}>{_seq_text(target)} {len(found)} {texts}", probe


WORKLOADS = {"certify": Certify, "cohomology": Cohomology, "morphisms": Morphisms}
