"""Microbenchmarks for the gkm layer on a length-5 B2 sequence: generator,
concentrate, the concentration identity check, basis, combine and decompose;
a length-8 B2 basis; and a length-6 G2 basis and a rejected decomposition
there.

Run from the repository root:

    python -m pytest benchmarks/bench_gkm.py

Each round gets a fresh sequence object, so tables a sequence builds once
(bit patterns, prefix products) are rebuilt in every round.  Tier-1 does
not collect this file (`testpaths = ["tests"]`).
"""

import random
from fractions import Fraction
from itertools import combinations, product

from bscomb.errors import NotInSpanError
from bscomb.gallery import ReflSeq
from bscomb.gkm import (
    FPFunction,
    basis,
    combine,
    concentrate,
    concentration_identity_check,
    decompose,
    generator,
)
from bscomb.poly import Poly, root_poly
from bscomb.rootsys import build_root_system

RS = build_root_system("B", 2)
ROOTS = [r for r in RS.roots if r.is_positive]
ENTRIES = tuple(RS.reflection(ROOTS[k]) for k in (0, 2, 1, 3, 0))
LONG_ENTRIES = tuple(RS.reflection(ROOTS[k]) for k in (0, 2, 1, 3, 0, 2, 1, 3))
G2 = build_root_system("G", 2)
G2_ROOTS = [r for r in G2.roots if r.is_positive]
G2_ENTRIES = tuple(G2.reflection(G2_ROOTS[k]) for k in (0, 3, 1, 5, 2, 4))


def _seq():
    return ReflSeq(RS, ENTRIES)


def _poly(rng, top, span):
    return Poly.from_dict(RS.rank, {tuple(rng.randint(0, top) for _ in range(RS.rank)):
                                    Fraction(rng.randint(-span, span))})


def test_generator(benchmark):
    w = RS.simple_reflection(1) * RS.simple_reflection(2)
    c = root_poly(RS, ROOTS[1])
    benchmark.pedantic(generator, setup=lambda: ((_seq(), 3, w, c), {}), rounds=200)


def _truncated_values(seed):
    rng = random.Random(seed)
    return {b: _poly(rng, 2, 4) for b in product((False, True), repeat=len(ENTRIES) - 1)}


def test_concentrate(benchmark):
    values = _truncated_values(0)

    def setup():
        s = _seq()
        return (s, FPFunction(s.truncated(), values), True), {}

    benchmark.pedantic(concentrate, setup=setup, rounds=200)


def test_concentration_identity_check(benchmark):
    """Both sides of the identity for t = s_n, as the cohomology workload checks it."""
    values = _truncated_values(3)

    def setup():
        s = _seq()
        return (s, FPFunction(s.truncated(), values), True), {}

    assert benchmark.pedantic(concentration_identity_check, setup=setup, rounds=100)


def test_basis(benchmark):
    result = benchmark.pedantic(basis, setup=lambda: ((_seq(),), {}), rounds=20)
    assert len(result) == 2 ** len(ENTRIES)


def test_basis_b2_length_8(benchmark):
    # 3^8 = 6,561 nonzero values among the 4^8 = 65,536 (subset, gallery) entries
    result = benchmark.pedantic(basis, setup=lambda: ((ReflSeq(RS, LONG_ENTRIES),), {}),
                                rounds=10)
    assert len(result) == 2 ** len(LONG_ENTRIES)
    assert sum(len(col) for col in result.columns.values()) == 3 ** len(LONG_ENTRIES)


def _dense_coeffs(rng):
    """A nonzero coefficient for every subset, as in a decomposition."""
    n = len(ENTRIES)
    return {frozenset(c): _poly(rng, 1, 3) for k in range(n + 1)
            for c in combinations(range(1, n + 1), k)}


def test_combine(benchmark):
    elements = basis(_seq())
    coeffs = _dense_coeffs(random.Random(2))
    result = benchmark.pedantic(combine, args=(elements, coeffs), rounds=50)
    assert decompose(result, elements) == coeffs


def test_decompose(benchmark):
    coeffs = _dense_coeffs(random.Random(1))
    elements = basis(_seq())
    g = combine(elements, coeffs)
    result = benchmark.pedantic(decompose, args=(g, elements), rounds=20)
    assert result == coeffs


def test_basis_g2_length_6(benchmark):
    # G2's 12 roots make many equal values B_J(gamma) among the 4^6 entries
    result = benchmark.pedantic(basis, setup=lambda: ((ReflSeq(G2, G2_ENTRIES),), {}),
                                rounds=10)
    assert len(result) == 2 ** len(G2_ENTRIES)


def test_decompose_rejects_a_delta(benchmark):
    # the indicator of one gallery first fails at its support {2, 4, 5}
    s = ReflSeq(G2, G2_ENTRIES)
    elements = basis(s)
    one, zero = Poly.const(G2.rank, 1), Poly.zero(G2.rank)
    stop = (False, True, False, True, True, False)
    delta = FPFunction(s, {b: one if b == stop else zero for b in s.patterns})

    def rejected():
        try:
            decompose(delta, elements)
        except NotInSpanError as exc:
            return exc.subset
        return None

    assert benchmark.pedantic(rejected, rounds=50) == [2, 4, 5]
