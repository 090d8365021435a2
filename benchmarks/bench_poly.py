"""Microbenchmarks for the poly layer: products, the multiply-accumulate
`mul_add`, division by a linear form prepared on each call, exact division
by a product of linear forms prepared once (a lead value of degree 3 or 5)
and the Weyl action, on rank-2 (B2) and rank-3 (B3) inputs; and `mul_add`
at rank 30 (`MAX_RANK`), where a packed monomial is widest.

Run from the repository root:

    python -m pytest benchmarks/bench_poly.py

Tier-1 does not collect this file (`testpaths = ["tests"]`).
"""

import random
from fractions import Fraction

import pytest

from bscomb.errors import MAX_RANK
from bscomb.poly import (
    Poly,
    divide_linear,
    exact_divide,
    linear_divisor,
    mul_add,
    root_poly,
    weyl_act,
)
from bscomb.rootsys import build_root_system, enumerate_weyl

SYSTEMS = [("B", 2), ("B", 3)]


def _poly(rng, rank, terms=5, top=3):
    """Mostly integral coefficients, some halves and thirds, as in decompositions."""
    return Poly.from_dict(rank, {
        tuple(rng.randint(0, top) for _ in range(rank)):
            Fraction(rng.randint(-6, 6) or 1, rng.choice((1, 1, 1, 2, 3)))
        for _ in range(terms)})


def _cases(system, count=100):
    rng = random.Random(0)
    rs = build_root_system(*system)
    order = enumerate_weyl(rs)
    roots = [r for r in rs.roots if r.is_positive]
    return rs, [(_poly(rng, rs.rank), _poly(rng, rs.rank),
                 root_poly(rs, rng.choice(roots)), rng.choice(order))
                for _ in range(count)]


@pytest.mark.parametrize("system", SYSTEMS, ids=str)
def test_mul(benchmark, system):
    _, cases = _cases(system)
    benchmark(lambda: [p * q for p, q, _, _ in cases])


@pytest.mark.parametrize("system", SYSTEMS, ids=str)
def test_mul_add(benchmark, system):
    # one residue of a decomposition: a value less eight products
    _, cases = _cases(system)
    work = [(cases[k][0], [(p, q) for p, q, _, _ in cases[k + 1:k + 9]])
            for k in range(0, len(cases) - 8, 9)]
    benchmark(lambda: [mul_add(base, pairs, -1) for base, pairs in work])


def test_mul_add_rank30(benchmark):
    # the same residues in MAX_RANK variables: each monomial is one int of
    # 30 fields of 64 bits
    rng = random.Random(0)
    cases = [(_poly(rng, MAX_RANK), _poly(rng, MAX_RANK)) for _ in range(100)]
    work = [(cases[k][0], cases[k + 1:k + 9]) for k in range(0, len(cases) - 8, 9)]
    benchmark(lambda: [mul_add(base, pairs, -1) for base, pairs in work])


@pytest.mark.parametrize("system", SYSTEMS, ids=str)
def test_divide_linear(benchmark, system):
    _, cases = _cases(system)
    # half of the dividends are exact multiples of the divisor; each form is
    # validated and prepared inside the timed call, as one division needs
    work = [(p * ell if k % 2 else p, ell) for k, (p, _, ell, _) in enumerate(cases)]
    benchmark(lambda: [divide_linear(p, linear_divisor(ell)) for p, ell in work])


@pytest.mark.parametrize("degree", [3, 5], ids=lambda d: f"degree{d}")
@pytest.mark.parametrize("system", SYSTEMS, ids=str)
def test_exact_divide(benchmark, system, degree):
    # a decomposition step: a residue divided by a lead value, the product
    # of `degree` linear forms prepared once as a basis holds it (degree 5
    # is the lead value of a 5-subset); half the residues divide
    _, cases = _cases(system)
    work = []
    for n, k in enumerate(range(0, len(cases) - degree, degree + 1)):
        divisor = None
        for j in range(1, degree + 1):
            divisor = linear_divisor(cases[k + j][2], divisor)
        p = cases[k][0] * divisor.product
        work.append((p + cases[k][1] if n % 2 else p, divisor))
    quotients = benchmark(lambda: [exact_divide(p, divisor) for p, divisor in work])
    assert sum(q is None for q in quotients) == len(work) // 2


@pytest.mark.parametrize("system", SYSTEMS, ids=str)
def test_weyl_act(benchmark, system):
    _, cases = _cases(system)
    benchmark(lambda: [weyl_act(w, p) for p, _, _, w in cases])
