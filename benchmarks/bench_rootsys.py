"""Microbenchmarks for the rootsys layer: Weyl product, inverse, conjugation,
reflection lookup, group enumeration and the attached-chamber tables of
every reflection on A5 (|W| = 720, 30 roots).

Run from the repository root:

    python -m pytest benchmarks/bench_rootsys.py

Tier-1 does not collect this file (`testpaths = ["tests"]`).
"""

import random

import pytest

from bscomb.rootsys import RootSystem, attached, conjugate_reflection, enumerate_weyl


@pytest.fixture
def a5():
    return RootSystem("A", 5)


def _pairs(rs, count=200):
    rng = random.Random(0)
    order = enumerate_weyl(rs)
    return [(rng.choice(order), rng.choice(order)) for _ in range(count)]


def test_product(benchmark, a5):
    pairs = _pairs(a5)
    benchmark(lambda: [u * v for u, v in pairs])


def test_inverse(benchmark, a5):
    elements = [u for u, _ in _pairs(a5)]
    benchmark(lambda: [u.inv() for u in elements])


def test_conjugate_reflection(benchmark, a5):
    rng = random.Random(1)
    refls = [a5.reflection(r) for r in a5.roots if r.is_positive]
    cases = [(u, rng.choice(refls)) for u, _ in _pairs(a5)]
    benchmark(lambda: [conjugate_reflection(u, t) for u, t in cases])


def test_reflection_lookup(benchmark, a5):
    roots = list(a5.roots)
    benchmark(lambda: [a5.reflection(r) for r in roots])


def test_enumerate_weyl(benchmark):
    # a fresh root system each round, so the cached group is never reused
    result = benchmark.pedantic(enumerate_weyl, setup=lambda: ((RootSystem("A", 5),), {}),
                                rounds=10)
    assert len(result) == 720


def _enumerated():
    """A fresh A5 whose Weyl group and right-simple table are built, and nothing else."""
    rs = RootSystem("A", 5)
    enumerate_weyl(rs)
    return (rs,), {}


def test_attached_tables_cold(benchmark):
    # every reflection's table of attached chambers and their partners across
    # its wall, each built on first use: 15 tables of 720 * 5 / 15 = 240 chambers
    tables = benchmark.pedantic(
        lambda rs: [attached(rs, r) for r in sorted(set(rs.reflection_index))],
        setup=_enumerated, rounds=10)
    assert len(tables) == 15 and all(len(t) == 240 for t in tables)
