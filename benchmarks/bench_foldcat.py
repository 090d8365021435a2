"""Microbenchmarks for the foldcat layer on A2 and B2: verify_morphism,
enumerate_morphisms and verify_pointed, from a length-2 source into a
length-3 target; compose of that morphism after the embedding of s1 into
the source, and after that embedding with its all-stay image flipped at
p(1), which the composite's folding equation refuses (as the `morphisms`
workload builds both); and enumerate_morphisms into a long target, B3
s1 s2 into s1 s2 s3 s1 s2 s3 s1 s2 (5,728 morphisms).

Run from the repository root:

    python -m pytest benchmarks/bench_foldcat.py

Each round gets fresh sequence objects, so the tables a sequence builds
once (bit patterns, prefix products) are rebuilt in every round, except for
verify_pointed, whose round verifies the morphism untimed first and so
times the pointed condition alone, and compose, whose round builds the
two morphisms, and so their sequences' tables, untimed first.  Tier-1
does not collect this file (`testpaths = ["tests"]`).
"""

import pytest

from bscomb.errors import VerificationError
from bscomb.foldcat import (
    Morphism,
    PointedMorphism,
    compose,
    enumerate_morphisms,
    subsequence_morphism,
    verify_morphism,
    verify_pointed,
)
from bscomb.gallery import ReflSeq
from bscomb.rootsys import build_root_system

SYSTEMS = [("A", 2), ("B", 2)]


def _pair(rs):
    """A source (s1 s2) and a target (s1 s2 s1) with morphisms between them."""
    s1, s2 = (rs.reflection(a) for a in rs.simple_roots)
    return ReflSeq(rs, (s1, s2)), ReflSeq(rs, (s1, s2, s1))


def _morphism(rs):
    """A fresh, unverified copy of the last morphism enumerated."""
    source, target = _pair(rs)
    m = enumerate_morphisms(*_pair(rs))[-1]
    return Morphism(source, target, m.p, m.w, dict(m.phi))


@pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: "".join(map(str, s)))
def test_verify_morphism(benchmark, system):
    rs = build_root_system(*system)
    result = benchmark.pedantic(verify_morphism, setup=lambda: ((_morphism(rs),), {}),
                                rounds=200)
    assert result is None


@pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: "".join(map(str, s)))
def test_enumerate_morphisms(benchmark, system):
    rs = build_root_system(*system)
    result = benchmark.pedantic(enumerate_morphisms, setup=lambda: (_pair(rs), {}),
                                rounds=10)
    assert result


@pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: "".join(map(str, s)))
def test_verify_pointed(benchmark, system):
    rs = build_root_system(*system)
    x = rs.simple_reflection(1)

    def setup():
        m = _morphism(rs)
        assert verify_morphism(m) is None
        image = rs.identity()
        for t, bit in zip(m.target.entries, m.phi[(False,) * len(m.source)]):
            if bit:
                image = image * t.as_weyl()
        # x~ fitted at the all-stay gallery, so every gallery is checked
        return (PointedMorphism(m, x, m.w * x * m.w.inv() * image),), {}

    assert benchmark.pedantic(verify_pointed, setup=setup, rounds=200) is None


def _compose_args(rs, mutate):
    """(outer, inner): the last morphism of _pair after the embedding of s1
    at p = (1,), that embedding's all-stay image flipped at p(1) if mutate."""
    source, target = _pair(rs)
    outer = enumerate_morphisms(source, target)[-1]
    inner = subsequence_morphism(ReflSeq(rs, source.entries[:1]), source, (1,))
    if mutate:
        phi = dict(inner.phi)
        phi[(False,)] = (not phi[(False,)][0],) + phi[(False,)][1:]
        inner = Morphism(inner.source, source, inner.p, inner.w, phi)
    return (outer, inner), {}


def _compose_refused(outer, inner):
    try:
        compose(outer, inner)
    except VerificationError:
        return True
    return False


@pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: "".join(map(str, s)))
def test_compose(benchmark, system):
    rs = build_root_system(*system)
    result = benchmark.pedantic(compose, setup=lambda: _compose_args(rs, False), rounds=200)
    assert result.verified


@pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: "".join(map(str, s)))
def test_compose_refused(benchmark, system):
    rs = build_root_system(*system)
    assert benchmark.pedantic(_compose_refused, setup=lambda: _compose_args(rs, True),
                              rounds=200)


def test_enumerate_morphisms_long_target(benchmark):
    rs = build_root_system("B", 3)
    s1, s2, s3 = (rs.reflection(a) for a in rs.simple_roots)

    def setup():
        return (ReflSeq(rs, (s1, s2)), ReflSeq(rs, (s1, s2, s3) * 2 + (s1, s2))), {}

    result = benchmark.pedantic(enumerate_morphisms, setup=setup, rounds=3)
    assert len(result) == 5728
