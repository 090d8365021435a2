"""Microbenchmarks for the nested layer: fixed_points and
factor_fixed_points on the SL5 plan (length 10, pairs (1, 10) and (2, 6))
and on a length-16 A4 plan with the single pair (3, 14); project along
(2, 6) and restricted_seq at (1, 10), the two uses of the one contraction,
on the SL5 plan.

Run from the repository root:

    python -m pytest benchmarks/bench_nested.py

Tier-1 does not collect this file (`testpaths = ["tests"]`).
"""

import pytest

from bscomb.gallery import ReflSeq
from bscomb.nested import (
    FSelection,
    NestedPlan,
    factor_fixed_points,
    fixed_points,
    project,
    restricted_seq,
)
from bscomb.rootsys import build_root_system

RS = build_root_system("A", 4)


def _word(*letters):
    w = RS.identity()
    for i in letters:
        w = w * RS.simple_reflection(i)
    return w


def _seq(*letters):
    return ReflSeq(RS, tuple(RS.reflection(RS.simple_roots[i - 1]) for i in letters))


PLANS = {
    "sl5": NestedPlan(_seq(4, 1, 2, 1, 2, 1, 3, 4, 3, 4), ((1, 10), (2, 6)),
                      {(1, 10): _word(2, 3, 4), (2, 6): _word(2)}),
    "len16": NestedPlan(_seq(*[1, 2, 3, 4] * 4), ((3, 14),), {(3, 14): RS.identity()}),
}
SELECTIONS = {"sl5": [(2, 6)], "len16": [(3, 14)]}


@pytest.mark.parametrize("name", PLANS)
def test_fixed_points(benchmark, name):
    result = benchmark.pedantic(fixed_points, args=(PLANS[name],), rounds=10)
    assert result


@pytest.mark.parametrize("name", PLANS)
def test_factor_fixed_points(benchmark, name):
    plan = PLANS[name]
    F = FSelection.of(plan, SELECTIONS[name])
    cert = benchmark.pedantic(factor_fixed_points, args=(plan, F), rounds=5)
    assert cert.count == len(fixed_points(plan))


def test_project(benchmark):
    plan = PLANS["sl5"]
    F = FSelection.of(plan, SELECTIONS["sl5"])
    base = benchmark(project, plan, F)
    assert len(base.seq) == 5 and base.pairs == ((1, 5),)


def test_restricted_seq(benchmark):
    s = benchmark(restricted_seq, PLANS["sl5"], (1, 10))
    assert len(s) == 5
