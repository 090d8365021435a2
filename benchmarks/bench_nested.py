"""Microbenchmarks for the nested layer: fixed_points and
factor_fixed_points on the SL5 plan (length 10, pairs (1, 10) and (2, 6)),
on a length-16 A4 plan with the single pair (3, 14), on a length-9 D4 plan
with the pair (8, 9) shaped like the plan items that set the `certify`
item tail (128 of its 512 galleries satisfy it), and on the length-20 A4
plan with the single pair (1, 20), where a level is wider than the sweep
keeps at once; project along (2, 6) and restricted_seq at (1, 10), the two
uses of the one contraction, on the SL5 plan.

Run from the repository root:

    python -m pytest benchmarks/bench_nested.py

Tier-1 does not collect this file (`testpaths = ["tests"]`).
"""

import pytest

from bscomb.formats import parse_sequence, parse_weyl
from bscomb.nested import (
    FSelection,
    NestedPlan,
    factor_fixed_points,
    fixed_points,
    project,
    restricted_seq,
)


def _plan(sequence, labels):
    """A plan from a sequence document and {pair: Weyl word}."""
    seq = parse_sequence(sequence)
    return NestedPlan(seq, tuple(labels),
                      {r: parse_weyl(seq.rs, w) for r, w in labels.items()})


PLANS = {
    "sl5": _plan("A4: s4 s1 s2 s1 s2 s1 s3 s4 s3 s4",
                 {(1, 10): "s2 s3 s4", (2, 6): "s2"}),
    "len16": _plan("A4:" + " s1 s2 s3 s4" * 4, {(3, 14): "e"}),
    "d4tail": _plan("D4: s[0,1,1,0] s[0,1,1,1] s4 s3 s1 s[1,1,0,1] s4 s[1,1,0,1] s[0,1,0,1]",
                    {(8, 9): "s1 s2 s4 s2 s1"}),
    "len20": _plan("A4:" + " s1 s2 s3 s4" * 5, {(1, 20): "e"}),
}
SELECTIONS = {"sl5": [(2, 6)], "len16": [(3, 14)], "d4tail": [(8, 9)], "len20": [(1, 20)]}


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
