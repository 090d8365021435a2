"""The resource bounds: one table in `errors`, one refusal on every entry point."""

import json
import os
import re
from itertools import count
from math import factorial

import pytest

from bscomb import errors
from bscomb.cli import main
from bscomb.errors import ResourceLimitError
from bscomb.foldcat import enumerate_morphisms
from bscomb.gkm import basis
from bscomb.nested import NestedPlan, fixed_points
from bscomb.poly import Poly, divide_linear, linear_divisor
from bscomb.rootsys import RootSystem, build_root_system, enumerate_weyl

from conftest import simple_seq

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "bscomb")
LOOSE = ["--max-weyl", str(10 ** 9), "--max-length", "1000"]

RANK = errors.MAX_RANK + 1
WEYL_RANK = next(r for r in count(1) if factorial(r + 1) > errors.MAX_WEYL)
LENGTH = errors.MAX_LENGTH + 1
BASIS_LENGTH = errors.MAX_BASIS_LENGTH + 1
MORPHISM_LENGTH = errors.MAX_MORPHISM_LENGTH + 1
TERMS = errors.MAX_TERMS + 1
# s1 into s1^12 in A1: every position p, both w and every seed are
# candidates, each verified over the 2 galleries of s1
CANDIDATE_GALLERIES = errors.MAX_MORPHISM_LENGTH * 2 * 2 ** errors.MAX_MORPHISM_LENGTH * 2


def a1_seq(n):
    return simple_seq(build_root_system("A", 1), *[1] * n)


# bound, the refusal's subject and value, a library call and a CLI command
# over the bound, and a tighter CLI flag with the refusal it brings
CASES = [
    (errors.MAX_RANK, "rank", RANK, lambda: RootSystem("A", RANK),
     ["weyl", "info", "--root-system", f"A{RANK}"],
     # there is no rank flag, and rank is refused before |W| is computed
     (["--max-weyl", "1"], f"rank {RANK} exceeds bound {errors.MAX_RANK}")),
    (errors.MAX_WEYL, "|W| =", factorial(WEYL_RANK + 1),
     lambda: enumerate_weyl(RootSystem("A", WEYL_RANK)),
     ["weyl", "info", "--root-system", f"A{WEYL_RANK}"],
     (["--max-weyl", "1"], f"|W| = {factorial(WEYL_RANK + 1)} exceeds bound 1")),
    (errors.MAX_LENGTH, "sequence length", LENGTH,
     lambda: fixed_points(NestedPlan(a1_seq(LENGTH), ())),
     ["fixed-points", json.dumps({"root_system": "A1", "sequence": "s1 " * LENGTH,
                                  "pairs": [], "labels": {}})],
     (["--max-length", "1"], f"sequence length {LENGTH} exceeds bound 1")),
    (errors.MAX_BASIS_LENGTH, "basis sequence length", BASIS_LENGTH,
     lambda: basis(a1_seq(BASIS_LENGTH)),
     ["basis", "A1:" + " s1" * BASIS_LENGTH],
     (["--max-length", "1"], f"sequence length {BASIS_LENGTH} exceeds bound 1")),
    (errors.MAX_MORPHISM_LENGTH, "morphism sequence length", MORPHISM_LENGTH,
     lambda: enumerate_morphisms(a1_seq(1), a1_seq(MORPHISM_LENGTH)),
     ["morphism", "enumerate", "A1: s1", "A1:" + " s1" * MORPHISM_LENGTH],
     (["--max-length", "1"], f"sequence length {MORPHISM_LENGTH} exceeds bound 1")),
    (errors.MAX_CANDIDATE_GALLERIES, "morphism candidate galleries", CANDIDATE_GALLERIES,
     lambda: enumerate_morphisms(a1_seq(1), a1_seq(errors.MAX_MORPHISM_LENGTH)),
     ["morphism", "enumerate", "A1: s1", "A1:" + " s1" * errors.MAX_MORPHISM_LENGTH],
     (["--max-length", "1"],
      f"sequence length {errors.MAX_MORPHISM_LENGTH} exceeds bound 1")),
    # w2^N over a linear form with pivot w2 gains one quotient term per
    # pivot degree, N in all
    (errors.MAX_TERMS, "polynomial terms", TERMS,
     lambda: divide_linear(Poly.from_dict(2, {(0, TERMS): 1}),
                           linear_divisor(Poly.linear(2, [-1, 2]))),
     ["decompose", "A2: s2", json.dumps({"values": {"0": "0", "1": f"w2^{TERMS}"}})],
     # there is no term flag, and --max-length 1 admits the sequence
     (["--max-length", "1"], f"polynomial terms {TERMS} exceeds bound {errors.MAX_TERMS}")),
]


@pytest.mark.parametrize("bound, what, value, call, argv, tight", CASES,
                         ids=["rank", "weyl", "length", "basis-length", "morphism-length",
                              "candidates", "terms"])
def test_each_bound_refuses_alike(capsys, bound, what, value, call, argv, tight):
    message = f"{what} {value} exceeds bound {bound}"
    with pytest.raises(ResourceLimitError) as info:
        call()
    assert str(info.value) == message
    # the CLI flags can tighten a bound but never loosen it
    for flags, expected in ((LOOSE, message), tight):
        assert main(flags + argv) == 3, flags
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", f"error: {expected}\n")


def test_bounds_have_one_source():
    # each MAX_* is assigned, and ResourceLimitError raised, in errors alone
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                text = fh.read()
            owner = name == "errors.py"
            assert bool(re.search(r"^MAX_\w+ =", text, re.M)) == owner, name
            assert text.count("raise ResourceLimitError") == owner, name
