"""Microbenchmarks for the gallery layer: the gallery-type decision on a
positive and a negative B3 sequence and on a negative length-9 D4 sequence,
that D4 decision as the first call on a new system, the check of the
positive B3 certificate alone, and the prefix tables of a length-10 B3
sequence.

Run from the repository root:

    python -m pytest benchmarks/bench_gallery.py

Tier-1 does not collect this file (`testpaths = ["tests"]`).
"""

import pytest

from bscomb.formats import parse_sequence
from bscomb.gallery import ReflSeq, _attached, is_gallery_type, verify_gallerification
from bscomb.rootsys import RootSystem, build_root_system, enumerate_weyl

RS = build_root_system("B", 3)
SEARCH_CASES = {
    # a twisted simple sequence, conjugated: found from the 20th of 48 start chambers
    "positive-12": ("B3: s[0,1,2] s[1,1,0] s3 s[1,2,2] s[0,1,2] s3 s[1,2,2] s[1,1,2] "
                    "s[1,1,1] s2 s[1,1,2] s3", True),
    # at length 16 a walk restarted from every start chamber took seconds
    "negative-16": ("B3:" + " [0,0,1]" * 15 + " [0,1,1]", False),
}
# not of gallery type; negative D4 answers at certify's longest length, 9,
# set its item tail, and this one was the slowest of 3,000 random draws
# for the depth-first search that the backward pass replaced
TAIL_CASE = ("D4: [0,1,0,1] [0,1,0,1] [1,1,0,0] [0,1,1,0] [0,1,0,1] [1,1,0,0] "
             "[1,1,0,1] [0,1,1,1] [0,1,1,1]")


def _cold(text):
    """The sequence over a new root system, with nothing built."""
    s = parse_sequence(text)
    rs = RootSystem(s.rs.family, s.rs.rank)
    return (ReflSeq(rs, tuple(rs.reflections[t.index] for t in s.entries)),), {}


def _fresh(text):
    """The sequence over a new root system, whose Weyl group with the
    right-simple table, reflection permutations and attached-chamber
    tables of every reflection are built untimed, so the pass alone is
    timed."""
    (s,), _ = _cold(text)
    enumerate_weyl(s.rs)
    for t in s.rs.reflections:
        t.as_weyl()
        _attached(s.rs, t.index)
    return (s,), {}


@pytest.mark.parametrize("name", SEARCH_CASES)
def test_is_gallery_type(benchmark, name):
    text, expected = SEARCH_CASES[name]
    cert = benchmark.pedantic(is_gallery_type, setup=lambda: _fresh(text), rounds=10)
    assert (cert is not None) == expected


def test_is_gallery_type_negative_d4(benchmark):
    cert = benchmark.pedantic(is_gallery_type, setup=lambda: _fresh(TAIL_CASE),
                              rounds=50)
    assert cert is None


def test_is_gallery_type_negative_d4_cold(benchmark):
    # the first call on a new system also enumerates W and builds the
    # attached tables of the sequence's reflections
    cert = benchmark.pedantic(is_gallery_type, setup=lambda: _cold(TAIL_CASE), rounds=20)
    assert cert is None


def test_verify_gallerification(benchmark):
    # the check is_gallery_type runs on each certificate before returning it
    s = parse_sequence(SEARCH_CASES["positive-12"][0])
    cert = is_gallery_type(s)
    assert benchmark(verify_gallerification, s, cert) is None


def test_prefixes(benchmark):
    entries = parse_sequence("B3:" + " s1 [0,1,1] s3 [1,1,0] [1,2,2]" * 2).entries
    levels = benchmark.pedantic(lambda s: s.prefixes,
                                setup=lambda: ((ReflSeq(RS, entries),), {}), rounds=10)
    assert len(levels[-1]) == 2 ** 10
