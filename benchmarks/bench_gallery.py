"""Microbenchmarks for the gallery layer: the gallery-type search on a
positive and a negative B3 sequence, and the prefix tables of a length-10
B3 sequence.

Run from the repository root:

    python -m pytest benchmarks/bench_gallery.py

Tier-1 does not collect this file (`testpaths = ["tests"]`).
"""

import pytest

from bscomb import gallery
from bscomb.formats import parse_sequence
from bscomb.gallery import ReflSeq, is_gallery_type
from bscomb.rootsys import build_root_system

RS = build_root_system("B", 3)
SEARCH_CASES = {
    # a twisted simple sequence, conjugated: found from the 20th of 48 start chambers
    "positive-12": ("B3: s[0,1,2] s[1,1,0] s3 s[1,2,2] s[0,1,2] s3 s[1,2,2] s[1,1,2] "
                    "s[1,1,1] s2 s[1,1,2] s3", True),
    # at length 16 a walk restarted from every start chamber took seconds
    "negative-16": ("B3:" + " [0,0,1]" * 15 + " [0,1,1]", False),
}


def _fresh(text):
    """A new sequence object with an empty answer cache."""
    gallery._GALLERY_TYPE_CACHE.clear()
    return (parse_sequence(text),), {}


@pytest.mark.parametrize("name", SEARCH_CASES)
def test_is_gallery_type(benchmark, name):
    text, expected = SEARCH_CASES[name]
    cert = benchmark.pedantic(is_gallery_type, setup=lambda: _fresh(text), rounds=10)
    assert (cert is not None) == expected


def test_prefixes(benchmark):
    entries = parse_sequence("B3:" + " s1 [0,1,1] s3 [1,1,0] [1,2,2]" * 2).entries
    levels = benchmark.pedantic(lambda s: s.prefixes,
                                setup=lambda: ((ReflSeq(RS, entries),), {}), rounds=10)
    assert len(levels[-1]) == 2 ** 10
