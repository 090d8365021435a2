import pytest

from bscomb.gallery import ReflSeq
from bscomb.rootsys import build_root_system


def positive_root(root):
    """The sign rule, independent of the reflection table: flip a root whose
    first nonzero coordinate is negative."""
    return root if next(c for c in root.coords if c) > 0 else -root


def simple_seq(rs, *letters):
    """A sequence of simple reflections from 1-based letters."""
    return ReflSeq(rs, tuple(rs.reflection(rs.simple_roots[i - 1])
                             for i in letters))


def all_seqs(rs, length):
    """Every sequence of reflections of exactly `length` over rs."""
    from itertools import product
    refls = [rs.reflection(r) for r in rs.roots if r.is_positive]
    return [ReflSeq(rs, entries) for entries in product(refls, repeat=length)]


@pytest.fixture(scope="session")
def a1():
    return build_root_system("A", 1)


@pytest.fixture(scope="session")
def a2():
    return build_root_system("A", 2)


@pytest.fixture(scope="session")
def a3():
    return build_root_system("A", 3)


@pytest.fixture(scope="session")
def b2():
    return build_root_system("B", 2)
