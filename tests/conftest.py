import resource

import pytest

from bscomb.gallery import ReflSeq
from bscomb.rootsys import build_root_system

MEMORY_CAP_BYTES = 2 * 1024 ** 3


def cap_address_space():
    """Lower this process's address-space limit to MEMORY_CAP_BYTES and
    return the limits it had, so that a runaway expansion fails with
    MemoryError instead of exhausting the host."""
    limits = resource.getrlimit(resource.RLIMIT_AS)
    cap = (MEMORY_CAP_BYTES if limits[1] == resource.RLIM_INFINITY
           else min(MEMORY_CAP_BYTES, limits[1]))
    resource.setrlimit(resource.RLIMIT_AS, (cap, limits[1]))
    return limits


# systems small enough to check a table at every (chamber, reflection) pair
TABLE_SYSTEMS = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
                 ("C", 3), ("D", 4), ("G", 2)]


def positive_root(root):
    """The sign rule, independent of the reflection table: flip a root whose
    first nonzero coordinate is negative."""
    return root if next(c for c in root.coords if c) > 0 else -root


def simple_seq(rs, *letters):
    """A sequence of simple reflections from 1-based letters."""
    return ReflSeq(rs, tuple(rs.reflection(rs.simple_roots[i - 1])
                             for i in letters))


def degree(p):
    """The total degree of a Poly, read from its decoded terms; -1 for zero."""
    return max((sum(m) for m, _ in p.terms), default=-1)


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
