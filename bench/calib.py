"""How fast the host runs right now, from fixed reference work.

The benchmark's hosts share their cores, and a pure-Python loop on them can
run 20 to 40% slower for seconds at a time.  Timing fixed reference work
right next to each measured step, on the same core, measures that speed as
a slowness: the reference's time over its time on the reference host at
rest.  A step's time divided by the slowness around it is what it would
have taken at rest.

Two references follow two kinds of step.  `slowness` times a kernel that
mixes the work the library does, without importing it: permutation
products on tuples, dictionary-keyed polynomial arithmetic and small
objects with operator methods.  It imports only `math`, so running it
before `import bscomb` does not pre-load anything the library's set-up
would otherwise pay for.  `spawn_slowness` times the start of a bare
interpreter, which follows a command run in a fresh interpreter far better
than the kernel does: in a probe that interleaved both with `cli`
commands, the commands scaled by the kernel spread as much as unscaled
ones, and scaled by interpreter start four times less.
"""

from __future__ import annotations

import os
import subprocess
import sys
from math import gcd
from time import perf_counter

# Seconds the references take on the reference host at rest (2-core virtual
# machine, Python 3.11.7); they only set the scale.
KERNEL_REST_S = 0.00028
SPAWN_REST_S = 0.07


class _Ratio:
    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int = 1):
        g = gcd(num, den)
        self.num, self.den = num // g, den // g

    def __add__(self, other: "_Ratio") -> "_Ratio":
        return _Ratio(self.num * other.den + other.num * self.den, self.den * other.den)

    def __mul__(self, other: "_Ratio") -> "_Ratio":
        return _Ratio(self.num * other.num, self.den * other.den)


_P = {(i % 3, i // 3): _Ratio(i - 4, i % 4 + 1) for i in range(9)}
_Q = {(i // 3, i % 3): _Ratio(2 * i - 7, i % 3 + 2) for i in range(9)}
_PERMS = [tuple((k * m + 1) % 23 for k in range(23)) for m in (2, 3, 5, 7, 11)]


def _kernel() -> None:
    out: dict = {}
    for (a, b), x in _P.items():
        for (c, d), y in _Q.items():
            key = (a + c, b + d)
            term = x * y
            out[key] = out[key] + term if key in out else term
    g = tuple(range(23))
    for _ in range(12):
        for p in _PERMS:
            g = tuple(g[k] for k in p)


def slowness() -> float:
    """The kernel's time over its time at rest: the median of three runs."""
    times = []
    for _ in range(3):
        start = perf_counter()
        _kernel()
        times.append(perf_counter() - start)
    return sorted(times)[1] / KERNEL_REST_S


def spawn_slowness() -> float:
    """Start and exit of a bare interpreter, over its time at rest."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return (perf_counter() - start) / SPAWN_REST_S


def scale(samples: list[float]) -> float:
    """Factor that takes a time measured beside these samples to rest speed:
    one over their median."""
    ordered = sorted(samples)
    mid = len(ordered) // 2
    return 2 / (ordered[mid] + ordered[~mid])


def pin() -> None:
    """Keep this process and its children on one core, so the reference
    samples run where the measured work runs."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
