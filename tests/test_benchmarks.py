"""The layer microbenchmarks under benchmarks/ still run: each is called
once with timing switched off, so an API change that breaks one fails
here rather than at the next measurement."""

import importlib.util
import os
import subprocess
import sys
from glob import glob

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.skipif(importlib.util.find_spec("pytest_benchmark") is None,
                    reason="pytest-benchmark is not installed")
def test_microbenchmarks_run():
    files = sorted(glob(os.path.join(ROOT, "benchmarks", "bench_*.py")))
    assert files
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--benchmark-disable", *files],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
