"""The layer microbenchmarks under benchmarks/ still run: each is called
once with timing switched off, so an API change that breaks one fails
here rather than at the next measurement.  Every end-to-end record
(BENCH_*.json, written by benchmarks/e2e.py) has the shape that script
writes: from BENCH_35.json on it keeps every per-layer count and ratio of
its traced runs under `counts`, where earlier records kept only the
`*.calls` under `calls`."""

import importlib.util
import json
import os
import re
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


WORKLOADS = {"certify", "cohomology", "morphisms", "cli"}
METRICS = {"setup_s", "items_per_s", "item_p50_ms", "item_tail_ms", "peak_rss_mb"}
FIRST_WITH_COUNTS = 35
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    # the per-layer metrics that are not times: counts and ratios
    COUNTS = {m["name"] for m in json.load(_f)["per_layer"] if m["unit"] in ("count", "ratio")}


@pytest.mark.parametrize("path", sorted(glob(os.path.join(ROOT, "BENCH_*.json"))),
                         ids=os.path.basename)
def test_bench_record_has_every_key(path):
    with open(path) as f:
        doc = json.load(f)
    host = doc["host"]
    assert isinstance(host["nproc"], int) and host["python"]
    assert {"PYTHONDONTWRITEBYTECODE", "pycache_written"} <= host["bytecode"].keys()
    assert set(doc["sides"]) == {"parent", "change"}
    for side in doc["sides"].values():
        assert side["rev"] and side["commit"]
        assert isinstance(side["src_lines"], int)
        newer = int(re.search(r"BENCH_(\d+)", path).group(1)) >= FIRST_WITH_COUNTS
        traced = side["counts" if newer else "calls"]
        assert set(side["workloads"]) == WORKLOADS == set(traced)
        for run in side["workloads"].values():
            assert set(run["metrics"]) == METRICS
            assert run["digest"] and run["correct"] in (True, False)
            assert isinstance(run["failed"], int)
        for counts in traced.values():
            if newer:
                assert set(counts) == COUNTS
            else:
                assert counts and all(name.endswith(".calls") for name in counts)
        assert side["acceptance_s"] and all(
            isinstance(t, float) for t in side["acceptance_s"].values())
