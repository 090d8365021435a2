"""Tests of the benchmark itself (not collected by the repository's suite).

Run from the root of a checkout:
    python3 -m pytest -q bench/selftest.py

They take about a minute: each workload runs a few rounds untraced and
twice traced, in fresh interpreters, as the benchmark does.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from itertools import product

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import calib  # noqa: E402
import cliwork  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

LIBRARY = ("certify", "cohomology", "morphisms")
ROUNDS = {"certify": 4, "cohomology": 3, "morphisms": 3, "cli": 1}
# Layers each workload must leave untouched.
UNTOUCHED = {
    "certify": ("poly.", "gkm.", "foldcat.", "formats.", "cli."),
    "cohomology": ("nested.", "formats.", "cli."),
    "morphisms": ("nested.", "formats.", "cli."),
}


def run_worker(workload: str, *extra: str) -> dict:
    proc = subprocess.run([sys.executable, worker.__file__, "run", workload, "--seed", "7",
                           "--rounds", str(ROUNDS[workload]), *extra],
                          capture_output=True, text=True, cwd=ROOT, timeout=170, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def results():
    """Per workload: one untraced and two traced runs of the same rounds."""
    return {w: (run_worker(w), run_worker(w, "--trace"), run_worker(w, "--trace"))
            for w in (*LIBRARY, "cli")}


def _workload(name: str, seed: int):
    from workloads import WORKLOADS

    systems, _ = worker.library_setup(name)
    return WORKLOADS[name](seed, systems)


@pytest.mark.parametrize("name", LIBRARY)
def test_generator_is_deterministic(name):
    first, second = _workload(name, 3).rounds(), _workload(name, 3).rounds()
    for _ in range(3):
        assert next(first) == next(second)
    assert next(_workload(name, 4).rounds()) != next(_workload(name, 3).rounds())


def test_cli_order_is_deterministic():
    assert next(cliwork.rounds(3)) == next(cliwork.rounds(3))
    assert sorted(next(cliwork.rounds(3))) == sorted(cliwork.CORPUS)


def test_every_wrapped_function_is_called(results):
    calls = spans.merge([traced["trace"] for _, traced, _ in results.values()])["calls"]
    assert [name for name, n in calls.items() if n == 0] == []


@pytest.mark.parametrize("name", LIBRARY)
def test_untouched_layers_record_nothing(name, results):
    calls = results[name][1]["trace"]["calls"]
    assert {k: n for k, n in calls.items() if k.startswith(UNTOUCHED[name]) and n} == {}


@pytest.mark.parametrize("name", (*LIBRARY, "cli"))
def test_self_time_within_wall_time(name, results):
    traced = results[name][1]
    assert sum(traced["trace"]["self_s"].values()) <= traced["busy_s"] + traced.get("setup_s", 0)


@pytest.mark.parametrize("name", (*LIBRARY, "cli"))
def test_traced_counts_repeat(name, results):
    _, first, second = results[name]
    assert first["trace"]["calls"] == second["trace"]["calls"]
    assert first["trace"]["counters"] == second["trace"]["counters"]


@pytest.mark.parametrize("name", (*LIBRARY, "cli"))
def test_traced_and_untraced_answers_agree(name, results):
    plain, traced, _ = results[name]
    assert plain["failed"] == traced["failed"] == 0
    assert plain["digest"] == traced["digest"]


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("D", 4), ("G", 2)])
def test_oracle_products_match_library_matrices(family, rank):
    from bscomb.rootsys import build_root_system

    rs = build_root_system(family, rank)
    rd = oracle.RootData(family, rank)
    assert len(rd.roots) == len(rs.roots)
    rng = random.Random(0)
    for _ in range(20):
        word = [rng.randint(1, rank) for _ in range(rng.randint(0, 8))]
        w, perm = rs.identity(), rd.identity
        for i in word:
            w = w * rs.simple_reflection(i)
            perm = oracle.mul(perm, rd.refl[rd.simple[i - 1]])
        assert rd.from_matrix(w.matrix) == perm


@pytest.mark.parametrize("family,rank,longest", [("A", 2, 4), ("B", 2, 4), ("G", 2, 3), ("A", 3, 3)])
def test_gallery_type_oracle_matches_brute_force(family, rank, longest):
    rd = oracle.RootData(family, rank)
    positive = [k for k in range(len(rd.roots)) if rd.positive[k]]
    rng = random.Random(1)
    seen = set()
    for _ in range(12):
        s = [rng.choice(positive) for _ in range(rng.randint(1, longest))]
        brute = any(oracle.certificate_holds(rd, s, x, t, bits)
                    for x in rd.weyl()
                    for bits in product((False, True), repeat=len(s))
                    for t in product(rd.simple, repeat=len(s)))
        assert oracle.gallery_type(rd, s) == brute
        seen.add(brute)
    built = oracle.gallery_type_sequence(rd, rng, longest + 2)
    assert oracle.gallery_type(rd, built)
    assert seen == {False, True} or family == "A"


def test_certify_check_rejects_a_missed_certificate():
    wl = _workload("certify", 3)
    built = next(item for item in next(wl.rounds())
                 if item[0] == "decide" and wl.run(item) is not None)
    assert wl.check(built, wl.run(built))[0]
    assert not wl.check(built, None)[0]


def test_morphisms_check_rejects_a_missing_morphism():
    wl = _workload("morphisms", 3)
    item = next(item for item in next(wl.rounds()) if len(wl.run(item)[0]) >= 2)
    answer = wl.run(item)
    found, x, results, pullback = answer
    assert wl.check(item, answer)[0]
    assert not wl.check(item, (found[1:], x, results[1:], pullback))[0]
    assert not wl.check(item, ([], x, [], None))[0]


def test_accept_ratio_counts_candidates_only(results):
    traced = results["morphisms"][1]["trace"]
    candidates = traced["counters"]["verify_morphism.candidates"]
    assert 0 < candidates < traced["calls"]["foldcat.verify_morphism"]
    assert traced["counters"]["verify_morphism.accept"] == traced["counters"][
        "enumerate_morphisms.found"]


def test_scale_takes_times_to_rest_speed():
    assert calib.scale([1.0, 1.0]) == 1.0
    assert calib.scale([1.0, 3.0]) == 0.5
    assert calib.scale([4.0, 1.0, 2.0]) == 0.5
    item = {"latencies": [1.0, 1.0], "refs": [1.0, 1.0, 2.0]}
    assert run.item_times(item) == pytest.approx([1.0, 2 / 3])


def test_tail_percentile_keeps_ten_samples_beyond():
    ordered = [float(k) for k in range(250)]
    assert run.tail(ordered)[0] == 90.0
    assert run.tail(ordered[:99])[0] == 75.0
    assert run.tail(ordered[:39]) == (50.0, 19.0)
    assert run.percentile(ordered, 50) == 124.5


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns(".out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "certify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
