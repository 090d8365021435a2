"""One measured run of one workload, in a fresh interpreter.

Usage:
    python3 bench/worker.py setup <workload>
    python3 bench/worker.py run <workload> --seed N --rounds R [--trace]

`setup` imports bscomb from this checkout's src/, builds and enumerates
every root system the workload uses, and prints the time that took with
slowness samples (see calib.py) taken just before and after it.
`run` does the same set-up, then feeds R of the workload's seeded rounds
through the library, timing each item alone and checking its answer
untimed right after it.  One slowness sample is taken before the first
item and one right after each.  The same seed and R give the same items in
the same order, with the same cache state before each.  With
--trace the span wrappers are installed first and the span summary is
included in the result.  The result is one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
from time import perf_counter

import calib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, ".out")

SYSTEMS = {
    "certify": [("A", 3), ("B", 3), ("A", 4), ("D", 4)],
    "cohomology": [("A", 2), ("B", 2), ("G", 2)],
    "morphisms": [("A", 1), ("A", 2), ("B", 2)],
}


def library_setup(workload: str, tracer=None):
    """Import bscomb and ready every root system; returns (systems, seconds)."""
    start = perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import bscomb  # noqa: F401
    from bscomb import rootsys

    if tracer is not None:
        tracer.install()
        tracer.enabled = True
    systems = [rootsys.build_root_system(f, r) for f, r in SYSTEMS[workload]]
    for rs in systems:
        rootsys.enumerate_weyl(rs)
    if tracer is not None:
        tracer.enabled = False
    return systems, perf_counter() - start


def run_items(workload, rounds, run, check, count: int, tracer=None,
              slowness=calib.slowness) -> dict:
    """The timed loop shared by every workload: `count` rounds, each item
    timed alone and checked untimed right after it, with a `slowness`
    sample before the first item and after each."""
    digest = hashlib.sha256()
    latencies, failed_items, failures = [], [], []
    refs = [slowness()]
    probe_attempted = probe_failed = 0
    for _ in range(count):
        for item in next(rounds):
            if tracer is not None:
                tracer.enabled = True
            start = perf_counter()
            try:
                answer, error = run(item), None
            except Exception as exc:  # an unexpected exception is a failed item
                answer, error = None, exc
            elapsed = perf_counter() - start
            if tracer is not None:
                tracer.enabled = False
            refs.append(slowness())
            if error is None:
                ok, text, probe = check(item, answer)
            else:
                ok, text, probe = False, f"error {type(error).__name__}: {error}", None
            digest.update(text.encode() + b"\n")
            if probe is not None:
                probe_attempted += probe[0]
                probe_failed += probe[1]
            if not ok:
                failed_items.append(len(latencies))
                if len(failures) < 5:
                    failures.append(text[:300])
            latencies.append(elapsed)
    return {"workload": workload, "latencies": latencies, "refs": refs,
            "busy_s": sum(latencies),
            "attempted": len(latencies), "failed": len(failed_items),
            "failed_items": failed_items, "failures": failures, "digest": digest.hexdigest(),
            "probe": {"attempted": probe_attempted, "failed": probe_failed}}


def run_library(args) -> dict:
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    systems, setup_s = library_setup(args.workload, tracer)
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, systems)
    result = run_items(args.workload, wl.rounds(), wl.run, wl.check, args.rounds, tracer)
    result["setup_s"] = setup_s
    result["sizes"] = wl.sizes()
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        result["trace"] = tracer.summary()
        os.makedirs(OUT, exist_ok=True)
        tracer.dump(os.path.join(OUT, f"spans-{args.workload}.bin"))
    return result


def run_cli(args) -> dict:
    import cliwork

    trace_dir = os.path.join(OUT, "cli")
    if args.trace:
        os.makedirs(trace_dir, exist_ok=True)
        for name in os.listdir(trace_dir):
            os.remove(os.path.join(trace_dir, name))
    trace_files = []

    def run(item):
        path = None
        if args.trace:
            path = os.path.join(trace_dir, f"{len(trace_files)}.json")
            trace_files.append(path)
        return cliwork.run_command(item[1], cliwork.COMMAND_TIMEOUT_S, path)

    def check(item, answer):
        name = item[0]
        got, stdout = answer
        text = f"{name} {got} {cliwork.digest(stdout)}"
        return [got, cliwork.digest(stdout)] == cliwork.EXPECTED[name], text, None

    result = run_items("cli", cliwork.rounds(args.seed), run, check, args.rounds,
                       slowness=calib.spawn_slowness)
    result["sizes"] = {"commands": len(cliwork.CORPUS), "probes": len(cliwork.PROBES)}
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if args.trace:
        from spans import merge

        summaries = []
        for path in filter(os.path.exists, trace_files):
            with open(path) as fh:
                summaries.append(json.load(fh))
        result["trace"] = merge(summaries)
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    if args.mode == "setup":
        before = [calib.slowness() for _ in range(5)]
        _, setup_s = library_setup(args.workload)
        after = [calib.slowness() for _ in range(5)]
        result = {"setup_s": setup_s, "refs": before + after}
    elif args.workload == "cli":
        result = run_cli(args)
    else:
        result = run_library(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
