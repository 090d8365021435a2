"""The bscomb benchmark: one seeded workload, end to end or traced.

Usage (from the root of a checkout):
    python3 bench/run.py --workload certify --seed 1 --seconds 12 --trace 0

Workloads: certify, cohomology, morphisms, cli (see bench/NOTES.md).
With --trace 0 the workload's seeded rounds, about --seconds seconds of
item time on the reference host, run untraced in a fresh interpreter,
after several separate set-up measurements, and the end-to-end metrics
are reported.  Every time is scaled to the reference host's rest speed by
the slowness samples taken beside it (see calib.py).  With --trace 1 a
fixed number of rounds runs twice, untraced and then traced, each in a
fresh interpreter; the per-layer metrics come from the traced run and the
tracing overhead is the ratio of the two item times.  The last stdout line
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

import calib
import cliwork
from spans import per_layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("certify", "cohomology", "morphisms", "cli")
SETUP_SAMPLES = 9
# Seconds of item time per round on the reference host at the seed.  A run
# does round(seconds / ROUND_S) rounds, so its item count, and with it the
# tail percentile, is fixed for a given --seconds.
ROUND_S = {"certify": 0.5, "cohomology": 1.7, "morphisms": 0.33, "cli": 13.0}
# Rounds in a traced run; fixed, so two traced runs of a seed count the same calls.
TRACE_ROUNDS = {"certify": 8, "cohomology": 3, "morphisms": 12, "cli": 1}
TAIL_CANDIDATES = (99.9, 99.0, 90.0, 75.0)


def worker(*args) -> dict:
    proc = subprocess.run([sys.executable, WORKER, *args], capture_output=True,
                          text=True, cwd=ROOT, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def cli_setup_s() -> float:
    """Interpreter start plus `import bscomb.cli`, timed from outside."""
    before = calib.spawn_slowness()
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import bscomb.cli"], check=True, cwd=ROOT,
                   env=cliwork.child_env())
    elapsed = perf_counter() - start
    return elapsed * calib.scale([before, calib.spawn_slowness()])


def library_setup_s(workload: str) -> float:
    res = worker("setup", workload)
    return res["setup_s"] * calib.scale(res["refs"])


def item_times(res: dict) -> list[float]:
    """Each item's time, scaled by the slowness samples just before and after it."""
    refs = res["refs"]
    return [t * calib.scale(refs[k:k + 2]) for k, t in enumerate(res["latencies"])]


def percentile(ordered: list[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = (len(ordered) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail(ordered: list[float]) -> tuple[float, float]:
    """(p, value) for the highest candidate percentile with >= 10 samples
    beyond it; the median when fewer than 40 samples leave none."""
    for p in TAIL_CANDIDATES:
        if len(ordered) * (1 - p / 100) >= 10:
            return p, percentile(ordered, p)
    return 50.0, percentile(ordered, 50.0)


def end_to_end(args) -> tuple[dict, dict, list[str], bool]:
    w = args.workload
    rounds = max(1, round(args.seconds / ROUND_S[w]))
    setups = [cli_setup_s() if w == "cli" else library_setup_s(w)
              for _ in range(SETUP_SAMPLES)]
    res = worker("run", w, "--seed", str(args.seed), "--rounds", str(rounds))
    if w == "cli":
        attempted, failed = cliwork.run_probes()
        res["probe"] = {"attempted": attempted, "failed": failed}
    failed_items = set(res["failed_items"])
    lat = sorted(t for k, t in enumerate(item_times(res)) if k not in failed_items)
    p, tail_s = tail(lat) if lat else (50.0, 0.0)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "items_per_s": (len(lat) / sum(lat) if lat else 0.0, "1/s"),
        "item_p50_ms": (percentile(lat, 50) * 1000 if lat else 0.0, "ms"),
        "item_tail_ms": (tail_s * 1000, "ms"),
        "peak_rss_mb": (res["maxrss_kb"] / 1024, "MB"),
    }
    report = [
        f"{w}: seed {args.seed}, {rounds} rounds, {len(lat)} items completed of "
        f"{res['attempted']} in {sum(lat):.2f} s of scaled item time "
        f"({res['busy_s']:.2f} s measured)",
        f"tail percentile p{p:g} over {len(lat)} samples; "
        f"failed_ratio = {res['failed'] / res['attempted']:.6g} ratio; "
        f"setup samples {len(setups)}",
        f"answer digest {res['digest']}",
        f"known-defect probes: {res['probe']['failed']} of {res['probe']['attempted']} fail",
        f"sizes {json.dumps(res['sizes'])}",
    ]
    report += [f"failure: {text}" for text in res["failures"]]
    return res, metrics, report, res["failed"] == 0


def traced(args) -> tuple[dict, dict, list[str], bool]:
    rounds = str(TRACE_ROUNDS[args.workload])
    common = ("run", args.workload, "--seed", str(args.seed), "--rounds", rounds)
    plain = worker(*common)
    res = worker(*common, "--trace")
    metrics = per_layer_metrics(res["trace"])
    plain_s, traced_s = sum(item_times(plain)), sum(item_times(res))
    overhead = traced_s / plain_s
    metrics["trace_overhead"] = (overhead, "x")
    self_total = sum(res["trace"]["self_s"].values())
    share = {}
    for name, value in res["trace"]["self_s"].items():
        layer = name.split(".")[0]
        share[layer] = share.get(layer, 0.0) + value
    props = {k: round(metrics[k][0], 4) for k in (
        "gallery.is_gallery_type.found_ratio", "gallery.is_gallery_type.repeat_ratio",
        "gkm.decompose.in_span_ratio", "foldcat.verify_morphism.accept_ratio")}
    report = [
        f"{args.workload} traced: seed {args.seed}, {rounds} rounds, {res['attempted']} items; "
        f"scaled item time {plain_s:.3f} s untraced, {traced_s:.3f} s traced "
        f"(overhead {overhead:.2f}x)",
        f"self time {self_total:.3f} s of {res['busy_s']:.3f} s item time; by layer "
        + ", ".join(f"{k} {v:.3f}" for k, v in sorted(share.items())),
        f"shares {json.dumps(props)}",
        f"digests {'match' if plain['digest'] == res['digest'] else 'DIFFER'}: {res['digest']}",
        f"sizes {json.dumps(res['sizes'])}",
    ]
    # Set-up spans are recorded too, so they count against the self-time total.
    limit = res["busy_s"] + res.get("setup_s", 0.0)
    correct = (res["failed"] == 0 and plain["digest"] == res["digest"]
               and self_total <= limit)
    return res, metrics, report, correct


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "bscomb", "__init__.py")):
        print(f"error: no bscomb sources under {SRC}", file=sys.stderr)
        return 2
    calib.pin()
    res, metrics, report, correct = (traced if args.trace else end_to_end)(args)
    for line in report:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
