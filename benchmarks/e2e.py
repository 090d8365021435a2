"""End-to-end record of two commits side by side, written as one JSON file.

For each side (a git revision, or "." for the working tree) a fresh copy
is made in a temporary directory, and in that copy:

- each of the four workloads runs `bench/run.py --seed S --seconds 15
  --trace 0` several times; the record keeps the median of each of the
  five end-to-end metrics, the answer digest and the failed-item count;
- each workload runs once with `--trace 1`; the record keeps, under
  `counts`, each of its per-layer metrics that is not a time: the `*.calls`,
  `*.items` and `*.found` counts and the `*_ratio` shares;
- the acceptance suite runs several times; the record keeps the median
  time of each criterion;
- the lines of `src/bscomb/*.py` are counted.

Runs alternate which side goes first.  The host (`nproc`, the Python
version) and the bytecode state (PYTHONDONTWRITEBYTECODE, and whether any
copy held a `__pycache__` after its runs) are recorded with them.  The
repository keeps these records as BENCH_*.json at its root.  Run from the
repository root, for example:

    python3 benchmarks/e2e.py --base HEAD --head . --out record.json

Tier-1 does not collect this file (`testpaths = ["tests"]`);
`tests/test_benchmarks.py` checks the shape of every BENCH_*.json.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("certify", "cohomology", "morphisms", "cli")
METRICS = ("setup_s", "items_per_s", "item_p50_ms", "item_tail_ms", "peak_rss_mb")
CRITERION = re.compile(r"PASS criterion (\d+):.*\(([\d.]+)s < ")


def checkout(rev: str, into: str) -> None:
    """Copy the tracked files of rev, or for "." the working tree's tracked
    and untracked files that .gitignore does not exclude, into `into`."""
    if rev == ".":
        files = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                                "--exclude-standard"], cwd=ROOT, check=True,
                               capture_output=True).stdout.split(b"\0")
        tar = subprocess.run(["tar", "-c", "--null", "-T", "-"], cwd=ROOT, check=True,
                             input=b"\0".join(f for f in files
                                              if f and os.path.exists(os.path.join(
                                                  ROOT, os.fsdecode(f)))),
                             capture_output=True).stdout
    else:
        tar = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", into], input=tar, check=True)


def bench(copy: str, workload: str, seed: int, trace: int) -> tuple[dict, str | None]:
    """(last-line JSON, answer digest) of one bench/run.py run."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", "15", "--trace", str(trace)],
                          cwd=copy, check=True, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    digest = next((line.split()[-1] for line in lines if line.startswith("answer digest")),
                  None)
    return json.loads(lines[-1]), digest


def acceptance(copy: str) -> dict[str, float]:
    env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"))
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
                           "tests/test_acceptance.py"], cwd=copy, env=env,
                          capture_output=True, text=True)
    return {n: float(t) for n, t in CRITERION.findall(proc.stdout)}


def commit(rev: str) -> str:
    """The commit rev names; "." is the working tree over HEAD."""
    sha = subprocess.run(["git", "rev-parse", "HEAD" if rev == "." else rev], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    return f"working tree over {sha}" if rev == "." else sha


def src_lines(copy: str) -> int:
    return sum(open(f, "rb").read().count(b"\n")
               for f in glob.glob(os.path.join(copy, "src", "bscomb", "*.py")))


def median_of(samples: list[dict]) -> dict:
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def record(revs: dict[str, str], seed: int, runs: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        copies = {}
        for side, rev in revs.items():
            copies[side] = os.path.join(tmp, side)
            os.mkdir(copies[side])
            checkout(rev, copies[side])
        sides = {side: {"rev": rev, "commit": commit(rev), "src_lines": src_lines(copies[side]),
                        "workloads": {}, "counts": {}} for side, rev in revs.items()}
        timed = {side: {w: [] for w in WORKLOADS} for side in revs}
        criteria = {side: [] for side in revs}
        order = list(revs)
        for k in range(runs):
            for side in order if k % 2 == 0 else order[::-1]:
                for w in WORKLOADS:
                    out, digest = bench(copies[side], w, seed, 0)
                    timed[side][w].append((out, digest))
                criteria[side].append(acceptance(copies[side]))
        for side in revs:
            for w in WORKLOADS:
                outs = timed[side][w]
                sides[side]["workloads"][w] = {
                    "metrics": median_of([{m: out["metrics"][m]["value"] for m in METRICS}
                                          for out, _ in outs]),
                    "digest": sorted({d for _, d in outs}),
                    "correct": all(out["correct"] for out, _ in outs),
                    "failed": sum(out["failed"] for out, _ in outs),
                }
                traced, _ = bench(copies[side], w, seed, 1)
                sides[side]["counts"][w] = {m: v["value"] for m, v in traced["metrics"].items()
                                            if v["unit"] in ("count", "ratio")}
            sides[side]["acceptance_s"] = median_of(criteria[side])
        pycache = any(glob.glob(os.path.join(c, "**", "__pycache__"), recursive=True)
                      for c in copies.values())
    return {
        "host": {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                 "bytecode": {"PYTHONDONTWRITEBYTECODE":
                              os.environ.get("PYTHONDONTWRITEBYTECODE"),
                              "pycache_written": pycache}},
        "seed": seed,
        "runs": runs,
        "sides": sides,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision of the parent side")
    parser.add_argument("--head", default=".", help='git revision, or "." for the working tree')
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--seed", type=int, default=61)
    parser.add_argument("--runs", type=int, default=3)
    args = parser.parse_args()
    doc = record({"parent": args.base, "change": args.head}, args.seed, args.runs)
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
