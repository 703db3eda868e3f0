"""Write a ``BENCH_<workload>.json`` record of each given perfbench workload.

Usage, from the root of the repository:

    python3 scripts/bench_record.py poisson cox --seed 1 --seconds 20

For each workload it runs ``perfbench/run.py --workload W --seed S --seconds
N`` unchanged, reads the pass count from its summary line and the result from
its last line (one JSON object), and writes ``BENCH_<W>.json`` in ``--out-dir``
(the repository root by default) with the three end-to-end metrics, the
checker's verdict, the run's pass count, seed and seconds, and the host, the
Python and numpy versions and the git revision they were measured at.  A
``--claim`` JSON object, such as a paired comparison with the parent commit,
is stored as it is under ``"claim"``.  It exits 1 when a run fails or reports
an incorrect result, after writing the record.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
METRICS = ("pass_s", "setup_s", "peak_rss_mb")
#: perfbench/run.py's summary line, "<workload>: K operations a pass, N timed passes; ..."
PASSES = re.compile(r"^(\w+): \d+ operations a pass, (\d+) timed passes;", re.MULTILINE)


def parse_run(workload: str, stdout: str) -> dict:
    """The metrics, verdict and pass count of one run's standard output."""
    result = json.loads(stdout.strip().splitlines()[-1])
    found = [int(n) for name, n in PASSES.findall(stdout) if name == workload]
    if len(found) != 1:
        raise ValueError(f"no single pass-count line for {workload} in the run's output")
    return {
        "metrics": {name: result["metrics"][name] for name in METRICS},
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "passes": found[0],
    }


def git_revision() -> dict:
    """The checkout's commit, and whether tracked files differ from it."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)

    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        return {"commit": None, "dirty": None}
    return {"commit": head.stdout.strip(), "dirty": git("diff", "--quiet", "HEAD", "--").returncode != 0}


def host() -> dict:
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def record(workload: str, seed: int, seconds: float, claim: dict | None = None) -> dict:
    """Run one workload through perfbench and return its record."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds)]
    run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if run.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {run.returncode}: {run.stderr.strip()}")
    out = {"workload": workload, **parse_run(workload, run.stdout), "seed": seed, "seconds": seconds,
           "command": ["python3", *cmd[1:]], "host": host(), "revision": git_revision()}
    if claim is not None:
        out["claim"] = claim
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="+", choices=("simstudy", "path_wide", "poisson", "cox"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--out-dir", type=Path, default=ROOT)
    ap.add_argument("--claim", type=json.loads, help="a JSON object stored under \"claim\"")
    args = ap.parse_args(argv)
    if args.claim is not None and not isinstance(args.claim, dict):
        ap.error("--claim must be a JSON object")
    if args.claim is not None and len(args.workloads) != 1:
        ap.error("--claim needs exactly one workload")
    bad = 0
    for workload in args.workloads:
        rec = record(workload, args.seed, args.seconds, args.claim)
        path = args.out_dir / f"BENCH_{workload}.json"
        path.write_text(json.dumps(rec, indent=1) + "\n")
        print(f"{path}: pass_s {rec['metrics']['pass_s']['value']:.4f} s over {rec['passes']} passes, "
              f"correct {rec['correct']}")
        bad += not rec["correct"]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
