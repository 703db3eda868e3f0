"""Accuracy-checked benchmark of the mist solvers.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload simstudy --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

A run builds one workload from ``--seed``, replays passes over its fixed list
of operations for ``--seconds`` (whole passes only), checks every operation
of every pass against the independent code in ``checks.py``, and prints one
JSON object as its last line.  With ``--trace 0`` it reports the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a separate traced run.
``--smoke`` runs one pass of every workload with all checks.  See README.md.
"""
from __future__ import annotations

import os

# one BLAS thread, set before numpy is first imported; set-up subprocesses inherit it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

#: fresh-process set-ups per run; setup_s is their median
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60
#: fewest timed passes in a run, however long a pass is
MIN_PASSES = 3
#: calibrated times are reported as measured x CALIBRATION_REF_S / the kernel's
#: time around them: as they would read where the kernel takes this long
CALIBRATION_REF_S = 0.01
#: operations expected to fail in every pass until their fault is fixed
#: (the collinear design of README "Known fault")
KNOWN_FAULTS = {"collinear/lasso/plain/zero", "collinear/lasso/squarem/zero"}


class Calibration:
    """Fixed numpy kernels, independent of mist, whose times track the host's speed.

    A shared host's speed can drift by 20 % and more within a minute.  Timing a kernel
    just before and just after each measured interval, and dividing by it,
    cancels most of that drift (README, "Host drift").  Each workload names the
    kernel that stresses what its own time goes to: ``numpy`` (many calls on
    small arrays) or ``blas`` (products with a 100 x 2001 matrix).
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._a = rng.standard_normal((100, 2001))
        self._s = rng.standard_normal(35)

    def seconds(self, kind: str) -> float:
        """The kernel's time: the median of three runs, so that one hiccup does not count."""
        return statistics.median(self._once(kind) for _ in range(3))

    def _once(self, kind: str) -> float:
        np, a, s = self._np, self._a, self._s
        t0 = time.perf_counter()
        if kind == "blas":
            v = np.ones(a.shape[1])
            for _ in range(100):
                g = a.T @ (a @ v)
                v = g / np.linalg.norm(g)
        else:
            x = s.copy()
            for _ in range(1500):
                x = np.sign(x) * np.maximum(np.abs(x) - 0.01, 0.0) + 0.001 * s
                float(x @ x)
        return time.perf_counter() - t0

    @staticmethod
    def scaled(seconds: float, before: float, after: float) -> float:
        """``seconds`` as they would read on a host where the kernel takes CALIBRATION_REF_S."""
        return seconds * CALIBRATION_REF_S / (0.5 * (before + after))


def import_mist():
    """Import mist from this checkout's ``src``, never from anywhere else."""
    if not (SRC / "mist" / "__init__.py").is_file():
        raise SystemExit(f"error: no mist package under {SRC}")
    sys.path.insert(0, str(SRC))
    import mist

    if Path(mist.__file__).resolve().parent != (SRC / "mist").resolve():
        raise SystemExit(f"error: imported mist from {mist.__file__}, not from {SRC}")
    return mist


def build(workload: str, seed: int, workdir: Path):
    import workloads

    workdir.mkdir(parents=True, exist_ok=True)
    return workloads.WORKLOADS[workload](seed, workdir)


def setup_once(workload: str, seed: int, workdir: Path) -> float:
    """Import mist, generate the data, build the models (and path_wide's CSV)."""
    t0 = time.perf_counter()
    import_mist()
    build(workload, seed, workdir)
    return time.perf_counter() - t0


def setup_seconds(workload: str, seed: int, workdir: Path, cal: Calibration) -> float:
    """Median calibrated set-up time over fresh processes, so that the import is paid each time."""
    samples = []
    # an import is file reads and unmarshalling: interpreter work, like the numpy kernel
    before = cal.seconds("numpy")
    for i in range(SETUP_REPEATS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", workload,
               "--seed", str(seed), "--workdir", str(workdir / f"setup{i}")]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up process failed: {done.stderr.strip()}")
        after = cal.seconds("numpy")
        samples.append(cal.scaled(float(done.stdout.strip().splitlines()[-1]), before, after))
        before = after
    return statistics.median(samples)


def timed_passes(w, seconds: float, cal: Calibration, tracer=None):
    """Whole passes until ``seconds`` have gone.

    Returns wall times, calibrated times, outcomes and per-pass traces.
    """
    times, scaled, outcomes, traces = [], [], [], []
    start = time.perf_counter()
    before = cal.seconds(w.calibration)
    while len(times) < MIN_PASSES or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.reset()
        t0 = time.perf_counter()
        raw = w.run_pass()
        times.append(time.perf_counter() - t0)
        if tracer is not None:
            traces.append(tracer.metrics())
        after = cal.seconds(w.calibration)
        scaled.append(cal.scaled(times[-1], before, after))
        before = after
        outcomes.append(w.outcomes(raw))
    return times, scaled, outcomes, traces


def check_all(w, outcomes) -> tuple[int, int, list[str]]:
    """(attempted, failed, unexpected failures) over every pass."""
    attempted = failed = 0
    unexpected = []
    for outs in outcomes:
        for op, errs in zip(w.ops, w.check_pass(outs)):
            attempted += 1
            if errs:
                failed += 1
                if op.name not in KNOWN_FAULTS:
                    unexpected.append(f"{op.name}: {'; '.join(errs)}")
    return attempted, failed, unexpected


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


def run(args) -> dict:
    import_mist()
    cal = Calibration()
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        setup_s = None if args.trace else setup_seconds(args.workload, args.seed, workdir, cal)
        tracer = None
        if args.trace:
            import tracer as tracer_mod

            tracer = tracer_mod.Tracer()
            tracer.install()
        w = build(args.workload, args.seed, workdir / "main")
        setup_trace = tracer.metrics() if tracer else {}
        times, scaled, outcomes, traces = timed_passes(w, args.seconds, cal, tracer)
        rss = peak_rss_mb()  # before the reference optima are computed
        if tracer:
            tracer.uninstall()
        attempted, failed, unexpected = check_all(w, outcomes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in unexpected:
        print(f"FAILED {line}", file=sys.stderr)
    pass_s = statistics.median(scaled)
    print(f"{args.workload}: {len(w.ops)} operations a pass, {len(times)} timed passes; "
          f"calibrated pass_s {pass_s:.4f} s; wall time a pass: median {statistics.median(times):.4f} s, "
          f"min {min(times):.4f}, max {max(times):.4f}; {attempted} attempted, {failed} failed")
    if tracer:
        metrics = {}
        units = {name: unit for name, unit, _ in tracer_mod.metric_names()}
        for name in units:
            if name.startswith("simlab.gen_dataset"):
                value = setup_trace[name]  # the data are generated at set-up, not in a pass
            else:
                value = statistics.median(t[name] for t in traces)
            metrics[name] = {"value": value, "unit": units[name]}
        metrics["trace.pass_s"] = {"value": pass_s, "unit": "s"}
    else:
        metrics = {
            "pass_s": {"value": pass_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
    result = {"correct": not unexpected, "attempted": attempted, "failed": failed, "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    record = {"result": result, "pass_wall_s": times, "pass_calibrated_s": scaled, "unexpected": unexpected}
    if tracer:
        record["per_pass_trace"] = traces
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    return result


def smoke(seed: int) -> int:
    """One pass of every workload with all checks: a quick look before a long run."""
    import_mist()
    import workloads

    bad = 0
    for name in workloads.WORKLOADS:
        workdir = ROOT / ".perfbench_work" / f"smoke-{name}-{os.getpid()}"
        try:
            t0 = time.perf_counter()
            w = build(name, seed, workdir)
            t1 = time.perf_counter()
            outs = w.outcomes(w.run_pass())
            t2 = time.perf_counter()
            attempted, failed, unexpected = check_all(w, [outs])
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        bad += len(unexpected)
        print(f"{name:10s} build {t1 - t0:6.3f} s  pass {t2 - t1:6.3f} s  attempted {attempted:3d}  failed {failed}")
        for line in unexpected:
            print(f"  FAILED {line}")
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("simstudy", "path_wide", "poisson", "cox"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="one checked pass of every workload")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    # the collinear known-fault fits overflow on their way to failing; they are counted in "failed"
    warnings.simplefilter("ignore", RuntimeWarning)

    if args.smoke:
        return smoke(args.seed)
    if args.workload is None:
        ap.error("--workload is required")
    if args.setup_only:
        try:
            print(setup_once(args.workload, args.seed, args.workdir))
        finally:
            shutil.rmtree(args.workdir, ignore_errors=True)
        return 0
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
