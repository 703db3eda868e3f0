"""The benchmark's tracer (perfbench/tracer.py) resolves mist names by string.

A rename of any of them breaks ``perfbench/run.py --trace 1``; this test
breaks first.
"""
import sys
from pathlib import Path

import mist
from conftest import make_model
from mist import CoefficientVector, Family, PenaltySpec, Problem, SolverConfig

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")


def test_tracer_installs_counts_fits_and_uninstalls():
    sys.path.insert(0, PERFBENCH)
    try:
        from tracer import Tracer
    finally:
        sys.path.remove(PERFBENCH)
    original = mist.accelerated_fit
    model = make_model("gaussian", n=40, p=5, seed=70)
    prob = Problem(model, PenaltySpec(family=Family.LASSO, lam=0.5))
    start = CoefficientVector.zeros(5, True)
    tracer = Tracer()
    try:
        tracer.install()  # raises if a hooked name is missing
        results = [mist.accelerated_fit(prob, SolverConfig(), start, mode=m) for m in ("plain", "squarem")]
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    assert metrics["solver.map_evals"] == sum(r.map_evals for r in results)
    assert metrics["accel.squarem_step.calls"] > 0
    assert mist.accelerated_fit is original
