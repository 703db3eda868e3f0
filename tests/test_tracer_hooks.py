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
        plain = mist.accelerated_fit(prob, SolverConfig(), start, mode="plain")
        plain_metrics = tracer.metrics()
        squarem = mist.accelerated_fit(prob, SolverConfig(), start, mode="squarem")
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    # every map of the plain fit goes through the name the tracer wraps
    assert plain_metrics["solver.glm_map.calls"] == plain.map_evals > 0
    assert metrics["solver.map_evals"] == plain.map_evals + squarem.map_evals
    assert metrics["accel.squarem_step.calls"] > 0
    assert mist.accelerated_fit is original
