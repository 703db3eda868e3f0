"""Per-layer tracing of ``mist`` from outside the package.

The tracer replaces module-level functions and methods of ``mist`` with
wrappers that record calls and self time (a span's duration minus the spans
nested inside it).  ``mist.accel`` and ``mist.simlab`` import names such as
``total_objective`` directly, and the package re-exports many, so every
binding of a wrapped object in every ``mist`` module is replaced, not only
the one in its defining module.  ``uninstall`` puts the originals back.
"""
from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

import numpy as np

#: (metric prefix, module, attribute); a dotted attribute names a method
SPANS = (
    ("fidelity.linear_predictor", "mist.fidelity", "FidelityModel.linear_predictor"),
    ("fidelity.neg_loglik", "mist.fidelity", "neg_loglik"),
    ("fidelity.gradient", "mist.fidelity", "gradient"),
    ("fidelity.cox_parts", "mist.fidelity", "_cox_parts"),
    ("fidelity.exp", "mist.fidelity", "_guard_exp"),
    ("fidelity.curvature_bound", "mist.fidelity", "curvature_bound"),
    ("fidelity.fit_mle", "mist.fidelity", "fit_mle"),
    ("penalties.threshold_vector", "mist.penalties", "threshold_vector"),
    ("penalties.penalty_value_vec", "mist.penalties", "penalty_value_vec"),
    ("solver.glm_map", "mist.solver", "glm_map"),
    ("solver.total_objective", "mist.solver", "total_objective"),
    ("solver.kkt_residual", "mist.solver", "kkt_residual"),
    ("solver.one_step_fit", "mist.solver", "one_step_fit"),
    ("solver.poisson_scalar_min", "mist.solver", "_poisson_scalar_min"),
    ("accel.squarem_step", "mist.accel", "squarem_step"),
    ("simlab.gen_dataset", "mist.simlab", "gen_dataset"),
    ("cli.load_table", "mist.cli", "_load_table"),
)
#: spans reported by self time only: the outer loops (the plain loop and the
#: squarem loop, whose children are the maps, objectives and KKT) and the
#: ``mist path`` command body (reading options, building the model, writing CSV)
LOOPS = (
    ("solver.drive", "mist.solver", "_drive"),
    ("solver.drive", "mist.accel", "accelerated_fit"),
    ("cli.path", "mist.cli", "path_cmd.callback"),
)
#: spans whose FitResult is a whole fit; only the outermost one is counted
FIT_SPANS = {"mist.solver._drive", "mist.accel.accelerated_fit", "mist.solver.one_step_fit"}


def metric_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    out = []
    for name, _, _ in SPANS:
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.self_ms", "ms", "lower")]
    out += [(f"{name}.self_ms", "ms", "lower") for name in dict.fromkeys(n for n, _, _ in LOOPS)]
    out += [
        ("fidelity.exp.elements", "count", "lower"),
        ("solver.map_evals", "count", "lower"),
        ("solver.outer_iters", "count", "lower"),
        ("solver.descent_backtracks", "count", "lower"),
        ("accel.accept_ratio", "ratio", "higher"),
    ]
    return out


class Tracer:
    """Wraps ``mist`` functions and accumulates per-span calls and self time."""

    def __init__(self):
        self._patches = []  # (owner, attribute, original)
        self._child = []  # time spent in nested spans, one slot per open span
        self._fit_depth = 0
        self.reset()

    def reset(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)

    def install(self):
        from mist import accel

        for name, module, attr in SPANS + LOOPS:
            owner, leaf = self._resolve(module, attr)
            original = getattr(owner, leaf)
            key = f"{module}.{attr}"
            hook = None
            if key in FIT_SPANS:
                hook = self._count_fit
            elif name == "accel.squarem_step":
                hook = self._count_squarem
            elif name == "fidelity.exp":
                hook = self._count_exp
            wrapper = self._wrap(name, original, hook, key in FIT_SPANS)
            if "." in attr:  # a method or a click callback: one binding
                self._patch(owner, leaf, wrapper)
            else:
                for mod in [m for n, m in sys.modules.items() if n == "mist" or n.startswith("mist.")]:
                    for binding, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, binding, wrapper)
        self._accel = accel

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def metrics(self) -> dict[str, float]:
        """One pass's figures by metric name (accumulated since ``reset``)."""
        out = {}
        for name, _, _ in SPANS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_ms"] = 1e3 * self.self_s[name]
        for name in dict.fromkeys(n for n, _, _ in LOOPS):
            out[f"{name}.self_ms"] = 1e3 * self.self_s[name]
        out["fidelity.exp.elements"] = self.counts["exp_elements"]
        for k in ("map_evals", "outer_iters", "descent_backtracks"):
            out[f"solver.{k}"] = self.counts[k]
        steps = self.calls["accel.squarem_step"]
        out["accel.accept_ratio"] = self.counts["squarem_accepted"] / steps if steps else 0.0
        return out

    # -- internals ---------------------------------------------------------

    @staticmethod
    def _resolve(module: str, attr: str):
        owner = importlib.import_module(module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        return owner, leaf

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name, fn, hook, is_fit):
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if is_fit:
                tracer._fit_depth += 1
            tracer._child.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - t0
                nested = tracer._child.pop()
                if tracer._child:
                    tracer._child[-1] += span
                tracer.calls[name] += 1
                tracer.self_s[name] += span - nested
                if is_fit:
                    tracer._fit_depth -= 1
            if hook is not None:
                hook(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_fit(self, args, result):
        if self._fit_depth == 0:
            self.counts["map_evals"] += result.map_evals
            self.counts["outer_iters"] += result.outer_iters
            self.counts["descent_backtracks"] += result.descent_backtracks

    def _count_exp(self, args, result):
        self.counts["exp_elements"] += result.size

    def _count_squarem(self, args, state):
        # the extrapolated point was kept unless the map was at a fixed point,
        # the curvature was degenerate, or every backtrack failed (then m2 is kept)
        exhausted = state.map_evals > 2 + self._accel.MAX_BACKTRACKS
        moved = float(np.linalg.norm(state.r)) > self._accel.FIXED_POINT_TOL and float(np.linalg.norm(state.v)) > 0.0
        if moved and not exhausted:
            self.counts["squarem_accepted"] += 1
