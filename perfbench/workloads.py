"""The benchmark's four workloads: their data, operation lists and checks.

Each workload is built once from ``--seed`` and then replayed pass after
pass.  A pass runs the same fixed, ordered list of operations through
``mist``'s public API; an operation is one fit call (on ``path_wide``, one
lambda row of a ``mist path`` command).  Every outcome is checked against
``checks``, which shares no code with ``mist``.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

import checks
import mist
import mist.cli
from mist import simlab

#: tight stopping rule: a plain fit stops when the step norm is below 1e-10 or
#: the objective no longer changes in floating point; obj_tol must be > 0
TIGHT = dict(coef_tol=1e-10, obj_tol=1e-300)
#: map budget of the fits expected to converge; never reached on a healthy fit
MAX_OUTER = 500_000
#: objective and coefficient agreement with the L-BFGS-B reference optimum,
#: relative to 1 + |reference|
REF_OBJ_TOL = 1e-8
REF_COEF_TOL = 1e-4
#: largest rise of the objective trace counted as monotone (the solver's slack)
DESCENT_SLACK = 1e-12
#: a fit's reported objective against the checker's objective at its coefficients
OBJ_AGREE_TOL = 1e-9


@dataclass
class Outcome:
    """What one operation returned, or the error it raised."""

    theta: Optional[np.ndarray] = None  # augmented coefficients
    objective: float = math.nan  # as reported by mist
    termination: str = ""
    trace: Optional[np.ndarray] = None
    one_step_objective: Optional[float] = None
    error: Optional[str] = None


@dataclass
class Op:
    """One checked operation: a problem, the checker's copy of it, and how it is solved."""

    name: str
    data: checks.Data
    pen: checks.Penalty
    mode: str  # plain | squarem
    start: str = "zero"  # zero | one_step
    unique: bool = True  # False when the minimizer is not unique (collinear design)
    problem: Optional[mist.Problem] = None
    config: Optional[mist.SolverConfig] = None
    reference: Optional[tuple[np.ndarray, float]] = field(default=None, repr=False)

    def run(self) -> Outcome:
        """The timed call: one fit through the public API."""
        problem, config = self.problem, self.config
        try:
            if self.start == "one_step":
                one = mist.one_step_fit(problem, config)
                res = mist.accelerated_fit(problem, config, one.coef, mode=self.mode)
            else:
                zero = mist.CoefficientVector.zeros(problem.model.design.n_cols, problem.model.has_intercept)
                res = mist.accelerated_fit(problem, config, zero, mode=self.mode)
        except Exception as err:  # noqa: BLE001 - a raised fit is a counted failure
            return Outcome(error=f"{type(err).__name__}: {err}")
        return Outcome(
            theta=res.coef.augmented(),
            objective=res.objective,
            termination=res.termination.value,
            trace=res.trace,
            one_step_objective=one.objective if self.start == "one_step" else None,
        )

    def check(self, out: Outcome) -> list[str]:
        """Every way the outcome misses its target; empty when it passes."""
        if out.error is not None:
            return [out.error]
        if out.termination == "max_iter":
            return ["stopped on max_iter"]
        errs = []
        data, pen, theta = self.data, self.pen, out.theta
        f = checks.objective(data, pen, theta)
        if not abs(out.objective - f) <= OBJ_AGREE_TOL * (1.0 + abs(f)):
            errs.append(f"reported objective {out.objective!r} but the checker finds {f!r}")
        # squarem returns an extrapolated point whose zeros are ~1e-12, not exact,
        # so an exact-zero KKT does not apply to it; the reference optimum does.
        # Its accepted steps may rise by the acceptance slack plus rounding, so
        # monotone descent is a property of the plain map only.
        if self.mode == "plain":
            k, target = checks.kkt(data, pen, theta), checks.KKT_REL_TARGET * checks.gradient_scale(data)
            if not k <= target:
                errs.append(f"KKT residual {k:.3g} above {target:.3g}")
            if not np.all(np.diff(out.trace) <= DESCENT_SLACK):
                errs.append("objective trace is not monotone")
        if out.one_step_objective is not None and not f <= out.one_step_objective + DESCENT_SLACK * (1.0 + abs(f)):
            errs.append(f"objective {f!r} above the one-step objective {out.one_step_objective!r}")
        if pen.convex:
            ref_theta, ref_f = self.reference_optimum()
            if not abs(f - ref_f) <= REF_OBJ_TOL * (1.0 + abs(ref_f)):
                errs.append(f"objective {f!r} against reference {ref_f!r}")
            if self.unique:
                gap = float(np.max(np.abs(theta - ref_theta)))
                if not gap <= REF_COEF_TOL * (1.0 + float(np.max(np.abs(ref_theta)))):
                    errs.append(f"coefficients {gap:.3g} from the reference optimum")
        return errs

    def reference_optimum(self) -> tuple[np.ndarray, float]:
        if self.reference is None:
            self.reference = checks.reference_optimum(self.data, self.pen)
        return self.reference


class Workload:
    """A fixed, ordered list of operations replayed pass after pass."""

    name = ""
    #: the calibration kernel that tracks what a pass spends its time on (run.Calibration)
    calibration = "numpy"

    def __init__(self, seed: int, workdir: Path):
        """Build the data, models and operations from ``seed``; scratch files go in ``workdir``."""
        self.ops: list[Op] = []

    def run_pass(self):
        """The timed part of a pass."""
        return [op.run() for op in self.ops]

    def outcomes(self, raw) -> list[Outcome]:
        """One outcome per operation from what ``run_pass`` returned (not timed)."""
        return raw

    def check_pass(self, outcomes: list[Outcome]) -> list[list[str]]:
        return [op.check(out) for op, out in zip(self.ops, outcomes)]


# -- shared helpers ------------------------------------------------------------


def _config(**kw) -> mist.SolverConfig:
    return mist.SolverConfig(**{**TIGHT, "max_outer": MAX_OUTER, **kw})


def _mist_penalty(pen: checks.Penalty) -> mist.PenaltySpec:
    return mist.PenaltySpec(family=pen.family, lam=pen.lam, epsilon=pen.epsilon, weights=pen.weights, a=pen.a)


def _model(data: checks.Data) -> mist.FidelityModel:
    x = data.xt[:, 1:] if data.has_intercept else data.xt
    response = mist.Response(
        family=data.family, y=data.y, offsets=data.offsets, time=data.time, status=data.status
    )
    return mist.FidelityModel(mist.DesignMatrix(x, has_intercept=data.has_intercept), response)


def _ops(name: str, data: checks.Data, model, plan, **op_kw) -> list[Op]:
    """Ops over one model: ``plan`` holds (penalty, mode, start) triples."""
    out = []
    for pen, mode, start in plan:
        problem = mist.Problem(model, _mist_penalty(pen))
        out.append(
            Op(f"{name}/{pen.family}/{mode}/{start}", data, pen, mode, start,
               problem=problem, config=_config(), **op_kw)
        )
    return out


def lambda_max(data: checks.Data) -> float:
    """Smallest lasso level at which every slope is zero (intercept-only fit)."""
    if data.family == "cox":
        return float(np.max(np.abs(checks.nll_grad(data, np.zeros(data.xt.shape[1])))))
    if data.family == "poisson":
        r = data.y - data.offsets * (data.y.sum() / data.offsets.sum())
    else:
        r = data.y - data.y.mean()
    return float(np.max(np.abs(data.xt[:, 1:].T @ r)))


#: simlab seed of the fixed instances (the CLI's default simulation seed)
BASE_SEED = 20260824


def shuffle(rng: np.random.Generator, x: np.ndarray, *row_vectors):
    """Re-order the rows and columns of one instance and flip the signs of its columns.

    The penalized problem stays the same up to relabelling, while every
    floating-point sum changes, and with it the rounding each fit meets.
    """
    rows = rng.permutation(x.shape[0])
    cols = rng.permutation(x.shape[1])
    signs = rng.choice([-1.0, 1.0], size=x.shape[1])
    return (x[rows][:, cols] * signs, *(None if v is None else v[rows] for v in row_vectors))


# -- simstudy -----------------------------------------------------------------


#: the known-fault design of ROADMAP item 4: 30 rows [1, -1], no intercept.
#: X.1 = 0, so spectral_norm's all-ones start returns 0.0 and the step is not a
#: majorizer; the plain fit runs to max_iter and squarem diverges
COLLINEAR_ROWS = 30
COLLINEAR_MAX_OUTER = 300


class SimStudy(Workload):
    """The paper's simulation study at its sizes, as ``mist simulate`` runs it."""

    name = "simstudy"
    EX1_P, EX1_N, EX1_RHOS, EX1_REPLICATES = 35, 100, (0.25, 0.5, 0.75), 2
    EX2_P, EX2_N, EX2_RHO = 10, 200, 0.5
    EX1_LAMBDA_SHARE, EX2_LAMBDA_SHARE = 0.05, 0.1  # of lambda_max, for every penalty

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = np.random.default_rng(seed)
        for rho in self.EX1_RHOS:
            base = simlab.SimScenario(family="linear_ex1", p=self.EX1_P, n=self.EX1_N, rho=rho, seed=BASE_SEED)
            for r in range(self.EX1_REPLICATES):
                ds = simlab.gen_dataset(base.replicate(r))
                x, y = shuffle(rng, ds.design.values, ds.response.y)
                data = checks.Data.from_arrays("gaussian", x, True, y=y)
                lam = self.EX1_LAMBDA_SHARE * lambda_max(data)
                ols = np.linalg.lstsq(data.xt, y, rcond=None)[0][1:]
                lasso = checks.Penalty("lasso", lam)
                alasso = checks.Penalty("adaptive_lasso", lam, weights=1.0 / np.abs(ols))
                plan = [
                    (lasso, "plain", "zero"), (lasso, "squarem", "zero"),
                    (alasso, "plain", "zero"), (alasso, "squarem", "zero"),
                    (checks.Penalty("scad", lam), "plain", "one_step"),
                    (checks.Penalty("mcp", lam), "plain", "one_step"),
                ]
                self.ops += _ops(f"ex1-rho{rho}-r{r}", data, _model(data), plan)

        ds = simlab.gen_dataset(simlab.SimScenario(
            family="logistic_ex2", p=self.EX2_P, n=self.EX2_N, rho=self.EX2_RHO, seed=BASE_SEED))
        x, y = shuffle(rng, ds.design.values, ds.response.y)
        data = checks.Data.from_arrays("logistic", x, True, y=y)
        lam = self.EX2_LAMBDA_SHARE * lambda_max(data)
        lasso = checks.Penalty("lasso", lam)
        plan = [(lasso, "plain", "zero"), (lasso, "squarem", "zero"),
                (checks.Penalty("scad", lam), "plain", "one_step")]
        self.ops += _ops("ex2", data, _model(data), plan)

        # the known fault: inputs do not depend on the seed, so it fails in every pass
        x = np.tile([1.0, -1.0], (COLLINEAR_ROWS, 1))
        data = checks.Data.from_arrays("gaussian", x, False, y=np.linspace(-1.0, 2.0, COLLINEAR_ROWS))
        lasso = checks.Penalty("lasso", 1.0)
        for op in _ops("collinear", data, _model(data), [(lasso, "plain", "zero"), (lasso, "squarem", "zero")],
                       unique=False):
            op.config = _config(max_outer=COLLINEAR_MAX_OUTER)
            self.ops.append(op)


# -- path_wide ----------------------------------------------------------------


class PathWide(Workload):
    """A microarray-shaped logistic lasso path, run as ``mist path`` in-process."""

    name = "path_wide"
    calibration = "blas"  # the n x p products set the time
    P, N, Q, RHO = 2000, 100, 10, 0.1
    LAMBDA_SHARES = (0.8, 0.7, 0.6, 0.5)  # of lambda_max, descending

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        ds = simlab.gen_dataset(simlab.SimScenario(
            family="logistic_ex2", p=self.P, n=self.N, q=self.Q, rho=self.RHO, seed=BASE_SEED))
        # the input does not depend on the seed: squarem's map count on this p >> n
        # problem moves by up to 40 % under any change of rounding, re-ordering
        # included, and no affordable pass averages that out (README, "Seeds")
        x, y = ds.design.values, ds.response.y
        self.input = workdir / "path_wide_input.csv"
        self.output = workdir / "path_wide_path.csv"
        header = ["y"] + [f"x{j + 1}" for j in range(self.P)]
        # %.17g round-trips every double, so mist reads back exactly these values
        np.savetxt(self.input, np.column_stack([y, x]), fmt="%.17g", delimiter=",",
                   header=",".join(header), comments="")
        data = checks.Data.from_arrays("logistic", x, True, y=y)
        lmax = lambda_max(data)
        self.lams = [share * lmax for share in self.LAMBDA_SHARES]
        self.ops = [Op(f"lambda{share}", data, checks.Penalty("lasso", lam), "squarem")
                    for share, lam in zip(self.LAMBDA_SHARES, self.lams)]
        self.argv = [
            "path", "--data", str(self.input), "--family", "logistic", "--accel", "squarem",
            "--penalty-json", '{"family": "lasso", "lambda": 1}',
            "--solver-json", json.dumps({**TIGHT, "max_outer": MAX_OUTER}),
            "--out", str(self.output),
        ]
        for lam in self.lams:
            self.argv += ["--lambda", repr(lam)]

    def run_pass(self):
        """The whole command: read the CSV, fit every lambda, write the path CSV."""
        try:
            mist.cli.main(self.argv, prog_name="mist", standalone_mode=False)
        except SystemExit as stop:
            return stop.code
        return 0

    def outcomes(self, exit_code) -> list[Outcome]:
        if exit_code not in (0, None):
            return [Outcome(error=f"mist path exited with {exit_code}") for _ in self.ops]
        with open(self.output, newline="") as fh:
            by_lambda = {float(row["lambda"]): row for row in csv.DictReader(fh)}
        out = []
        for lam in self.lams:
            row = by_lambda.get(float(f"{lam:.12g}"))  # the CLI writes lambda with %.12g
            if row is None:
                out.append(Outcome(error=f"no row for lambda {lam!r}"))
            elif row["status"] != "ok":
                out.append(Outcome(error=row["status"]))
            else:
                beta = [float(row[f"b{j + 1}"]) for j in range(self.P)]
                out.append(Outcome(
                    theta=np.array([float(row["intercept"])] + beta),
                    objective=float(row["objective"]),
                    termination=row["termination"],
                ))
        return out


# -- poisson ------------------------------------------------------------------


class PoissonFits(Workload):
    """Componentwise Poisson fits with offsets: the separable-majorizer path."""

    name = "poisson"
    #: (n, p, penalty, mode, start) per design; plain SCAD only on a small design,
    #: because a plain 300 x 20 SCAD fit alone takes about 20 s
    DESIGNS = (
        (60, 5, "lasso", "squarem", "zero"),
        (80, 8, "lasso", "squarem", "zero"),
        (50, 4, "lasso", "plain", "zero"),
        (40, 3, "scad", "plain", "one_step"),
    )
    LAMBDA_SHARE = 0.1

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = np.random.default_rng(seed)
        for i, (n, p, family, mode, start) in enumerate(self.DESIGNS):
            ds = simlab.gen_dataset(simlab.SimScenario(family="linear_ex1", p=p, n=n, rho=0.3, seed=BASE_SEED ^ i))
            fixed = np.random.default_rng([BASE_SEED, i])
            x = 0.4 * ds.design.values
            beta = np.where(np.arange(p) < (p + 1) // 2, 0.6, 0.0) * np.resize([1.0, -1.0], p)
            offsets = np.exp(fixed.uniform(-0.5, 0.5, n))
            y = fixed.poisson(offsets * np.exp(0.5 + x @ beta)).astype(float)
            x, y, offsets = shuffle(rng, x, y, offsets)
            data = checks.Data.from_arrays("poisson", x, True, y=y, offsets=offsets)
            pen = checks.Penalty(family, self.LAMBDA_SHARE * lambda_max(data))
            self.ops += _ops(f"design{i}-n{n}-p{p}", data, _model(data), [(pen, mode, start)])


# -- cox ----------------------------------------------------------------------


class CoxFits(Workload):
    """Cox fits with tied event times (Breslow): the partial-likelihood path."""

    name = "cox"
    #: (n, p, tie): ``tie`` subjects share each event time
    DESIGNS = ((80, 6, 3), (120, 8, 4))
    LAMBDA_SHARE = 0.1

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = np.random.default_rng(seed)
        for i, (n, p, tie) in enumerate(self.DESIGNS):
            ds = simlab.gen_dataset(simlab.SimScenario(family="cox_synthetic", p=p, n=n, rho=0.3, seed=BASE_SEED ^ i))
            rank = np.argsort(np.argsort(ds.response.time, kind="stable"), kind="stable")
            tied = np.floor(rank / tie) + 1.0
            x, tied, status = shuffle(rng, ds.design.values, tied, ds.response.status)
            data = checks.Data.from_arrays("cox", x, False, time=tied, status=status)
            lam = self.LAMBDA_SHARE * lambda_max(data)
            lasso = checks.Penalty("lasso", lam)
            plan = [(lasso, "plain", "zero"), (lasso, "squarem", "zero"),
                    (checks.Penalty("scad", lam), "plain", "one_step")]
            self.ops += _ops(f"design{i}-n{n}-p{p}", data, _model(data), plan)


WORKLOADS = {w.name: w for w in (SimStudy, PathWide, PoissonFits, CoxFits)}
