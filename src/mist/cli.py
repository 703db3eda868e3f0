"""Command-line front end: fit, lambda paths, simulation, acceleration bench.

Exit codes: 0 on a tolerance-based termination, 2 when the iteration cap was
hit (the result is still written), 1 on any error.  Errors go to stderr as a
single machine-parsable line ``error: <message>``.
"""
from __future__ import annotations

import csv
import json
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import click
import numpy as np

from . import accel as accel_mod
from . import fidelity as fid
from . import penalties as pen
from . import simlab
from . import solver
from .exceptions import ValidationError
from .fidelity import CoefficientVector, DesignMatrix, FidelityModel, Response, ResponseFamily
from .penalties import PenaltySpec
from .solver import FitResult, Problem, SolverConfig, Termination

_CSV_FMT = "%.12g"


def _fmt(x) -> str:
    if isinstance(x, float):
        return _CSV_FMT % x
    return str(x)


def _fail(message: str) -> "NoReturn":
    sys.stderr.write(f"error: {message}\n")
    sys.exit(1)


def _load_table(path: str) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: empty file")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValidationError(f"{path}:{lineno}: expected {len(header)} fields")
            try:
                rows.append([float(v) for v in row])
            except ValueError as err:
                raise ValidationError(f"{path}:{lineno}: {err}")
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    return header, np.array(rows)


def _build_model(
    data: str,
    family: str,
    response_col: str,
    time_col: str,
    status_col: str,
    offset_col: str,
    intercept: bool,
) -> FidelityModel:
    header, table = _load_table(data)

    def col(name):
        if name not in header:
            raise ValidationError(f"column {name!r} not found in {data}")
        return table[:, header.index(name)]

    fam = ResponseFamily(family)
    drop = set()
    if fam is ResponseFamily.COX:
        t, s = col(time_col), col(status_col)
        drop = {time_col, status_col}
        response = Response(family=fam, y=s, time=t, status=s)
        intercept = False
    else:
        y = col(response_col)
        drop = {response_col}
        offsets = None
        if fam is ResponseFamily.POISSON and offset_col:
            offsets = col(offset_col)
            drop.add(offset_col)
        response = Response(family=fam, y=y, offsets=offsets)

    keep = [i for i, name in enumerate(header) if name not in drop]
    design = DesignMatrix(table[:, keep], has_intercept=intercept)
    return FidelityModel(design, response)


def _load_penalty(penalty_json: str, lam: float | None, p: int) -> PenaltySpec:
    text = penalty_json
    if text.startswith("@"):
        text = Path(text[1:]).read_text()
    spec = PenaltySpec.from_json(text)
    if lam is not None:
        spec = replace(spec, lam=lam)
    if spec.weights is not None and spec.weights.shape[0] != p:
        raise ValidationError(f"penalty weights have length {spec.weights.shape[0]}, need {p}")
    return spec


def _load_config(solver_json: str | None) -> SolverConfig:
    if not solver_json:
        return SolverConfig()
    text = solver_json
    if text.startswith("@"):
        text = Path(text[1:]).read_text()
    return SolverConfig.from_json(text)


def _resolve_start(problem: Problem, config: SolverConfig, start: str) -> CoefficientVector:
    if start.startswith("file:"):
        payload = json.loads(Path(start[5:]).read_text())
        return CoefficientVector(
            beta=np.array(payload["coef"], dtype=float), intercept=payload.get("intercept")
        )
    return solver.starting_point(problem, config, start)


def _run_one(problem: Problem, config: SolverConfig, start: CoefficientVector, accel: str) -> FitResult:
    mode = "squarem" if accel == "squarem" else "plain"
    return accel_mod.accelerated_fit(problem, config, start, mode=mode)


def _write_fit(result: FitResult, out: str, fmt: str, include_trace: bool):
    if fmt == "json":
        Path(out).write_text(result.to_json(include_trace) + "\n")
        return
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        names = [f"b{j + 1}" for j in range(result.coef.beta.shape[0])]
        head = ["objective", "kkt", "iters", "map_evals", "termination"]
        if result.coef.intercept is not None:
            head.append("intercept")
        writer.writerow(head + names)
        row = [
            _fmt(result.objective),
            _fmt(result.kkt_residual),
            result.outer_iters,
            result.map_evals,
            result.termination.value,
        ]
        if result.coef.intercept is not None:
            row.append(_fmt(result.coef.intercept))
        writer.writerow(row + [_fmt(float(b)) for b in result.coef.beta])


def _exit_for(result: FitResult):
    sys.exit(2 if result.termination is Termination.MAX_ITER else 0)


_common_data_opts = [
    click.option("--data", help="CSV file with header row"),
    click.option("--family", default="gaussian", show_default=True,
                 type=click.Choice([f.value for f in ResponseFamily])),
    click.option("--response-col", default="y", show_default=True),
    click.option("--time-col", default="time", show_default=True),
    click.option("--status-col", default="status", show_default=True),
    click.option("--offset-col", default="", help="poisson rate-multiplier column"),
    click.option("--intercept/--no-intercept", default=True, show_default=True),
    click.option("--penalty-json", required=True, help="PenaltySpec JSON (or @file)"),
    click.option("--solver-json", default=None, help="SolverConfig JSON (or @file)"),
    click.option("--start", default="zero", show_default=True,
                 help="zero | mle | one_step | file:PATH"),
    click.option("--accel", default="none", show_default=True,
                 type=click.Choice(["none", "squarem"])),
    click.option("--out", required=True, help="output path"),
    click.option("--format", "fmt", default="json", show_default=True,
                 type=click.Choice(["json", "csv"])),
]


def _with_opts(opts):
    def deco(fn):
        for opt in reversed(opts):
            fn = opt(fn)
        return fn

    return deco


@click.group()
def main():
    """Penalized-regression solvers built on iterated soft-thresholding."""


@main.command("fit")
@_with_opts(_common_data_opts)
@click.option("--lambda", "lam", type=float, default=None, help="override the penalty level")
@click.option("--trace/--no-trace", default=False, help="include the objective trace in JSON output")
@click.option("--emit-penalty-grid", default=None,
              help="write a value/derivative grid CSV for the penalty and exit")
def fit_cmd(data, family, response_col, time_col, status_col, offset_col, intercept,
            penalty_json, solver_json, start, accel, out, fmt, lam, trace, emit_penalty_grid):
    """Fit one penalized model and write the result."""
    try:
        if emit_penalty_grid is not None:
            spec = _load_penalty(penalty_json, lam, p=0)
            _emit_penalty_grid(spec, emit_penalty_grid)
            sys.exit(0)
        if not data:
            raise ValidationError("--data is required")
        model = _build_model(data, family, response_col, time_col, status_col, offset_col, intercept)
        spec = _load_penalty(penalty_json, lam, model.design.n_cols)
        problem = Problem(model, spec)
        config = _load_config(solver_json)
        start_coef = _resolve_start(problem, config, start)
        result = _run_one(problem, config, start_coef, accel)
        _write_fit(result, out, fmt, trace)
    except SystemExit:
        raise
    except Exception as err:  # noqa: BLE001 - CLI boundary
        _fail(str(err))
    _exit_for(result)


def _emit_penalty_grid(spec: PenaltySpec, out: str):
    hi = max(10.0, 2.0 * spec.a * spec.lam)
    grid = np.geomspace(1e-4, hi, 400)
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r", "value", "derivative"])
        for r in grid:
            writer.writerow([
                _fmt(float(r)),
                _fmt(pen.penalty_value(spec, 0, float(r))),
                _fmt(pen.penalty_derivative(spec, 0, float(r))),
            ])


@main.command("path")
@_with_opts(_common_data_opts)
@click.option("--lambda", "lams", type=float, multiple=True, required=True,
              help="penalty grid (repeatable)")
def path_cmd(data, family, response_col, time_col, status_col, offset_col, intercept,
             penalty_json, solver_json, start, accel, out, fmt, lams):
    """Warm-started coefficient path over a descending lambda grid."""
    try:
        if not lams:
            raise ValidationError("lambda grid must be nonempty")
        if any(l <= 0 for l in lams):
            raise ValidationError("lambda grid must be strictly positive")
        if not data:
            raise ValidationError("--data is required")
        model = _build_model(data, family, response_col, time_col, status_col, offset_col, intercept)
        config = _load_config(solver_json)
        grid = sorted(set(lams), reverse=True)

        rows = []
        warm = None
        for lam in grid:
            spec = _load_penalty(penalty_json, lam, model.design.n_cols)
            problem = Problem(model, spec)
            try:
                start_coef = warm if warm is not None else _resolve_start(problem, config, start)
                result = _run_one(problem, config, start_coef, accel)
                warm = result.coef
                rows.append((lam, result, None))
            except Exception as err:  # noqa: BLE001 - record and continue the sweep
                rows.append((lam, None, str(err)))

        with open(out, "w", newline="") as fh:
            writer = csv.writer(fh)
            names = [f"b{j + 1}" for j in range(model.design.n_cols)]
            head = ["lambda", "status", "objective", "kkt", "iters", "termination"]
            if model.has_intercept:
                head.append("intercept")
            writer.writerow(head + names)
            for lam, result, err in rows:
                if result is None:
                    writer.writerow([_fmt(lam), f"error: {err}"] + [""] * (len(head) - 2 + len(names)))
                    continue
                row = [
                    _fmt(lam),
                    "ok",
                    _fmt(result.objective),
                    _fmt(result.kkt_residual),
                    result.outer_iters,
                    result.termination.value,
                ]
                if model.has_intercept:
                    row.append(_fmt(result.coef.intercept))
                writer.writerow(row + [_fmt(float(b)) for b in result.coef.beta])
    except SystemExit:
        raise
    except Exception as err:  # noqa: BLE001
        _fail(str(err))
    sys.exit(0)


def _scenario_from_flags(scenario, p, q, n, rho, sigma, seed) -> simlab.SimScenario:
    return simlab.SimScenario(
        family=simlab.ScenarioFamily(scenario),
        p=p,
        q=q,
        n=n,
        rho=rho,
        sigma=sigma,
        seed=seed,
    )


_scenario_opts = [
    click.option("--scenario", required=True,
                 type=click.Choice([f.value for f in simlab.ScenarioFamily])),
    click.option("--p", type=int, default=35, show_default=True),
    click.option("--q", type=int, default=None),
    click.option("--n", type=int, default=100, show_default=True),
    click.option("--rho", type=float, default=0.0, show_default=True),
    click.option("--sigma", type=float, default=1.0, show_default=True),
    click.option("--seed", type=int, default=20260824, show_default=True),
    click.option("--replicates", "-B", type=int, default=10, show_default=True),
    click.option("--threads", type=int, default=1, show_default=True),
    click.option("--penalty-json", required=True),
    click.option("--solver-json", default=None),
    click.option("--out", required=True),
]


def _simulate_replicate(scn, lams, penalty_json, config, start):
    """One replicate: MIST fit vs the one-step baseline for every lambda."""
    dataset = simlab.gen_dataset(scn)
    model = simlab.model_from_dataset(dataset)
    out_rows = []
    for lam in lams:
        spec = _load_penalty(penalty_json, lam, model.design.n_cols)
        spec = _materialize_weights(spec, model, lam)
        problem = Problem(model, spec)
        one_step = solver.one_step_fit(problem, config)
        start_coef = solver.starting_point(problem, config, start)
        result = solver.fit(problem, config, start_coef)
        record = simlab.compare_solutions(result, one_step, problem)
        out_rows.append(
            [
                scn.family.value, scn.p, scn.q, scn.n,
                _fmt(scn.rho), _fmt(scn.sigma), scn.seed,
                spec.family.value, _fmt(lam), start,
                _fmt(record.norm_diff), _fmt(record.obj_a), _fmt(record.obj_b),
                int(record.a_leq_b), result.outer_iters, result.map_evals,
                _fmt(result.kkt_residual), result.termination.value,
            ]
        )
    return out_rows


def _materialize_weights(spec: PenaltySpec, model: FidelityModel, lam: float) -> PenaltySpec:
    """Fill adaptive weights from a convex pilot fit when none were given."""
    if spec.family not in pen.ADAPTIVE_FAMILIES or spec.weights is not None:
        return spec
    pilot_family = (
        pen.Family.ELASTIC_NET if spec.epsilon > 0 else pen.Family.LASSO
    )
    pilot_spec = PenaltySpec(family=pilot_family, lam=lam, epsilon=spec.epsilon)
    pilot_problem = Problem(model, pilot_spec)
    pilot_cfg = SolverConfig(coef_tol=1e-8, obj_tol=1e-12, max_outer=200_000)
    pilot = solver.fit(
        pilot_problem, pilot_cfg,
        CoefficientVector.zeros(model.design.n_cols, model.has_intercept),
    )
    gamma = spec.gamma if spec.gamma is not None else 1.0
    weights = pen.compute_adaptive_weights(pilot.coef.beta, gamma)
    return replace(spec, weights=weights, gamma=gamma)


_SIM_HEADER = [
    "scenario", "p", "q", "n", "rho", "sigma", "seed",
    "penalty", "lambda", "start",
    "norm_diff", "obj_fit", "obj_onestep", "fit_leq_onestep",
    "iters", "map_evals", "kkt", "termination",
]


@main.command("simulate")
@_with_opts(_scenario_opts)
@click.option("--lambda", "lams", type=float, multiple=True, required=True)
@click.option("--start", default="one_step", show_default=True)
def simulate_cmd(scenario, p, q, n, rho, sigma, seed, replicates, threads,
                 penalty_json, solver_json, out, lams, start):
    """Replicate-level comparison of full fits against the one-step baseline."""
    try:
        base = _scenario_from_flags(scenario, p, q, n, rho, sigma, seed)
        config = _load_config(solver_json)
        lam_grid = sorted(set(lams), reverse=True)
        tasks = [base.replicate(r) for r in range(replicates)]
        with ThreadPoolExecutor(max_workers=max(1, threads)) as pool:
            futures = [
                pool.submit(_simulate_replicate, scn, lam_grid, penalty_json, config, start)
                for scn in tasks
            ]
            blocks = [f.result() for f in futures]  # submission order keeps output deterministic
        with open(out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_SIM_HEADER)
            for block in blocks:
                for row in block:
                    writer.writerow(row)
    except SystemExit:
        raise
    except Exception as err:  # noqa: BLE001
        _fail(str(err))
    sys.exit(0)


_BENCH_HEADER = ["scenario", "penalty", "mode", "map_evals", "wall_seconds", "objective"]


def _bench_replicate(scn, lam, penalty_json, config):
    dataset = simlab.gen_dataset(scn)
    model = simlab.model_from_dataset(dataset)
    spec = _load_penalty(penalty_json, lam, model.design.n_cols)
    spec = _materialize_weights(spec, model, lam)
    problem = Problem(model, spec)
    start = CoefficientVector.zeros(model.design.n_cols, model.has_intercept)
    rows = []
    for mode in ("plain", "squarem"):
        t0 = time.perf_counter()
        result = accel_mod.accelerated_fit(problem, config, start, mode=mode)
        elapsed = time.perf_counter() - t0
        rows.append(
            [
                f"{scn.family.value}:p={scn.p},q={scn.q},n={scn.n},rho={scn.rho},seed={scn.seed}",
                spec.family.value,
                mode,
                result.map_evals,
                _fmt(elapsed),
                _fmt(result.objective),
            ]
        )
    return rows


@main.command("bench-accel")
@_with_opts(_scenario_opts)
@click.option("--lambda", "lam", type=float, required=True)
def bench_cmd(scenario, p, q, n, rho, sigma, seed, replicates, threads,
              penalty_json, solver_json, out, lam):
    """Plain vs accelerated map-evaluation counts on simulated replicates."""
    try:
        base = _scenario_from_flags(scenario, p, q, n, rho, sigma, seed)
        config = _load_config(solver_json)
        tasks = [base.replicate(r) for r in range(replicates)]
        with ThreadPoolExecutor(max_workers=max(1, threads)) as pool:
            futures = [
                pool.submit(_bench_replicate, scn, lam, penalty_json, config) for scn in tasks
            ]
            blocks = [f.result() for f in futures]
        with open(out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_BENCH_HEADER)
            for block in blocks:
                for row in block:
                    writer.writerow(row)
    except SystemExit:
        raise
    except Exception as err:  # noqa: BLE001
        _fail(str(err))
    sys.exit(0)


if __name__ == "__main__":
    main()
