"""Command-line front end: ``fit``, ``path`` (a warm-started lambda path) and
``simulate`` (replicates of a simulation scenario).

Exit codes: 0 on a tolerance-based termination, 2 when the iteration cap was
hit (the result is still written), 1 on any error, a usage error (a missing
or unknown option, a bad choice) included.  The command group reports every
error, wherever it is raised (click's parser, a command, the library), to
stderr as a single machine-parsable line ``error: <message>``.
"""
from __future__ import annotations

import csv
import json
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import click
import numpy as np

from . import accel as accel_mod
from . import penalties as pen
from . import simlab
from . import solver
from .exceptions import ValidationError, _is_real, _real, json_object
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


def _write_csv(out: str, head: list[str], rows) -> None:
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(head)
        writer.writerows(rows)


def _load_table(path: str) -> tuple[list[str], np.ndarray]:
    """A CSV file's header and its numeric body (blank lines skipped).

    The body is parsed by ``np.loadtxt``; when it fails, or disagrees with the
    header's width, ``_scan_table`` re-reads the file to name the bad line.
    """
    with open(path, newline="") as fh:
        first = fh.readline()
        if not first:
            raise ValidationError(f"{path}: empty file")
        header = next(csv.reader([first]), [])
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
                table = np.loadtxt(fh, delimiter=",", ndmin=2, quotechar='"', comments=None)
        except ValueError:
            table = None
    if table is None or (table.size and table.shape[1] != len(header)):
        table = _scan_table(path, len(header))
    if not table.size:
        raise ValidationError(f"{path}: no data rows")
    return header, table


def _scan_table(path: str, width: int) -> np.ndarray:
    """The body parsed row by row with ``csv``, raising at the first bad line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != width:
                raise ValidationError(f"{path}:{lineno}: expected {width} fields")
            try:
                rows.append([float(v) for v in row])
            except ValueError as err:
                raise ValidationError(f"{path}:{lineno}: {err}")
    return np.array(rows)


def _build_model(
    data: str,
    family: str,
    response_col: str,
    time_col: str,
    status_col: str,
    offset_col: str,
    intercept: bool,
) -> FidelityModel:
    if not data:
        raise ValidationError("--data is required")
    header, table = _load_table(data)

    def col(name):
        if name not in header:
            raise ValidationError(f"column {name!r} not found in {data}")
        return table[:, header.index(name)]

    fam = ResponseFamily(family)
    if offset_col and fam is not ResponseFamily.POISSON:
        raise ValidationError(f"--offset-col applies to the poisson family only, not {fam.value}")
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
        if offset_col:
            offsets = col(offset_col)
            drop.add(offset_col)
        response = Response(family=fam, y=y, offsets=offsets)

    keep = [i for i, name in enumerate(header) if name not in drop]
    design = DesignMatrix(table[:, keep], has_intercept=intercept)
    return FidelityModel(design, response)


def _json_arg(text: str) -> str:
    """A JSON option's text, read from the file it names when it is ``@file``."""
    return Path(text[1:]).read_text() if text.startswith("@") else text


def _load_penalty(penalty_json: str, lam: float | None) -> PenaltySpec:
    spec = PenaltySpec.from_json(_json_arg(penalty_json))
    return spec if lam is None else replace(spec, lam=lam)


def _load_config(solver_json: str | None) -> SolverConfig:
    return SolverConfig.from_json(_json_arg(solver_json)) if solver_json else SolverConfig()


def _resolve_start(problem: Problem, config: SolverConfig, start: str) -> CoefficientVector:
    if start.startswith("file:"):
        payload = json_object(json.loads(Path(start[5:]).read_text()), "start", ("coef", "intercept"),
                              required=("coef",))
        coef, intercept = payload["coef"], payload.get("intercept")
        if not (isinstance(coef, list) and all(map(_is_real, coef))):
            raise ValidationError(f"coef must be a list of real numbers, got {coef!r}")
        if intercept is not None:
            intercept = _real("intercept", intercept)
        return CoefficientVector(beta=np.array(coef, dtype=float), intercept=intercept)
    return solver.starting_point(problem, config, start)


def _result_head(model: FidelityModel, *middle: str) -> list[str]:
    """The CSV columns of a fit of ``model``; ``middle`` goes before "termination"."""
    head = ["objective", "kkt", "iters", "map_evals", *middle, "termination"]
    if model.has_intercept:
        head.append("intercept")
    return head + [f"b{j + 1}" for j in range(model.design.n_cols)]


def _result_row(result: FitResult, *middle) -> list:
    """``result`` under ``_result_head``'s columns."""
    row = [
        _fmt(result.objective),
        _fmt(result.kkt_residual),
        result.outer_iters,
        result.map_evals,
        *middle,
        result.termination.value,
    ]
    if result.coef.intercept is not None:
        row.append(_fmt(result.coef.intercept))
    return row + [_fmt(float(b)) for b in result.coef.beta]


#: ``--accel`` value -> ``accelerated_fit`` mode
_MODES = {"none": "plain", "squarem": "squarem"}

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
]


def _with_opts(opts):
    def deco(fn):
        for opt in reversed(opts):
            fn = opt(fn)
        return fn

    return deco


def _reported(call, *args, **kwargs):
    try:
        return call(*args, **kwargs)
    except click.exceptions.Exit:
        raise
    except click.UsageError as err:
        _fail(err.format_message().replace("\n", " "))
    except Exception as err:  # noqa: BLE001 - the CLI boundary
        _fail(str(err))


class _Group(click.Group):
    """The command group: every exception raised while it parses its own
    arguments or runs a command is reported by ``_fail``.  ``SystemExit`` and
    click's ``Exit`` (``--help``) pass through."""

    def make_context(self, *args, **kwargs):
        return _reported(super().make_context, *args, **kwargs)

    def invoke(self, ctx):
        return _reported(super().invoke, ctx)


@click.group(cls=_Group, no_args_is_help=False)
def main():
    """Penalized-regression solvers built on iterated soft-thresholding."""


@main.command("fit")
@_with_opts(_common_data_opts)
@click.option("--format", "fmt", default="json", show_default=True, type=click.Choice(["json", "csv"]))
@click.option("--lambda", "lam", type=float, default=None, help="override the penalty level")
@click.option("--trace/--no-trace", default=False, help="include the objective trace in JSON output")
@click.option("--emit-penalty-grid", default=None,
              help="write a value/derivative grid CSV for the penalty and exit")
def fit_cmd(data, family, response_col, time_col, status_col, offset_col, intercept,
            penalty_json, solver_json, start, accel, out, fmt, lam, trace, emit_penalty_grid):
    """Fit one penalized model and write the result."""
    if emit_penalty_grid is not None:
        _emit_penalty_grid(_load_penalty(penalty_json, lam), emit_penalty_grid)
        sys.exit(0)
    model = _build_model(data, family, response_col, time_col, status_col, offset_col, intercept)
    problem = Problem(model, _load_penalty(penalty_json, lam))
    config = _load_config(solver_json)
    start_coef = _resolve_start(problem, config, start)
    result = accel_mod.accelerated_fit(problem, config, start_coef, mode=_MODES[accel])
    if fmt == "json":
        Path(out).write_text(result.to_json(trace) + "\n")
    else:
        _write_csv(out, _result_head(model), [_result_row(result)])
    sys.exit(2 if result.termination is Termination.MAX_ITER else 0)


def _emit_penalty_grid(spec: PenaltySpec, out: str):
    hi = max(10.0, 2.0 * spec.a * spec.lam)
    grid = np.geomspace(1e-4, hi, 400)
    value, derivative = pen.coordinate_penalty(spec, 0)
    rows = ([_fmt(float(r)), _fmt(value(float(r))), _fmt(derivative(float(r)))] for r in grid)
    _write_csv(out, ["r", "value", "derivative"], rows)


@main.command("path")
@_with_opts(_common_data_opts)
@click.option("--lambda", "lams", type=float, multiple=True, required=True,
              help="penalty grid (repeatable)")
def path_cmd(data, family, response_col, time_col, status_col, offset_col, intercept,
             penalty_json, solver_json, start, accel, out, lams):
    """Warm-started coefficient path over a descending lambda grid.

    Each lambda is fitted on the columns the sequential strong rule keeps and
    certified by a KKT check over every column (mist.fit_path).  The CSV has
    one row per lambda; its "active" column is the size of the final working
    set.
    """
    if any(l <= 0 for l in lams):
        raise ValidationError("lambda grid must be strictly positive")
    model = _build_model(data, family, response_col, time_col, status_col, offset_col, intercept)
    config = _load_config(solver_json)
    spec = _load_penalty(penalty_json, None)
    grid = sorted(set(lams), reverse=True)
    start_coef = _resolve_start(Problem(model, replace(spec, lam=grid[0])), config, start)
    results = accel_mod.fit_path(model, spec, grid, config, start_coef, mode=_MODES[accel])
    head = ["lambda", "status", *_result_head(model, "active")]
    rows = (
        [_fmt(lam), f"error: {result}"] + [""] * (len(head) - 2)
        if isinstance(result, Exception)
        else [_fmt(lam), "ok", *_result_row(result, len(result.working_set))]
        for lam, result in zip(grid, results)
    )
    _write_csv(out, head, rows)
    sys.exit(0)


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
    click.option("--penalty-json", required=True),
    click.option("--solver-json", default=None),
    click.option("--out", required=True),
]


def _simulate_replicate(scn, lams, spec, config, start):
    """One replicate: MIST fit vs the one-step baseline for every lambda."""
    dataset = simlab.gen_dataset(scn)
    model = simlab.model_from_dataset(dataset)
    out_rows = []
    for lam in lams:
        problem = Problem(model, replace(spec, lam=lam))
        one_step = solver.one_step_fit(problem, config)
        if start == "one_step":
            start_coef = one_step.coef
        else:
            start_coef = solver.starting_point(problem, config, start)
        result = solver.fit(problem, config, start_coef)
        record = simlab.compare_solutions(result, one_step, problem)
        out_rows.append(
            [
                scn.family.value, scn.p, scn.q, scn.n,
                _fmt(scn.rho), _fmt(scn.sigma), scn.seed,
                problem.penalty.family.value, _fmt(lam), start,
                _fmt(record.norm_diff), _fmt(record.obj_a), _fmt(record.obj_b),
                int(record.a_leq_b), result.outer_iters, result.map_evals,
                _fmt(result.kkt_residual), result.termination.value,
            ]
        )
    return out_rows


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
def simulate_cmd(scenario, p, q, n, rho, sigma, seed, replicates,
                 penalty_json, solver_json, out, lams, start):
    """Replicate-level comparison of full fits against the one-step baseline."""
    base = simlab.SimScenario(
        family=simlab.ScenarioFamily(scenario), p=p, q=q, n=n, rho=rho, sigma=sigma, seed=seed
    )
    config = _load_config(solver_json)
    spec = _load_penalty(penalty_json, None)
    lam_grid = sorted(set(lams), reverse=True)
    rows = [
        row
        for r in range(replicates)
        for row in _simulate_replicate(base.replicate(r), lam_grid, spec, config, start)
    ]
    _write_csv(out, _SIM_HEADER, rows)
    sys.exit(0)


if __name__ == "__main__":
    main()
