"""CLI integration: exit codes, file formats, determinism."""
import csv
import json
import os
import shlex
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from mist.cli import _SIM_HEADER, _load_table

MIST = [sys.executable, "-m", "mist.cli"]
#: the child imports mist from this checkout, as the tests themselves do
SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args, cwd=None):
    return run_python(*MIST[1:], *args, cwd=cwd)


def read_rows(path, reader=csv.reader):
    """Every row of a CSV file, read through a handle that is closed after."""
    with open(path) as fh:
        return list(reader(fh))


def run_python(*args, cwd=None):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, cwd=cwd)


@pytest.fixture(scope="module")
def toy_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "toy.csv"
    rng = np.random.default_rng(101)
    X = rng.standard_normal((50, 4))
    y = X @ np.array([2.0, -1.0, 0.0, 0.0]) + 0.2 * rng.standard_normal(50)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x1", "x2", "x3", "x4", "y"])
        for i in range(50):
            w.writerow([repr(float(v)) for v in X[i]] + [repr(float(y[i]))])
    return path


def test_fit_json_and_exit_zero(toy_csv, tmp_path):
    out = tmp_path / "fit.json"
    r = run_cli(
        "fit", "--data", str(toy_csv),
        "--penalty-json", '{"family":"lasso","lambda":2.0}',
        "--out", str(out),
    )
    assert r.returncode == 0, r.stderr
    d = json.loads(out.read_text())
    assert set(d) >= {"coef", "objective", "iters", "map_evals", "kkt", "termination"}
    assert len(d["coef"]) == 4
    assert "trace" not in d  # flag-gated


def test_fit_json_round_trip_bit_exact(toy_csv, tmp_path):
    out = tmp_path / "fit.json"
    run_cli("fit", "--data", str(toy_csv),
            "--penalty-json", '{"family":"scad","lambda":1.0}',
            "--trace", "--out", str(out))
    d = json.loads(out.read_text())
    again = json.loads(json.dumps(d))
    assert again["coef"] == d["coef"]  # doubles survive the round trip exactly
    assert "trace" in d and d["trace"][-1] == d["objective"]


def test_fit_large_lambda_zero_solution(toy_csv, tmp_path):
    out = tmp_path / "fit.json"
    r = run_cli("fit", "--data", str(toy_csv),
                "--penalty-json", '{"family":"lasso","lambda":1000.0}',
                "--out", str(out))
    assert r.returncode == 0
    d = json.loads(out.read_text())
    assert all(b == 0.0 for b in d["coef"])


def test_fit_exit_two_on_iteration_cap(toy_csv, tmp_path):
    out = tmp_path / "fit.json"
    r = run_cli("fit", "--data", str(toy_csv),
                "--penalty-json", '{"family":"lasso","lambda":0.1}',
                "--solver-json", '{"max_outer":1,"coef_tol":1e-14,"obj_tol":1e-16}',
                "--out", str(out))
    assert r.returncode == 2
    assert json.loads(out.read_text())["termination"] == "max_iter"


@pytest.mark.parametrize("field", ["relaxation", "step_omega"])
def test_fit_exit_one_on_removed_relaxation(toy_csv, tmp_path, field):
    r = run_cli("fit", "--data", str(toy_csv),
                "--penalty-json", '{"family":"lasso","lambda":1.0}',
                "--solver-json", json.dumps({field: 1}),
                "--out", str(tmp_path / "x.json"))
    assert r.returncode == 1 and field in r.stderr


@pytest.mark.parametrize("config", ['{"max_outer": 2.5}', '{"max_outer": true}', '{"coef_tol": "1e-8"}'])
def test_fit_exit_one_on_a_bad_solver_field(toy_csv, tmp_path, config):
    r = run_cli("fit", "--data", str(toy_csv),
                "--penalty-json", '{"family":"lasso","lambda":1.0}',
                "--solver-json", config,
                "--out", str(tmp_path / "x.json"))
    assert r.returncode == 1
    assert r.stderr.startswith(f"error: {next(iter(json.loads(config)))} must be")
    assert not (tmp_path / "x.json").exists()


def test_fit_exit_one_on_missing_file(tmp_path):
    r = run_cli("fit", "--data", str(tmp_path / "nope.csv"),
                "--penalty-json", '{"family":"lasso","lambda":1.0}',
                "--out", str(tmp_path / "x.json"))
    assert r.returncode == 1
    assert r.stderr.startswith("error: ")
    assert "\n" not in r.stderr.strip()


def test_fit_exit_one_on_malformed_csv(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("x1,y\n1.0,2.0\noops,3.0\n")
    r = run_cli("fit", "--data", str(bad),
                "--penalty-json", '{"family":"lasso","lambda":1.0}',
                "--out", str(tmp_path / "x.json"))
    assert r.returncode == 1
    assert r.stderr.startswith("error: ")


@pytest.mark.parametrize(
    "args, message",
    [
        (["fit", "--out", "x.json"], "error: Missing option '--penalty-json'."),
        (["fit", "--penalty-json", '{"family":"lasso","lambda":1.0}', "--family", "binomial", "--out", "x.json"],
         "error: Invalid value for '--family': 'binomial' is not one of"),
        (["fit", "--penalty-json", '{"family":"lasso","lambda":1.0}', "--famly", "cox", "--out", "x.json"],
         "error: No such option '--famly'."),
        ([], "error: Missing command."),
    ],
    ids=["missing-option", "bad-choice", "unknown-option", "no-command"],
)
def test_a_usage_error_exits_one_on_one_error_line(args, message, tmp_path):
    # 2 is the iteration-cap code, so a usage error must not use it
    r = run_cli(*args, cwd=tmp_path)
    assert r.returncode == 1
    assert r.stdout == "" and len(r.stderr.splitlines()) == 1
    assert r.stderr.startswith(message)
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_json_options_read_at_file_as_their_inline_text(toy_csv, tmp_path, fmt):
    penalty, config = '{"family": "scad", "lambda": 1.0}', '{"coef_tol": 1e-10, "obj_tol": 1e-300}'
    (tmp_path / "penalty.json").write_text(penalty)
    (tmp_path / "solver.json").write_text(config)
    outputs = []
    for args in ([penalty, config], ["@penalty.json", "@solver.json"]):
        out = tmp_path / f"fit{len(outputs)}.{fmt}"
        r = run_cli("fit", "--data", str(toy_csv), "--format", fmt, "--penalty-json", args[0],
                    "--solver-json", args[1], "--out", str(out), cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "args",
    [
        ["--penalty-json", "@missing.json"],
        ["--penalty-json", '{"family": "lasso", "lambda": 1.0}', "--solver-json", "@missing.json"],
    ],
    ids=["penalty", "solver"],
)
def test_a_missing_at_file_exits_one_on_one_error_line(toy_csv, tmp_path, args):
    r = run_cli("fit", "--data", str(toy_csv), *args, "--out", "x.json", cwd=tmp_path)
    assert r.returncode == 1
    assert len(r.stderr.splitlines()) == 1 and r.stderr.startswith("error: ")
    assert "missing.json" in r.stderr
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize(
    "args, message",
    [
        (["path", "--data", "missing.csv", "--penalty-json", '{"family": "lasso", "lambda": 1}',
          "--lambda", "1"], "error: [Errno 2] No such file or directory: 'missing.csv'"),
        (["simulate", "--scenario", "linear_ex1", "--p", "9", "--n", "30", "-B", "1",
          "--penalty-json", '{"family": "adaptive_lasso", "lambda": 1}', "--lambda", "1"],
         "error: adaptive_lasso requires a weight vector"),
        (["simulate", "--scenario", "linear_ex1", "--p", "9", "--n", "30", "-B", "1",
          "--penalty-json", '{"family": "lasso", "lambda": 1}', "--lambda", "1",
          "--solver-json", '{"inner_max": 5}'],
         "error: unknown solver config key(s): inner_max"),
    ],
    ids=["path-missing-data", "simulate-without-weights", "simulate-inner-max"],
)
def test_a_library_error_exits_one_on_one_error_line(args, message, tmp_path):
    r = run_cli(*args, "--out", "out.csv", cwd=tmp_path)
    assert r.returncode == 1
    assert r.stdout == "" and len(r.stderr.splitlines()) == 1
    assert r.stderr.startswith(message)
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "penalty, message",
    [
        ('{"family": "lasso", "lambda": 1, "eps": 0.5}', "error: unknown penalty key(s): eps\n"),
        ('{"family": "lasso", "lam": 1}', "error: unknown penalty key(s): lam; missing penalty key(s): lambda\n"),
        ('{"lambda": 1}', "error: missing penalty key(s): family\n"),
        ("[1]", "error: penalty JSON must be an object, got [1]\n"),
    ],
    ids=["unknown-key", "missing-lambda", "missing-family", "not-an-object"],
)
def test_a_bad_penalty_json_exits_one_on_one_error_line(toy_csv, penalty, message, tmp_path):
    # an unknown key such as "eps" was dropped, and the fit ran with no ridge
    r = run_cli("fit", "--data", str(toy_csv), "--penalty-json", penalty, "--out", "x.json", cwd=tmp_path)
    assert r.returncode == 1
    assert r.stdout == "" and r.stderr == message
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize(
    "penalty, key",
    [
        ('{"family": "lasso", "lambda": "x"}', "lambda"),
        ('{"family": "lasso", "lambda": 1, "epsilon": null}', "epsilon"),
        ('{"family": "adaptive_lasso", "lambda": 1, "weights": 5}', "weights"),
        ('{"family": "lasso", "lambda": true}', "lambda"),
    ],
    ids=["string-lambda", "null-epsilon", "scalar-weights", "bool-lambda"],
)
def test_a_penalty_value_of_the_wrong_type_exits_one_naming_its_key(toy_csv, penalty, key, tmp_path):
    # these printed float()'s or iteration's message, which names no key, and
    # a bool lambda fitted with lambda = 1
    r = run_cli("fit", "--data", str(toy_csv), "--penalty-json", penalty, "--out", "x.json", cwd=tmp_path)
    assert r.returncode == 1
    assert r.stdout == "" and len(r.stderr.splitlines()) == 1
    assert r.stderr.startswith(f"error: {key} must be ")
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"beta": [1, 0, 0, 0]}, "error: unknown start key(s): beta; missing start key(s): coef\n"),
        ([1, 0, 0, 0], "error: start JSON must be an object, got [1, 0, 0, 0]\n"),
        ({"coef": [1, 0, 0, 0], "x": 1}, "error: unknown start key(s): x\n"),
    ],
    ids=["missing-coef", "not-an-object", "unknown-key"],
)
def test_a_bad_start_file_exits_one_on_one_error_line(toy_csv, payload, message, tmp_path):
    # these printed "error: 'coef'", a list-index message, or fitted and
    # ignored the unknown key
    (tmp_path / "start.json").write_text(json.dumps(payload))
    r = run_cli("fit", "--data", str(toy_csv), "--penalty-json", '{"family": "lasso", "lambda": 1}',
                "--start", "file:start.json", "--out", "x.json", cwd=tmp_path)
    assert r.returncode == 1
    assert r.stdout == "" and r.stderr == message
    assert not (tmp_path / "x.json").exists()


def test_a_start_file_starts_the_fit(toy_csv, tmp_path):
    (tmp_path / "start.json").write_text(json.dumps({"coef": [2.0, -1.0, 0.0, 0.0], "intercept": 0.0}))
    r = run_cli("fit", "--data", str(toy_csv), "--penalty-json", '{"family": "lasso", "lambda": 1}',
                "--start", "file:start.json", "--out", "x.json", cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert json.loads((tmp_path / "x.json").read_text())["termination"] != "max_iter"


@pytest.mark.parametrize("command", [["fit"], ["path", "--lambda", "1"]])
def test_an_offset_column_outside_poisson_exits_one_on_one_error_line(command, tmp_path):
    # the column was read as one more predictor of the gaussian fit
    (tmp_path / "data.csv").write_text("y,off,x1\n1.0,1.0,0.5\n2.0,2.0,-0.2\n0.5,1.0,0.1\n")
    r = run_cli(*command, "--data", "data.csv", "--offset-col", "off", "--out", "out.csv",
                "--penalty-json", '{"family": "lasso", "lambda": 0.1}', cwd=tmp_path)
    assert r.returncode == 1
    assert r.stdout == "" and r.stderr == "error: --offset-col applies to the poisson family only, not gaussian\n"
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "family, table, message",
    [
        ("cox", "time,status,x1\n1,1,0.5\nnan,0,-0.2\n3,1,0.1\n", "error: cox times must be finite and positive"),
        ("poisson", "y,x1\n1,0.1\ninf,0.2\n0,-0.3\n", "error: poisson response must be finite"),
    ],
    ids=["cox-nan-time", "poisson-inf-count"],
)
def test_a_non_finite_response_in_the_csv_exits_one_on_one_error_line(family, table, message, tmp_path):
    (tmp_path / "data.csv").write_text(table)
    r = run_cli("fit", "--data", "data.csv", "--family", family, "--out", "out.json",
                "--penalty-json", '{"family": "lasso", "lambda": 0.1}', cwd=tmp_path)
    assert r.returncode == 1
    assert r.stdout == "" and len(r.stderr.splitlines()) == 1
    assert r.stderr.startswith(message)
    assert not (tmp_path / "out.json").exists()


def test_a_failed_lambda_is_an_error_row_of_the_header_width(tmp_path):
    # rate multipliers of 1e-305: the minimizing linear predictor lies past
    # the exponent guard, so every lambda's first map overflows
    data = tmp_path / "tiny.csv"
    x = np.random.default_rng(104).standard_normal((12, 2))
    np.savetxt(data, np.column_stack([np.ones(12), np.full(12, 1e-305), x]), fmt="%.17g", delimiter=",",
               header="y,offset,x1,x2", comments="")
    out = tmp_path / "path.csv"
    r = run_cli("path", "--data", str(data), "--family", "poisson", "--offset-col", "offset",
                "--penalty-json", '{"family": "lasso", "lambda": 1}',
                "--lambda", "1", "--lambda", "0.5", "--out", str(out))
    assert r.returncode == 0, r.stderr
    head, *rows = read_rows(out)
    assert head[:2] == ["lambda", "status"] and head[-3:] == ["intercept", "b1", "b2"]
    assert [row[0] for row in rows] == ["1", "0.5"]
    for row in rows:
        assert len(row) == len(head)
        assert row[1].startswith("error: ")
        assert row[2:] == [""] * (len(head) - 2)


def test_help_exits_zero_and_an_in_process_usage_error_exits_one():
    from mist import cli

    for args in (["--help"], ["fit", "--help"]):
        r = run_cli(*args)
        assert r.returncode == 0 and r.stdout.startswith("Usage:")
    # the in-process call of the benchmark: a usage error is a SystemExit(1)
    with pytest.raises(SystemExit) as stop:
        cli.main(["path", "--out", "x.csv"], prog_name="mist", standalone_mode=False)
    assert stop.value.code == 1


def test_fit_csv_output(toy_csv, tmp_path):
    out = tmp_path / "fit.csv"
    r = run_cli("fit", "--data", str(toy_csv),
                "--penalty-json", '{"family":"mcp","lambda":1.0}',
                "--format", "csv", "--out", str(out))
    assert r.returncode == 0
    rows = read_rows(out)
    assert rows[0][:2] == ["objective", "kkt"]
    assert len(rows) == 2


@pytest.mark.parametrize("family", ["scad", "adaptive_lasso"])
def test_emit_penalty_grid(family, tmp_path):
    out = tmp_path / "grid.csv"
    spec = {"family": family, "lambda": 1.0}
    if family == "adaptive_lasso":
        spec["weights"] = [2.0]
    r = run_cli("fit", "--penalty-json", json.dumps(spec),
                "--out", str(out), "--emit-penalty-grid", str(out))
    assert r.returncode == 0, r.stderr
    rows = read_rows(out)
    assert rows[0] == ["r", "value", "derivative"]
    assert len(rows) == 401
    if family == "scad":
        # derivative column is nonincreasing for a concave penalty
        ders = [float(x[2]) for x in rows[1:]]
        assert all(b <= a + 1e-12 for a, b in zip(ders, ders[1:]))
    else:
        # coordinate 0 has weight 2: value = 2 * lambda * r
        for x in rows[1:]:
            assert float(x[1]) == pytest.approx(2.0 * float(x[0]), rel=1e-11)


def test_emit_penalty_grid_rejects_empty_weights(tmp_path):
    out = tmp_path / "grid.csv"
    r = run_cli("fit", "--penalty-json", '{"family":"adaptive_lasso","lambda":1.0,"weights":[]}',
                "--out", str(out), "--emit-penalty-grid", str(out))
    assert r.returncode == 1
    assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1


def test_path_row_count_and_warm_start(toy_csv, tmp_path):
    out = tmp_path / "path.csv"
    r = run_cli("path", "--data", str(toy_csv),
                "--penalty-json", '{"family":"lasso","lambda":1.0}',
                "--lambda", "5", "--lambda", "1", "--lambda", "0.2",
                "--out", str(out))
    assert r.returncode == 0
    rows = read_rows(out)
    assert len(rows) == 4  # header + one per lambda
    lams = [float(x[0]) for x in rows[1:]]
    assert lams == sorted(lams, reverse=True)
    assert all(x[1] == "ok" for x in rows[1:])


def test_path_single_huge_lambda_all_zero(toy_csv, tmp_path):
    out = tmp_path / "path.csv"
    r = run_cli("path", "--data", str(toy_csv),
                "--penalty-json", '{"family":"lasso","lambda":1.0}',
                "--lambda", "1000", "--out", str(out))
    assert r.returncode == 0
    rows = read_rows(out)
    coefs = [float(v) for v in rows[1][-4:]]
    assert coefs == [0.0, 0.0, 0.0, 0.0]


def test_path_csv_reports_map_evals_and_the_working_set_size(toy_csv, tmp_path):
    out = tmp_path / "path.csv"
    r = run_cli("path", "--data", str(toy_csv), "--accel", "squarem",
                "--penalty-json", '{"family":"lasso","lambda":1.0}',
                "--lambda", "1000", "--lambda", "5", "--lambda", "0.2", "--out", str(out))
    assert r.returncode == 0, r.stderr
    rows = read_rows(out, csv.DictReader)
    head = list(rows[0])
    # before the intercept and the slopes, which close every row
    assert head.index("map_evals") < head.index("intercept") and head.index("active") < head.index("intercept")
    assert head[-4:] == ["b1", "b2", "b3", "b4"]
    active = [int(row["active"]) for row in rows]
    assert active[0] == 1  # above lambda_max: the one column of largest gradient
    assert all(1 <= a <= 4 for a in active)
    assert all(int(row["map_evals"]) >= int(row["iters"]) > 0 for row in rows)
    for row in rows:
        nonzero = sum(float(row[f"b{j}"]) != 0.0 for j in range(1, 5))
        assert nonzero <= int(row["active"])


_SIM_ARGS = ["--scenario", "linear_ex1", "--p", "18", "--n", "50", "--replicates", "1",
             "--penalty-json", '{"family":"lasso","lambda":1.0}', "--lambda", "1"]


@pytest.mark.parametrize(
    "args, name",
    [
        (["path", "--penalty-json", '{"family":"lasso","lambda":1.0}', "--lambda", "1",
          "--threads", "2"], "--threads"),
        (["simulate", *_SIM_ARGS, "--threads", "2"], "--threads"),
        (["bench-accel", *_SIM_ARGS], "bench-accel"),
        (["path", "--penalty-json", '{"family":"lasso","lambda":1.0}', "--lambda", "1",
          "--format", "csv"], "--format"),
    ],
    ids=["path-threads", "simulate-threads", "bench-accel", "path-format"],
)
def test_removed_cli_names_are_rejected(args, name, tmp_path):
    r = run_cli(*args, "--out", str(tmp_path / "out.csv"))
    assert r.returncode != 0 and name in r.stderr
    assert not (tmp_path / "out.csv").exists()


def test_path_rejects_nonpositive_lambda(toy_csv, tmp_path):
    r = run_cli("path", "--data", str(toy_csv),
                "--penalty-json", '{"family":"lasso","lambda":1.0}',
                "--lambda", "-1", "--out", str(tmp_path / "p.csv"))
    assert r.returncode == 1


def test_simulate_deterministic_bytes(tmp_path):
    args = ["simulate", "--scenario", "linear_ex1", "--p", "18", "--n", "50",
            "--seed", "42", "--replicates", "2",
            "--penalty-json", '{"family":"lasso","lambda":1.0}',
            "--lambda", "1", "--lambda", "5"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    ra = run_cli(*args, "--out", str(a))
    rb = run_cli(*args, "--out", str(b))
    assert ra.returncode == 0 and rb.returncode == 0
    assert a.read_bytes() == b.read_bytes()
    rows = read_rows(a)
    assert len(rows) == 1 + 2 * 2  # header + replicates x lambdas


def test_simulate_one_step_dominance_column(tmp_path):
    out = tmp_path / "sim.csv"
    r = run_cli("simulate", "--scenario", "linear_ex1", "--p", "18", "--n", "60",
                "--seed", "7", "--replicates", "3",
                "--penalty-json", '{"family":"scad","lambda":1.0}',
                "--lambda", "1", "--start", "one_step", "--out", str(out))
    assert r.returncode == 0
    rows = read_rows(out, csv.DictReader)
    assert all(row["fit_leq_onestep"] == "1" for row in rows)


def readme_command(name):
    """The README's `mist <name>` example as arguments, continuation lines joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = [b.split("```")[0] for b in readme.split("```sh\n")[1:]]
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    (command,) = [ln for ln in lines if ln.startswith(f"mist {name} ")]
    return shlex.split(command)[1:]


def write_readme_data(directory, args):
    """A small gaussian CSV under the name and response column the example uses."""
    response = args[args.index("--response-col") + 1]
    rng = np.random.default_rng(103)
    X = rng.standard_normal((40, 3))
    y = X @ np.array([3.0, -2.0, 0.0]) + 0.3 * rng.standard_normal(40)
    np.savetxt(directory / args[args.index("--data") + 1], np.column_stack([X, y]),
               fmt="%.17g", delimiter=",", header=f"x1,x2,x3,{response}", comments="")


def test_readme_fit_example_runs(tmp_path):
    args = readme_command("fit")
    write_readme_data(tmp_path, args)
    r = run_cli(*args, cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    d = json.loads((tmp_path / args[args.index("--out") + 1]).read_text())
    assert len(d["coef"]) == 3 and "intercept" in d
    assert d["kkt"] <= 1e-3


def test_readme_path_example_runs(tmp_path):
    args = readme_command("path")
    write_readme_data(tmp_path, args)
    r = run_cli(*args, cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    rows = read_rows(tmp_path / args[args.index("--out") + 1])
    assert len(rows) == 1 + args.count("--lambda")


def test_readme_simulate_example_runs(tmp_path):
    args = readme_command("simulate")
    r = run_cli(*args, cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    rows = read_rows(tmp_path / args[args.index("--out") + 1])
    assert rows[0] == _SIM_HEADER and len(rows) > 1


def test_cox_fit_via_cli(tmp_path):
    rng = np.random.default_rng(55)
    X = rng.standard_normal((40, 3))
    t = rng.exponential(1.0, 40) + 0.01
    status = (rng.random(40) < 0.7).astype(float)
    status[0] = 1.0
    path = tmp_path / "cox.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x1", "x2", "x3", "time", "status"])
        for i in range(40):
            w.writerow([repr(float(v)) for v in X[i]] + [repr(float(t[i])), repr(float(status[i]))])
    out = tmp_path / "fit.json"
    r = run_cli("fit", "--data", str(path), "--family", "cox",
                "--penalty-json", '{"family":"lasso","lambda":1.0}',
                "--out", str(out))
    assert r.returncode == 0, r.stderr
    d = json.loads(out.read_text())
    assert "intercept" not in d
    assert len(d["coef"]) == 3


# -- reading the data CSV (_load_table) ---------------------------------------


def test_load_table_round_trips_every_double(tmp_path):
    rng = np.random.default_rng(102)
    table = rng.standard_normal((30, 5)) * 10.0 ** rng.integers(-300, 300, (30, 5))
    table[0, :2] = [0.1, -0.0]
    path = tmp_path / "exact.csv"
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header="a,b,c,d,y", comments="")
    header, got = _load_table(str(path))
    assert header == ["a", "b", "c", "d", "y"]
    assert np.array_equal(got, table)


def test_load_table_skips_a_blank_line_and_reads_a_quoted_field(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text('x1,"y"\n1.5,2\n\n"3.25",-4e-3\n')
    header, got = _load_table(str(path))
    assert header == ["x1", "y"]
    assert np.array_equal(got, [[1.5, 2.0], [3.25, -4e-3]])


@pytest.mark.parametrize("text,suffix", [
    ("x1,y\n", ": no data rows"),
    ("", ": empty file"),
    ("x1,y\n1.0,2.0\n3.0\n", ":3: expected 2 fields"),
    ("x1,y\n1.0,2.0\n\noops,3.0\n", ":4: could not convert string to float: 'oops'"),
], ids=["header-only", "empty", "ragged", "non-numeric"])
def test_fit_reports_a_bad_data_file_on_one_line(tmp_path, text, suffix):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    r = run_cli("fit", "--data", str(bad),
                "--penalty-json", '{"family":"lasso","lambda":1.0}',
                "--out", str(tmp_path / "x.json"))
    assert r.returncode == 1
    assert r.stderr == f"error: {bad}{suffix}\n"


@pytest.mark.parametrize("start", ["one_step", "mle"])
def test_simulate_fits_the_mle_once_per_replicate(start, tmp_path, monkeypatch):
    # the MLE does not depend on lambda: one Newton fit, kept on the model,
    # serves every lambda's one-step estimator and the mle start
    from mist import fidelity
    from mist.cli import main

    calls = [0]
    original = fidelity._fit_mle

    def counted(model):
        calls[0] += 1
        return original(model)

    monkeypatch.setattr(fidelity, "_fit_mle", counted)
    out = tmp_path / "sim.csv"
    with pytest.raises(SystemExit) as done:
        main(["simulate", "--scenario", "logistic_ex2", "--p", "10", "--n", "60", "-B", "1",
              "--penalty-json", '{"family": "scad", "lambda": 1}', "--start", start,
              "--lambda", "0.5", "--lambda", "1", "--lambda", "2", "--out", str(out)])
    assert done.value.code == 0
    assert calls[0] == 1
    rows = read_rows(out, csv.DictReader)
    assert len(rows) == 3 and {row["start"] for row in rows} == {start}


def test_importing_mist_loads_no_scipy():
    r = run_python("-c", "import sys, mist, mist.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


def test_fit_path_and_simulate_run_with_scipy_blocked(toy_csv, tmp_path):
    code = textwrap.dedent(
        f"""
        import sys
        sys.modules["scipy"] = None  # every scipy import now raises ImportError
        from mist.cli import main

        def run(*args):
            try:
                main(list(args))
            except SystemExit as done:
                assert done.code == 0, (args[0], done.code)

        data, out = {str(toy_csv)!r}, {str(tmp_path)!r}
        run("fit", "--data", data, "--penalty-json", '{{"family": "lasso", "lambda": 2.0}}',
            "--out", out + "/fit.json")
        run("path", "--data", data, "--penalty-json", '{{"family": "lasso", "lambda": 1.0}}',
            "--lambda", "4.0", "--lambda", "1.0", "--out", out + "/path.csv")
        run("simulate", "--scenario", "linear_ex1", "--p", "9", "--n", "30", "-B", "1",
            "--penalty-json", '{{"family": "scad", "lambda": 1.0}}', "--lambda", "1.0",
            "--out", out + "/sim.csv")
        """
    )
    r = run_python("-c", code)
    assert r.returncode == 0, r.stderr
    assert json.loads((tmp_path / "fit.json").read_text())["termination"]
    assert len((tmp_path / "path.csv").read_text().splitlines()) == 3
    assert len((tmp_path / "sim.csv").read_text().splitlines()) == 2
