"""CLI integration: exit codes, file formats, determinism."""
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

MIST = [sys.executable, "-m", "mist.cli"]
#: the child imports mist from this checkout, as the tests themselves do
SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(MIST + list(args), capture_output=True, text=True, env=env)


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


def test_fit_csv_output(toy_csv, tmp_path):
    out = tmp_path / "fit.csv"
    r = run_cli("fit", "--data", str(toy_csv),
                "--penalty-json", '{"family":"mcp","lambda":1.0}',
                "--format", "csv", "--out", str(out))
    assert r.returncode == 0
    rows = list(csv.reader(open(out)))
    assert rows[0][:2] == ["objective", "kkt"]
    assert len(rows) == 2


def test_emit_penalty_grid(tmp_path):
    out = tmp_path / "grid.csv"
    r = run_cli("fit", "--penalty-json", '{"family":"scad","lambda":1.0}',
                "--out", str(out), "--emit-penalty-grid", str(out))
    assert r.returncode == 0
    rows = list(csv.reader(open(out)))
    assert rows[0] == ["r", "value", "derivative"]
    assert len(rows) == 401
    # derivative column is nonincreasing for a concave penalty
    ders = [float(x[2]) for x in rows[1:]]
    assert all(b <= a + 1e-12 for a, b in zip(ders, ders[1:]))


def test_path_row_count_and_warm_start(toy_csv, tmp_path):
    out = tmp_path / "path.csv"
    r = run_cli("path", "--data", str(toy_csv),
                "--penalty-json", '{"family":"lasso","lambda":1.0}',
                "--lambda", "5", "--lambda", "1", "--lambda", "0.2",
                "--out", str(out))
    assert r.returncode == 0
    rows = list(csv.reader(open(out)))
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
    rows = list(csv.reader(open(out)))
    coefs = [float(v) for v in rows[1][-4:]]
    assert coefs == [0.0, 0.0, 0.0, 0.0]


def test_path_has_no_threads_option(toy_csv, tmp_path):
    r = run_cli("path", "--data", str(toy_csv),
                "--penalty-json", '{"family":"lasso","lambda":1.0}',
                "--lambda", "1", "--threads", "2", "--out", str(tmp_path / "p.csv"))
    assert r.returncode != 0 and "--threads" in r.stderr


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
    rb = run_cli(*args, "--out", str(b), "--threads", "2")
    assert ra.returncode == 0 and rb.returncode == 0
    assert a.read_bytes() == b.read_bytes()
    rows = list(csv.reader(open(a)))
    assert len(rows) == 1 + 2 * 2  # header + replicates x lambdas


def test_simulate_one_step_dominance_column(tmp_path):
    out = tmp_path / "sim.csv"
    r = run_cli("simulate", "--scenario", "linear_ex1", "--p", "18", "--n", "60",
                "--seed", "7", "--replicates", "3",
                "--penalty-json", '{"family":"scad","lambda":1.0}',
                "--lambda", "1", "--start", "one_step", "--out", str(out))
    assert r.returncode == 0
    rows = list(csv.DictReader(open(out)))
    assert all(row["fit_leq_onestep"] == "1" for row in rows)


def test_bench_accel_shape(tmp_path):
    out = tmp_path / "bench.csv"
    r = run_cli("bench-accel", "--scenario", "linear_ex1", "--p", "18", "--n", "50",
                "--seed", "3", "--replicates", "2",
                "--penalty-json", '{"family":"lasso","lambda":1.0}',
                "--lambda", "1", "--out", str(out))
    assert r.returncode == 0
    rows = list(csv.reader(open(out)))
    assert rows[0] == ["scenario", "penalty", "mode", "map_evals", "wall_seconds", "objective"]
    assert len(rows) == 1 + 2 * 2  # replicates x {plain, squarem}
    modes = {row[2] for row in rows[1:]}
    assert modes == {"plain", "squarem"}


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
