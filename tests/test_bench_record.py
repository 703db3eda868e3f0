"""The benchmark recorder (scripts/bench_record.py) reads perfbench's output."""
import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

RESULT = {
    "correct": True, "attempted": 12, "failed": 0,
    "metrics": {"pass_s": {"value": 0.015, "unit": "s"}, "setup_s": {"value": 0.2, "unit": "s"},
                "peak_rss_mb": {"value": 42.1, "unit": "MB"}},
}
SUMMARY = ("poisson: 4 operations a pass, 1187 timed passes; calibrated pass_s 0.0150 s; wall time a pass: "
           "median 0.0161 s, min 0.0150, max 0.0301; 4748 attempted, 0 failed")


def test_a_run_gives_its_metrics_verdict_and_pass_count():
    got = bench_record.parse_run("poisson", f"{SUMMARY}\n{json.dumps(RESULT)}\n")
    assert got == {"metrics": RESULT["metrics"], "correct": True, "attempted": 12, "failed": 0, "passes": 1187}


def test_a_run_without_its_summary_line_is_an_error():
    with pytest.raises(ValueError, match="pass-count line"):
        bench_record.parse_run("cox", f"{SUMMARY}\n{json.dumps(RESULT)}\n")
