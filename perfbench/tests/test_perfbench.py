"""Tests of the benchmark itself, on the tiny ``smoke`` workload.

    python3 -m pytest perfbench/tests
"""

import gzip
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, root=ROOT, env=None):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, timeout=170,
        env=dict(os.environ, **(env or {})),
    )


def smoke(trace, seconds, root=ROOT):
    proc = run_bench("--workload", "smoke", "--seed", "3", "--seconds", str(seconds),
                     "--trace", str(trace), root=root)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    printed = {}
    for line in lines[:-1]:
        name, sep, rest = line.partition(" = ")
        if sep:
            value, unit = rest.split()[:2]
            printed[name] = (float(value), unit)
    meta = json.loads(next(l for l in lines if l.startswith("meta "))[5:])
    return json.loads(lines[-1]), printed, meta


def test_untraced_run_reports_every_end_to_end_metric_with_its_unit():
    result, printed, meta = smoke(0, 1)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name, unit in declared.items():
        assert printed[name][1] == unit
    assert printed["failed_frac"] == (0.0, "ratio")
    assert printed["latency.survey_s"][1] == "s"
    assert printed["latency.so7_oracle_s"][1] == "s"
    for key in ("nproc", "python", "git", "loadavg_start", "loadavg_end", "optimize"):
        assert key in meta
    assert meta["reps"] >= 2


def test_traced_counts_repeat_in_fresh_interpreters():
    # one interpreter would skip every oracle derivation on the second
    # repetition (survey._ORACLE_SEEN); fresh ones repeat the work exactly
    result, printed, meta = smoke(1, 4)
    assert result["correct"] is True
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert meta["traced_reps"] >= 2
    calls = meta["oracle_filtration_calls_per_rep"]
    assert len(set(calls)) == 1 and calls[0] > 0
    assert result["metrics"]["cralgebra.analyze.calls"]["value"] == 277
    assert result["metrics"]["survey.cases"]["value"] == 276
    assert meta["absent"] == []
    assert not any("absent" in v for v in result["metrics"].values())


def load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
    run = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def test_times_are_scaled_to_the_reference_host():
    run = load_run()
    wl = run.WORKLOADS["smoke"]

    def rep(host_s):
        return [(c, run.Outcome(wall_s=2.0, cpu_s=1.0, rss_mb=1.0, setup_s=0.1, ok=True,
                                rows=[], trace=None, host_s=host_s)) for c in wl.calls]

    # the same invocations on a host twice as slow as the reference
    values = run.end_to_end(wl, [rep(2 * run.REFERENCE_PASS_S)] * 2, [0.1])
    assert values["cases_per_s"] == wl.cases / (2 * 1.0)
    assert values["cpu_s"] == 2 * 0.5
    assert values["setup_s"] == pytest.approx(0.05)
    assert values["latency.survey_s"] == 2.0


def test_missing_function_is_flagged_absent_in_the_result_line(capsys):
    run = load_run()
    # a traced repetition of a package in which only cli.main was found
    call = run.WORKLOADS["smoke"].calls[0]
    outcome = run.Outcome(wall_s=1.0, cpu_s=1.0, rss_mb=1.0, setup_s=None, ok=True, rows=[],
                          trace={"wrapped": ["cli.main"], "self_s": {"cli.main": 0.5},
                                 "repeats": 0})
    values, absent = run.per_layer([(call, outcome)])
    values["trace.overhead_ratio"] = 0.01
    run.emit(SPEC["per_layer"], values, {}, True, 1, 0, {}, absent)
    metrics = json.loads(capsys.readouterr().out.splitlines()[-1])["metrics"]
    assert metrics["roots.root_sum_table.self_s"]["absent"] is True
    assert metrics["involution.apply.calls"]["absent"] is True
    assert "absent" not in metrics["cli.main.self_s"]


def copy_bench(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))


def test_corrupted_reference_fails_the_run(tmp_path):
    copy_bench(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    path = tmp_path / "perfbench" / "reference" / "smoke.survey.json.gz"
    rows = json.loads(gzip.decompress(path.read_bytes()))
    rows[5]["minimal"] = not rows[5]["minimal"]
    path.write_bytes(gzip.compress(json.dumps(rows).encode()))
    result, printed, _ = smoke(0, 1, root=tmp_path)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert printed["failed_frac"][0] > 0


def test_refuses_to_run_under_python_optimize():
    proc = run_bench("--workload", "smoke", "--seconds", "1", env={"PYTHONOPTIMIZE": "1"})
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_fails_without_the_program(tmp_path):
    copy_bench(tmp_path)
    proc = run_bench("--workload", "survey-oracle", "--seed", "1", "--seconds", "1",
                     root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
