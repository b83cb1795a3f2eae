"""Fast self-test of the benchmark: ``python3 -m pytest -q perfbench``.

Runs every workload at 64 trials per grid point, traced and untraced, and
checks the result line against BENCHMARK.json.  run.py itself fails a run
whose traced and untraced CSVs differ, so ``correct`` covers that.
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import child
import run

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(*args, cwd=HERE.parent):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_workload_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", trace, "--trials", "64")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert "points_failed_ratio = 0" in proc.stdout


def test_traced_layers_account_for_sweep_time():
    proc = bench("--workload", "reference_set", "--seconds", "1", "--trace", "1",
                 "--trials", "64")
    assert proc.returncode == 0, proc.stderr
    assert "accounted 100.0%" in proc.stdout
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert metrics["channel.draws_per_trial"]["value"] == pytest.approx(30 / 9)


@pytest.mark.parametrize(
    "args",
    [
        ["--workload", "nope"],
        ["--workload", "large_k", "--seed", "-1"],
        ["--workload", "large_k", "--seed", "1.5"],
        ["--workload", "large_k", "--seconds", "0"],
        ["--workload", "large_k", "--seconds", "ten"],
        ["--workload", "large_k", "--trials", "0"],
        ["--workload", "large_k", "--trace", "2"],
    ],
)
def test_bad_arguments_fail_with_one_line(args):
    proc = bench(*args)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert len(proc.stderr.strip().splitlines()) == 1


def test_missing_traced_name_is_one_clear_error():
    module = types.ModuleType("aircomp.fake")
    with pytest.raises(child.BenchError, match="aircomp.fake.gone"):
        child.Tracer().wrap(module, "gone", "channel.draw")


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "mimo_2x2", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_child_environment_is_isolated(monkeypatch):
    monkeypatch.setenv("AIRCOMP_TRIALS", "5")
    env = run.child_env()
    assert not any(k.startswith("AIRCOMP_") for k in env)
    assert env["OPENBLAS_NUM_THREADS"] == run.THREADS
