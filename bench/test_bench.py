"""Tests of the benchmark itself, on the smoke-size inputs.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", "--smoke", "--seconds", "1", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if lines else None)


@pytest.fixture
def scratch():
    base = ROOT / ".bench_build"
    base.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=base) as tmp:
        yield Path(tmp)


def check_schema(result, names_units):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names_units
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float))


def test_every_workload_end_to_end():
    proc, result = run_bench("--workload", "all")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0
    check_schema(result, {f"{w}.{m['name']}": m["unit"]
                          for w in ("certify", "cli-verify", "brute")
                          for m in SPEC["end_to_end"]})
    assert all(v["value"] > 0 for v in result["metrics"].values())
    identity = json.loads(proc.stdout.strip().splitlines()[-2])["identity"]
    assert identity["thread_pins"]["OPENBLAS_NUM_THREADS"] == "1"
    assert identity["certificate_sha256"] == [identity["reference_sha256"]]
    for key in ("python", "numpy", "scipy", "cpu_count", "src_sha256", "brute_seeds"):
        assert identity[key] is not None


def test_traced_run_reports_every_layer():
    proc, result = run_bench("--workload", "certify", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0
    check_schema(result, {m["name"]: m["unit"] for m in SPEC["per_layer"]})


def _wrong_hash(ref):
    ref["sha256"] = "0" * 64


def _wrong_localopt_count(ref):
    ref["brute"]["localopt_tested"]["3"][0] += 1


@pytest.mark.parametrize("workload, corrupt", [
    ("certify", _wrong_hash),
    ("cli-verify", _wrong_hash),
    ("brute", _wrong_localopt_count),
])
def test_wrong_reference_fails_the_run(scratch, workload, corrupt):
    ref = json.loads((BENCH / "reference.json").read_text())
    corrupt(ref["smoke"])
    path = scratch / "reference.json"
    path.write_text(json.dumps(ref))
    proc, result = run_bench("--workload", workload, "--reference", str(path))
    assert proc.returncode == 1
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]
    assert "FAILED" in proc.stdout


def test_failed_check_counts_its_functions():
    from noisestab.sweeps import CheckResult
    brute = json.loads((BENCH / "reference.json").read_text())["smoke"]["brute"]
    good = CheckResult("gamma", 3, 0.5, 70, -1.0, 1e-7, True)
    bad = CheckResult("gamma", 3, 0.9, 70, 1.0, 1e-7, False)
    assert worker.gate_checks([good], brute)["failed"] == 0
    gate = worker.gate_checks([good, bad], brute)
    assert (gate["items"], gate["failed"]) == (140, 70)
    assert len(gate["reasons"]) == 1


def test_tracer_self_time_subtracts_children():
    tr = worker.Tracer()
    tr.call("outer", lambda: [tr.call("inner", sum, range(10)) for _ in range(3)])
    (outer,) = tr.durations("outer")
    inner = tr.durations("inner")
    assert len(inner) == 3
    assert tr.self_times("outer")[0] == pytest.approx(outer - sum(inner))


def test_checkout_without_sources_exits_without_result(scratch):
    shutil.copy(ROOT / "BENCHMARK.json", scratch)
    shutil.copytree(BENCH, scratch / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc, result = run_bench("--workload", "certify", cwd=scratch)
    assert proc.returncode != 0
    assert result is None
