"""Tests of the benchmark itself, on the tiny --smoke inputs.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from check import check_loop, check_report, read_records  # noqa: E402
from workloads import SMOKE, set_up  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_smoke_workloads_match_the_declared_ones():
    assert sorted(SMOKE) == sorted(w["name"] for w in DECLARED["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(SMOKE))
def test_smoke_run_reports_every_declared_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    details, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, details["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 2
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert details["output_sha256"]
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_outside_a_checkout_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "records-heavy", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _smoke_input(tmp_path: Path, name: str):
    w = SMOKE[name]
    path = tmp_path / f"input.{w.fmt}"
    setup = set_up(w, 5, path)
    return w, path, setup.data, read_records(setup.data, w.fmt)


def test_corrupted_report_fails_the_check(tmp_path):
    from coocbias import DiagnosisConfig, diagnose, parse_jsonl
    from coocbias.report import canonical_json, report_dict, sha256_hex

    w, _, data, records = _smoke_input(tmp_path, "records-heavy")
    dataset, _ = parse_jsonl(data)
    report = report_dict(diagnose(dataset, DiagnosisConfig(k_max=w.k_max)), dataset, sha256_hex(data))
    assert check_report(canonical_json(report), data, records) == []

    entry = report["imbalances"][0]
    label = min(entry["per_class"], key=entry["per_class"].get)
    entry["per_class"][label] += 1
    problems = check_report(canonical_json(report), data, records)
    assert any("recount" in p for p in problems)

    report["imbalances"][0]["per_class"][label] -= 1
    report["dataset"]["records"] += 1
    assert check_report(canonical_json(report), data, records)
    assert check_report("{not json", data, records)


def test_corrupted_loop_output_fails_the_check(tmp_path):
    w, path, data, records = _smoke_input(tmp_path, "rebalance-loop")
    plan, summary = tmp_path / "plan.jsonl", tmp_path / "summary.json"
    subprocess.run(
        [sys.executable, str(HERE / "op.py"), "loop", "--input", str(path), "--out", str(plan),
         "--summary", str(summary), "--k-max", str(w.k_max), "--relax", str(w.relax)],
        check=True, env={"PYTHONPATH": str(ROOT / "src")}, timeout=120,
    )
    plan_text, summary_text = plan.read_text(), summary.read_text()
    assert check_loop(plan_text, summary_text, data, records) == []

    dropped = "".join(plan_text.splitlines(keepends=True)[1:])
    assert any("grown dataset" in p for p in check_loop(dropped, summary_text, data, records))

    doc = json.loads(summary_text)
    doc["sample"][-1]["per_class"] = {y: n + 1 for y, n in doc["sample"][-1]["per_class"].items()}
    assert any("recount" in p for p in check_loop(plan_text, json.dumps(doc), data, records))
