"""Smoke test of the benchmark harness at tiny sizes.

Not collected by a plain ``pytest`` run (the file name does not match
``test_*.py``); run it explicitly:

    python3 -m pytest -q perfbench/smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(root: Path, workload: str, trace: int) -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170, cwd=root)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_appears_with_its_unit(workload, trace):
    stdout, result = _run(ROOT, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert "error_rate 0 " in stdout
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_declared_layer_metrics_match_the_recorder():
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == \
        spans.LAYER_METRICS
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.NAMES)


def test_wrong_reference_fails_the_check_and_raises_error_rate(tmp_path):
    """A copy of the checkout whose closed-form reference gain is off by
    0.1 %: every model_based run must fail its output check."""
    for name in ("src", "configs", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    target = tmp_path / "perfbench" / "workloads.py"
    text = target.read_text()
    right = 'return {"K1": K1, "L1": L1, "K2": K2, "L2": L2}'
    assert right in text
    target.write_text(text.replace(right, right.replace('"K1": K1', '"K1": K1 * 1.001')))

    stdout, result = _run(tmp_path, "model_based", 0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 3
    assert "Riccati gain K1" in stdout
    assert "error_rate 1 " in stdout


def test_self_time_subtracts_children_and_nested_names_count_once():
    table = {"names": ["a", "b", "a", "c"], "starts": [0.0, 1.0, 2.0, 5.0],
             "ends": [10.0, 4.0, 3.0, 6.0], "parents": [-1, 0, 1, -1], "work": {}}
    stats = spans.span_stats(table)
    assert stats["a"].calls == 2 and stats["a"].total == 10.0
    assert stats["a"].self_total == (10.0 - 3.0) + 1.0
    assert stats["b"].self_total == 3.0 - 1.0
    assert stats["c"].pct_ms(0.5) == 1000.0
