"""Self-test of the benchmark, at tiny shapes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from workloads import SHAPES  # noqa: E402

# The end-to-end figures each workload prints in its table, with their units.
TABLE = {
    "cor-loo": {"priced_per_s": "1/s", "failed_ratio": "ratio"},
    "vr-loo": {"priced_per_s": "1/s", "failed_ratio": "ratio"},
    "studies": {"lifecycle_s": "s", "curve_s": "s", "failed_ratio": "ratio"},
}


def _run(workload: str, trace: bool) -> tuple[list[str], dict]:
    lines = run.format_report(run.run(workload, seed=3, seconds=0.1, trace=trace, tiny=True))
    return lines, json.loads(lines[-1])


def _table(lines: list[str]) -> dict[str, str]:
    """Metric name to unit, from the table lines above the JSON result."""
    return {line.split()[0]: line.split()[-1] for line in lines[1:-1] if len(line.split()) == 3}


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(SHAPES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", list(SHAPES))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    lines, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    table = _table(lines)
    if trace:
        assert table["failed_ratio"] == "ratio"
        if workload == "cor-loo":
            assert any(line.strip().startswith("consistency ok") for line in lines)
    else:
        assert {name: table.get(name) for name in TABLE[workload]} == TABLE[workload]
        assert table["setup_wall_s"] == "s"
        assert all(result["metrics"][name]["value"] > 0 for name in run.END_TO_END)


def test_corrupted_record_counts_as_failed(monkeypatch):
    from sessionvalue import sensitivity

    write = sensitivity.write_records_csv

    def write_then_corrupt(records, path):
        write(records, path)
        lines = Path(path).read_text(encoding="utf-8").splitlines(keepends=True)
        fields = lines[1].rstrip("\n").split(",")
        fields[-1] = "valuable" if fields[-1] == "toxic" else "toxic"
        lines[1] = ",".join(fields) + "\n"
        Path(path).write_text("".join(lines), encoding="utf-8")

    monkeypatch.setattr(sensitivity, "write_records_csv", write_then_corrupt)
    lines, result = _run("cor-loo", False)
    failed_ratio = next(float(line.split()[1]) for line in lines if line.split()[0] == "failed_ratio")
    assert failed_ratio > 0
    assert result["failed"] > 0 and not result["correct"]


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "cor-loo", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
