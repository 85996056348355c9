"""Golden bytes: the CLI reproduces the checked-in output trees exactly.

``tests/golden/smoke`` is the ``configs/smoke.yaml`` run (synth, vr value,
lifecycle, curve). ``tests/golden/benchmark`` pins the benchmark inputs that
``synth`` writes (plants included), the ``cor`` and ``vr`` valuations,
lifecycle study and learning curve of those inputs, the ``cor`` model dump
and top-k lists, and the ``vr`` model trained on them with the full
hyperparameters (200 dimensions, 5 iterations). Every file must match byte
for byte, except the curve's measured ``cpu_seconds`` column (CPU time of
each training's thread). ``recs_vr.csv`` is not pinned: its cosine scores come
from a BLAS ``gemv``, whose last bits depend on the kernel the host's BLAS
picks.
"""

from __future__ import annotations

import csv
import shutil
from pathlib import Path

from click.testing import CliRunner

from sessionvalue.cli import main

from conftest import BENCHMARK_CONFIG, SMOKE_CONFIG

GOLDEN = Path(__file__).resolve().parent / "golden"
TIMED = ("curve_table.csv", "curve_scaled.csv")


def _invoke(args: list[str]) -> None:
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output


def _without_timing(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if path.name == "curve_scaled.csv":
        return [row for row in rows if row[1] != "cpu_seconds"]
    col = rows[0].index("cpu_seconds")
    return [row[:col] + row[col + 1:] for row in rows]


def _assert_matches(out: Path, golden: Path, names) -> None:
    for name in names:
        if name in TIMED:
            assert _without_timing(out / name) == _without_timing(golden / name), name
        else:
            assert (out / name).read_bytes() == (golden / name).read_bytes(), name


def test_smoke_tree_matches_golden(tmp_path):
    golden = GOLDEN / "smoke"
    for command in (["synth"], ["value", "--engine", "vr"], ["lifecycle"], ["curve"]):
        _invoke(command + ["--config", str(SMOKE_CONFIG), "--out", str(tmp_path)])
    produced = sorted(p.name for p in tmp_path.iterdir())
    assert produced == sorted(p.name for p in golden.iterdir())
    _assert_matches(tmp_path, golden, produced)


def test_benchmark_synth_matches_golden(tmp_path):
    """The benchmark inputs, plants included: a refactor of the plant search
    that picked another plant would change these bytes."""
    _invoke(["synth", "--config", str(BENCHMARK_CONFIG), "--out", str(tmp_path)])
    outputs = ("sessions.jsonl", "catalog.jsonl", "eval.jsonl", "truth.json")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(outputs)
    _assert_matches(tmp_path, GOLDEN / "benchmark", outputs)


def _run_on_benchmark_inputs(tmp_path, command: list[str], outputs: tuple[str, ...]) -> None:
    golden = GOLDEN / "benchmark"
    inputs = ("sessions.jsonl", "catalog.jsonl", "eval.jsonl")
    for name in inputs:
        shutil.copyfile(golden / name, tmp_path / name)
    _invoke(command + ["--config", str(BENCHMARK_CONFIG), "--out", str(tmp_path)])
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(inputs + outputs)
    _assert_matches(tmp_path, golden, outputs)


def test_benchmark_cor_value_matches_golden(tmp_path):
    outputs = ("records_cor.csv", "histogram_cor.csv", "summary_cor.json")
    _run_on_benchmark_inputs(tmp_path, ["value", "--engine", "cor"], outputs)


def test_benchmark_cor_model_matches_golden(tmp_path):
    _run_on_benchmark_inputs(tmp_path, ["train", "--engine", "cor"], ("cor_matrix.tsv",))


def test_benchmark_cor_recs_match_golden(tmp_path):
    _run_on_benchmark_inputs(tmp_path, ["recommend", "--engine", "cor"], ("recs_cor.csv",))


def test_benchmark_vr_model_matches_golden(tmp_path):
    _run_on_benchmark_inputs(tmp_path, ["train", "--engine", "vr"], ("vr_model.txt",))


def test_benchmark_vr_value_matches_golden(tmp_path):
    outputs = ("records_vr.csv", "histogram_vr.csv", "summary_vr.json")
    _run_on_benchmark_inputs(tmp_path, ["value", "--engine", "vr", "--jobs", "2"], outputs)


def test_benchmark_lifecycle_matches_golden(tmp_path):
    outputs = ("trajectories.csv", "lifecycle_stats.csv")
    _run_on_benchmark_inputs(tmp_path, ["lifecycle"], outputs)


def test_benchmark_curve_matches_golden(tmp_path):
    _run_on_benchmark_inputs(tmp_path, ["curve"], TIMED)
