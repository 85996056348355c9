from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from click.testing import CliRunner

from sessionvalue import embed, sensitivity, synthgen
from sessionvalue.cli import main

from conftest import BENCHMARK_CONFIG, SMOKE_CONFIG

BASE_CONFIG = """\
synth:
  n_products: 24
  n_categories_top: 3
  n_categories_fine: 6
  n_train_sessions: 50
  n_eval_sessions: 150
  days: 4
  intent_stickiness: 0.85
  session_length_geometric_p: 0.2
  order_base_rate: 0.1
  rng_seed: 21
embed:
  dimensions: 8
  iterations: 1
  min_count: 2
  rng_seed: 5
harness:
  k: 3
  revenue_base: 1000000.0
  sample: [s000005, s000012, s000040]
lifecycle:
  window_days: 3
  n_frames: 2
curve:
  day_grid: [2, 3]
"""
# BASE_CONFIG's sample: 3 of its 50 sessions
SAMPLE = "  sample: [s000005, s000012, s000040]\n"


def run_without_kernel(tmp_path, command):
    """Run ``command`` on the golden benchmark inputs in a subprocess with a
    private temporary directory. Asserts that it succeeds, that no kernel
    cache directory appears there and that the process never loads the
    ``vr`` kernel."""
    golden = Path(__file__).resolve().parent / "golden" / "benchmark"
    for name in ("sessions.jsonl", "catalog.jsonl", "eval.jsonl"):
        shutil.copyfile(golden / name, tmp_path / name)
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    script = (
        "import sys\n"
        "from sessionvalue import embed\n"
        "from sessionvalue.cli import main\n"
        "main.main(args=sys.argv[1:], standalone_mode=False)\n"
        "assert embed._kernel is None, 'the kernel was loaded'\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "TMPDIR": str(tmp)}
    done = subprocess.run(
        [sys.executable, "-c", script, *command,
         "--config", str(BENCHMARK_CONFIG), "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert list(tmp.iterdir()) == []


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def workspace(tmp_path, runner):
    config = tmp_path / "run.yaml"
    config.write_text(BASE_CONFIG)
    out = tmp_path / "out"
    result = runner.invoke(main, ["synth", "--config", str(config), "--out", str(out)])
    assert result.exit_code == 0, result.output
    return config, out


def read_bytes(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()}


@pytest.mark.parametrize("command", [
    ["synth"],
    ["train", "--engine", "cor"],
    ["recommend", "--engine", "vr"],
    ["stability"],
    ["value", "--engine", "cor"],
    ["lifecycle"],
    ["curve"],
], ids=lambda command: command[0])
def test_stdout_is_one_json_document(workspace, runner, command):
    """Every command prints its run summary, and nothing else, as one JSON
    object; ``value`` prints the bytes of its summary file."""
    config, out = workspace
    result = runner.invoke(main, command + ["--config", str(config), "--out", str(out)])
    assert result.exit_code == 0, result.output
    summary = json.loads(result.stdout)
    assert isinstance(summary, dict) and summary
    if command[0] == "synth":
        assert summary["n_sessions"] == 50
    if command[0] == "value":
        assert result.stdout_bytes == (out / "summary_cor.json").read_bytes()


class TestSynth:
    def test_writes_all_files(self, workspace):
        _, out = workspace
        for name in ("sessions.jsonl", "catalog.jsonl", "eval.jsonl", "truth.json"):
            assert (out / name).is_file()

    def test_rerun_byte_identical(self, workspace, runner, tmp_path):
        config, out = workspace
        first = read_bytes(out)
        out2 = tmp_path / "out2"
        result = runner.invoke(main, ["synth", "--config", str(config), "--out", str(out2)])
        assert result.exit_code == 0
        assert read_bytes(out2) == first

    def test_missing_rng_seed_names_key(self, runner, tmp_path):
        config = tmp_path / "bad.yaml"
        config.write_text("synth:\n  n_products: 5\n")
        result = runner.invoke(main, ["synth", "--config", str(config), "--out", str(tmp_path / "o")])
        assert result.exit_code != 0
        assert "rng_seed" in result.output

    def test_unknown_key_rejected(self, runner, tmp_path):
        config = tmp_path / "bad.yaml"
        config.write_text(BASE_CONFIG + "bogus_section: 1\n")
        result = runner.invoke(main, ["synth", "--config", str(config), "--out", str(tmp_path / "o")])
        assert result.exit_code != 0
        assert "bogus_section" in result.output

    def test_invalidated_duplicate_plant_exits_1(self, runner, tmp_path, monkeypatch):
        check = synthgen.duplicates_still_no_impact
        monkeypatch.setattr(
            synthgen, "duplicates_still_no_impact",
            lambda dataset, sid, k: "toxic-000" not in dataset.by_id and check(dataset, sid, k),
        )
        config = tmp_path / "plants.yaml"
        config.write_text(BASE_CONFIG + "plants:\n  toxic:\n    rng_seed: 3\n  duplicates: {}\n")
        out = tmp_path / "o"
        result = runner.invoke(main, ["synth", "--config", str(config), "--out", str(out)])
        assert result.exit_code == 1
        assert "Error: toxic plant invalidated the duplicate plant" in result.output
        assert list(out.iterdir()) == []


class TestTrainRecommend:
    def test_train_both_engines(self, workspace, runner):
        config, out = workspace
        for engine, filename in (("cor", "cor_matrix.tsv"), ("vr", "vr_model.txt")):
            result = runner.invoke(
                main, ["train", "--config", str(config), "--out", str(out), "--engine", engine]
            )
            assert result.exit_code == 0, result.output
            assert (out / filename).is_file()

    def test_recommend_lists_have_k_bound(self, workspace, runner):
        config, out = workspace
        result = runner.invoke(
            main, ["recommend", "--config", str(config), "--out", str(out), "--engine", "cor"]
        )
        assert result.exit_code == 0
        with open(out / "recs_cor.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        assert all(1 <= int(r["rank"]) <= 3 for r in rows)


class TestStability:
    def test_pass_pass(self, workspace, runner):
        config, out = workspace
        result = runner.invoke(main, ["stability", "--config", str(config), "--out", str(out)])
        assert result.exit_code == 0, result.output
        summary = json.loads(result.stdout)
        assert summary["cor"]["stable"] and summary["vr"]["stable"]
        assert json.loads((out / "stability.json").read_text()) == summary


class TestValue:
    def test_cor_counts_conserved(self, workspace, runner):
        config, out = workspace
        result = runner.invoke(
            main, ["value", "--config", str(config), "--out", str(out), "--engine", "cor"]
        )
        assert result.exit_code == 0, result.output
        summary = json.loads((out / "summary_cor.json").read_text())
        assert summary["n_records"] == 50
        assert sum(summary["constellations"].values()) == 50
        with open(out / "records_cor.csv") as fh:
            assert len(list(csv.DictReader(fh))) == 50

    def test_vr_jobs_2_starts_no_process(self, runner, tmp_path, monkeypatch):
        """``--jobs 2`` prices ``vr`` deltas in threads: every way CPython
        starts a process on POSIX is patched to raise, and the records are
        the smoke golden's."""
        posixsubprocess = pytest.importorskip("_posixsubprocess")
        smoke, out = str(SMOKE_CONFIG), str(tmp_path)
        assert runner.invoke(main, ["synth", "--config", smoke, "--out", out]).exit_code == 0
        embed.load_kernel()  # a first use may compile it, in a child process

        def no_process(*args, **kwargs):
            raise AssertionError("a process was started")

        for module, name in [(os, "fork"), (os, "posix_spawn"), (os, "posix_spawnp"),
                             (posixsubprocess, "fork_exec")]:
            monkeypatch.setattr(module, name, no_process)
        result = runner.invoke(
            main, ["value", "--config", smoke, "--out", out, "--engine", "vr", "--jobs", "2"]
        )
        assert result.exit_code == 0, result.output
        golden = Path(__file__).resolve().parent / "golden" / "smoke" / "records_vr.csv"
        assert (tmp_path / "records_vr.csv").read_bytes() == golden.read_bytes()

    def test_eval_product_missing_from_catalog_rejected(self, workspace, runner):
        config, out = workspace
        with open(out / "eval.jsonl", "a", encoding="utf-8") as fh:
            fh.write('{"session_id":"e-ghost","viewed":["ghost"],"ordered":[]}\n')
        result = runner.invoke(
            main, ["value", "--config", str(config), "--out", str(out), "--engine", "cor"]
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # a clean exit, no traceback
        assert "Error: product 'ghost' is not in the catalog" in result.output

    def test_vr_eval_product_missing_from_catalog_is_one_error_line_and_no_records(
        self, workspace, runner
    ):
        """At ``--jobs 2`` the eval log is read while the ``vr`` models train;
        its error still ends the command with one line, writes no records and
        leaves no thread."""
        config, out = workspace
        with open(out / "eval.jsonl", "a", encoding="utf-8") as fh:
            fh.write('{"session_id":"e-ghost","viewed":["ghost"],"ordered":[]}\n')
        threads = threading.active_count()
        result = runner.invoke(main, [
            "value", "--config", str(config), "--out", str(out), "--engine", "vr", "--jobs", "2",
        ])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # a clean exit, no traceback
        [line] = result.stderr.splitlines()
        assert line.startswith("Error: product 'ghost' is not in the catalog")
        assert not (out / "records_vr.csv").exists()
        assert threading.active_count() == threads

    def test_nesting_too_deep_is_one_error_line(self, workspace, runner):
        config, out = workspace
        n_lines = len((out / "sessions.jsonl").read_bytes().splitlines())
        with open(out / "sessions.jsonl", "a", encoding="utf-8") as fh:
            fh.write("[" * 200_000 + "\n")
        result = runner.invoke(main, ["lifecycle", "--config", str(config), "--out", str(out)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # a clean exit, no traceback
        [line] = result.stderr.splitlines()
        assert line.startswith(f"Error: {out / 'sessions.jsonl'}:{n_lines + 1}: malformed session line")
        assert "recursion" in line

    def test_vr_uses_sample(self, workspace, runner):
        config, out = workspace
        result = runner.invoke(
            main, ["value", "--config", str(config), "--out", str(out), "--engine", "vr"]
        )
        assert result.exit_code == 0, result.output
        summary = json.loads((out / "summary_vr.json").read_text())
        assert summary["n_records"] == 3

    def test_vr_exhaustive_guard(self, workspace, runner, tmp_path, monkeypatch):
        config, out = workspace
        monkeypatch.setattr(sensitivity, "VR_EXHAUSTIVE_LIMIT", 10)
        # same config minus the sample: 50 sessions > VR_EXHAUSTIVE_LIMIT 10
        text = BASE_CONFIG.replace(SAMPLE, "")
        guard_config = tmp_path / "guard.yaml"
        guard_config.write_text(text)
        result = runner.invoke(
            main, ["value", "--config", str(guard_config), "--out", str(out), "--engine", "vr"]
        )
        assert result.exit_code != 0
        assert "tractable" in result.output

    def test_vr_unknown_sample_id_reported(self, workspace, runner, tmp_path):
        config, out = workspace
        text = BASE_CONFIG.replace(SAMPLE, "  sample: [nope]\n")
        bad_config = tmp_path / "bad.yaml"
        bad_config.write_text(text)
        result = runner.invoke(
            main, ["value", "--config", str(bad_config), "--out", str(out), "--engine", "vr"]
        )
        assert result.exit_code != 0
        assert "'nope'" in result.output

    def test_out_of_range_config_rejected_at_load(self, workspace, runner, tmp_path):
        _, out = workspace
        bad_config = tmp_path / "bad.yaml"
        bad_config.write_text(BASE_CONFIG.replace("  k: 3\n", "  k: 0\n"))
        result = runner.invoke(
            main, ["value", "--config", str(bad_config), "--out", str(out), "--engine", "cor"]
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # a clean exit, no traceback
        assert "Error: config key 'harness.k'" in result.output

    def test_cor_value_never_loads_scipy(self, tmp_path):
        golden = Path(__file__).resolve().parent / "golden" / "benchmark"
        for name in ("sessions.jsonl", "catalog.jsonl", "eval.jsonl"):
            shutil.copyfile(golden / name, tmp_path / name)
        script = (
            "import sys\n"
            "from sessionvalue.cli import main\n"
            "main.main(args=sys.argv[1:], standalone_mode=False)\n"
            "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        done = subprocess.run(
            [sys.executable, "-c", script, "value", "--engine", "cor",
             "--config", str(BENCHMARK_CONFIG), "--out", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "records_cor.csv").is_file()

    def test_cor_value_never_builds_or_loads_kernel(self, tmp_path):
        """``cor`` trains nothing, so it must not pay for the ``vr`` kernel."""
        run_without_kernel(tmp_path, ["value", "--engine", "cor"])
        assert (tmp_path / "records_cor.csv").is_file()

    def test_histogram_counts_match_records(self, workspace, runner):
        config, out = workspace
        result = runner.invoke(
            main, ["value", "--config", str(config), "--out", str(out), "--engine", "cor"]
        )
        assert result.exit_code == 0
        with open(out / "histogram_cor.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert sum(int(r["count"]) for r in rows) == 50
        assert rows[0]["bin_lo"] == "neutral"


class TestLifecycleCommand:
    def test_percentages_sum(self, workspace, runner):
        config, out = workspace
        result = runner.invoke(main, ["lifecycle", "--config", str(config), "--out", str(out)])
        assert result.exit_code == 0, result.output
        with open(out / "lifecycle_stats.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert sum(float(r["percentage"]) for r in rows) == pytest.approx(100.0, abs=0.1)

    @pytest.mark.parametrize(
        "setting, message",
        [
            ("hr_level: 9", "has no category at level 9"),
            ("cohort_day: 400", "lifecycle.cohort_day 400 holds no session; the data covers days 0 to 3"),
        ],
    )
    def test_unusable_cohort_fails_before_any_trajectory(
        self, workspace, runner, monkeypatch, setting, message
    ):
        config, out = workspace
        config.write_text(BASE_CONFIG.replace("lifecycle:\n", f"lifecycle:\n  {setting}\n"))

        def never(*args, **kwargs):
            raise AssertionError("trajectories computed")

        monkeypatch.setattr("sessionvalue.lifecycle.trajectories", never)
        result = runner.invoke(main, ["lifecycle", "--config", str(config), "--out", str(out)])
        assert result.exit_code != 0
        assert message in result.output
        assert not (out / "trajectories.csv").exists()
        assert not (out / "lifecycle_stats.csv").exists()

    def test_never_builds_or_loads_kernel(self, tmp_path):
        """The lifecycle study ranks ``cor`` counts only; it must not pay for
        the ``vr`` kernel."""
        run_without_kernel(tmp_path, ["lifecycle"])
        assert (tmp_path / "trajectories.csv").is_file()


class TestCurveCommand:
    def test_rows_match_grid(self, workspace, runner):
        config, out = workspace
        result = runner.invoke(main, ["curve", "--config", str(config), "--out", str(out)])
        assert result.exit_code == 0, result.output
        with open(out / "curve_table.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["days"] for r in rows] == ["2", "3"]
        assert (out / "curve_scaled.csv").is_file()

    def test_missing_inputs_reported(self, runner, tmp_path):
        config = tmp_path / "run.yaml"
        config.write_text(BASE_CONFIG)
        result = runner.invoke(
            main, ["curve", "--config", str(config), "--out", str(tmp_path / "empty")]
        )
        assert result.exit_code != 0
        assert "not found" in result.output

    def test_missing_eval_log_reported_before_any_training(self, workspace, runner, monkeypatch):
        config, out = workspace
        (out / "eval.jsonl").unlink()
        monkeypatch.setattr(embed, "train", lambda *args: pytest.fail("a model trained"))
        result = runner.invoke(main, ["curve", "--config", str(config), "--out", str(out)])
        assert result.exit_code == 1
        assert result.stderr == f"Error: input file not found: {out / 'eval.jsonl'}\n"

    def test_malformed_eval_log_is_one_error_line_and_no_curve(self, workspace, runner):
        """The eval log is read while the models train; its error still ends
        the command with one line, writes no curve file and leaves no thread."""
        config, out = workspace
        n_lines = len((out / "eval.jsonl").read_bytes().splitlines())
        with open(out / "eval.jsonl", "a", encoding="utf-8") as fh:
            fh.write('{"session_id": "e-bad", "viewed": 3}\n')
        threads = threading.active_count()
        result = runner.invoke(main, ["curve", "--config", str(config), "--out", str(out)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # a clean exit, no traceback
        assert result.stderr == (
            f"Error: {out / 'eval.jsonl'}:{n_lines + 1}: malformed eval line "
            "(viewed and ordered must be lists of product ids)\n"
        )
        assert not (out / "curve_table.csv").exists()
        assert not (out / "curve_scaled.csv").exists()
        assert threading.active_count() == threads
