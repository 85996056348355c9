"""The benchmark's use of the package, run in the package's own test suite.

``perfbench/workloads.py`` builds relabelled sessions with
``Session(session_id=…, clicks=…)`` and ``perfbench/spans.py`` counts tokens
through ``s.clicks``. These tests write each tiny workload's inputs, load them
back, and run the token count, so a change to the session model that breaks
the benchmark fails here.

``perfbench/checks.py`` checks a pass's outputs with oracles that read the
package's return values, such as ``build_vocab(...).products`` and
``aggregate_pairs``. The last test runs each tiny workload's commands and its
checker, so a change to what those return that breaks the checks fails here.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from sessionvalue.cli import main
from sessionvalue.config import load_run_config
from sessionvalue.corpus import load_dataset, write_dataset

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", sorted(workloads.TINY_SHAPES))
def test_tiny_inputs_load_round_trip_and_count(workload, tmp_path):
    inputs = tmp_path / "in"
    config_path = workloads.write_inputs(workload, 0, workloads.TINY_SHAPES[workload], inputs)
    dataset = load_dataset(inputs / "sessions.jsonl", inputs / "catalog.jsonl")

    write_dataset(dataset, tmp_path / "sessions.jsonl", tmp_path / "catalog.jsonl")
    for name in ("sessions.jsonl", "catalog.jsonl"):
        assert (tmp_path / name).read_bytes() == (inputs / name).read_bytes()

    hyper = load_run_config(config_path).hyper
    tokens, pairs = spans.embed_work([((dataset, hyper), {})])
    assert tokens > 0 and pairs > 0


@pytest.mark.parametrize("workload", sorted(workloads.TINY_SHAPES))
def test_tiny_workload_outputs_pass_the_checks(workload, tmp_path):
    config_path = workloads.write_inputs(workload, 0, workloads.TINY_SHAPES[workload], tmp_path)
    checker = checks.Checker(workload, config_path, tmp_path, 0, pinned=False)
    assert checker.operations > 0
    files = {}
    for name, argv in workloads.commands(workload):
        main.main(args=[*argv, "--config", str(config_path), "--out", str(tmp_path)], standalone_mode=False)
        files.update({f: (tmp_path / f).read_bytes() for f in workloads.OUTPUTS[workload][name]})
    assert checker.check(files) == set()
