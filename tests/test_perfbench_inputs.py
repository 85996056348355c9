"""The benchmark's use of ``Session``, run in the package's own test suite.

``perfbench/workloads.py`` builds relabelled sessions with
``Session(session_id=…, clicks=…)`` and ``perfbench/spans.py`` counts tokens
through ``s.clicks``. These tests write each tiny workload's inputs, load them
back, and run the token count, so a change to the session model that breaks
the benchmark fails here.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from sessionvalue.config import load_run_config
from sessionvalue.corpus import load_dataset, write_dataset

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

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
