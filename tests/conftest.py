from __future__ import annotations

from pathlib import Path

import pytest

from sessionvalue.config import load_run_config
from sessionvalue.synthgen import synthesize

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
BENCHMARK_CONFIG = CONFIG_DIR / "benchmark.yaml"
SMOKE_CONFIG = CONFIG_DIR / "smoke.yaml"


@pytest.fixture(scope="session")
def benchmark_rc():
    return load_run_config(BENCHMARK_CONFIG)


@pytest.fixture(scope="session")
def benchmark_data(benchmark_rc):
    """The pinned benchmark fixture: generated data plus oracle-verified plants."""
    rc = benchmark_rc
    return synthesize(rc.synth, rc.plants, rc.harness.k, rc.hyper)
