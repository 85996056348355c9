"""Benchmark workloads: their shapes, their CLI commands and their seeded inputs.

Every workload starts from one pinned corpus per shape, generated by
``synthgen`` with the ``configs/full.yaml`` generator parameters. ``--seed``
relabels that corpus: it permutes the product ids and the session ids. So
every seed costs the same amount of work, while the outputs differ, because
rankings break ties by id, the ``vr`` trainer walks sessions in (day, id)
order and the pinned ``vr`` sample maps to other ids.

Run as a script, this module writes one workload's inputs and run config into
a directory; ``run.py`` does so in a child process so that the generator's
memory does not count towards the measured process.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# configs/full.yaml: synth section without the counts, embed and harness sections.
CORPUS_SEED = 2024
GEN_PARAMS = {
    "n_products": 400,
    "n_categories_top": 8,
    "n_categories_fine": 40,
    "intent_stickiness": 0.85,
    "session_length_geometric_p": 0.15,
    "order_base_rate": 0.05,
}
FULL_EMBED = {
    "dimensions": 200,
    "iterations": 5,
    "window": 5,
    "min_count": 5,
    "initial_learning_rate": 0.025,
    "rounding_digits": 4,
    "rng_seed": 42,
}
TINY_EMBED = {**FULL_EMBED, "dimensions": 16, "iterations": 1, "min_count": 2}
HARNESS = {"k": 5, "neutral_band": 0.0005, "bin_width": 0.001, "revenue_base": 100000000.0}
# Picks the pinned vr sample among the corpus's generation indices.
SAMPLE_SEED = 500
VR_JOBS = 2


@dataclass(frozen=True)
class Shape:
    n_train: int
    n_eval: int
    days: int
    embed: dict = field(default_factory=lambda: FULL_EMBED)
    sample_size: int = 0
    lifecycle: dict | None = None
    day_grid: tuple[int, ...] = ()


SHAPES = {
    "cor-loo": Shape(n_train=400, n_eval=400, days=60),
    "vr-loo": Shape(n_train=600, n_eval=600, days=40, sample_size=2),
    "studies": Shape(
        n_train=4500,
        n_eval=4000,
        days=300,
        lifecycle={"window_days": 51, "n_frames": 50, "k": 5},
        day_grid=(10, 30, 60),
    ),
}

# Small shapes for the benchmark's self-test.
TINY_SHAPES = {
    "cor-loo": Shape(n_train=60, n_eval=60, days=6),
    "vr-loo": Shape(n_train=60, n_eval=60, days=6, embed=TINY_EMBED, sample_size=2),
    "studies": Shape(
        n_train=300,
        n_eval=200,
        days=20,
        embed=TINY_EMBED,
        lifecycle={"window_days": 5, "n_frames": 3, "k": 5},
        day_grid=(2, 5),
    ),
}

# Output files each workload's commands write, by command.
OUTPUTS = {
    "cor-loo": {"value": ("records_cor.csv", "histogram_cor.csv", "summary_cor.json")},
    "vr-loo": {"value": ("records_vr.csv", "histogram_vr.csv", "summary_vr.json")},
    "studies": {
        "lifecycle": ("trajectories.csv", "lifecycle_stats.csv"),
        "curve": ("curve_table.csv", "curve_scaled.csv"),
    },
}


def commands(workload: str, jobs: int = VR_JOBS) -> list[tuple[str, list[str]]]:
    """The CLI invocations of one pass, as (name, argv without --config/--out)."""
    if workload == "cor-loo":
        return [("value", ["value", "--engine", "cor"])]
    if workload == "vr-loo":
        return [("value", ["value", "--engine", "vr", "--jobs", str(jobs)])]
    return [("lifecycle", ["lifecycle"]), ("curve", ["curve"])]


def _relabel(dataset, eval_log, seed: int):
    """Permute product and session ids with a generator keyed by ``seed``."""
    import numpy as np
    from sessionvalue.corpus import Catalog, ClickEvent, Dataset, EvalLog, EvalSession, Session

    rng = np.random.default_rng(seed)
    products = sorted(dataset.catalog.paths)
    pmap = {p: f"p{int(i):04d}" for p, i in zip(products, rng.permutation(len(products)))}
    sids = sorted(s.session_id for s in dataset.sessions)
    smap = {s: f"s{int(i):06d}" for s, i in zip(sids, rng.permutation(len(sids)))}
    sessions = sorted(
        (
            Session(
                session_id=smap[s.session_id],
                clicks=tuple(ClickEvent(t=c.t, product=pmap[c.product]) for c in s.clicks),
            )
            for s in dataset.sessions
        ),
        key=lambda s: (s.day, s.session_id),
    )
    catalog = Catalog(paths={pmap[p]: path for p, path in dataset.catalog.paths.items()})
    evals = tuple(
        EvalSession(
            session_id=e.session_id,
            viewed=frozenset(pmap[p] for p in e.viewed),
            ordered=frozenset(pmap[p] for p in e.ordered),
        )
        for e in eval_log.sessions
    )
    return Dataset(sessions=tuple(sessions), catalog=catalog), EvalLog(sessions=evals), smap


def write_inputs(workload: str, seed: int, shape: Shape, out_dir: Path) -> Path:
    """Generate, relabel and write one workload's inputs; return its config path."""
    import numpy as np
    from sessionvalue.corpus import write_dataset, write_eval_log
    from sessionvalue.synthgen import GenConfig, generate

    dataset, eval_log, _ = generate(
        GenConfig(
            **GEN_PARAMS,
            n_train_sessions=shape.n_train,
            n_eval_sessions=shape.n_eval,
            days=shape.days,
            rng_seed=CORPUS_SEED,
        )
    )
    dataset, eval_log, smap = _relabel(dataset, eval_log, seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_dataset(dataset, out_dir / "sessions.jsonl", out_dir / "catalog.jsonl")
    write_eval_log(eval_log, out_dir / "eval.jsonl")

    config: dict = {"embed": shape.embed, "harness": dict(HARNESS)}
    if shape.sample_size:
        picked = np.random.default_rng(SAMPLE_SEED).choice(
            shape.n_train, size=shape.sample_size, replace=False
        )
        config["harness"]["sample"] = sorted(smap[f"s{int(i):06d}"] for i in picked)
    if shape.lifecycle:
        config["lifecycle"] = shape.lifecycle
    if shape.day_grid:
        config["curve"] = {"day_grid": list(shape.day_grid), "k": HARNESS["k"]}
    config_path = out_dir / "config.yaml"
    # JSON is valid YAML, and load_run_config parses YAML.
    config_path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return config_path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SHAPES))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--tiny", action="store_true", help="use the self-test shape")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    shapes = TINY_SHAPES if args.tiny else SHAPES
    write_inputs(args.workload, args.seed, shapes[args.workload], args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
