"""Command-line surface: synth, train, recommend, stability, value, lifecycle, curve.

Every command is driven by one YAML config (checked-in experiment recipes run
as-is) and is idempotent: identical config and inputs produce byte-identical
output files, regardless of ``--jobs``. Each command prints its run summary to
stdout as one JSON document (``atomic.json_text``).
"""

from __future__ import annotations

import functools
import logging
from pathlib import Path

import click

from . import curve, kpi, lifecycle, sensitivity, synthgen
from .atomic import atomic_open, json_text, write_csv, write_json
from .config import LifecycleSection, RunConfig, load_run_config
from .corpus import (
    Dataset,
    EvalLog,
    load_dataset,
    read_eval_log,
    require_in_catalog,
    write_dataset,
    write_eval_log,
)
from .errors import SessionValueError
from .sensitivity import CorEngine, VrEngine
from .synthgen import write_truth

log = logging.getLogger(__name__)


@click.group()
def main() -> None:
    """Session-level data valuation for item-to-item recommenders."""
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")


def _wrap_errors(fn):
    @functools.wraps(fn)
    def inner(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except SessionValueError as exc:
            raise click.ClickException(str(exc)) from exc

    return inner


def _common_options(fn):
    fn = click.option(
        "--config", "config_path", required=True,
        type=click.Path(exists=True, dir_okay=False), help="Run config (YAML).",
    )(fn)
    fn = click.option(
        "--out", "out_override", default=None, type=click.Path(file_okay=False),
        help="Output directory (overrides the config's output_dir).",
    )(fn)
    return fn


def _prepare(config_path: str, out_override: str | None) -> tuple[RunConfig, Path]:
    rc = load_run_config(config_path)
    if out_override is not None:
        out_dir = Path(out_override)
    elif rc.output_dir is not None:
        out_dir = rc.output_dir
    else:
        raise click.ClickException("no output directory: set output_dir in the config or pass --out")
    out_dir.mkdir(parents=True, exist_ok=True)
    return rc, out_dir


def _require_file(path: Path) -> Path:
    if not path.is_file():
        raise click.ClickException(f"input file not found: {path}")
    return path


def _read_eval(path: Path, dataset: Dataset) -> EvalLog:
    eval_log = read_eval_log(path)
    require_in_catalog(eval_log.products, dataset.catalog)
    return eval_log


def _load_data(rc: RunConfig, out_dir: Path, need_eval: bool = True):
    """The dataset and, when ``need_eval``, a zero-argument loader of the eval
    log checked against its catalog (else None). Every input file must exist
    before anything is read."""
    names = ("sessions", "catalog", "eval") if need_eval else ("sessions", "catalog")
    paths = [_require_file(rc.input_path(name, out_dir)) for name in names]
    dataset = load_dataset(paths[0], paths[1])
    if not need_eval:
        return dataset, None
    return dataset, functools.partial(_read_eval, paths[2], dataset)


def _engine(rc: RunConfig, name: str):
    return CorEngine() if name == "cor" else VrEngine(hyper=rc.hyper)


@main.command()
@_common_options
@_wrap_errors
def synth(config_path: str, out_override: str | None) -> None:
    """Generate the synthetic dataset, eval log and ground truth."""
    rc, out_dir = _prepare(config_path, out_override)
    if rc.synth is None:
        raise click.ClickException("config has no synth section (rng_seed and counts required)")
    dataset, eval_log, truth, _ = synthgen.synthesize(rc.synth, rc.plants, rc.harness.k, rc.hyper)

    write_dataset(dataset, out_dir / "sessions.jsonl", out_dir / "catalog.jsonl")
    write_eval_log(eval_log, out_dir / "eval.jsonl")
    write_truth(truth, out_dir / "truth.json")

    summary = {
        "n_sessions": len(dataset.sessions),
        "n_products": len(dataset.catalog.products),
        "mean_session_length": kpi.mean(s.length for s in dataset.sessions),
        "n_eval_sessions": len(eval_log.sessions),
        "planted": [[sid, kind.value] for sid, kind in truth.planted],
        "out_dir": str(out_dir),
    }
    click.echo(json_text(summary), nl=False)


@main.command()
@_common_options
@click.option("--engine", type=click.Choice(["cor", "vr"]), required=True)
@_wrap_errors
def train(config_path: str, out_override: str | None, engine: str) -> None:
    """Train one recommender and write its canonical model dump."""
    rc, out_dir = _prepare(config_path, out_override)
    dataset, _ = _load_data(rc, out_dir, need_eval=False)
    eng = _engine(rc, engine)
    model = eng.fit(dataset)
    filename = "cor_matrix.tsv" if engine == "cor" else "vr_model.txt"
    with atomic_open(out_dir / filename, "wb") as fh:
        fh.write(eng.serialize(model))
    n_products = (
        len(model.session_membership) if engine == "cor" else len(model.vocabulary)
    )
    summary = {"engine": engine, "n_products": n_products, "model_file": str(out_dir / filename)}
    click.echo(json_text(summary), nl=False)


@main.command()
@_common_options
@click.option("--engine", type=click.Choice(["cor", "vr"]), required=True)
@_wrap_errors
def recommend(config_path: str, out_override: str | None, engine: str) -> None:
    """Write the top-k lists of every seed product as CSV."""
    rc, out_dir = _prepare(config_path, out_override)
    dataset, _ = _load_data(rc, out_dir, need_eval=False)
    eng = _engine(rc, engine)
    topk = eng.top_k_map(eng.fit(dataset), rc.harness.k)
    out_path = out_dir / f"recs_{engine}.csv"
    write_csv(out_path, ("seed", "rank", "product", "score"), (
        (seed, rank, product, score)
        for seed in sorted(topk)
        for rank, (product, score) in enumerate(topk[seed].items, start=1)
    ))
    summary = {"engine": engine, "n_seeds": len(topk), "recs_file": str(out_path)}
    click.echo(json_text(summary), nl=False)


@main.command()
@_common_options
@_wrap_errors
def stability(config_path: str, out_override: str | None) -> None:
    """Train each engine twice and verify byte-identical models (the stability gate)."""
    rc, out_dir = _prepare(config_path, out_override)
    dataset, _ = _load_data(rc, out_dir, need_eval=False)
    summary = {}
    for name in ("cor", "vr"):
        report = sensitivity.verify_stability(dataset, _engine(rc, name), rc.harness.k)
        summary[name] = {"stable": report.stable, "detail": report.detail}
    write_json(out_dir / "stability.json", summary)
    click.echo(json_text(summary), nl=False)
    if not all(r["stable"] for r in summary.values()):
        raise click.ClickException("stability gate failed")


@main.command()
@_common_options
@click.option("--engine", type=click.Choice(["cor", "vr"]), required=True)
@click.option("--jobs", default=1, show_default=True, type=click.IntRange(min=1),
              help="Threads training the vr baseline and the vr sessions' retrains; "
                   "cor always prices in the calling thread.")
@_wrap_errors
def value(config_path: str, out_override: str | None, engine: str, jobs: int) -> None:
    """Leave-one-out session valuation: records, histogram and summary files."""
    rc, out_dir = _prepare(config_path, out_override)
    dataset, load_eval = _load_data(rc, out_dir)
    eng = _engine(rc, engine)
    session_ids = sensitivity.sessions_to_price(eng, dataset, rc.harness)
    records = sensitivity.run_loo(eng, dataset, load_eval, rc.harness, jobs=jobs, session_ids=session_ids)
    hist = sensitivity.histogram(records, rc.harness)
    sensitivity.write_records_csv(records, out_dir / f"records_{engine}.csv")
    sensitivity.write_histogram_csv(hist, out_dir / f"histogram_{engine}.csv")
    summary = sensitivity.summarize(records)
    summary["engine"] = engine
    write_json(out_dir / f"summary_{engine}.json", summary)
    click.echo(json_text(summary), nl=False)


def _check_cohort(dataset: Dataset, section: LifecycleSection) -> None:
    """Refuse, before any trajectory is computed, a cohort day without
    sessions and an ``hr_level`` that a cohort product's category path lacks."""
    day, cohort = lifecycle.cohort_of(dataset, section.plan)
    if not cohort:
        raise click.ClickException(
            f"lifecycle.cohort_day {day} holds no session; "
            f"the data covers days {dataset.min_day} to {dataset.max_day}"
        )
    if section.hr_level is not None:
        for product in sorted(frozenset().union(*(s.unique_products for s in cohort))):
            dataset.catalog.token_at(product, section.hr_level)


@main.command(name="lifecycle")
@_common_options
@_wrap_errors
def lifecycle_cmd(config_path: str, out_override: str | None) -> None:
    """Rolling-window CV trajectories and impact-class statistics."""
    rc, out_dir = _prepare(config_path, out_override)
    dataset, _ = _load_data(rc, out_dir, need_eval=False)
    _check_cohort(dataset, rc.lifecycle)
    trajs = lifecycle.trajectories(dataset, rc.lifecycle.plan, k=rc.lifecycle.k)
    stats = lifecycle.class_stats(trajs, dataset, hr_level=rc.lifecycle.hr_level)
    lifecycle.write_trajectories_csv(trajs, out_dir / "trajectories.csv")
    lifecycle.write_class_stats_csv(stats, out_dir / "lifecycle_stats.csv")
    summary = {
        "cohort_size": stats.cohort_size,
        "classes": {row.impact.value: row.n_sessions for row in stats.rows},
    }
    click.echo(json_text(summary), nl=False)


@main.command(name="curve")
@_common_options
@_wrap_errors
def curve_cmd(config_path: str, out_override: str | None) -> None:
    """Learning-curve KPI table and feature-scaled plot data."""
    rc, out_dir = _prepare(config_path, out_override)
    if rc.curve is None:
        raise click.ClickException("config has no curve section (day_grid required)")
    dataset, load_eval = _load_data(rc, out_dir)
    rows = curve.run_curve(dataset, rc.curve, load_eval)
    curve.write_table_csv(rows, out_dir / "curve_table.csv")
    curve.write_curves_csv(curve.emit_curves(rows), out_dir / "curve_scaled.csv")
    summary = {
        "rows": [
            {
                "n_days": row.days,
                "n_sessions": row.n_sessions,
                "n_products": row.n_products,
                "snp": row.snp,
                "cr": row.cr,
            }
            for row in rows
        ]
    }
    click.echo(json_text(summary), nl=False)


if __name__ == "__main__":
    main()
