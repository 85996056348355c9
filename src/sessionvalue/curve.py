"""Learning-curve experiment: nested backwards-growing slices, one VR model each.

All grid entries share the same most recent day, so added data are strictly
historical sessions and slices are nested. Each entry gives one ``CurveRow``,
whose fields are the table's columns in order: the slice's days and sessions,
model coverage (#products), the fraction of newly added sessions carrying
products unseen by the previous smaller model (SNP), conversion rate, revenue
figures, the CPU seconds of the training thread and mean session length.
"""

from __future__ import annotations

import logging
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass, fields
from pathlib import Path
from typing import Callable, Sequence

from . import embed, kpi
from .atomic import write_csv
from .corpus import Dataset, EvalLog, slice_days
from .errors import EmptySliceError

log = logging.getLogger(__name__)

@dataclass(frozen=True)
class CurvePlan:
    day_grid: tuple[int, ...]
    hyper: embed.Hyperparams
    end_day: int | None = None  # None: the dataset's last day
    k: int = 5
    unit_value: float = 1.0

    def __post_init__(self) -> None:
        if not self.day_grid:
            raise ValueError("day_grid must be non-empty")
        if any(n < 1 for n in self.day_grid):
            raise ValueError("day_grid entries must be >= 1")
        if any(b <= a for a, b in zip(self.day_grid, self.day_grid[1:])):
            raise ValueError("day_grid must be strictly ascending")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.unit_value <= 0:
            raise ValueError(f"unit_value must be > 0, got {self.unit_value}")


@dataclass(frozen=True)
class CurveRow:
    """One model of the curve; the fields are the table's columns, in order."""

    days: int
    n_sessions: int
    n_products: int
    snp: float
    cr: float
    revenue: float
    revenue_per_session: float
    cpu_seconds: float
    avg_session_length: float


def _train(sliced: Dataset, hyper: embed.Hyperparams, n_days: int) -> tuple[embed.EmbeddingModel, float]:
    """One grid entry's model and the CPU seconds of its training thread."""
    started = time.thread_time()
    try:
        model = embed.train(sliced, hyper)
    except Exception as exc:
        exc.add_note(f"while training the learning-curve model of the last {n_days} days")
        raise
    return model, time.thread_time() - started


def run_curve(dataset: Dataset, plan: CurvePlan, load_eval: Callable[[], EvalLog]) -> list[CurveRow]:
    """One row per grid entry. SNP compares the sessions added since the
    previous (smaller) slice against the previous model's product set; the
    first row is the baseline against the empty set and reports 1.0.

    Every slice is taken before any model trains, so an empty one raises
    ``EmptySliceError`` first. The models then train in a pool of one thread
    per available CPU, up to the grid size (``ctypes`` releases the GIL for
    the kernel call), largest slice first, while this thread calls
    ``load_eval`` and indexes the eval log. Ranking and the KPIs follow in grid
    order. Trainings are deterministic, so no output depends on the thread
    count; an error in ``load_eval`` cancels the trainings not yet started.
    """
    end_day = dataset.max_day if plan.end_day is None else plan.end_day
    slices = []
    for n_days in plan.day_grid:
        sliced = slice_days(dataset, end_day=end_day, n_days=n_days)
        if not sliced.sessions:
            raise EmptySliceError(n_days)
        slices.append(sliced)
    embed.load_kernel()
    pool = ThreadPoolExecutor(max_workers=min(len(slices), len(os.sched_getaffinity(0))))
    try:
        trained = {
            n_days: pool.submit(_train, sliced, plan.hyper, n_days)
            for n_days, sliced in reversed(list(zip(plan.day_grid, slices)))
        }
        eval_index = kpi.index_eval(load_eval())
        rows: list[CurveRow] = []
        prev_products: frozenset[str] = frozenset()
        prev_session_ids: set[str] = set()
        for n_days, sliced in zip(plan.day_grid, slices):
            model, cpu_seconds = trained[n_days].result()
            recs = embed.all_top_k_similar(model, plan.k)
            cr = kpi.rate_from_totals(*kpi.totals(eval_index, recs))
            n_products = len(model.vocabulary)
            total_revenue = kpi.revenue(n_products, cr, plan.unit_value)
            added = [s for s in sliced.sessions if s.session_id not in prev_session_ids]
            rows.append(CurveRow(
                days=n_days,
                n_sessions=len(sliced.sessions),
                n_products=n_products,
                snp=kpi.snp(prev_products, added),
                cr=cr,
                revenue=total_revenue,
                revenue_per_session=kpi.revenue_per_session(total_revenue, len(sliced.sessions)),
                cpu_seconds=cpu_seconds,
                avg_session_length=kpi.mean(s.length for s in sliced.sessions),
            ))
            prev_products = frozenset(model.vocabulary.products)
            prev_session_ids = {s.session_id for s in sliced.sessions}
    finally:
        pool.shutdown(cancel_futures=True)
    return rows


def emit_curves(rows: Sequence[CurveRow]) -> list[tuple[int, str, float, float]]:
    """Feature-scaled plot data: one (days, kpi, raw, scaled) tuple per point,
    for every column after ``days``."""
    if len(rows) < 2:
        log.warning("emit_curves with %d row(s); scaled columns are degenerate", len(rows))
    out: list[tuple[int, str, float, float]] = []
    for field in fields(CurveRow)[1:]:
        raw = [float(getattr(row, field.name)) for row in rows]
        scaled = kpi.feature_scale(raw)
        for row, r, s in zip(rows, raw, scaled):
            out.append((row.days, field.name, r, s))
    return out


def write_table_csv(rows: Sequence[CurveRow], path: str | Path) -> None:
    """The KPI table: one row per model, one column per ``CurveRow`` field."""
    write_csv(path, [f.name for f in fields(CurveRow)], map(astuple, rows))


def write_curves_csv(points: Sequence[tuple[int, str, float, float]], path: str | Path) -> None:
    write_csv(path, ("n_days", "kpi_name", "raw", "scaled"), points)
