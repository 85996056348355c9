"""Learning-curve experiment: nested backwards-growing slices, one VR model each.

All grid entries share the same most recent day, so added data are strictly
historical sessions and slices are nested. Per entry the run reports model
coverage (#products), conversion rate, revenue figures, the fraction of newly
added sessions carrying products unseen by the previous smaller model (SNP),
mean session length and the wall-clock seconds of the training call.
"""

from __future__ import annotations

import csv
import logging
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from . import embed, kpi
from .corpus import Dataset, EvalLog, slice_days
from .errors import EmptySliceError

log = logging.getLogger(__name__)

@dataclass(frozen=True)
class CurvePlan:
    day_grid: tuple[int, ...]
    hyper: embed.Hyperparams
    end_day: int | None = None  # None: the dataset's last day
    k: int = 5
    correction_c: float = 1.0
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


@dataclass(frozen=True)
class CurveRow:
    n_days: int
    report: kpi.KpiReport
    avg_session_length: float
    snp_baseline: bool


def run_curve(dataset: Dataset, eval_log: EvalLog, plan: CurvePlan) -> list[CurveRow]:
    """One row per grid entry. SNP compares the sessions added since the
    previous (smaller) slice against the previous model's product set; the
    first row is the baseline against the empty set and reports 1.0."""
    rows: list[CurveRow] = []
    prev_products: frozenset[str] = frozenset()
    prev_session_ids: set[str] = set()
    first = True
    end_day = dataset.max_day if plan.end_day is None else plan.end_day
    for n_days in plan.day_grid:
        sliced = slice_days(dataset, end_day=end_day, n_days=n_days)
        if not sliced.sessions:
            raise EmptySliceError(n_days)
        started = time.perf_counter()
        model = embed.train(sliced, plan.hyper)
        cpu_seconds = time.perf_counter() - started

        recs = embed.all_top_k_similar(model, plan.k)
        cr = kpi.conversion_rate(kpi.aggregate_pairs(recs, eval_log), plan.correction_c)
        n_products = len(model.vocabulary)
        total_revenue = kpi.revenue(n_products, cr, plan.unit_value)
        added = [s for s in sliced.sessions if s.session_id not in prev_session_ids]
        snp = kpi.snp(prev_products, added)
        report = kpi.KpiReport(
            n_products=n_products,
            cr=cr,
            revenue=total_revenue,
            revenue_per_session=kpi.revenue_per_session(total_revenue, len(sliced.sessions)),
            snp=snp,
            cpu_seconds=cpu_seconds,
            n_sessions=len(sliced.sessions),
        )
        avg_len = kpi.mean(s.length for s in sliced.sessions)
        rows.append(
            CurveRow(n_days=n_days, report=report, avg_session_length=avg_len, snp_baseline=first)
        )
        prev_products = frozenset(model.vocabulary.products)
        prev_session_ids = {s.session_id for s in sliced.sessions}
        first = False
    return rows


SCALED_KPIS = (
    "n_sessions",
    "n_products",
    "snp",
    "cr",
    "revenue",
    "revenue_per_session",
    "cpu_seconds",
    "avg_session_length",
)


def _kpi_value(row: CurveRow, name: str) -> float:
    if name == "avg_session_length":
        return row.avg_session_length
    return float(getattr(row.report, name))


def emit_curves(rows: Sequence[CurveRow]) -> list[tuple[int, str, float, float]]:
    """Feature-scaled plot data: one (n_days, kpi, raw, scaled) tuple per point."""
    if len(rows) < 2:
        log.warning("emit_curves with %d row(s); scaled columns are degenerate", len(rows))
    out: list[tuple[int, str, float, float]] = []
    for name in SCALED_KPIS:
        raw = [_kpi_value(row, name) for row in rows]
        scaled = kpi.feature_scale(raw)
        for row, r, s in zip(rows, raw, scaled):
            out.append((row.n_days, name, r, s))
    return out


def write_table_csv(rows: Sequence[CurveRow], path: str | Path) -> None:
    """The KPI table: one row per model, kpi report columns plus mean length."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(kpi.REPORT_COLUMNS) + ["avg_session_length"])
        for row in rows:
            writer.writerow(kpi.report_row(row.n_days, row.report) + [repr(row.avg_session_length)])


def write_curves_csv(points: Sequence[tuple[int, str, float, float]], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("n_days", "kpi_name", "raw", "scaled"))
        for n_days, name, raw, scaled in points:
            writer.writerow((n_days, name, repr(raw), repr(scaled)))
