"""Rolling-window impact analysis: CV trajectories and impact classes.

A cohort session's contribution-to-visibility (CV) score counts the ordered
(seed, recommendation) pairs of the session realized in the current model's
top-k lists. Tracking the score over a daily-shifting activity window and
fitting a line yields four impact classes: no impact, stable, increasing,
decreasing.
"""

from __future__ import annotations

import logging
import statistics
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Mapping, Sequence

from .atomic import write_csv
from .cor import RecommendationList, _add_pairs, _rank
from .corpus import Dataset, Session, heterogeneity_ratio
from .kpi import mean

log = logging.getLogger(__name__)

# The classification rule's "= 0" is exact-arithmetic language; floating OLS
# needs a tolerance.
EPS = 1e-9


class Impact(Enum):
    NO_IMPACT = "no_impact"
    STABLE = "stable"
    INCREASING = "increasing"
    DECREASING = "decreasing"


@dataclass(frozen=True)
class FramePlan:
    window_days: int = 51
    n_frames: int = 50
    cohort_day: int | None = None

    def __post_init__(self) -> None:
        if self.window_days < 1:
            raise ValueError(f"window_days must be >= 1, got {self.window_days}")
        if self.n_frames < 1:
            raise ValueError(f"n_frames must be >= 1, got {self.n_frames}")


@dataclass(frozen=True)
class CvTrajectory:
    session_id: str
    scores: tuple[int, ...]
    slope: float
    intercept: float
    impact: Impact


@dataclass(frozen=True)
class ClassRow:
    impact: Impact
    n_sessions: int
    percentage: float
    mean_hr: float | None
    mean_unique_len: float | None


@dataclass(frozen=True)
class ClassStats:
    rows: tuple[ClassRow, ...]
    cohort_size: int


def cv_score(session: Session, topk: Mapping[str, RecommendationList]) -> int:
    """Ordered (seed, recommendation) pairs of the session realized in ``topk``.

    Both products must be in the session's unique set; (a, b) and (b, a)
    count separately because seed and recommendation roles are asymmetric.
    """
    products = session.unique_products
    score = 0
    for seed in products:
        rl = topk.get(seed)
        if rl is None:
            continue
        for other, _ in rl.items:  # a list holds each id once
            if other != seed and other in products:
                score += 1
    return score


def ols(scores: Sequence[float]) -> tuple[float, float]:
    """Least-squares line over x = 0..n-1; a single point fits slope 0."""
    if not scores:
        raise ValueError("ols requires at least one score")
    if len(scores) == 1:
        return 0.0, float(scores[0])
    fit = statistics.linear_regression(range(len(scores)), scores)
    return float(fit.slope), float(fit.intercept)


def classify_impact(slope: float, intercept: float) -> Impact:
    if abs(slope) <= EPS:
        if intercept > EPS:
            return Impact.STABLE
        return Impact.NO_IMPACT  # zero or negative intercept with flat slope: no visibility
    if slope > EPS:
        return Impact.INCREASING
    return Impact.DECREASING


def cohort_of(dataset: Dataset, plan: FramePlan) -> tuple[int, list[Session]]:
    """The plan's cohort day (the first data day if unset) and its sessions,
    in corpus order."""
    day = plan.cohort_day if plan.cohort_day is not None else dataset.min_day
    return day, [s for s in dataset.sessions if s.day == day]


def _top(row: dict[str, int], k: int) -> tuple[tuple[str, int], ...]:
    """The first k of ``row``'s positive counts in ranking order. Only a count
    at least the k-th largest can be among them, so only those are ranked."""
    counts = sorted(row.values(), reverse=True)
    floor = max(counts[k - 1], 1) if len(counts) >= k else 1
    return _rank([n for n in row.items() if n[1] >= floor], k)


def trajectories(dataset: Dataset, plan: FramePlan, k: int = 5) -> list[CvTrajectory]:
    """CV series for the cohort-day sessions over daily-shifting windows.

    Frame f's model is built from the ``window_days``-day slice ending at
    cohort_day + f - 1, so with window_days >= n_frames the cohort stays
    inside every window. Frames beyond the last data day are clipped (and
    flagged via a warning).

    ``cv_score`` reads only the lists of the cohort's products, so only their
    co-occurrence rows are kept: frame 1 adds every day of its window, each
    later frame adds the day that enters and subtracts the day that leaves,
    through ``build_matrix``'s counting step ``cor._add_pairs``. Ranking the
    positive counts gives the same lists as ``all_top_k`` of a rebuilt window.

    Frame 1 ranks every cohort product's row; each later frame re-ranks only
    the rows its slide touched. A score reads only the ranked ids of the
    session's own products, so a session none of whose products changed its
    ids since the last frame repeats its last score instead of being scored.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    cohort_day, cohort = cohort_of(dataset, plan)
    if not cohort:
        log.warning("empty cohort for day %d; no trajectories", cohort_day)
        return []
    max_day = dataset.max_day
    n_frames = plan.n_frames
    if cohort_day + n_frames - 1 > max_day:
        n_frames = max_day - cohort_day + 1
        log.warning(
            "frame plan clipped to %d frames (data ends at day %d)", n_frames, max_day
        )
    tracked = frozenset().union(*(s.unique_products for s in cohort))
    first_day, last_day = cohort_day - plan.window_days, cohort_day + n_frames - 1
    by_day: dict[int, list[tuple[frozenset[str], frozenset[str]]]] = {}
    for s in dataset.sessions:  # only the days some frame's window holds
        if first_day < s.day <= last_day and not tracked.isdisjoint(unique := s.unique_products):
            by_day.setdefault(s.day, []).append((unique & tracked, unique))
    counts: dict[str, dict[str, int]] = {p: {} for p in tracked}
    moved: set[str] = set(tracked)  # the rows to re-rank: all of them for frame 1

    def slide(day: int, step: int) -> None:
        for touched, unique in by_day.get(day, ()):
            _add_pairs(counts, touched, unique, step)
            moved.update(touched)

    for day in by_day:
        if day < cohort_day:
            slide(day, 1)
    topk: dict[str, RecommendationList] = {}
    series: list[list[int]] = [[] for _ in cohort]
    for frame in range(1, n_frames + 1):
        end_day = cohort_day + frame - 1
        slide(end_day, 1)
        if frame > 1:
            slide(end_day - plan.window_days, -1)
        changed: set[str] = set()  # the seeds whose ranked ids moved
        for p in moved:
            before = topk.get(p)
            topk[p] = rl = RecommendationList(seed=p, items=_top(counts[p], k))
            if before is None or before.product_ids != rl.product_ids:
                changed.add(p)
        moved.clear()
        for session, scores in zip(cohort, series):
            if scores and changed.isdisjoint(session.unique_products):
                scores.append(scores[-1])
            else:
                scores.append(cv_score(session, topk))
    out = []
    for session, scores in zip(cohort, series):
        slope, intercept = ols(scores)
        out.append(
            CvTrajectory(
                session_id=session.session_id,
                scores=tuple(scores),
                slope=slope,
                intercept=intercept,
                impact=classify_impact(slope, intercept),
            )
        )
    out.sort(key=lambda t: t.session_id)
    return out


def class_stats(
    trajectories_: Sequence[CvTrajectory],
    dataset: Dataset,
    hr_level: int | None = None,
) -> ClassStats:
    """Per-class counts, percentages, mean heterogeneity ratio and mean unique
    length; both means are None for a class with no sessions."""
    grouped: dict[Impact, list[Session]] = {impact: [] for impact in Impact}
    for t in trajectories_:
        grouped[t.impact].append(dataset.by_id[t.session_id])
    total = len(trajectories_)
    rows = []
    for impact in Impact:
        sessions = grouped[impact]
        rows.append(
            ClassRow(
                impact=impact,
                n_sessions=len(sessions),
                percentage=100.0 * len(sessions) / total if total else 0.0,
                mean_hr=mean(heterogeneity_ratio(s, dataset.catalog, hr_level) for s in sessions)
                if sessions
                else None,
                mean_unique_len=mean(len(s.unique_products) for s in sessions) if sessions else None,
            )
        )
    return ClassStats(rows=tuple(rows), cohort_size=total)


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def write_trajectories_csv(trajectories_: Sequence[CvTrajectory], path: str | Path) -> None:
    n_frames = max((len(t.scores) for t in trajectories_), default=0)
    frames = [f"f{i}" for i in range(1, n_frames + 1)]
    write_csv(path, ["session_id", *frames, "slope", "intercept", "impact"], (
        (t.session_id, *t.scores, t.slope, t.intercept, t.impact.value) for t in trajectories_
    ))


def write_class_stats_csv(stats: ClassStats, path: str | Path) -> None:
    write_csv(path, ("impact", "n_sessions", "percentage", "mean_hr", "mean_unique_len"), (
        (row.impact.value, row.n_sessions, row.percentage, row.mean_hr, row.mean_unique_len)
        for row in stats.rows
    ))
