"""Quantitative KPIs: hypothetic conversion rate, revenue figures, SNP, scaling.

The conversion rate aggregates order/view counts over all (seed, alternative)
pairs realized by a model's top-k lists, so it depends on the model *only*
through those lists: two models with identical lists produce bitwise-equal
rates on the same evaluation log. Each seed's pairs contribute integer counts
of their own (``seed_pairs``), so replacing a few lists moves the totals by
exactly those lists' contributions. Every production rate is
``rate_from_totals(*totals(index, lists))``; ``aggregate_pairs`` and
``conversion_rate`` are the per-pair reference it is checked against.

The module holds formulas only; the learning curve's table row, which
gathers them per model, is ``curve.CurveRow``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .cor import RecommendationList
from .corpus import EvalLog, Session

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PairCounts:
    """(n_views, n_ordered) per (seed, alternative) pair."""

    counts: Mapping[tuple[str, str], tuple[int, int]]

    def total_views(self) -> int:
        return sum(v for v, _ in self.counts.values())

    def total_ordered(self) -> int:
        return sum(o for _, o in self.counts.values())


@dataclass(frozen=True)
class EvalIndex:
    """The eval log as the conversion rate reads it: per seed, the number of
    eval sessions viewing it and, among those, how many order each product."""

    views: Mapping[str, int]
    orders: Mapping[str, Mapping[str, int]]


def index_eval(eval_log: EvalLog) -> EvalIndex:
    views: dict[str, int] = {}
    orders: dict[str, dict[str, int]] = {}
    for es in eval_log.sessions:
        for seed in es.viewed:
            views[seed] = views.get(seed, 0) + 1
            if es.ordered:
                by_alt = orders.setdefault(seed, {})
                for alt in es.ordered:
                    by_alt[alt] = by_alt.get(alt, 0) + 1
    return EvalIndex(views=views, orders=orders)


def seed_pairs(
    index: EvalIndex, seed: str, rl: RecommendationList | None
) -> dict[tuple[str, str], tuple[int, int]]:
    """(n_views, n_ordered) of each (seed, alternative) pair of one seed's list.

    Every eval session viewing the seed views each alternative once; it
    orders the alternative iff the alternative is in its ordered set. A seed
    without a list, or viewed by no eval session, contributes nothing.
    """
    views = index.views.get(seed, 0)
    if rl is None or not views:
        return {}
    orders = index.orders.get(seed, {})
    return {(seed, alt): (views, orders.get(alt, 0)) for alt, _score in rl.items}


def totals(
    index: EvalIndex, lists: Mapping[str, RecommendationList | None]
) -> tuple[int, int]:
    """(n_ordered, n_views) summed over the pairs of every list in ``lists``."""
    n_ordered = n_views = 0
    for seed, rl in lists.items():
        for views, ordered in seed_pairs(index, seed, rl).values():
            n_views += views
            n_ordered += ordered
    return n_ordered, n_views


def aggregate_pairs(recs: Mapping[str, RecommendationList], eval_log: EvalLog) -> PairCounts:
    """Count, per (seed, alternative), the eval sessions viewing the seed.

    A session increments n_views once per pair regardless of how often the
    seed was viewed within it; n_ordered increments iff the alternative is in
    the session's ordered set. Seeds absent from ``recs`` contribute nothing.
    """
    index = index_eval(eval_log)
    acc: dict[tuple[str, str], tuple[int, int]] = {}
    for seed, rl in recs.items():
        acc.update(seed_pairs(index, seed, rl))
    return PairCounts(counts=acc)


def conversion_rate(pairs: PairCounts) -> float:
    """Total orders over total views."""
    return rate_from_totals(pairs.total_ordered(), pairs.total_views())


def rate_from_totals(n_ordered: int, n_views: int) -> float:
    """``n_ordered / n_views``.

    Zero total views is not an error: the rate is reported as 0.0 and flagged
    via a warning (there is nothing to convert).
    """
    if n_views == 0:
        log.warning("conversion rate has zero views; reporting 0.0")
        return 0.0
    return n_ordered / n_views


def revenue(n_products: int, cr: float, unit_value: float = 1.0) -> float:
    """Coverage-proportional revenue approximation: products x rate x unit value."""
    if unit_value <= 0:
        raise ValueError(f"unit_value must be > 0, got {unit_value}")
    return n_products * cr * unit_value


def revenue_per_session(total_revenue: float, n_sessions: int) -> float:
    """Equal share of the overall revenue per contributing session."""
    if n_sessions < 1:
        raise ValueError(f"n_sessions must be >= 1, got {n_sessions}")
    return total_revenue / n_sessions


def snp(prev_products: frozenset[str] | set[str], added_sessions: Sequence[Session]) -> float:
    """Fraction of newly added sessions holding at least one unseen product."""
    if not added_sessions:
        log.warning("snp over an empty added-session list; reporting 0.0")
        return 0.0
    hits = sum(1 for s in added_sessions if not s.unique_products <= prev_products)
    return hits / len(added_sessions)


def feature_scale(series: Sequence[float]) -> list[float]:
    """Affine rescale of a series onto [0, 1]; constant input maps to all zeros."""
    if not series:
        raise ValueError("feature_scale requires a non-empty series")
    lo = min(series)
    hi = max(series)
    if lo == hi:
        log.warning("feature_scale over a constant series; reporting all zeros")
        return [0.0 for _ in series]
    span = hi - lo
    return [(x - lo) / span for x in series]


def mean(values: Iterable[float]) -> float:
    vals = list(values)
    return sum(vals) / len(vals) if vals else 0.0
