"""Quantitative KPIs: hypothetic conversion rate, revenue figures, SNP, scaling.

The conversion rate aggregates order/view counts over all (seed, alternative)
pairs realized by a model's top-k lists, so it depends on the model *only*
through those lists: two models with identical lists produce bitwise-equal
rates on the same evaluation log. Each seed's list contributes integer counts
of its own (see ``totals``), so replacing a few lists moves the totals by
exactly those lists' contributions. Every production rate is
``rate_from_totals(*totals(index, lists))``; ``aggregate_pairs``, a scan of
the eval log one session at a time, and ``conversion_rate`` are the per-pair
reference it is checked against. The rate has no correction constant: in
a relative change a constant factor cancels, and on the learning curve it
would only rescale the ``cr`` and revenue columns.

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


def totals(
    index: EvalIndex, lists: Mapping[str, RecommendationList | None]
) -> tuple[int, int]:
    """(n_ordered, n_views) summed over the (seed, alternative) pairs of every
    list in ``lists``.

    Every eval session viewing a seed views each alternative of its list
    once; it orders the alternative iff the alternative is in its ordered
    set. A seed without a list, or viewed by no eval session, contributes
    nothing.
    """
    n_ordered = n_views = 0
    for seed, rl in lists.items():
        if rl is None:
            continue
        orders = index.orders.get(seed, {})
        n_views += index.views.get(seed, 0) * len(rl.items)
        n_ordered += sum(orders.get(alt, 0) for alt, _score in rl.items)
    return n_ordered, n_views


def aggregate_pairs(recs: Mapping[str, RecommendationList], eval_log: EvalLog) -> PairCounts:
    """Count, per (seed, alternative), the eval sessions viewing the seed.

    A session increments n_views once per pair regardless of how often the
    seed was viewed within it; n_ordered increments iff the alternative is in
    the session's ordered set. Seeds absent from ``recs`` contribute nothing.
    """
    acc: dict[tuple[str, str], tuple[int, int]] = {}
    for es in eval_log.sessions:
        for seed in es.viewed:
            rl = recs.get(seed)
            if rl is None:
                continue
            for alt, _score in rl.items:
                views, ordered = acc.get((seed, alt), (0, 0))
                acc[seed, alt] = (views + 1, ordered + (alt in es.ordered))
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
