from __future__ import annotations

import logging

import pytest
import numpy as np
from hypothesis import example, given, settings, strategies as st

from sessionvalue.cor import RecommendationList
from sessionvalue.kpi import (
    PairCounts,
    aggregate_pairs,
    conversion_rate,
    feature_scale,
    index_eval,
    rate_from_totals,
    revenue,
    revenue_per_session,
    snp,
    totals,
)

from helpers import mk_eval, mk_session


def rl(seed, items):
    return RecommendationList(seed=seed, items=tuple((p, float(i)) for i, p in enumerate(items)))


RECS = {"A": rl("A", ["B", "C"])}


class TestAggregatePairs:
    def test_view_and_order(self):
        pairs = aggregate_pairs(RECS, mk_eval([("e1", ["A"], ["B"])]))
        assert pairs.counts[("A", "B")] == (1, 1)
        assert pairs.counts[("A", "C")] == (1, 0)

    def test_view_without_order(self):
        pairs = aggregate_pairs(RECS, mk_eval([("e1", ["A"], [])]))
        assert pairs.counts[("A", "B")] == (1, 0)
        assert pairs.counts[("A", "C")] == (1, 0)

    def test_unmatched_seed_contributes_nothing(self):
        pairs = aggregate_pairs(RECS, mk_eval([("e1", ["Z"], ["B"])]))
        assert pairs.counts == {}

    def test_session_counted_once_per_pair(self):
        # several ordered products, one view increment per pair
        pairs = aggregate_pairs(RECS, mk_eval([("e1", ["A"], ["B", "C"]), ("e2", ["A"], [])]))
        assert pairs.counts[("A", "B")] == (2, 1)
        assert pairs.counts[("A", "C")] == (2, 1)

    def test_ordered_never_exceeds_views(self):
        rng = np.random.default_rng(0)
        products = [f"p{i}" for i in range(8)]
        recs = {p: rl(p, [q for q in products if q != p][:3]) for p in products}
        specs = []
        for i in range(50):
            viewed = [products[j] for j in rng.choice(8, size=2, replace=False)]
            ordered = [products[j] for j in rng.choice(8, size=3, replace=False)]
            specs.append((f"e{i}", viewed, ordered))
        pairs = aggregate_pairs(recs, mk_eval(specs))
        assert all(o <= v for v, o in pairs.counts.values())


class TestConversionRate:
    def test_direct_formula(self):
        pairs = PairCounts(counts={("A", "B"): (100, 5)})
        assert conversion_rate(pairs) == 0.05

    def test_all_zero_orders(self):
        pairs = PairCounts(counts={("A", "B"): (10, 0)})
        assert conversion_rate(pairs) == 0.0

    def test_zero_views_flagged_not_thrown(self, caplog):
        with caplog.at_level(logging.WARNING):
            assert conversion_rate(PairCounts(counts={})) == 0.0
        assert any("zero views" in rec.message for rec in caplog.records)

    def test_rate_depends_only_on_ranked_ids(self):
        # two models with identical lists but different scores: bitwise-equal CR
        eval_log = mk_eval([("e1", ["A"], ["B"]), ("e2", ["A", "B"], ["C"])])
        recs_a = {"A": rl("A", ["B", "C"]), "B": rl("B", ["C"])}
        recs_b = {
            "A": RecommendationList(seed="A", items=(("B", 99.0), ("C", 42.0))),
            "B": RecommendationList(seed="B", items=(("C", 7.0),)),
        }
        cr_a = conversion_rate(aggregate_pairs(recs_a, eval_log))
        cr_b = conversion_rate(aggregate_pairs(recs_b, eval_log))
        assert cr_a == cr_b


# G and H are never viewed by an eval session; U and V are never ordered.
VIEWED = "ABCDEF"
SEEDS = VIEWED + "GH"
ALTS = VIEWED + "UV"


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    lists=st.dictionaries(
        st.sampled_from(SEEDS),
        st.none() | st.lists(st.sampled_from(ALTS), unique=True, max_size=4),
        max_size=len(SEEDS),
    ),
    evals=st.lists(
        st.tuples(
            st.lists(st.sampled_from(VIEWED), min_size=1, max_size=4),
            st.lists(st.sampled_from(VIEWED), max_size=3),
        ),
        max_size=6,
    ),
)
@example(
    lists={"A": ["B", "U"], "B": None, "G": ["A"]},
    evals=[(["A", "B"], ["B"]), (["A"], [])],
)
def test_totals_match_aggregate_pairs_oracle(lists, evals):
    """The production rate path equals the per-pair oracle, bit for bit."""
    recs = {seed: None if alts is None else rl(seed, alts) for seed, alts in lists.items()}
    eval_log = mk_eval([(f"e{i}", viewed, ordered) for i, (viewed, ordered) in enumerate(evals)])
    pairs = aggregate_pairs(recs, eval_log)
    got = totals(index_eval(eval_log), recs)
    assert got == (pairs.total_ordered(), pairs.total_views())
    assert rate_from_totals(*got).hex() == conversion_rate(pairs).hex()


class TestRevenue:
    def test_product_formula(self):
        assert revenue(100, 0.05, 10) == 50

    def test_zero_rate(self):
        assert revenue(100, 0.0, 10) == 0

    def test_linear_in_products(self):
        assert revenue(200, 0.05, 10) == 2 * revenue(100, 0.05, 10)

    def test_unit_value_validation(self):
        with pytest.raises(ValueError):
            revenue(1, 0.1, 0)


class TestRevenuePerSession:
    def test_share(self):
        assert revenue_per_session(50, 10) == 5

    def test_zero_revenue(self):
        assert revenue_per_session(0, 10) == 0

    def test_zero_sessions_is_error(self):
        with pytest.raises(ValueError):
            revenue_per_session(50, 0)


class TestSnp:
    def test_half_new(self):
        added = [mk_session("1", ["A", "B"]), mk_session("2", ["A"])]
        assert snp(frozenset({"A"}), added) == 0.5

    def test_empty_previous_set(self):
        added = [mk_session("1", ["A"]), mk_session("2", ["B"])]
        assert snp(frozenset(), added) == 1.0

    def test_all_known(self):
        added = [mk_session("1", ["A"]), mk_session("2", ["A", "B"])]
        assert snp(frozenset({"A", "B"}), added) == 0.0

    def test_empty_added_flagged(self, caplog):
        with caplog.at_level(logging.WARNING):
            assert snp(frozenset({"A"}), []) == 0.0
        assert any("empty added-session" in rec.message for rec in caplog.records)


class TestFeatureScale:
    def test_basic(self):
        assert feature_scale([2, 4, 6]) == [0.0, 0.5, 1.0]

    def test_constant_series_flagged(self, caplog):
        with caplog.at_level(logging.WARNING):
            assert feature_scale([5, 5]) == [0.0, 0.0]
        assert any("constant series" in rec.message for rec in caplog.records)

    def test_extremes_map_to_bounds(self):
        series = [3.0, -1.0, 7.5, 2.0]
        scaled = feature_scale(series)
        assert scaled[series.index(min(series))] == 0.0
        assert scaled[series.index(max(series))] == 1.0
        assert all(0.0 <= x <= 1.0 for x in scaled)

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            feature_scale([])

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50))
    def test_always_bounded(self, series):
        scaled = feature_scale(series)
        assert len(scaled) == len(series)
        assert all(0.0 <= x <= 1.0 for x in scaled)
