from __future__ import annotations

import logging
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from sessionvalue import lifecycle
from sessionvalue.cor import all_top_k, build_matrix
from sessionvalue.corpus import load_dataset
from sessionvalue.lifecycle import (
    CvTrajectory,
    FramePlan,
    Impact,
    class_stats,
    classify_impact,
    cv_score,
    ols,
    trajectories,
)
from sessionvalue.synthgen import GenConfig, generate

from helpers import assert_ranked, mk_catalog, mk_dataset, mk_session
from oracles import cv_score_scan, trajectories_rebuild

BENCHMARK = Path(__file__).resolve().parent / "golden" / "benchmark"


def ranked(ids):
    return tuple((p, 1.0) for p in ids)


class TestCvScore:
    def test_one_direction(self):
        topk = {"A": ranked(["B", "X"]), "B": ranked(["C"])}
        assert cv_score(mk_session("s", ["A", "B"]), topk) == 1

    def test_both_directions(self):
        topk = {"A": ranked(["B"]), "B": ranked(["A"])}
        assert cv_score(mk_session("s", ["A", "B"]), topk) == 2

    def test_single_product_session(self):
        topk = {"A": ranked(["B"])}
        assert cv_score(mk_session("s", ["A"]), topk) == 0

    def test_repeat_clicks_do_not_inflate(self):
        topk = {"A": ranked(["B"]), "B": ranked(["A"])}
        assert cv_score(mk_session("s", ["A", "A", "B"]), topk) == 2

    def test_bounded_by_ordered_pairs(self):
        ds, _, _ = generate(
            GenConfig(
                n_products=12, n_categories_top=2, n_categories_fine=4,
                n_train_sessions=30, n_eval_sessions=1, days=2, rng_seed=5,
            )
        )
        topk = all_top_k(build_matrix(ds), 5)
        for session in ds.sessions:
            u = len(session.unique_products)
            score = cv_score(session, topk)
            assert 0 <= score <= u * (u - 1)
            assert score == cv_score_scan(session, topk)


class TestOls:
    def test_exact_affine(self):
        slope, intercept = ols([1, 2, 3])
        assert slope == pytest.approx(1.0, abs=1e-9)
        assert intercept == pytest.approx(1.0, abs=1e-9)

    def test_constant(self):
        slope, intercept = ols([4, 4, 4])
        assert slope == pytest.approx(0.0, abs=1e-9)
        assert intercept == pytest.approx(4.0, abs=1e-9)

    def test_affine_recovery_over_fifty_points(self):
        series = [2 * x + 3 for x in range(50)]
        slope, intercept = ols(series)
        assert slope == pytest.approx(2.0, abs=1e-9)
        assert intercept == pytest.approx(3.0, abs=1e-9)

    def test_single_point_convention(self):
        assert ols([7]) == (0.0, 7.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ols([])


class TestClassifyImpact:
    def test_rule_table(self):
        assert classify_impact(0.0, 0.0) is Impact.NO_IMPACT
        assert classify_impact(0.0, 3.0) is Impact.STABLE
        assert classify_impact(-0.2, 5.0) is Impact.DECREASING
        assert classify_impact(0.4, 1.0) is Impact.INCREASING

    def test_eps_tolerance(self):
        assert classify_impact(5e-10, 5e-10) is Impact.NO_IMPACT
        assert classify_impact(5e-10, 2.0) is Impact.STABLE


class TestTrajectories:
    def test_static_data_constant_series(self):
        # identical support arrives every day: rankings never move
        specs = [("x", 0, ["A", "B"])]
        for day in range(4):
            specs.append((f"ab{day}", day, ["A", "B"]))
            specs.append((f"ac{day}", day, ["A", "C"]))
        ds = mk_dataset(specs)
        plan = FramePlan(window_days=4, n_frames=4, cohort_day=0)
        trajs = trajectories(ds, plan, k=5)
        x = next(t for t in trajs if t.session_id == "x")
        assert len(set(x.scores)) == 1
        assert x.slope == pytest.approx(0.0, abs=1e-9)
        assert x.impact in (Impact.STABLE, Impact.NO_IMPACT)

    def test_displacement_drops_score_and_slope(self, monkeypatch):
        scored = []

        def keep_lists(session, topk):
            scored.append(dict(topk))
            return cv_score(session, topk)

        monkeypatch.setattr(lifecycle, "cv_score", keep_lists)
        specs = [
            ("x", 0, ["A", "B"]),
            ("d1", 1, ["D", "E"]),
            ("inj1", 2, ["A", "C"]),
            ("inj2", 2, ["A", "C"]),
            ("inj3", 2, ["A", "C"]),
        ]
        ds = mk_dataset(specs)
        plan = FramePlan(window_days=4, n_frames=3, cohort_day=0)
        trajs = trajectories(ds, plan, k=1)
        x = next(t for t in trajs if t.session_id == "x")
        # frame 3 pulls the injected sessions into the window: C displaces B
        assert x.scores == (2, 2, 1)
        assert scored[0]["A"] == (("B", 1),) and scored[-1]["A"] == (("C", 3),)
        for topk in scored:
            for seed, pairs in topk.items():
                assert_ranked(seed, pairs, int)
        assert x.slope < 0
        assert x.impact is Impact.DECREASING

    def test_single_frame_slope_zero(self):
        ds = mk_dataset([("x", 0, ["A", "B"]), ("y", 0, ["A", "B"])])
        trajs = trajectories(ds, FramePlan(window_days=2, n_frames=1, cohort_day=0), k=1)
        for t in trajs:
            assert t.slope == 0.0
            assert len(t.scores) == 1

    def test_empty_cohort_flagged(self, caplog):
        ds = mk_dataset([("x", 3, ["A", "B"])])
        with caplog.at_level(logging.WARNING):
            out = trajectories(ds, FramePlan(window_days=2, n_frames=2, cohort_day=0), k=1)
        assert out == []
        assert any("empty cohort" in rec.message for rec in caplog.records)

    def test_clipping_flagged(self, caplog):
        ds = mk_dataset([("x", 0, ["A", "B"]), ("y", 2, ["A", "B"])])
        with caplog.at_level(logging.WARNING):
            trajs = trajectories(ds, FramePlan(window_days=3, n_frames=10, cohort_day=0), k=1)
        assert len(trajs[0].scores) == 3  # days 0..2 exist
        assert any("clipped" in rec.message for rec in caplog.records)

    def test_k_below_one_rejected(self):
        ds = mk_dataset([("x", 0, ["A", "B"])])
        with pytest.raises(ValueError, match="k must be >= 1"):
            trajectories(ds, FramePlan(window_days=1, n_frames=1, cohort_day=0), k=0)

    def test_all_zero_series_is_no_impact(self):
        # cohort session shares no pair support with anything
        ds = mk_dataset([("x", 0, ["A"]), ("bg", 0, ["B", "C"]), ("bg2", 1, ["B", "C"])])
        trajs = trajectories(ds, FramePlan(window_days=2, n_frames=2, cohort_day=0), k=5)
        x = next(t for t in trajs if t.session_id == "x")
        assert set(x.scores) == {0}
        assert x.impact is Impact.NO_IMPACT


def build(sessions):
    return mk_dataset([(f"s{i}", day, clicks) for i, (day, clicks) in enumerate(sessions)])


# Few products, so rank ties are common; days 0-6 leave gaps and a short tail.
day_sessions = st.tuples(
    st.integers(min_value=0, max_value=6),
    st.lists(st.sampled_from("ABCDE"), min_size=1, max_size=4),
)
frame_plans = st.builds(
    FramePlan,
    window_days=st.integers(min_value=1, max_value=6),
    n_frames=st.integers(min_value=1, max_value=8),
    cohort_day=st.none() | st.integers(min_value=0, max_value=6),
)


class TestSlidingCountsMatchRebuild:
    """``trajectories`` slides the cohort products' neighbour counts from frame
    to frame; the oracle rebuilds every frame's window from scratch."""

    @settings(
        max_examples=300, derandomize=True, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        sessions=st.lists(day_sessions, min_size=1, max_size=12),
        plan=frame_plans,
        k=st.integers(min_value=1, max_value=4),
    )
    # window shorter than the frame count: the cohort leaves the window
    @example(
        sessions=[(0, ["A", "B"]), (0, ["A", "C"]), (1, ["A", "C"]), (2, ["B", "D"]),
                  (3, ["A", "D"])],
        plan=FramePlan(window_days=2, n_frames=4, cohort_day=0), k=1,
    )
    # a cohort after the first data day: days before the cohort leave the window
    @example(
        sessions=[(0, ["A", "B"]), (0, ["A", "B"]), (1, ["A", "C"]), (2, ["A", "C", "D"]),
                  (3, ["A", "D"]), (4, ["B", "C"])],
        plan=FramePlan(window_days=3, n_frames=3, cohort_day=2), k=2,
    )
    # clipped: the data ends before the last frame
    @example(
        sessions=[(1, ["A", "B"]), (1, ["B", "C"]), (2, ["A", "C"]), (3, ["A", "B"])],
        plan=FramePlan(window_days=2, n_frames=8, cohort_day=1), k=1,
    )
    # days without sessions inside the window (2, 3) and at the edge that leaves it (1)
    @example(
        sessions=[(0, ["A", "B"]), (0, ["A", "C"]), (4, ["A", "C"]), (5, ["B", "C"]),
                  (6, ["A", "C"])],
        plan=FramePlan(window_days=4, n_frames=7, cohort_day=0), k=2,
    )
    # B's only co-session with A leaves the window: B must drop out of A's list
    @example(
        sessions=[(0, ["A", "B"]), (1, ["A", "C"])],
        plan=FramePlan(window_days=1, n_frames=2, cohort_day=0), k=4,
    )
    # frames 2 and 3 touch A's row, but its ranked ids stay [B]
    @example(
        sessions=[(0, ["A", "B"]), (1, ["A", "B"]), (2, ["A", "C"])],
        plan=FramePlan(window_days=3, n_frames=3, cohort_day=0), k=1,
    )
    # frame 5: day 4 enters and day 2 leaves, and neither holds a session
    @example(
        sessions=[(0, ["A", "B"]), (1, ["A", "C"]), (5, ["A", "B"])],
        plan=FramePlan(window_days=2, n_frames=6, cohort_day=0), k=2,
    )
    # s0's lists (A, B) stay the same for all four frames while s1's (C) change
    @example(
        sessions=[(0, ["A", "B"]), (0, ["C", "D"]), (1, ["C", "E"]), (2, ["C", "E"]),
                  (3, ["D", "E"])],
        plan=FramePlan(window_days=4, n_frames=4, cohort_day=0), k=1,
    )
    def test_equals_rebuild(self, sessions, plan, k):
        ds = build(sessions)
        assert trajectories(ds, plan, k) == trajectories_rebuild(ds, plan, k)

    def test_neighbour_whose_count_returns_to_zero_drops_out(self):
        ds = build([(0, ["A", "B"]), (1, ["A", "C"])])
        (x,) = trajectories(ds, FramePlan(window_days=1, n_frames=2, cohort_day=0), k=4)
        # frame 2 holds only day 1: A's list is [C], and B is no seed at all
        assert x.scores == (2, 0)

    @pytest.mark.parametrize("plan", [
        FramePlan(window_days=5, n_frames=4),
        FramePlan(window_days=2, n_frames=6),
        FramePlan(window_days=3, n_frames=4, cohort_day=2),
        FramePlan(window_days=1, n_frames=9, cohort_day=3),
    ])
    @pytest.mark.parametrize("k", [1, 5])
    def test_equals_rebuild_on_benchmark_inputs(self, plan, k):
        ds = load_dataset(BENCHMARK / "sessions.jsonl", BENCHMARK / "catalog.jsonl")
        assert trajectories(ds, plan, k) == trajectories_rebuild(ds, plan, k)


class TestClassStats:
    def mk_trajectory(self, sid, impact):
        return CvTrajectory(session_id=sid, scores=(1,), slope=0.0, intercept=1.0, impact=impact)

    def test_one_per_class(self):
        ds = mk_dataset([(f"s{i}", 0, ["A", "B"]) for i in range(4)])
        trajs = [self.mk_trajectory(f"s{i}", impact) for i, impact in enumerate(Impact)]
        stats = class_stats(trajs, ds)
        assert all(row.percentage == 25.0 for row in stats.rows)
        assert sum(row.n_sessions for row in stats.rows) == 4

    def test_single_class_hundred_percent(self):
        ds = mk_dataset([("s0", 0, ["A"]), ("s1", 0, ["B"])])
        trajs = [self.mk_trajectory(sid, Impact.STABLE) for sid in ("s0", "s1")]
        stats = class_stats(trajs, ds)
        by_impact = {row.impact: row for row in stats.rows}
        assert by_impact[Impact.STABLE].percentage == 100.0
        assert by_impact[Impact.NO_IMPACT].n_sessions == 0

    def test_empty_class_has_no_means(self):
        ds = mk_dataset([("s0", 0, ["A", "B"])])
        stats = class_stats([self.mk_trajectory("s0", Impact.STABLE)], ds)
        empty = [(row.mean_hr, row.mean_unique_len) for row in stats.rows if row.n_sessions == 0]
        assert empty == [(None, None)] * 3

    def test_mean_hr_matches_hand_computation(self):
        catalog = mk_catalog([], paths={"A": ("c1",), "B": ("c1",), "C": ("c2",)})
        ds = mk_dataset(
            [("s0", 0, ["A", "B"]), ("s1", 0, ["A"]), ("s2", 0, ["A", "C"])], catalog=catalog
        )
        trajs = [self.mk_trajectory(sid, Impact.STABLE) for sid in ("s0", "s1", "s2")]
        stats = class_stats(trajs, ds, hr_level=0)
        stable = next(row for row in stats.rows if row.impact is Impact.STABLE)
        assert stable.mean_hr == pytest.approx((0.5 + 1.0 + 1.0) / 3)
        assert stable.mean_unique_len == pytest.approx((2 + 1 + 2) / 3)

    def test_csv_writers_emit_declared_columns(self, tmp_path):
        import csv

        from sessionvalue.lifecycle import write_class_stats_csv, write_trajectories_csv

        ds = mk_dataset([("s0", 0, ["A", "B"]), ("s1", 0, ["A", "B"]), ("bg", 1, ["A", "B"])])
        trajs = trajectories(ds, FramePlan(window_days=2, n_frames=2, cohort_day=0), k=1)
        tpath = tmp_path / "trajectories.csv"
        write_trajectories_csv(trajs, tpath)
        header = tpath.read_text().splitlines()[0]
        assert header == "session_id,f1,f2,slope,intercept,impact"

        spath = tmp_path / "stats.csv"
        write_class_stats_csv(class_stats(trajs, ds), spath)
        with open(spath) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["impact"] for r in rows] == [
            "no_impact", "stable", "increasing", "decreasing"
        ]
        empty = next(r for r in rows if int(r["n_sessions"]) == 0)
        assert empty["mean_hr"] == ""

    def test_percentages_partition_cohort(self):
        ds, _, _ = generate(
            GenConfig(
                n_products=20, n_categories_top=2, n_categories_fine=6,
                n_train_sessions=40, n_eval_sessions=1, days=3, rng_seed=2,
            )
        )
        trajs = trajectories(ds, FramePlan(window_days=3, n_frames=3, cohort_day=0), k=5)
        stats = class_stats(trajs, ds)
        assert sum(row.percentage for row in stats.rows) == pytest.approx(100.0, abs=0.1)
        assert sum(row.n_sessions for row in stats.rows) == stats.cohort_size == len(trajs)
