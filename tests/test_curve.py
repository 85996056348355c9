from __future__ import annotations

import dataclasses
import logging
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from sessionvalue import curve, embed
from sessionvalue.curve import CurvePlan, emit_curves, run_curve, write_table_csv
from sessionvalue.corpus import slice_days
from sessionvalue.embed import Hyperparams, build_vocab
from sessionvalue.errors import EmptySliceError
from sessionvalue.synthgen import GenConfig, generate

from oracles import initial_vectors, run_curve_serial

HYPER = Hyperparams(dimensions=8, iterations=1, min_count=2, rng_seed=6)


@pytest.fixture(scope="module")
def data():
    cfg = GenConfig(
        n_products=25, n_categories_top=3, n_categories_fine=8,
        n_train_sessions=90, n_eval_sessions=200, days=6,
        order_base_rate=0.08, intent_stickiness=0.85, rng_seed=13,
    )
    return generate(cfg)


@pytest.fixture(scope="module")
def rows(data):
    ds, ev, _ = data
    plan = CurvePlan(end_day=ds.max_day, day_grid=(2, 4, 6), hyper=HYPER)
    return ds, ev, plan, run_curve(ds, plan, lambda: ev)


class TestRunCurve:
    def test_nesting_monotonicity(self, rows):
        _, _, _, out = rows
        sessions = [r.n_sessions for r in out]
        products = [r.n_products for r in out]
        assert sessions == sorted(sessions)
        assert products == sorted(products)

    def test_first_row_snp_is_full(self, rows):
        _, _, _, out = rows
        assert out[0].snp == 1.0

    def test_snp_equals_brute_force_set_difference(self, rows):
        ds, _, plan, out = rows
        prev_products: frozenset[str] = frozenset()
        prev_ids: set[str] = set()
        for n_days, row in zip(plan.day_grid, out):
            sliced = slice_days(ds, plan.end_day, n_days)
            added = [s for s in sliced.sessions if s.session_id not in prev_ids]
            expected = (
                sum(1 for s in added if not s.unique_products <= prev_products) / len(added)
            )
            assert row.snp == expected
            prev_products = frozenset(build_vocab(sliced, HYPER.min_count).products)
            prev_ids = {s.session_id for s in sliced.sessions}

    def test_row_metrics_consistent(self, rows):
        _, _, _, out = rows
        for row in out:
            assert row.revenue == row.n_products * row.cr * 1.0
            assert row.revenue_per_session == pytest.approx(row.revenue / row.n_sessions)
            assert row.cpu_seconds >= 0.0

    def test_cpu_seconds_is_thread_time(self, data, monkeypatch):
        """Each training is timed by the CPU clock of the thread that runs it,
        so the other trainings running at once are not counted."""
        ds, ev, _ = data
        clock = threading.local()

        def thread_time():
            clock.ticks = getattr(clock, "ticks", -1) + 1
            return 0.5 * clock.ticks

        monkeypatch.setattr(curve.time, "thread_time", thread_time)
        plan = CurvePlan(end_day=ds.max_day, day_grid=(2, 4, 6), hyper=HYPER)
        out = run_curve(ds, plan, lambda: ev)
        assert [row.cpu_seconds for row in out] == [0.5, 0.5, 0.5]

    def test_empty_slice_names_grid_entry(self, data, monkeypatch):
        ds, ev, _ = data
        monkeypatch.setattr(embed, "train", lambda *args: pytest.fail("a model trained"))
        plan = CurvePlan(end_day=-5, day_grid=(2, 4), hyper=HYPER)
        with pytest.raises(EmptySliceError) as err:
            run_curve(ds, plan, lambda: pytest.fail("the eval log was read"))
        assert err.value.n_days == 2

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            CurvePlan(end_day=5, day_grid=(4, 2), hyper=HYPER)
        with pytest.raises(ValueError):
            CurvePlan(end_day=5, day_grid=(), hyper=HYPER)


@pytest.mark.parametrize("n_cpus", [1, 2, 4])
def test_threads_give_the_serial_rows(data, n_cpus, monkeypatch):
    """Every field but the measured ``cpu_seconds`` equals the serial loop's,
    on a grid of three vocabulary sizes trained from an empty init-row cache
    under a short switch interval. The cache ends holding the largest
    vocabulary's rows, as fresh ones, whichever training filled it first."""
    ds, ev, _ = data
    plan = CurvePlan(end_day=ds.max_day, day_grid=(2, 4, 6), hyper=HYPER)
    serial = run_curve_serial(ds, ev, plan)
    assert len({row.n_products for row in serial}) == 3
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n_cpus)))
    monkeypatch.setattr(embed, "_init_rows", {})
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = run_curve(ds, plan, lambda: ev)
    finally:
        sys.setswitchinterval(interval)
    assert [dataclasses.replace(row, cpu_seconds=0.0) for row in threaded] == serial
    [cached] = embed._init_rows.values()
    fresh = initial_vectors(serial[-1].n_products, HYPER.dimensions, HYPER.rng_seed)
    assert cached.tobytes() == fresh.tobytes()


def test_error_in_a_training_reaches_the_caller_with_a_note_naming_its_days(data, monkeypatch):
    ds, ev, _ = data
    plan = CurvePlan(end_day=ds.max_day, day_grid=(2, 4, 6), hyper=HYPER)
    failing = len(slice_days(ds, ds.max_day, 4).sessions)
    real_train = embed.train

    def train(sliced, hyper):
        if len(sliced.sessions) == failing:
            raise LookupError("no model today")
        return real_train(sliced, hyper)

    monkeypatch.setattr(embed, "train", train)
    threads = threading.active_count()
    with pytest.raises(LookupError) as info:
        run_curve(ds, plan, lambda: ev)
    assert type(info.value) is LookupError
    assert str(info.value) == "no model today"
    assert info.value.__notes__ == ["while training the learning-curve model of the last 4 days"]
    assert info.traceback[-1].name == "train"
    assert threading.active_count() == threads


def test_eval_log_error_cancels_the_queued_trainings(data, monkeypatch):
    """With one thread, the largest slice trains first; an error raised by
    ``load_eval`` while it trains reaches the caller unchanged, the two
    trainings still queued never start, and the pool's thread is gone."""
    ds, _, _ = data
    plan = CurvePlan(end_day=ds.max_day, day_grid=(2, 4, 6), hyper=HYPER)
    started, queue_cancelled = threading.Event(), threading.Event()
    error = LookupError("no eval log")
    trained: list[int] = []
    real_train = embed.train

    def train(sliced, hyper):
        trained.append(len(sliced.sessions))
        started.set()
        assert queue_cancelled.wait(timeout=60)
        return real_train(sliced, hyper)

    class Pool(ThreadPoolExecutor):
        """Lets the running training go on only once the queue is cancelled."""

        def shutdown(self, wait=True, *, cancel_futures=False):
            super().shutdown(wait=False, cancel_futures=cancel_futures)
            queue_cancelled.set()
            super().shutdown(wait=wait)

    def load_eval():
        assert started.wait(timeout=60)
        raise error

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(curve, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(embed, "train", train)
    threads = threading.active_count()
    with pytest.raises(LookupError) as info:
        run_curve(ds, plan, load_eval)
    assert info.value is error
    assert trained == [len(slice_days(ds, ds.max_day, 6).sessions)]
    assert threading.active_count() == threads


class TestEmitCurves:
    def test_scaled_bounded(self, rows):
        _, _, _, out = rows
        points = emit_curves(out)
        assert all(0.0 <= scaled <= 1.0 for _, _, _, scaled in points)

    def test_extremes_hit_bounds(self, rows):
        _, _, _, out = rows
        points = emit_curves(out)
        by_kpi: dict[str, list[tuple[float, float]]] = {}
        for _, name, raw, scaled in points:
            by_kpi.setdefault(name, []).append((raw, scaled))
        for name, pairs in by_kpi.items():
            raws = [r for r, _ in pairs]
            if min(raws) == max(raws):
                assert all(s == 0.0 for _, s in pairs)  # degenerate column
                continue
            assert any(s == 0.0 for r, s in pairs if r == min(raws))
            assert any(s == 1.0 for r, s in pairs if r == max(raws))

    def test_affine_scaling_preserves_order(self, rows):
        _, _, _, out = rows
        points = [p for p in emit_curves(out) if p[1] == "n_sessions"]
        raws = [raw for _, _, raw, _ in points]
        scaleds = [scaled for _, _, _, scaled in points]
        assert raws == sorted(raws)
        assert scaleds == sorted(scaleds)

    def test_single_row_degenerate_flag(self, rows, caplog):
        _, _, _, out = rows
        with caplog.at_level(logging.WARNING):
            points = emit_curves(out[:1])
        assert any("degenerate" in rec.message for rec in caplog.records)
        assert all(scaled == 0.0 for _, _, _, scaled in points)


class TestTableCsv:
    def test_columns(self, rows, tmp_path):
        _, _, _, out = rows
        path = tmp_path / "table.csv"
        write_table_csv(out, path)
        header, *body = path.read_text().splitlines()
        assert header == (
            "days,n_sessions,n_products,snp,cr,revenue,revenue_per_session,"
            "cpu_seconds,avg_session_length"
        )
        assert len(body) == 3
        assert body[0].startswith("2,")
