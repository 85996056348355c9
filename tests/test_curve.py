from __future__ import annotations

import logging

import pytest

from sessionvalue import curve
from sessionvalue.curve import CurvePlan, emit_curves, run_curve, write_table_csv
from sessionvalue.corpus import slice_days
from sessionvalue.embed import Hyperparams, build_vocab
from sessionvalue.errors import EmptySliceError
from sessionvalue.synthgen import GenConfig, generate

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
    return ds, ev, plan, run_curve(ds, ev, plan)


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

    def test_cpu_seconds_is_process_time(self, data, monkeypatch):
        ds, ev, _ = data
        ticks = iter(range(100))
        monkeypatch.setattr(curve.time, "process_time", lambda: 0.5 * next(ticks))
        plan = CurvePlan(end_day=ds.max_day, day_grid=(2, 4), hyper=HYPER)
        out = run_curve(ds, ev, plan)
        assert [row.cpu_seconds for row in out] == [0.5, 0.5]

    def test_empty_slice_names_grid_entry(self, data):
        ds, ev, _ = data
        plan = CurvePlan(end_day=-5, day_grid=(2,), hyper=HYPER)
        with pytest.raises(EmptySliceError) as err:
            run_curve(ds, ev, plan)
        assert err.value.n_days == 2

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            CurvePlan(end_day=5, day_grid=(4, 2), hyper=HYPER)
        with pytest.raises(ValueError):
            CurvePlan(end_day=5, day_grid=(), hyper=HYPER)


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
