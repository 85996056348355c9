"""Acceptance suite: one criterion per test, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Corporate-scale magnitudes are properties of whatever production
dataset produced them and are not targets; these checks are property-based
plus anchored formula checks on the pinned benchmark fixture.
"""

from __future__ import annotations

import csv
from pathlib import Path

import pytest
from click.testing import CliRunner

from sessionvalue.cli import main
from sessionvalue.cor import all_top_k, build_matrix, session_top_k
from sessionvalue.corpus import Dataset, slice_days
from sessionvalue.curve import CurvePlan, emit_curves, run_curve
from sessionvalue.embed import Hyperparams, build_vocab
from sessionvalue.kpi import aggregate_pairs, conversion_rate
from sessionvalue.lifecycle import Impact, class_stats, classify_impact, ols, trajectories
from sessionvalue.sensitivity import (
    Constellation,
    CorEngine,
    HarnessConfig,
    VrEngine,
    run_loo,
    session_value,
    verify_stability,
)
from sessionvalue.synthgen import GenConfig, PlantKind, duplicates_still_no_impact, generate

from conftest import BENCHMARK_CONFIG, SMOKE_CONFIG
from helpers import mk_catalog, mk_eval, mk_session
from oracles import remove_session


def _report(name: str) -> None:
    print(f"\nACCEPTANCE PASS: {name}")


@pytest.fixture(scope="module")
def cor_records(benchmark_data, benchmark_rc):
    dataset, eval_log, _, _ = benchmark_data
    return run_loo(CorEngine(), dataset, lambda: eval_log, benchmark_rc.harness)


@pytest.fixture(scope="module")
def vr_records(benchmark_data, benchmark_rc):
    """VR leave-one-out of every benchmark session, the toxic plant among them."""
    dataset, eval_log, _, _ = benchmark_data
    return run_loo(
        VrEngine(benchmark_rc.hyper), dataset, lambda: eval_log, benchmark_rc.harness, jobs=2,
    )


def test_cor_leave_one_out_rebuild_oracle():
    """Incremental removal equals a from-scratch rebuild on 100 seeded datasets,
    and the shipped seed-local ``session_top_k`` gives the rebuild's list of
    every product of the left-out session (None once the product vanishes)."""
    for seed in range(100):
        cfg = GenConfig(
            n_products=40, n_categories_top=3, n_categories_fine=10,
            n_train_sessions=50, n_eval_sessions=1, days=3, rng_seed=seed,
        )
        dataset, _, _ = generate(cfg)
        matrix = build_matrix(dataset)
        for session in dataset.sessions:
            incremental = remove_session(matrix, session)
            rebuilt = build_matrix(
                Dataset(
                    sessions=tuple(
                        s for s in dataset.sessions if s.session_id != session.session_id
                    ),
                    catalog=dataset.catalog,
                )
            )
            assert incremental == rebuilt
            rebuilt_topk = all_top_k(rebuilt, 5)
            assert all_top_k(incremental, 5) == rebuilt_topk
            local = session_top_k(matrix, session, 5)
            assert set(local) == session.unique_products
            for seed, rl in local.items():
                assert rl == rebuilt_topk.get(seed)
    _report("COR leave-one-out oracle (100 datasets, every session, exact)")


def test_stability_gate_on_thousand_sessions():
    """Both engines train byte-identically twice on a 1,000-session dataset."""
    cfg = GenConfig(
        n_products=120, n_categories_top=5, n_categories_fine=20,
        n_train_sessions=1000, n_eval_sessions=1, days=10, rng_seed=3,
        intent_stickiness=0.8, session_length_geometric_p=0.15,
    )
    dataset, _, _ = generate(cfg)
    cor_report = verify_stability(dataset, CorEngine(), k=5)
    assert cor_report.stable, cor_report.detail
    vr_report = verify_stability(dataset, VrEngine(hyper=Hyperparams(rng_seed=5)), k=5)
    assert vr_report.stable, vr_report.detail
    _report("stability gate: COR and VR byte-identical across two runs")


def test_value_formula_worked_examples():
    """Value projection arithmetic on its hand-checked examples."""
    assert session_value(0.005, 1e8) == -500_000.0
    assert session_value(-0.012, 1e8) == 1_200_000.0
    assert session_value(0.0, 1e8) == 0.0
    _report("session value formula matches the worked projections exactly")


def test_constellation_one_exactness():
    """Unchanged output implies bitwise-equal conversion rate and zero value."""
    cfg = GenConfig(
        n_products=60, n_categories_top=4, n_categories_fine=12,
        n_train_sessions=300, n_eval_sessions=500, days=5, rng_seed=17,
        order_base_rate=0.08, intent_stickiness=0.85,
    )
    dataset, eval_log, _ = generate(cfg)
    records = run_loo(CorEngine(), dataset, lambda: eval_log, HarnessConfig(k=5, revenue_base=1e8))
    assert len(records) == 300
    unchanged = [r for r in records if not r.diff.changed]
    assert unchanged, "300-session fixture must contain redundant sessions"
    for record in unchanged:
        assert record.cr_delta == record.cr_base
        assert record.value == 0.0
        assert record.constellation is Constellation.NO_OUTPUT_CHANGE
    _report(
        f"constellation-1 exactness over {len(records)} records "
        f"({len(unchanged)} unchanged, all bitwise-equal)"
    )


def test_planted_toxic_detected_by_both_engines(benchmark_data, cor_records, vr_records):
    """The oracle-verified toxic plant is classified Toxic with negative value."""
    _, _, truth, _ = benchmark_data
    toxic_ids = [sid for sid, kind in truth.planted if kind is PlantKind.TOXIC]
    assert len(toxic_ids) == 1
    for records, engine in ((cor_records, "cor"), (vr_records, "vr")):
        record = next(r for r in records if r.session_id == toxic_ids[0])
        assert record.constellation is Constellation.TOXIC, engine
        assert record.value < 0, engine
    _report("planted toxic session detected as Toxic with value < 0 under both engines")


def test_planted_redundancy_no_output_change(benchmark_data, benchmark_rc, cor_records):
    """Every verified duplicate clone leaves the COR output untouched."""
    dataset, _, truth, dup_source = benchmark_data
    clones = [sid for sid, kind in truth.planted if kind is PlantKind.DUPLICATE]
    assert len(clones) == benchmark_rc.plants.duplicates.copies
    assert duplicates_still_no_impact(dataset, dup_source, benchmark_rc.harness.k)
    by_id = {r.session_id: r for r in cor_records}
    for sid in clones:
        assert by_id[sid].constellation is Constellation.NO_OUTPUT_CHANGE
        assert by_id[sid].cr_delta == by_id[sid].cr_base
    _report("planted duplicate clones all classify NoOutputChange under COR")


def test_rate_and_heterogeneity_formulas():
    """Hand-computed three-line fixtures for the two formulas."""
    from sessionvalue.cor import RecommendationList
    from sessionvalue.corpus import heterogeneity_ratio

    recs = {"A": RecommendationList(seed="A", items=(("B", 2.0), ("C", 1.0)))}
    eval_log = mk_eval(
        [("e1", ["A"], ["B"]), ("e2", ["A"], []), ("e3", ["A"], ["C"])]
    )
    pairs = aggregate_pairs(recs, eval_log)
    assert pairs.counts[("A", "B")] == (3, 1)
    assert pairs.counts[("A", "C")] == (3, 1)
    assert conversion_rate(pairs) == 2 / 6

    catalog = mk_catalog([], paths={"A": ("cat1",), "B": ("cat1",), "C": ("cat2",)})
    session = mk_session("s", ["A", "B", "C"])
    assert heterogeneity_ratio(session, catalog, level=0) == 2 / 3
    collapse_catalog = mk_catalog([], paths={"A": ("cat1",), "B": ("cat2",)})
    assert heterogeneity_ratio(mk_session("t", ["A", "A", "B"]), collapse_catalog, level=0) == 1.0
    _report("conversion-rate and heterogeneity-ratio formulas match hand computation")


def test_lifecycle_classifier(benchmark_data, benchmark_rc):
    """Rule table, exact affine OLS recovery, and percentage partition."""
    assert classify_impact(0.0, 0.0) is Impact.NO_IMPACT
    assert classify_impact(0.0, 3.0) is Impact.STABLE
    assert classify_impact(-0.2, 5.0) is Impact.DECREASING
    assert classify_impact(0.4, 1.0) is Impact.INCREASING

    slope, intercept = ols([2 * x + 3 for x in range(50)])
    assert slope == pytest.approx(2.0, abs=1e-9)
    assert intercept == pytest.approx(3.0, abs=1e-9)

    dataset, _, _, _ = benchmark_data
    trajs = trajectories(dataset, benchmark_rc.lifecycle.plan, k=benchmark_rc.lifecycle.k)
    stats = class_stats(trajs, dataset)
    assert stats.cohort_size > 0
    assert sum(row.percentage for row in stats.rows) == pytest.approx(100.0, abs=0.1)
    assert sum(row.n_sessions for row in stats.rows) == stats.cohort_size
    _report("lifecycle classifier: rule table, OLS within 1e-9, percentages sum to 100")


def test_learning_curve_invariants(benchmark_data, benchmark_rc):
    """Nested slices: coverage grows, SNP matches brute force, curves bounded."""
    dataset, eval_log, _, _ = benchmark_data
    plan = CurvePlan(
        end_day=dataset.max_day,
        day_grid=benchmark_rc.curve.day_grid,
        hyper=benchmark_rc.hyper,
        k=benchmark_rc.curve.k,
    )
    rows = run_curve(dataset, plan, lambda: eval_log)

    products = [row.n_products for row in rows]
    assert products == sorted(products)

    assert rows[0].snp == 1.0

    prev_products: frozenset[str] = frozenset()
    prev_ids: set[str] = set()
    for n_days, row in zip(plan.day_grid, rows):
        sliced = slice_days(dataset, plan.end_day, n_days)
        added = [s for s in sliced.sessions if s.session_id not in prev_ids]
        brute = sum(1 for s in added if not s.unique_products <= prev_products) / len(added)
        assert row.snp == brute
        prev_products = frozenset(build_vocab(sliced, plan.hyper.min_count).products)
        prev_ids = {s.session_id for s in sliced.sessions}

    for _, _, _, scaled in emit_curves(rows):
        assert 0.0 <= scaled <= 1.0
    _report("learning-curve invariants: monotone coverage, brute-force SNP, bounded curves")


def test_sensitivity_ordering_vr_at_most_cor(cor_records, vr_records):
    """On the pinned benchmark, the ML engine is at least as sensitive as COR."""
    cor_frac = sum(
        1 for r in cor_records if r.constellation is Constellation.NO_OUTPUT_CHANGE
    ) / len(cor_records)
    vr_frac = sum(
        1 for r in vr_records if r.constellation is Constellation.NO_OUTPUT_CHANGE
    ) / len(vr_records)
    assert vr_frac <= cor_frac
    _report(
        f"sensitivity ordering: NoOutputChange fraction VR {vr_frac:.3f} "
        f"<= COR {cor_frac:.3f}"
    )


class TestCliDeterminism:
    """Every CLI command reruns byte-identically, including across --jobs."""

    def _files(self, directory: Path) -> dict[str, bytes]:
        return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()}

    def _run(self, args):
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 0, result.output
        return result

    def _table_without_timing(self, path: Path) -> list[dict]:
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            row.pop("cpu_seconds")
        return rows

    def _scaled_without_timing(self, path: Path) -> list[dict]:
        with open(path) as fh:
            return [row for row in csv.DictReader(fh) if row["kpi_name"] != "cpu_seconds"]

    def test_end_to_end_determinism(self, tmp_path):
        outs = [tmp_path / f"run{i}" for i in range(2)]
        smoke = str(SMOKE_CONFIG)
        for out in outs:
            o = str(out)
            self._run(["synth", "--config", smoke, "--out", o])
            self._run(["train", "--config", smoke, "--out", o, "--engine", "cor"])
            self._run(["train", "--config", smoke, "--out", o, "--engine", "vr"])
            self._run(["recommend", "--config", smoke, "--out", o, "--engine", "cor"])
            self._run(["recommend", "--config", smoke, "--out", o, "--engine", "vr"])
            self._run(["stability", "--config", smoke, "--out", o])
            self._run(["value", "--config", smoke, "--out", o, "--engine", "cor"])
            jobs = "1" if out is outs[0] else "2"
            self._run(["value", "--config", smoke, "--out", o, "--engine", "vr", "--jobs", jobs])
            self._run(["lifecycle", "--config", smoke, "--out", o])
            self._run(["curve", "--config", smoke, "--out", o])

        first, second = (self._files(out) for out in outs)
        assert set(first) == set(second)
        for name in first:
            if name == "curve_table.csv":
                assert self._table_without_timing(outs[0] / name) == self._table_without_timing(
                    outs[1] / name
                )
            elif name == "curve_scaled.csv":
                assert self._scaled_without_timing(outs[0] / name) == self._scaled_without_timing(
                    outs[1] / name
                )
            else:
                assert first[name] == second[name], f"{name} differs between reruns"
        _report(
            "CLI determinism: byte-identical reruns across --jobs "
            "(curve timing column excluded: measured wall time)"
        )

    def test_benchmark_synth_with_plants_deterministic(self, tmp_path):
        outs = [tmp_path / f"bench{i}" for i in range(2)]
        for out in outs:
            self._run(["synth", "--config", str(BENCHMARK_CONFIG), "--out", str(out)])
        first, second = (self._files(out) for out in outs)
        assert first == second
        _report("benchmark synth (with verified plants) byte-identical across reruns")
