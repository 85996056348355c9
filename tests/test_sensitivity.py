from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sessionvalue import embed, sensitivity
from sessionvalue.cor import all_top_k, build_matrix, ranked_ids
from sessionvalue.corpus import Dataset, leave_one_out
from sessionvalue.embed import Hyperparams
from sessionvalue.errors import (
    EmptyVocabularyError,
    ExhaustiveVrRefusedError,
    SessionValueError,
    UndefinedBaselineError,
    UnknownSessionError,
)
from sessionvalue.kpi import rate_from_totals
from sessionvalue.sensitivity import (
    Constellation,
    CorEngine,
    HarnessConfig,
    OutputDiff,
    SampleSpec,
    SensitivityRecord,
    VrEngine,
    classify,
    diff_topk,
    histogram,
    iter_loo,
    relative_cr_change,
    run_loo,
    session_value,
    sessions_to_price,
    summarize,
    verify_stability,
)
from sessionvalue.synthgen import GenConfig, generate

from helpers import mk_dataset, mk_eval
from oracles import run_loo_serial


def ranked(ids):
    return tuple((p, 1.0) for p in ids)


class TwoFitEngine:
    """Both fits dump the same bytes; ``top_k_map`` gives ``first`` for the
    first fit's model and ``second`` for the second's."""

    def __init__(self, first, second):
        self.lists = (first, second)
        self.calls = 0

    def fit(self, dataset):
        self.calls += 1
        return self.calls - 1

    def top_k_map(self, model, k):
        return self.lists[model]

    def serialize(self, model):
        return b"same bytes"


def small_config(seed=7, **overrides):
    kwargs = dict(
        n_products=25, n_categories_top=3, n_categories_fine=8,
        n_train_sessions=60, n_eval_sessions=150, days=3,
        order_base_rate=0.08, intent_stickiness=0.85, rng_seed=seed,
    )
    kwargs.update(overrides)
    return GenConfig(**kwargs)


class TestVerifyStability:
    def test_cor_engine_stable(self):
        ds, _, _ = generate(small_config())
        report = verify_stability(ds, CorEngine(), k=5)
        assert report.stable

    def test_vr_engine_stable_with_fixed_seed(self):
        ds, _, _ = generate(small_config())
        hyper = Hyperparams(dimensions=8, iterations=1, min_count=2, rng_seed=4)
        report = verify_stability(ds, VrEngine(hyper=hyper), k=5)
        assert report.stable

    def test_seed_mismatch_reports_divergence(self):
        ds, _, _ = generate(small_config())

        class FlakyEngine:
            def __init__(self):
                self.calls = 0

            def fit(self, dataset):
                hyper = Hyperparams(dimensions=8, iterations=1, min_count=2,
                                    rng_seed=self.calls)
                self.calls += 1
                return VrEngine(hyper=hyper).fit(dataset)

            def top_k_map(self, model, k):
                return VrEngine(hyper=model.hyper).top_k_map(model, k)

            def serialize(self, model):
                return VrEngine(hyper=model.hyper).serialize(model)

        report = verify_stability(ds, FlakyEngine())
        assert not report.stable
        assert "diverge" in report.detail

    def test_topk_divergence_names_first_seed(self):
        # identical dumps, different lists: the second fit ranks B's list
        # differently and gains a seed D, so the report names B, the first
        engine = TwoFitEngine(
            {"A": ranked(["B"]), "B": ranked(["A", "C"])},
            {"A": ranked(["B"]), "B": ranked(["C", "A"]), "D": ranked(["A"])},
        )
        report = verify_stability(mk_dataset([("s", 0, ["A"])]), engine)
        assert not report.stable
        assert report.detail == "top-k lists diverge at seed 'B'"

    def test_score_divergence_is_unstable(self):
        # identical dumps and ranked ids; the second fit scores C in B's list
        # lower, and recs_*.csv would write that score
        engine = TwoFitEngine(
            {"A": (("B", 0.5),), "B": (("A", 0.5), ("C", 0.25))},
            {"A": (("B", 0.5),), "B": (("A", 0.5), ("C", 0.125))},
        )
        report = verify_stability(mk_dataset([("s", 0, ["A"])]), engine)
        assert not report.stable
        assert report.detail == "top-k lists diverge at seed 'B'"


class TestDiffTopk:
    def test_identical_maps(self):
        base = {"A": ranked(["B", "C"]), "B": ranked(["A"])}
        diff = diff_topk(base, dict(base))
        assert not diff.changed
        assert diff.n_changed_seeds == 0

    def test_reorder_detected(self):
        base = {"A": ranked(["B", "C"])}
        delta = {"A": ranked(["C", "B"])}
        diff = diff_topk(base, delta)
        assert diff.changed
        assert diff.changed_seeds == ("A",)

    def test_membership_change_detected(self):
        base = {"A": ranked(["B", "C"])}
        delta = {"A": ranked(["B", "D"])}
        diff = diff_topk(base, delta)
        assert diff.changed_seeds == ("A",)

    def test_seed_missing_counts_as_changed(self):
        base = {"A": ranked(["B"]), "B": ranked(["A"])}
        delta = {"A": ranked(["B"])}
        diff = diff_topk(base, delta)
        assert diff.changed
        assert diff.changed_seeds == ("B",)
        assert diff_topk(base, {"A": ranked(["B"]), "B": None}).changed_seeds == ("B",)
        assert ranked_ids(None) is None
        assert ranked_ids(ranked(["B", "A"])) == ("B", "A")

    def test_extra_delta_seed_counts_as_changed(self):
        base = {"A": ranked(["B"])}
        delta = {"A": ranked(["B"]), "Z": ranked(["A"])}
        diff = diff_topk(base, delta)
        assert diff.changed
        assert diff.changed_seeds == ("Z",)

    def test_scores_ignored(self):
        base = {"A": (("B", 3.0),)}
        delta = {"A": (("B", 2.0),)}
        assert not diff_topk(base, delta).changed

    def test_only_given_seeds_compared(self):
        base = {"A": ranked(["B"]), "B": ranked(["A"]), "C": ranked(["A"])}
        delta = {"A": ranked(["C"]), "B": ranked(["C"])}
        assert diff_topk(base, delta).changed_seeds == ("A", "B", "C")
        assert diff_topk(base, delta, ["B"]).changed_seeds == ("B",)
        assert diff_topk(base, delta, {"C", "A"}).changed_seeds == ("A", "C")
        # a seed on neither side has no list on either, so it did not change
        assert not diff_topk(base, delta, ["Z"]).changed
        assert not diff_topk(base, delta, []).changed


class TestValueFormula:
    def test_relative_change(self):
        assert relative_cr_change(0.050, 0.0505) == pytest.approx(0.01)

    def test_equal_rates(self):
        assert relative_cr_change(0.05, 0.05) == 0.0

    def test_zero_baseline_error(self):
        with pytest.raises(UndefinedBaselineError):
            relative_cr_change(0.0, 0.1)

    def test_positive_delta_projection(self):
        # +0.5% CR on removal: the session was hurting the system
        assert session_value(0.005, 1e8) == -500_000.0

    def test_negative_delta_projection(self):
        # -1.2% CR on removal: the session was worth 1.2M
        assert session_value(-0.012, 1e8) == 1_200_000.0

    def test_zero_change_zero_value(self):
        assert session_value(0.0, 1e8) == 0.0

    def test_sign_law(self):
        rng = np.random.default_rng(1)
        for rel in rng.normal(scale=0.01, size=100):
            value = session_value(float(rel), 5e7)
            assert np.sign(value) == -np.sign(rel)


UNCHANGED = OutputDiff(changed_seeds=())
CHANGED = OutputDiff(changed_seeds=("A",))


class TestClassify:
    def test_no_output_change(self):
        assert classify(UNCHANGED, 0.0, 0.0005) is Constellation.NO_OUTPUT_CHANGE

    def test_toxic(self):
        assert classify(CHANGED, 0.002, 0.0005) is Constellation.TOXIC

    def test_change_without_kpi_movement(self):
        assert classify(CHANGED, -0.0003, 0.0005) is Constellation.CHANGE_NO_KPI

    def test_valuable(self):
        assert classify(CHANGED, -0.002, 0.0005) is Constellation.VALUABLE

    def test_band_boundary_is_neutral(self):
        assert classify(CHANGED, 0.0005, 0.0005) is Constellation.CHANGE_NO_KPI


@pytest.fixture(scope="module")
def run():
    ds, ev, _ = generate(small_config())
    cfg = HarnessConfig(k=5, revenue_base=1e6)
    return ds, ev, cfg, run_loo(CorEngine(), ds, lambda: ev, cfg)


class TestRunCorLoo:
    def test_exhaustive_and_sorted(self, run):
        ds, _, _, records = run
        assert len(records) == len(ds.sessions)
        sids = [r.session_id for r in records]
        assert sids == sorted(sids)

    def test_diff_equals_full_rebuild_oracle(self, run):
        ds, ev, cfg, records = run
        base_topk = all_top_k(build_matrix(ds), cfg.k)
        for record in records:
            rebuilt = build_matrix(
                Dataset(
                    sessions=tuple(
                        s for s in ds.sessions if s.session_id != record.session_id
                    ),
                    catalog=ds.catalog,
                )
            )
            oracle = diff_topk(base_topk, all_top_k(rebuilt, cfg.k))
            assert record.diff == oracle

    def test_constellation_one_exactness(self, run):
        _, _, _, records = run
        unchanged = [r for r in records if not r.diff.changed]
        assert unchanged, "fixture should contain redundant sessions"
        for r in unchanged:
            assert r.cr_delta == r.cr_base  # bitwise
            assert r.value == 0.0
            assert r.constellation is Constellation.NO_OUTPUT_CHANGE

    def test_sign_law_over_records(self, run):
        _, _, _, records = run
        for r in records:
            assert np.sign(r.value) == -np.sign(r.rel_cr_change)

    def test_summary_conserves_counts(self, run):
        _, _, _, records = run
        summary = summarize(records)
        assert sum(summary["constellations"].values()) == len(records)


VR_HYPER = Hyperparams(dimensions=8, iterations=1, min_count=5, rng_seed=3)


class TestSessionsToPrice:
    """Which sessions ``value`` prices: every one under ``cor``; under ``vr``
    the listed sample, or every one up to ``VR_EXHAUSTIVE_LIMIT``."""

    DATASET = mk_dataset([(f"s{i}", 0, ["A", "B"]) for i in range(5)])

    def test_cor_prices_every_session_above_the_limit(self, monkeypatch):
        monkeypatch.setattr(sensitivity, "VR_EXHAUSTIVE_LIMIT", 1)
        assert sessions_to_price(CorEngine(), self.DATASET, HarnessConfig()) is None

    def test_vr_sample_is_priced_above_the_limit(self, monkeypatch):
        monkeypatch.setattr(sensitivity, "VR_EXHAUSTIVE_LIMIT", 1)
        cfg = HarnessConfig(sample=SampleSpec(("s3", "s1")))
        assert sessions_to_price(VrEngine(VR_HYPER), self.DATASET, cfg) == ("s3", "s1")

    @pytest.mark.parametrize("limit", [5, 200])
    def test_vr_without_sample_up_to_the_limit_prices_every_session(self, limit, monkeypatch):
        monkeypatch.setattr(sensitivity, "VR_EXHAUSTIVE_LIMIT", limit)
        assert sessions_to_price(VrEngine(VR_HYPER), self.DATASET, HarnessConfig()) is None

    def test_vr_without_sample_over_the_limit_is_refused(self, monkeypatch):
        monkeypatch.setattr(sensitivity, "VR_EXHAUSTIVE_LIMIT", 4)
        with pytest.raises(ExhaustiveVrRefusedError) as info:
            sessions_to_price(VrEngine(VR_HYPER), self.DATASET, HarnessConfig())
        assert isinstance(info.value, SessionValueError)
        assert str(info.value) == (
            "exhaustive VR leave-one-out over 5 sessions is not tractable (limit 4); "
            "configure harness.sample"
        )


class TestRunVrLoo:
    def test_no_sample_prices_every_session(self):
        ds, ev, _ = generate(small_config(n_train_sessions=12, n_eval_sessions=40))
        every = run_loo(VrEngine(VR_HYPER), ds, lambda: ev, HarnessConfig(k=3))
        explicit = run_loo(VrEngine(VR_HYPER), ds, lambda: ev, HarnessConfig(k=3), session_ids=tuple(ds.by_id))
        assert [r.session_id for r in every] == sorted(ds.by_id)
        assert every == explicit

    def test_empty_sample_rejected(self):
        ds, ev, _ = generate(small_config())
        with pytest.raises(ValueError, match="session_ids"):
            run_loo(VrEngine(VR_HYPER), ds, lambda: ev, HarnessConfig(k=3), session_ids=())

    def test_unknown_sample_id(self):
        ds, ev, _ = generate(small_config())
        with pytest.raises(UnknownSessionError):
            run_loo(VrEngine(VR_HYPER), ds, lambda: ev, HarnessConfig(k=3), session_ids=("nope",))

    @pytest.mark.parametrize("engine", [CorEngine(), VrEngine(VR_HYPER)], ids=["cor", "vr"])
    def test_repeated_sample_id_rejected_before_anything_loads(self, engine):
        ds, _, _ = generate(small_config())
        first, second = sorted(ds.by_id)[:2]
        with pytest.raises(ValueError, match=f"session id {second!r} is listed more than once"):
            run_loo(engine, ds, lambda: pytest.fail("the eval log was read"), HarnessConfig(k=3),
                    session_ids=(second, first, second))

    def test_below_min_count_session_changes_nothing(self):
        # the left-out session holds only sub-threshold products: the delta
        # vocabulary, and hence the trained model, is identical to baseline
        specs = [(f"m{i}", 0, ["A", "B"]) for i in range(10)]
        specs.append(("rare", 0, ["X", "Y"]))
        ds = mk_dataset(specs)
        ev = mk_eval([("e1", ["A"], ["B"])])
        records = run_loo(VrEngine(VR_HYPER), ds, lambda: ev, HarnessConfig(k=3), session_ids=("rare",))
        assert len(records) == 1
        record = records[0]
        assert not record.diff.changed
        assert record.diff.changed_seeds == ()
        assert record.cr_delta == record.cr_base
        assert record.constellation is Constellation.NO_OUTPUT_CHANGE

    def test_vanishing_product_reported_as_seed_missing(self):
        hyper = Hyperparams(dimensions=8, iterations=1, min_count=2, rng_seed=3)
        specs = [(f"m{i}", 0, ["A", "B"]) for i in range(4)]
        specs.append(("holds-x", 0, ["X", "A", "X"]))
        ds = mk_dataset(specs)
        ev = mk_eval([("e1", ["A"], ["B"])])
        records = run_loo(VrEngine(hyper), ds, lambda: ev, HarnessConfig(k=3), session_ids=("holds-x",))
        diff = records[0].diff
        assert diff.changed
        assert "X" in diff.changed_seeds
        engine = VrEngine(hyper)
        assert "X" in engine.top_k_map(engine.fit(ds), 3)
        assert engine.retrain_lists(ds, "holds-x", 3)["X"] is None

    def test_session_emptying_the_vocabulary_prices_every_seed_missing(self, caplog):
        # without "ab" no product reaches min_count=2: the retrain has no
        # vocabulary, so every seed goes, as "ab"'s products go for cor
        hyper = Hyperparams(dimensions=8, iterations=1, min_count=2, rng_seed=3)
        ds = mk_dataset([("ab", 0, ["A", "B", "A", "B"]), ("c", 0, ["C"])])
        ev = mk_eval([("e1", ["A"], ["B"]), ("e2", ["B"], [])])
        cfg = HarnessConfig(k=3)
        (vr,) = run_loo(VrEngine(hyper), ds, lambda: ev, cfg, session_ids=("ab",))
        with caplog.at_level("WARNING", logger="sessionvalue.kpi"):
            (cr,) = run_loo(CorEngine(), ds, lambda: ev, cfg, session_ids=("ab",))
        assert vr.diff.changed_seeds == cr.diff.changed_seeds == ("A", "B")
        cor_engine = CorEngine()
        assert VrEngine(hyper).retrain_lists(ds, "ab", 3) == {"A": None, "B": None}
        assert cor_engine.delta_lists(cor_engine.fit(ds), ds, "ab", 3) == {"A": None, "B": None}
        assert "zero views" in caplog.text
        for record in (vr, cr):
            assert record.cr_base == 0.5
            assert record.cr_delta == rate_from_totals(0, 0) == 0.0
            assert record.rel_cr_change == -1.0
            assert record.constellation is Constellation.VALUABLE

    def test_dominant_clone_counts_leave_output_unchanged(self):
        # two tight product clusters, 25 identical sessions each: removing one
        # clone cannot reorder the rankings (verified against a full retrain)
        specs = [(f"a{i}", 0, ["A1", "A2", "A3", "A1", "A2"]) for i in range(25)]
        specs += [(f"b{i}", 0, ["B1", "B2", "B3", "B1", "B2"]) for i in range(25)]
        ds = mk_dataset(specs)
        ev = mk_eval([("e1", ["A1"], ["A2"]), ("e2", ["B1"], ["B2"])])
        hyper = Hyperparams(dimensions=8, iterations=3, min_count=1, rng_seed=1)
        records = run_loo(VrEngine(hyper), ds, lambda: ev, HarnessConfig(k=2), session_ids=("a0",))
        record = records[0]
        assert not record.diff.changed
        assert record.constellation is Constellation.NO_OUTPUT_CHANGE
        # independent rebuild check of the same delta model
        from sessionvalue.embed import all_top_k_similar, train

        base = train(ds, hyper)
        delta = train(
            Dataset(
                sessions=tuple(s for s in ds.sessions if s.session_id != "a0"),
                catalog=ds.catalog,
            ),
            hyper,
        )
        base_ids = {s: ranked_ids(pairs) for s, pairs in all_top_k_similar(base, 2).items()}
        delta_ids = {s: ranked_ids(pairs) for s, pairs in all_top_k_similar(delta, 2).items()}
        assert base_ids == delta_ids


corpora = st.lists(st.lists(st.sampled_from("ABCDEF"), min_size=1, max_size=6), min_size=1, max_size=8)


def vocabulary(dataset, min_count):
    """The products ``build_vocab`` keeps; None when it keeps none."""
    try:
        return frozenset(embed.build_vocab(dataset, min_count).products)
    except EmptyVocabularyError:
        return None


class TestVrLostSeeds:
    """``VrEngine.retrain_lists`` gives None for the session's own products
    only. That is exact because leaving a session out lowers only its own
    products' token counts: no delta gains a product, the products it loses
    are the session's, and it keeps none only if every baseline product was
    the session's."""

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(sessions=corpora, min_count=st.integers(1, 4))
    def test_a_delta_loses_only_its_own_products(self, sessions, min_count):
        ds = mk_dataset([(f"s{i}", 0, products) for i, products in enumerate(sessions)])
        base = vocabulary(ds, min_count) or frozenset()
        for session in ds.sessions:
            delta = vocabulary(leave_one_out(ds, session.session_id).materialized, min_count)
            if delta is None:
                assert base <= session.unique_products
            else:
                assert delta <= base
                assert base - delta <= session.unique_products

    @settings(max_examples=12, derandomize=True, deadline=None)
    @given(sessions=corpora, min_count=st.integers(1, 4))
    @example(sessions=[["A", "B", "A", "B"], ["C"]], min_count=2)
    @example(sessions=[["A", "B"]] * 4 + [["X", "A", "X"]], min_count=2)
    def test_retrain_lists_gives_none_for_exactly_the_seeds_a_retrain_lost(self, sessions, min_count):
        hyper = Hyperparams(dimensions=4, iterations=1, min_count=min_count, rng_seed=3)
        ds = mk_dataset([(f"s{i}", 0, products) for i, products in enumerate(sessions)])
        if vocabulary(ds, min_count) is None:
            return
        base = embed.all_top_k_similar(embed.train(ds, hyper), 3)
        for sid in ds.by_id:
            try:
                model = embed.train(leave_one_out(ds, sid).materialized, hyper)
            except EmptyVocabularyError:
                retrained = {}
            else:
                retrained = embed.all_top_k_similar(model, 3)
            lists = VrEngine(hyper).retrain_lists(ds, sid, 3)
            lost = {seed for seed, pairs in lists.items() if pairs is None}
            assert lost & base.keys() == base.keys() - retrained.keys()
            assert {seed: pairs for seed, pairs in lists.items() if pairs is not None} == retrained


@pytest.mark.parametrize("engine", [CorEngine(), VrEngine(VR_HYPER)], ids=["cor", "vr"])
def test_deterministic_and_jobs_invariant(engine):
    ds, ev, _ = generate(small_config(n_train_sessions=30, n_eval_sessions=80))
    sample = tuple(sorted(ds.by_id)[:4])
    cfg = HarnessConfig(k=3, revenue_base=1e6)
    first = run_loo(engine, ds, lambda: ev, cfg, jobs=1, session_ids=sample)
    second = run_loo(engine, ds, lambda: ev, cfg, jobs=1, session_ids=sample)
    parallel = run_loo(engine, ds, lambda: ev, cfg, jobs=2, session_ids=sample)
    assert first == second
    assert first == parallel
    assert [r.session_id for r in first] == sorted(sample)


def loo_inputs():
    ds, ev, _ = generate(small_config(n_train_sessions=30, n_eval_sessions=80))
    return ds, ev, tuple(sorted(ds.by_id)[:4]), HarnessConfig(k=3, revenue_base=1e6)


@pytest.mark.parametrize("jobs", [0, -3])
@pytest.mark.parametrize("engine", [CorEngine(), VrEngine(VR_HYPER)], ids=["cor", "vr"])
def test_jobs_below_one_is_refused_before_anything_loads(engine, jobs, monkeypatch):
    ds, _, sample, cfg = loo_inputs()
    monkeypatch.setattr(embed, "load_kernel", lambda: pytest.fail("the kernel was loaded"))
    with pytest.raises(ValueError, match=f"^jobs must be >= 1, got {jobs}$"):
        run_loo(engine, ds, lambda: pytest.fail("the eval log was read"), cfg, jobs=jobs,
                session_ids=sample)


def test_vr_prices_in_one_thread_per_session_at_most_and_cor_in_none(monkeypatch):
    started = []
    pool = sensitivity.ThreadPoolExecutor

    def recording(max_workers):
        started.append(max_workers)
        return pool(max_workers)

    monkeypatch.setattr(sensitivity, "ThreadPoolExecutor", recording)
    ds, ev, sample, cfg = loo_inputs()
    threads = threading.active_count()
    for jobs in (1, 8):
        run_loo(CorEngine(), ds, lambda: ev, cfg, jobs=jobs, session_ids=sample)
    assert started == []
    for jobs in (1, 8):
        run_loo(VrEngine(VR_HYPER), ds, lambda: ev, cfg, jobs=jobs, session_ids=sample[:2])
    assert started == [1, 3]  # at jobs=8: the two deltas and the baseline
    assert threading.active_count() == threads


@dataclass(frozen=True)
class FailingVrEngine(VrEngine):
    """``VrEngine`` whose retrain without session ``failing`` raises, in the
    pool's task."""

    failing: str = ""

    def retrain_lists(self, dataset, session_id, k):
        if session_id == self.failing:
            raise LookupError(f"no delta for {session_id}")
        return super().retrain_lists(dataset, session_id, k)


@pytest.mark.parametrize("jobs", [1, 2])
def test_error_in_a_delta_reaches_the_caller_with_a_note_naming_its_session(jobs):
    ds, ev, sample, cfg = loo_inputs()
    failing = sample[2]
    with pytest.raises(LookupError) as info:
        run_loo(FailingVrEngine(VR_HYPER, failing), ds, lambda: ev, cfg, jobs=jobs, session_ids=sample)
    assert type(info.value) is LookupError
    assert str(info.value) == f"no delta for {failing}"
    assert info.value.__notes__ == [
        f"while pricing the leave-one-out delta of session {failing!r}"
    ]
    assert info.traceback[-1].name == "retrain_lists"


@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_threads_from_a_cold_init_row_memo_give_the_serial_records(jobs):
    """From an empty ``embed._init_row`` memo, under a short switch interval,
    the threads' records equal the serial ones."""
    ds, ev, sample, cfg = loo_inputs()
    serial = run_loo_serial(VrEngine(VR_HYPER), ds, ev, cfg, sample)
    embed._init_row.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = run_loo(VrEngine(VR_HYPER), ds, lambda: ev, cfg, jobs=jobs, session_ids=sample)
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


@dataclass(frozen=True)
class HookedVrEngine(VrEngine):
    """``VrEngine`` that calls ``before_fit()`` before the baseline trains and
    ``around_retrain(session_id, retrain)`` in place of each retrain."""

    before_fit: object = None
    around_retrain: object = None

    def fit(self, dataset):
        if self.before_fit is not None:
            self.before_fit()
        return super().fit(dataset)

    def retrain_lists(self, dataset, session_id, k):
        retrain = partial(super().retrain_lists, dataset, session_id, k)
        if self.around_retrain is None:
            return retrain()
        return self.around_retrain(session_id, retrain)


@pytest.mark.parametrize("jobs", [1, 2])
def test_iter_loo_yields_a_record_before_the_last_session_is_priced(jobs):
    """The last session's retrain waits until the first record is taken, so
    the first record comes out before it; the records are ``run_loo``'s."""
    ds, ev, sample, cfg = loo_inputs()
    taken = threading.Event()

    def around_retrain(session_id, retrain):
        if session_id == sample[-1]:
            assert taken.wait(timeout=60)
        return retrain()

    records = iter_loo(HookedVrEngine(VR_HYPER, around_retrain=around_retrain), ds, lambda: ev,
                       cfg, jobs=jobs, session_ids=sample)
    first = next(records)
    assert first.session_id != sample[-1]
    taken.set()
    rest = list(records)
    serial = run_loo_serial(VrEngine(VR_HYPER), ds, ev, cfg, sample)
    assert sorted([first, *rest], key=lambda r: r.session_id) == serial


def test_the_baseline_trains_beside_a_delta():
    """At ``jobs=2`` the baseline's fit and the first session's retrain must
    both reach a two-party barrier; one after the other, it breaks."""
    ds, ev, sample, cfg = loo_inputs()
    barrier = threading.Barrier(2, timeout=60)

    def around_retrain(session_id, retrain):
        if session_id == sample[0]:
            barrier.wait()
        return retrain()

    engine = HookedVrEngine(VR_HYPER, before_fit=barrier.wait, around_retrain=around_retrain)
    records = run_loo(engine, ds, lambda: ev, cfg, jobs=2, session_ids=sample)
    assert records == run_loo_serial(VrEngine(VR_HYPER), ds, ev, cfg, sample)


@pytest.mark.parametrize("jobs", [1, 2])
def test_the_eval_log_is_read_after_the_trainings_are_submitted(jobs, monkeypatch):
    """At every ``jobs``, every training is submitted before ``load_eval``
    runs."""
    ds, ev, sample, cfg = loo_inputs()
    events: list[str] = []
    lock = threading.Lock()

    def record(event):
        with lock:
            events.append(event)

    class Pool(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            record("submit")
            return super().submit(fn, *args, **kwargs)

    def around_retrain(session_id, retrain):
        record(session_id)
        return retrain()

    def load_eval():
        record("load_eval")
        return ev

    monkeypatch.setattr(sensitivity, "ThreadPoolExecutor", Pool)
    engine = HookedVrEngine(
        VR_HYPER, before_fit=lambda: record("baseline"), around_retrain=around_retrain
    )
    run_loo(engine, ds, load_eval, cfg, jobs=jobs, session_ids=sample)
    assert events.count("submit") == len(sample) + 1
    assert events.index("load_eval") > max(i for i, e in enumerate(events) if e == "submit")
    assert sorted(e for e in events if e not in ("submit", "load_eval")) == ["baseline", *sample]


def test_eval_log_error_cancels_the_queued_trainings(monkeypatch):
    """With two threads the baseline and the first retrain run; an error
    raised by ``load_eval`` while they train reaches the caller unchanged,
    the retrains still queued never start, and the pool's threads are gone."""
    ds, ev, sample, cfg = loo_inputs()
    both_started, queue_cancelled = threading.Barrier(3, timeout=60), threading.Event()
    error = LookupError("no eval log")
    trained: list[str] = []

    def hold(name):
        trained.append(name)
        both_started.wait()
        assert queue_cancelled.wait(timeout=60)

    def around_retrain(session_id, retrain):
        hold(session_id)
        return retrain()

    class Pool(ThreadPoolExecutor):
        """Lets the running trainings go on only once the queue is cancelled."""

        def shutdown(self, wait=True, *, cancel_futures=False):
            super().shutdown(wait=False, cancel_futures=cancel_futures)
            queue_cancelled.set()
            super().shutdown(wait=wait)

    def load_eval():
        both_started.wait()
        raise error

    monkeypatch.setattr(sensitivity, "ThreadPoolExecutor", Pool)
    engine = HookedVrEngine(VR_HYPER, before_fit=lambda: hold("baseline"), around_retrain=around_retrain)
    threads = threading.active_count()
    with pytest.raises(LookupError) as info:
        run_loo(engine, ds, load_eval, cfg, jobs=2, session_ids=sample)
    assert info.value is error
    assert sorted(trained) == ["baseline", sample[0]]
    assert threading.active_count() == threads


def test_error_in_the_baseline_reaches_the_caller_without_a_session_note(monkeypatch):
    ds, ev, sample, cfg = loo_inputs()
    priced = []
    real_price = sensitivity._price

    def price(base, session_id, lists):
        priced.append(session_id)
        return real_price(base, session_id, lists)

    def fail():
        raise LookupError("no baseline")

    monkeypatch.setattr(sensitivity, "_price", price)
    threads = threading.active_count()
    with pytest.raises(LookupError) as info:
        run_loo(HookedVrEngine(VR_HYPER, before_fit=fail), ds, lambda: ev, cfg, jobs=2,
                session_ids=sample)
    assert type(info.value) is LookupError
    assert str(info.value) == "no baseline"
    assert not hasattr(info.value, "__notes__")
    assert info.traceback[-1].name == "fail"
    assert priced == []
    assert threading.active_count() == threads


@pytest.mark.parametrize("jobs", [2, 4])
def test_a_delta_may_fill_the_init_rows_before_the_baseline(jobs):
    """From an empty ``embed._init_row`` memo in threads, the baseline waits
    until a retrain with a smaller vocabulary has filled the memo's first
    rows, then adds its own. The records equal the serial ones."""
    ds, ev, sample, cfg = loo_inputs()
    sample = sample[1:]  # leaving any of these out drops a product below min_count
    serial = run_loo_serial(VrEngine(VR_HYPER), ds, ev, cfg, sample)
    n_base = len(embed.build_vocab(ds, VR_HYPER.min_count))
    smaller = sample[0]
    assert len(embed.build_vocab(leave_one_out(ds, smaller).materialized, VR_HYPER.min_count)) < n_base
    filled = threading.Event()

    def around_retrain(session_id, retrain):
        lists = retrain()
        if session_id == smaller:
            filled.set()
        return lists

    def before_fit():
        assert filled.wait(timeout=60)

    embed._init_row.cache_clear()
    engine = HookedVrEngine(VR_HYPER, before_fit=before_fit, around_retrain=around_retrain)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = run_loo(engine, ds, lambda: ev, cfg, jobs=jobs, session_ids=sample)
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


def fake_record(rel: float) -> SensitivityRecord:
    return SensitivityRecord(
        session_id="x",
        diff=CHANGED,
        cr_base=0.1,
        cr_delta=0.1 * (1 + rel),
        rel_cr_change=rel,
        value=-rel,
        constellation=classify(CHANGED, rel, 0.0005),
    )


class TestHistogram:
    def test_two_values_one_bin(self):
        hist = histogram([fake_record(0.0051), fake_record(0.0052)], HarnessConfig(bin_width=0.001))
        assert hist.bins == ((0.005, 0.006, 2),)
        assert hist.neutral == 0

    def test_all_zero_pools_neutral(self):
        hist = histogram([fake_record(0.0) for _ in range(5)], HarnessConfig())
        assert hist.neutral == 5
        assert hist.bins == ()

    def test_conservation_on_random_records(self):
        rng = np.random.default_rng(0)
        records = [fake_record(float(r)) for r in rng.normal(scale=0.004, size=500)]
        hist = histogram(records, HarnessConfig(bin_width=0.001, neutral_band=0.0005))
        assert hist.neutral + sum(count for _, _, count in hist.bins) == 500

    def test_negative_values_bin_left_of_zero(self):
        hist = histogram([fake_record(-0.0007)], HarnessConfig(bin_width=0.001))
        ((lo, hi, count),) = hist.bins
        assert lo == pytest.approx(-0.001)
        assert hi == pytest.approx(0.0)
        assert count == 1

    def test_bin_width_validation(self):
        # histogram takes its settings from HarnessConfig, which refuses these
        with pytest.raises(ValueError, match="bin_width"):
            HarnessConfig(bin_width=0.0)
        with pytest.raises(ValueError, match="neutral_band"):
            HarnessConfig(neutral_band=-0.001)
