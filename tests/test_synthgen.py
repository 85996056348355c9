from __future__ import annotations

import io

import pytest

from sessionvalue import synthgen
from sessionvalue.cor import all_top_k, build_matrix, session_top_k
from sessionvalue.corpus import Dataset, EvalLog, EvalSession, write_sessions
from sessionvalue.embed import Hyperparams
from sessionvalue.errors import PlantFailedError, UnknownSessionError
from sessionvalue.kpi import aggregate_pairs, conversion_rate
from sessionvalue.sensitivity import Constellation, CorEngine, HarnessConfig, VrEngine, run_loo
from sessionvalue.synthgen import (
    TOXIC_MIN_REL_GAIN,
    DuplicatePlantConfig,
    GenConfig,
    GroundTruth,
    PlantKind,
    PlantsConfig,
    ToxicPlantConfig,
    _with_clones,
    duplicates_still_no_impact,
    generate,
    plant_no_impact_duplicates,
    plant_toxic_session,
    synthesize,
    write_truth,
)

from helpers import mk_catalog, mk_dataset, mk_eval
from oracles import read_truth

BASE = dict(
    n_products=30, n_categories_top=3, n_categories_fine=9,
    n_train_sessions=80, n_eval_sessions=200, days=4,
    order_base_rate=0.08, intent_stickiness=0.85,
)


HYPER = Hyperparams(dimensions=8, iterations=1, min_count=2, rng_seed=5)


def small_config(seed=7, **overrides):
    kwargs = {**BASE, "rng_seed": seed, **overrides}
    return GenConfig(**kwargs)


def serialized(dataset, eval_log) -> bytes:
    buf = io.StringIO()
    for s in dataset.sessions:
        buf.write(s.session_id + "|" + ",".join(f"{c.t}:{c.product}" for c in s.clicks) + "\n")
    for e in eval_log.sessions:
        buf.write(e.session_id + "|" + ",".join(sorted(e.viewed)) + "|" + ",".join(sorted(e.ordered)) + "\n")
    return buf.getvalue().encode()


class TestGenerate:
    def test_deterministic_in_seed(self, tmp_path):
        d1, e1, t1 = generate(small_config())
        d2, e2, t2 = generate(small_config())
        assert serialized(d1, e1) == serialized(d2, e2)
        assert t1.affinity == t2.affinity
        # and the canonical file writers agree byte-for-byte
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_sessions(d1.sessions, pa)
        write_sessions(d2.sessions, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_different_seed_differs(self):
        d1, e1, _ = generate(small_config(seed=7))
        d2, e2, _ = generate(small_config(seed=8))
        assert serialized(d1, e1) != serialized(d2, e2)

    def test_counts(self):
        cfg = small_config(n_products=50, n_train_sessions=200)
        ds, ev, _ = generate(cfg)
        assert len(ds.sessions) == 200
        assert len(ds.catalog.products) == 50
        assert len(ev.sessions) <= cfg.n_eval_sessions

    def test_full_stickiness_keeps_sessions_in_one_fine_category(self):
        ds, _, _ = generate(small_config(intent_stickiness=1.0))
        for session in ds.sessions:
            fine = {ds.catalog.path(p)[1] for p in session.unique_products}
            assert len(fine) == 1

    def test_eval_references_cataloged_products(self):
        ds, ev, _ = generate(small_config())
        for e in ev.sessions:
            assert e.viewed <= ds.catalog.products
            assert e.ordered <= ds.catalog.products
            assert e.viewed and e.ordered  # generator drops empty sets

    def test_sessions_sorted_by_day_then_id(self):
        ds, _, _ = generate(small_config())
        keys = [(s.day, s.session_id) for s in ds.sessions]
        assert keys == sorted(keys)

    def test_affinity_keys_canonical_and_bounded(self):
        _, _, truth = generate(small_config())
        for (a, b), value in truth.affinity.items():
            assert a < b
            assert 0.0 <= value <= 1.0

    def test_truth_round_trip(self, tmp_path):
        _, _, truth = generate(small_config())
        path = tmp_path / "truth.json"
        write_truth(truth, path)
        assert read_truth(path) == truth


@pytest.fixture(scope="module")
def planted():
    ds, ev, truth = generate(small_config())
    out_ds, out_truth = plant_toxic_session(ds, ev, truth, 99, HYPER, k=5)
    return ds, ev, out_ds, out_truth


class TestToxicPlant:
    def test_brute_force_cr_oracle(self, planted):
        base_ds, ev, with_plant, truth = planted
        cr_without = conversion_rate(aggregate_pairs(all_top_k(build_matrix(base_ds), 5), ev))
        cr_with = conversion_rate(aggregate_pairs(all_top_k(build_matrix(with_plant), 5), ev))
        assert cr_with < cr_without

    def test_planted_id_resolves_and_recorded(self, planted):
        _, _, with_plant, truth = planted
        toxic = [sid for sid, kind in truth.planted if kind is PlantKind.TOXIC]
        assert len(toxic) == 1
        assert toxic[0] in with_plant.by_id

    def test_leave_one_out_of_plant_is_toxic(self, planted):
        _, ev, with_plant, truth = planted
        toxic_id = truth.planted[-1][0]
        records = run_loo(CorEngine(), with_plant, lambda: ev, HarnessConfig(k=5, revenue_base=1e6))
        record = next(r for r in records if r.session_id == toxic_id)
        assert record.rel_cr_change > TOXIC_MIN_REL_GAIN
        assert record.value < 0
        assert record.constellation is Constellation.TOXIC
        # the plant alternates seed, junk, ...: without it, the junk leaves the
        # seed's list and the displaced alternative comes back
        seed = with_plant.by_id[toxic_id].clicks[0].product
        assert seed in record.diff.changed_seeds
        matrix = build_matrix(with_plant)
        base = all_top_k(matrix, 5)[seed]
        delta = session_top_k(matrix, with_plant.by_id[toxic_id], 5)[seed]
        assert set(base.product_ids) != set(delta.product_ids)

    def test_eval_log_without_orders_has_no_rate_to_corrupt(self):
        ds, ev, truth = generate(small_config())
        no_orders = EvalLog(
            sessions=tuple(
                EvalSession(session_id=e.session_id, viewed=e.viewed, ordered=frozenset())
                for e in ev.sessions
            )
        )
        with pytest.raises(PlantFailedError, match="baseline conversion rate is zero"):
            plant_toxic_session(ds, no_orders, truth, 99, HYPER, k=5)

    def test_uniform_orders_defeat_planting(self):
        # every alternative is ordered everywhere: displacement cannot drop CR
        products = [f"q{i}" for i in range(10)]
        specs = [(f"t{i}", 0, [products[i], products[(i + 1) % 10]]) for i in range(10)]
        ds = mk_dataset(specs)
        ev = mk_eval([(f"e{i}", [products[i]], products) for i in range(10)])
        _, _, truth = generate(small_config())
        empty_truth = type(truth)(affinity={}, planted=())
        with pytest.raises(PlantFailedError):
            plant_toxic_session(ds, ev, empty_truth, 1, HYPER, k=3)

    def test_displacement_below_the_gain_is_rejected(self, monkeypatch):
        # Only A is viewed. Its cor list is B (3 sessions), C (2) and z (1).
        # The junk products j0-j3 are in the catalog, never clicked and never
        # ordered, so each is a candidate: a plant ties it with z at one
        # session, and it displaces z by id. z holds 1 of A's 1,201 orders, so
        # the rate drops, but by 1/1,200, less than TOXIC_MIN_REL_GAIN.
        ds = mk_dataset(
            [(f"b{i}", 0, ["A", "B"]) for i in range(3)]
            + [(f"c{i}", 0, ["A", "C"]) for i in range(2)]
            + [("z", 0, ["A", "z", "z"])],
            catalog=mk_catalog(["A", "B", "C", "j0", "j1", "j2", "j3", "z"]),
        )
        ev = mk_eval([(f"e{i:03d}", ["A"], ["B", "C", "z"] if i == 0 else ["B", "C"]) for i in range(600)])
        base = all_top_k(build_matrix(ds), 3)
        plant = synthgen._plant_session("toxic-000", "A", "j0", ds.max_day)
        with_plant = all_top_k(build_matrix(Dataset(sessions=ds.sessions + (plant,), catalog=ds.catalog)), 3)
        assert base["A"].product_ids == ("B", "C", "z")
        assert with_plant["A"].product_ids == ("B", "C", "j0")
        cr_base = conversion_rate(aggregate_pairs(base, ev))
        cr_with = conversion_rate(aggregate_pairs(with_plant, ev))
        assert 0 < (cr_base - cr_with) / cr_with < TOXIC_MIN_REL_GAIN
        with pytest.raises(PlantFailedError, match="no verifiable toxic plant after 4 attempts"):
            plant_toxic_session(ds, ev, GroundTruth(affinity={}), 1, HYPER, k=3)
        # the gain alone rejects them: without it, the first candidate passes
        monkeypatch.setattr(synthgen, "TOXIC_MIN_REL_GAIN", 0.0)
        _, truth = plant_toxic_session(ds, ev, GroundTruth(affinity={}), 1, HYPER, k=3)
        assert truth.planted == (("toxic-000", PlantKind.TOXIC),)

    def test_retry_budget_respected(self, monkeypatch):
        monkeypatch.setattr(synthgen, "TOXIC_RETRIES", 0)
        ds, ev, truth = generate(small_config())
        with pytest.raises(PlantFailedError, match="after 0 attempts"):
            plant_toxic_session(ds, ev, truth, 99, HYPER, k=5)

    def test_vr_check_can_reject(self, monkeypatch):
        # vr recommends the same lists with or without any plant, so its rate
        # never drops: candidates that pass the cor check must still fail
        ds, ev, truth = generate(small_config())
        fixed = all_top_k(build_matrix(ds), 5)
        vr_lists = []

        def top_k_map(self, model, k):
            vr_lists.append(k)
            return fixed

        monkeypatch.setattr(VrEngine, "fit", lambda self, data: None)
        monkeypatch.setattr(VrEngine, "top_k_map", top_k_map)
        with pytest.raises(PlantFailedError, match="no verifiable toxic plant"):
            plant_toxic_session(ds, ev, truth, 99, HYPER, k=5)
        assert len(vr_lists) > 1  # the baseline, then every candidate cor accepted


class TestDuplicatePlant:
    def test_pair_count_rises_by_copies(self):
        ds = mk_dataset([("orig", 0, ["A", "B"]), ("other", 0, ["A", "C"])])
        out = _with_clones(ds, ds.by_id["orig"], 3)
        assert build_matrix(out).count("A", "B") == 1 + 3
        assert len(out.sessions) == 5

    def test_clones_identical_except_id(self):
        ds = mk_dataset([("orig", 0, ["A", "B"])])
        out = _with_clones(ds, ds.by_id["orig"], 2)
        clones = [s for s in out.sessions if s.session_id.startswith("orig-dup")]
        assert len(clones) == 2
        assert all(c.clicks == ds.by_id["orig"].clicks for c in clones)

    def test_zero_copies_rejected(self):
        # the config is the one copies check; the plant takes the config
        with pytest.raises(ValueError, match="copies must be >= 2"):
            DuplicatePlantConfig(copies=0)

    def test_unknown_session(self):
        ds = mk_dataset([("orig", 0, ["A", "B"])])
        with pytest.raises(UnknownSessionError):
            duplicates_still_no_impact(ds, "ghost", 5)

    def test_verified_plant_yields_no_output_change_records(self):
        ds, ev, truth = generate(small_config())
        planted, truth2, source = plant_no_impact_duplicates(ds, truth, DuplicatePlantConfig(copies=3), k=5)
        clone_sids = [sid for sid, kind in truth2.planted if kind is PlantKind.DUPLICATE]
        assert len(clone_sids) == 3
        records = run_loo(CorEngine(), planted, lambda: ev, HarnessConfig(k=5))
        by_id = {r.session_id: r for r in records}
        for sid in clone_sids:
            assert by_id[sid].constellation is Constellation.NO_OUTPUT_CHANGE
            assert by_id[sid].cr_delta == by_id[sid].cr_base
        assert duplicates_still_no_impact(planted, source, 5)

    def test_gap_absorbs_single_removal(self):
        # constructed fixture: every pair gap >= 2, verified by hand counts
        ds = mk_dataset(
            [("a1", 0, ["A", "B"]), ("a2", 0, ["A", "B"]), ("a3", 0, ["A", "B"]),
             ("b1", 0, ["A", "C"])]
        )
        planted = _with_clones(ds, ds.by_id["a1"], 2)
        # (A,B) = 5, (A,C) = 1: removing one clone keeps B on top everywhere
        ids_before = {
            s: rl.product_ids for s, rl in all_top_k(build_matrix(planted), 5).items()
        }
        without = Dataset(
            sessions=tuple(s for s in planted.sessions if s.session_id != "a1-dup00"),
            catalog=planted.catalog,
        )
        ids_after = {
            s: rl.product_ids for s, rl in all_top_k(build_matrix(without), 5).items()
        }
        assert ids_before == ids_after

    def test_tied_pair_reorders_on_removal(self):
        # (A,B) = 1 + 2 clones = 3 ties (A,C) = 3, and B ranks first on the
        # tie; without one clone (A,B) = 2, so A's list turns to C, B
        ds = mk_dataset([("a", 0, ["A", "B"])] + [(f"c{i}", 0, ["A", "C"]) for i in range(3)])
        planted = _with_clones(ds, ds.by_id["a"], 2)
        assert not duplicates_still_no_impact(planted, "a", 5)


DUP, TOXIC = PlantKind.DUPLICATE, PlantKind.TOXIC


class TestSynthesize:
    @pytest.mark.parametrize("plants, kinds", [
        (PlantsConfig(), []),
        (PlantsConfig(duplicates=DuplicatePlantConfig(copies=2)), [DUP, DUP]),
        (PlantsConfig(toxic=ToxicPlantConfig(rng_seed=99)), [TOXIC]),
        (PlantsConfig(toxic=ToxicPlantConfig(rng_seed=99), duplicates=DuplicatePlantConfig()),
         [DUP, DUP, DUP, TOXIC]),
    ], ids=["none", "duplicates", "toxic", "both"])
    def test_plants_appended_in_order(self, plants, kinds):
        base, base_eval, base_truth = generate(small_config())
        dataset, eval_log, truth, dup_source = synthesize(small_config(), plants, 5, HYPER)
        assert [kind for _, kind in truth.planted] == kinds
        n = len(base.sessions)
        assert dataset.sessions[:n] == base.sessions
        assert [s.session_id for s in dataset.sessions[n:]] == [sid for sid, _ in truth.planted]
        assert eval_log == base_eval
        assert truth.affinity == base_truth.affinity
        if DUP in kinds:
            assert duplicates_still_no_impact(dataset, dup_source, 5)
        else:
            assert dup_source is None

    def test_toxic_plant_invalidating_duplicates_fails(self, monkeypatch):
        check = synthgen.duplicates_still_no_impact
        monkeypatch.setattr(
            synthgen, "duplicates_still_no_impact",
            lambda dataset, sid, k: "toxic-000" not in dataset.by_id and check(dataset, sid, k),
        )
        plants = PlantsConfig(toxic=ToxicPlantConfig(rng_seed=99), duplicates=DuplicatePlantConfig())
        with pytest.raises(PlantFailedError, match="toxic plant invalidated the duplicate plant"):
            synthesize(small_config(), plants, 5, HYPER)


class TestGenConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_products": 0},
            {"days": 0},
            {"intent_stickiness": 1.5},
            {"order_base_rate": -0.1},
            {"session_length_geometric_p": 0.0},
            {"rng_seed": -3},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            small_config(**kwargs)
