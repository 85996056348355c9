from __future__ import annotations

import io

import pytest

from sessionvalue.cor import all_top_k, build_matrix
from sessionvalue.corpus import Dataset, EvalLog, EvalSession, write_sessions
from sessionvalue.errors import PlantFailedError, UnknownSessionError
from sessionvalue.kpi import aggregate_pairs, conversion_rate
from sessionvalue.sensitivity import ChangeKind, Constellation, CorEngine, HarnessConfig, run_loo
from sessionvalue.synthgen import (
    TOXIC_MIN_REL_GAIN,
    GenConfig,
    PlantKind,
    duplicates_still_no_impact,
    generate,
    plant_duplicate_sessions,
    plant_no_impact_duplicates,
    plant_toxic_session,
    read_truth,
    write_truth,
)

from helpers import mk_dataset, mk_eval

BASE = dict(
    n_products=30, n_categories_top=3, n_categories_fine=9,
    n_train_sessions=80, n_eval_sessions=200, days=4,
    order_base_rate=0.08, intent_stickiness=0.85,
)


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
    out_ds, out_truth = plant_toxic_session(ds, ev, truth, rng_seed=99, k=5)
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
        records = run_loo(CorEngine(), with_plant, ev, HarnessConfig(k=5, revenue_base=1e6))
        record = next(r for r in records if r.session_id == toxic_id)
        assert record.rel_cr_change > TOXIC_MIN_REL_GAIN
        assert record.value < 0
        assert record.constellation is Constellation.TOXIC
        # the plant alternates seed, junk, ...: without it, the junk leaves the
        # seed's list and the displaced alternative comes back
        seed = with_plant.by_id[toxic_id].clicks[0].product
        assert record.diff.change_kinds[seed] is ChangeKind.MEMBERSHIP_CHANGED

    def test_eval_log_without_orders_has_no_rate_to_corrupt(self):
        ds, ev, truth = generate(small_config())
        no_orders = EvalLog(
            sessions=tuple(
                EvalSession(session_id=e.session_id, viewed=e.viewed, ordered=frozenset())
                for e in ev.sessions
            )
        )
        with pytest.raises(PlantFailedError, match="baseline conversion rate is zero"):
            plant_toxic_session(ds, no_orders, truth, rng_seed=99, k=5)

    def test_uniform_orders_defeat_planting(self):
        # every alternative is ordered everywhere: displacement cannot drop CR
        products = [f"q{i}" for i in range(10)]
        specs = [(f"t{i}", 0, [products[i], products[(i + 1) % 10]]) for i in range(10)]
        ds = mk_dataset(specs)
        ev = mk_eval([(f"e{i}", [products[i]], products) for i in range(10)])
        _, _, truth = generate(small_config())
        empty_truth = type(truth)(affinity={}, planted=())
        with pytest.raises(PlantFailedError):
            plant_toxic_session(ds, ev, empty_truth, rng_seed=1, k=3, retries=50)

    def test_retry_budget_respected(self):
        ds, ev, truth = generate(small_config())
        with pytest.raises(PlantFailedError):
            plant_toxic_session(ds, ev, truth, rng_seed=99, k=5, retries=0)


class TestDuplicatePlant:
    def test_pair_count_rises_by_copies(self):
        ds = mk_dataset([("orig", 0, ["A", "B"]), ("other", 0, ["A", "C"])])
        out = plant_duplicate_sessions(ds, "orig", copies=3)
        assert build_matrix(out).count("A", "B") == 1 + 3
        assert len(out.sessions) == 5

    def test_clones_identical_except_id(self):
        ds = mk_dataset([("orig", 0, ["A", "B"])])
        out = plant_duplicate_sessions(ds, "orig", copies=2)
        clones = [s for s in out.sessions if s.session_id.startswith("orig-dup")]
        assert len(clones) == 2
        assert all(c.clicks == ds.by_id["orig"].clicks for c in clones)

    def test_zero_copies_rejected(self):
        ds = mk_dataset([("orig", 0, ["A", "B"])])
        with pytest.raises(ValueError):
            plant_duplicate_sessions(ds, "orig", copies=0)

    def test_unknown_session(self):
        ds = mk_dataset([("orig", 0, ["A", "B"])])
        with pytest.raises(UnknownSessionError):
            plant_duplicate_sessions(ds, "ghost", copies=1)

    def test_verified_plant_yields_no_output_change_records(self):
        ds, ev, truth = generate(small_config())
        planted, truth2, source = plant_no_impact_duplicates(ds, truth, copies=3, k=5)
        clone_sids = [sid for sid, kind in truth2.planted if kind is PlantKind.DUPLICATE]
        assert len(clone_sids) == 3
        records = run_loo(CorEngine(), planted, ev, HarnessConfig(k=5))
        by_id = {r.session_id: r for r in records}
        for sid in clone_sids:
            assert by_id[sid].constellation is Constellation.NO_OUTPUT_CHANGE
            assert by_id[sid].cr_delta == by_id[sid].cr_base
        assert duplicates_still_no_impact(planted, source, 3, 5)

    def test_gap_absorbs_single_removal(self):
        # constructed fixture: every pair gap >= 2, verified by hand counts
        ds = mk_dataset(
            [("a1", 0, ["A", "B"]), ("a2", 0, ["A", "B"]), ("a3", 0, ["A", "B"]),
             ("b1", 0, ["A", "C"])]
        )
        planted = plant_duplicate_sessions(ds, "a1", copies=2)
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
