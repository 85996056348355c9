from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from sessionvalue.cor import CoocMatrix, all_top_k, build_matrix, dump_matrix
from sessionvalue.corpus import Dataset
from sessionvalue.errors import MatrixUnderflowError
from sessionvalue.synthgen import GenConfig, generate

from helpers import mk_catalog, mk_dataset
from oracles import pair_counts, remove_session, top_k


class TestBuildMatrix:
    def test_session_level_counts(self):
        ds = mk_dataset([("1", 0, ["A", "B"]), ("2", 0, ["A", "B"]), ("3", 0, ["A", "C"])])
        m = build_matrix(ds)
        assert m.count("A", "B") == 2
        assert m.count("A", "C") == 1
        assert m.count("B", "C") == 0 and "C" not in m.rows["B"]

    def test_repeat_clicks_count_once(self):
        ds = mk_dataset([("1", 0, ["A", "A", "B"])])
        m = build_matrix(ds)
        assert m.count("A", "B") == 1

    def test_empty_dataset(self):
        ds = Dataset(sessions=(), catalog=mk_catalog([]))
        m = build_matrix(ds)
        assert m.rows == {} and m.session_membership == {}

    def test_no_self_pairs(self):
        ds = mk_dataset([("1", 0, ["A", "A"])])
        m = build_matrix(ds)
        assert m.rows == {}
        assert m.session_membership == {"A": 1}

    def test_order_free(self):
        specs = [("1", 0, ["A", "B"]), ("2", 0, ["B", "C"]), ("3", 1, ["A", "C", "B"])]
        ds = mk_dataset(specs)
        ds_rev = mk_dataset(list(reversed(specs)))
        ranked = [{p: list(row.items()) for p, row in build_matrix(d).rows.items()} for d in (ds, ds_rev)]
        assert ranked[0] == ranked[1]

    def test_rows_iterate_in_ranking_order(self):
        ds = mk_dataset([("1", 0, ["A", "D"]), ("2", 0, ["A", "C", "B"]), ("3", 0, ["C", "A"])])
        m = build_matrix(ds)
        assert list(m.rows["A"].items()) == [("C", 2), ("B", 1), ("D", 1)]
        assert m.count("A", "C") == m.count("C", "A") == 2


class TestTableProperties:
    """``build_matrix`` against brute-force counts over random small datasets."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        sessions=st.lists(
            st.lists(st.sampled_from("ABCDEFG"), min_size=1, max_size=7), max_size=12
        )
    )
    def test_rows_equal_brute_force_counts(self, sessions):
        ds = mk_dataset([(str(i), 0, clicks) for i, clicks in enumerate(sessions)])
        m = build_matrix(ds)
        assert m.rows == pair_counts(ds)
        for p, row in m.rows.items():
            assert row and p not in row and min(row.values()) > 0
            assert all(m.rows[q][p] == c for q, c in row.items())
            assert list(row.items()) == sorted(row.items(), key=lambda n: (-n[1], n[0]))
        assert m.session_membership == Counter(p for clicks in sessions for p in set(clicks))


class TestRemoveSession:
    def test_decrement(self):
        ds = mk_dataset([("1", 0, ["A", "B"]), ("2", 0, ["A", "B"])])
        m = build_matrix(ds)
        out = remove_session(m, ds.by_id["1"])
        assert out.count("A", "B") == 1
        assert m.count("A", "B") == 2  # base untouched

    def test_zero_entries_deleted_and_membership(self):
        ds = mk_dataset([("1", 0, ["A", "C"]), ("2", 0, ["A", "B"])])
        m = build_matrix(ds)
        out = remove_session(m, ds.by_id["1"])
        assert out.count("A", "C") == 0 and "C" not in out.rows
        assert "C" not in out.session_membership
        assert out.session_membership["A"] == 1  # still held by session 2

    def test_underflow_detected(self):
        ds = mk_dataset([("1", 0, ["A", "B"])])
        m = build_matrix(ds)
        once = remove_session(m, ds.by_id["1"])
        with pytest.raises(MatrixUnderflowError):
            remove_session(once, ds.by_id["1"])

    def test_rebuild_oracle_over_random_datasets(self):
        # incremental removal must equal a from-scratch rebuild, exactly
        for seed in range(10):
            cfg = GenConfig(
                n_products=20, n_categories_top=2, n_categories_fine=5,
                n_train_sessions=50, n_eval_sessions=1, days=3, rng_seed=seed,
            )
            ds, _, _ = generate(cfg)
            m = build_matrix(ds)
            for session in ds.sessions:
                incremental = remove_session(m, session)
                rebuilt = build_matrix(
                    Dataset(
                        sessions=tuple(s for s in ds.sessions if s.session_id != session.session_id),
                        catalog=ds.catalog,
                    )
                )
                assert incremental == rebuilt


class TestTopK:
    def test_tie_broken_by_ascending_id(self):
        ds = mk_dataset(
            [("1", 0, ["A", "B"]), ("2", 0, ["A", "B"]), ("3", 0, ["A", "B"]),
             ("4", 0, ["A", "C"]), ("5", 0, ["A", "C"]), ("6", 0, ["A", "C"]),
             ("7", 0, ["A", "D"])]
        )
        m = build_matrix(ds)
        rl = top_k(m, "A", 2)
        assert rl.product_ids == ("B", "C")
        assert rl.items[0][1] == 3  # score is the raw count

    def test_fewer_neighbors_than_k(self):
        ds = mk_dataset([("1", 0, ["A", "B", "C", "D"])])
        rl = top_k(build_matrix(ds), "A", 5)
        assert len(rl.items) == 3

    def test_unknown_seed_has_no_list(self):
        ds = mk_dataset([("1", 0, ["A", "B"])])
        assert top_k(build_matrix(ds), "Z", 5) is None

    def test_seed_never_recommends_itself(self):
        ds = mk_dataset([("1", 0, ["A", "A", "B"]), ("2", 0, ["A", "C"])])
        rl = top_k(build_matrix(ds), "A", 10)
        assert "A" not in rl.product_ids

    def test_k_validation(self):
        ds = mk_dataset([("1", 0, ["A", "B"])])
        with pytest.raises(ValueError):
            top_k(build_matrix(ds), "A", 0)


class TestAllTopK:
    def test_one_list_per_product(self):
        ds = mk_dataset([("1", 0, ["A", "B", "C"])])
        out = all_top_k(build_matrix(ds), 5)
        assert sorted(out) == ["A", "B", "C"]

    def test_pointwise_equals_top_k_on_random_matrices(self):
        for seed in range(200):
            cfg = GenConfig(
                n_products=8, n_categories_top=2, n_categories_fine=3,
                n_train_sessions=6, n_eval_sessions=1, days=2, rng_seed=seed,
            )
            ds, _, _ = generate(cfg)
            m = build_matrix(ds)
            out = all_top_k(m, 3)
            for seed_product in m.session_membership:
                assert out[seed_product] == top_k(m, seed_product, 3)

    def test_empty_matrix(self):
        assert all_top_k(CoocMatrix(), 5) == {}

    def test_permutation_invariance(self):
        specs = [("1", 0, ["A", "B"]), ("2", 0, ["B", "C"]), ("3", 0, ["A", "C", "D"])]
        a = all_top_k(build_matrix(mk_dataset(specs)), 5)
        b = all_top_k(build_matrix(mk_dataset(list(reversed(specs)))), 5)
        assert a == b


class TestDump:
    def test_sorted_and_byte_stable(self):
        ds = mk_dataset([("1", 0, ["B", "A"]), ("2", 0, ["C", "A"])])
        m = build_matrix(ds)
        dump = dump_matrix(m)
        assert dump == "A\tB\t1\nA\tC\t1\n"
        assert dump_matrix(build_matrix(ds)) == dump
