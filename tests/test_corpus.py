from __future__ import annotations

import json

import pytest
from hypothesis import given, strategies as st

from sessionvalue.corpus import (
    Catalog,
    ClickEvent,
    Dataset,
    SECONDS_PER_DAY,
    Session,
    heterogeneity_ratio,
    leave_one_out,
    load_dataset,
    read_eval_log,
    read_sessions,
    sessionize,
    slice_days,
    write_catalog,
    write_dataset,
    write_sessions,
)
from sessionvalue.errors import (
    DatasetFormatError,
    DuplicateSessionIdError,
    MissingCatalogEntryError,
    MissingCategoryLevelError,
    UnknownSessionError,
    UnsortedEventsError,
)

from helpers import mk_catalog, mk_dataset, mk_session


def clicks_at(times, product="A"):
    return [ClickEvent(t=t, product=product) for t in times]


class TestSessionize:
    def test_all_gaps_below_threshold_single_session(self):
        out = sessionize(clicks_at([0, 100, 200]), gap=1800)
        assert len(out) == 1
        assert out[0].length == 3

    def test_gap_at_threshold_splits(self):
        out = sessionize(clicks_at([0, 100, 2000]), gap=1800)
        assert [s.length for s in out] == [2, 1]

    def test_empty_stream(self):
        assert sessionize([], gap=1800) == []

    def test_unsorted_input_names_offending_index(self):
        events = clicks_at([0, 50, 40, 60])
        with pytest.raises(UnsortedEventsError) as err:
            sessionize(events, gap=1800)
        assert err.value.index == 2

    def test_gap_must_be_positive(self):
        with pytest.raises(ValueError):
            sessionize(clicks_at([0]), gap=0)

    def test_day_from_first_click(self):
        out = sessionize(clicks_at([3 * SECONDS_PER_DAY + 5]), gap=10)
        assert out[0].day == 3

    @given(
        st.lists(st.integers(min_value=0, max_value=5000), min_size=0, max_size=40),
        st.integers(min_value=1, max_value=900),
    )
    def test_partition_property(self, deltas, gap):
        times = []
        t = 0
        for d in deltas:
            t += d
            times.append(t)
        events = clicks_at(times)
        out = sessionize(events, gap=gap)
        recovered = [c for s in out for c in s.clicks]
        assert recovered == events
        for s in out:
            for a, b in zip(s.clicks, s.clicks[1:]):
                assert b.t - a.t < gap


class TestDatasetIO:
    def test_round_trip_and_day_indices(self, tmp_path):
        ds = mk_dataset([("one", 0, ["A", "B"]), ("two", 2, ["B"])])
        sessions_path = tmp_path / "sessions.jsonl"
        catalog_path = tmp_path / "catalog.jsonl"
        write_dataset(ds, sessions_path, catalog_path)
        loaded = load_dataset(sessions_path, catalog_path)
        assert len(loaded) == 2
        assert [s.day for s in loaded.sessions] == [0, 2]
        assert loaded == ds

    def test_writer_is_canonical(self, tmp_path):
        session = mk_session("x", ["A"], day=0)
        path = tmp_path / "s.jsonl"
        write_sessions([session], path)
        assert path.read_text() == '{"session_id":"x","clicks":[{"t":0,"p":"A"}]}\n'

    def test_byte_exact_round_trip(self, tmp_path):
        ds = mk_dataset([("one", 0, ["A", "B", "A"]), ("two", 1, ["C"])])
        p1, c1 = tmp_path / "s1.jsonl", tmp_path / "c1.jsonl"
        write_dataset(ds, p1, c1)
        loaded = load_dataset(p1, c1)
        p2, c2 = tmp_path / "s2.jsonl", tmp_path / "c2.jsonl"
        write_dataset(loaded, p2, c2)
        assert p1.read_bytes() == p2.read_bytes()
        assert c1.read_bytes() == c2.read_bytes()

    def test_duplicate_session_id_names_id(self, tmp_path):
        path = tmp_path / "s.jsonl"
        line = '{"session_id":"dup","clicks":[{"t":0,"p":"A"}]}\n'
        path.write_text(line + line)
        with pytest.raises(DuplicateSessionIdError) as err:
            read_sessions(path)
        assert err.value.session_id == "dup"

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "s.jsonl"
        good_session = '{"session_id":"ok","clicks":[{"t":0,"p":"A"}]}\n'
        good_eval = '{"session_id":"ok","viewed":["A"],"ordered":[]}\n'
        cases = [(read_sessions, good_session + bad) for bad in (
            "not json\n",
            '{"session_id":"x","clicks":[{"t":1.9,"p":"A"}]}\n',
            '{"session_id":"x","clicks":[{"t":"5","p":"A"}]}\n',
            '{"session_id":"x","clicks":[{"t":true,"p":"A"}]}\n',
        )] + [(read_eval_log, good_eval + bad) for bad in (
            '{"session_id":"x","viewed":"p0001"}\n',
            '{"session_id":"x","viewed":["A"],"ordered":"p0001"}\n',
        )]
        for read, text in cases:
            path.write_text(text)
            with pytest.raises(DatasetFormatError) as err:
                read(path)
            assert err.value.line_no == 2, text

    def test_product_missing_from_catalog(self, tmp_path):
        sessions_path = tmp_path / "s.jsonl"
        catalog_path = tmp_path / "c.jsonl"
        sessions_path.write_text('{"session_id":"x","clicks":[{"t":0,"p":"ghost"}]}\n')
        catalog_path.write_text(json.dumps({"p": "A", "cat": ["top"]}) + "\n")
        with pytest.raises(MissingCatalogEntryError) as err:
            load_dataset(sessions_path, catalog_path)
        assert err.value.product == "ghost"

    def test_catalog_writer_sorted(self, tmp_path):
        catalog = Catalog(paths={"b": ("x",), "a": ("y",)})
        path = tmp_path / "c.jsonl"
        write_catalog(catalog, path)
        lines = path.read_text().splitlines()
        assert json.loads(lines[0])["p"] == "a"


class TestLeaveOneOut:
    def test_drop_middle_preserves_order(self):
        ds = mk_dataset([("a", 0, ["A"]), ("b", 0, ["B"]), ("c", 0, ["C"])])
        delta = leave_one_out(ds, "b").materialized
        assert [s.session_id for s in delta.sessions] == ["a", "c"]
        assert len(ds) == 3  # original untouched

    def test_drop_then_reinsert_recovers(self):
        ds = mk_dataset([("a", 0, ["A"]), ("b", 0, ["B"])])
        delta = leave_one_out(ds, "b").materialized
        restored = Dataset(sessions=delta.sessions + (ds.by_id["b"],), catalog=ds.catalog)
        assert sorted(s.session_id for s in restored.sessions) == ["a", "b"]
        assert restored.by_id["b"] == ds.by_id["b"]

    def test_unknown_id(self):
        ds = mk_dataset([("a", 0, ["A"])])
        with pytest.raises(UnknownSessionError):
            leave_one_out(ds, "zzz")

    def test_omitted_never_found(self):
        ds = mk_dataset([(f"s{i}", 0, ["A"]) for i in range(6)])
        for sid in list(ds.by_id):
            delta = leave_one_out(ds, sid).materialized
            assert sid not in delta.by_id
            assert len(delta) == len(ds) - 1


class TestSliceDays:
    def setup_method(self):
        self.ds = mk_dataset([(f"d{d}", d, ["A"]) for d in (1, 2, 3, 4)])

    def test_interval(self):
        out = slice_days(self.ds, end_day=4, n_days=2)
        assert sorted(s.day for s in out.sessions) == [3, 4]

    def test_clipping(self):
        out = slice_days(self.ds, end_day=4, n_days=10)
        assert len(out) == 4

    def test_disjoint_interval_empty(self):
        out = slice_days(self.ds, end_day=0, n_days=1)
        assert len(out) == 0

    def test_nested_product_sets(self):
        for a in range(1, 4):
            for b in range(a, 5):
                small = slice_days(self.ds, 4, a)
                big = slice_days(self.ds, 4, b)
                assert small.products <= big.products
                assert {s.session_id for s in small.sessions} <= {
                    s.session_id for s in big.sessions
                }

    def test_n_days_validation(self):
        with pytest.raises(ValueError):
            slice_days(self.ds, end_day=4, n_days=0)


class TestHeterogeneityRatio:
    def test_two_categories_three_products(self):
        catalog = mk_catalog([], paths={"A": ("cat1",), "B": ("cat1",), "C": ("cat2",)})
        session = mk_session("s", ["A", "B", "C"])
        assert heterogeneity_ratio(session, catalog, level=0) == pytest.approx(2 / 3)

    def test_single_product(self):
        catalog = mk_catalog([], paths={"A": ("cat1",)})
        assert heterogeneity_ratio(mk_session("s", ["A"]), catalog, level=0) == 1.0

    def test_repeat_clicks_collapse(self):
        catalog = mk_catalog([], paths={"A": ("cat1",), "B": ("cat2",)})
        session = mk_session("s", ["A", "A", "B"])
        assert heterogeneity_ratio(session, catalog, level=0) == 1.0

    def test_missing_level_names_product(self):
        catalog = mk_catalog([], paths={"A": ("top", "fine"), "B": ("top",)})
        with pytest.raises(MissingCategoryLevelError) as err:
            heterogeneity_ratio(mk_session("s", ["A", "B"]), catalog, level=1)
        assert err.value.product == "B"

    def test_default_level_is_deepest_common(self):
        catalog = mk_catalog([], paths={"A": ("top", "fa"), "B": ("top", "fb", "xx")})
        session = mk_session("s", ["A", "B"])
        # deepest common level is 1 (the fine tokens differ)
        assert heterogeneity_ratio(session, catalog) == 1.0
        assert heterogeneity_ratio(session, catalog, level=0) == 0.5

    def test_bounds(self):
        paths = {p: ("one", f"f{p}") for p in "ABCD"}
        catalog = mk_catalog([], paths=paths)
        session = mk_session("s", list("AABCD"))
        u = len(session.unique_products)
        hr_top = heterogeneity_ratio(session, catalog, level=0)
        hr_fine = heterogeneity_ratio(session, catalog, level=1)
        assert hr_top == pytest.approx(1 / u)  # all in one top category
        assert 1 / u <= hr_top <= 1.0
        assert hr_fine == 1.0


class TestInvariants:
    def test_session_requires_sorted_clicks(self):
        with pytest.raises(UnsortedEventsError):
            Session(session_id="x", clicks=tuple(clicks_at([5, 1])))

    def test_session_requires_clicks(self):
        with pytest.raises(ValueError):
            Session(session_id="x", clicks=())

    def test_click_timestamp_nonnegative(self):
        with pytest.raises(ValueError):
            ClickEvent(t=-1, product="A")

    def test_product_id_length_limit(self):
        with pytest.raises(ValueError):
            ClickEvent(t=0, product="p" * 65)

    def test_catalog_depth_limit(self):
        with pytest.raises(ValueError):
            Catalog(paths={"A": tuple(f"l{i}" for i in range(7))})

    def test_dataset_rejects_duplicate_ids(self):
        with pytest.raises(DuplicateSessionIdError):
            mk_dataset([("a", 0, ["A"]), ("a", 0, ["B"])])

    def test_dataset_requires_catalog_coverage(self):
        catalog = mk_catalog(["A"])
        with pytest.raises(MissingCatalogEntryError):
            Dataset(sessions=(mk_session("s", ["A", "Z"]),), catalog=catalog)

    def test_unique_product_count_bounded_by_length(self):
        s = mk_session("s", ["A", "A", "B"])
        assert len(s.unique_products) <= s.length

    def test_value_types_immutable(self):
        import dataclasses

        s = mk_session("s", ["A"])
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.session_id = "other"
        ds = mk_dataset([("a", 0, ["A"])])
        with pytest.raises(dataclasses.FrozenInstanceError):
            ds.sessions = ()
