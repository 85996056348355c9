from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from sessionvalue.corpus import (
    Catalog,
    ClickEvent,
    Dataset,
    EvalLog,
    EvalSession,
    SECONDS_PER_DAY,
    Session,
    heterogeneity_ratio,
    leave_one_out,
    load_dataset,
    read_catalog,
    read_eval_log,
    read_sessions,
    require_in_catalog,
    slice_days,
    write_catalog,
    write_dataset,
    write_sessions,
)
from sessionvalue.embed import Hyperparams, train
from sessionvalue.errors import (
    DatasetFormatError,
    DuplicateSessionIdError,
    MissingCatalogEntryError,
    MissingCategoryLevelError,
    SessionValueError,
    UnknownSessionError,
    UnsortedEventsError,
)

from helpers import mk_catalog, mk_dataset, mk_session
from oracles import read_truth


def clicks_at(times, product="A"):
    return [ClickEvent(t=t, product=product) for t in times]


class TestSession:
    def test_unsorted_clicks_name_offending_index(self):
        with pytest.raises(UnsortedEventsError) as err:
            Session(session_id="x", clicks=tuple(clicks_at([0, 50, 40, 60])))
        assert err.value.index == 2

    def test_day_from_first_click(self):
        clicks = clicks_at([3 * SECONDS_PER_DAY + 5, 4 * SECONDS_PER_DAY])
        assert Session(session_id="x", clicks=tuple(clicks)).day == 3

    def test_columns_must_have_equal_lengths(self):
        with pytest.raises(ValueError, match="2 times but 1 products"):
            Session.from_columns("x", (0, 1), ("A",))


PRINTABLE_IDS = st.text(st.characters(min_codepoint=0x21, max_codepoint=0x7E), min_size=1, max_size=3)


@st.composite
def click_columns(draw):
    """A valid session's (times, products): sorted times from >= 1, so that
    an unsorted pair never needs a negative time."""
    products = draw(st.lists(PRINTABLE_IDS, min_size=1, max_size=10))
    start = draw(st.integers(1, 5 * SECONDS_PER_DAY))
    gaps = draw(st.lists(st.integers(0, 300), min_size=len(products) - 1, max_size=len(products) - 1))
    times = [start]
    for gap in gaps:
        times.append(times[-1] + gap)
    return times, products


def with_fault(times, products, fault, i):
    """``times``/``products`` with one fault at click ``i`` (``i >= 1`` for the
    faults that need an earlier click)."""
    times, products = list(times), list(products)
    if fault == "bool time":
        times[i] = True
    elif fault == "float time":
        times[i] = float(times[i])
    elif fault == "negative later time":
        times[i] = -1
    elif fault == "unsorted pair":
        times[i] = times[i - 1] - 1
    elif fault == "empty product":
        products[i] = ""
    elif fault == "long product":
        products[i] = "p" * 65
    elif fault == "non-printable product":
        products[i] = "a\x00b"
    elif fault == "unhashable product":
        products[i] = [products[i]]
    return times, products


def construct_both(sid, times, products):
    """The outcome of each constructor: the session, or (exception type, message)."""
    outcomes = []
    for build in (
        lambda: Session(sid, [ClickEvent(t=t, product=p) for t, p in zip(times, products)]),
        lambda: Session.from_columns(sid, times, products),
    ):
        try:
            outcomes.append(build())
        except Exception as exc:  # noqa: BLE001 - the comparison is the test
            outcomes.append((type(exc), str(exc)))
    return outcomes


class TestConstructorsAgree:
    """``Session(sid, clicks)`` and ``Session.from_columns`` are one check and one value."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(columns=click_columns())
    def test_valid_clicks(self, columns):
        times, products = columns
        by_clicks, by_columns = construct_both("s", times, products)
        assert by_clicks == by_columns
        assert hash(by_clicks) == hash(by_columns)
        assert by_clicks.day == by_columns.day == times[0] // SECONDS_PER_DAY
        assert by_clicks.unique_products == by_columns.unique_products == frozenset(products)
        assert by_clicks.length == by_columns.length == len(times)
        assert by_columns.clicks == tuple(ClickEvent(t=t, product=p) for t, p in zip(times, products))
        assert Session("s", by_columns.clicks) == by_columns

    FAULTS = ("bool time", "float time", "negative later time", "unsorted pair",
              "empty product", "long product", "non-printable product", "unhashable product")

    @pytest.mark.parametrize("fault", FAULTS)
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(columns=click_columns(), data=st.data())
    def test_one_fault_same_error(self, fault, columns, data):
        times, products = columns
        first = 1 if fault in ("negative later time", "unsorted pair") else 0
        if len(times) <= first:
            times, products = times * 2, products * 2
        i = data.draw(st.integers(first, len(times) - 1))
        bad_times, bad_products = with_fault(times, products, fault, i)
        by_clicks, by_columns = construct_both("s", bad_times, bad_products)
        assert isinstance(by_clicks, tuple) and by_clicks == by_columns
        if fault == "negative later time":
            assert by_columns == (ValueError, "click timestamp must be >= 0, got -1")
        if fault == "unsorted pair":
            assert by_columns[0] is UnsortedEventsError

    def test_loading_and_training_build_no_click_event(self, tmp_path, monkeypatch):
        ds = mk_dataset([("a", 0, ["A", "B", "A"]), ("b", 1, ["B", "C"]), ("c", 1, ["A", "C"])])
        sessions_path, catalog_path = tmp_path / "s.jsonl", tmp_path / "c.jsonl"
        write_dataset(ds, sessions_path, catalog_path)

        def refuse(self):
            raise AssertionError("a ClickEvent was built")

        monkeypatch.setattr(ClickEvent, "__post_init__", refuse)
        with pytest.raises(AssertionError):
            ds.sessions[0].clicks
        assert tuple(read_sessions(sessions_path)) == ds.sessions
        loaded = load_dataset(sessions_path, catalog_path)
        assert loaded == ds
        train(loaded, Hyperparams(dimensions=8, iterations=1, min_count=1, rng_seed=3))


# A valid one-line file per reader; the property test replaces one field at a time.
VALID_LINES = {
    read_sessions: {"session_id": "s", "clicks": [{"t": 0, "p": "A"}]},
    read_catalog: {"p": "A", "cat": ["t0", "c1"]},
    read_eval_log: {"session_id": "e", "viewed": ["A"], "ordered": ["B"]},
    read_truth: {"affinity": [["A", "B", 0.5]], "planted": [["s", "toxic"]]},
}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def field_paths(doc, prefix=()):
    """The key path of every value inside ``doc``, containers included."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from field_paths(value, prefix + (key,))


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
        session = '{"session_id":"dup","clicks":[{"t":0,"p":"A"}]}\n'
        evals = '{"session_id":"dup","viewed":["A"],"ordered":[]}\n'
        for read, text in ((read_sessions, session + session), (read_eval_log, evals + evals)):
            path.write_text(text)
            with pytest.raises(DatasetFormatError, match="'dup'") as err:
                read(path)
            assert err.value.line_no == 2, read.__name__

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "s.jsonl"
        good_session = '{"session_id":"ok","clicks":[{"t":0,"p":"A"}]}\n'
        good_eval = '{"session_id":"ok","viewed":["A"],"ordered":[]}\n'
        good_catalog = '{"p":"A","cat":["t0"]}\n'
        cases = [(read_sessions, good_session + bad) for bad in (
            "not json\n",
            '{"session_id":"x","clicks":[{"t":1.9,"p":"A"}]}\n',
            '{"session_id":"x","clicks":[{"t":"5","p":"A"}]}\n',
            '{"session_id":"x","clicks":[{"t":true,"p":"A"}]}\n',
            '{"session_id":5,"clicks":[{"t":0,"p":"A"}]}\n',
        )] + [(read_eval_log, good_eval + bad) for bad in (
            '{"session_id":"x","viewed":"p0001"}\n',
            '{"session_id":"x","viewed":["A"],"ordered":"p0001"}\n',
            '{"session_id":"x","viewed":[1, 2],"ordered":[3]}\n',
        )] + [(read_catalog, good_catalog + bad) for bad in (
            '{"p":"B","cat":"t01"}\n',
            '{"p":"B","cat":[1, 2]}\n',
            '{"p":"A","cat":["t1","c2"]}\n',
            '{"p":5,"cat":["t0"]}\n',
            '{"p":["x"],"cat":["t0"]}\n',
            '{"p":"B","cat":[]}\n',
            '{"p":"B","cat":[""]}\n',
            '{"p":"","cat":["t0"]}\n',
        )]
        for read, text in cases:
            path.write_text(text)
            with pytest.raises(DatasetFormatError) as err:
                read(path)
            assert err.value.line_no == 2, text

    def test_each_distinct_product_is_validated_once_per_file(self, tmp_path, monkeypatch):
        """``read_sessions`` validates a product id the first time the file
        holds it, not once per session; a second file starts afresh, and an
        invalid id in a later session still names its line."""
        from sessionvalue import corpus

        path = tmp_path / "s.jsonl"
        write_sessions([mk_session(f"s{i}", ["A", "B", "A"][i % 2:], day=0) for i in range(6)], path)
        calls, validate = [], corpus.validate_product_id

        def counted(product):
            calls.append(product)
            return validate(product)

        monkeypatch.setattr(corpus, "validate_product_id", counted)
        read_sessions(path)
        assert sorted(calls) == ["A", "B"]
        read_sessions(path)
        assert sorted(calls) == ["A", "A", "B", "B"]
        with path.open("a") as fh:
            fh.write('{"session_id":"bad","clicks":[{"t":0,"p":"A"},{"t":1,"p":"C\\n"}]}\n')
        with pytest.raises(DatasetFormatError, match="non-printable") as err:
            read_sessions(path)
        assert err.value.line_no == 7

    def test_non_utf8_line_reports_line_number(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_bytes(b'{"session_id":"ok","clicks":[{"t":0,"p":"A"}]}\n{"session_id":"\xff"}\n')
        with pytest.raises(DatasetFormatError) as err:
            read_sessions(path)
        assert err.value.line_no == 2

    @pytest.mark.parametrize("text", [
        "",
        '{"affinity":[],"planted":[]}\n{"affinity":[],"planted":[]}\n',
        '{\n  "affinity": [],\n  "planted": []\n}\n',  # one document over several lines
    ], ids=["empty", "two-lines", "multi-line-document"])
    def test_truth_file_must_hold_one_line(self, tmp_path, text):
        path = tmp_path / "truth.json"
        path.write_text(text)
        with pytest.raises(DatasetFormatError) as err:
            read_truth(path)
        assert err.value.path == str(path)

    @pytest.mark.parametrize(("read", "field"), [
        pytest.param(read, field, id=f"{read.__name__}:{'.'.join(map(str, field))}")
        for read, doc in VALID_LINES.items() for field in field_paths(doc)
    ])
    @settings(
        max_examples=25, derandomize=True, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(value=JSON_VALUES)
    @example(value=10**400)  # an integer no float holds
    def test_any_field_value_loads_or_is_refused(self, tmp_path, read, field, value):
        doc = json.loads(json.dumps(VALID_LINES[read]))
        parent = doc
        for key in field[:-1]:
            parent = parent[key]
        parent[field[-1]] = value
        path = tmp_path / "in.jsonl"
        path.write_text(json.dumps(doc) + "\n")
        try:
            read(path)
        except SessionValueError:
            pass

    def test_product_missing_from_catalog(self, tmp_path):
        sessions_path = tmp_path / "s.jsonl"
        catalog_path = tmp_path / "c.jsonl"
        sessions_path.write_text('{"session_id":"x","clicks":[{"t":0,"p":"ghost"}]}\n')
        catalog_path.write_text(json.dumps({"p": "A", "cat": ["top"]}) + "\n")
        with pytest.raises(MissingCatalogEntryError) as err:
            load_dataset(sessions_path, catalog_path)
        assert err.value.product == "ghost"

    def test_eval_product_missing_from_catalog(self):
        eval_log = EvalLog(sessions=(EvalSession("e", frozenset({"A", "ghost"}), frozenset({"zz"})),))
        with pytest.raises(MissingCatalogEntryError) as err:
            require_in_catalog(eval_log.products, mk_catalog(["A"]))
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
        def products(ds):
            return set().union(*(s.unique_products for s in ds.sessions))

        for a in range(1, 4):
            for b in range(a, 5):
                small = slice_days(self.ds, 4, a)
                big = slice_days(self.ds, 4, b)
                assert products(small) <= products(big)
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

    def test_session_id_must_be_string(self):
        with pytest.raises(ValueError):
            Session(session_id=5, clicks=tuple(clicks_at([0])))

    def test_eval_session_id_must_be_string(self):
        with pytest.raises(ValueError):
            EvalSession(session_id=5, viewed=frozenset({"A"}), ordered=frozenset())

    def test_eval_products_must_be_strings(self):
        with pytest.raises(ValueError):
            EvalSession("e", frozenset({1}), frozenset())

    def test_category_tokens_must_be_strings(self):
        with pytest.raises(ValueError):
            Catalog(paths={"A": (1,)})

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
