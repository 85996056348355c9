"""Differential tests: the seed-local ``cor`` leave-one-out against a rebuild.

``run_loo(CorEngine(), ...)`` re-ranks only the left-out session's products
and moves the conversion rate by integer view/order totals. The oracle
rebuilds the matrix from the dataset without the session, ranks every seed,
diffs the full maps and recomputes the rate with ``aggregate_pairs``, which
scans the eval log one session at a time and shares no code with
``kpi.totals``. Records must agree field by field, with the rates compared
bit for bit.
"""

from __future__ import annotations

import logging

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from sessionvalue import cor
from sessionvalue.corpus import leave_one_out
from sessionvalue.errors import UndefinedBaselineError
from sessionvalue.kpi import aggregate_pairs, conversion_rate
from sessionvalue.sensitivity import (
    CorEngine,
    HarnessConfig,
    classify,
    diff_topk,
    relative_cr_change,
    run_loo,
    session_value,
)

from helpers import assert_ranked, mk_dataset, mk_eval
from oracles import remove_session

TRAIN_PRODUCTS = "ABCDEF"
# X and Y never occur in training sessions: eval views of them match no seed.
EVAL_PRODUCTS = TRAIN_PRODUCTS + "XY"
REVENUE_BASE = 1e6
ZERO_VIEWS = "conversion rate has zero views"


def full_cr(recs, eval_log) -> float:
    return conversion_rate(aggregate_pairs(recs, eval_log))


def rebuild(dataset, eval_log, k, session_id):
    base = cor.all_top_k(cor.build_matrix(dataset), k)
    delta = cor.all_top_k(cor.build_matrix(leave_one_out(dataset, session_id).materialized), k)
    return diff_topk(base, delta), full_cr(base, eval_log), full_cr(delta, eval_log)


def same_bits(a: float, b: float) -> bool:
    return a.hex() == b.hex()


def assert_matches_rebuild(dataset, eval_log, k, records):
    cfg = HarnessConfig(k=k, revenue_base=REVENUE_BASE)
    assert [r.session_id for r in records] == sorted(dataset.by_id)
    for record in records:
        diff, cr_base, cr_delta = rebuild(dataset, eval_log, k, record.session_id)
        rel = relative_cr_change(cr_base, cr_delta)
        assert record.diff == diff, record.session_id
        assert same_bits(record.cr_base, cr_base), record.session_id
        assert same_bits(record.cr_delta, cr_delta), record.session_id
        assert same_bits(record.rel_cr_change, rel), record.session_id
        assert same_bits(record.value, session_value(rel, cfg.revenue_base))
        assert record.constellation is classify(diff, rel, cfg.neutral_band)


def build(sessions, evals):
    dataset = mk_dataset([(f"s{i}", 0, clicks) for i, clicks in enumerate(sessions)])
    eval_log = mk_eval(
        [(f"e{i}", viewed, ordered) for i, (viewed, ordered) in enumerate(evals)]
    )
    return dataset, eval_log


def price(dataset, eval_log, k, jobs=1):
    cfg = HarnessConfig(k=k, revenue_base=REVENUE_BASE)
    return run_loo(CorEngine(), dataset, lambda: eval_log, cfg, jobs)


clicks = st.lists(st.sampled_from(TRAIN_PRODUCTS), min_size=1, max_size=5)
eval_sets = st.tuples(
    st.lists(st.sampled_from(EVAL_PRODUCTS), min_size=1, max_size=4),
    st.lists(st.sampled_from(EVAL_PRODUCTS), max_size=3),
)


@settings(
    max_examples=150, derandomize=True, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    sessions=st.lists(clicks, min_size=1, max_size=8),
    evals=st.lists(eval_sets, min_size=1, max_size=6),
    k=st.integers(min_value=1, max_value=3),
)
# a single-product session, repeated clicks and an eval view of an unknown product
@example(sessions=[["A"], ["A", "B", "A", "B"], ["B", "C"]], evals=[(["A", "X"], ["B"])], k=2)
# removing s1 drops E and F as seeds: SEED_MISSING
@example(sessions=[["A", "B"], ["E", "F", "A"], ["A", "B"]], evals=[(["E", "A"], ["F", "B"])], k=2)
# removing the only session leaves no seed and zero total views
@example(sessions=[["A", "B"]], evals=[(["A"], ["B"])], k=1)
def test_fast_loo_matches_rebuild(sessions, evals, k):
    dataset, eval_log = build(sessions, evals)
    cr_base = full_cr(cor.all_top_k(cor.build_matrix(dataset), k), eval_log)
    if cr_base == 0.0:
        with pytest.raises(UndefinedBaselineError):
            price(dataset, eval_log, k)
        return
    assert_matches_rebuild(dataset, eval_log, k, price(dataset, eval_log, k))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(sessions=st.lists(clicks, min_size=1, max_size=8), k=st.integers(1, 4))
def test_session_top_k_equals_removal(sessions, k):
    dataset, _ = build(sessions, [(["A"], [])])
    matrix = cor.build_matrix(dataset)
    for session in dataset.sessions:
        after = cor.all_top_k(remove_session(matrix, session), k)
        local = cor.session_top_k(matrix, session, k)
        assert set(local) == session.unique_products
        for seed, ranked in local.items():
            assert ranked == after.get(seed)
            if ranked is not None:
                assert_ranked(seed, ranked, int)


def test_seed_missing_reported():
    dataset, eval_log = build([["A", "B"], ["E", "F", "A"], ["A", "B"]], [(["E", "A"], ["F", "B"])])
    record = next(r for r in price(dataset, eval_log, 2) if r.session_id == "s1")
    assert {"E", "F"} <= set(record.diff.changed_seeds)
    matrix = cor.build_matrix(dataset)
    lists = CorEngine().delta_lists(matrix, dataset, "s1", 2)
    assert lists["E"] is None and lists["F"] is None


def test_zero_views_reads_zero_and_warns_on_both_paths(caplog):
    dataset, eval_log = build([["A", "B"]], [(["A"], ["B"])])
    with caplog.at_level(logging.WARNING):
        (record,) = price(dataset, eval_log, 1)
    assert record.cr_base == 1.0
    assert record.cr_delta == 0.0
    assert any(ZERO_VIEWS in r.message for r in caplog.records)
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        _, _, cr_delta = rebuild(dataset, eval_log, 1, "s0")
    assert cr_delta == 0.0
    assert any(ZERO_VIEWS in r.message for r in caplog.records)


def test_two_jobs_equal_one_and_the_rebuild():
    dataset, eval_log = build(
        [["A"], ["A", "B", "A"], ["B", "C", "D"], ["E", "F", "A"], ["C", "D"], ["A", "B"]],
        [(["A", "X"], ["B"]), (["C"], ["D"]), (["E", "B"], ["F", "A"]), (["Y"], ["A"])],
    )
    serial = price(dataset, eval_log, 2, jobs=1)
    assert price(dataset, eval_log, 2, jobs=2) == serial
    assert_matches_rebuild(dataset, eval_log, 2, serial)
