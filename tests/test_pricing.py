"""The cached pricing of one leave-one-out delta against a price from scratch.

``_Baseline.build`` keeps each seed's ranked ids and its ``kpi.contribution``
once per run, and ``_price`` moves the cached totals by the changed seeds
only. The property test prices random deltas (lost seeds, gained seeds, empty
lists, reordered ids, unchanged lists) both ways: from scratch, the diff is
``diff_topk`` and ``cr_delta`` sums ``kpi.totals`` over the baseline with the
delta's lists applied. The work-count test keeps the per-delta cost down to
the changed seeds: counting calls, not timing them, it fails every time
pricing goes back to re-summing the baseline per delta.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from sessionvalue import cor, kpi, sensitivity
from sessionvalue.corpus import load_dataset, read_eval_log
from sessionvalue.errors import UndefinedBaselineError
from sessionvalue.kpi import index_eval, rate_from_totals, totals
from sessionvalue.sensitivity import (
    CorEngine,
    HarnessConfig,
    _Baseline,
    _price,
    classify,
    diff_topk,
    relative_cr_change,
    run_loo,
    session_value,
)

from helpers import mk_eval

GOLDEN_BENCHMARK = Path(__file__).resolve().parent / "golden" / "benchmark"
PRODUCTS = "ABCDEF"
# X is never a seed or an alternative: eval views of it match no list.
EVAL_PRODUCTS = PRODUCTS + "X"
CFG = HarnessConfig(k=4, neutral_band=0.01, revenue_base=1e6)

products = st.sampled_from(PRODUCTS)
id_lists = st.lists(products, max_size=4, unique=True)


def ranked(ids) -> tuple[tuple[str, float], ...]:
    return tuple((p, 1.0 / (1 + i)) for i, p in enumerate(ids))


@st.composite
def deltas(draw):
    """A baseline map, a delta map in drawn (not seed) order and an eval log."""
    base_ids = draw(st.dictionaries(products, id_lists))
    base = {seed: ranked(ids) for seed, ids in base_ids.items()}
    delta = {}
    for seed in draw(st.lists(products, unique=True)):
        old = tuple(p for p, _ in base.get(seed, ()))
        kind = draw(st.sampled_from(("lost", "unchanged", "reordered", "drawn")))
        if kind == "lost":
            delta[seed] = None
        elif kind == "unchanged":
            delta[seed] = ranked(old)
        elif kind == "reordered":
            delta[seed] = ranked(draw(st.permutations(old)))
        else:
            delta[seed] = ranked(draw(id_lists))
    evals = draw(st.lists(st.tuples(
        st.lists(st.sampled_from(EVAL_PRODUCTS), min_size=1, max_size=4),
        st.lists(st.sampled_from(EVAL_PRODUCTS), max_size=3),
    ), max_size=6))
    eval_log = mk_eval([(f"e{i}", viewed, ordered) for i, (viewed, ordered) in enumerate(evals)])
    return base, delta, index_eval(eval_log)


def from_scratch(base, delta, index):
    """The record of ``delta`` priced with no cache: every rate from the full
    lists' totals."""
    diff = diff_topk(base, delta, delta)
    merged = {seed: pairs for seed, pairs in {**base, **delta}.items() if pairs is not None}
    cr_base = rate_from_totals(*totals(index, base))
    cr_delta = rate_from_totals(*totals(index, merged))
    rel = relative_cr_change(cr_base, cr_delta)
    return diff, cr_base, cr_delta, rel


# One delta of every kind: A lost, B emptied, C reordered, D unchanged, E gained.
EVERY_KIND = (
    {seed: ranked(ids) for seed, ids in zip("ABCD", ("BC", "AC", "AB", "A"))},
    dict(E=ranked("A"), D=ranked("A"), C=ranked("BA"), B=ranked(""), A=None),
    index_eval(mk_eval([("e0", ["A", "B", "C", "E"], ["A", "C"]), ("e1", ["D"], ["A"])])),
)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(inputs=deltas())
@example(inputs=EVERY_KIND)
def test_cached_price_equals_a_price_from_scratch(inputs):
    base, delta, index = inputs
    baseline = _Baseline.build(CFG, base, index)
    assert baseline.totals == totals(index, base)
    assert baseline.ids == {seed: tuple(p for p, _ in pairs) for seed, pairs in base.items()}
    if rate_from_totals(*totals(index, base)) == 0:
        with pytest.raises(UndefinedBaselineError):
            from_scratch(base, delta, index)
        with pytest.raises(UndefinedBaselineError):
            _price(baseline, "s", delta)
        return
    diff, cr_base, cr_delta, rel = from_scratch(base, delta, index)
    record = _price(baseline, "s", delta)
    assert record.session_id == "s"
    assert record.diff == diff
    assert record.cr_base.hex() == cr_base.hex()
    assert record.cr_delta.hex() == cr_delta.hex()
    assert record.rel_cr_change.hex() == rel.hex()
    assert record.value.hex() == session_value(rel, CFG.revenue_base).hex()
    assert record.constellation is classify(diff, rel, CFG.neutral_band)


def test_cor_loo_sums_each_baseline_seed_once_then_only_changed_seeds(monkeypatch, benchmark_rc):
    """On the benchmark inputs (184 sessions), ``kpi.contribution`` runs at
    most once per baseline seed plus once per changed seed of a record, and
    the baseline's counts do come from it."""
    dataset = load_dataset(GOLDEN_BENCHMARK / "sessions.jsonl", GOLDEN_BENCHMARK / "catalog.jsonl")
    eval_log = read_eval_log(GOLDEN_BENCHMARK / "eval.jsonl")
    cfg = benchmark_rc.harness
    calls = 0
    contribution = kpi.contribution

    def counted(*args):
        nonlocal calls
        calls += 1
        return contribution(*args)

    monkeypatch.setattr(kpi, "contribution", counted)
    monkeypatch.setattr(sensitivity, "contribution", counted)
    records = run_loo(CorEngine(), dataset, lambda: eval_log, cfg)
    n_seeds = len(cor.all_top_k(cor.build_matrix(dataset), cfg.k))
    assert len(records) == 184
    assert n_seeds <= calls <= n_seeds + sum(r.diff.n_changed_seeds for r in records)
