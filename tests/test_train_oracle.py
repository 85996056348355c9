"""Differential tests: ``embed.train``, the compiled kernel, against the numpy
trainer ``oracles.train_numpy``. The two must give byte-identical model dumps
and count the same node steps.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from sessionvalue.embed import Hyperparams, dump_model, train
from sessionvalue.errors import EmptyVocabularyError

from helpers import mk_dataset
from oracles import train_numpy

PRODUCTS = "ABCDEF"


def assert_same_dump(sessions: list[list[str]], hyper: Hyperparams) -> None:
    dataset = mk_dataset([(f"s{i:02d}", i % 3, products) for i, products in enumerate(sessions)])
    try:
        expected = train_numpy(dataset, hyper)
    except EmptyVocabularyError:
        with pytest.raises(EmptyVocabularyError):
            train(dataset, hyper)
        return
    model = train(dataset, hyper)
    assert dump_model(model) == dump_model(expected)
    assert model.node_steps == expected.node_steps


sessions_st = st.lists(
    st.lists(st.sampled_from(PRODUCTS), min_size=1, max_size=12), min_size=1, max_size=8
)
hyper_st = st.builds(
    Hyperparams,
    dimensions=st.integers(1, 20),
    iterations=st.integers(1, 3),
    window=st.integers(1, 4),
    min_count=st.integers(1, 3),
    rng_seed=st.integers(0, 5),
)


@settings(
    max_examples=150,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(sessions=sessions_st, hyper=hyper_st)
# The same context twice in one window, and the center itself as a context.
@example(
    sessions=[["A", "B", "A", "A", "B", "C"]],
    hyper=Hyperparams(dimensions=4, window=3, min_count=1),
)
# Sentences shorter than the window.
@example(
    sessions=[["A", "B"], ["C"], ["B", "C", "A"]],
    hyper=Hyperparams(dimensions=4, window=5, min_count=1),
)
# min_count drops C and D from the middle of sentences.
@example(
    sessions=[["A", "C", "B", "D", "A"], ["B", "A", "B"]],
    hyper=Hyperparams(dimensions=4, window=2, min_count=2),
)
# A one-entry vocabulary: the Huffman path is empty, only the init survives.
@example(
    sessions=[["A", "A", "A"], ["B"]],
    hyper=Hyperparams(dimensions=4, window=2, min_count=2),
)
# Several iterations over the same corpus.
@example(
    sessions=[["A", "B", "C", "D"], ["D", "E", "F", "A", "B"], ["C", "A"]],
    hyper=Hyperparams(dimensions=6, iterations=4, window=2, min_count=1, rng_seed=3),
)
def test_train_matches_pair_oracle(sessions, hyper):
    assert_same_dump(sessions, hyper)

