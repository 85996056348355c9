"""Differential tests: ``embed.train`` against the per-pair gather/scatter trainer.

``train`` gathers a center's Huffman path rows from ``syn1`` once per window,
updates them in place for every context and writes them back after the
window. The oracle below is the trainer as it was written first: every
(center, context) pair gathers the path rows, updates them and scatters them
back. The two must give byte-identical model dumps.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from scipy.special import expit

from sessionvalue.embed import (
    LR_FLOOR_FRACTION,
    EmbeddingModel,
    Hyperparams,
    _initial_vectors,
    build_vocab,
    dump_model,
    train,
)
from sessionvalue.errors import EmptyVocabularyError

from helpers import mk_dataset

PRODUCTS = "ABCDEF"


def pair_update(syn0, syn1, ctx, points, codes, alpha) -> None:
    """One gradient step on (center path, context vector), in place."""
    v = syn0[ctx]
    f = syn1[points] @ v
    g = alpha * (1.0 - codes - expit(f))
    neu = g @ syn1[points]
    syn1[points] += g[:, None] * v[None, :]
    syn0[ctx] = v + neu


def oracle_train(dataset, hyper: Hyperparams) -> EmbeddingModel:
    """The trainer with a gather and a scatter of the path rows per pair."""
    vocab = build_vocab(dataset, hyper.min_count)
    index = vocab.index
    sentences = [
        np.array([index[c.product] for c in s.clicks if c.product in index], dtype=np.int64)
        for s in dataset.sessions
    ]
    points = [np.array(e.points, dtype=np.int64) for e in vocab.entries]
    codes = [np.array(e.code, dtype=np.float64) for e in vocab.entries]

    n = len(vocab)
    syn0 = _initial_vectors(n, hyper.dimensions, hyper.rng_seed)
    syn1 = np.zeros((max(n - 1, 0), hyper.dimensions), dtype=np.float64)

    budget = hyper.iterations * sum(int(s.size) for s in sentences)
    lr0 = hyper.initial_learning_rate
    lr_floor = lr0 * LR_FLOOR_FRACTION
    window = hyper.window

    processed = 0
    for _ in range(hyper.iterations):
        for sent in sentences:
            m = int(sent.size)
            for i in range(m):
                alpha = max(lr0 * (1.0 - processed / budget), lr_floor)
                processed += 1
                w = int(sent[i])
                if points[w].size == 0:
                    continue
                for j in range(max(i - window, 0), min(m, i + window + 1)):
                    if j != i:
                        pair_update(syn0, syn1, int(sent[j]), points[w], codes[w], alpha)

    vectors = np.round(syn0, hyper.rounding_digits)
    return EmbeddingModel(vocabulary=vocab, vectors=vectors, hyper=hyper)


def assert_same_dump(sessions: list[list[str]], hyper: Hyperparams) -> None:
    dataset = mk_dataset([(f"s{i:02d}", i % 3, products) for i, products in enumerate(sessions)])
    try:
        expected = dump_model(oracle_train(dataset, hyper))
    except EmptyVocabularyError:
        with pytest.raises(EmptyVocabularyError):
            train(dataset, hyper)
        return
    assert dump_model(train(dataset, hyper)) == expected


sessions_st = st.lists(
    st.lists(st.sampled_from(PRODUCTS), min_size=1, max_size=12), min_size=1, max_size=8
)
hyper_st = st.builds(
    Hyperparams,
    dimensions=st.integers(1, 8),
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

