from __future__ import annotations

import heapq
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sessionvalue import embed
from sessionvalue.embed import (
    EmbeddingModel,
    Hyperparams,
    Vocabulary,
    _huffman,
    _initial_vectors,
    all_top_k_similar,
    build_vocab,
    dump_model,
    train,
)
from sessionvalue.errors import EmptyVocabularyError

from helpers import mk_dataset
from oracles import initial_vectors, step, top_k_similar

FAST = Hyperparams(dimensions=16, iterations=2, min_count=1, rng_seed=9)


def repeated_pairs(pair_specs: list[tuple[str, str, int]]):
    """Dataset of two-product sessions: (a, b, n_sessions) each."""
    specs = []
    i = 0
    for a, b, n in pair_specs:
        for _ in range(n):
            specs.append((f"s{i:04d}", 0, [a, b]))
            i += 1
    return mk_dataset(specs)


class TestBuildVocab:
    def test_min_count_threshold(self):
        ds = mk_dataset([("1", 0, ["A"] * 7 + ["B"] * 5 + ["C"] * 4)])
        vocab = build_vocab(ds, min_count=5)
        assert vocab == Vocabulary(("A", "B"), (7, 5))

    def test_frequency_is_token_level(self):
        ds = mk_dataset([("1", 0, ["A", "A", "B"]), ("2", 0, ["A"])])
        vocab = build_vocab(ds, min_count=1)
        assert vocab == Vocabulary(("A", "B"), (3, 1))

    def test_tie_broken_by_product_id(self):
        ds = mk_dataset([("1", 0, ["B"] * 5 + ["A"] * 5)])
        vocab = build_vocab(ds, min_count=5)
        assert vocab.products == ("A", "B")

    def test_two_leaf_huffman_codes(self):
        ds = mk_dataset([("1", 0, ["A"] * 7 + ["B"] * 5)])
        points, code, offsets = _huffman(build_vocab(ds, min_count=5).frequencies)
        assert offsets.tolist() == [0, 1, 2]
        assert points.tolist() == [0, 0]
        assert sorted(code.tolist()) == [0.0, 1.0]

    def test_empty_vocab_error(self):
        ds = mk_dataset([("1", 0, ["A", "B"])])
        with pytest.raises(EmptyVocabularyError):
            build_vocab(ds, min_count=5)

    def test_order_invariant_under_session_permutation(self):
        specs = [("1", 0, ["A", "B", "B"]), ("2", 0, ["C", "A"]), ("3", 1, ["B"])]
        v1 = build_vocab(mk_dataset(specs), min_count=1)
        v2 = build_vocab(mk_dataset(list(reversed(specs))), min_count=1)
        assert v1 == v2

    @pytest.mark.parametrize("freqs", [[9], [5, 5], [10, 7, 3], [8, 8, 8, 8], [40, 20, 10, 5, 3, 1]])
    def test_huffman_is_prefix_free_and_complete(self, freqs):
        check_huffman_arrays(freqs)


def heap_weighted_path_length(frequencies: list[int]) -> int:
    """``sum(f_i * len_i)`` of a Huffman code, built with a heap: every merge
    adds its weight once for each leaf below it."""
    heap = list(frequencies)
    heapq.heapify(heap)
    total = 0
    while len(heap) > 1:
        merged = heapq.heappop(heap) + heapq.heappop(heap)
        total += merged
        heapq.heappush(heap, merged)
    return total


def check_huffman_arrays(freqs: list[int]) -> None:
    """``_huffman``'s flat arrays hold a complete, prefix-free code of minimal
    weighted length, each path walking internal nodes from the root down."""
    n = len(freqs)
    points, code, offsets = _huffman(tuple(freqs))
    assert len(offsets) == n + 1 and offsets[0] == 0
    assert (np.diff(offsets) >= 0).all()
    assert offsets[-1] == len(points) == len(code)
    assert set(code.tolist()) <= {0.0, 1.0}
    spans = list(zip(offsets[:-1], offsets[1:]))
    paths = [points[a:b].tolist() for a, b in spans]
    codes = ["".join(str(int(bit)) for bit in code[a:b]) for a, b in spans]
    if n > 1:
        assert sum(Fraction(1, 2 ** len(c)) for c in codes) == 1
    for i, a in enumerate(codes):
        assert not any(b.startswith(a) for j, b in enumerate(codes) if j != i)
    node_at: dict[str, int] = {}  # a code prefix names one internal node
    for path, c in zip(paths, codes):
        assert path[:1] == ([n - 2] if n > 1 else [])
        assert len(set(path)) == len(path) and all(0 <= p <= n - 2 for p in path)
        for depth, node in enumerate(path):
            assert node_at.setdefault(c[:depth], node) == node
    assert sorted(node_at.values()) == list(range(n - 1))
    lengths = np.diff(offsets).tolist()
    assert sum(f * d for f, d in zip(freqs, lengths)) == heap_weighted_path_length(freqs)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(st.integers(1, 60), min_size=1, max_size=40).map(lambda f: sorted(f, reverse=True)))
def test_huffman_arrays_are_an_optimal_prefix_code(freqs):
    check_huffman_arrays(freqs)


class TestTrainDeterminism:
    def test_identical_runs_byte_identical(self):
        ds = repeated_pairs([("A", "B", 4), ("B", "C", 3), ("C", "D", 2)])
        m1 = train(ds, FAST)
        m2 = train(ds, FAST)
        assert dump_model(m1) == dump_model(m2)
        assert np.array_equal(m1.vectors, m2.vectors)

    def test_seed_changes_vectors(self):
        ds = repeated_pairs([("A", "B", 4), ("B", "C", 3)])
        m1 = train(ds, FAST)
        m2 = train(ds, Hyperparams(dimensions=16, iterations=2, min_count=1, rng_seed=10))
        assert dump_model(m1) != dump_model(m2)

    def test_rounding_idempotent_and_dump_exact(self):
        ds = repeated_pairs([("A", "B", 4), ("A", "C", 2)])
        model = train(ds, FAST)
        digits = model.hyper.rounding_digits
        assert np.array_equal(np.round(model.vectors, digits), model.vectors)
        for row in model.vectors:
            for x in row:
                assert float(f"{x:.{digits}f}") == x

    def test_empty_vocab_propagates(self):
        ds = mk_dataset([("1", 0, ["A", "B"])])
        with pytest.raises(EmptyVocabularyError):
            train(ds, Hyperparams(dimensions=8, min_count=5, rng_seed=1))

    def test_trained_vectors_are_read_only(self):
        model = train(repeated_pairs([("A", "B", 3)]), FAST)
        with pytest.raises(ValueError):
            model.vectors[0, 0] = 1.0

    def test_init_keyed_by_entry_and_dimension(self):
        a = _initial_vectors(4, 8, rng_seed=3)
        b = _initial_vectors(4, 8, rng_seed=3)
        assert np.array_equal(a, b)
        # entry rows are independent of how many entries exist
        c = _initial_vectors(2, 8, rng_seed=3)
        assert np.array_equal(a[:2], c)
        assert np.abs(a).max() <= 0.5 / 8

    def test_kept_init_rows_equal_fresh_ones(self):
        # Growing, shrinking (a copy of kept rows), other seeds and widths.
        for n, dims, seed in [(3, 5, 11), (7, 5, 11), (2, 5, 11), (7, 5, 12), (4, 6, 11), (7, 5, 11)]:
            rows = _initial_vectors(n, dims, seed)
            assert rows.tobytes() == initial_vectors(n, dims, seed).tobytes()
            assert rows.shape == (n, dims) and rows.flags.writeable and rows.flags.owndata
            # The kernel trains syn0 in place: no later training may see it.
            rows[:] = 9.0

    def test_threads_build_each_init_row_once(self, monkeypatch):
        """Requests of different sizes from threads at once, under a short
        switch interval, five times from an empty cache: each gets fresh
        rows, every row is built once (one ``SeedSequence`` per row), and the
        cache ends with the largest request's rows, never a smaller one's."""
        monkeypatch.setattr(embed, "_init_rows", {})
        sizes = [120, 30, 90, 150, 60, 150, 10, 100]
        fresh = initial_vectors(max(sizes), 6, 4)
        seeded = []
        seed_sequence = np.random.SeedSequence
        monkeypatch.setattr(np.random, "SeedSequence", lambda key: seeded.append(key) or seed_sequence(key))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                embed._init_rows.clear()
                seeded.clear()
                with ThreadPoolExecutor(max_workers=4) as pool:
                    got = list(pool.map(lambda n: _initial_vectors(n, 6, 4), sizes))
                assert sorted(seeded) == [[4, i] for i in range(max(sizes))]
                assert all(rows.tobytes() == fresh[:n].tobytes() for n, rows in zip(sizes, got))
                assert embed._init_rows[(4, 6)].tobytes() == fresh.tobytes()
        finally:
            sys.setswitchinterval(interval)


class TestTrainedGeometry:
    def test_cooccurring_products_more_similar(self):
        # A,B share every session; C,D live apart: cosine(A,B) > cosine(A,C)
        ds = repeated_pairs([("A", "B", 100), ("C", "D", 100)])
        model = train(ds, Hyperparams(dimensions=16, iterations=3, min_count=1, rng_seed=2))
        ranked = top_k_similar(model, "A", 3)
        sims = dict((p, s) for p, s in ranked.items)
        assert sims["B"] > sims["C"]
        assert ranked.product_ids[0] == "B"


class TestSimilarity:
    def test_two_entry_vocab(self):
        ds = repeated_pairs([("A", "B", 6)])
        model = train(ds, FAST)
        rl = top_k_similar(model, "A", 5)
        assert rl.product_ids == ("B",)

    def test_self_similarity_excluded(self):
        ds = repeated_pairs([("A", "B", 6), ("A", "C", 4)])
        model = train(ds, FAST)
        rl = top_k_similar(model, "A", 10)
        assert "A" not in rl.product_ids
        v = model.vectors[model.vocabulary.index["A"]]
        self_cos = float(v @ v / (np.linalg.norm(v) ** 2))
        assert self_cos == pytest.approx(1.0)

    def test_unknown_seed_has_no_list(self):
        ds = repeated_pairs([("A", "B", 6)])
        model = train(ds, FAST)
        assert top_k_similar(model, "Z", 5) is None

    def test_brute_force_cosine_oracle(self):
        # ranking must equal an independent full sort of pairwise cosines
        pair_specs = [("A", "B", 5), ("B", "C", 4), ("C", "D", 6), ("D", "E", 3),
                      ("E", "F", 5), ("F", "G", 2), ("A", "G", 4), ("B", "F", 3),
                      ("C", "G", 2), ("A", "E", 2)]
        model = train(repeated_pairs(pair_specs), FAST)
        products = model.vocabulary.products
        vecs = model.vectors
        for seed in products:
            i = model.vocabulary.index[seed]
            expected = []
            for q in products:
                if q == seed:
                    continue
                j = model.vocabulary.index[q]
                na, nb = np.linalg.norm(vecs[i]), np.linalg.norm(vecs[j])
                cos = float(vecs[i] @ vecs[j] / (na * nb)) if na > 0 and nb > 0 else 0.0
                expected.append((q, cos))
            expected.sort(key=lambda t: (-t[1], t[0]))
            got = top_k_similar(model, seed, len(products))
            assert got.product_ids == tuple(q for q, _ in expected)
            for (qa, sa), (qb, sb) in zip(got.items, expected):
                assert sa == pytest.approx(sb, abs=1e-12)

    def test_all_top_k_similar_pointwise(self):
        model = train(repeated_pairs([("A", "B", 5), ("B", "C", 4), ("A", "C", 3)]), FAST)
        out = all_top_k_similar(model, 2)
        assert sorted(out) == ["A", "B", "C"]
        for seed, rl in out.items():
            assert rl == top_k_similar(model, seed, 2)

    def test_k_validation(self):
        model = train(repeated_pairs([("A", "B", 5)]), FAST)
        with pytest.raises(ValueError):
            top_k_similar(model, "A", 0)
        with pytest.raises(ValueError):
            all_top_k_similar(model, 0)


def vector_model(rows: list[list[float]], ids: list[str]) -> EmbeddingModel:
    """A model whose entry ``i`` is product ``ids[i]`` with vector ``rows[i]``."""
    vectors = np.array(rows, dtype=np.float64)
    return EmbeddingModel(
        vocabulary=Vocabulary(tuple(ids), (1,) * len(ids)),
        vectors=vectors,
        hyper=Hyperparams(dimensions=vectors.shape[1]),
    )


@st.composite
def vector_models(draw) -> EmbeddingModel:
    """Up to 12 entries in a vocabulary order unlike id order, with components
    from a few values, so that equal rows (exact ties) and all-zero rows
    are common."""
    n = draw(st.integers(1, 12))
    dims = draw(st.integers(1, 4))
    component = st.sampled_from([0.0, -0.0, 0.25, 0.5, -0.5, 1.0, -1.0])
    rows = draw(st.lists(st.lists(component, min_size=dims, max_size=dims), min_size=n, max_size=n))
    return vector_model(rows, draw(st.permutations([f"p{i:02d}" for i in range(n)])))


def signed_scores(topk) -> dict:
    """Each list's scores with their sign, which ``==`` on floats ignores."""
    return {seed: [math.copysign(1.0, score) for _, score in rl.items] for seed, rl in topk.items()}


@settings(max_examples=300, derandomize=True, deadline=None)
@given(model=vector_models(), k=st.integers(1, 14))
@example(model=vector_model([[0.5, -1.0]], ["p00"]), k=1)
@example(model=vector_model([[0.0, 0.0], [0.0, -0.0], [1.0, 0.5]], ["p02", "p00", "p01"]), k=5)
@example(model=vector_model([[1.0], [1.0], [1.0], [-1.0]], ["p03", "p01", "p02", "p00"]), k=2)
def test_all_top_k_similar_equals_the_sorting_oracle(model, k):
    """The lexsort ranking against ``oracles.top_k_similar``, which sorts
    (product, cosine) tuples, seed by seed: the same seeds in the same order,
    the same lists, the same scores with the same signs of zero."""
    fast = all_top_k_similar(model, k)
    oracle = {seed: top_k_similar(model, seed, k) for seed in sorted(model.vocabulary.products)}
    assert list(fast) == list(oracle)
    assert fast == oracle
    assert signed_scores(fast) == signed_scores(oracle)
    zero = {p for p, row in zip(model.vocabulary.products, model.vectors) if not row.any()}
    for seed, rl in fast.items():
        assert len(rl.items) == min(k, len(model.vocabulary) - 1)
        for product, score in rl.items:
            if seed in zero or product in zero:
                assert (score, math.copysign(1.0, score)) == (0.0, 1.0)


def path_loss(v: np.ndarray, l2: np.ndarray, codes: np.ndarray) -> float:
    """Negative log-likelihood of a center's Huffman path (rows ``l2``) given a context vector."""
    sign = 1.0 - 2.0 * codes
    return float(np.sum(np.logaddexp(0.0, -sign * (l2 @ v))))


class TestGradient:
    """``oracles.step``, the numpy trainer's update, is one gradient-descent
    step on ``path_loss`` for both the context vector and the path rows."""

    def _setup_path(self):
        # center word's Huffman path in a 3-product vocabulary
        ds = mk_dataset([("1", 0, ["A", "B", "C", "A", "B", "A"])])
        vocab = build_vocab(ds, min_count=1)
        rng = np.random.default_rng(0)
        syn0 = rng.normal(scale=0.2, size=(3, 6))
        syn1 = rng.normal(scale=0.2, size=(2, 6))
        points, code, offsets = _huffman(vocab.frequencies)
        path = slice(offsets[0], offsets[1])
        return syn0, syn1[points[path]], code[path]

    @staticmethod
    def _numeric_gradient(loss, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
        grad = np.zeros_like(x)
        for idx in np.ndindex(x.shape):
            xp, xm = x.copy(), x.copy()
            xp[idx] += h
            xm[idx] -= h
            grad[idx] = (loss(xp) - loss(xm)) / (2 * h)
        return grad

    def test_analytic_gradient_matches_finite_differences(self):
        syn0, l2, cds = self._setup_path()
        v = syn0[1].copy()
        grad_v = self._numeric_gradient(lambda x: path_loss(x, l2, cds), v)
        grad_l2 = self._numeric_gradient(lambda x: path_loss(v, x, cds), l2)
        alpha = 0.05
        new_v, new_l2 = v.copy(), l2.copy()
        step(new_l2, new_v, 1.0 - cds, alpha)
        # both updates are taken at the pre-step point: x_new = x - alpha * dL/dx
        assert np.allclose((v - new_v) / alpha, grad_v, rtol=1e-6, atol=1e-9)
        assert np.allclose((l2 - new_l2) / alpha, grad_l2, rtol=1e-6, atol=1e-9)

    def test_single_update_decreases_path_loss(self):
        syn0, l2, cds = self._setup_path()
        before = path_loss(syn0[1], l2, cds)
        step(l2, syn0[1], 1.0 - cds, 0.05)
        after = path_loss(syn0[1], l2, cds)
        assert after < before


def scalar_reference_train(dataset, hyper):
    """Slow, loop-by-loop mirror of the trainer: same token schedule, same
    update rule, scalar arithmetic. Shares vocab/init with the real code so
    any divergence isolates the training loop itself."""
    from scipy.special import expit

    vocab = build_vocab(dataset, hyper.min_count)
    index = vocab.index
    sentences = [[index[p] for p in s.products if p in index] for s in dataset.sessions]
    points, code, offsets = _huffman(vocab.frequencies)
    syn0 = [list(row) for row in _initial_vectors(len(vocab), hyper.dimensions, hyper.rng_seed)]
    syn1 = [[0.0] * hyper.dimensions for _ in range(max(len(vocab) - 1, 0))]
    budget = hyper.iterations * sum(len(s) for s in sentences)
    lr0 = hyper.initial_learning_rate
    floor = lr0 * 1e-4
    processed = 0
    for _ in range(hyper.iterations):
        for sent in sentences:
            n = len(sent)
            for i in range(n):
                alpha = max(lr0 * (1.0 - processed / budget), floor)
                processed += 1
                path = slice(offsets[sent[i]], offsets[sent[i] + 1])
                if path.start == path.stop:
                    continue
                lo = max(0, i - hyper.window)
                hi = min(n, i + hyper.window + 1)
                for j in range(lo, hi):
                    if j == i:
                        continue
                    ctx = sent[j]
                    v = list(syn0[ctx])
                    neu = [0.0] * hyper.dimensions
                    for point, bit in zip(points[path], code[path]):
                        row = syn1[point]
                        f = sum(a * b for a, b in zip(row, v))
                        g = alpha * (1.0 - bit - float(expit(f)))
                        old = list(row)
                        for d in range(hyper.dimensions):
                            neu[d] += g * old[d]
                            row[d] = old[d] + g * v[d]
                    for d in range(hyper.dimensions):
                        syn0[ctx][d] = v[d] + neu[d]
    return np.round(np.array(syn0), hyper.rounding_digits), vocab


class TestScalarReferenceOracle:
    def test_vectorized_trainer_matches_scalar_reference(self):
        # varied session lengths exercise window clipping at both bounds
        specs = [
            ("s0", 0, ["A", "B", "C"]),
            ("s1", 0, ["B", "C", "D", "E", "B"]),
            ("s2", 0, ["A", "A", "F"]),
            ("s3", 1, ["C", "D"]),
            ("s4", 1, ["E", "F", "A", "B", "C", "D", "E"]),
            ("s5", 1, ["D"]),
            ("s6", 2, ["F", "E", "D", "C"]),
            ("s7", 2, ["A", "B"]),
        ]
        ds = mk_dataset(specs)
        hyper = Hyperparams(dimensions=4, iterations=2, window=2, min_count=1, rng_seed=11)
        model = train(ds, hyper)
        ref_vectors, ref_vocab = scalar_reference_train(ds, hyper)
        assert model.vocabulary == ref_vocab
        assert np.allclose(model.vectors, ref_vectors, atol=1e-4)
        # rounded to 4 decimals, the two routes agree exactly on this corpus
        assert np.array_equal(model.vectors, ref_vectors)

    def test_reference_agreement_at_default_window(self):
        specs = [(f"s{i}", 0, ["A", "B", "C", "D", "E", "F", "A", "B"][: 3 + i % 6])
                 for i in range(10)]
        ds = mk_dataset(specs)
        hyper = Hyperparams(dimensions=4, iterations=1, window=5, min_count=1, rng_seed=3)
        model = train(ds, hyper)
        ref_vectors, _ = scalar_reference_train(ds, hyper)
        assert np.array_equal(model.vectors, ref_vectors)


class TestDump:
    def test_header_and_shape(self):
        model = train(repeated_pairs([("A", "B", 5), ("B", "C", 4)]), FAST)
        lines = dump_model(model).splitlines()
        assert lines[0] == "3 16"
        assert len(lines) == 4
        first = lines[1].split()
        assert first[0] == model.vocabulary.products[0]
        assert len(first) == 17
        assert all("." in comp and len(comp.split(".")[1]) == 4 for comp in first[1:])


class TestHyperparams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dimensions": 0},
            {"iterations": 0},
            {"window": 0},
            {"min_count": 0},
            {"initial_learning_rate": 0.0},
            {"rounding_digits": 0},
            {"rng_seed": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            Hyperparams(**kwargs)

    def test_paper_defaults(self):
        hy = Hyperparams()
        assert (hy.dimensions, hy.iterations, hy.window, hy.min_count) == (200, 5, 5, 5)
        assert hy.initial_learning_rate == 0.025
        assert hy.rounding_digits == 4
