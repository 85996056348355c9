"""Vector recommender (VR): deterministic skip-gram training with hierarchical softmax.

Sessions are treated as sentences, one click per token. Training is strictly
single-threaded and a pure function of (dataset, hyperparameters): input
vectors come from a PRNG keyed by (rng_seed, entry index, dimension index),
tree-node vectors start at zero, the context window is fixed (never sampled),
and the learning rate decays linearly per token. Final vectors are rounded to
a fixed number of decimals, and similarities are computed over the rounded
vectors, so model dumps and rankings are byte-stable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cor import RecommendationList, _rank, _rank_order
from .corpus import Dataset
from .errors import EmptyVocabularyError

# Learning-rate floor, as a fraction of the initial rate.
LR_FLOOR_FRACTION = 1e-4


@dataclass(frozen=True)
class Hyperparams:
    """Training knobs. Architecture is fixed: skip-gram over a hierarchical
    softmax output, no subsampling, no negative sampling, single thread."""

    dimensions: int = 200
    iterations: int = 5
    window: int = 5
    min_count: int = 5
    initial_learning_rate: float = 0.025
    rounding_digits: int = 4
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.dimensions < 1:
            raise ValueError(f"dimensions must be >= 1, got {self.dimensions}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.min_count < 1:
            raise ValueError(f"min_count must be >= 1, got {self.min_count}")
        if self.initial_learning_rate <= 0:
            raise ValueError("initial_learning_rate must be > 0")
        if self.rounding_digits < 1:
            raise ValueError(f"rounding_digits must be >= 1, got {self.rounding_digits}")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")


@dataclass(frozen=True)
class VocabEntry:
    product: str
    frequency: int
    code: tuple[int, ...]
    points: tuple[int, ...]


@dataclass(frozen=True)
class Vocabulary:
    """Entries sorted by descending token frequency, ties by ascending product id."""

    entries: tuple[VocabEntry, ...]

    def __len__(self) -> int:
        return len(self.entries)

    @cached_property
    def index(self) -> dict[str, int]:
        return {e.product: i for i, e in enumerate(self.entries)}

    @property
    def products(self) -> tuple[str, ...]:
        return tuple(e.product for e in self.entries)


@dataclass(eq=False)
class EmbeddingModel:
    vocabulary: Vocabulary
    vectors: np.ndarray
    hyper: Hyperparams


def _huffman(frequencies: list[int]) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Binary Huffman codes and root-to-leaf internal-node paths.

    Uses the classic two-pointer construction over counts sorted descending;
    tie decisions fall on fixed pointer order, so the tree is a pure function
    of the frequency list.
    """
    n = len(frequencies)
    if n == 1:
        return [()], [()]
    count = list(frequencies) + [1 << 62] * (n - 1)
    parent = [0] * (2 * n - 1)
    binary = [0] * (2 * n - 1)
    pos1 = n - 1
    pos2 = n
    for a in range(n - 1):
        picks = []
        for _ in range(2):
            if pos1 >= 0 and count[pos1] < count[pos2]:
                picks.append(pos1)
                pos1 -= 1
            else:
                picks.append(pos2)
                pos2 += 1
        min1, min2 = picks
        count[n + a] = count[min1] + count[min2]
        parent[min1] = n + a
        parent[min2] = n + a
        binary[min2] = 1
    root = 2 * n - 2
    codes: list[tuple[int, ...]] = []
    points: list[tuple[int, ...]] = []
    for leaf in range(n):
        code_up: list[int] = []
        point_up: list[int] = []
        node = leaf
        while node != root:
            code_up.append(binary[node])
            point_up.append(parent[node] - n)
            node = parent[node]
        codes.append(tuple(reversed(code_up)))
        points.append(tuple(reversed(point_up)))
    return codes, points


def build_vocab(dataset: Dataset, min_count: int) -> Vocabulary:
    """Token-level frequencies (repeated clicks count) filtered at ``min_count``."""
    freq: dict[str, int] = {}
    for session in dataset.sessions:
        for click in session.clicks:
            freq[click.product] = freq.get(click.product, 0) + 1
    kept = [(p, f) for p, f in freq.items() if f >= min_count]
    if not kept:
        raise EmptyVocabularyError(min_count)
    _rank_order(kept)
    codes, points = _huffman([f for _, f in kept])
    entries = tuple(
        VocabEntry(product=p, frequency=f, code=codes[i], points=points[i])
        for i, (p, f) in enumerate(kept)
    )
    return Vocabulary(entries=entries)


def _initial_vectors(n_entries: int, dimensions: int, rng_seed: int) -> np.ndarray:
    """Input-vector init keyed by (rng_seed, entry index, dimension index)."""
    rows = np.empty((n_entries, dimensions), dtype=np.float64)
    for i in range(n_entries):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([rng_seed, i])))
        rows[i] = (rng.random(dimensions) - 0.5) / dimensions
    return rows


def load_scipy():
    """Import and return ``scipy.special.expit``, the trainer's logistic function.

    ``train`` calls this once per training; importing scipy takes about a
    quarter of a second, so commands that never train (every ``cor`` command)
    do not load it. A caller timing ``train`` calls this first, so that the
    import stays out of the measurement.
    """
    from scipy.special import expit

    return expit


def _step(l2: np.ndarray, v: np.ndarray, one_minus_code: np.ndarray, alpha: float, expit) -> None:
    """One gradient step of context vector ``v`` against the center's path rows
    ``l2`` (with ``1 - code`` per row), updating both in place."""
    g = alpha * (one_minus_code - expit(l2 @ v))
    neu = g @ l2
    l2 += g[:, None] * v
    v += neu


def train(dataset: Dataset, hyper: Hyperparams) -> EmbeddingModel:
    """Train the embedding model; bit-identical output for identical inputs.

    Epochs iterate sessions in corpus order; tokens below min_count are
    dropped before windowing. For each center token, every in-window context
    token's input vector is updated against the center's Huffman path,
    sequentially, with the per-token linearly decayed learning rate.

    The center's path rows are gathered from ``syn1`` once, updated in place
    across the window and written back after it. This is the same arithmetic
    as gathering and scattering them per context: within one window only the
    center's path rows of ``syn1`` change, and a path never repeats a node.
    """
    expit = load_scipy()
    vocab = build_vocab(dataset, hyper.min_count)
    index = vocab.index
    sentences = [[index[c.product] for c in s.clicks if c.product in index] for s in dataset.sessions]
    points = [np.array(e.points, dtype=np.int64) for e in vocab.entries]
    one_minus_code = [1.0 - np.array(e.code, dtype=np.float64) for e in vocab.entries]

    n = len(vocab)
    syn0 = _initial_vectors(n, hyper.dimensions, hyper.rng_seed)
    syn1 = np.zeros((max(n - 1, 0), hyper.dimensions), dtype=np.float64)

    budget = hyper.iterations * sum(len(s) for s in sentences)
    lr0 = hyper.initial_learning_rate
    lr_floor = lr0 * LR_FLOOR_FRACTION
    window = hyper.window

    processed = 0
    for _ in range(hyper.iterations):
        for sent in sentences:
            m = len(sent)
            for i, w in enumerate(sent):
                alpha = max(lr0 * (1.0 - processed / budget), lr_floor)
                processed += 1
                pts = points[w]
                if pts.size == 0:
                    continue
                omc = one_minus_code[w]
                l2 = syn1[pts]
                for j in range(max(i - window, 0), min(m, i + window + 1)):
                    if j != i:
                        _step(l2, syn0[sent[j]], omc, alpha, expit)
                syn1[pts] = l2

    vectors = np.round(syn0, hyper.rounding_digits)
    vectors.setflags(write=False)
    return EmbeddingModel(vocabulary=vocab, vectors=vectors, hyper=hyper)


def _cosine_sims(model: EmbeddingModel, seed_idx: int, norms: np.ndarray) -> np.ndarray:
    v = model.vectors[seed_idx]
    dots = model.vectors @ v
    denom = norms * norms[seed_idx]
    return np.divide(dots, denom, out=np.zeros_like(dots), where=denom > 0)


def _rank_similar(
    model: EmbeddingModel, seed_idx: int, k: int, norms: np.ndarray
) -> RecommendationList:
    sims = _cosine_sims(model, seed_idx, norms)
    products = model.vocabulary.products
    candidates = [(products[i], float(sims[i])) for i in range(len(products)) if i != seed_idx]
    return RecommendationList(seed=products[seed_idx], items=_rank(candidates, k))


def _norms(model: EmbeddingModel) -> np.ndarray:
    return np.sqrt(np.sum(model.vectors * model.vectors, axis=1))


def all_top_k_similar(model: EmbeddingModel, k: int) -> dict[str, RecommendationList]:
    """One cosine ranking per vocabulary product over the rounded vectors,
    ties by ascending product id."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    norms = _norms(model)
    index = model.vocabulary.index
    return {seed: _rank_similar(model, index[seed], k, norms) for seed in sorted(index)}


def dump_model(model: EmbeddingModel) -> str:
    """Canonical text dump: ``n_entries dimensions`` header, then one line per
    entry with vector components printed at exactly ``rounding_digits`` decimals."""
    digits = model.hyper.rounding_digits
    lines = [f"{len(model.vocabulary)} {model.hyper.dimensions}"]
    for i, entry in enumerate(model.vocabulary.entries):
        comps = " ".join(f"{x:.{digits}f}" for x in model.vectors[i])
        lines.append(f"{entry.product} {comps}")
    return "".join(line + "\n" for line in lines)
