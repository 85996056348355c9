"""Slow reference implementations the package's fast paths are tested against.

``remove_session`` is an exact incremental removal from a co-occurrence
matrix (itself checked against from-scratch rebuilds), ``top_k`` ranks one
seed's neighbours by a scan of every pair count, and ``top_k_similar`` ranks
one seed of an embedding model by a sort of (product, cosine) tuples. The
package ships ``session_top_k``, ``all_top_k`` and ``all_top_k_similar`` (one
``np.lexsort`` per seed); none of these three runs in it.

``fit_numpy`` and ``train_numpy`` are the skip-gram trainer as a numpy loop,
one ``step`` per (center, context) pair, from ``initial_vectors`` built anew
on every call; the package trains with the compiled kernel instead, from
initial rows it keeps between trainings.

``trajectories_rebuild`` is the lifecycle study with every frame's window
rebuilt from scratch (``slice_days``, ``build_matrix``, ``all_top_k``); the
package slides neighbour counts of the cohort's products instead.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
from scipy.special import expit

from sessionvalue.cor import CoocMatrix, RecommendationList, _rank, all_top_k, build_matrix
from sessionvalue.corpus import Dataset, Session, slice_days
from sessionvalue.embed import (
    LR_FLOOR_FRACTION,
    EmbeddingModel,
    Hyperparams,
    Vocabulary,
    _cosine_sims,
    _norms,
    _rounded,
    _sentences,
    build_vocab,
)
from sessionvalue.errors import MatrixUnderflowError
from sessionvalue.lifecycle import CvTrajectory, FramePlan, classify_impact, cv_score, ols


def remove_session(matrix: CoocMatrix, session: Session) -> CoocMatrix:
    """Exact incremental removal; equals a from-scratch rebuild without the session.

    The input matrix is left untouched. Decrements that would go below zero
    raise MatrixUnderflowError (the session was never in the build).
    """
    counts = dict(matrix.counts)
    membership = dict(matrix.session_membership)
    for p in session.unique_products:
        current = membership.get(p, 0)
        if current <= 0:
            raise MatrixUnderflowError(f"product {p!r} not present in matrix")
        if current == 1:
            del membership[p]
        else:
            membership[p] = current - 1
    for pair in combinations(sorted(session.unique_products), 2):
        current = counts.get(pair, 0)
        if current <= 0:
            raise MatrixUnderflowError(f"pair {pair!r} not present in matrix")
        if current == 1:
            del counts[pair]
        else:
            counts[pair] = current - 1
    return CoocMatrix(counts=counts, session_membership=membership)


def top_k(matrix: CoocMatrix, seed: str, k: int) -> RecommendationList | None:
    """Highest-count neighbors of ``seed``, ties by ascending id; an unknown
    seed has no list (None)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if seed not in matrix.session_membership:
        return None
    neighbors = []
    for (a, b), c in matrix.counts.items():
        if a == seed:
            neighbors.append((b, c))
        elif b == seed:
            neighbors.append((a, c))
    neighbors.sort(key=lambda n: (-n[1], n[0]))
    return RecommendationList(seed=seed, items=tuple(neighbors[:k]))


def _rank_similar(
    model: EmbeddingModel, seed_idx: int, k: int, norms: np.ndarray
) -> RecommendationList:
    sims = _cosine_sims(model, seed_idx, norms)
    products = model.vocabulary.products
    candidates = [(products[i], float(sims[i])) for i in range(len(products)) if i != seed_idx]
    return RecommendationList(seed=products[seed_idx], items=_rank(candidates, k))


def top_k_similar(model: EmbeddingModel, seed: str, k: int) -> RecommendationList | None:
    """Cosine ranking over rounded vectors, ties by ascending product id; an
    unknown seed has no list (None)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    idx = model.vocabulary.index.get(seed)
    if idx is None:
        return None
    return _rank_similar(model, idx, k, _norms(model))


def initial_vectors(n_entries: int, dimensions: int, rng_seed: int) -> np.ndarray:
    """``embed._initial_vectors`` computed row by row on every call, with no
    rows kept from an earlier call."""
    rows = np.empty((n_entries, dimensions), dtype=np.float64)
    for i in range(n_entries):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([rng_seed, i])))
        rows[i] = (rng.random(dimensions) - 0.5) / dimensions
    return rows


def step(l2: np.ndarray, v: np.ndarray, one_minus_code: np.ndarray, alpha: float) -> None:
    """One gradient step of context vector ``v`` against the center's path rows
    ``l2`` (with ``1 - code`` per row), updating both in place."""
    g = alpha * (one_minus_code - expit(l2 @ v))
    neu = g @ l2
    l2 += g[:, None] * v
    v += neu


def fit_numpy(dataset: Dataset, hyper: Hyperparams) -> tuple[Vocabulary, np.ndarray]:
    """The vocabulary and unrounded input vectors, trained by a numpy loop.

    The center's path rows are gathered from ``syn1`` once, updated in place
    across the window and written back after it. This is the same arithmetic
    as gathering and scattering them per context: within one window only the
    center's path rows of ``syn1`` change, and a path never repeats a node.
    """
    vocab = build_vocab(dataset, hyper.min_count)
    sentences = _sentences(dataset, vocab)
    points = [np.array(e.points, dtype=np.int64) for e in vocab.entries]
    one_minus_code = [1.0 - np.array(e.code, dtype=np.float64) for e in vocab.entries]

    n = len(vocab)
    syn0 = initial_vectors(n, hyper.dimensions, hyper.rng_seed)
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
                        step(l2, syn0[sent[j]], omc, alpha)
                syn1[pts] = l2
    return vocab, syn0


def train_numpy(dataset: Dataset, hyper: Hyperparams) -> EmbeddingModel:
    """``embed.train`` with the numpy loop in place of the compiled kernel."""
    return _rounded(*fit_numpy(dataset, hyper), hyper)


def trajectories_rebuild(dataset: Dataset, plan: FramePlan, k: int) -> list[CvTrajectory]:
    """``lifecycle.trajectories`` with each frame's model rebuilt from its window."""
    cohort_day = plan.cohort_day if plan.cohort_day is not None else dataset.min_day
    cohort = [s for s in dataset.sessions if s.day == cohort_day]
    n_frames = min(plan.n_frames, dataset.max_day - cohort_day + 1)
    series: dict[str, list[int]] = {s.session_id: [] for s in cohort}
    for frame in range(1, n_frames + 1):
        window = slice_days(dataset, end_day=cohort_day + frame - 1, n_days=plan.window_days)
        topk = all_top_k(build_matrix(window), k)
        for session in cohort:
            series[session.session_id].append(cv_score(session, topk))
    out = []
    for session in cohort:
        scores = series[session.session_id]
        slope, intercept = ols(scores)
        out.append(CvTrajectory(
            session_id=session.session_id,
            scores=tuple(scores),
            slope=slope,
            intercept=intercept,
            impact=classify_impact(slope, intercept),
        ))
    return sorted(out, key=lambda t: t.session_id)
