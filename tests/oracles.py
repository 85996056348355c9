"""Slow reference implementations the package's fast paths are tested against.

``remove_session`` is an exact incremental removal from a co-occurrence
matrix (itself checked against from-scratch rebuilds), ``top_k`` ranks one
seed's neighbours by a scan of every pair count, and ``top_k_similar`` ranks
one seed of an embedding model. The package ships ``session_top_k``,
``all_top_k`` and ``all_top_k_similar``; none of these three runs in it.
"""

from __future__ import annotations

from itertools import combinations

from sessionvalue.cor import CoocMatrix, RecommendationList
from sessionvalue.corpus import Session
from sessionvalue.embed import EmbeddingModel, _norms, _rank_similar
from sessionvalue.errors import MatrixUnderflowError


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


def top_k_similar(model: EmbeddingModel, seed: str, k: int) -> RecommendationList | None:
    """Cosine ranking over rounded vectors, ties by ascending product id; an
    unknown seed has no list (None)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    idx = model.vocabulary.index.get(seed)
    if idx is None:
        return None
    return _rank_similar(model, idx, k, _norms(model))
