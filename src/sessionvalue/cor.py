"""Co-occurrence recommender (COR): symmetric pair counts, frequency-ranked top-k.

A pair (x, y) counts the number of sessions whose *unique* product set
contains both x and y; repeated clicks within one session count once. The
counts form one table of ranked rows (``CoocMatrix``), all counted by
``_add_pairs``, the step ``build_matrix`` shares with the lifecycle window.
Rankings order neighbors by decreasing count, ties broken by ascending
product id, which makes every list totally ordered and reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from operator import itemgetter

from .corpus import Dataset, Session
from .errors import MatrixUnderflowError

Rows = dict[str, dict[str, int]]


@dataclass(frozen=True)
class RecommendationList:
    """Top-k alternatives for one seed, strictly ordered by (score desc, id asc)."""

    seed: str
    items: tuple[tuple[str, float], ...]

    @property
    def product_ids(self) -> tuple[str, ...]:
        return tuple(p for p, _ in self.items)


@dataclass(eq=True)
class CoocMatrix:
    """Symmetric co-occurrence counts as one ranked row per paired product.

    ``rows[p][q]`` counts the sessions whose unique set holds both p and q;
    no row holds p itself or a zero. Each row dict is built in ranking order
    (count desc, id asc), so ``rows[p][q]`` answers a count lookup and
    iterating ``rows[p]`` gives p's ranking. ``session_membership[p]`` counts
    sessions whose unique set contains p, so the observed-product index
    survives exact removals. Instances are treated as immutable values.
    """

    rows: Rows = field(default_factory=dict)
    session_membership: dict[str, int] = field(default_factory=dict)

    def count(self, a: str, b: str) -> int:
        return self.rows.get(a, {}).get(b, 0)


def _add_pairs(rows: Rows, seeds: frozenset[str], unique: frozenset[str], step: int) -> None:
    """Add ``step`` to ``rows[p][q]`` for each p in ``seeds`` and each other q in ``unique``."""
    for p in seeds:
        row = rows.setdefault(p, {})
        for q in unique:
            if q != p:
                row[q] = row.get(q, 0) + step


def build_matrix(dataset: Dataset) -> CoocMatrix:
    counts: Rows = {}
    membership: dict[str, int] = {}
    for unique in (session.unique_products for session in dataset.sessions):
        for p in unique:
            membership[p] = membership.get(p, 0) + 1
        _add_pairs(counts, unique, unique, 1)
    rows = {p: dict(_rank(list(row.items()))) for p, row in counts.items() if row}
    return CoocMatrix(rows=rows, session_membership=membership)


def _rank_order(neighbors: list[tuple[str, float]]) -> None:
    """Sort in place by (score desc, id asc): two stable passes with C-level keys."""
    neighbors.sort(key=itemgetter(0))
    neighbors.sort(key=itemgetter(1), reverse=True)


def _rank(neighbors: list[tuple[str, float]], k: int | None = None) -> tuple[tuple[str, float], ...]:
    """The first k of ``neighbors`` in ranking order; all of them without k."""
    _rank_order(neighbors)
    return tuple(neighbors[:k])


def all_top_k(matrix: CoocMatrix, k: int) -> dict[str, RecommendationList]:
    """One ranked list per observed product; a product without a pair gets an
    empty list."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    rows = matrix.rows
    return {
        seed: RecommendationList(seed=seed, items=tuple(islice(rows.get(seed, {}).items(), k)))
        for seed in sorted(matrix.session_membership)
    }


def session_top_k(
    matrix: CoocMatrix, session: Session, k: int
) -> dict[str, RecommendationList | None]:
    """The lists of ``session``'s products once the session is removed.

    Removing a session lowers only the counts of pairs inside it, so these are
    the only lists that can change: per product, equal to its list in
    ``all_top_k`` of a rebuild without the session, or None where no other
    session holds the product and it stops being a seed.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    members = session.unique_products
    out: dict[str, RecommendationList | None] = {}
    for seed in sorted(members):
        held = matrix.session_membership.get(seed, 0)
        if held <= 0:
            raise MatrixUnderflowError(f"product {seed!r} not present in matrix")
        if held == 1:
            out[seed] = None
            continue
        # Only co-members' counts drop, so the new top k lies among the
        # lowered co-members and the first k other neighbours in row order.
        row = matrix.rows.get(seed, {})
        lowered = [(p, c - 1) for p in members if p != seed and (c := row[p]) > 1]
        others = islice((n for n in row.items() if n[0] not in members), k)
        out[seed] = RecommendationList(seed=seed, items=_rank(lowered + list(others), k))
    return out


def dump_matrix(matrix: CoocMatrix) -> str:
    """Canonical text dump: sorted ``a<TAB>b<TAB>count`` lines, byte-exact across runs."""
    entries = sorted((a, b, c) for a, row in matrix.rows.items() for b, c in row.items() if a < b)
    return "".join(f"{a}\t{b}\t{c}\n" for a, b, c in entries)
