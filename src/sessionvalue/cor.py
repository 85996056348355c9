"""Co-occurrence recommender (COR): symmetric pair counts, frequency-ranked top-k.

A pair (x, y) counts the number of sessions whose *unique* product set
contains both x and y; repeated clicks within one session count once.
Rankings order neighbors by decreasing count, ties broken by ascending
product id, which makes every list totally ordered and reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from operator import itemgetter

from .corpus import Dataset, Session
from .errors import MatrixUnderflowError

Pair = tuple[str, str]


def product_pair(a: str, b: str) -> Pair:
    """Canonical unordered key: lexicographically smaller id first."""
    return (a, b) if a < b else (b, a)


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
    """Sparse symmetric co-occurrence counts over unordered product pairs.

    ``session_membership[p]`` counts sessions whose unique set contains p, so
    the observed-product index survives exact removals. Instances are treated
    as immutable values (``adjacency`` is derived once and cached).
    """

    counts: dict[Pair, int] = field(default_factory=dict)
    session_membership: dict[str, int] = field(default_factory=dict)

    def count(self, a: str, b: str) -> int:
        return self.counts.get(product_pair(a, b), 0)

    @cached_property
    def adjacency(self) -> dict[str, list[tuple[str, int]]]:
        """Each product's neighbours with their pair counts, in ranking order
        (count desc, id asc). Products without a pair have no entry."""
        adjacency: dict[str, list[tuple[str, int]]] = {}
        for (a, b), c in self.counts.items():
            adjacency.setdefault(a, []).append((b, c))
            adjacency.setdefault(b, []).append((a, c))
        for neighbors in adjacency.values():
            _rank_order(neighbors)
        return adjacency


def _session_pairs(session: Session) -> list[Pair]:
    unique = sorted(session.unique_products)
    return [(unique[i], unique[j]) for i in range(len(unique)) for j in range(i + 1, len(unique))]


def build_matrix(dataset: Dataset) -> CoocMatrix:
    counts: dict[Pair, int] = {}
    membership: dict[str, int] = {}
    for session in dataset.sessions:
        for p in sorted(session.unique_products):
            membership[p] = membership.get(p, 0) + 1
        for pair in _session_pairs(session):
            counts[pair] = counts.get(pair, 0) + 1
    return CoocMatrix(counts=counts, session_membership=membership)


def _rank_order(neighbors: list[tuple[str, float]]) -> None:
    """Sort in place by (score desc, id asc): two stable passes with C-level keys."""
    neighbors.sort(key=itemgetter(0))
    neighbors.sort(key=itemgetter(1), reverse=True)


def _rank(neighbors: list[tuple[str, float]], k: int) -> tuple[tuple[str, float], ...]:
    _rank_order(neighbors)
    return tuple(neighbors[:k])


def all_top_k(matrix: CoocMatrix, k: int) -> dict[str, RecommendationList]:
    """One ranked list per observed product; a product without a pair gets an
    empty list."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    adjacency = matrix.adjacency
    return {
        seed: RecommendationList(seed=seed, items=tuple(adjacency.get(seed, ())[:k]))
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
        # lowered co-members and the first k other neighbours in base order.
        lowered = [
            (p, c - 1)
            for p in members
            if p != seed and (c := matrix.counts[product_pair(seed, p)]) > 1
        ]
        others = islice((n for n in matrix.adjacency.get(seed, ()) if n[0] not in members), k)
        out[seed] = RecommendationList(seed=seed, items=_rank(lowered + list(others), k))
    return out


def dump_matrix(matrix: CoocMatrix) -> str:
    """Canonical text dump: sorted ``a<TAB>b<TAB>count`` lines, byte-exact across runs."""
    lines = [f"{a}\t{b}\t{c}" for (a, b), c in sorted(matrix.counts.items())]
    return "".join(line + "\n" for line in lines)
