"""Seeded synthetic clickstreams, evaluation logs and ground truth.

Training sessions follow category-sticky random walks over a Zipf popularity
distribution. Evaluation sessions sample views from the same walk model and
orders from a pairwise purchase-affinity table, so the measured conversion
rate genuinely depends on *which* alternatives a model recommends. Plants
are verified at creation time rather than assumed to behave: a toxic plant by
fitting each engine with it, a duplicate plant by the exact ``cor``
leave-one-out of one clone.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .atomic import write_jsonl
from .cor import all_top_k, build_matrix, session_top_k
from .corpus import (
    Catalog,
    Dataset,
    EvalLog,
    EvalSession,
    Session,
    SECONDS_PER_DAY,
)
from .embed import Hyperparams
from .errors import PlantFailedError, UnknownSessionError
from .kpi import index_eval, rate_from_totals, totals
from .sensitivity import CorEngine, VrEngine, diff_topk

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class GenConfig:
    n_products: int
    n_categories_top: int
    n_categories_fine: int
    n_train_sessions: int
    n_eval_sessions: int
    days: int
    rng_seed: int
    intent_stickiness: float = 0.75
    session_length_geometric_p: float = 0.2
    order_base_rate: float = 0.05

    def __post_init__(self) -> None:
        counts = {
            "n_products": self.n_products,
            "n_categories_top": self.n_categories_top,
            "n_categories_fine": self.n_categories_fine,
            "n_train_sessions": self.n_train_sessions,
            "n_eval_sessions": self.n_eval_sessions,
            "days": self.days,
        }
        for name, value in counts.items():
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        probs = {
            "intent_stickiness": self.intent_stickiness,
            "session_length_geometric_p": self.session_length_geometric_p,
            "order_base_rate": self.order_base_rate,
        }
        for name, value in probs.items():
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.session_length_geometric_p == 0.0:
            raise ValueError("session_length_geometric_p must be > 0")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")


@dataclass(frozen=True)
class ToxicPlantConfig:
    rng_seed: int


@dataclass(frozen=True)
class DuplicatePlantConfig:
    copies: int = 3

    def __post_init__(self) -> None:
        if self.copies < 2:
            raise ValueError(f"copies must be >= 2 so one clone's removal is absorbable, "
                             f"got {self.copies}")


@dataclass(frozen=True)
class PlantsConfig:
    toxic: ToxicPlantConfig | None = None
    duplicates: DuplicatePlantConfig | None = None


class PlantKind(Enum):
    TOXIC = "toxic"
    DUPLICATE = "duplicate"


@dataclass(frozen=True)
class GroundTruth:
    """Oracle behind the generator: pairwise purchase affinity and planted sessions.

    Affinity keys are canonical unordered pairs (smaller id first); absent
    pairs have affinity 0.
    """

    affinity: dict[tuple[str, str], float]
    planted: tuple[tuple[str, PlantKind], ...] = ()


MAX_SESSION_LENGTH = 50
MAX_EVAL_VIEWS = 12
POPULARITY_EXPONENT = 1.0  # Zipf exponent of product popularity
TOXIC_REPEATS = 25  # (seed, junk) click pairs in a toxic plant
TOXIC_RETRIES = 100  # candidates a toxic plant tries before it gives up
TOXIC_MIN_REL_GAIN = 0.001  # least relative CR drop a toxic plant must cause


def _sample_index(rng: np.random.Generator, cumulative: np.ndarray) -> int:
    return int(np.searchsorted(cumulative, rng.random(), side="right"))


def _walk(
    rng: np.random.Generator,
    length: int,
    stickiness: float,
    global_cum: np.ndarray,
    fine_of: np.ndarray,
    fine_members: list[np.ndarray],
    fine_cum: list[np.ndarray],
) -> list[int]:
    current = _sample_index(rng, global_cum)
    steps = [current]
    for _ in range(length - 1):
        if rng.random() < stickiness:
            cat = int(fine_of[current])
            current = int(fine_members[cat][_sample_index(rng, fine_cum[cat])])
        else:
            current = _sample_index(rng, global_cum)
        steps.append(current)
    return steps


def generate(config: GenConfig) -> tuple[Dataset, EvalLog, GroundTruth]:
    """Deterministic in rng_seed: same config yields byte-identical outputs.

    Evaluation sessions that would end up with an empty order set are dropped,
    so the emitted eval log may hold fewer than ``n_eval_sessions`` entries.
    """
    seed_seq = np.random.SeedSequence(config.rng_seed)
    cat_rng, aff_rng, train_rng, eval_rng = (
        np.random.Generator(np.random.PCG64(child)) for child in seed_seq.spawn(4)
    )

    n = config.n_products
    products = [f"p{i:04d}" for i in range(n)]
    top_names = [f"t{j:02d}" for j in range(config.n_categories_top)]
    fine_names = [f"c{j:03d}" for j in range(config.n_categories_fine)]
    top_of_fine = np.arange(config.n_categories_fine) % config.n_categories_top
    fine_of = cat_rng.integers(0, config.n_categories_fine, size=n)

    catalog = Catalog(
        paths={
            products[i]: (top_names[int(top_of_fine[fine_of[i]])], fine_names[int(fine_of[i])])
            for i in range(n)
        }
    )

    # Zipf popularity over product index (index 0 most popular).
    weights = np.power(np.arange(1, n + 1, dtype=np.float64), -POPULARITY_EXPONENT)
    global_cum = np.cumsum(weights / weights.sum())
    fine_members: list[np.ndarray] = []
    fine_cum: list[np.ndarray] = []
    for cat in range(config.n_categories_fine):
        members = np.flatnonzero(fine_of == cat)
        fine_members.append(members)
        if members.size:
            w = weights[members]
            fine_cum.append(np.cumsum(w / w.sum()))
        else:
            fine_cum.append(np.array([]))

    # Pairwise purchase affinity: strong within a fine category, weaker within
    # a top category, zero across top categories.
    affinity: dict[tuple[str, str], float] = {}
    matrix = np.zeros((n, n), dtype=np.float64)
    top_of_product = top_of_fine[fine_of]
    for top in range(config.n_categories_top):
        members = np.flatnonzero(top_of_product == top)
        for a_pos in range(members.size):
            for b_pos in range(a_pos + 1, members.size):
                a, b = int(members[a_pos]), int(members[b_pos])
                u = aff_rng.random()
                if fine_of[a] == fine_of[b]:
                    value = 0.55 + 0.35 * u
                else:
                    value = 0.15 + 0.25 * u
                affinity[(products[a], products[b])] = value
                matrix[a, b] = matrix[b, a] = value

    # Training sessions: category-sticky walks, one day bucket per session.
    raw_sessions: list[Session] = []
    for i in range(config.n_train_sessions):
        day = int(train_rng.integers(0, config.days))
        length = min(int(train_rng.geometric(config.session_length_geometric_p)), MAX_SESSION_LENGTH)
        steps = _walk(
            train_rng, length, config.intent_stickiness, global_cum, fine_of, fine_members, fine_cum
        )
        start = day * SECONDS_PER_DAY + int(train_rng.integers(0, 75_000))
        gaps = train_rng.integers(1, 181, size=max(length - 1, 0))
        ts = start + np.concatenate(([0], np.cumsum(gaps))) if length > 1 else np.array([start])
        raw_sessions.append(Session.from_columns(f"s{i:06d}", ts.tolist(), [products[j] for j in steps]))
    raw_sessions.sort(key=lambda s: (s.day, s.session_id))
    dataset = Dataset(sessions=tuple(raw_sessions), catalog=catalog)

    # Evaluation sessions: views from the walk model, orders from affinity.
    eval_sessions: list[EvalSession] = []
    for i in range(config.n_eval_sessions):
        length = min(int(eval_rng.geometric(config.session_length_geometric_p)), MAX_EVAL_VIEWS)
        steps = _walk(
            eval_rng, length, config.intent_stickiness, global_cum, fine_of, fine_members, fine_cum
        )
        viewed_idx = sorted(set(steps))
        ordered: set[str] = set()
        for p_idx in viewed_idx:
            rates = matrix[p_idx] * config.order_base_rate
            hits = np.flatnonzero(eval_rng.random(n) < rates)
            ordered.update(products[int(h)] for h in hits)
        if not ordered:
            continue
        eval_sessions.append(
            EvalSession(
                session_id=f"e{i:06d}",
                viewed=frozenset(products[j] for j in viewed_idx),
                ordered=frozenset(ordered),
            )
        )
    eval_log = EvalLog(sessions=tuple(eval_sessions))

    return dataset, eval_log, GroundTruth(affinity=affinity, planted=())


# ---------------------------------------------------------------------------
# Plants
# ---------------------------------------------------------------------------


def _plant_session(session_id: str, seed: str, junk: str, day: int) -> Session:
    start = day * SECONDS_PER_DAY + 1_000
    times = range(start, start + 2 * TOXIC_REPEATS)
    return Session.from_columns(session_id, times, [seed, junk] * TOXIC_REPEATS)


def plant_toxic_session(
    dataset: Dataset,
    eval_log: EvalLog,
    truth: GroundTruth,
    rng_seed: int,
    hyper: Hyperparams,
    *,
    k: int = 5,
) -> tuple[Dataset, GroundTruth]:
    """Append one high-frequency session that provably lowers the conversion rate.

    The plant clicks a viewed seed and a never-co-ordered junk product
    ``TOXIC_REPEATS`` times each; the junk's raised count ranks it ahead of the
    seed's k-th alternative, so the junk displaces it. Every candidate is
    verified by brute force: fit each engine (``cor``, then ``vr`` with
    ``hyper``) on the dataset with the plant and require its conversion rate
    to sit more than ``TOXIC_MIN_REL_GAIN`` below the baseline's, relative
    (so a later leave-one-out of the plant is safely outside the neutral
    band). Gives up with PlantFailedError after ``TOXIC_RETRIES`` candidates.
    """
    index = index_eval(eval_log)

    def rate(engine, data: Dataset) -> float:
        return rate_from_totals(*totals(index, engine.top_k_map(engine.fit(data), k)))

    base_matrix = build_matrix(dataset)
    base_topk = all_top_k(base_matrix, k)
    vr_engine = VrEngine(hyper)
    baselines = [
        (CorEngine(), rate_from_totals(*totals(index, base_topk))),
        (vr_engine, rate(vr_engine, dataset)),
    ]
    if any(base_cr <= 0.0 for _, base_cr in baselines):
        raise PlantFailedError("baseline conversion rate is zero; no rate to corrupt")

    candidates: list[tuple[str, str]] = []
    for seed in sorted(base_topk):
        ranked = base_topk[seed]
        if len(ranked) < k or seed not in index.views:
            continue
        kth_id, kth_count = ranked[-1]
        in_list = {p for p, _ in ranked}
        ordered_with_seed = index.orders.get(seed, {})
        for junk in sorted(dataset.catalog.products):
            if junk == seed or junk in in_list or junk in ordered_with_seed:
                continue
            new_count = base_matrix.count(seed, junk) + 1
            if new_count > kth_count or (new_count == kth_count and junk < kth_id):
                candidates.append((seed, junk))
    if not candidates:
        raise PlantFailedError("no displacement candidate with zero order support exists")

    rng = np.random.default_rng(rng_seed)
    order = rng.permutation(len(candidates))
    n_existing = sum(1 for sid in dataset.by_id if sid.startswith("toxic-"))
    plant_id = f"toxic-{n_existing:03d}"

    attempts = 0
    for idx in order:
        if attempts >= TOXIC_RETRIES:
            break
        attempts += 1
        seed, junk = candidates[int(idx)]
        plant = _plant_session(plant_id, seed, junk, dataset.max_day)
        trial = Dataset(sessions=dataset.sessions + (plant,), catalog=dataset.catalog)
        if not all(
            (cr_with := rate(engine, trial)) > 0.0 and (base_cr - cr_with) / cr_with > TOXIC_MIN_REL_GAIN
            for engine, base_cr in baselines
        ):
            continue
        log.info("toxic plant %s accepted after %d attempts (seed=%s junk=%s)",
                 plant_id, attempts, seed, junk)
        planted = truth.planted + ((plant_id, PlantKind.TOXIC),)
        return trial, GroundTruth(affinity=truth.affinity, planted=planted)

    raise PlantFailedError(f"no verifiable toxic plant after {attempts} attempts")


def _with_clones(dataset: Dataset, source: Session, copies: int) -> Dataset:
    """Append ``copies`` clones of ``source``, byte-identical except for fresh ids."""
    clones = tuple(
        Session.from_columns(cid, source.times, source.products)
        for cid in clone_ids(source.session_id, copies)
    )
    return Dataset(sessions=dataset.sessions + clones, catalog=dataset.catalog)


def clone_ids(session_id: str, copies: int) -> tuple[str, ...]:
    return tuple(f"{session_id}-dup{i:02d}" for i in range(copies))


def plant_no_impact_duplicates(
    dataset: Dataset,
    truth: GroundTruth,
    config: DuplicatePlantConfig,
    k: int = 5,
) -> tuple[Dataset, GroundTruth, str]:
    """Clone the first session whose clones provably leave every top-k list alone.

    Verified with ``duplicates_still_no_impact``: every ranked id sequence
    must survive the removal of one clone (count gaps large enough to absorb
    a single decrement).
    """
    copies = config.copies
    for source in dataset.sessions:
        planted = _with_clones(dataset, source, copies)
        if duplicates_still_no_impact(planted, source.session_id, k):
            added = tuple((cid, PlantKind.DUPLICATE) for cid in clone_ids(source.session_id, copies))
            log.info("duplicate plant accepted: %d clones of %s", copies, source.session_id)
            return planted, GroundTruth(affinity=truth.affinity, planted=truth.planted + added), source.session_id
    raise PlantFailedError("no session admits a no-impact duplicate plant on this dataset")


def duplicates_still_no_impact(dataset: Dataset, source_sid: str, k: int) -> bool:
    """Check a duplicate plant against the current dataset: every ranked id
    sequence must survive the exact leave-one-out of one clone (also the
    re-check after later plants shifted co-occurrence counts). Only the
    clone's own products can change, so only their lists are compared."""
    one_clone = clone_ids(source_sid, 1)[0]
    if one_clone not in dataset.by_id:
        raise UnknownSessionError(one_clone)
    matrix = build_matrix(dataset)
    lists = session_top_k(matrix, dataset.by_id[one_clone], k)
    return not diff_topk(all_top_k(matrix, k), lists, lists).changed


def synthesize(
    gen: GenConfig, plants: PlantsConfig, k: int, hyper: Hyperparams
) -> tuple[Dataset, EvalLog, GroundTruth, str | None]:
    """Generate per ``gen`` and apply the configured plants, in a fixed order:
    duplicates first (so the toxic verification sees the final dataset), then
    the toxic plant, then a re-check that the duplicates still have no impact.
    Also returns the duplicated session's id (None without that plant)."""
    dataset, eval_log, truth = generate(gen)
    dup_source = None
    if plants.duplicates is not None:
        dataset, truth, dup_source = plant_no_impact_duplicates(dataset, truth, plants.duplicates, k)
    if plants.toxic is not None:
        dataset, truth = plant_toxic_session(
            dataset, eval_log, truth, plants.toxic.rng_seed, hyper, k=k
        )
        if dup_source is not None and not duplicates_still_no_impact(dataset, dup_source, k):
            raise PlantFailedError("toxic plant invalidated the duplicate plant; change plant seeds")
    return dataset, eval_log, truth, dup_source


# ---------------------------------------------------------------------------
# Ground-truth IO
# ---------------------------------------------------------------------------


def write_truth(truth: GroundTruth, path: str | Path) -> None:
    doc = {
        "affinity": [[a, b, value] for (a, b), value in sorted(truth.affinity.items())],
        "planted": [[sid, kind.value] for sid, kind in truth.planted],
    }
    write_jsonl(path, [doc])

