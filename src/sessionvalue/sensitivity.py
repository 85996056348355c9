"""Leave-one-out sensitivity harness: output diffs, KPI deltas, session values.

``iter_loo`` prices the sessions and ``run_loo`` collects it. It fits the
baseline model once; per left-out session the engine gives the top-k lists
(each a tuple of ``(product, score)`` pairs, see ``cor``) that may differ
from the baseline's, None for a seed that is gone
(``CorEngine.delta_lists``: the session's own products, re-ranked from the
baseline counts; ``VrEngine.retrain_lists``: a full retrain's lists, and
None for each of the session's products it lost). The harness then detects
top-k output changes against the baseline, moves the conversion rate by
those lists' integer view/order counts, translates the change into a
monetary value and classifies the session into one of four outcome
constellations:

* no output change (the session is informationally redundant),
* output change without KPI movement (choices between equally good options),
* KPI rise on removal (a toxic session, negative value),
* KPI fall on removal (a valuable session, positive value).
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from concurrent.futures import ThreadPoolExecutor, as_completed
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from . import cor, embed
from .atomic import write_csv
from .cor import Ranked, ranked_ids
from .corpus import Dataset, EvalLog, leave_one_out
from .errors import (
    EmptyVocabularyError,
    ExhaustiveVrRefusedError,
    UndefinedBaselineError,
    UnknownSessionError,
)
from .kpi import EvalIndex, contribution, index_eval, rate_from_totals

log = logging.getLogger(__name__)

VR_EXHAUSTIVE_LIMIT = 200  # sessions priced by vr without a sample; see sessions_to_price


class Constellation(Enum):
    NO_OUTPUT_CHANGE = "no_output_change"
    CHANGE_NO_KPI = "change_no_kpi"
    TOXIC = "toxic"
    VALUABLE = "valuable"


@dataclass(frozen=True)
class OutputDiff:
    """The seeds, in seed order, whose ranked id sequences differ between two
    top-k maps (see ``diff_topk``); scores are ignored."""

    changed_seeds: tuple[str, ...]

    @property
    def changed(self) -> bool:
        return bool(self.changed_seeds)

    @property
    def n_changed_seeds(self) -> int:
        return len(self.changed_seeds)


@dataclass(frozen=True)
class SensitivityRecord:
    session_id: str
    diff: OutputDiff
    cr_base: float
    cr_delta: float
    rel_cr_change: float
    value: float
    constellation: Constellation


@dataclass(frozen=True)
class SampleSpec:
    """The ``harness.sample`` setting, written in YAML as the list itself: the
    session ids that a ``vr`` run prices, each listed once."""

    ids: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.ids:
            raise ValueError("expected a non-empty list of session ids")
        repeated = [sid for sid, n in Counter(self.ids).items() if n > 1]
        if repeated:
            raise ValueError(f"session id {repeated[0]!r} is listed more than once")


@dataclass(frozen=True)
class HarnessConfig:
    """The ``harness`` config section: pricing and histogram settings, and
    the ids a ``vr`` run prices (``sample``; see ``sessions_to_price``)."""

    k: int = 5
    neutral_band: float = 0.0005
    revenue_base: float = 1.0
    bin_width: float = 0.001
    sample: SampleSpec | None = None

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.neutral_band < 0:
            raise ValueError(f"neutral_band must be >= 0, got {self.neutral_band}")
        if self.revenue_base <= 0:
            raise ValueError(f"revenue_base must be > 0, got {self.revenue_base}")
        if self.bin_width <= 0:
            raise ValueError(f"bin_width must be > 0, got {self.bin_width}")


@dataclass(frozen=True)
class StabilityReport:
    stable: bool
    detail: str


# ---------------------------------------------------------------------------
# Engines: the model builders the harness drives. Per left-out session each
# engine returns ``{seed: list, or None where the seed is gone}`` for every
# seed whose list may differ; every other seed keeps its base list.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorEngine:
    """Co-occurrence recommender. Leaving a session out lowers only the counts
    of pairs inside it, so only the session's own products are re-ranked."""

    def fit(self, dataset: Dataset):
        return cor.build_matrix(dataset)

    def top_k_map(self, model, k: int) -> dict[str, Ranked]:
        return cor.all_top_k(model, k)

    def delta_lists(self, base_model, dataset: Dataset, session_id: str, k: int):
        return cor.session_top_k(base_model, dataset.by_id[session_id], k)

    def serialize(self, model) -> bytes:
        return cor.dump_matrix(model).encode("utf-8")


@dataclass(frozen=True)
class VrEngine:
    """Embedding recommender; the delta model is a full single-threaded retrain
    with the baseline's rng_seed, so vector differences stem from the data
    alone. Every list can move, so every seed is returned. Only the session's
    own products lose tokens, so only they can fall below ``min_count``: a
    retrain never gains a seed, and the seeds it loses are among them.

    ``iter_loo`` runs every retrain and the baseline's training in a thread
    pool, and no other engine's deltas: the retrain is one kernel call, which
    runs without the GIL, and the state the trainings share is only the
    loaded kernel and the memo of read-only initial rows (see ``embed``)."""

    hyper: embed.Hyperparams

    def fit(self, dataset: Dataset):
        return embed.train(dataset, self.hyper)

    def top_k_map(self, model, k: int) -> dict[str, Ranked]:
        return embed.all_top_k_similar(model, k)

    def retrain_lists(self, dataset: Dataset, session_id: str, k: int):
        """Every top-k list of the retrain without the session, and None for
        each of the session's products it has no list for: all of them when
        no product is left at ``min_count``."""
        own = dict.fromkeys(dataset.by_id[session_id].unique_products)
        try:
            model = embed.train(leave_one_out(dataset, session_id).materialized, self.hyper)
        except EmptyVocabularyError:
            return own
        return own | self.top_k_map(model, k)

    def serialize(self, model) -> bytes:
        return embed.dump_model(model).encode("utf-8")


# ---------------------------------------------------------------------------
# Core operations
# ---------------------------------------------------------------------------


def verify_stability(dataset: Dataset, engine, k: int = 5) -> StabilityReport:
    """Train twice on identical input; stable iff dumps are byte-identical and
    all top-k lists, ids and scores, agree pointwise. The report names the
    first divergence."""
    first = engine.fit(dataset)
    second = engine.fit(dataset)
    bytes_a = engine.serialize(first)
    bytes_b = engine.serialize(second)
    if bytes_a != bytes_b:
        for line_no, (la, lb) in enumerate(
            zip(bytes_a.split(b"\n"), bytes_b.split(b"\n")), start=1
        ):
            if la != lb:
                return StabilityReport(
                    stable=False,
                    detail=(
                        f"serialized models diverge at line {line_no}: "
                        f"{la[:80]!r} != {lb[:80]!r}"
                    ),
                )
        return StabilityReport(stable=False, detail="serialized models differ in length")
    lists_a, lists_b = engine.top_k_map(first, k), engine.top_k_map(second, k)
    for seed in sorted(lists_a.keys() | lists_b.keys()):
        if lists_a.get(seed) != lists_b.get(seed):
            return StabilityReport(stable=False, detail=f"top-k lists diverge at seed {seed!r}")
    return StabilityReport(stable=True, detail="two runs byte-identical")


def diff_topk(
    base: Mapping[str, Ranked | None],
    delta: Mapping[str, Ranked | None],
    seeds: Iterable[str] | None = None,
) -> OutputDiff:
    """The seeds whose ranked id sequences differ, out of ``seeds`` (every seed
    of either map when None). A seed absent from a map, or None there, has no
    list, so a list on one side only is a change."""
    if seeds is None:
        seeds = base.keys() | delta.keys()
    return OutputDiff(tuple(
        seed for seed in sorted(seeds)
        if ranked_ids(base.get(seed)) != ranked_ids(delta.get(seed))
    ))


def relative_cr_change(cr_base: float, cr_delta: float) -> float:
    if cr_base == 0:
        raise UndefinedBaselineError()
    return (cr_delta - cr_base) / cr_base


def session_value(rel_cr_change_: float, revenue_base: float) -> float:
    """Monetary value attributed to the session: -1 x relative CR change x revenue."""
    return -1.0 * rel_cr_change_ * revenue_base + 0.0


def classify(diff: OutputDiff, rel_cr_change_: float, neutral_band: float) -> Constellation:
    if not diff.changed:
        return Constellation.NO_OUTPUT_CHANGE
    if abs(rel_cr_change_) <= neutral_band:
        return Constellation.CHANGE_NO_KPI
    if rel_cr_change_ > neutral_band:
        return Constellation.TOXIC
    return Constellation.VALUABLE


@dataclass(frozen=True)
class _Baseline:
    """Everything pricing one session needs; built once per run, on the
    calling thread, and only read after that. Per seed, ``ids`` holds its
    list's ranked ids and ``counts`` its ``contribution``, computed once;
    ``totals`` is their sum."""

    cfg: HarnessConfig
    eval_index: EvalIndex
    ids: Mapping[str, tuple[str, ...]]
    counts: Mapping[str, tuple[int, int]]
    totals: tuple[int, int]
    cr: float

    @classmethod
    def build(cls, cfg: HarnessConfig, topk, eval_index: EvalIndex):
        ids = {seed: ranked_ids(ranked) for seed, ranked in topk.items()}
        counts = {seed: contribution(eval_index, seed, seed_ids) for seed, seed_ids in ids.items()}
        summed = (sum(o for o, _ in counts.values()), sum(v for _, v in counts.values()))
        return cls(cfg, eval_index, ids, counts, summed, rate_from_totals(*summed))


@contextmanager
def _session_note(session_id: str):
    """Let an exception propagate as it was raised, with a note naming the
    session whose delta raised it."""
    try:
        yield
    except Exception as exc:
        exc.add_note(f"while pricing the leave-one-out delta of session {session_id!r}")
        raise


def _price(base: _Baseline, session_id: str, lists) -> SensitivityRecord:
    """Diff the lists the engine says may change against the baseline's cached
    ids by ``diff_topk``'s rule, and move the baseline totals by the changed
    seeds' old and new ``contribution`` only, so ``cr_delta`` equals
    ``conversion_rate(aggregate_pairs(delta_topk, eval_log))`` bit for bit."""
    base_ids, base_counts, index = base.ids, base.counts, base.eval_index
    n_ordered, n_views = base.totals
    changed = []
    for seed in sorted(lists):
        if (ids := ranked_ids(lists[seed])) != base_ids.get(seed):
            changed.append(seed)
            ordered, views = (0, 0) if ids is None else contribution(index, seed, ids)
            old_ordered, old_views = base_counts.get(seed, (0, 0))
            n_ordered, n_views = n_ordered + ordered - old_ordered, n_views + views - old_views
    diff = OutputDiff(tuple(changed))
    cr_delta = rate_from_totals(n_ordered, n_views)
    rel = relative_cr_change(base.cr, cr_delta)
    return SensitivityRecord(
        session_id=session_id,
        diff=diff,
        cr_base=base.cr,
        cr_delta=cr_delta,
        rel_cr_change=rel,
        value=session_value(rel, base.cfg.revenue_base),
        constellation=classify(diff, rel, base.cfg.neutral_band),
    )


def _fit_top_k(engine, dataset: Dataset, k: int):
    return engine.top_k_map(engine.fit(dataset), k)


def sessions_to_price(engine, dataset: Dataset, cfg: HarnessConfig) -> tuple[str, ...] | None:
    """The ``session_ids`` that ``run_loo`` prices with ``engine``; None
    prices every session. ``CorEngine`` prices every session. ``VrEngine``
    prices the ids listed in ``cfg.sample`` when one is set; without one,
    every session up to ``VR_EXHAUSTIVE_LIMIT`` sessions, and above it the
    run is refused with ``ExhaustiveVrRefusedError``, because every delta is
    a full retrain."""
    if not isinstance(engine, VrEngine):
        return None
    if cfg.sample is not None:
        return cfg.sample.ids
    if len(dataset.sessions) > VR_EXHAUSTIVE_LIMIT:
        raise ExhaustiveVrRefusedError(len(dataset.sessions), VR_EXHAUSTIVE_LIMIT)
    return None


def iter_loo(
    engine, dataset: Dataset, load_eval: Callable[[], EvalLog], cfg: HarnessConfig,
    jobs: int = 1, session_ids: Sequence[str] | None = None,
) -> Iterator[SensitivityRecord]:
    """Leave-one-out pricing of ``session_ids`` (every session when None),
    yielding each record once it is priced.

    ``load_eval`` is a zero-argument loader of the eval log. The baseline
    model, its lists and the eval index are built once. ``VrEngine`` submits
    the baseline's training, then every session's ``retrain_lists``, to a
    pool of ``min(jobs, len(session_ids) + 1)`` threads, calls the loader and
    indexes the eval log while they train, and yields records in the order
    the retrains finish; ``jobs`` only sizes the pool, and the records do not
    depend on it. Every other engine calls the loader, fits the baseline and
    prices the sessions in order through ``engine.delta_lists``, in the
    calling thread: a ``cor`` delta is pure Python, which threads cannot
    overlap under the GIL. Both price each delta in the calling thread.

    An exception raised while pricing a session reaches the caller unchanged,
    with a note naming the session; one from the loader or the baseline
    reaches it unchanged. For ``VrEngine`` any of them cancels the retrains
    not yet started and reaches the caller once the trainings already
    started have finished: an error in the eval log, even at ``jobs=1``,
    after the baseline's training. ``jobs`` below 1, an empty ``session_ids``
    and a repeated id are refused with ``ValueError`` before anything loads,
    whatever the engine.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if session_ids is None:
        session_ids = sorted(dataset.by_id)
    elif not session_ids:
        raise ValueError("session_ids must be non-empty; None prices every session")
    else:
        session_ids = sorted(session_ids)
        for prev, sid in zip([None, *session_ids], session_ids):
            if sid == prev:
                raise ValueError(f"session id {sid!r} is listed more than once in session_ids")
            if sid not in dataset.by_id:
                raise UnknownSessionError(sid)
    if not isinstance(engine, VrEngine):
        eval_index = index_eval(load_eval())
        model = engine.fit(dataset)
        base = _Baseline.build(cfg, engine.top_k_map(model, cfg.k), eval_index)
        for sid in session_ids:
            with _session_note(sid):
                record = _price(base, sid, engine.delta_lists(model, dataset, sid, cfg.k))
            yield record
        return
    embed.load_kernel()
    pool = ThreadPoolExecutor(max_workers=min(jobs, len(session_ids) + 1))
    try:
        fitted = pool.submit(_fit_top_k, engine, dataset, cfg.k)
        retrains = {pool.submit(engine.retrain_lists, dataset, sid, cfg.k): sid for sid in session_ids}
        eval_index = index_eval(load_eval())
        base = _Baseline.build(cfg, fitted.result(), eval_index)
        for future in as_completed(retrains):
            sid = retrains.pop(future)
            with _session_note(sid):
                record = _price(base, sid, future.result())
            yield record
    finally:
        pool.shutdown(cancel_futures=True)


def run_loo(
    engine, dataset: Dataset, load_eval: Callable[[], EvalLog], cfg: HarnessConfig,
    jobs: int = 1, session_ids: Sequence[str] | None = None,
) -> list[SensitivityRecord]:
    """The records of ``iter_loo``, ordered by session id."""
    return sorted(
        iter_loo(engine, dataset, load_eval, cfg, jobs, session_ids), key=lambda r: r.session_id
    )


@dataclass(frozen=True)
class Histogram:
    """Delta-CR distribution with the near-zero records pooled in a neutral bin."""

    neutral: int
    bins: tuple[tuple[float, float, int], ...]


def histogram(records: Sequence[SensitivityRecord], cfg: HarnessConfig) -> Histogram:
    """Bin relative CR changes into half-open intervals of ``cfg.bin_width``
    aligned at zero; records within ``cfg.neutral_band`` pool into one
    distinguished bin."""
    neutral = 0
    counts: dict[int, int] = {}
    for record in records:
        rel = record.rel_cr_change
        if abs(rel) <= cfg.neutral_band:
            neutral += 1
            continue
        idx = math.floor(rel / cfg.bin_width)
        counts[idx] = counts.get(idx, 0) + 1
    bins = tuple(
        (idx * cfg.bin_width, (idx + 1) * cfg.bin_width, counts[idx]) for idx in sorted(counts)
    )
    return Histogram(neutral=neutral, bins=bins)


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

RECORD_COLUMNS = (
    "session_id",
    "changed",
    "n_changed_seeds",
    "cr_base",
    "cr_delta",
    "rel_cr_change",
    "value",
    "constellation",
)


def write_records_csv(records: Sequence[SensitivityRecord], path: str | Path) -> None:
    write_csv(path, RECORD_COLUMNS, (
        (
            r.session_id,
            "true" if r.diff.changed else "false",
            r.diff.n_changed_seeds,
            r.cr_base,
            r.cr_delta,
            r.rel_cr_change,
            r.value,
            r.constellation.value,
        )
        for r in records
    ))


def write_histogram_csv(hist: Histogram, path: str | Path) -> None:
    write_csv(
        path, ("bin_lo", "bin_hi", "count"), [("neutral", "neutral", hist.neutral), *hist.bins]
    )


def summarize(records: Sequence[SensitivityRecord]) -> dict:
    """Constellation counts plus min/mean/max of the relative CR change."""
    by_constellation = {c.value: 0 for c in Constellation}
    for r in records:
        by_constellation[r.constellation.value] += 1
    rels = [r.rel_cr_change for r in records]
    return {
        "n_records": len(records),
        "constellations": by_constellation,
        "rel_cr_change": {
            "min": min(rels) if rels else 0.0,
            "mean": sum(rels) / len(rels) if rels else 0.0,
            "max": max(rels) if rels else 0.0,
        },
        "value": {
            "min": min((r.value for r in records), default=0.0),
            "max": max((r.value for r in records), default=0.0),
        },
    }
