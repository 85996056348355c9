"""Slow reference implementations the package's fast paths are tested against.

``remove_session`` is an exact incremental removal from a co-occurrence
matrix (itself checked against from-scratch rebuilds), ``pair_counts`` counts
every session's pairs by brute force, ``top_k`` ranks one seed's neighbours
by a scan of every row of the table, and ``top_k_similar`` ranks
one seed of an embedding model by a sort of (product, cosine) tuples. The
package ships ``session_top_k``, ``all_top_k`` and ``all_top_k_similar`` (one
``np.lexsort`` per seed); none of these three runs in it.

``fit_numpy`` and ``train_numpy`` are the skip-gram trainer as a numpy loop,
one ``step`` per (center, context) pair, from ``initial_vectors`` built anew
on every call, counting the node steps as the steps run; the package trains
with the compiled kernel instead, from copies of initial rows it keeps per
process (``embed._init_row``), and the kernel counts the node steps.

``trajectories_rebuild`` is the lifecycle study with every frame's window
rebuilt from scratch (``slice_days``, ``build_matrix``, ``all_top_k``) and
every cohort session scored on every frame by ``cv_score_scan``; the package
slides neighbour counts of the cohort's products instead, re-ranks only the
rows a slide moved and scores only the sessions whose lists changed.

``run_curve_serial`` is the learning curve as one loop in the calling thread;
the package trains the grid's models in a thread pool while it reads the eval
log. ``run_loo_serial`` is ``vr`` leave-one-out the same way: the baseline,
then each session's retrain in id order; the package trains them in a thread
pool at every ``jobs``, while it reads the eval log. The oracle retrains each
session itself, with ``train`` and ``all_top_k_similar``, and takes every
baseline seed the retrain lacks as lost; the package's
``VrEngine.retrain_lists`` gives None for the session's own products only.
It prices each retrain from its full lists: ``diff_topk`` against the
baseline, both rates by ``aggregate_pairs`` and ``conversion_rate``. It
shares nothing in pricing with the package's ``_Baseline`` and ``_price``,
which cache the baseline's ids and per-seed counts and move its totals by the
changed seeds only; the record's last steps (``relative_cr_change``,
``session_value``, ``classify``) are the package's.

``read_jsonl_loads`` is ``corpus.read_jsonl`` decoding every line with
``json.loads``; the package tries one ``raw_decode`` of the stripped line first.

``read_truth`` reads back the ground-truth file that ``synthgen.write_truth``
writes; only tests read it.
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import combinations
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.special import expit

from sessionvalue import kpi
from sessionvalue.cor import CoocMatrix, Ranked, _rank, all_top_k, build_matrix
from sessionvalue.corpus import Dataset, EvalLog, Session, leave_one_out, read_jsonl, slice_days
from sessionvalue.curve import CurvePlan, CurveRow
from sessionvalue.embed import (
    LR_FLOOR_FRACTION,
    EmbeddingModel,
    Hyperparams,
    Vocabulary,
    _cosine_sims,
    _huffman,
    _norms,
    _rounded,
    _sentences,
    all_top_k_similar,
    build_vocab,
    train,
)
from sessionvalue.errors import (
    DatasetFormatError,
    EmptyVocabularyError,
    MatrixUnderflowError,
    UnsortedEventsError,
)
from sessionvalue.lifecycle import CvTrajectory, FramePlan, classify_impact, ols
from sessionvalue.sensitivity import (
    HarnessConfig,
    SensitivityRecord,
    VrEngine,
    classify,
    diff_topk,
    relative_cr_change,
    session_value,
)
from sessionvalue.synthgen import GroundTruth, PlantKind


def remove_session(matrix: CoocMatrix, session: Session) -> CoocMatrix:
    """Exact incremental removal; equals a from-scratch rebuild without the session.

    The input matrix is left untouched. Decrements that would go below zero
    raise MatrixUnderflowError (the session was never in the build). Every
    row is re-sorted by (count desc, id asc), so the result ranks as a build.
    """
    rows = {p: dict(row) for p, row in matrix.rows.items()}
    membership = dict(matrix.session_membership)
    for p in session.unique_products:
        current = membership.get(p, 0)
        if current <= 0:
            raise MatrixUnderflowError(f"product {p!r} not present in matrix")
        if current == 1:
            del membership[p]
        else:
            membership[p] = current - 1
    for a, b in combinations(sorted(session.unique_products), 2):
        current = rows.get(a, {}).get(b, 0)
        if current <= 0:
            raise MatrixUnderflowError(f"pair {(a, b)!r} not present in matrix")
        for p, q in ((a, b), (b, a)):
            if current == 1:
                del rows[p][q]
            else:
                rows[p][q] = current - 1
    ranked = {p: dict(sorted(row.items(), key=lambda n: (-n[1], n[0]))) for p, row in rows.items() if row}
    return CoocMatrix(rows=ranked, session_membership=membership)


def pair_counts(dataset: Dataset) -> dict[str, dict[str, int]]:
    """``build_matrix(dataset).rows`` as a set of counts, by brute force: each
    unordered pair of a session's unique set, in both directions."""
    ordered = Counter(
        pair
        for session in dataset.sessions
        for a, b in combinations(sorted(session.unique_products), 2)
        for pair in ((a, b), (b, a))
    )
    rows: dict[str, dict[str, int]] = {}
    for (p, q), c in ordered.items():
        rows.setdefault(p, {})[q] = c
    return rows


def top_k(matrix: CoocMatrix, seed: str, k: int) -> Ranked | None:
    """Highest-count neighbors of ``seed``, ties by ascending id; an unknown
    seed has no list (None). Reads the seed's column of every row and sorts it
    itself, so it trusts neither the seed's own row nor any row's order."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if seed not in matrix.session_membership:
        return None
    neighbors = [(p, row[seed]) for p, row in matrix.rows.items() if seed in row]
    neighbors.sort(key=lambda n: (-n[1], n[0]))
    return tuple(neighbors[:k])


def _rank_similar(
    model: EmbeddingModel, seed_idx: int, k: int, norms: np.ndarray
) -> Ranked:
    sims = _cosine_sims(model, seed_idx, norms)
    products = model.vocabulary.products
    candidates = [(products[i], float(sims[i])) for i in range(len(products)) if i != seed_idx]
    return _rank(candidates, k)


def top_k_similar(model: EmbeddingModel, seed: str, k: int) -> Ranked | None:
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


def fit_numpy(dataset: Dataset, hyper: Hyperparams) -> tuple[Vocabulary, np.ndarray, int]:
    """The vocabulary, unrounded input vectors and node steps, trained by a
    numpy loop; every ``step`` adds its path's length to the node steps.

    The center's path rows are gathered from ``syn1`` once, updated in place
    across the window and written back after it. This is the same arithmetic
    as gathering and scattering them per context: within one window only the
    center's path rows of ``syn1`` change, and a path never repeats a node.
    """
    vocab = build_vocab(dataset, hyper.min_count)
    sentences = _sentences(dataset, vocab)
    flat_points, flat_code, offsets = _huffman(vocab.frequencies)
    paths = [slice(a, b) for a, b in zip(offsets[:-1], offsets[1:])]
    points = [flat_points[path] for path in paths]
    one_minus_code = [1.0 - flat_code[path] for path in paths]

    n = len(vocab)
    syn0 = initial_vectors(n, hyper.dimensions, hyper.rng_seed)
    syn1 = np.zeros((max(n - 1, 0), hyper.dimensions), dtype=np.float64)

    budget = hyper.iterations * sum(len(s) for s in sentences)
    lr0 = hyper.initial_learning_rate
    lr_floor = lr0 * LR_FLOOR_FRACTION
    window = hyper.window

    processed = node_steps = 0
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
                        node_steps += pts.size
                syn1[pts] = l2
    return vocab, syn0, node_steps


def train_numpy(dataset: Dataset, hyper: Hyperparams) -> EmbeddingModel:
    """``embed.train`` with the numpy loop in place of the compiled kernel."""
    return _rounded(*fit_numpy(dataset, hyper), hyper)


def cv_score_scan(session: Session, topk) -> int:
    """``lifecycle.cv_score``: each ordered pair of the session's sorted unique
    products whose second product is in the first one's list."""
    products = sorted(session.unique_products)
    score = 0
    for seed in products:
        ranked = topk.get(seed)
        if ranked is None:
            continue
        recommended = {p for p, _ in ranked}
        score += sum(1 for other in products if other != seed and other in recommended)
    return score


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
            series[session.session_id].append(cv_score_scan(session, topk))
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


def run_curve_serial(dataset: Dataset, eval_log: EvalLog, plan: CurvePlan) -> list[CurveRow]:
    """``curve.run_curve`` as one loop: each grid entry sliced, trained, ranked
    and priced before the next, in this thread."""
    end_day = dataset.max_day if plan.end_day is None else plan.end_day
    eval_index = kpi.index_eval(eval_log)
    rows = []
    prev_products: frozenset[str] = frozenset()
    prev_ids: set[str] = set()
    for n_days in plan.day_grid:
        sliced = slice_days(dataset, end_day=end_day, n_days=n_days)
        model = train(sliced, plan.hyper)
        cr = kpi.rate_from_totals(*kpi.totals(eval_index, all_top_k_similar(model, plan.k)))
        revenue = kpi.revenue(len(model.vocabulary), cr, plan.unit_value)
        added = [s for s in sliced.sessions if s.session_id not in prev_ids]
        rows.append(CurveRow(
            days=n_days,
            n_sessions=len(sliced.sessions),
            n_products=len(model.vocabulary),
            snp=kpi.snp(prev_products, added),
            cr=cr,
            revenue=revenue,
            revenue_per_session=kpi.revenue_per_session(revenue, len(sliced.sessions)),
            node_steps=model.node_steps,
            avg_session_length=kpi.mean(s.length for s in sliced.sessions),
        ))
        prev_products = frozenset(model.vocabulary.products)
        prev_ids = {s.session_id for s in sliced.sessions}
    return rows


def run_loo_serial(
    engine: VrEngine, dataset: Dataset, eval_log: EvalLog, cfg: HarnessConfig,
    session_ids: Sequence[str] | None = None,
) -> list[SensitivityRecord]:
    """``sensitivity.run_loo`` for a ``VrEngine`` as one loop in this thread,
    with none of the engine's methods: the baseline trained and ranked, then
    each session retrained from scratch and priced in id order, from the
    retrain's full lists with every baseline seed it lacks as None."""
    base = all_top_k_similar(train(dataset, engine.hyper), cfg.k)
    cr_base = kpi.conversion_rate(kpi.aggregate_pairs(base, eval_log))
    records = []
    for sid in sorted(dataset.by_id if session_ids is None else set(session_ids)):
        try:
            model = train(leave_one_out(dataset, sid).materialized, engine.hyper)
        except EmptyVocabularyError:
            lists = {}
        else:
            lists = all_top_k_similar(model, cfg.k)
        diff = diff_topk(base, {**dict.fromkeys(base.keys() - lists.keys()), **lists})
        cr_delta = kpi.conversion_rate(kpi.aggregate_pairs(lists, eval_log))
        rel = relative_cr_change(cr_base, cr_delta)
        records.append(SensitivityRecord(
            session_id=sid,
            diff=diff,
            cr_base=cr_base,
            cr_delta=cr_delta,
            rel_cr_change=rel,
            value=session_value(rel, cfg.revenue_base),
            constellation=classify(diff, rel, cfg.neutral_band),
        ))
    return records


def read_jsonl_loads(path: str | Path, what: str, parse) -> list:
    """``corpus.read_jsonl`` with every non-blank line decoded by ``json.loads``."""
    out = []
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                out.append(parse(json.loads(line.decode("utf-8"))))
            except (
                KeyError, TypeError, ValueError, OverflowError, RecursionError, UnsortedEventsError
            ) as exc:
                raise DatasetFormatError(str(path), line_no, f"malformed {what} line ({exc})") from exc
    return out


def _truth(doc) -> GroundTruth:
    affinity = {(a, b): float(value) for a, b, value in doc["affinity"]}
    planted = tuple((sid, PlantKind(kind)) for sid, kind in doc["planted"])
    return GroundTruth(affinity=affinity, planted=planted)


def read_truth(path: str | Path) -> GroundTruth:
    truths = read_jsonl(path, "truth", _truth)
    if len(truths) != 1:
        raise DatasetFormatError(str(path), 1, f"a truth file holds one line, found {len(truths)}")
    return truths[0]
