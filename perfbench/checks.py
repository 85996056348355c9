"""Output checks behind ``failed_ratio``.

An operation is one priced session (``records_*.csv`` row), one lifecycle
trajectory or one curve row. Every operation whose output row breaks an
invariant fails; a broken aggregate file (histogram, summary, class stats,
scaled curves) fails every operation of its command. At the pinned seed the
byte-stable outputs must also match the reference digests in
``reference.json``, taken from the outputs of package version 0.1.0. The
curve's measured timing column is left out of those digests: only the named
stable columns are kept.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import sys
import traceback
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

from workloads import OUTPUTS

REFERENCE = Path(__file__).resolve().parent / "reference.json"
PINNED_SEED = 0
ORACLE_SAMPLE = 16

RECORD_COLUMNS = [
    "session_id", "changed", "n_changed_seeds", "cr_base", "cr_delta",
    "rel_cr_change", "value", "constellation",
]
IMPACTS = ["no_impact", "stable", "increasing", "decreasing"]
STABLE_CURVE_COLUMNS = [
    "days", "n_sessions", "n_products", "snp", "cr", "revenue",
    "revenue_per_session", "avg_session_length",
]
SCALED_KPIS = [c for c in STABLE_CURVE_COLUMNS if c != "days"]


def _rows(data: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(data.decode("utf-8"))))


def _same(a: float, b: float) -> bool:
    """Bitwise equality of two floats."""
    return a.hex() == b.hex()


def _digest(data: bytes, length: int = 64) -> str:
    return hashlib.sha256(data).hexdigest()[:length]


def _lines(rows: list[list[str]]) -> bytes:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue().encode("utf-8")


def stable_form(name: str, data: bytes) -> tuple[bytes, dict[str, bytes]]:
    """The byte-stable part of one output file, and its rows keyed by operation."""
    if name.startswith("records_") or name == "trajectories.csv":
        prefix = "" if name.startswith("records_") else "trajectory:"
        rows = _rows(data)
        return data, {prefix + r[0]: _lines([r]) for r in rows[1:] if r}
    if name == "curve_table.csv":
        rows = _rows(data)
        idx = [rows[0].index(c) for c in STABLE_CURVE_COLUMNS]
        kept = [[r[i] for i in idx] for r in rows]
        return _lines(kept), {f"curve:{r[0]}": _lines([r]) for r in kept[1:]}
    if name == "curve_scaled.csv":
        rows = _rows(data)
        kept = [rows[0]] + [r for r in rows[1:] if r[1] in SCALED_KPIS]
        return _lines(kept), {}
    return data, {}


def reference_digests(workload: str, files: dict[str, bytes]) -> dict:
    """Digests of one pass's outputs, in the layout of ``reference.json``."""
    out: dict = {"files": {}, "rows": {}}
    for name in sorted(files):
        whole, rows = stable_form(name, files[name])
        out["files"][name] = _digest(whole)
        out["rows"].update({op: _digest(row, 16) for op, row in sorted(rows.items())})
    return out


class Checker:
    """Checks the outputs of one workload's passes against its inputs."""

    def __init__(self, workload: str, config_path: Path, out_dir: Path, seed: int, pinned: bool):
        from sessionvalue.config import load_run_config
        from sessionvalue.corpus import load_dataset, read_eval_log

        self.workload = workload
        self.rc = load_run_config(config_path)
        self.dataset = load_dataset(
            self.rc.input_path("sessions", out_dir), self.rc.input_path("catalog", out_dir)
        )
        self.eval_log = read_eval_log(self.rc.input_path("eval", out_dir))
        self.seed = seed
        self.reference = None
        if pinned:
            self.reference = json.loads(REFERENCE.read_text(encoding="utf-8"))[workload]
        self.ops_by_command: dict[str, list[str]] = {}
        if workload == "cor-loo":
            self.ops_by_command["value"] = sorted(s.session_id for s in self.dataset.sessions)
            self._cor_oracle()
        elif workload == "vr-loo":
            self.ops_by_command["value"] = sorted(set(self.rc.harness.sample.ids))
            self.oracle = {}
        else:
            self._lifecycle_oracle()
            self._curve_expectations()
            self.ops_by_command["lifecycle"] = [f"trajectory:{s}" for s in self.cohort]
            self.ops_by_command["curve"] = [f"curve:{n}" for n in self.rc.curve.day_grid]

    @property
    def operations(self) -> int:
        return sum(len(ops) for ops in self.ops_by_command.values())

    def check(self, files: dict[str, bytes]) -> set[str]:
        """Ids of the operations whose outputs fail a check."""
        failed: set[str] = set()
        for command, ops in self.ops_by_command.items():
            names = OUTPUTS[self.workload][command]
            if any(n not in files for n in names):
                failed.update(ops)
                continue
            check = {
                "value": self._check_loo,
                "lifecycle": self._check_lifecycle,
                "curve": self._check_curve,
            }[command]
            try:
                failed |= check(files, *names) | self._check_reference(files, names, ops)
            except Exception:  # malformed output: every operation of the command fails
                traceback.print_exc(file=sys.stderr)
                failed.update(ops)
        return failed

    def _check_reference(self, files, names, ops) -> set[str]:
        if self.reference is None:
            return set()
        got = reference_digests(self.workload, {n: files[n] for n in names})
        if any(got["files"][n] != self.reference["files"][n] for n in names):
            bad_rows = {op for op in ops if got["rows"].get(op) != self.reference["rows"].get(op)}
            # A file that differs while every row matches is wrong as a whole.
            return bad_rows or set(ops)
        return set()

    # -- leave-one-out records ----------------------------------------------

    def _cor_oracle(self) -> None:
        """From-scratch rebuilds for a seeded sample of sessions."""
        import numpy as np
        from sessionvalue import cor, corpus, kpi, sensitivity

        k = self.rc.harness.k
        base = cor.all_top_k(cor.build_matrix(self.dataset), k)
        cr_base = kpi.conversion_rate(kpi.aggregate_pairs(base, self.eval_log))
        ids = self.ops_by_command["value"]
        rng = np.random.default_rng(self.seed)
        picked = rng.choice(len(ids), size=min(ORACLE_SAMPLE, len(ids)), replace=False)
        self.oracle = {}
        for i in sorted(int(j) for j in picked):
            delta = corpus.leave_one_out(self.dataset, ids[i]).materialized
            topk = cor.all_top_k(cor.build_matrix(delta), k)
            diff = sensitivity.diff_topk(base, topk)
            cr = kpi.conversion_rate(kpi.aggregate_pairs(topk, self.eval_log))
            self.oracle[ids[i]] = (diff.changed, diff.n_changed_seeds, cr_base, cr)

    def _record_ok(self, sid: str, row: list[str], cr_base_text: str) -> bool:
        from sessionvalue import sensitivity

        h = self.rc.harness
        if len(row) != len(RECORD_COLUMNS) or row[0] != sid or row[3] != cr_base_text:
            return False
        changed = {"true": True, "false": False}.get(row[1])
        n_changed = int(row[2])
        cr_base, cr_delta, rel, value = (float(x) for x in row[3:7])
        if changed is None or changed != (n_changed > 0):
            return False
        if row[7] == "no_output_change" and not _same(cr_delta, cr_base):
            return False
        if not _same(rel, sensitivity.relative_cr_change(cr_base, cr_delta)):
            return False
        if not _same(value, sensitivity.session_value(rel, h.revenue_base)):
            return False
        if row[7] != sensitivity.classify(SimpleNamespace(changed=changed), rel, h.neutral_band).value:
            return False
        if sid in self.oracle:
            o_changed, o_n, o_base, o_cr = self.oracle[sid]
            if (changed, n_changed) != (o_changed, o_n):
                return False
            if not (_same(cr_base, o_base) and _same(cr_delta, o_cr)):
                return False
        return True

    def _check_loo(self, files, records_name, histogram_name, summary_name) -> set[str]:
        from sessionvalue.errors import SessionValueError

        ops = self.ops_by_command["value"]
        rows = _rows(files[records_name])
        if not rows or rows[0] != RECORD_COLUMNS or len(rows) != len(ops) + 1:
            return set(ops)
        body = rows[1:]
        cr_base_text = body[0][3] if body and len(body[0]) > 3 else ""
        failed = set()
        for sid, row in zip(ops, body):
            try:
                ok = self._record_ok(sid, row, cr_base_text)
            except (ValueError, SessionValueError):
                ok = False
            if not ok:
                failed.add(sid)
        if failed:
            return failed
        rels = [float(r[5]) for r in body]
        if _rows(files[histogram_name]) != self._histogram(rels):
            return set(ops)
        if json.loads(files[summary_name]) != self._summary(body, rels):
            return set(ops)
        return set()

    def _histogram(self, rels: list[float]) -> list[list[str]]:
        band, width = self.rc.harness.neutral_band, self.rc.harness.bin_width
        neutral = sum(1 for r in rels if abs(r) <= band)
        bins = Counter(math.floor(r / width) for r in rels if abs(r) > band)
        return [["bin_lo", "bin_hi", "count"], ["neutral", "neutral", str(neutral)]] + [
            [repr(i * width), repr((i + 1) * width), str(bins[i])] for i in sorted(bins)
        ]

    def _summary(self, body: list[list[str]], rels: list[float]) -> dict:
        counts = Counter(r[7] for r in body)
        values = [float(r[6]) for r in body]
        return {
            "engine": "cor" if self.workload == "cor-loo" else "vr",
            "n_records": len(body),
            "constellations": {
                c: counts.get(c, 0)
                for c in ("no_output_change", "change_no_kpi", "toxic", "valuable")
            },
            "rel_cr_change": {
                "min": min(rels), "mean": sum(rels) / len(rels), "max": max(rels),
            },
            "value": {"min": min(values), "max": max(values)},
        }

    # -- lifecycle ------------------------------------------------------------

    def _lifecycle_oracle(self) -> None:
        """Expected CV scores of every cohort session at the first, middle and
        last frame, each from its own from-scratch window model."""
        from sessionvalue import cor, corpus, lifecycle

        plan = self.rc.lifecycle.plan
        ds = self.dataset
        self.cohort_day = plan.cohort_day if plan.cohort_day is not None else ds.min_day
        self.cohort = sorted(s.session_id for s in ds.sessions if s.day == self.cohort_day)
        self.n_frames = min(plan.n_frames, ds.max_day - self.cohort_day + 1)
        self.cv_oracle: dict[int, dict[str, int]] = {}
        for frame in sorted({1, (self.n_frames + 1) // 2, self.n_frames}):
            window = corpus.slice_days(ds, end_day=self.cohort_day + frame - 1, n_days=plan.window_days)
            topk = cor.all_top_k(cor.build_matrix(window), self.rc.lifecycle.k)
            self.cv_oracle[frame] = {
                sid: lifecycle.cv_score(ds.by_id[sid], topk) for sid in self.cohort
            }

    def _check_lifecycle(self, files, trajectories_name, stats_name) -> set[str]:
        from sessionvalue import corpus, lifecycle

        ops = self.ops_by_command["lifecycle"]
        rows = _rows(files[trajectories_name])
        header = ["session_id"] + [f"f{i}" for i in range(1, self.n_frames + 1)]
        if not rows or rows[0] != header + ["slope", "intercept", "impact"]:
            return set(ops)
        if len(rows) != len(ops) + 1:
            return set(ops)
        failed = set()
        impacts = []
        k = self.rc.lifecycle.k
        for sid, row in zip(self.cohort, rows[1:]):
            op = f"trajectory:{sid}"
            impacts.append(row[-1] if row else "")
            if len(row) != len(header) + 3 or row[0] != sid:
                failed.add(op)
                continue
            scores = [int(x) for x in row[1:-3]]
            u = len(self.dataset.by_id[sid].unique_products)
            slope, intercept = float(row[-3]), float(row[-2])
            want_slope, want_intercept = lifecycle.ols(scores)
            if (
                any(not 0 <= s <= u * min(u - 1, k) for s in scores)
                or any(scores[f - 1] != cv[sid] for f, cv in self.cv_oracle.items())
                or not _same(slope, want_slope)
                or not _same(intercept, want_intercept)
                or row[-1] != lifecycle.classify_impact(slope, intercept).value
            ):
                failed.add(op)
        stats = _rows(files[stats_name])
        want = [["impact", "n_sessions", "percentage", "mean_hr", "mean_unique_len"]]
        total = len(self.cohort)
        level = self.rc.lifecycle.hr_level
        for impact in IMPACTS:
            members = [self.dataset.by_id[s] for s, i in zip(self.cohort, impacts) if i == impact]
            n = len(members)
            hr = [corpus.heterogeneity_ratio(s, self.dataset.catalog, level) for s in members]
            lengths = [len(s.unique_products) for s in members]
            want.append([
                impact,
                str(n),
                repr(100.0 * n / total if total else 0.0),
                repr(sum(hr) / n) if n else "",
                repr(sum(lengths) / n) if n else "",
            ])
        if stats != want:
            return set(ops)
        return failed

    # -- learning curve ---------------------------------------------------------

    def _curve_expectations(self) -> None:
        """Per grid entry: slice size, vocabulary size, SNP and mean length."""
        from sessionvalue import corpus, embed, kpi

        ds = self.dataset
        end_day = self.rc.curve.end_day if self.rc.curve.end_day is not None else ds.max_day
        self.curve_expected = []
        prev_products: frozenset[str] = frozenset()
        prev_ids: set[str] = set()
        for n_days in self.rc.curve.day_grid:
            sliced = corpus.slice_days(ds, end_day=end_day, n_days=n_days)
            vocab = embed.build_vocab(sliced, self.rc.hyper.min_count)
            added = [s for s in sliced.sessions if s.session_id not in prev_ids]
            self.curve_expected.append({
                "days": n_days,
                "n_sessions": len(sliced.sessions),
                "n_products": len(vocab),
                "snp": kpi.snp(prev_products, added),
                "avg_session_length": kpi.mean(s.length for s in sliced.sessions),
            })
            prev_products = frozenset(vocab.products)
            prev_ids = {s.session_id for s in sliced.sessions}

    def _check_curve(self, files, table_name, scaled_name) -> set[str]:
        from sessionvalue import kpi

        ops = self.ops_by_command["curve"]
        rows = _rows(files[table_name])
        if not rows or len(rows) != len(ops) + 1:
            return set(ops)
        header = rows[0]
        if any(c not in header for c in STABLE_CURVE_COLUMNS):
            return set(ops)
        measured = [i for i, c in enumerate(header) if c not in STABLE_CURVE_COLUMNS]
        col = {c: header.index(c) for c in STABLE_CURVE_COLUMNS}
        unit_value = self.rc.curve.unit_value
        failed = set()
        table = []
        for op, want, row in zip(ops, self.curve_expected, rows[1:]):
            got = {c: float(row[i]) for c, i in col.items()}
            table.append(got)
            cr = got["cr"]
            revenue = kpi.revenue(want["n_products"], cr, unit_value)
            if (
                len(row) != len(header)
                or any(got[c] != want[c] for c in ("days", "n_sessions", "n_products"))
                or not _same(got["snp"], want["snp"])
                or not _same(got["avg_session_length"], want["avg_session_length"])
                or not 0.0 <= cr <= 1.0
                or not _same(got["revenue"], revenue)
                or not _same(got["revenue_per_session"],
                             kpi.revenue_per_session(revenue, want["n_sessions"]))
                or any(not float(row[i]) > 0.0 for i in measured)
            ):
                failed.add(op)
        scaled = _rows(files[scaled_name])
        if not scaled or scaled[0] != ["n_days", "kpi_name", "raw", "scaled"]:
            return set(ops)
        by_kpi: dict[str, list[list[str]]] = {}
        for r in scaled[1:]:
            by_kpi.setdefault(r[1], []).append(r)
        for name in SCALED_KPIS:
            got_rows = by_kpi.get(name, [])
            raw = [t[name] for t in table]
            want_scaled = kpi.feature_scale(raw)
            if [(int(r[0]), float(r[2])) for r in got_rows] != [
                (int(t["days"]), v) for t, v in zip(table, raw)
            ] or any(not _same(float(r[3]), s) for r, s in zip(got_rows, want_scaled)):
                return set(ops)
        return failed
