"""The repository benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload cor-loo --seed 0 --seconds 30 --trace 0

A run generates the workload's inputs from ``--seed`` in a child process,
times the set-up (config and input loading) several times, then runs the
workload's ``sessionvalue`` CLI commands in-process on those files: as many
untimed-apart passes as fit in ``--seconds`` with ``--trace 0``, or one
untraced and one traced pass with ``--trace 1``. It checks every pass's
outputs (see ``checks.py``), prints a table of metrics, and prints as its last
line a JSON object with the end-to-end (``--trace 0``) or per-layer
(``--trace 1``) metrics. Workloads and metrics are described in ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import logging
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPS = 7
SETUP_MIN_S = 1.0
CLI_FIXED_S = 0.005

sys.path.insert(0, str(HERE))
from speed import SpeedProbe  # noqa: E402
from workloads import OUTPUTS, SHAPES, VR_JOBS, commands  # noqa: E402

END_TO_END = {"command_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
COUNTED = (
    "cor.build_matrix", "cor.all_top_k", "cor.remove_session", "kpi.aggregate_pairs",
    "sensitivity.diff_topk", "embed.all_top_k_similar", "corpus.leave_one_out",
    "corpus.slice_days", "lifecycle.cv_score",
)
SELF_LAYERS = ("cli", "config", "corpus", "cor", "embed", "kpi", "sensitivity", "lifecycle", "curve")
PER_LAYER = {
    "config.load_s": "s",
    "corpus.load_s": "s",
    **{f"{name}.{kind}": unit for name in COUNTED for kind, unit in (("calls", "count"), ("s", "s"))},
    "embed.train.calls": "count",
    "embed.train.s_p50": "s",
    "embed.train.s_max": "s",
    "embed.tokens_per_s": "1/s",
    "embed.pair_updates": "count",
    "sensitivity.reranked_seeds": "count",
    "sensitivity.changed_seeds": "count",
    "sensitivity.rerank_useful_ratio": "ratio",
    "sensitivity.fanout_efficiency": "ratio",
    "sensitivity.task_payload_bytes": "B",
    **{f"{layer}.self_s": "s" for layer in SELF_LAYERS},
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def _invoke(argv: list[str]) -> None:
    """Run one ``sessionvalue`` CLI command in this process."""
    from sessionvalue.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        main.main(args=argv, prog_name="sessionvalue", standalone_mode=False)


@dataclass
class Pass:
    seconds: dict[str, float]  # wall time per command
    scaled: dict[str, float]  # the same at reference speed; empty for traced passes
    files: dict[str, bytes]
    ok: bool

    @property
    def wall(self) -> float:
        return sum(self.seconds.values())


@dataclass
class Report:
    workload: str
    seed: int
    trace: bool
    passes: int
    attempted: int
    failed: int
    correct: bool
    metrics: dict[str, float]
    table: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)


class Run:
    def __init__(self, workload: str, seed: int, tiny: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.tiny = tiny
        self.out = WORK / f"{workload}-{seed}-{os.getpid()}"
        self.config = self.out / "config.yaml"

    def generate(self) -> None:
        argv = [sys.executable, str(HERE / "workloads.py"), "--workload", self.workload,
                "--seed", str(self.seed), "--out", str(self.out)]
        subprocess.run(argv + (["--tiny"] if self.tiny else []), check=True, stdout=sys.stderr)

    def setup(self) -> dict[str, float]:
        """Median config, input and total loading times over at least
        SETUP_REPS loads and SETUP_MIN_S seconds; ``total`` at reference speed."""
        from sessionvalue.config import load_run_config
        from sessionvalue.corpus import load_dataset, read_eval_log

        marks = []
        with SpeedProbe() as probe:
            window = time.perf_counter()
            while len(marks) < SETUP_REPS or time.perf_counter() - window < SETUP_MIN_S:
                t0 = time.perf_counter()
                rc = load_run_config(self.config)
                t1 = time.perf_counter()
                load_dataset(rc.input_path("sessions", self.out), rc.input_path("catalog", self.out))
                read_eval_log(rc.input_path("eval", self.out))
                marks.append((t0, t1, time.perf_counter()))

        def net(a: float, b: float) -> float:
            return b - a - probe.kernel_seconds(a, b)

        return {
            "config": statistics.median(net(t0, t1) for t0, t1, _ in marks),
            "corpus": statistics.median(net(t1, t2) for _, t1, t2 in marks),
            "wall": statistics.median(net(t0, t2) for t0, _, t2 in marks),
            "total": statistics.median(probe.scaled(t0, t2) for t0, _, t2 in marks),
        }

    def run_pass(self, jobs: int = VR_JOBS, tracer=None, calibrated: bool = False) -> Pass:
        """One pass of the workload's commands; a calibrated pass runs under a
        SpeedProbe, which gives its times at reference speed."""
        marks: dict[str, tuple[float, float]] = {}
        files: dict[str, bytes] = {}
        ok = True
        probe = SpeedProbe() if calibrated else None
        with probe or contextlib.nullcontext():
            for name, argv in commands(self.workload, jobs):
                outputs = [self.out / f for f in OUTPUTS[self.workload][name]]
                for path in outputs:
                    path.unlink(missing_ok=True)
                argv = argv + ["--config", str(self.config), "--out", str(self.out)]
                span = tracer.span("cli", name) if tracer else contextlib.nullcontext()
                started = time.perf_counter()
                try:
                    with span:
                        _invoke(argv)
                except Exception:  # a failed command fails its operations; the run goes on
                    traceback.print_exc(file=sys.stderr)
                    ok = False
                marks[name] = (started, time.perf_counter())
                files.update({p.name: p.read_bytes() for p in outputs if p.is_file()})
        seconds = {name: b - a for name, (a, b) in marks.items()}
        scaled = {name: probe.scaled(a, b) for name, (a, b) in marks.items()} if probe else {}
        return Pass(seconds, scaled, files, ok)


def _trace_metrics(
    tracer, setup, untraced: Pass, traced: Pass, parallel: Pass | None, pickled_per_task: float
) -> dict[str, float]:
    from spans import embed_work

    summary = tracer.summary()
    durations = summary["durations"]
    m: dict[str, float] = {"config.load_s": setup["config"], "corpus.load_s": setup["corpus"]}
    for name in COUNTED:
        m[f"{name}.calls"] = len(durations.get(name, ()))
        m[f"{name}.s"] = sum(durations.get(name, ()))
    train = durations.get("embed.train", [])
    tokens, pair_updates = embed_work(tracer.train_inputs)
    m["embed.train.calls"] = len(train)
    m["embed.train.s_p50"] = statistics.median(train) if train else 0.0
    m["embed.train.s_max"] = max(train, default=0.0)
    m["embed.tokens_per_s"] = tokens / sum(train) if train else 0.0
    m["embed.pair_updates"] = pair_updates
    m["sensitivity.reranked_seeds"] = tracer.reranked_seeds
    m["sensitivity.changed_seeds"] = tracer.changed_seeds
    m["sensitivity.rerank_useful_ratio"] = (
        tracer.changed_seeds / tracer.reranked_seeds if tracer.reranked_seeds else 0.0
    )
    m["sensitivity.fanout_efficiency"] = (
        untraced.wall / (VR_JOBS * parallel.wall) if parallel is not None else 0.0
    )
    m["sensitivity.task_payload_bytes"] = pickled_per_task
    for layer in SELF_LAYERS:
        m[f"{layer}.self_s"] = summary["self_s"].get(layer, 0.0)
    m["trace.untraced_s"] = untraced.wall
    m["trace.traced_s"] = traced.wall
    m["trace.overhead_s"] = traced.wall - untraced.wall
    m["trace.spans"] = summary["spans"]
    return m


def _consistency(tracer, sensitivity_self: float, overhead: float) -> tuple[bool, str]:
    """The spans under the ``value`` command, as child spans plus the
    sensitivity layer's self time, must account for the command's traced wall
    time up to the tracing overhead. The tolerance is at least 1% of that wall
    time, which absorbs timer noise, and at least CLI_FIXED_S, the command's
    own argument parsing and summary writing outside any layer."""
    from spans import END, LAYER, PARENT, START

    spans = tracer.spans
    root = next(i for i, s in enumerate(spans) if s[PARENT] < 0 and s[1] == "value")
    sensitivity = {i for i, s in enumerate(spans) if s[LAYER] == "sensitivity"}
    children = sum(
        s[END] - s[START] for s in spans
        if s[LAYER] != "sensitivity" and (s[PARENT] == root or s[PARENT] in sensitivity)
    )
    wall = spans[root][END] - spans[root][START]
    gap = wall - (children + sensitivity_self)
    tolerance = max(abs(overhead), 0.01 * wall, CLI_FIXED_S)
    ok = 0.0 <= gap <= tolerance
    return ok, (
        f"consistency {'ok' if ok else 'FAILED'}: value {wall:.4f} s = child spans "
        f"{children:.4f} s + sensitivity self {sensitivity_self:.4f} s + gap {gap:.4f} s "
        f"(tolerance {tolerance:.4f} s)"
    )


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> Report:
    from checks import PINNED_SEED, Checker

    r = Run(workload, seed, tiny)
    try:
        r.generate()
        setup = r.setup()
        if not trace:
            passes = []
            window = time.perf_counter()
            while True:
                passes.append(r.run_pass(calibrated=True))
                elapsed = time.perf_counter() - window
                if not passes[-1].ok or elapsed + passes[-1].wall > seconds:
                    break
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        else:
            from spans import Tracer, pickled_bytes

            parallel = None
            if workload == "vr-loo":
                # Spans in pool workers are lost, so the traced pass is serial.
                with pickled_bytes() as sizes:
                    parallel = r.run_pass(jobs=VR_JOBS)
                untraced = r.run_pass(jobs=1)
            else:
                untraced = r.run_pass()
            tracer = Tracer()
            tracer.install()
            try:
                traced = r.run_pass(jobs=1, tracer=tracer)
            finally:
                tracer.uninstall()
            passes = [p for p in (parallel, untraced, traced) if p is not None]

        checker = Checker(workload, r.config, r.out, seed, pinned=seed == PINNED_SEED and not tiny)
        failed = sum(len(checker.check(p.files)) for p in passes)
        attempted = checker.operations * len(passes)
        correct = failed == 0 and all(p.ok for p in passes)
        ops_per_pass = checker.operations
    finally:
        shutil.rmtree(r.out, ignore_errors=True)

    table: dict[str, tuple[float, str]] = {}
    notes: list[str] = []
    if trace:
        pickled_per_task = sum(sizes) / ops_per_pass if parallel is not None else 0.0
        metrics = _trace_metrics(tracer, setup, untraced, traced, parallel, pickled_per_task)
        if workload == "cor-loo":
            ok, line = _consistency(
                tracer, metrics["sensitivity.self_s"], metrics["trace.overhead_s"]
            )
            notes.append(line)
            correct = correct and ok
    else:
        metrics = {
            "command_s": statistics.median(sum(p.scaled.values()) for p in passes),
            "setup_s": setup["total"],
            "peak_rss_mb": peak_rss_mb,
        }
        for name in passes[0].scaled:
            median = statistics.median(p.scaled[name] for p in passes)
            if name == "value":
                table["priced_per_s"] = (ops_per_pass / median, "1/s")
            else:
                table[f"{name}_s"] = (median, "s")
        table["command_wall_s"] = (statistics.median(p.wall for p in passes), "s")
        table["setup_wall_s"] = (setup["wall"], "s")
    table["failed_ratio"] = (failed / attempted if attempted else 0.0, "ratio")
    return Report(workload, seed, trace, len(passes), attempted, failed, correct, metrics, table, notes)


def format_report(report: Report) -> list[str]:
    units = PER_LAYER if report.trace else END_TO_END
    lines = [f"perfbench {report.workload} seed={report.seed} trace={int(report.trace)} "
             f"passes={report.passes} operations={report.attempted} failed={report.failed}"]
    lines += [f"  {name:<34} {value:>14.6g} {unit}" for name, (value, unit) in report.table.items()]
    if report.trace:
        lines += [f"  {name:<34} {value:>14.6g} {units[name]}" for name, value in report.metrics.items()]
    lines += [f"  {note}" for note in report.notes]
    lines.append(json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": report.metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="sessionvalue benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(SHAPES))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "sessionvalue" / "__init__.py").is_file():
        print(f"perfbench: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Keeps the CLI's own logging set-up from turning on INFO records.
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in format_report(report):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
