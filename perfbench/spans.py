"""Span tracing of the package's layers, installed from outside the package.

``Tracer.install`` replaces every public function of each layer module with a
wrapper that records a span (layer, name, start, end, parent). It also
replaces every other binding of the same function object inside the package,
such as the names ``sensitivity`` imports with ``from .kpi import
aggregate_pairs``; otherwise their time would hide in the caller's self time.
Spans stay in memory; ``summary`` turns them into per-layer figures.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

PACKAGE = "sessionvalue"
LAYERS = ("config", "corpus", "cor", "embed", "kpi", "sensitivity", "lifecycle", "curve")
# Called once per click while loading; its cost stays in the loader's self time.
SKIP = frozenset({"corpus.validate_product_id"})

LAYER, NAME, START, END, PARENT = range(5)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.reranked_seeds = 0
        self.changed_seeds = 0
        self.train_inputs: list[tuple] = []
        self._saved: list[tuple] = []

    # -- hooks: counts taken at the same boundaries as the spans ------------

    def _count_diff(self, args, kwargs, result) -> None:
        self.reranked_seeds += getattr(result, "n_compared_seeds", 0)
        self.changed_seeds += getattr(result, "n_changed_seeds", 0)

    def _keep_train_inputs(self, args, kwargs, result) -> None:
        self.train_inputs.append((args, kwargs))

    def _wrap(self, layer: str, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        hook = {
            "sensitivity.diff_topk": self._count_diff,
            "embed.train": self._keep_train_inputs,
        }.get(f"{layer}.{name}")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [layer, name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def span(self, layer: str, name: str):
        """A span opened by the benchmark itself, such as one CLI command."""
        record = [layer, name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record[END] = time.perf_counter()
            self.stack.pop()

    def install(self) -> None:
        wrappers: dict[int, tuple] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")
                    and f"{layer}.{name}" not in SKIP
                ):
                    wrappers[id(obj)] = (obj, self._wrap(layer, name, obj))
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    # -- reduction ----------------------------------------------------------

    def summary(self) -> dict:
        """Per-function calls and durations, per-layer self time, span count."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        durations: dict[str, list[float]] = defaultdict(list)
        self_s: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            duration = s[END] - s[START]
            durations[f"{s[LAYER]}.{s[NAME]}"].append(duration)
            self_s[s[LAYER]] += duration - child[i]
        return {"durations": dict(durations), "self_s": dict(self_s), "spans": len(self.spans)}


def embed_work(train_inputs: list[tuple]) -> tuple[int, int]:
    """Tokens processed and hierarchical-softmax pair updates of the recorded
    ``embed.train`` calls, computed from their inputs: every kept token is one
    centre, updated once against each other in-window kept token, per
    iteration. A one-entry vocabulary has empty Huffman paths and no updates."""
    from sessionvalue import embed

    tokens = pairs = 0
    for args, kwargs in train_inputs:
        bound = inspect.signature(embed.train).bind(*args, **kwargs)
        dataset, hyper = bound.arguments["dataset"], bound.arguments["hyper"]
        freq: dict[str, int] = defaultdict(int)
        for s in dataset.sessions:
            for c in s.clicks:
                freq[c.product] += 1
        kept = {p for p, f in freq.items() if f >= hyper.min_count}
        w = hyper.window
        run_tokens = run_pairs = 0
        for s in dataset.sessions:
            m = sum(1 for c in s.clicks if c.product in kept)
            run_tokens += m
            run_pairs += sum(min(m, i + w + 1) - max(0, i - w) - 1 for i in range(m))
        tokens += hyper.iterations * run_tokens
        if len(kept) > 1:
            pairs += hyper.iterations * run_pairs
    return tokens, pairs


@contextmanager
def pickled_bytes():
    """Collect the size of every object the multiprocessing layer pickles in
    this process, such as the tasks a process pool sends to its workers."""
    from multiprocessing.reduction import ForkingPickler

    original = ForkingPickler.__dict__["dumps"]
    sizes: list[int] = []

    def dumps(cls, obj, protocol=None):
        buf = original.__func__(cls, obj, protocol)
        sizes.append(len(buf))
        return buf

    ForkingPickler.dumps = classmethod(dumps)
    try:
        yield sizes
    finally:
        ForkingPickler.dumps = original

