"""Outside-in span tracing for the campaign benchmark.

The benchmark never edits the program: :class:`Tracer` replaces the public
functions of each layer (``bo``, ``searchspace``, ``core``,
``dataparallel``, ``nn``, ``workflow``, ``campaign``, ``datasets``) with
thin wrappers that record one span per call — name, start, end and the
span that was open when the call began — and restores the originals on
:meth:`Tracer.uninstall`.  Spans stay in memory until the benchmark ends.

A layer's *self time* is its spans' duration minus the time covered by
their direct child spans.  The campaigns traced here run every layer in one
thread, so calls nest strictly, direct children never overlap and the
covered part is their sum.
"""

from __future__ import annotations

import functools
import importlib
import re
import time
from pathlib import Path
from typing import Any, Callable, Iterable

__all__ = [
    "METRIC_NAME",
    "SPAN_NAMES",
    "SpanRecorder",
    "Tracer",
    "self_times",
    "tail_percentile",
]

#: Charset and length every reported metric name must satisfy.
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# (span name, module, class, method): a method replaced by a recording
# wrapper.  Targets are resolved by Tracer.install, so importing this module
# does not import the program.
_CLASS_TARGETS = [
    ("bo.ask", "repro.bo.optimizer", "BayesianOptimizer", "ask"),
    ("bo.tell", "repro.bo.optimizer", "BayesianOptimizer", "tell"),
    ("bo.forest_fit", "repro.bo.forest", "RandomForestRegressor", "fit"),
    ("bo.forest_predict", "repro.bo.forest", "RandomForestRegressor", "predict"),
    ("bo.sample", "repro.searchspace.hpspace", "HyperparameterSpace", "sample_array"),
    ("core.evaluate", "repro.core.evaluation", "ModelEvaluation", "__call__"),
    ("dataparallel.fit", "repro.dataparallel.trainer", "DataParallelTrainer", "fit"),
    ("nn.compile", "repro.nn.graph_network", "GraphNetwork", "compile"),
    ("nn.loss_and_grad", "repro.nn.compiled", "CompiledPlan", "loss_and_grad"),
    ("nn.loss_and_grad", "repro.nn.compiled", "CompiledPlan", "loss_and_grads_ranked"),
    ("nn.predict", "repro.nn.compiled", "CompiledPlan", "predict_logits"),
    ("nn.adam", "repro.nn.optimizers", "Adam", "apply_gradients"),
    ("campaign.emit", "repro.campaign.events", "EventBus", "emit"),
]
# Module-level functions, patched where the caller looks them up.
_MODULE_TARGETS = [
    ("searchspace.mutate", "repro.core.search", "mutate_architecture"),
    ("core.checkpoint", "repro.core.serialization", "save_checkpoint"),
    ("datasets.load", "repro.campaign.builder", "load_dataset"),
]
# Evaluator methods, patched on the campaign's evaluator instance.
_INSTANCE_TARGETS = [("workflow.submit", "submit"), ("workflow.gather", "gather")]

#: Every span name the tracer can record (the per-layer metric stems).
SPAN_NAMES = sorted(
    {t[0] for t in _CLASS_TARGETS}
    | {t[0] for t in _MODULE_TARGETS}
    | {t[0] for t in _INSTANCE_TARGETS}
    | {"campaign.build", "campaign.run"}
)


class SpanRecorder:
    """In-memory span store with a stack of open spans.

    Spans are four parallel lists (name, start, end, parent index; parent
    ``-1`` for a root).  ``counters`` holds per-name work counts that a
    span's duration does not show (points asked, bytes written).
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.names)

    def open(self, name: str, start: float | None = None) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(time.perf_counter() if start is None else start)
        self.ends.append(float("nan"))
        self.parents.append(self._stack[-1] if self._stack else -1)
        self._stack.append(idx)
        return idx

    def close(self, idx: int, end: float | None = None) -> None:
        self.ends[idx] = time.perf_counter() if end is None else end
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.names[idx]!r} closed out of order")

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def to_dict(self) -> dict[str, Any]:
        return {
            "names": self.names,
            "starts": self.starts,
            "ends": self.ends,
            "parents": self.parents,
            "counters": self.counters,
        }


def self_times(recorder: SpanRecorder) -> dict[str, tuple[int, float]]:
    """Per span name: (number of spans, total self time in seconds)."""
    child_time = [0.0] * len(recorder)
    for i, parent in enumerate(recorder.parents):
        if parent >= 0:
            child_time[parent] += recorder.ends[i] - recorder.starts[i]
    out: dict[str, tuple[int, float]] = {}
    for i, name in enumerate(recorder.names):
        calls, total = out.get(name, (0, 0.0))
        own = recorder.ends[i] - recorder.starts[i] - child_time[i]
        out[name] = (calls + 1, total + own)
    return out


def tail_percentile(values: Iterable[float], beyond: int = 10) -> tuple[float, float]:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(percentile, value)``: of ``n`` sorted samples the value is
    the one with exactly ``beyond`` samples after it, i.e. the
    ``100 * (n - beyond) / n``-th percentile.
    """
    data = sorted(values)
    n = len(data)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples for a tail, got {n}")
    return 100.0 * (n - beyond) / n, data[n - beyond - 1]


class Tracer:
    """Installs recording wrappers around every timed call.

    Usage::

        tracer = Tracer()
        tracer.install()                 # class and module wrappers
        campaign = tracer.span("campaign.build", build_campaign, config)
        tracer.attach(campaign.evaluator)
        history = tracer.span("campaign.run", campaign.run)
        tracer.uninstall()
    """

    def __init__(self, recorder: SpanRecorder | None = None) -> None:
        self.recorder = recorder if recorder is not None else SpanRecorder()
        self._patches: list[tuple[Any, str, Any, bool]] = []

    # ------------------------------------------------------------------ #
    def _wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        rec = self.recorder
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = rec.open(name, clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(idx, clock())
            if after is not None:
                after(rec, result)
            return result

        return wrapper

    def _patch(self, owner: Any, attr: str, name: str, after=None) -> None:
        had_own = attr in vars(owner)
        original = getattr(owner, attr)
        self._patches.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, self._wrap(name, original, after))

    def install(self) -> None:
        """Wrap every class method and module function in the target list."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        after = {
            "bo.ask": lambda rec, batch: rec.count("bo.ask.points", len(batch)),
            "core.checkpoint": lambda rec, path: rec.count(
                "core.checkpoint.bytes", Path(path).stat().st_size
            ),
        }
        for name, module, cls, attr in _CLASS_TARGETS:
            self._patch(getattr(importlib.import_module(module), cls), attr, name, after.get(name))
        for name, module, attr in _MODULE_TARGETS:
            self._patch(importlib.import_module(module), attr, name, after.get(name))

    def attach(self, evaluator: Any) -> None:
        """Wrap one evaluator instance's ``submit`` and ``gather``."""
        for name, attr in _INSTANCE_TARGETS:
            self._patch(evaluator, attr, name)

    def uninstall(self) -> None:
        """Restore every original, newest patch first."""
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------ #
    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` under a span named ``name``."""
        return self._wrap(name, fn)(*args, **kwargs)
