"""Span wrappers around the public functions of each fairaudit layer.

``Tracer.install()`` replaces every target function at each of its import
sites (``fairaudit.data.load_csv``, ``fairaudit.cli.load_csv``,
``fairaudit.load_csv``, ...) with a wrapper that records a span (name,
start, end, parent), a call count and the rise in ``ru_maxrss``. A target
that no longer exists is listed in ``absent`` and skipped, so the traced run
outlives refactors that rename or delete functions. Nothing in the package
is edited on disk.
"""

from __future__ import annotations

import functools
import importlib
import re
import resource
import sys
import time
import warnings
from pathlib import Path

# (module, attribute path, span name); the span name's first part is the layer
TARGETS = (
    ("fairaudit.data", "load_csv", "data.load_csv"),
    ("fairaudit.data", "save_csv", "data.save_csv"),
    ("fairaudit.data", "Dataset.__init__", "data.Dataset"),
    ("fairaudit.data", "Dataset.with_values", "data.with_values"),
    ("fairaudit.data", "Dataset.take", "data.take"),
    ("fairaudit.data", "split", "data.split"),
    ("fairaudit.data", "validate", "data.validate"),
    ("fairaudit.model", "train_logistic", "model.train_logistic"),
    ("fairaudit.model", "loss_and_gradient", "model.loss_and_gradient"),
    ("fairaudit.model", "sigmoid", "model.sigmoid"),
    ("fairaudit.model", "cross_validate", "model.cross_validate"),
    ("fairaudit.model", "encode", "model.encode"),
    ("fairaudit.model", "predict_scores", "model.predict_scores"),
    ("fairaudit.model", "load_model", "model.load_model"),
    ("fairaudit.metrics", "contingency", "metrics.contingency"),
    ("fairaudit.metrics", "group_confusion", "metrics.group_confusion"),
    ("fairaudit.metrics", "auc", "metrics.auc"),
    ("fairaudit.inference", "bootstrap_ci", "inference.bootstrap_ci"),
    ("fairaudit.inference", "di_ci_delta", "inference.di_ci_delta"),
    ("fairaudit.audit", "flip_test", "audit.flip_test"),
    ("fairaudit.audit", "swap_sensitive", "audit.swap_sensitive"),
    ("fairaudit.repair", "fit_repair", "repair.fit_repair"),
    ("fairaudit.repair", "apply_repair", "repair.apply_repair"),
    ("fairaudit.repair", "save_plan", "repair.save_plan"),
    ("fairaudit.explain", "permutation_importance", "explain.permutation_importance"),
    ("fairaudit.explain", "local_surrogate", "explain.local_surrogate"),
    ("fairaudit.synth", "solve_group_bias", "synth.solve_group_bias"),
    ("fairaudit.synth", "true_disparate_impact", "synth.true_disparate_impact"),
    ("fairaudit.synth", "generate", "synth.generate"),
    ("fairaudit.rng", "CounterRng.u64_block", "rng.u64_block"),
    ("fairaudit.cli", "_emit", "cli.emit"),
    ("fairaudit.cli", "render_markdown", "cli.render_markdown"),
    ("fairaudit.cli", "main", "cli.main"),
)

_CLAMPED = re.compile(r"(\d+) values? outside")


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


class Tracer:
    """Spans and counters of one traced process, kept in memory until dumped."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def add(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(index)
            rss = _maxrss_mb()
            span[1] = time.perf_counter()
            try:
                return self._call(name, fn, args, kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                self.add(name + ".calls")
                self.add(name + ".rss_rise_mb", _maxrss_mb() - rss)
        return wrapper

    def _call(self, name, fn, args, kwargs):
        if name == "inference.bootstrap_ci":
            args = (self._count_statistic(args[0]),) + args[1:] if args else args
            if "statistic" in kwargs:
                kwargs["statistic"] = self._count_statistic(kwargs["statistic"])
        if name == "repair.apply_repair":
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = fn(*args, **kwargs)
            for w in caught:
                found = _CLAMPED.search(str(w.message))
                if found or "clamp" in str(w.message):
                    self.add("repair.clamped", int(found.group(1)) if found else 1)
                warnings.showwarning(w.message, w.category, w.filename, w.lineno)
            return result
        result = fn(*args, **kwargs)
        if name == "data.save_csv":
            path = args[1] if len(args) > 1 else kwargs.get("path")
            if path is not None and Path(path).exists():
                self.add("data.save_csv.bytes", Path(path).stat().st_size)
        return result

    def _count_statistic(self, statistic):
        @functools.wraps(statistic)
        def counted(*args, **kwargs):
            self.add("inference.bootstrap.replicates")
            try:
                return statistic(*args, **kwargs)
            except Exception:
                self.add("inference.bootstrap.failed")
                raise
        return counted

    def install(self) -> "Tracer":
        """Wrap every target that exists, at every module that binds it."""
        import fairaudit  # noqa: F401  (loads the package's modules)
        for module_name, attr_path, name in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *owners, attr = attr_path.split(".")
                for part in owners:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(original, name)
            if owners:  # a method: patch the class once
                self._patch(owner, attr, wrapper)
                continue
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("fairaudit"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        return self

    def _patch(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def remove(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "absent": self.absent}


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out
