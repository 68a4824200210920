"""Spans around the public functions of each ``ganens`` module, from outside ``src/``.

``Tracer.install`` replaces each traced function, wherever a ``ganens``
module holds a reference to it (``cli`` and ``objective`` import names from
other modules), by a wrapper that records a span: name, start, end, thread
and parent. Each thread keeps its own span stack. A span opened on a worker
thread with an empty stack takes the innermost open span of the thread that
installed the tracer as its parent, so the pairwise workers of
``pairwise_matrix`` and the file readers of ``load_pool`` count under them.
"""
from __future__ import annotations

import functools
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

# (module, function) pairs; the span name is "<module>.<function>".
TRACED = [
    ("store", "load_pool"), ("store", "read_embeddings"), ("store", "write_embeddings"),
    ("metrics", "pairwise_distances"), ("metrics", "knn_radii"),
    ("metrics", "gaussian_summary"), ("metrics", "frechet_distance"),
    ("objective", "pairwise_matrix"), ("objective", "intra_d"), ("objective", "build_union"),
    ("optimize", "search"), ("optimize", "extract_front"), ("optimize", "select_best"),
    ("report", "quality_rows"),
]
EVALUATE = "objective.evaluate"


@dataclass
class Span:
    name: str
    parent: "Span | None"
    start: float = 0.0
    end: float = 0.0
    children: list = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def self_time(self) -> float:
        """Duration minus the part of it that child spans cover (children may overlap)."""
        covered, reach = 0.0, self.start
        for lo, hi in sorted((c.start, c.end) for c in self.children):
            lo, hi = max(lo, reach), min(hi, self.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return self.duration - covered


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main_stack: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def call(self, name: str, fn, *args, **kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        span = Span(name, parent)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)
                if parent is not None:
                    parent.children.append(span)
        self._count(name, args, result)
        return result

    def _count(self, name: str, args: tuple, result) -> None:
        with self._lock:
            self.counts[name + ".calls"] += 1
            if name == "store.read_embeddings":
                self.counts["store.bytes_read"] += os.path.getsize(args[0])
            elif name == "metrics.pairwise_distances":
                x, y = args[0], args[1]
                self.counts["metrics.distance_madds"] += x.shape[0] * y.shape[0] * x.shape[1]
            elif name == "objective.pairwise_matrix":
                n = result.values.shape[0]
                self.counts["objective.pairs"] += n * (n - 1) // 2
            elif name == "objective.build_union":
                self.counts["objective.union_rows"] += result.rows
            elif name == "optimize.extract_front":
                self.counts["optimize.archive_size"] += len(args[0])
                self.counts["optimize.front_size"] += len(result.entries)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def install(self) -> None:
        """Wrap every traced function in every loaded ``ganens`` module."""
        import ganens.cli  # noqa: F401  (loads every module that holds a traced name)
        from ganens.objective import EnsembleEvaluator

        modules = [m for n, m in sys.modules.items() if n == "ganens" or n.startswith("ganens.")]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"ganens.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, value))
                        setattr(module, attr, wrapper)
        evaluate = EnsembleEvaluator.evaluate
        wrapper = self._wrap(EVALUATE, evaluate)
        for attr in ("evaluate", "__call__"):
            self._restore.append((EnsembleEvaluator, attr, vars(EnsembleEvaluator)[attr]))
            setattr(EnsembleEvaluator, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # --- per-layer figures ----------------------------------------------

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def self_total(self, name: str) -> float:
        return sum(s.self_time() for s in self.spans if s.name == name)

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        c = self.counts
        distance_s = self.total("metrics.pairwise_distances")
        evaluations = c[EVALUATE + ".calls"]
        # The memo serves a call without scoring it; a scored call runs intra_d once.
        scored = sum(1 for s in self.spans
                     if s.name == "objective.intra_d" and s.parent and s.parent.name == EVALUATE)
        return {
            "store.load_pool_s": (self.total("store.load_pool"), "s"),
            "store.load_pool_calls": (c["store.load_pool.calls"], "count"),
            "store.bytes_read": (c["store.bytes_read"], "B"),
            "store.write_embeddings_s": (self.total("store.write_embeddings"), "s"),
            "metrics.distance_s": (distance_s, "s"),
            "metrics.distance_calls": (c["metrics.pairwise_distances.calls"], "count"),
            "metrics.distance_madds": (c["metrics.distance_madds"], "count"),
            "metrics.distance_madds_per_s": (
                c["metrics.distance_madds"] / distance_s if distance_s else 0.0, "1/s"),
            "metrics.knn_radii_s": (self.total("metrics.knn_radii"), "s"),
            "metrics.gaussian_summary_s": (self.total("metrics.gaussian_summary"), "s"),
            "metrics.gaussian_summary_calls": (c["metrics.gaussian_summary.calls"], "count"),
            "metrics.frechet_s": (self.total("metrics.frechet_distance"), "s"),
            "metrics.frechet_calls": (c["metrics.frechet_distance.calls"], "count"),
            "objective.pairwise_matrix_s": (self.total("objective.pairwise_matrix"), "s"),
            "objective.pairs": (c["objective.pairs"], "count"),
            "objective.intra_d_s": (self.total("objective.intra_d"), "s"),
            "objective.build_union_s": (self.total("objective.build_union"), "s"),
            "objective.union_rows": (c["objective.union_rows"], "count"),
            "objective.evaluate_calls": (evaluations, "count"),
            "objective.cache_hit_ratio": (
                (evaluations - scored) / evaluations if evaluations else 0.0, "ratio"),
            "optimize.search_self_s": (self.self_total("optimize.search"), "s"),
            "optimize.extract_front_s": (self.total("optimize.extract_front"), "s"),
            "optimize.archive_size": (c["optimize.archive_size"], "count"),
            "optimize.front_size": (c["optimize.front_size"], "count"),
            "optimize.select_best_s": (self.total("optimize.select_best"), "s"),
            "report.quality_rows_s": (self.total("report.quality_rows"), "s"),
            "cli.self_s": (self.self_total("cli.main"), "s"),
        }
