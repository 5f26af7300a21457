"""Span tracing of DLearn's layers from outside the library.

The tracer wraps public functions of each layer at class level (nothing under
``src/`` changes) and records one span per call: name, start, end, parent
span and the request (fold, batch or serving op) it ran for.  Spans are kept
in memory and written out when the benchmark ends; per-layer metrics are
derived from them afterwards:

* a count is the number of spans of a name (or the items they carried, such
  as the examples handed to one ``relevant_many`` call);
* ``<layer>.self_s`` is the layer's self time — each span's duration minus
  the part its child spans cover — so nested calls are never counted twice
  (``batch_covers`` nests ``relevant_many``, ``assemble``, ``prepare`` and
  ``subsumes``);
* other ``*_s`` metrics are the inclusive wall time of the named call.

Only the thread that installed the tracer records spans, and forked worker
processes stop recording, so the shard workers' own work shows only as the
parent-side wait in ``fanout.depth_s``.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import defaultdict
from typing import Callable

from repro.core.bottom_clause import ClauseAssembler
from repro.core.coverage import CoverageEngine
from repro.core.fanout import SaturationFanout
from repro.core.generalization import Generalizer
from repro.core.saturation import DatabaseProbeCache, FrontierChase, SaturationCache
from repro.core.session import DatabasePreparation, LearningSession
from repro.db.instance import DatabaseInstance
from repro.db.relation import RelationInstance
from repro.logic.subsumption import SubsumptionChecker
from repro.similarity.composite import CompositeSimilarity
from repro.similarity.index import SimilarityIndex


def _examples(args: tuple) -> int:
    return len(args[1])


def _definition_pairs(args: tuple) -> int:
    return len(args[1]) * len(args[2])


def _covers_pairs(args: tuple) -> int:
    return len(args[2])


#: span name -> (owner class, attribute, items-per-call function or None).
#: The span name's prefix is the layer it belongs to.
WRAPPED: dict[str, tuple[type, str, Callable[[tuple], int] | None]] = {
    "similarity.score": (CompositeSimilarity, "similarity", None),
    "similarity.build": (SimilarityIndex, "build", None),
    "similarity.from_scored": (SimilarityIndex, "from_scored_matches", None),
    "session.init": (LearningSession, "__init__", None),
    "session.indexes": (DatabasePreparation, "similarity_indexes_for", None),
    "session.evaluation": (LearningSession, "evaluation_session", None),
    "saturation.relevant_many": (FrontierChase, "relevant_many", _examples),
    "saturation.store": (SaturationCache, "store", None),
    "saturation.invalidate": (FrontierChase, "invalidate", None),
    "db.any_rows_vectorized": (RelationInstance, "any_rows_table_vectorized", None),
    "db.rows_equal_vectorized": (RelationInstance, "rows_equal_ids_vectorized", None),
    "db.probe_any_rows_table": (DatabaseProbeCache, "any_rows_table", None),
    "db.probe_rows_any": (DatabaseProbeCache, "rows_any", None),
    "db.probe_rows_equal": (DatabaseProbeCache, "rows_equal", None),
    "db.probe_prefetch_equal": (DatabaseProbeCache, "prefetch_equal", None),
    "db.probe_value_frequency": (DatabaseProbeCache, "value_frequency", None),
    "db.insert": (DatabaseInstance, "insert", None),
    "fanout.depth_tables": (SaturationFanout, "depth_tables", None),
    "bottom_clause.assemble": (ClauseAssembler, "assemble", None),
    "coverage.batch_covers": (CoverageEngine, "batch_covers", _covers_pairs),
    "coverage.batch_predicts": (CoverageEngine, "batch_predicts_positive", _definition_pairs),
    "coverage.prepare": (SubsumptionChecker, "prepare", None),
    "logic.subsumes": (SubsumptionChecker, "subsumes", None),
    "logic.retained": (SubsumptionChecker, "retained_generalization", None),
    "generalization.armg": (Generalizer, "armg", None),
    "generalization.learn_clause": (Generalizer, "learn_clause", None),
    "generalization.reduce": (Generalizer, "reduce_clause", None),
}

#: Per-layer metrics, name -> unit, in the order ``BENCHMARK.json`` lists them.
#: Every workload reports all of them; a layer a workload never enters reads 0.
LAYER_METRICS = {
    "similarity.pairs_scored": "count",
    "similarity.index_s": "s",
    "session.sessions_built": "count",
    "session.index_s": "s",
    "session.eval_hit_ratio": "ratio",
    "saturation.calls": "count",
    "saturation.examples_chased": "count",
    "saturation.cache_hit_ratio": "ratio",
    "saturation.self_s": "s",
    "saturation.invalidations": "count",
    "db.probe_calls": "count",
    "db.probe_s": "s",
    "db.inserts": "count",
    "db.insert_s": "s",
    "fanout.depth_calls": "count",
    "fanout.depth_s": "s",
    "fanout.faults": "count",
    "fanout.recoveries": "count",
    "fanout.demotions": "count",
    "bottom_clause.assembled": "count",
    "bottom_clause.self_s": "s",
    "coverage.pairs": "count",
    "coverage.proved_ratio": "ratio",
    "coverage.prepare_s": "s",
    "coverage.self_s": "s",
    "logic.subsumes_calls": "count",
    "logic.subsumes_s": "s",
    "logic.retained_calls": "count",
    "logic.retained_s": "s",
    "logic.certificates": "count",
    "logic.retries": "count",
    "logic.retry_exhausted": "count",
    "generalization.armg_calls": "count",
    "generalization.self_s": "s",
    "generalization.reduce_s": "s",
    "trace.spans": "count",
    "trace.overhead_ratio": "ratio",
}

#: Metrics that must repeat exactly for one seed: every count and every
#: ratio of counts (timings and the tracing overhead vary from run to run).
COUNT_METRICS = tuple(
    name for name, unit in LAYER_METRICS.items() if unit != "s" and name != "trace.overhead_ratio"
)


class Tracer:
    """Records spans around the wrapped layer functions while installed."""

    def __init__(self) -> None:
        self.names: list[str] = list(WRAPPED)
        #: One entry per span: [name index, start, end, parent index, request, items].
        self.spans: list[list] = []
        self.request: str = ""
        self.checkers: list[SubsumptionChecker] = []
        self._stack: list[int] = []
        self._originals: dict[str, tuple[type, str, object]] = {}
        self._thread = threading.get_ident()
        self._recording = False
        os.register_at_fork(after_in_child=self._stop_in_child)

    def _stop_in_child(self) -> None:
        self._recording = False

    # ------------------------------------------------------------------ #
    def install(self) -> None:
        """Wrap every function in :data:`WRAPPED` and start recording a round."""
        self.checkers = []
        for index, (name, (owner, attribute, items)) in enumerate(WRAPPED.items()):
            raw = owner.__dict__[attribute]
            is_classmethod = isinstance(raw, classmethod)
            function = raw.__func__ if is_classmethod else raw
            wrapper = self._wrap(index, function, items)
            setattr(owner, attribute, classmethod(wrapper) if is_classmethod else wrapper)
            self._originals[name] = (owner, attribute, raw)
        checker_init = SubsumptionChecker.__init__
        tracer = self

        def init(checker, *args, **kwargs):
            checker_init(checker, *args, **kwargs)
            if tracer._recording:
                tracer.checkers.append(checker)

        SubsumptionChecker.__init__ = init
        self._originals["checker.init"] = (SubsumptionChecker, "__init__", checker_init)
        self._recording = True

    def uninstall(self) -> None:
        """Restore the original functions; recorded spans are kept."""
        self._recording = False
        for owner, attribute, raw in self._originals.values():
            setattr(owner, attribute, raw)
        self._originals.clear()

    def _wrap(self, index: int, function, items):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer._recording or threading.get_ident() != tracer._thread:
                return function(*args, **kwargs)
            span = [index, 0.0, 0.0, stack[-1] if stack else -1, tracer.request,
                    items(args) if items is not None else 1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return function(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        wrapper.__name__ = getattr(function, "__name__", "wrapped")
        wrapper.__doc__ = getattr(function, "__doc__", None)
        return wrapper

    # ------------------------------------------------------------------ #
    def mark(self) -> int:
        """Position in the span list (start of a round's spans)."""
        return len(self.spans)

    def metrics(self, start: int, fault_counts: dict[str, int]) -> dict[str, float]:
        """Per-layer metrics over the spans recorded since *start*."""
        spans = self.spans[start:]
        names = self.names
        calls: dict[str, int] = defaultdict(int)
        items: dict[str, int] = defaultdict(int)
        inclusive: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        child_time = [0.0] * len(spans)
        # An evaluation_session call that built a session (a child
        # LearningSession.__init__ span) missed the memo.
        built_session = [False] * len(spans)
        init_index = names.index("session.init")
        for name_index, begin, end, parent, _, _ in spans:
            if parent >= start:
                child_time[parent - start] += end - begin
                built_session[parent - start] |= name_index == init_index
        evaluation_index = names.index("session.evaluation")
        evaluation_misses = 0
        for position, (name_index, begin, end, _, _, count) in enumerate(spans):
            name = names[name_index]
            duration = end - begin
            calls[name] += 1
            items[name] += count
            inclusive[name] += duration
            own[name] += duration - child_time[position]
            evaluation_misses += name_index == evaluation_index and built_session[position]

        def layer_self(layer: str) -> float:
            return sum(value for name, value in own.items() if name.startswith(layer + "."))

        def ratio(numerator: float, denominator: float) -> float:
            return numerator / denominator if denominator else 0.0

        stats = {"certificates": 0, "retries": 0, "retry_exhausted": 0}
        for checker in self.checkers:
            stats["certificates"] += checker.stats.certificates
            stats["retries"] += checker.stats.retries
            stats["retry_exhausted"] += checker.stats.retry_exhausted
        probe_names = [name for name in names if name.startswith("db.") and name != "db.insert"]
        requested = items["saturation.relevant_many"]
        pairs = items["coverage.batch_covers"] + items["coverage.batch_predicts"]
        values = {
            "similarity.pairs_scored": calls["similarity.score"],
            "similarity.index_s": layer_self("similarity"),
            "session.sessions_built": calls["session.init"],
            "session.index_s": inclusive["session.indexes"],
            "session.eval_hit_ratio": ratio(
                calls["session.evaluation"] - evaluation_misses, calls["session.evaluation"]
            ),
            "saturation.calls": calls["saturation.relevant_many"],
            "saturation.examples_chased": calls["saturation.store"],
            "saturation.cache_hit_ratio": ratio(requested - calls["saturation.store"], requested),
            "saturation.self_s": layer_self("saturation"),
            "saturation.invalidations": calls["saturation.invalidate"],
            "db.probe_calls": sum(calls[name] for name in probe_names),
            "db.probe_s": sum(own[name] for name in probe_names),
            "db.inserts": calls["db.insert"],
            "db.insert_s": inclusive["db.insert"],
            "fanout.depth_calls": calls["fanout.depth_tables"],
            "fanout.depth_s": inclusive["fanout.depth_tables"],
            "fanout.faults": fault_counts["faults"],
            "fanout.recoveries": fault_counts["recoveries"],
            "fanout.demotions": fault_counts["demotions"],
            "bottom_clause.assembled": calls["bottom_clause.assemble"],
            "bottom_clause.self_s": layer_self("bottom_clause"),
            "coverage.pairs": pairs,
            "coverage.proved_ratio": ratio(calls["logic.subsumes"], pairs),
            "coverage.prepare_s": own["coverage.prepare"],
            "coverage.self_s": layer_self("coverage"),
            "logic.subsumes_calls": calls["logic.subsumes"],
            "logic.subsumes_s": own["logic.subsumes"],
            "logic.retained_calls": calls["logic.retained"],
            "logic.retained_s": own["logic.retained"],
            "logic.certificates": stats["certificates"],
            "logic.retries": stats["retries"],
            "logic.retry_exhausted": stats["retry_exhausted"],
            "generalization.armg_calls": calls["generalization.armg"],
            "generalization.self_s": layer_self("generalization"),
            "generalization.reduce_s": inclusive["generalization.reduce"],
            "trace.spans": len(spans),
        }
        return values

    def write(self, path: str, start: int, end: int, extra: dict) -> None:
        """Write the spans in ``[start, end)`` plus *extra* metadata as JSON."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        base = self.spans[start][1] if end > start else 0.0
        payload = {
            **extra,
            "fields": ["name", "start_s", "end_s", "parent", "request", "items"],
            "names": self.names,
            "spans": [
                [name, round(begin - base, 7), round(finish - base, 7),
                 parent - start if parent >= start else -1, request, count]
                for name, begin, finish, parent, request, count in self.spans[start:end]
            ],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))
            handle.write("\n")
