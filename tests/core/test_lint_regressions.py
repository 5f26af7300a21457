"""Regression tests for defects surfaced by ``tools/arch_lint``.

Each test pins one concrete fix from the first lint run over the codebase:

* TS01 (thread-safety): the coverage engine's verdict cache and the clause
  compiler's form caches are written from ``batch_covers`` worker threads,
  so their eviction-and-insert sequences must hold the owning lock.
* DT01 (determinism): set iteration order is hash order — randomised across
  processes for strings — so sets feeding ordered structures (similarity
  match lists, capped variant expansions, column value lists) must be
  sorted first.
"""

from __future__ import annotations

import os
import subprocess
import sys

from repro.constraints import MatchingDependency
from repro.core import BottomClauseBuilder, CoverageEngine, Example
from repro.core.repair_literals import (
    _expand_cluster,
    _variable_clusters,
    md_repair_literals,
    repair_groups,
    repaired_clauses,
)
from repro.core.session import _MdIndexCache
from repro.logic import HornClause, Variable, VariableFactory, relation_literal
from repro.logic.compiled import ClauseCompiler
from repro.logic.subsumption import SubsumptionChecker
from repro.similarity import SimilarityOperator

POS_M1 = Example(("m1",), True)
POS_M2 = Example(("m2",), True)
NEG_M3 = Example(("m3",), False)


def _two_cluster_clause() -> HornClause:
    factory = VariableFactory()
    y, z = Variable("y"), Variable("z")
    body = [relation_literal("R", y, z)]
    for index in range(3):
        body.extend(md_repair_literals(Variable(f"a{index}"), y, factory, f"md:y{index}:0"))
    for index in range(3):
        body.extend(md_repair_literals(Variable(f"b{index}"), z, factory, f"md:z{index}:0"))
    return HornClause(relation_literal("T", y, z), tuple(body))


_EXPANSION_SCRIPT = """
from repro.core.repair_literals import md_repair_literals, repaired_clauses
from repro.logic import HornClause, Variable, VariableFactory, relation_literal

factory = VariableFactory()
y, z = Variable("y"), Variable("z")
body = [relation_literal("R", y, z)]
for index in range(3):
    body.extend(md_repair_literals(Variable(f"a{index}"), y, factory, f"md:y{index}:0"))
for index in range(3):
    body.extend(md_repair_literals(Variable(f"b{index}"), z, factory, f"md:z{index}:0"))
clause = HornClause(relation_literal("T", y, z), tuple(body))
for variant in repaired_clauses(clause, max_results=4):
    print(variant)
"""


def _expansion_in_subprocess(hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-c", _EXPANSION_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        cwd=os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    )
    return result.stdout


class _LockAssertingDict(dict):
    """A dict that requires a lock to be held for every mutation."""

    def __init__(self, lock, label: str) -> None:
        super().__init__()
        self._lock_obj = lock
        self._label = label
        self.writes = 0

    def __setitem__(self, key, value) -> None:
        assert self._lock_obj.locked(), f"unlocked write into {self._label}"
        self.writes += 1
        super().__setitem__(key, value)

    def clear(self) -> None:
        assert self._lock_obj.locked(), f"unlocked clear of {self._label}"
        super().clear()


def _make_engine(problem, config) -> CoverageEngine:
    indexes = problem.build_similarity_indexes(
        top_k=config.top_k_matches, threshold=config.similarity_threshold
    )
    builder = BottomClauseBuilder(problem, config, indexes)
    return CoverageEngine(builder, config, SubsumptionChecker())


class TestSharedCacheLocking:
    def test_verdict_cache_writes_hold_verdict_lock(self, movie_problem, fast_config):
        engine = _make_engine(movie_problem, fast_config)
        probe = _LockAssertingDict(engine._verdict_lock, "CoverageEngine._verdict_cache")
        engine._verdict_cache = probe
        candidate = engine.builder.build(POS_M1, ground=False)
        engine.batch_covers(candidate, [POS_M1, POS_M2, NEG_M3])
        assert probe.writes >= 3

    def test_compiler_form_caches_write_under_compiler_lock(self, movie_problem, fast_config):
        engine = _make_engine(movie_problem, fast_config)
        compiler = engine.compiler
        general_probe = _LockAssertingDict(compiler._lock, "ClauseCompiler._general_cache")
        specific_probe = _LockAssertingDict(compiler._lock, "ClauseCompiler._specific_cache")
        compiler._general_cache = general_probe
        compiler._specific_cache = specific_probe
        candidate = engine.builder.build(POS_M1, ground=False)
        engine.batch_covers(candidate, [POS_M1, POS_M2, NEG_M3])
        assert general_probe.writes >= 1
        assert specific_probe.writes >= 1

    def test_compiler_is_a_fresh_clause_compiler(self, movie_problem, fast_config):
        # Guards the fixture above: the probes must be instrumenting the
        # object the engine actually compiles through.
        engine = _make_engine(movie_problem, fast_config)
        assert isinstance(engine.compiler, ClauseCompiler)


class TestDeterministicOrdering:
    def test_md_index_cache_scores_varying_values_in_sorted_order(
        self, movie_database, movie_target, monkeypatch
    ):
        # An MD whose left side is the target: index_for takes the
        # cached-scores path and iterates the varying value *set*.
        md = MatchingDependency.simple(
            "md_target_titles", "highGrossing", "id", "bom_movies", "title"
        )
        cache = _MdIndexCache(md, movie_database, movie_target, SimilarityOperator().measure)
        scored: list[object] = []
        monkeypatch.setattr(cache, "_scored_pairs", lambda value: (scored.append(value), ())[1])
        examples = [Example(("mB",), True), Example(("mA",), True), Example(("mC",), False)]
        cache.index_for(examples, top_k=2, threshold=0.5)
        assert scored == sorted(scored, key=repr)
        assert set(scored) == {"mA", "mB", "mC"}

    def test_column_values_are_sorted_for_non_target_columns(self, movie_problem):
        values = movie_problem._column_values("movies", "title")
        distinct = movie_problem.database.relation("movies").distinct_values("title")
        assert values == sorted(distinct, key=repr)

    def test_capped_variant_expansion_overflows_then_truncates_sorted(self):
        # Two independent repair clusters of three groups each: the second
        # cluster's expansion overflows max_results (6 candidates for a cap
        # of 4), so the truncation genuinely picks a subset — which must be
        # the str-sorted prefix, not an arbitrary hash-ordered slice.
        clause = _two_cluster_clause()
        clusters = _variable_clusters(repair_groups(clause))
        assert len(clusters) == 2
        first = sorted(_expand_cluster(clause, tuple(clusters[0]), 4), key=str)[:4]
        overflow: set[HornClause] = set()
        for variant in first:
            overflow |= _expand_cluster(variant, tuple(clusters[1]), 4)
            if len(overflow) >= 4:
                break
        assert len(overflow) > 4, "expansion must overflow the cap to exercise truncation"
        assert len(repaired_clauses(clause, max_results=4)) == 4

    def test_capped_variant_expansion_is_hash_seed_independent(self):
        # The pre-fix code kept ``set(list(next_variants)[:max])`` — a
        # hash-order-dependent subset that differs between processes with
        # different PYTHONHASHSEED.  Run the expansion in two subprocesses
        # with different seeds and require identical output.
        outputs = {
            _expansion_in_subprocess(seed)
            for seed in ("1", "2")
        }
        assert len(outputs) == 1
