"""Tests for coverage semantics (Definitions 3.4/3.6) and ARMG generalisation."""

from __future__ import annotations

import pytest

from repro.core import BottomClauseBuilder, CoverageEngine, Example, Generalizer
from repro.core.scoring import ClauseStats, score_clause
from repro.db import Sampler
from repro.logic import ClauseCompiler, Constant, HornClause, Variable, relation_literal
from repro.logic.subsumption import SubsumptionChecker

X, Y, Z = Variable("x"), Variable("y"), Variable("z")

POS_M1 = Example(("m1",), True)
POS_M2 = Example(("m2",), True)
NEG_M3 = Example(("m3",), False)
NEG_M4 = Example(("m4",), False)


@pytest.fixture
def engine(movie_problem, fast_config) -> CoverageEngine:
    indexes = movie_problem.build_similarity_indexes(
        top_k=fast_config.top_k_matches, threshold=fast_config.similarity_threshold
    )
    builder = BottomClauseBuilder(movie_problem, fast_config, indexes)
    return CoverageEngine(builder, fast_config, SubsumptionChecker())


def comedy_clause() -> HornClause:
    return HornClause(
        relation_literal("highGrossing", X),
        (relation_literal("movies", X, Y, Z), relation_literal("mov2genres", X, Constant("comedy"))),
    )


def drama_clause() -> HornClause:
    return HornClause(
        relation_literal("highGrossing", X),
        (relation_literal("mov2genres", X, Constant("drama")),),
    )


class TestCoverage:
    def test_bottom_clause_covers_its_own_example(self, engine):
        """Proposition 4.3."""
        for example in (POS_M1, POS_M2):
            bottom = engine.builder.build(example, ground=False)
            assert engine.covers(bottom, example)

    def test_simple_clause_coverage_matches_labels(self, engine):
        clause = comedy_clause()
        assert engine.covers(clause, POS_M1)
        assert engine.covers(clause, POS_M2)
        assert not engine.covers(clause, NEG_M3)  # m3 is drama
        assert engine.covers(clause, NEG_M4)  # m4 is a comedy that grossed low

    def test_covered_counts_and_scoring(self, engine):
        stats = score_clause(engine, comedy_clause(), [POS_M1, POS_M2], [NEG_M3, NEG_M4])
        assert stats.positives_covered == 2
        assert stats.negatives_covered == 1
        assert stats.score == 1
        assert stats.precision == pytest.approx(2 / 3)
        assert stats.recall == 1.0

    def test_definition_coverage_is_disjunction(self, engine):
        clauses = [comedy_clause(), drama_clause()]
        assert engine.definition_covers(clauses, NEG_M3)
        assert engine.definition_covers(clauses, POS_M1)
        assert engine.predicts_positive(clauses, POS_M1)

    def test_ground_clause_cache(self, engine, monkeypatch):
        first = engine.prepared_ground(POS_M1)
        second = engine.prepared_ground(POS_M1)
        assert first is second
        assert first.clause == engine.builder.build(POS_M1, ground=True)
        engine.clear_cache()
        assert not engine._ground_cache
        # The ground clause is rebuilt, and its compiled form is served from
        # the compiler's cache instead of being compiled again.
        compiles = []
        original = ClauseCompiler.compile_specific

        def counting(compiler, clause):
            compiles.append(clause)
            return original(compiler, clause)

        monkeypatch.setattr(ClauseCompiler, "compile_specific", counting)
        assert engine.prepared_ground(POS_M1) is first
        assert compiles == []

    def test_clause_using_md_join_covers_through_similarity(self, engine):
        """A clause requiring the BOM gross level only holds through the title MD."""
        bottom = engine.builder.build(POS_M1, ground=False)
        # Keep only the literals on the path highGrossing -> movies -> (MD) -> bom_gross.
        wanted_predicates = {"movies", "bom_movies", "bom_gross"}
        kept = tuple(
            lit
            for lit in bottom.body
            if (lit.is_relation and lit.predicate in wanted_predicates) or not lit.is_relation
        )
        clause = HornClause(bottom.head, kept).prune_disconnected().prune_dangling_restrictions()
        assert engine.covers(clause, POS_M1)
        assert engine.covers(clause, POS_M2)


class TestClauseStats:
    def test_criterion(self, fast_config):
        good = ClauseStats(positives_covered=5, negatives_covered=1, positives_total=10, negatives_total=10)
        bad_precision = ClauseStats(positives_covered=2, negatives_covered=5, positives_total=10, negatives_total=10)
        too_few = ClauseStats(positives_covered=0, negatives_covered=0, positives_total=10, negatives_total=10)
        assert good.satisfies_criterion(fast_config)
        assert not bad_precision.satisfies_criterion(fast_config)
        assert not too_few.satisfies_criterion(fast_config)

    def test_degenerate_totals(self):
        empty = ClauseStats(0, 0, 0, 0)
        assert empty.precision == 0.0
        assert empty.recall == 0.0
        assert "score" in str(empty) or "pos=" in str(empty)


class TestGeneralizer:
    def test_armg_produces_more_general_covering_clause(self, engine, fast_config):
        generalizer = Generalizer(engine, fast_config, Sampler(0))
        bottom = engine.builder.build(POS_M1, ground=False)
        generalized = generalizer.armg(bottom, POS_M2)
        assert len(generalized.body) <= len(bottom.body)
        assert engine.covers(generalized, POS_M1)
        assert engine.covers(generalized, POS_M2)
        assert generalized.is_head_connected()

    def test_armg_to_same_example_keeps_coverage(self, engine, fast_config):
        generalizer = Generalizer(engine, fast_config, Sampler(0))
        bottom = engine.builder.build(POS_M1, ground=False)
        same = generalizer.armg(bottom, POS_M1)
        assert engine.covers(same, POS_M1)

    def test_learn_clause_improves_score_and_meets_criterion(self, engine, fast_config):
        generalizer = Generalizer(engine, fast_config, Sampler(0))
        bottom = engine.builder.build(POS_M1, ground=False)
        learned = generalizer.learn_clause(bottom, [POS_M1, POS_M2], [NEG_M3, NEG_M4])
        assert learned.stats.positives_covered == 2
        assert learned.stats.negatives_covered == 0
        assert learned.stats.satisfies_criterion(fast_config)
        assert engine.covers(learned.clause, POS_M1) and engine.covers(learned.clause, POS_M2)
        assert not engine.covers(learned.clause, NEG_M3)
        assert not engine.covers(learned.clause, NEG_M4)
