"""Integration tests for the repair-aware semantics on small, fully enumerable worlds.

These tests validate the library's central claim — learning over the compact
repair-literal representation agrees with learning over materialised repairs —
by brute-forcing the repairs of small databases and comparing:

* coverage computed through θ-subsumption over clauses with repair literals
  (the DLearn way, Section 4.3) against
* coverage computed by directly evaluating repaired clauses over repaired
  database instances (the naive way the paper argues is infeasible at scale).
"""

from __future__ import annotations

import pytest

from repro.constraints import MatchingDependency, repairs_of
from repro.core import BottomClauseBuilder, CoverageEngine, DLearnConfig, Example, ExampleSet, LearningProblem
from repro.core.repair_literals import repaired_clauses
from repro.db import AttributeType, ClauseEvaluator, DatabaseInstance, DatabaseSchema, RelationSchema
from repro.logic.subsumption import SubsumptionChecker
from repro.similarity import SimilarityOperator


def tiny_problem() -> LearningProblem:
    """A two-source world where the target needs the MD to be learnable.

    imdb-side: movies(id, title) and genres(id, genre); bom-side:
    gross(title', level) with differently formatted titles.  highGrossing(id)
    holds for movies whose bom gross level is 'high'.
    """
    schema = DatabaseSchema.of(
        RelationSchema.of("movies", [("id", AttributeType.STRING), ("title", AttributeType.STRING)], source="imdb"),
        RelationSchema.of("genres", [("id", AttributeType.STRING), ("genre", AttributeType.STRING)], source="imdb"),
        RelationSchema.of("gross", [("title", AttributeType.STRING), ("level", AttributeType.STRING)], source="bom"),
    )
    database = DatabaseInstance(schema)
    database.insert_many(
        "movies",
        [("m1", "Silent River"), ("m2", "Golden Harbor"), ("m3", "Velvet Anthem"), ("m4", "Quiet Letter")],
    )
    database.insert_many("genres", [("m1", "comedy"), ("m2", "comedy"), ("m3", "drama"), ("m4", "comedy")])
    database.insert_many(
        "gross",
        [
            ("Silent River (1999)", "high"),
            ("Golden Harbor (2003)", "high"),
            ("Velvet Anthem (2010)", "low"),
            ("Quiet Letter (2005)", "low"),
        ],
    )
    return LearningProblem(
        database=database,
        target=RelationSchema.of("highGrossing", [("id", AttributeType.STRING)], source="imdb"),
        # m4 is a low-grossing comedy, so an accurate definition cannot rely on
        # the genre alone: it must reach the BOM gross level through the MD.
        examples=ExampleSet.of([("m1",), ("m2",)], [("m3",), ("m4",)]),
        mds=[MatchingDependency.simple("md_titles", "movies", "title", "gross", "title")],
        cfds=[],
        constant_attributes=frozenset({("genres", "genre"), ("gross", "level")}),
        similarity_operator=SimilarityOperator(threshold=0.6),
    )


@pytest.fixture
def config() -> DLearnConfig:
    return DLearnConfig(
        iterations=3,
        sample_size=None,
        top_k_matches=2,
        similarity_threshold=0.6,
        min_clause_positive_coverage=1,
        min_clause_precision=0.5,
        seed=0,
    )


@pytest.fixture
def engine(config) -> CoverageEngine:
    problem = tiny_problem()
    indexes = problem.build_similarity_indexes(top_k=2, threshold=0.6)
    builder = BottomClauseBuilder(problem, config, indexes)
    return CoverageEngine(builder, config, SubsumptionChecker())


class TestCoverageAgainstMaterializedRepairs:
    """Subsumption-based coverage must agree with evaluation over materialised repairs."""

    def _repairs(self, problem):
        operator = problem.similarity_operator
        return list(repairs_of(problem.database, problem.mds, problem.cfds, operator.similar, limit=16))

    def _naive_covers(self, problem, clause, example) -> bool:
        """Definition 3.4 computed the hard way: every repaired clause covers the
        example in some materialised repair."""
        repairs = self._repairs(problem)
        verdicts = []
        for repaired_clause in repaired_clauses(clause):
            covered_somewhere = False
            for repair in repairs:
                evaluator = ClauseEvaluator(repair, similarity=problem.similarity_operator.similar)
                if evaluator.covers(repaired_clause, example.values):
                    covered_somewhere = True
                    break
            verdicts.append(covered_somewhere)
        return all(verdicts)

    def test_bottom_clauses_agree_with_naive_semantics(self, engine, config):
        problem = tiny_problem()
        for example in problem.examples.positives:
            bottom = engine.builder.build(example, ground=False)
            assert engine.covers(bottom, example), "subsumption-based coverage must accept the own example"
            assert self._naive_covers(problem, bottom, example), "naive repair-based coverage must agree"

    def test_md_join_clause_agrees_on_all_examples(self, engine):
        problem = tiny_problem()
        bottom = engine.builder.build(problem.examples.positives[0], ground=False)
        wanted = {"movies", "gross"}
        clause = bottom.without(
            [lit for lit in bottom.body if lit.is_relation and lit.predicate not in wanted]
        ).prune_disconnected().prune_dangling_restrictions()
        for example in problem.examples.all():
            subsumption_verdict = engine.covers(clause, example) if example.positive else engine.covers(clause, example)
            naive_verdict = self._naive_covers(problem, clause, example)
            assert subsumption_verdict == naive_verdict, f"disagreement on {example}"

    def test_repaired_clause_count_matches_stable_instance_structure(self, engine):
        """Each MD repair group yields exactly one unification choice (Example 3.2)."""
        problem = tiny_problem()
        bottom = engine.builder.build(problem.examples.positives[0], ground=False)
        md_groups = {lit.provenance for lit in bottom.repair_literals}
        variants = repaired_clauses(bottom)
        assert len(variants) >= 1
        assert all(variant.is_repaired for variant in variants)
        assert len(md_groups) >= 1


class TestEndToEndLearning:
    def test_dlearn_learns_md_definition_on_tiny_world(self, config):
        from repro.core import DLearn

        problem = tiny_problem()
        model = DLearn(config.but(use_cfds=False)).fit(problem)
        assert model.definition
        predictions = model.predict(problem.examples.all())
        labels = [e.positive for e in problem.examples.all()]
        assert predictions == labels
        # The learned definition must use the cross-source join: some clause
        # mentions the gross relation.
        assert any(
            any(lit.predicate == "gross" for lit in clause.body if lit.is_relation) for clause in model.clauses
        )

    def test_learning_commutes_with_cleaning_on_tiny_world(self, config):
        """Learning over the dirty database then predicting agrees with learning
        over an entity-resolved database (the Castor-Clean route) on this
        unambiguous world — the practical reading of Theorems 4.11/4.12."""
        from repro.baselines import CastorClean
        from repro.core import DLearn

        problem = tiny_problem()
        labels = [e.positive for e in problem.examples.all()]
        dirty_model = DLearn(config.but(use_cfds=False)).fit(problem)
        clean_model = CastorClean(config).fit(problem)
        assert dirty_model.predict(problem.examples.all()) == labels
        assert clean_model.predict(problem.examples.all()) == labels
