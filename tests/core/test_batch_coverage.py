"""Tests for the batched, cache-aware coverage engine.

The batched path (``batch_covers`` / ``covered_counts`` /
``batch_predicts_positive``) must return exactly the verdicts of the serial
reference path (:func:`repro.testing.oracles.covers_serial`) for every
(clause, example) pair, and the engine's clause-level caches must behave like
caches (identity on repeat, cleared by ``clear_cache``; the compiled forms
live in the compiler's cache and outlive it).

The Hypothesis section at the bottom widens the check beyond hand-picked
clauses: batched and serial verdicts must agree on *randomly generated*
clauses and example lists, and θ-subsumption must be reflexive (every clause
subsumes itself and its own ground instance).
"""

from __future__ import annotations

from functools import lru_cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.constraints import ConditionalFunctionalDependency, MatchingDependency
from repro.core import BottomClauseBuilder, CoverageEngine, DLearnConfig, Example, ExampleSet, LearningProblem
from repro.db import AttributeType, DatabaseInstance, DatabaseSchema, RelationSchema
from repro.logic import Constant, HornClause, Variable, relation_literal, theta_subsumes
from repro.logic.compiled import CompiledGeneral
from repro.logic.subsumption import SubsumptionChecker
from repro.similarity import SimilarityOperator
from repro.testing.oracles import covered_counts_serial, covers_serial

X, Y, Z = Variable("x"), Variable("y"), Variable("z")

POS_M1 = Example(("m1",), True)
POS_M2 = Example(("m2",), True)
NEG_M3 = Example(("m3",), False)
NEG_M4 = Example(("m4",), False)
ALL_EXAMPLES = [POS_M1, POS_M2, NEG_M3, NEG_M4]


@pytest.fixture
def dirty_movie_problem(movie_problem):
    """The toy movie world with a CFD violation (two genres for m1).

    The conflicting genre makes bottom clauses touching m1 carry a CFD repair
    group, so coverage testing exercises the MD-projection and CFD-variant
    branches of Section 4.3 — the paths whose caching the batched engine adds.
    """
    movie_problem.database.insert("mov2genres", ("m1", "romance"))
    return movie_problem


def make_engine(problem, config) -> CoverageEngine:
    indexes = problem.build_similarity_indexes(
        top_k=config.top_k_matches, threshold=config.similarity_threshold
    )
    builder = BottomClauseBuilder(problem, config, indexes)
    return CoverageEngine(builder, config, SubsumptionChecker())


@pytest.fixture
def engine(dirty_movie_problem, fast_config) -> CoverageEngine:
    return make_engine(dirty_movie_problem, fast_config)


def candidate_clauses(engine: CoverageEngine) -> list[HornClause]:
    """Clause population of the shapes learning evaluates: bottoms + manual clauses."""
    comedy = HornClause(
        relation_literal("highGrossing", X),
        (relation_literal("movies", X, Y, Z), relation_literal("mov2genres", X, Constant("comedy"))),
    )
    drama = HornClause(
        relation_literal("highGrossing", X),
        (relation_literal("mov2genres", X, Constant("drama")),),
    )
    bottoms = [engine.builder.build(example, ground=False) for example in (POS_M1, POS_M2)]
    return [comedy, drama, *bottoms]


class TestBatchedMatchesSerial:
    def test_batch_covers_matches_serial_verdicts(self, engine):
        for clause in candidate_clauses(engine):
            serial = [covers_serial(engine, clause, example) for example in ALL_EXAMPLES]
            assert engine.batch_covers(clause, ALL_EXAMPLES) == serial
            assert [engine.covers(clause, example) for example in ALL_EXAMPLES] == serial

    def test_covered_counts_matches_serial(self, engine):
        positives, negatives = [POS_M1, POS_M2], [NEG_M3, NEG_M4]
        for clause in candidate_clauses(engine):
            assert engine.covered_counts(clause, positives, negatives) == covered_counts_serial(
                engine, clause, positives, negatives
            )

    def test_thread_fanout_matches_serial(self, dirty_movie_problem, fast_config):
        # Coverage runs on the calling thread; the dirty world adds CFD repair
        # literals, so the MD-projection and CFD-variant branches run too.
        dirty_engine = make_engine(dirty_movie_problem, fast_config)
        positives, negatives = [POS_M1, POS_M2], [NEG_M3, NEG_M4]
        for clause in candidate_clauses(dirty_engine):
            serial = [covers_serial(dirty_engine, clause, example) for example in ALL_EXAMPLES]
            assert dirty_engine.batch_covers(clause, ALL_EXAMPLES) == serial
            assert dirty_engine.covered_counts(clause, positives, negatives) == covered_counts_serial(
                dirty_engine, clause, positives, negatives
            )

    def test_batch_predicts_positive_matches_pointwise(self, engine):
        clauses = candidate_clauses(engine)[:2]
        batched = engine.batch_predicts_positive(clauses, ALL_EXAMPLES)
        pointwise = [engine.predicts_positive(clauses, example) for example in ALL_EXAMPLES]
        assert batched == pointwise

    def test_empty_example_list(self, engine):
        assert engine.batch_covers(candidate_clauses(engine)[0], []) == []


class TestClauseCaches:
    def test_prepared_general_is_cached_and_accepted(self, engine):
        clause = candidate_clauses(engine)[0]
        prepared = engine.checker.prepare_general(clause)
        assert isinstance(prepared, CompiledGeneral)
        assert prepared.clause is clause
        # Served from the compiler's cache, keyed on (head, body).
        assert engine.checker.prepare_general(HornClause(clause.head, clause.body)) is prepared
        # The prepared object is accepted anywhere a clause is.
        assert engine.batch_covers(prepared, ALL_EXAMPLES) == engine.batch_covers(clause, ALL_EXAMPLES)

    def test_md_projection_and_variants_are_cached(self, engine):
        bottom = engine.builder.build(POS_M1, ground=False)
        assert engine._md_projection_of(bottom) is engine._md_projection_of(bottom)
        assert engine._cfd_variants_of(bottom) is engine._cfd_variants_of(bottom)

    def test_clear_cache_resets_everything(self, engine):
        clause = candidate_clauses(engine)[0]
        prepared = engine.checker.prepare_general(clause)
        ground = engine.prepared_ground(POS_M1)
        engine.covers(clause, POS_M1)
        bottom = engine.builder.build(POS_M1, ground=False)
        engine._md_projection_of(bottom)
        engine._cfd_variants_of(bottom)
        engine.clear_cache()
        assert not engine._ground_cache and not engine._verdict_cache
        assert engine._md_projection_of.cache_info().currsize == 0
        assert engine._cfd_variants_of.cache_info().currsize == 0
        # Compiled forms are pure functions of their clause and belong to the
        # compiler, not the engine: the rebuilt ground clause and the
        # candidate are served the forms compiled before the clear.
        assert engine.checker.prepare_general(clause) is prepared
        assert engine.prepared_ground(POS_M1) is ground


class TestGroundCacheKey:
    def test_ground_clause_is_shared_across_labels(self, engine):
        """Regression: the cache used to key on (values, positive), building the
        same ground bottom clause twice for an example seen with both labels."""
        as_positive = engine.prepared_ground(Example(("m1",), True))
        as_negative = engine.prepared_ground(Example(("m1",), False))
        assert as_positive is as_negative


class TestConfig:
    def test_n_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            DLearnConfig(n_jobs=0)

    def test_n_jobs_above_one_is_rejected(self):
        with pytest.raises(ValueError, match="n_jobs"):
            DLearnConfig(n_jobs=2)

    def test_n_jobs_default_is_serial(self, fast_config):
        assert fast_config.n_jobs == 1


# --------------------------------------------------------------------- #
# Hypothesis properties: random clauses and example lists
# --------------------------------------------------------------------- #
@lru_cache(maxsize=1)
def _property_engine() -> CoverageEngine:
    """The toy movie world of ``conftest.movie_problem`` (with the CFD
    violation of ``dirty_movie_problem``), built once for the whole module.

    A module-level engine instead of the function-scoped fixtures because
    Hypothesis re-runs the test body many times per fixture instantiation;
    the engine's caches are semantically transparent, so sharing it across
    examples is safe and keeps the property tests fast.
    """
    string, integer = AttributeType.STRING, AttributeType.INTEGER
    schema = DatabaseSchema.of(
        RelationSchema.of("movies", [("id", string), ("title", string), ("year", integer)], source="imdb"),
        RelationSchema.of("mov2genres", [("id", string), ("genre", string)], source="imdb"),
        RelationSchema.of("mov2countries", [("id", string), ("country", string)], source="imdb"),
        RelationSchema.of("bom_movies", [("bomId", string), ("title", string)], source="bom"),
        RelationSchema.of("bom_gross", [("bomId", string), ("gross", string)], source="bom"),
    )
    database = DatabaseInstance(schema)
    database.insert_many(
        "movies",
        [("m1", "Superbad", 2007), ("m2", "Zoolander", 2001), ("m3", "The Orphanage", 2007), ("m4", "Midnight Harbor", 2007)],
    )
    database.insert_many(
        "mov2genres",
        [("m1", "comedy"), ("m1", "romance"), ("m2", "comedy"), ("m3", "drama"), ("m4", "comedy")],
    )
    database.insert_many("mov2countries", [("m1", "USA"), ("m2", "USA"), ("m3", "Spain"), ("m4", "USA")])
    database.insert_many(
        "bom_movies",
        [("b1", "Superbad (2007)"), ("b2", "Zoolander (2001)"), ("b3", "The Orphanage (2007)"), ("b4", "Midnight Harbor (2007)")],
    )
    database.insert_many("bom_gross", [("b1", "high"), ("b2", "high"), ("b3", "low"), ("b4", "low")])
    problem = LearningProblem(
        database=database,
        target=RelationSchema.of("highGrossing", [("id", string)], source="imdb"),
        examples=ExampleSet.of(positives=[("m1",), ("m2",)], negatives=[("m3",), ("m4",)]),
        mds=[MatchingDependency.simple("md_movie_titles", "movies", "title", "bom_movies", "title")],
        cfds=[ConditionalFunctionalDependency.fd("cfd_movie_genre", "mov2genres", ["id"], "genre")],
        constant_attributes=frozenset({("mov2genres", "genre"), ("mov2countries", "country"), ("bom_gross", "gross")}),
        similarity_operator=SimilarityOperator(threshold=0.6),
    )
    config = DLearnConfig(
        iterations=3,
        sample_size=8,
        top_k_matches=2,
        similarity_threshold=0.6,
        generalization_sample=4,
        max_clauses=4,
        min_clause_positive_coverage=1,
        min_clause_precision=0.5,
        seed=0,
    )
    indexes = problem.build_similarity_indexes(top_k=config.top_k_matches, threshold=config.similarity_threshold)
    builder = BottomClauseBuilder(problem, config, indexes)
    return CoverageEngine(builder, config, SubsumptionChecker())


_W = Variable("w")
_TERMS = st.sampled_from(
    (X, Y, Z, _W, Constant("comedy"), Constant("drama"), Constant("m1"), Constant("USA"), Constant("high"))
)


def _literal(predicate: str, arity: int):
    return st.tuples(*[_TERMS] * arity).map(lambda terms: relation_literal(predicate, *terms))


_LITERALS = st.one_of(
    _literal("movies", 3),
    _literal("mov2genres", 2),
    _literal("mov2countries", 2),
    _literal("bom_movies", 2),
    _literal("bom_gross", 2),
)
_CLAUSES = st.lists(_LITERALS, min_size=1, max_size=4).map(
    lambda body: HornClause(relation_literal("highGrossing", X), tuple(body))
)
_EXAMPLES = st.lists(
    st.tuples(st.sampled_from(["m1", "m2", "m3", "m4", "m9"]), st.booleans()).map(
        lambda pair: Example((pair[0],), pair[1])
    ),
    min_size=1,
    max_size=5,
)


class TestRandomClauseBatchedEquivalence:
    @given(clause=_CLAUSES, examples=_EXAMPLES)
    def test_batch_covers_matches_serial(self, clause, examples):
        engine = _property_engine()
        serial = [covers_serial(engine, clause, example) for example in examples]
        assert engine.batch_covers(clause, examples) == serial

    @given(clause=_CLAUSES, examples=_EXAMPLES)
    def test_covered_counts_matches_serial(self, clause, examples):
        engine = _property_engine()
        positives = [example for example in examples if example.positive]
        negatives = [example for example in examples if example.negative]
        assert engine.covered_counts(clause, positives, negatives) == covered_counts_serial(
            engine, clause, positives, negatives
        )

    @given(clauses=st.lists(_CLAUSES, min_size=1, max_size=3), examples=_EXAMPLES)
    def test_batch_predictions_match_pointwise(self, clauses, examples):
        engine = _property_engine()
        batched = engine.batch_predicts_positive(clauses, examples)
        assert batched == [engine.predicts_positive(clauses, example) for example in examples]


class TestSubsumptionReflexivity:
    @given(clause=_CLAUSES)
    def test_every_clause_subsumes_itself(self, clause):
        assert theta_subsumes(clause, clause)

    @given(clause=_CLAUSES)
    def test_every_clause_subsumes_its_own_ground_instance(self, clause):
        grounding = {variable: Constant(f"gc_{variable.name}") for variable in clause.variables()}
        ground = HornClause(
            clause.head.replace_terms(grounding),
            tuple(literal.replace_terms(grounding) for literal in clause.body),
        )
        assert not ground.variables()
        assert theta_subsumes(clause, ground)
