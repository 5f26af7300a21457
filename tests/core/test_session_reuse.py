"""Session-level reuse: shared preparation, prediction-path index reuse.

The :class:`~repro.core.session.LearningSession` owns the prepared state the
covering loop, prediction and evaluation share.  These tests pin the reuse
contracts:

* consecutive ``LearnedModel.predict`` calls must not rebuild similarity
  indexes (no ``SimilarityIndex.build`` calls, no re-scoring of already-seen
  values) and must classify identically to a freshly constructed engine;
* fits through a shared :class:`DatabasePreparation` must learn exactly what
  isolated fits learn;
* a preparation is rejected when offered to a session over a different
  database instance;
* a write to an MD's relation re-scores that MD's cached pairs, and a write
  anywhere else re-scores nothing.
"""

from __future__ import annotations

import pytest

from repro.constraints import MatchingDependency
from repro.core import (
    DatabasePreparation,
    DLearn,
    Example,
    ExampleSet,
    LearningSession,
)
from repro.data.registry import generate
from repro.data.synthetic import ScenarioSpec
from repro.db import AttributeType, RelationSchema
from repro.similarity.composite import CompositeSimilarity
from repro.similarity.index import SimilarityIndex


@pytest.fixture
def movie_model(movie_problem, fast_config):
    return DLearn(fast_config).fit(movie_problem)


@pytest.fixture
def scored_pairs(monkeypatch):
    """Counts pairs scored through either the scalar or the batched measure."""
    count = {"pairs": 0}
    original_one = CompositeSimilarity.similarity
    original_many = CompositeSimilarity.similarity_many

    def counting_similarity(self, left, right):
        count["pairs"] += 1
        return original_one(self, left, right)

    def counting_similarity_many(self, pairs):
        pairs = list(pairs)
        count["pairs"] += len(pairs)
        return original_many(self, pairs)

    monkeypatch.setattr(CompositeSimilarity, "similarity", counting_similarity)
    monkeypatch.setattr(CompositeSimilarity, "similarity_many", counting_similarity_many)
    return count


class TestPredictionReuse:
    def test_model_carries_its_learning_session(self, movie_model):
        assert movie_model.session is not None
        assert movie_model.session.problem is movie_model.problem

    def test_consecutive_predicts_do_not_rebuild_similarity_indexes(self, movie_model, monkeypatch):
        examples = [Example(("m1",), True), Example(("m3",), False)]
        movie_model.predict(examples)  # first call may prepare the evaluation session

        build_calls = 0
        original_build = SimilarityIndex.build

        def counting_build(self, left, right):
            nonlocal build_calls
            build_calls += 1
            return original_build(self, left, right)

        monkeypatch.setattr(SimilarityIndex, "build", counting_build)
        movie_model.predict(examples)
        movie_model.predict(list(reversed(examples)))  # same values, any order
        assert build_calls == 0

    def test_second_predict_scores_no_pairs(self, movie_model, scored_pairs):
        examples = [Example(("m1",), True), Example(("m4",), False)]
        movie_model.predict(examples)
        scored_pairs["pairs"] = 0
        movie_model.predict(examples)
        assert scored_pairs["pairs"] == 0

    def test_unseen_values_are_scored_incrementally(self, movie_model, scored_pairs):
        movie_model.predict([Example(("m1",), True)])
        # A fresh example value triggers scoring once...
        movie_model.predict([Example(("m1",), True), Example(("m2",), True)])
        after_first = scored_pairs["pairs"]
        # ...and never again.
        movie_model.predict([Example(("m2",), True)])
        assert scored_pairs["pairs"] == after_first

    def test_reused_session_classifies_like_a_fresh_engine(self, movie_model):
        examples = [
            Example(("m1",), True),
            Example(("m2",), True),
            Example(("m3",), False),
            Example(("m4",), False),
        ]
        reused_first = movie_model.predict(examples)
        reused_second = movie_model.predict(examples)
        fresh_engine = movie_model.fresh_engine_for(examples)
        fresh = fresh_engine.batch_predicts_positive(movie_model.definition.clauses, examples)
        assert reused_first == fresh
        assert reused_second == fresh

    def test_evaluation_session_is_memoised_per_value_set(self, movie_model):
        examples = [Example(("m1",), True), Example(("m3",), False)]
        session = movie_model.session
        first = session.evaluation_session(examples)
        again = session.evaluation_session(list(reversed(examples)))
        assert first is again
        other = session.evaluation_session([Example(("m2",), True)])
        assert other is not first


class TestSharedPreparation:
    def test_shared_preparation_learns_identically(self, movie_problem, fast_config):
        isolated = DLearn(fast_config).fit(movie_problem)
        preparation = DatabasePreparation.from_problem(movie_problem)
        shared_a = DLearn(fast_config).fit(movie_problem, preparation=preparation)
        shared_b = DLearn(fast_config).fit(movie_problem, preparation=preparation)
        expected = [str(clause) for clause in isolated.clauses]
        assert [str(clause) for clause in shared_a.clauses] == expected
        assert [str(clause) for clause in shared_b.clauses] == expected

    def test_pool_indexes_equal_fresh_build(self, movie_problem, fast_config):
        preparation = DatabasePreparation.from_problem(movie_problem)
        pooled = preparation.similarity_indexes_for(
            movie_problem.mds,
            movie_problem.examples,
            top_k=fast_config.top_k_matches,
            threshold=fast_config.similarity_threshold,
        )
        fresh = movie_problem.build_similarity_indexes(
            top_k=fast_config.top_k_matches, threshold=fast_config.similarity_threshold
        )
        assert pooled.keys() == fresh.keys()
        for name in pooled:
            assert pooled[name]._forward == fresh[name]._forward
            assert pooled[name]._backward == fresh[name]._backward

    def test_for_examples_shares_preparation(self, movie_problem, fast_config):
        session = LearningSession(movie_problem, fast_config)
        derived = session.for_examples(ExampleSet.of(positives=[("m2",)], negatives=[("m3",)]))
        assert derived.preparation is session.preparation
        assert derived.problem.database is session.problem.database

    def test_preparation_for_wrong_database_is_rejected(self, movie_problem, fast_config):
        other_database = movie_problem.database.copy()
        other_problem = movie_problem.with_database(other_database)
        preparation = DatabasePreparation.from_problem(movie_problem)
        with pytest.raises(ValueError, match="different database instance"):
            LearningSession(other_problem, fast_config, preparation=preparation)

    def test_fit_through_explicit_session(self, movie_problem, fast_config):
        learner = DLearn(fast_config)
        session = learner.session(movie_problem)
        model = learner.fit(movie_problem, session=session)
        assert model.session is session
        baseline = learner.fit(movie_problem)
        assert [str(c) for c in model.clauses] == [str(c) for c in baseline.clauses]


def _indexes_equal(pooled: dict[str, SimilarityIndex], fresh: dict[str, SimilarityIndex]) -> bool:
    return pooled.keys() == fresh.keys() and all(
        pooled[name]._forward == fresh[name]._forward and pooled[name]._backward == fresh[name]._backward
        for name in pooled
    )


class TestWritesToMdColumns:
    """The per-MD scoring caches follow writes to the MD's own relations."""

    @pytest.fixture
    def dirty_world(self):
        spec = ScenarioSpec(n_entities=24, n_positives=6, n_negatives=6, seed=3, md_drift=0.5)
        return generate("synthetic", spec=spec)

    def test_insert_into_md_column_reaches_cached_preparation(self, dirty_world):
        problem = dirty_world.problem()
        preparation = DatabasePreparation.from_problem(problem)
        preparation.similarity_indexes_for(problem.mds, problem.examples, top_k=3, threshold=0.6)
        name = sorted(problem.database.relation("syn_a_entities").distinct_values("name"))[0]
        near_duplicate = name + "!"
        problem.database.insert("syn_b_entities", ("b_near", near_duplicate))

        pooled = preparation.similarity_indexes_for(problem.mds, problem.examples, top_k=3, threshold=0.6)
        fresh = problem.build_similarity_indexes(top_k=3, threshold=0.6)
        assert near_duplicate in pooled["md_syn_names"].partners_of(name)
        assert _indexes_equal(pooled, fresh)

    def test_write_to_other_relations_scores_nothing(self, dirty_world, scored_pairs):
        problem = dirty_world.problem()
        preparation = DatabasePreparation.from_problem(problem)
        first = preparation.similarity_indexes_for(problem.mds, problem.examples, top_k=3, threshold=0.6)
        assert scored_pairs["pairs"] > 0
        scored_pairs["pairs"] = 0
        problem.database.insert("syn_a_categories", ("a_new", "c0"))
        problem.database.insert("syn_b_flags", ("b_new", "yes"))
        again = preparation.similarity_indexes_for(problem.mds, problem.examples, top_k=3, threshold=0.6)
        assert scored_pairs["pairs"] == 0
        assert again["md_syn_names"] is first["md_syn_names"]

    def test_insert_into_fixed_column_of_target_md(self, movie_database, scored_pairs):
        # An MD from the target to a database column: the cache keeps the
        # database column's blocker and every scored pair per example value.
        target = RelationSchema.of("titleQuery", [("title", AttributeType.STRING)])
        md = MatchingDependency.simple("md_query_titles", "titleQuery", "title", "bom_movies", "title")
        examples = [Example(("Superbad",), True), Example(("Zoolander",), False)]
        preparation = DatabasePreparation(movie_database, target)
        preparation.similarity_indexes_for([md], examples, top_k=2, threshold=0.6)
        movie_database.insert("mov2genres", ("m9", "comedy"))
        scored_pairs["pairs"] = 0
        preparation.similarity_indexes_for([md], examples, top_k=2, threshold=0.6)
        assert scored_pairs["pairs"] == 0

        movie_database.insert("bom_movies", ("b9", "Superbad!"))
        pooled = preparation.similarity_indexes_for([md], examples, top_k=2, threshold=0.6)
        fresh = DatabasePreparation(movie_database, target).similarity_indexes_for(
            [md], examples, top_k=2, threshold=0.6
        )
        assert "Superbad!" in pooled[md.name].partners_of("Superbad")
        assert _indexes_equal(pooled, fresh)
