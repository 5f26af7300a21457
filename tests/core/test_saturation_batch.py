"""Batched multi-example saturation must be bit-identical to the per-example path.

:class:`~repro.core.saturation.FrontierChase` drives Algorithm 2's
relevant-tuple chase for many examples in one pass over the database; the
per-example reference path (:func:`repro.testing.oracles.relevant_serial`)
keeps the pre-batching behaviour.  Whatever the batch composition, every example must gather exactly
the same tuples with exactly the same similarity evidence.
"""

from __future__ import annotations

import pytest

from repro.core import ClauseAssembler, Example, FrontierChase, LearningSession, SaturationCache
from repro.testing.oracles import install_serial_chase, relevant_serial


ALL_EXAMPLES = [
    Example(("m1",), True),
    Example(("m2",), True),
    Example(("m3",), False),
    Example(("m4",), False),
]


@pytest.fixture
def chase(movie_problem, fast_config) -> FrontierChase:
    indexes = movie_problem.build_similarity_indexes(
        top_k=fast_config.top_k_matches, threshold=fast_config.similarity_threshold
    )
    return FrontierChase(movie_problem, fast_config, indexes)


def assert_same_relevant(left, right):
    assert [t.values for t in left.tuples] == [t.values for t in right.tuples]
    assert [t.relation for t in left.tuples] == [t.relation for t in right.tuples]
    assert left.similarity_evidence == right.similarity_evidence


class TestBatchedChaseEquivalence:
    def test_batched_equals_serial_per_example(self, chase):
        batched = chase.relevant_many(ALL_EXAMPLES)
        for example, relevant in zip(ALL_EXAMPLES, batched):
            assert_same_relevant(relevant, relevant_serial(chase, example))

    def test_batch_composition_does_not_matter(self, movie_problem, fast_config):
        indexes = movie_problem.build_similarity_indexes(top_k=2, threshold=0.6)
        whole = FrontierChase(movie_problem, fast_config, indexes)
        split = FrontierChase(movie_problem, fast_config, indexes)
        whole_results = whole.relevant_many(ALL_EXAMPLES)
        one_by_one = [split.relevant(example) for example in ALL_EXAMPLES]
        for together, alone in zip(whole_results, one_by_one):
            assert_same_relevant(together, alone)

    def test_batched_without_mds(self, movie_problem, fast_config):
        config = fast_config.but(use_mds=False)
        chase = FrontierChase(movie_problem, config, {})
        for example, relevant in zip(ALL_EXAMPLES, chase.relevant_many(ALL_EXAMPLES)):
            assert_same_relevant(relevant, relevant_serial(chase, example))
            assert relevant.similarity_evidence == []

    def test_batched_exact_match_only(self, movie_problem, fast_config):
        indexes = movie_problem.build_similarity_indexes(top_k=2, threshold=0.6)
        config = fast_config.but(exact_match_only=True)
        chase = FrontierChase(movie_problem, config, indexes)
        for example, relevant in zip(ALL_EXAMPLES, chase.relevant_many(ALL_EXAMPLES)):
            assert_same_relevant(relevant, relevant_serial(chase, example))

    def test_results_are_cached_across_calls(self, chase):
        first = chase.relevant_many(ALL_EXAMPLES)
        second = chase.relevant_many(list(reversed(ALL_EXAMPLES)))
        for relevant, again in zip(first, reversed(second)):
            assert relevant is again
        assert chase.relevant(ALL_EXAMPLES[0]) is first[0]

    def test_duplicate_examples_in_one_batch(self, chase):
        results = chase.relevant_many([ALL_EXAMPLES[0], ALL_EXAMPLES[0]])
        assert results[0] is results[1]

    def test_empty_shared_cache_is_kept(self, movie_problem, fast_config):
        # An empty SaturationCache has length 0; it must still be the cache
        # both chases share, not be swapped for a private one.
        cache = SaturationCache()
        first = FrontierChase(movie_problem, fast_config, {}, cache=cache)
        second = FrontierChase(movie_problem, fast_config, {}, cache=cache)
        assert first.cache is cache and second.cache is cache
        relevant = first.relevant(ALL_EXAMPLES[0])
        assert len(cache) > 0
        assert second.relevant(ALL_EXAMPLES[0]) is relevant


class TestBuilderFacade:
    """Bottom clauses are built by the clause assembler over the session's chase."""

    def test_builder_routes_through_chase(self, movie_problem, fast_config):
        indexes = movie_problem.build_similarity_indexes(
            top_k=fast_config.top_k_matches, threshold=fast_config.similarity_threshold
        )
        chase = FrontierChase(movie_problem, fast_config, indexes)
        assembler = ClauseAssembler(movie_problem, fast_config, chase)
        gathered = chase.relevant_many(ALL_EXAMPLES)
        for example, relevant in zip(ALL_EXAMPLES, gathered):
            assert chase.relevant(example) is relevant
            assert assembler.bottom_clause(example) == assembler.assemble(example, relevant)

    def test_prepared_grounds_matches_individual_preparation(self, movie_problem, fast_config):
        session = LearningSession(movie_problem, fast_config)
        batch = session.engine.prepared_grounds(ALL_EXAMPLES)
        for example, prepared in zip(ALL_EXAMPLES, batch):
            assert session.engine.prepared_ground(example) is prepared

    def test_serial_saturation_session_learns_same_clauses(self, movie_problem, fast_config):
        from repro.core import DLearn

        batched_model = DLearn(fast_config).fit(movie_problem)
        serial_session = install_serial_chase(LearningSession(movie_problem, fast_config))
        serial_model = DLearn(fast_config).fit(movie_problem, session=serial_session)
        assert [str(c) for c in batched_model.clauses] == [str(c) for c in serial_model.clauses]
        # The serial session's ground clauses were all gathered on the
        # uncached path; its predictions must equal the batched model's.
        assert serial_session.engine.batch_predicts_positive(
            serial_model.definition.clauses, ALL_EXAMPLES
        ) == batched_model.predict(ALL_EXAMPLES)
