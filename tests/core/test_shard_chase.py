"""The sharded scatter/gather chase must be observationally identical.

``DLearnConfig.shard_count`` routes every depth of the batched frontier chase
through a shard scatter plane — worker processes under the process backend
(:class:`~repro.core.fanout.SaturationFanout`), the in-process shard tables
otherwise (:class:`~repro.core.fanout.SerialShardScatter`).  Whatever the
plane, the gathered probe tables must equal the unsharded prefetch's, so
relevant tuples, similarity evidence, learned definitions and predictions
cannot depend on the shard count.  This suite pins that identity against the
uncached :func:`repro.testing.oracles.relevant_serial` oracle, exercises the
session wiring (memoised scatter planes, loud structural fallbacks) and covers
an insert into the database mid-session.
"""

from __future__ import annotations

import warnings

import pytest

from repro.core import DLearnConfig, FrontierChase, LearningSession
from repro.core.fanout import SaturationFanout, SerialShardScatter
from repro.core.problem import Example
from repro.core.session import DatabasePreparation
from repro.db.sharding import ShardedInstance
from repro.testing.oracles import relevant_serial

ALL_EXAMPLES = [
    Example(("m1",), True),
    Example(("m2",), True),
    Example(("m3",), False),
    Example(("m4",), False),
]


def make_chase(problem, config) -> FrontierChase:
    indexes = problem.build_similarity_indexes(
        top_k=config.top_k_matches, threshold=config.similarity_threshold
    )
    return FrontierChase(problem, config, indexes)


def assert_same_relevant(left, right):
    assert [t.values for t in left.tuples] == [t.values for t in right.tuples]
    assert [t.relation for t in left.tuples] == [t.relation for t in right.tuples]
    assert left.similarity_evidence == right.similarity_evidence


class TestConfig:
    def test_shard_count_must_be_positive(self):
        with pytest.raises(ValueError, match="shard_count"):
            DLearnConfig(shard_count=0)

    def test_default_is_unsharded(self):
        assert DLearnConfig().shard_count == 1
        assert DLearnConfig().but(shard_count=4).shard_count == 4


class TestSerialScatterIdentity:
    @pytest.mark.parametrize("shard_count", [1, 2, 3, 5])
    def test_scattered_chase_equals_serial_oracle(self, movie_problem, fast_config, shard_count):
        chase = make_chase(movie_problem, fast_config)
        chase.attach_shard_scatter(
            SerialShardScatter(ShardedInstance(movie_problem.database, shard_count))
        )
        reference = make_chase(movie_problem, fast_config)
        for relevant, example in zip(chase.relevant_many(ALL_EXAMPLES), ALL_EXAMPLES):
            assert_same_relevant(relevant, relevant_serial(reference, example))

    def test_scattered_equals_unsharded_batched(self, movie_problem, fast_config):
        sharded_chase = make_chase(movie_problem, fast_config)
        sharded_chase.attach_shard_scatter(
            SerialShardScatter(ShardedInstance(movie_problem.database, 3))
        )
        plain_chase = make_chase(movie_problem, fast_config)
        for scattered, plain in zip(
            sharded_chase.relevant_many(ALL_EXAMPLES), plain_chase.relevant_many(ALL_EXAMPLES)
        ):
            assert_same_relevant(scattered, plain)

    def test_exact_match_only_and_no_mds_modes(self, movie_problem, fast_config):
        for config in (fast_config.but(exact_match_only=True), fast_config.but(use_mds=False)):
            chase = make_chase(movie_problem, config)
            chase.attach_shard_scatter(
                SerialShardScatter(ShardedInstance(movie_problem.database, 2))
            )
            reference = make_chase(movie_problem, config)
            for relevant, example in zip(chase.relevant_many(ALL_EXAMPLES), ALL_EXAMPLES):
                assert_same_relevant(relevant, relevant_serial(reference, example))


class TestProcessScatterIdentity:
    def test_process_scatter_equals_serial_oracle(self, movie_problem, fast_config):
        chase = make_chase(movie_problem, fast_config)
        scatter = SaturationFanout(ShardedInstance(movie_problem.database, 2))
        try:
            chase.attach_shard_scatter(scatter)
            reference = make_chase(movie_problem, fast_config)
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a silent fallback would hide the plane
                results = chase.relevant_many(ALL_EXAMPLES)
            for relevant, example in zip(results, ALL_EXAMPLES):
                assert_same_relevant(relevant, relevant_serial(reference, example))
            assert chase._shard_scatter is scatter  # never detached
        finally:
            scatter.close()


class TestBackendConfig:
    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="parallel_backend"):
            DLearnConfig(parallel_backend="gevent")

    def test_rejects_the_retired_thread_backend(self):
        with pytest.raises(ValueError, match="parallel_backend"):
            DLearnConfig(parallel_backend="thread")
        assert DLearnConfig().parallel_backend == "serial"

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_accepts_the_two_backends(self, backend):
        assert DLearnConfig(parallel_backend=backend).parallel_backend == backend


class TestSessionWiring:
    def test_serial_backend_gets_in_process_scatter(self, movie_problem, fast_config):
        session = LearningSession(movie_problem, fast_config.but(shard_count=2))
        assert isinstance(session.chase._shard_scatter, SerialShardScatter)
        session.preparation.close()

    def test_process_backend_gets_worker_scatter(self, movie_problem, fast_config):
        config = fast_config.but(shard_count=2, parallel_backend="process")
        session = LearningSession(movie_problem, config)
        assert isinstance(session.chase._shard_scatter, SaturationFanout)
        for relevant, example in zip(
            session.chase.relevant_many(ALL_EXAMPLES), ALL_EXAMPLES
        ):
            assert_same_relevant(relevant, relevant_serial(session.chase, example))
        session.preparation.close()

    def test_scatter_planes_are_memoised_and_recreated_after_close(self, movie_problem):
        preparation = DatabasePreparation.from_problem(movie_problem)
        scatter = preparation.shard_scatter(2, "serial")
        assert preparation.shard_scatter(2, "serial") is scatter
        assert preparation.shard_scatter(3, "serial") is not scatter
        scatter.close()
        replacement = preparation.shard_scatter(2, "serial")
        assert replacement is not scatter
        preparation.close()
        with pytest.raises(RuntimeError, match="closed"):
            replacement.depth_tables((), (), ())

    def test_sharded_instance_is_shared_across_planes(self, movie_problem):
        preparation = DatabasePreparation.from_problem(movie_problem)
        assert preparation.sharded_instance(2) is preparation.sharded_instance(2)
        assert preparation.shard_scatter(2, "serial").sharded is preparation.sharded_instance(2)
        preparation.close()


class _ExplodingScatter:
    """A scatter plane whose pool is structurally broken."""

    def __init__(self, error: Exception) -> None:
        self.error = error

    def depth_tables(self, names, frontier, equal_probes):
        raise self.error

    def close(self) -> None:  # pragma: no cover - interface parity
        pass


class TestFallback:
    def test_structural_failure_detaches_and_falls_back(self, movie_problem, fast_config):
        chase = make_chase(movie_problem, fast_config)
        chase.attach_shard_scatter(_ExplodingScatter(OSError("worker pool died")))
        reference = make_chase(movie_problem, fast_config)
        with pytest.warns(RuntimeWarning, match="falling back"):
            results = chase.relevant_many(ALL_EXAMPLES)
        assert chase._shard_scatter is None
        for relevant, example in zip(results, ALL_EXAMPLES):
            assert_same_relevant(relevant, relevant_serial(reference, example))

    def test_desync_is_a_protocol_bug_and_propagates(self, movie_problem, fast_config):
        chase = make_chase(movie_problem, fast_config)
        chase.attach_shard_scatter(_ExplodingScatter(RuntimeError("shard worker desynchronised")))
        with pytest.raises(RuntimeError, match="desynchronised"):
            chase.relevant_many(ALL_EXAMPLES)


class TestInsertMidSession:
    def test_insert_mid_session_stays_identical(self, movie_problem, fast_config):
        database = movie_problem.database.copy()
        problem = movie_problem.with_database(database)
        chase = make_chase(problem, fast_config)
        chase.attach_shard_scatter(SerialShardScatter(ShardedInstance(database, 3)))
        before = chase.relevant_many(ALL_EXAMPLES)
        for relevant, example in zip(before, ALL_EXAMPLES):
            assert_same_relevant(relevant, relevant_serial(chase, example))
        # An insert in place: the scatter plane must pick the new row up
        # through its per-depth sync, after the session-level invalidation
        # every in-place write already triggers.
        database.insert("movies", ("m1", "Superbad Again", 2008))
        chase.invalidate()
        after = chase.relevant_many(ALL_EXAMPLES)
        assert ("m1", "Superbad Again", 2008) in [t.values for t in after[0].tuples]
        fresh = make_chase(problem, fast_config)
        for scattered, plain in zip(after, fresh.relevant_many(ALL_EXAMPLES)):
            assert_same_relevant(scattered, plain)
        for relevant, example in zip(after, ALL_EXAMPLES):
            assert_same_relevant(relevant, relevant_serial(chase, example))
