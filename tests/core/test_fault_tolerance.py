"""Chaos suite: injected faults must recover to bit-identical results.

The supervision layer's claim is that a shard worker killed -9
mid-dispatch, a chunk delayed past its deadline, a corrupted wire payload
and a dropped interner delta are all *recoverable*: the worker respawns
from pure wire state, is re-seeded, the lost chunk is re-dispatched, and
relevant tuples / learned definitions are exactly what a fault-free run
produces.  Every test here drives a real process pool through
:mod:`repro.testing.chaos` and compares against the serial oracle.

The degradation ladder (``recover`` → ``degrade_serial`` → ``raise``) and
the demotion-closes-the-pool leak fix are pinned at the saturation
integration point; spawn start-method coverage keeps the recovery path
honest under the pickle-everything regime CI's Linux ``fork`` default never
exercises.
"""

from __future__ import annotations

import warnings

import pytest

from repro.core import DLearn, FrontierChase, LearningSession
from repro.core.fanout import _START_METHOD_ENV, SaturationFanout, SerialShardScatter, _start_method
from repro.core.problem import Example
from repro.core.supervision import DeadlinePolicy, FanoutFault, FanoutFaultError, FaultPolicy
from repro.db.sharding import RelationShard, ShardedInstance
from repro.testing.chaos import ChaosInjector, ChaosSpec
from repro.testing.oracles import relevant_serial

ALL_EXAMPLES = [
    Example(("m1",), True),
    Example(("m2",), True),
    Example(("m3",), False),
    Example(("m4",), False),
]

#: Far above any healthy movie-problem chunk, far below test patience.
_DEADLINES = DeadlinePolicy(dispatch_timeout=20.0, backoff=2.0, max_retries=2)
#: Trips the 1-second deadline used by the delay tests.
_SHORT_DEADLINES = DeadlinePolicy(dispatch_timeout=1.0, backoff=3.0, max_retries=2)


# --------------------------------------------------------------------- #
# acceptance: kill -9 and a deadline miss mid-fit, on the process plane
# --------------------------------------------------------------------- #
class TestFitUnderChaos:
    def test_fit_with_kill_and_delay_completes_on_the_process_plane(
        self, movie_problem, fast_config
    ):
        serial_model = DLearn(fast_config).fit(movie_problem)
        config = fast_config.but(
            shard_count=2,
            parallel_backend="process",
            deadline_policy=_SHORT_DEADLINES,
            chaos=ChaosSpec(kill_at=(1,), delay_at=(3,), delay_seconds=6.0),
        )
        session = LearningSession(movie_problem, config)
        with pytest.warns(FanoutFault):
            model = DLearn(config).fit(movie_problem, session=session)
        try:
            assert model.clauses == serial_model.clauses  # bit-identical learning
            stats = session.fault_stats()["saturation"]
            assert stats is not None
            assert stats["faults"]["crash"] >= 1
            assert stats["faults"]["timeout"] >= 1
            assert stats["recoveries"] >= 2
            assert stats["demotions"] == 0
            # never left the process plane
            assert isinstance(session.chase._shard_scatter, SaturationFanout)
        finally:
            session.preparation.close()


# --------------------------------------------------------------------- #
# saturation plane: shard scatter chaos and its ladder
# --------------------------------------------------------------------- #
def _make_chase(problem, config) -> FrontierChase:
    indexes = problem.build_similarity_indexes(
        top_k=config.top_k_matches, threshold=config.similarity_threshold
    )
    return FrontierChase(problem, config, indexes)


def _assert_same_relevant(left, right):
    assert [t.values for t in left.tuples] == [t.values for t in right.tuples]
    assert [t.relation for t in left.tuples] == [t.relation for t in right.tuples]
    assert left.similarity_evidence == right.similarity_evidence


class TestSaturationRecoveryIdentity:
    def test_killed_shard_worker_recovers_bit_identically(self, movie_problem, fast_config):
        chase = _make_chase(movie_problem, fast_config)
        scatter = SaturationFanout(
            ShardedInstance(movie_problem.database, 2),
            deadline_policy=_DEADLINES,
            chaos=ChaosInjector(ChaosSpec(kill_at=(0,))),
        )
        try:
            chase.attach_shard_scatter(scatter)
            reference = _make_chase(movie_problem, fast_config)
            with pytest.warns(FanoutFault):
                results = chase.relevant_many(ALL_EXAMPLES)
            for relevant, example in zip(results, ALL_EXAMPLES):
                _assert_same_relevant(relevant, relevant_serial(reference, example))
            assert chase._shard_scatter is scatter  # recovered, not detached
            counters = chase.fault_counters
            assert counters.faults["crash"] == 1 and counters.recoveries == 1
        finally:
            scatter.close()

    def test_delayed_shard_depth_recovers_bit_identically(self, movie_problem, fast_config):
        chase = _make_chase(movie_problem, fast_config)
        scatter = SaturationFanout(
            ShardedInstance(movie_problem.database, 2),
            deadline_policy=_SHORT_DEADLINES,
            chaos=ChaosInjector(ChaosSpec(delay_at=(1,), delay_seconds=6.0)),
        )
        try:
            chase.attach_shard_scatter(scatter)
            reference = _make_chase(movie_problem, fast_config)
            with pytest.warns(FanoutFault):
                results = chase.relevant_many(ALL_EXAMPLES)
            for relevant, example in zip(results, ALL_EXAMPLES):
                _assert_same_relevant(relevant, relevant_serial(reference, example))
            assert chase.fault_counters.faults["timeout"] >= 1
        finally:
            scatter.close()

    def test_supervised_desync_is_recovered_not_propagated(self, movie_problem, fast_config):
        """A supervised scatter repairs a lost delta by full re-seed.

        (The *unsupervised* desync-propagates pin lives in
        ``test_shard_chase.py`` — protocol bugs on a plane nobody supervises
        must still surface.)
        """
        chase = _make_chase(movie_problem, fast_config)
        sharded = ShardedInstance(movie_problem.database, 2)
        scatter = SaturationFanout(
            sharded,
            deadline_policy=_DEADLINES,
            chaos=ChaosInjector(ChaosSpec(drop_delta_at=(0, 1, 2, 3))),
        )
        try:
            chase.attach_shard_scatter(scatter)
            reference = _make_chase(movie_problem, fast_config)
            # Drop ordinals only bite when a depth actually ships an interner
            # delta; over a static database the first depths ship none, so
            # this run must above all stay *identical* — and warning-free
            # when nothing fired, loud when something did.
            with warnings.catch_warnings(record=True) as captured:
                warnings.simplefilter("always")
                results = chase.relevant_many(ALL_EXAMPLES)
            for relevant, example in zip(results, ALL_EXAMPLES):
                _assert_same_relevant(relevant, relevant_serial(reference, example))
            assert all(
                isinstance(w.message, FanoutFault)
                for w in captured
                if issubclass(w.category, RuntimeWarning)
            )
        finally:
            scatter.close()

    @pytest.mark.parametrize(
        "policy",
        [FaultPolicy(max_recoveries=0), FaultPolicy(mode="degrade_serial")],
        ids=["exhausted-budget", "degrade_serial"],
    )
    def test_terminal_fault_demotes_to_the_unsharded_chase(
        self, movie_problem, fast_config, policy
    ):
        chase = _make_chase(movie_problem, fast_config.but(fault_policy=policy))
        scatter = SaturationFanout(
            ShardedInstance(movie_problem.database, 2),
            fault_policy=policy,
            deadline_policy=_DEADLINES,
            chaos=ChaosInjector(ChaosSpec(kill_at=(0,))),
        )
        chase.attach_shard_scatter(scatter)
        reference = _make_chase(movie_problem, fast_config)
        with pytest.warns(FanoutFault, match="falling back") as captured:
            results = chase.relevant_many(ALL_EXAMPLES)
        for relevant, example in zip(results, ALL_EXAMPLES):
            _assert_same_relevant(relevant, relevant_serial(reference, example))
        demotions = [w.message for w in captured.list if "demoted" in str(w.message)]
        assert demotions and demotions[0].kind == "crash"
        assert chase._shard_scatter is None  # detached...
        assert scatter._closed  # ...and closed, healthy shard worker included
        assert chase.fault_counters.demotions == 1

    def test_raise_mode_propagates_from_the_chase(self, movie_problem, fast_config):
        chase = _make_chase(movie_problem, fast_config.but(fault_policy=FaultPolicy(mode="raise")))
        scatter = SaturationFanout(
            ShardedInstance(movie_problem.database, 2),
            fault_policy=FaultPolicy(mode="raise"),
            deadline_policy=_DEADLINES,
            chaos=ChaosInjector(ChaosSpec(kill_at=(0,))),
        )
        try:
            chase.attach_shard_scatter(scatter)
            with pytest.raises(FanoutFaultError) as excinfo:
                chase.relevant_many(ALL_EXAMPLES)
            assert excinfo.value.pool == "saturation"
        finally:
            scatter.close()


# --------------------------------------------------------------------- #
# spawn start method: recovery must survive the pickle-everything regime
# --------------------------------------------------------------------- #
class TestSpawnStartMethod:
    def test_process_pool_start_method_override_is_honoured(self, monkeypatch):
        monkeypatch.delenv(_START_METHOD_ENV, raising=False)
        assert _start_method() in ("fork", "spawn")
        monkeypatch.setenv(_START_METHOD_ENV, "spawn")
        assert _start_method() == "spawn"

    def test_saturation_recovery_after_respawn_under_spawn(self, movie_problem):
        sharded = ShardedInstance(movie_problem.database, 2)
        scatter = SaturationFanout(
            sharded,
            start_method="spawn",
            deadline_policy=_DEADLINES,
            chaos=ChaosInjector(ChaosSpec(kill_at=(0,))),
        )
        oracle = SerialShardScatter(ShardedInstance(movie_problem.database, 2))
        names = tuple(sorted(rel.schema.name for rel in movie_problem.database))
        frontier = tuple(sorted(movie_problem.database.intern_values(("m1", "m2"))))
        try:
            with pytest.warns(FanoutFault):
                membership, equality = scatter.depth_tables(names, frontier, ())
            assert (membership, equality) == oracle.depth_tables(names, frontier, ())
            assert scatter.supervisor.counters.recoveries == 1
        finally:
            scatter.close()
            oracle.close()


# --------------------------------------------------------------------- #
# lifecycle edges
# --------------------------------------------------------------------- #
class TestLifecycle:
    def test_saturation_fanout_close_is_idempotent_and_depth_after_close_raises(
        self, movie_problem
    ):
        scatter = SaturationFanout(ShardedInstance(movie_problem.database, 2))
        scatter.close()
        scatter.close()
        with pytest.raises(RuntimeError, match="closed"):
            scatter.depth_tables((), (), ())

    def test_fault_stats_are_none_without_supervised_pools(self, movie_problem, fast_config):
        session = LearningSession(movie_problem, fast_config)
        try:
            assert session.fault_stats() == {"saturation": None}
        finally:
            session.preparation.close()


# --------------------------------------------------------------------- #
# corrupt wire validation at the sharding layer
# --------------------------------------------------------------------- #
class TestShardWireValidation:
    def test_wrong_shape_is_rejected(self):
        with pytest.raises(ValueError, match="corrupt shard wire"):
            RelationShard.from_wire(("__chaos_corrupt_wire__",))

    def test_malformed_header_is_rejected(self):
        with pytest.raises(ValueError, match="header"):
            RelationShard.from_wire((42, "not-an-index", (), b""))

    def test_disagreeing_column_lengths_are_rejected(self, movie_problem):
        sharded = ShardedInstance(movie_problem.database, 2)
        shard = sharded.shard_relations()["movies"].shards[0]
        assert len(shard) > 0
        name, index, columns, global_rows = shard.to_wire()
        truncated = tuple(column[:-8] for column in columns)
        with pytest.raises(ValueError, match="column lengths"):
            RelationShard.from_wire((name, index, truncated, global_rows))

    def test_roundtrip_of_a_healthy_wire_still_works(self, movie_problem):
        sharded = ShardedInstance(movie_problem.database, 2)
        shard = sharded.shard_relations()["movies"].shards[0]
        rebuilt = RelationShard.from_wire(shard.to_wire())
        assert len(rebuilt) == len(shard)
        assert rebuilt.id_rows() == shard.id_rows()
