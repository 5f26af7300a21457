"""Verdict-cache invalidation on database mutation.

The session-level verdict cache memoises (candidate, ground clause) proofs,
which an insert into the database makes stale.  The coverage engine stamps
the database (:meth:`mutation_stamp`, per-relation row counts: ``insert`` is
the only in-place write) and drops every derived cache — ground clauses,
verdicts, saturation results, probe tables — when the stamp moves.
"""

from __future__ import annotations

from repro.core import (
    BottomClauseBuilder,
    CoverageEngine,
    DLearnConfig,
    Example,
    ExampleSet,
    LearningProblem,
    LearningSession,
)
from repro.db import (
    AttributeType,
    DatabaseInstance,
    DatabaseSchema,
    RelationSchema,
)
from repro.logic.subsumption import SubsumptionChecker

POS_E1 = Example(("e1",), True)
NEG_E2 = Example(("e2",), False)


def tag_problem(database: DatabaseInstance) -> LearningProblem:
    """p(id) over r(id, v): e1 is tagged "good", e2 is (initially) untagged."""
    return LearningProblem(
        database=database,
        target=RelationSchema.of("p", [("id", AttributeType.STRING)]),
        examples=ExampleSet.of(positives=[("e1",)], negatives=[("e2",)]),
        constant_attributes=frozenset({("r", "v")}),
    )


def tag_database() -> DatabaseInstance:
    schema = DatabaseSchema.of(
        RelationSchema.of("r", [("id", AttributeType.STRING), ("v", AttributeType.STRING)])
    )
    database = DatabaseInstance(schema)
    database.insert("r", ("e1", "good"))
    return database


def tag_engine(problem: LearningProblem) -> CoverageEngine:
    config = DLearnConfig(iterations=1, sample_size=4, top_k_matches=2, generalization_sample=2)
    builder = BottomClauseBuilder(problem, config, {})
    return CoverageEngine(builder, config, SubsumptionChecker())


class TestMutationStamp:
    def test_plain_instance_stamp_moves_on_insert_only(self):
        database = tag_database()
        stamp = database.mutation_stamp()
        list(database.relation("r").tuples())  # reads leave the stamp alone
        assert database.mutation_stamp() == stamp
        database.insert("r", ("e3", "bad"))
        assert database.mutation_stamp() != stamp


class TestVerdictCacheInvalidation:
    def test_repair_insert_flips_the_cached_verdict(self):
        database = tag_database()
        engine = tag_engine(tag_problem(database))
        candidate = engine.builder.build(POS_E1, ground=False)
        # Settle the verdicts: e1 is covered, the untagged e2 is not.
        assert engine.batch_covers(candidate, [POS_E1, NEG_E2]) == [True, False]
        # The repair: tag e2 like e1 in place.  Every derived cache is now
        # stale.
        database.insert("r", ("e2", "good"))
        assert engine.batch_covers(candidate, [POS_E1, NEG_E2]) == [True, True]

    def test_unmutated_database_keeps_the_caches(self, movie_problem, fast_config):
        session = LearningSession(movie_problem, fast_config)
        engine = session.engine
        prepared = engine.prepared_ground(POS_M1 := Example(("m1",), True))
        assert engine.prepared_ground(POS_M1) is prepared  # cache hit, no stamp move

