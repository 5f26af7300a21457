"""Verdict-cache invalidation on database mutation.

The session-level verdict cache memoises (candidate, ground clause) proofs;
before this fix it survived in-place delta mutation of an
:class:`~repro.db.overlay.OverlayInstance` (a repair inserting tuples mutates
the overlay's ``_added`` delta in place), serving verdicts computed against
database state that no longer exists.  The coverage engine now stamps the
database (:meth:`mutation_stamp`) and drops every derived cache — ground
clauses, verdicts, saturation results, probe tables — when the stamp moves.
"""

from __future__ import annotations

import pytest

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
    OverlayInstance,
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


def tag_database(*, overlay: bool) -> DatabaseInstance:
    schema = DatabaseSchema.of(
        RelationSchema.of("r", [("id", AttributeType.STRING), ("v", AttributeType.STRING)])
    )
    database = DatabaseInstance(schema)
    database.insert("r", ("e1", "good"))
    return OverlayInstance.over(database) if overlay else database


def tag_engine(problem: LearningProblem) -> CoverageEngine:
    config = DLearnConfig(iterations=1, sample_size=4, top_k_matches=2, generalization_sample=2)
    builder = BottomClauseBuilder(problem, config, {})
    return CoverageEngine(builder, config, SubsumptionChecker())


class TestMutationStamp:
    def test_plain_instance_stamp_moves_on_insert_only(self):
        database = tag_database(overlay=False)
        stamp = database.mutation_stamp()
        list(database.relation("r").tuples())  # reads leave the stamp alone
        assert database.mutation_stamp() == stamp
        database.insert("r", ("e3", "bad"))
        assert database.mutation_stamp() != stamp

    def test_overlay_stamp_moves_on_in_place_delta_insert(self):
        overlay = tag_database(overlay=True)
        stamp = overlay.mutation_stamp()
        assert overlay.mutation_stamp() == stamp
        # OverlayInstance.insert wraps the base relation in place and appends
        # to the overlay's _added delta; the base row count never changes, so
        # the stamp must witness the delta composition itself.
        overlay.insert("r", ("e2", "good"))
        assert len(overlay.base.relation("r")) == 1
        assert overlay.mutation_stamp() != stamp


class TestVerdictCacheInvalidation:
    @pytest.mark.parametrize("overlay", [True, False], ids=["overlay", "plain"])
    def test_repair_insert_flips_the_cached_verdict(self, overlay):
        database = tag_database(overlay=overlay)
        engine = tag_engine(tag_problem(database))
        candidate = engine.builder.build(POS_E1, ground=False)
        # Settle the verdicts: e1 is covered, the untagged e2 is not.
        assert engine.batch_covers(candidate, [POS_E1, NEG_E2]) == [True, False]
        # The repair: tag e2 like e1 (an in-place delta mutation when the
        # database is an overlay).  Every derived cache is now stale.
        database.insert("r", ("e2", "good"))
        assert engine.batch_covers(candidate, [POS_E1, NEG_E2]) == [True, True]

    def test_unmutated_database_keeps_the_caches(self, movie_problem, fast_config):
        session = LearningSession(movie_problem, fast_config)
        engine = session.engine
        prepared = engine.prepared_ground(POS_M1 := Example(("m1",), True))
        assert engine.prepared_ground(POS_M1) is prepared  # cache hit, no stamp move

