"""Session-level verdict cache and compiled-engine wiring of the coverage engine.

The covering loop re-scores surviving candidate clauses against the full
example set round after round; the verdict cache must serve settled
(candidate, ground clause, label semantics) triples without re-proving them,
must key the two label semantics separately, and must reset with
``clear_cache``.  The wiring tests pin the session-level sharing contracts:
one :class:`~repro.logic.compiled.ClauseCompiler` per engine (the
preparation's, for sessions), and the engine proving through the very
checker it was given, so a reference checker keeps the reference engine.
The reference-fit tests run
whole learning runs on the object-level reference engine and require the
production definitions and predictions bit for bit.
"""

from __future__ import annotations

import pytest

from repro.core import BottomClauseBuilder, CoverageEngine, DLearn, DLearnConfig, Example, LearningSession
from repro.data.registry import generate
from repro.data.synthetic import ScenarioSpec
from repro.logic.atoms import LiteralKind
from repro.logic.compiled import ClauseCompiler
from repro.logic.subsumption import SubsumptionChecker
from repro.testing.oracles import ReferenceSubsumptionChecker, covers_serial, install_reference_subsumption

POS_M1 = Example(("m1",), True)
POS_M2 = Example(("m2",), True)
NEG_M3 = Example(("m3",), False)


def make_engine(problem, config, checker: SubsumptionChecker | None = None) -> CoverageEngine:
    indexes = problem.build_similarity_indexes(
        top_k=config.top_k_matches, threshold=config.similarity_threshold
    )
    builder = BottomClauseBuilder(problem, config, indexes)
    return CoverageEngine(builder, config, checker or SubsumptionChecker())


@pytest.fixture
def engine(movie_problem, fast_config) -> CoverageEngine:
    return make_engine(movie_problem, fast_config)


@pytest.fixture
def candidate(engine) -> object:
    return engine.builder.build(POS_M1, ground=False)


class TestVerdictCache:
    def test_settled_pairs_are_not_reproved(self, engine, candidate, monkeypatch):
        proofs = []
        original = engine._prove_ground

        def counting(general, ground, *, positive):
            proofs.append((general.clause, ground.clause, positive))
            return original(general, ground, positive=positive)

        monkeypatch.setattr(engine, "_prove_ground", counting)
        first = engine.batch_covers(candidate, [POS_M1, POS_M2, NEG_M3])
        proved_once = len(proofs)
        assert proved_once == 3
        # Re-scoring the same clause (another generalisation round) hits the
        # cache for every pair.
        assert engine.batch_covers(candidate, [POS_M1, POS_M2, NEG_M3]) == first
        assert len(proofs) == proved_once

    def test_label_semantics_are_keyed_separately(self, engine, candidate):
        as_positive = Example(("m1",), True)
        as_negative = Example(("m1",), False)
        engine.covers(candidate, as_positive)
        engine.covers(candidate, as_negative)
        flags = {key[2] for key in engine._verdict_cache}
        assert flags == {True, False}

    def test_cached_verdicts_match_serial_reference(self, engine, candidate):
        examples = [POS_M1, POS_M2, NEG_M3]
        batched = engine.batch_covers(candidate, examples)
        twice = engine.batch_covers(candidate, examples)
        serial = [covers_serial(engine, candidate, example) for example in examples]
        assert batched == twice == serial

    def test_clear_cache_resets_verdicts(self, engine, candidate):
        engine.covers(candidate, POS_M1)
        assert engine._verdict_cache
        engine.clear_cache()
        assert not engine._verdict_cache


class TestCompiledWiring:
    def test_engine_provisions_one_compiler_for_all_checkers(self, engine):
        assert engine.compiler is engine.checker.compiler

    def test_thread_checker_inherits_compiled_mode(self, movie_problem, fast_config):
        # The engine proves through the very checker it was given, so a
        # reference checker stays one (the oracle must never silently prove
        # on the compiled engine), and the engine's compiler is the one the
        # checker built in its initialiser.
        checker = ReferenceSubsumptionChecker(max_steps=500)
        engine = make_engine(movie_problem, fast_config, checker)
        assert engine.checker is checker
        assert type(engine.checker) is ReferenceSubsumptionChecker
        assert engine.checker.max_steps == 500
        assert engine.checker.compiler is engine.compiler

    def test_reference_mode_produces_identical_verdicts(self, movie_problem, fast_config):
        compiled_engine = make_engine(movie_problem, fast_config)
        reference_engine = make_engine(movie_problem, fast_config, ReferenceSubsumptionChecker())
        examples = [POS_M1, POS_M2, NEG_M3]
        candidate = compiled_engine.builder.build(POS_M1, ground=False)
        assert compiled_engine.batch_covers(candidate, examples) == reference_engine.batch_covers(
            candidate, examples
        )

    def test_second_session_reuses_compiled_ground_forms(self, movie_problem, fast_config, monkeypatch):
        # Compiled forms belong to the preparation's compiler, not to a
        # session: a second session over the same preparation rebuilds the
        # examples' ground clauses but compiles none of them again.
        first = LearningSession(movie_problem, fast_config)
        examples = first.problem.examples.all()
        grounds = first.engine.prepared_grounds(examples)
        compiles = []
        original = ClauseCompiler.compile_specific

        def counting(compiler, clause):
            compiles.append(clause)
            return original(compiler, clause)

        monkeypatch.setattr(ClauseCompiler, "compile_specific", counting)
        second = LearningSession(movie_problem, fast_config, preparation=first.preparation)
        again = second.engine.prepared_grounds(examples)
        assert compiles == []
        assert all(new is old for new, old in zip(again, grounds))

    def test_session_shares_preparation_compiler(self, movie_problem, fast_config):
        from repro.core import LearningSession

        session = LearningSession(movie_problem, fast_config)
        assert session.engine.compiler is session.preparation.compiler
        evaluation = session.for_examples(session.problem.examples)
        assert evaluation.engine.compiler is session.preparation.compiler


def _dirty_synthetic_problem():
    """A small CFD-heavy, MD-drifted world whose ground clauses carry ``~`` and CFD literals."""
    spec = ScenarioSpec(
        n_entities=30,
        n_positives=6,
        n_negatives=12,
        string_variant_intensity=0.6,
        md_drift=0.7,
        cfd_violation_rate=0.25,
        null_rate=0.05,
        duplicate_rate=0.1,
        seed=1,
    )
    return generate("synthetic", spec=spec).problem()


_DIRTY_CONFIG = DLearnConfig(
    iterations=2,
    sample_size=4,
    top_k_matches=3,
    generalization_sample=4,
    max_clauses=4,
    min_clause_positive_coverage=2,
    min_clause_precision=0.55,
    # Unreduced clauses keep their similarity and repair literals, so the
    # learned definitions themselves exercise the extended language.
    reduce_clauses=False,
    seed=0,
)


class TestReferenceFit:
    """A whole ``fit`` on the reference engine learns and predicts exactly what production does."""

    @staticmethod
    def _fit_both(problem, config):
        production = DLearn(config).fit(problem)
        session = install_reference_subsumption(LearningSession(problem, config))
        reference = DLearn(config).fit(problem, session=session)
        assert type(session.engine.checker) is ReferenceSubsumptionChecker
        assert [str(c) for c in reference.clauses] == [str(c) for c in production.clauses]
        examples = problem.examples.all()
        assert session.engine.batch_predicts_positive(reference.definition.clauses, examples) == (
            production.predict(examples)
        )
        return production, session

    def test_movie_world(self, movie_problem, fast_config):
        production, _ = self._fit_both(movie_problem, fast_config)
        assert production.clauses

    def test_dirty_synthetic_world(self):
        problem = _dirty_synthetic_problem()
        production, session = self._fit_both(problem, _DIRTY_CONFIG)
        learned = [literal for clause in production.clauses for literal in clause.body]
        assert any(literal.kind is LiteralKind.SIMILARITY for literal in learned)
        grounds = [session.engine.ground_bottom_clause(example) for example in problem.examples.all()]
        assert any(
            literal.is_repair and literal.provenance.startswith("cfd:")
            for ground in grounds
            for literal in ground.body
        )
