"""The DLearn learner: covering loop, learned models, prediction.

:class:`DLearn` ties the pieces together (Section 4):

1. open a :class:`~repro.core.session.LearningSession`, which builds the
   per-MD similarity indexes (top-``k_m`` matches, Section 5) and owns the
   batched saturation and coverage machinery;
2. covering loop (Algorithm 1): while uncovered positive examples remain,
   build the bottom clause of one of them (Algorithm 2), generalise it
   (Section 4.2), and accept it into the definition when it meets the minimum
   criterion;
3. return a :class:`LearnedModel` that can describe the learned definition
   and classify new tuples of the target relation — through the *same*
   session, so prediction and cross-validation test folds reuse the prepared
   similarity and probe state instead of rebuilding it per call.

The Castor-style baselines in :mod:`repro.baselines` reuse exactly this class
with different configuration switches, which is what makes the comparisons of
Section 6 apples-to-apples.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from ..logic.clauses import Definition, HornClause
from ..logic.subsumption import SubsumptionChecker
from .bottom_clause import ClauseAssembler
from .config import DLearnConfig
from .coverage import CoverageEngine
from .generalization import Generalizer, LearnedClause
from .problem import Example, ExampleSet, LearningProblem
from .saturation import FrontierChase
from .scoring import ClauseStats
from .session import DatabasePreparation, LearningSession

__all__ = ["DLearn", "LearnedModel"]


@dataclass
class LearnedModel:
    """The outcome of a learning run.

    Holds the learned Horn definition, per-clause training statistics, the
    configuration and problem it was learned from, the wall-clock learning
    time, and the learning session.  ``predict`` classifies fresh tuples of
    the target relation through a session derived for the evaluation example
    set: unseen values (e.g. test-fold titles) get their own similarity
    matches — exactly what the paper's 5-fold cross-validation requires —
    while everything example-set-independent (pair scoring, database probes)
    is reused from the training session's preparation.
    """

    definition: Definition
    clause_stats: list[ClauseStats]
    config: DLearnConfig
    problem: LearningProblem
    learning_time_seconds: float = 0.0
    session: LearningSession | None = None

    @property
    def clauses(self) -> list[HornClause]:
        return list(self.definition.clauses)

    def describe(self) -> str:
        """Human-readable rendering of the learned definition with coverage counts."""
        if not self.definition:
            return f"{self.problem.target_name}: <empty definition>"
        lines = []
        for clause, stats in zip(self.definition.clauses, self.clause_stats):
            lines.append(str(clause))
            lines.append(f"    (positives covered={stats.positives_covered}, negatives covered={stats.negatives_covered})")
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    # prediction
    # ------------------------------------------------------------------ #
    def predict(self, examples: Sequence[Example]) -> list[bool]:
        """Classify *examples*: ``True`` when the learned definition covers the tuple.

        Runs through the batched coverage API: every clause of the definition
        is prepared once and reused across all examples.  With a learning session attached the
        evaluation engine is memoised per example-value set, so consecutive
        calls classify through the same prepared indexes and ground clauses.
        """
        if not self.definition:
            return [False for _ in examples]
        engine = self._engine_for(examples)
        return engine.batch_predicts_positive(self.definition.clauses, examples)

    def _engine_for(self, examples: Sequence[Example]) -> CoverageEngine:
        if self.session is not None:
            return self.session.evaluation_session(examples).engine
        return self.fresh_engine_for(examples)

    def fresh_engine_for(self, examples: Sequence[Example]) -> CoverageEngine:
        """A coverage engine built from scratch for *examples*.

        The pre-session prediction path, kept as the reference the reused
        session is validated against: its verdicts must be identical to the
        session path's (the tests and perfbench assert this).
        """
        evaluation_problem = self.problem.with_examples(
            ExampleSet(
                positives=[e for e in examples if e.positive],
                negatives=[e for e in examples if e.negative],
            )
        )
        indexes = (
            evaluation_problem.build_similarity_indexes(
                top_k=self.config.top_k_matches, threshold=self.config.similarity_threshold
            )
            if self.config.use_mds
            else {}
        )
        chase = FrontierChase(evaluation_problem, self.config, indexes)
        assembler = ClauseAssembler(evaluation_problem, self.config, chase)
        return CoverageEngine(assembler, self.config, SubsumptionChecker())


class DLearn:
    """Bottom-up relational learner over dirty data (the paper's system)."""

    def __init__(self, config: DLearnConfig | None = None) -> None:
        self.config = config or DLearnConfig()

    # ------------------------------------------------------------------ #
    def session(
        self, problem: LearningProblem, *, preparation: DatabasePreparation | None = None
    ) -> LearningSession:
        """Open a learning session for *problem* (sharing *preparation* when given)."""
        return LearningSession(problem, self.config, preparation=preparation)

    def fit(
        self,
        problem: LearningProblem,
        *,
        session: LearningSession | None = None,
        preparation: DatabasePreparation | None = None,
    ) -> LearnedModel:
        """Learn a Horn definition of the problem's target relation (Algorithm 1).

        ``preparation`` shares example-set-independent prepared state (index
        scoring, database probes) with other fits over the same database
        instance — cross-validation folds, scenario-grid cells.  ``session``
        supplies a fully prepared session (it must be over *problem* with
        this learner's config); otherwise one is opened here.  The returned
        model keeps the session for prediction-time reuse.
        """
        config = self.config
        started = time.perf_counter()

        if session is None:
            session = self.session(problem, preparation=preparation)
        assembler = session.assembler
        engine = session.engine
        generalizer = session.generalizer

        positives = list(problem.examples.positives)
        negatives = list(problem.examples.negatives)
        uncovered = list(positives)
        definition = Definition(problem.target_name)
        clause_stats: list[ClauseStats] = []

        if uncovered:
            # A reused session may have seen a write since its last batch:
            # pass the engine's write check before the chase serves anything.
            engine.refresh_if_mutated()
            # Saturate every training example in one batched chase up front;
            # all later bottom-clause and ground-clause requests hit the
            # session's saturation cache.
            session.chase.relevant_many(positives + negatives)

        while uncovered and len(definition) < config.max_clauses:
            seed = uncovered[0]
            bottom_clause = assembler.bottom_clause(seed)
            learned: LearnedClause = generalizer.learn_clause(bottom_clause, uncovered, negatives)

            if learned.stats.satisfies_criterion(config):
                definition.add(learned.clause)
                clause_stats.append(learned.stats)
                covered_flags = engine.batch_covers(learned.clause, uncovered)
                remaining = [example for example, covered in zip(uncovered, covered_flags) if not covered]
                if len(remaining) == len(uncovered):
                    # Safety: the clause must cover its seed (Proposition 4.3);
                    # drop the seed explicitly if coverage testing disagrees.
                    remaining = [example for example in uncovered if example is not seed]
                uncovered = remaining
            else:
                uncovered = [example for example in uncovered if example is not seed]

        elapsed = time.perf_counter() - started
        return LearnedModel(
            definition=definition,
            clause_stats=clause_stats,
            config=config,
            problem=problem,
            learning_time_seconds=elapsed,
            session=session,
        )
