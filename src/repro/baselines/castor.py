"""Castor-style baselines: the same bottom-up learner without repair semantics.

Castor (Picado et al., SIGMOD 2017) is the state-of-the-art bottom-up
relational learner the paper compares against.  Its learning loop is the same
covering + bottom-clause + generalisation pipeline as DLearn's; what it lacks
is any notion of matching dependencies, similarity literals or repair
literals.  The three baseline flavours of Section 6.1.3 are therefore
configuration variants of the shared :class:`repro.core.DLearn` engine:

* **Castor-NoMD** — no MDs at all.  Without them the learner has no way to
  connect the two data sources, so bottom-clause construction is restricted
  to the relations of the target's own source.
* **Castor-Exact** — MD attributes may be joined, but only on exact equality
  (``exact_match_only=True``): no similarity literals, no repair literals.
* **Castor-Clean** — heterogeneities are resolved up front by
  :func:`repro.baselines.entity_resolution.resolve_entities`, then the plain
  learner runs over the cleaned database.

All baselines ignore CFDs (Castor has no CFD support); CFD handling is
compared separately through :class:`repro.baselines.dlearn_repaired.DLearnRepaired`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.config import DLearnConfig
from ..core.dlearn import DLearn, LearnedModel
from ..core.problem import LearningProblem
from ..core.session import DatabasePreparation
from .entity_resolution import resolve_entities

__all__ = ["CastorNoMD", "CastorExact", "CastorClean"]


def _without_constraints(problem: LearningProblem, *, keep_mds: bool = False) -> LearningProblem:
    return problem.with_constraints(mds=list(problem.mds) if keep_mds else [], cfds=[])


@dataclass
class CastorNoMD:
    """Castor over the original database, ignoring MDs entirely."""

    config: DLearnConfig = DLearnConfig()
    target_source: str | None = None

    name = "Castor-NoMD"

    def fit(
        self, problem: LearningProblem, *, preparation: DatabasePreparation | None = None
    ) -> LearnedModel:
        restrict = frozenset({self.target_source}) if self.target_source else None
        config = self.config.but(use_mds=False, use_cfds=False, restrict_sources=restrict)
        return DLearn(config).fit(_without_constraints(problem), preparation=preparation)


@dataclass
class CastorExact:
    """Castor with MD attributes joinable through exact matches only."""

    config: DLearnConfig = DLearnConfig()

    name = "Castor-Exact"

    def fit(
        self, problem: LearningProblem, *, preparation: DatabasePreparation | None = None
    ) -> LearnedModel:
        config = self.config.but(use_mds=True, use_cfds=False, exact_match_only=True)
        return DLearn(config).fit(problem.with_constraints(cfds=[]), preparation=preparation)


@dataclass
class CastorClean:
    """Castor over a database whose MD heterogeneities were resolved up front."""

    config: DLearnConfig = DLearnConfig()

    name = "Castor-Clean"

    def fit(
        self, problem: LearningProblem, *, preparation: DatabasePreparation | None = None
    ) -> LearnedModel:
        # Entity resolution builds a different instance, so a shared
        # preparation over the original one cannot be reused here.
        del preparation
        cleaned_database = resolve_entities(
            problem, top_k=1, threshold=self.config.similarity_threshold
        )
        cleaned_problem = _without_constraints(problem.with_database(cleaned_database))
        config = self.config.but(use_mds=False, use_cfds=False)
        return DLearn(config).fit(cleaned_problem)
