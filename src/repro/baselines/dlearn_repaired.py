"""DLearn-Repaired: repair the CFD violations first, then learn with MDs only.

Section 6.1.3: "we compare [DLearn-CFD] with a version of DLearn that
supports only MDs and is run over a version of the database whose CFD
violations are repaired, DLearn-Repaired.  We obtain this repair using the
minimal repair method."  Table 5 compares the two at increasing violation
rates.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..constraints.repairs import minimal_cfd_repair
from ..core.config import DLearnConfig
from ..core.dlearn import DLearn, LearnedModel
from ..core.problem import LearningProblem
from ..core.session import DatabasePreparation

__all__ = ["DLearnRepaired", "DLearnCFD"]


@dataclass
class DLearnRepaired:
    """Minimal-repair the CFD violations, then run MD-only DLearn."""

    config: DLearnConfig = DLearnConfig()

    name = "DLearn-Repaired"

    def fit(
        self, problem: LearningProblem, *, preparation: DatabasePreparation | None = None
    ) -> LearnedModel:
        # The repair is a different instance from the dirty one; a shared
        # preparation over the dirty one would answer probes for the wrong
        # tuples, so the learner builds its own.
        del preparation
        repaired_database = minimal_cfd_repair(problem.database, problem.cfds)
        repaired_problem = problem.with_database(repaired_database).with_constraints(cfds=[])
        config = self.config.but(use_cfds=False)
        return DLearn(config).fit(repaired_problem)


@dataclass
class DLearnCFD:
    """Full DLearn with both MD and CFD support (the paper's DLearn-CFD)."""

    config: DLearnConfig = DLearnConfig()

    name = "DLearn-CFD"

    def fit(
        self, problem: LearningProblem, *, preparation: DatabasePreparation | None = None
    ) -> LearnedModel:
        config = self.config.but(use_mds=True, use_cfds=True)
        return DLearn(config).fit(problem, preparation=preparation)
