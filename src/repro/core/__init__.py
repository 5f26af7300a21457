"""DLearn core: the paper's primary contribution.

Bottom-clause construction over dirty data, repair-literal machinery,
generalisation, coverage testing, and the covering-loop learner.
"""

from .bottom_clause import ClauseAssembler, RelevantTuples, SimilarityEvidence
from .config import DLearnConfig
from .coverage import CoverageEngine
from .dlearn import DLearn, LearnedModel
from .generalization import Generalizer, LearnedClause
from .problem import Example, ExampleSet, LearningProblem
from .saturation import DatabaseProbeCache, FrontierChase, SaturationCache
from .session import DatabasePreparation, LearningSession
from .supervision import (
    DeadlinePolicy,
    FanoutFault,
    FanoutFaultError,
    FaultCounters,
    FaultPolicy,
)
from .repair_literals import (
    cfd_lhs_repair_literals,
    cfd_rhs_repair_literals,
    evaluate_condition,
    md_repair_literals,
    repair_groups,
    repaired_clauses,
    strip_repair_machinery,
)
from .scoring import ClauseStats, score_clause

__all__ = [
    "ClauseAssembler",
    "ClauseStats",
    "CoverageEngine",
    "DLearn",
    "DLearnConfig",
    "DatabasePreparation",
    "DatabaseProbeCache",
    "DeadlinePolicy",
    "Example",
    "ExampleSet",
    "FanoutFault",
    "FanoutFaultError",
    "FaultCounters",
    "FaultPolicy",
    "FrontierChase",
    "Generalizer",
    "LearnedClause",
    "LearnedModel",
    "LearningProblem",
    "LearningSession",
    "RelevantTuples",
    "SaturationCache",
    "SimilarityEvidence",
    "cfd_lhs_repair_literals",
    "cfd_rhs_repair_literals",
    "evaluate_condition",
    "md_repair_literals",
    "repair_groups",
    "repaired_clauses",
    "score_clause",
    "strip_repair_machinery",
]
