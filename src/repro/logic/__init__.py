"""First-order logic substrate: terms, literals, clauses and θ-subsumption.

This package implements the clause language of the paper — ordinary Horn
clauses (Section 2.1) extended with similarity, equality/inequality and
repair literals (Section 3.2) — together with the θ-subsumption engine that
the learner uses for generalisation and coverage testing (Section 4).
"""

from .atoms import (
    Comparison,
    ComparisonOp,
    Condition,
    Literal,
    LiteralKind,
    TRUE_CONDITION,
    equality_literal,
    inequality_literal,
    relation_literal,
    repair_literal,
    similarity_literal,
)
from .clauses import Definition, HornClause
from .compiled import ClauseCompiler, CompiledGeneral, CompiledSpecific, TermInterner
from .substitution import Substitution
from .subsumption import SubsumptionChecker, SubsumptionResult, theta_subsumes
from .terms import (
    Constant,
    Term,
    Variable,
    VariableFactory,
    fresh_variable,
    is_constant,
    is_variable,
    matched_constant,
)

__all__ = [
    "ClauseCompiler",
    "Comparison",
    "ComparisonOp",
    "CompiledGeneral",
    "CompiledSpecific",
    "Condition",
    "Constant",
    "Definition",
    "HornClause",
    "Literal",
    "LiteralKind",
    "Substitution",
    "SubsumptionChecker",
    "SubsumptionResult",
    "Term",
    "TermInterner",
    "TRUE_CONDITION",
    "Variable",
    "VariableFactory",
    "equality_literal",
    "fresh_variable",
    "inequality_literal",
    "is_constant",
    "is_variable",
    "matched_constant",
    "relation_literal",
    "repair_literal",
    "similarity_literal",
    "theta_subsumes",
]
