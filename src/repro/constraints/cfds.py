"""Conditional functional dependencies (CFDs).

Section 2.3: a CFD over relation ``R`` has the form ``(X → A, t_p)`` where
``X → A`` is a functional dependency and ``t_p`` is a *pattern tuple* over
``X ∪ {A}`` whose entries are either constants or the unnamed variable
``'-'``.  A pair of tuples violates the CFD when they agree on ``X``, match
the pattern on ``X``, but disagree on ``A`` or fail the pattern on ``A``.
Following the paper we keep CFDs in the normal form with a single right-hand
side attribute.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from ..db.schema import DatabaseSchema, RelationSchema, SchemaError
from ..db.tuples import Tuple

__all__ = ["WILDCARD", "ConditionalFunctionalDependency", "pattern_matches"]


class _Wildcard:
    """The unnamed pattern variable ``'-'``: matches any value."""

    _instance: "_Wildcard | None" = None

    def __new__(cls) -> "_Wildcard":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "-"

    def __str__(self) -> str:
        return "-"


WILDCARD = _Wildcard()


def pattern_matches(value: object, pattern: object) -> bool:
    """The paper's ``≍`` predicate: ``a ≍ b`` iff ``a == b`` or ``b`` is ``'-'``."""
    return pattern is WILDCARD or value == pattern


@dataclass(frozen=True)
class ConditionalFunctionalDependency:
    """A CFD ``(X → A, t_p)`` over one relation.

    Attributes
    ----------
    name:
        Identifier used in repair-literal provenance and reports.
    relation:
        Relation symbol the CFD is defined over (CFDs are single-relation).
    lhs:
        Left-hand side attribute names ``X``.
    rhs:
        The single right-hand side attribute ``A``.
    lhs_pattern:
        Pattern values for ``X`` in the same order as ``lhs``; entries are
        constants or :data:`WILDCARD`.
    rhs_pattern:
        Pattern value for ``A`` (constant or :data:`WILDCARD`).
    """

    name: str
    relation: str
    lhs: tuple[str, ...]
    rhs: str
    lhs_pattern: tuple[object, ...] = field(default=())
    rhs_pattern: object = WILDCARD

    def __post_init__(self) -> None:
        if not self.lhs:
            raise ValueError(f"CFD {self.name!r} needs at least one left-hand side attribute")
        if self.rhs in self.lhs:
            raise ValueError(f"CFD {self.name!r}: right-hand side {self.rhs!r} also appears on the left-hand side")
        if not self.lhs_pattern:
            object.__setattr__(self, "lhs_pattern", tuple(WILDCARD for _ in self.lhs))
        if len(self.lhs_pattern) != len(self.lhs):
            raise ValueError(
                f"CFD {self.name!r}: pattern has {len(self.lhs_pattern)} entries for {len(self.lhs)} LHS attributes"
            )

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def fd(cls, name: str, relation: str, lhs: Sequence[str], rhs: str) -> "ConditionalFunctionalDependency":
        """A plain functional dependency (all-wildcard pattern)."""
        return cls(name, relation, tuple(lhs), rhs)

    @classmethod
    def of(
        cls,
        name: str,
        relation: str,
        lhs: Sequence[str],
        rhs: str,
        pattern: Mapping[str, object] | None = None,
    ) -> "ConditionalFunctionalDependency":
        """Build a CFD with a pattern given as ``{attribute: constant}``.

        Attributes absent from *pattern* get the wildcard.
        """
        pattern = pattern or {}
        lhs_pattern = tuple(pattern.get(attribute, WILDCARD) for attribute in lhs)
        rhs_pattern = pattern.get(rhs, WILDCARD)
        return cls(name, relation, tuple(lhs), rhs, lhs_pattern, rhs_pattern)

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #
    def validate(self, schema: DatabaseSchema) -> None:
        relation_schema = schema.relation(self.relation)
        for attribute in (*self.lhs, self.rhs):
            if not relation_schema.has_attribute(attribute):
                raise SchemaError(f"CFD {self.name!r}: {self.relation}.{attribute} does not exist")

    @property
    def attributes(self) -> tuple[str, ...]:
        return (*self.lhs, self.rhs)

    @property
    def is_plain_fd(self) -> bool:
        return self.rhs_pattern is WILDCARD and all(entry is WILDCARD for entry in self.lhs_pattern)

    # ------------------------------------------------------------------ #
    # semantics over tuples
    # ------------------------------------------------------------------ #
    def lhs_values(self, schema: RelationSchema, tup: Tuple) -> tuple[object, ...]:
        return tup.values_of(schema, self.lhs)

    def rhs_value(self, schema: RelationSchema, tup: Tuple) -> object:
        return tup.value_of(schema, self.rhs)

    def lhs_matches_pattern(self, schema: RelationSchema, tup: Tuple) -> bool:
        return all(
            pattern_matches(value, pattern)
            for value, pattern in zip(self.lhs_values(schema, tup), self.lhs_pattern)
        )

    def violated_by(self, schema: RelationSchema, first: Tuple, second: Tuple) -> bool:
        """Do the two tuples jointly violate the CFD?

        Violation requires: equal LHS values that match the LHS pattern, and
        either unequal RHS values or an RHS value that fails the RHS pattern.
        A single tuple can "violate" a constant CFD on its own (when its RHS
        fails a constant pattern while its LHS matches); that case is handled
        by passing the same tuple twice.
        """
        first_lhs = self.lhs_values(schema, first)
        second_lhs = self.lhs_values(schema, second)
        if first_lhs != second_lhs:
            return False
        if not self.lhs_matches_pattern(schema, first):
            return False
        first_rhs = self.rhs_value(schema, first)
        second_rhs = self.rhs_value(schema, second)
        if first_rhs != second_rhs:
            return True
        return not pattern_matches(first_rhs, self.rhs_pattern)

    def satisfied_by(self, schema: RelationSchema, tuples: Iterable[Tuple]) -> bool:
        """Whether the given relation instance satisfies the CFD."""
        tuples = list(tuples)
        for i, first in enumerate(tuples):
            if self.violated_by(schema, first, first):
                return False
            for second in tuples[i + 1 :]:
                if self.violated_by(schema, first, second):
                    return False
        return True

    def __str__(self) -> str:
        lhs = ", ".join(self.lhs)
        lhs_pattern = ", ".join(str(entry) for entry in self.lhs_pattern)
        return f"{self.relation}: ({lhs} -> {self.rhs}, ({lhs_pattern} || {self.rhs_pattern}))"
