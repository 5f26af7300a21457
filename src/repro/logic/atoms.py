"""Atoms and literals of the extended clause language.

Beyond ordinary relational atoms (Section 2.1), the paper's clause language
(Section 3.2) adds:

* **similarity literals** ``x ≈ y`` introduced when a tuple was reached through
  an approximate (MD) match during bottom-clause construction;
* **equality / inequality literals** ``x = y`` / ``x ≠ y`` used both as
  *induced equality literals* (keeping replaced occurrences of a variable
  connected) and as *restriction literals* (tying the replacement variables of
  repair literals together);
* **repair literals** ``V_c(x, v_x)`` meaning "replace ``x`` with ``v_x`` in
  the other literals of this clause if condition ``c`` holds".  The condition
  is a conjunction of ``=``, ``≠`` and ``≈`` comparisons over the clause's
  terms and is evaluated when the clause is *repaired* (its repair literals
  are applied; see :mod:`repro.core.repair_literals`).

All literal objects are immutable; clause transformations always build new
literals via :meth:`Literal.replace_terms`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from .terms import Constant, Term, Variable, is_constant, is_variable

__all__ = [
    "LiteralKind",
    "ComparisonOp",
    "Comparison",
    "Condition",
    "Literal",
    "relation_literal",
    "similarity_literal",
    "equality_literal",
    "inequality_literal",
    "repair_literal",
    "TRUE_CONDITION",
]


class LiteralKind(enum.Enum):
    """The role a literal plays inside a clause."""

    RELATION = "relation"
    SIMILARITY = "similarity"
    EQUALITY = "equality"
    INEQUALITY = "inequality"
    REPAIR = "repair"


class ComparisonOp(enum.Enum):
    """Operators allowed inside a repair-literal condition."""

    EQ = "="
    NEQ = "!="
    SIM = "~"


@dataclass(frozen=True, slots=True)
class Comparison:
    """One comparison ``left op right`` inside a repair condition."""

    op: ComparisonOp
    left: Term
    right: Term
    _hash: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.op, self.left, self.right)))

    def __hash__(self) -> int:
        return self._hash

    def terms(self) -> tuple[Term, Term]:
        return (self.left, self.right)

    def replace_terms(self, mapping: Mapping[Term, Term]) -> "Comparison":
        """Return a copy with every term rewritten through *mapping*."""
        return Comparison(
            self.op,
            mapping.get(self.left, self.left),
            mapping.get(self.right, self.right),
        )

    def __str__(self) -> str:
        return f"{self.left} {self.op.value} {self.right}"


@dataclass(frozen=True, slots=True)
class Condition:
    """A conjunction of :class:`Comparison` objects.

    The empty condition is trivially true (used for repair literals whose
    applicability does not depend on the rest of the clause).
    """

    comparisons: frozenset[Comparison] = field(default_factory=frozenset)
    _hash: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash(self.comparisons))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def of(cls, *comparisons: Comparison) -> "Condition":
        return cls(frozenset(comparisons))

    @property
    def is_trivial(self) -> bool:
        return not self.comparisons

    def terms(self) -> Iterator[Term]:
        for comparison in self.comparisons:
            yield comparison.left
            yield comparison.right

    def variables(self) -> set[Variable]:
        return {t for t in self.terms() if is_variable(t)}

    def replace_terms(self, mapping: Mapping[Term, Term]) -> "Condition":
        return Condition(frozenset(c.replace_terms(mapping) for c in self.comparisons))

    def __str__(self) -> str:
        if self.is_trivial:
            return "true"
        return " & ".join(sorted(str(c) for c in self.comparisons))


TRUE_CONDITION = Condition()


@dataclass(frozen=True, slots=True)
class Literal:
    """A literal of the extended clause language.

    Parameters
    ----------
    predicate:
        Relation symbol for :attr:`LiteralKind.RELATION` literals, the repair
        relation symbol (``"V"``) for repair literals, and a fixed symbol for
        the comparison kinds.
    terms:
        Argument terms.  Similarity/equality/inequality literals have exactly
        two terms; repair literals have exactly two terms ``(x, v_x)``.
    kind:
        The literal's :class:`LiteralKind`.
    condition:
        Only meaningful for repair literals: the condition ``c`` of
        ``V_c(x, v_x)``.  Trivially true for every other kind.
    provenance:
        Optional free-form tag describing which MD or CFD introduced the
        literal.  Used for reporting and for grouping repair literals that
        belong to the same constraint; never used by the logic itself.
    """

    predicate: str
    terms: tuple[Term, ...]
    kind: LiteralKind = LiteralKind.RELATION
    condition: Condition = TRUE_CONDITION
    provenance: str | None = None
    _hash: int = field(default=0, init=False, repr=False, compare=False)
    _signature: tuple[str, str, int] = field(default=("", "", 0), init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind in (LiteralKind.SIMILARITY, LiteralKind.EQUALITY, LiteralKind.INEQUALITY, LiteralKind.REPAIR):
            if len(self.terms) != 2:
                raise ValueError(f"{self.kind.value} literal requires exactly two terms, got {len(self.terms)}")
        if self.kind is not LiteralKind.REPAIR and not self.condition.is_trivial:
            raise ValueError("only repair literals may carry a non-trivial condition")
        # Literals are hashed and signature-probed far more often than created
        # (signature indexes, body frozensets, search assignments, clause
        # caches); memoising both keeps those operations O(1).
        object.__setattr__(
            self, "_hash", hash((self.predicate, self.terms, self.kind, self.condition, self.provenance))
        )
        object.__setattr__(self, "_signature", (self.kind.value, self.predicate, len(self.terms)))

    def __hash__(self) -> int:
        return self._hash

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def arity(self) -> int:
        return len(self.terms)

    @property
    def is_relation(self) -> bool:
        return self.kind is LiteralKind.RELATION

    @property
    def is_repair(self) -> bool:
        return self.kind is LiteralKind.REPAIR

    @property
    def is_comparison(self) -> bool:
        return self.kind in (LiteralKind.SIMILARITY, LiteralKind.EQUALITY, LiteralKind.INEQUALITY)

    def all_terms(self) -> Iterator[Term]:
        """Yield argument terms followed by the condition's terms."""
        yield from self.terms
        yield from self.condition.terms()

    def variables(self) -> set[Variable]:
        return {t for t in self.all_terms() if is_variable(t)}

    def argument_variables(self) -> set[Variable]:
        """Variables appearing in the argument positions only (not the condition)."""
        return {t for t in self.terms if is_variable(t)}

    def constants(self) -> set[Constant]:
        return {t for t in self.all_terms() if is_constant(t)}

    # ------------------------------------------------------------------ #
    # rewriting
    # ------------------------------------------------------------------ #
    def replace_terms(self, mapping: Mapping[Term, Term]) -> "Literal":
        """Return a copy with every term (arguments and condition) rewritten."""
        return Literal(
            predicate=self.predicate,
            terms=tuple(mapping.get(t, t) for t in self.terms),
            kind=self.kind,
            condition=self.condition.replace_terms(mapping),
            provenance=self.provenance,
        )

    def with_terms(self, terms: Iterable[Term]) -> "Literal":
        """Return a copy with the argument terms replaced wholesale."""
        return Literal(
            predicate=self.predicate,
            terms=tuple(terms),
            kind=self.kind,
            condition=self.condition,
            provenance=self.provenance,
        )

    # ------------------------------------------------------------------ #
    # identity / rendering
    # ------------------------------------------------------------------ #
    def signature(self) -> tuple[str, str, int]:
        """A (kind, predicate, arity) key used for indexing candidate matches."""
        return self._signature

    def __str__(self) -> str:
        args = ", ".join(str(t) for t in self.terms)
        if self.kind is LiteralKind.SIMILARITY:
            return f"{self.terms[0]} ~ {self.terms[1]}"
        if self.kind is LiteralKind.EQUALITY:
            return f"{self.terms[0]} = {self.terms[1]}"
        if self.kind is LiteralKind.INEQUALITY:
            return f"{self.terms[0]} != {self.terms[1]}"
        if self.kind is LiteralKind.REPAIR:
            return f"V[{self.condition}]({args})"
        return f"{self.predicate}({args})"


# ---------------------------------------------------------------------- #
# constructor helpers
# ---------------------------------------------------------------------- #
def relation_literal(predicate: str, *terms: Term, provenance: str | None = None) -> Literal:
    """Build a schema-relation literal ``predicate(terms...)``."""
    return Literal(predicate, tuple(terms), LiteralKind.RELATION, provenance=provenance)


def similarity_literal(left: Term, right: Term, provenance: str | None = None) -> Literal:
    """Build the similarity literal ``left ≈ right``."""
    return Literal("~", (left, right), LiteralKind.SIMILARITY, provenance=provenance)


def equality_literal(left: Term, right: Term, provenance: str | None = None) -> Literal:
    """Build the equality literal ``left = right``."""
    return Literal("=", (left, right), LiteralKind.EQUALITY, provenance=provenance)


def inequality_literal(left: Term, right: Term, provenance: str | None = None) -> Literal:
    """Build the inequality literal ``left ≠ right``."""
    return Literal("!=", (left, right), LiteralKind.INEQUALITY, provenance=provenance)


def repair_literal(
    target: Term,
    replacement: Variable | Term,
    condition: Condition = TRUE_CONDITION,
    provenance: str | None = None,
) -> Literal:
    """Build the repair literal ``V_c(target, replacement)``.

    ``target`` is the term whose occurrences the repair replaces and
    ``replacement`` is what it is replaced with when ``condition`` holds.
    """
    return Literal("V", (target, replacement), LiteralKind.REPAIR, condition=condition, provenance=provenance)
