"""Horn clauses and definitions of the extended clause language.

A :class:`HornClause` is a head literal plus a body (a tuple of literals); a
:class:`Definition` is a set of clauses sharing the same head predicate, i.e.
a non-recursive Datalog program / union of conjunctive queries (Section 2.1).

The class knows about the extended language of Section 3.2: it can separate
schema-relation literals from similarity, equality and repair literals, it
implements the *head-connected* check (including the paper's notion of a
repair literal being connected to a non-repair literal through chains of
repair literals), and it can prune literals that became disconnected after a
generalisation step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from .atoms import Literal, LiteralKind
from .substitution import Substitution
from .terms import Constant, Term, Variable, VariableFactory, is_variable

__all__ = ["HornClause", "Definition"]


@dataclass(frozen=True)
class HornClause:
    """A definite Horn clause ``head ← body``.

    The body is stored as a tuple to preserve the construction order — the
    generalisation algorithm (Section 4.2) searches for blocking literals in
    derivation order (see :meth:`repro.core.generalization.Generalizer.armg`).
    Equality ignores the order: two clauses with the same head and the same
    *set* of body literals are equal.
    """

    head: Literal
    body: tuple[Literal, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not isinstance(self.body, tuple):
            object.__setattr__(self, "body", tuple(self.body))

    # ------------------------------------------------------------------ #
    # equality / hashing (order-insensitive on the body)
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, HornClause):
            return NotImplemented
        return self.head == other.head and frozenset(self.body) == frozenset(other.body)

    def __hash__(self) -> int:
        # Memoised lazily: coverage caches key on whole clauses, and hashing
        # a bottom clause is O(|body|) — paying that once per clause instead
        # of once per cache lookup matters on the hot path.
        cached = self.__dict__.get("_cached_hash")
        if cached is None:
            cached = hash((self.head, frozenset(self.body)))
            object.__setattr__(self, "_cached_hash", cached)
        return cached

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.body)

    def literals(self) -> Iterator[Literal]:
        """Yield the head followed by every body literal."""
        yield self.head
        yield from self.body

    def variables(self) -> set[Variable]:
        result: set[Variable] = set()
        for literal in self.literals():
            result |= literal.variables()
        return result

    def constants(self) -> set[Constant]:
        result: set[Constant] = set()
        for literal in self.literals():
            result |= literal.constants()
        return result

    def body_of_kind(self, *kinds: LiteralKind) -> tuple[Literal, ...]:
        wanted = set(kinds)
        return tuple(lit for lit in self.body if lit.kind in wanted)

    @property
    def relation_literals(self) -> tuple[Literal, ...]:
        return self.body_of_kind(LiteralKind.RELATION)

    @property
    def repair_literals(self) -> tuple[Literal, ...]:
        return self.body_of_kind(LiteralKind.REPAIR)

    @property
    def comparison_literals(self) -> tuple[Literal, ...]:
        return self.body_of_kind(LiteralKind.SIMILARITY, LiteralKind.EQUALITY, LiteralKind.INEQUALITY)

    @property
    def is_repaired(self) -> bool:
        """A clause is *repaired* when it carries no repair literal (Section 3.2)."""
        return not any(lit.is_repair for lit in self.body)

    # ------------------------------------------------------------------ #
    # repair-literal connectivity (used by Definition 4.4 and generalisation)
    # ------------------------------------------------------------------ #
    def repair_literals_connected_to(self, literal: Literal) -> set[Literal]:
        """Repair literals connected to *literal* per the paper's definition.

        A repair literal ``V_c(x, v_x)`` is connected to a non-repair literal
        ``L`` iff ``x`` or ``v_x`` appears in ``L`` or in the arguments of a
        repair literal connected to ``L`` — i.e. connectivity closes over
        chains of repair literals that share argument variables.
        """
        anchor_vars = literal.argument_variables()
        repair = [lit for lit in self.body if lit.is_repair]
        connected: set[Literal] = set()
        frontier_vars = set(anchor_vars)
        changed = True
        while changed:
            changed = False
            for lit in repair:
                if lit in connected:
                    continue
                if lit.argument_variables() & frontier_vars:
                    connected.add(lit)
                    frontier_vars |= lit.argument_variables()
                    changed = True
        return connected

    # ------------------------------------------------------------------ #
    # head-connectivity
    # ------------------------------------------------------------------ #
    def head_connected_literals(self) -> set[Literal]:
        """Return the body literals reachable from the head through shared variables.

        Schema/similarity/equality literals are connected in the ordinary way
        (they share a variable with the head or with another head-connected
        literal).  Repair literals piggy-back on the literal they modify: a
        repair literal is head-connected when at least one of its argument
        variables occurs in a head-connected non-repair literal, or in a
        repair literal that is itself head-connected.
        """
        connected: set[Literal] = set()
        reachable_vars: set[Variable] = set(self.head.argument_variables())
        changed = True
        while changed:
            changed = False
            for literal in self.body:
                if literal in connected:
                    continue
                if literal.argument_variables() & reachable_vars:
                    connected.add(literal)
                    reachable_vars |= literal.variables()
                    changed = True
        return connected

    def is_head_connected(self) -> bool:
        return len(self.head_connected_literals()) == len(set(self.body))

    def prune_disconnected(self) -> "HornClause":
        """Drop body literals that are not head-connected.

        The generalisation step removes literals; any repair/restriction
        literal whose only connection to the head went through a removed
        literal must be dropped too (Section 4.2).

        Repair literals over constants (e.g. the repair of a CFD violation
        between two categorical constants) have no variables of their own;
        they are kept when any of their terms — including constants and the
        terms of their condition — appears in a retained literal or in the
        head, since that is the literal they repair.
        """
        connected = self.head_connected_literals()
        kept_terms: set[Term] = set(self.head.terms)
        for literal in connected:
            kept_terms.update(literal.terms)
        extra_repairs = {
            literal
            for literal in self.body
            if literal.is_repair
            and literal not in connected
            and (set(literal.all_terms()) & kept_terms)
        }
        keep = connected | extra_repairs
        return HornClause(self.head, tuple(lit for lit in self.body if lit in keep))

    def prune_dangling_restrictions(self) -> "HornClause":
        """Drop restriction/equality/similarity literals whose variables no longer
        appear in any schema-relation literal or repair literal.

        This mirrors the final clean-up of Section 3.2: "remove all restriction
        and induced equality literals that contain at least one variable that
        does not appear in any literal with a schema relation symbol".
        Variables appearing only in the head are also considered anchored.
        """
        anchored: set[Variable] = set(self.head.argument_variables())
        for literal in self.body:
            if literal.is_relation or literal.is_repair:
                anchored |= literal.argument_variables()
        kept: list[Literal] = []
        for literal in self.body:
            if literal.is_comparison:
                if literal.argument_variables() <= anchored:
                    kept.append(literal)
            else:
                kept.append(literal)
        return HornClause(self.head, tuple(kept))

    # ------------------------------------------------------------------ #
    # rewriting
    # ------------------------------------------------------------------ #
    def apply(self, theta: Substitution) -> "HornClause":
        """Return ``selfθ``."""
        return HornClause(theta.apply_literal(self.head), theta.apply_literals(self.body))

    def replace_terms(self, mapping: Mapping[Term, Term]) -> "HornClause":
        return HornClause(
            self.head.replace_terms(mapping),
            tuple(lit.replace_terms(mapping) for lit in self.body),
        )

    def without(self, literals: Iterable[Literal]) -> "HornClause":
        """Return a copy with the given body literals removed."""
        dropped = set(literals)
        return HornClause(self.head, tuple(lit for lit in self.body if lit not in dropped))

    def with_extra_body(self, literals: Iterable[Literal]) -> "HornClause":
        """Return a copy with *literals* appended to the body (duplicates skipped)."""
        existing = set(self.body)
        extra = tuple(lit for lit in literals if lit not in existing)
        return HornClause(self.head, self.body + extra)

    def standardize_apart(self, factory: VariableFactory | None = None, suffix: str | None = None) -> "HornClause":
        """Rename every variable to a fresh one.

        Used before subsumption checks between clauses that may accidentally
        share variable names (e.g. two bottom clauses built with the same
        default factory).
        """
        factory = factory or VariableFactory(prefix="std")
        mapping: dict[Term, Term] = {}
        for variable in sorted(self.variables(), key=lambda v: v.name):
            hint = f"{variable.name}_{suffix}" if suffix else variable.name
            mapping[variable] = factory.fresh(hint)
        return self.replace_terms(mapping)

    # ------------------------------------------------------------------ #
    # rendering
    # ------------------------------------------------------------------ #
    def __str__(self) -> str:
        if not self.body:
            return f"{self.head}."
        body = ", ".join(str(lit) for lit in self.body)
        return f"{self.head} :- {body}."


@dataclass
class Definition:
    """A Horn definition: a set of clauses with the same head predicate.

    The clauses are kept in the order they were learned; the covering loop
    appends one clause per iteration.
    """

    target: str
    clauses: list[HornClause] = field(default_factory=list)

    def __post_init__(self) -> None:
        for clause in self.clauses:
            self._check(clause)

    def _check(self, clause: HornClause) -> None:
        if clause.head.predicate != self.target:
            raise ValueError(
                f"clause head predicate {clause.head.predicate!r} does not match definition target {self.target!r}"
            )

    def add(self, clause: HornClause) -> None:
        self._check(clause)
        self.clauses.append(clause)

    def __len__(self) -> int:
        return len(self.clauses)

    def __iter__(self) -> Iterator[HornClause]:
        return iter(self.clauses)

    def __bool__(self) -> bool:
        return bool(self.clauses)

    @property
    def is_repaired(self) -> bool:
        return all(clause.is_repaired for clause in self.clauses)

    def __str__(self) -> str:
        return "\n".join(str(clause) for clause in self.clauses)
