"""Bottom-clause construction (Algorithm 2).

Given a training example ``e``, DLearn gathers the tuples of the
database that are *relevant* to ``e`` — reachable from the example's
constants through exact value matches or through approximate matches licensed
by the matching dependencies — and turns them into the most specific clause
covering ``e``:

* every gathered tuple becomes a body literal;
* an approximate match contributes a similarity literal and an MD repair
  group (Section 3.2 / Example 4.2);
* CFD violations among the gathered tuples contribute CFD repair groups
  (reduced, right-hand-side scheme by default — see
  :func:`repro.core.repair_literals.cfd_rhs_repair_literals`).

The same components produce *ground* bottom clauses (constants kept in place of
variables) which coverage testing subsumes learned clauses against
(Section 4.3).

The work is split between two components:

* :class:`repro.core.saturation.FrontierChase` gathers the relevant tuples
  (Algorithm 2, lines 1-12), for many examples in one batched pass over the
  database through :meth:`~repro.core.saturation.FrontierChase.relevant_many`;
* :class:`ClauseAssembler` holds the chase and turns its cached
  :class:`~repro.core.saturation.RelevantTuples` into the (ground) bottom
  clause (Algorithm 2, line 13).  :meth:`ClauseAssembler.bottom_clause` does
  both for one example; the coverage engine and the covering loop call it.
"""

from __future__ import annotations

from typing import Sequence

from ..db.tuples import Tuple
from ..logic.atoms import Literal, relation_literal
from ..logic.clauses import HornClause
from ..logic.terms import Constant, Term, VariableFactory
from .config import DLearnConfig
from .problem import Example, LearningProblem
from .repair_literals import cfd_rhs_repair_literals, md_repair_literals
from .saturation import FrontierChase, RelevantTuples, SimilarityEvidence

__all__ = ["ClauseAssembler", "RelevantTuples", "SimilarityEvidence"]


class ClauseAssembler:
    """Turns gathered :class:`RelevantTuples` into (ground) bottom clauses.

    The assembler is stateless apart from its configuration: given the same
    relevant tuples it always produces the same clause, so cached chase
    results can be re-assembled freely (e.g. the variabilised bottom clause
    and the ground bottom clause of one example share one cache entry).

    Parameters
    ----------
    problem:
        The learning problem (schemas, constraints, constant attributes).
    config:
        Learner configuration; the assembler uses ``use_mds`` / ``use_cfds``
        and ``max_repair_groups_per_clause``.
    chase:
        The frontier chase the tuples come from: :meth:`bottom_clause`
        gathers through it, and its chaseability test decides which values
        act as join keys.
    """

    def __init__(self, problem: LearningProblem, config: DLearnConfig, chase: FrontierChase) -> None:
        self.problem = problem
        self.config = config
        self.chase = chase

    def bottom_clause(self, example: Example, *, ground: bool = False) -> HornClause:
        """The (ground) bottom clause of *example*, gathered through the (cached) chase."""
        return self.assemble(example, self.chase.relevant(example), ground=ground)

    def assemble(self, example: Example, relevant: RelevantTuples, *, ground: bool = False) -> HornClause:
        """Build the (ground) bottom clause of *example* from its relevant tuples.

        With ``ground=False`` every constant is replaced by a variable except
        the values of the problem's ``constant_attributes`` (categorical
        attributes whose constants the learned clauses may test directly).
        With ``ground=True`` the database constants stay in place — this is
        the ground bottom clause used as the specific side of coverage
        subsumption tests.  Repair-literal replacement variables are fresh
        variables in both cases.
        """
        factory = VariableFactory(prefix="v")
        term_of: dict[object, Term] = {}
        example_values = {value for value in example.values if value is not None}

        def variable_for(value: object) -> Term:
            if value not in term_of:
                term_of[value] = Constant(value) if ground else factory.fresh()
            return term_of[value]

        def term_for(relation_name: str, attribute_name: str, value: object) -> Term:
            if not ground and self.problem.keeps_constant(relation_name, attribute_name):
                return Constant(value)
            if ground:
                return variable_for(value)
            if value in example_values or self.chase.chaseable(value):
                # Values that drive the chase (and the example's own values)
                # share one variable across all their occurrences — they are
                # the clause's join keys.
                return variable_for(value)
            # Incidental values (years, prices, popular strings) do not create
            # joins between independently reached tuples: every occurrence
            # gets its own variable.
            return factory.fresh()

        target = self.problem.target
        head_terms = tuple(
            term_for(target.name, attribute.name, value)
            for attribute, value in zip(target.attributes, example.values)
        )
        head = relation_literal(target.name, *head_terms)

        body: list[Literal] = []
        literal_sources: list[tuple[Literal, Tuple]] = []
        for tup in relevant.tuples:
            schema = self.problem.database.relation(tup.relation).schema
            terms = tuple(
                term_for(schema.name, attribute.name, value)
                for attribute, value in zip(schema.attributes, tup.values)
            )
            literal = relation_literal(schema.name, *terms)
            body.append(literal)
            literal_sources.append((literal, tup))

        if self.config.use_mds:
            body.extend(self._md_repair_body(relevant, variable_for, factory))
        if self.config.use_cfds and self.problem.cfds:
            body.extend(self._cfd_repair_body(literal_sources, factory))

        clause = HornClause(head, tuple(body))
        if ground:
            # In a ground clause connectivity flows through shared constants,
            # which the variable-based pruning below cannot see; leave it as is.
            return clause
        # Tuples reached through a shared categorical constant (kept as a
        # constant, not a variable) have no variable path to the head; they
        # carry no usable join structure, so drop them.
        return clause.prune_disconnected().prune_dangling_restrictions()

    def _md_repair_body(self, relevant: RelevantTuples, variable_for, factory: VariableFactory) -> list[Literal]:
        literals: list[Literal] = []
        seen_pairs: set[tuple[str, object, object]] = set()
        for index, evidence in enumerate(relevant.similarity_evidence):
            key = (evidence.md_name, evidence.known_value, evidence.matched_value)
            mirrored = (evidence.md_name, evidence.matched_value, evidence.known_value)
            if key in seen_pairs or mirrored in seen_pairs:
                continue
            seen_pairs.add(key)
            left_term = variable_for(evidence.known_value)
            right_term = variable_for(evidence.matched_value)
            if left_term == right_term:
                continue
            provenance = f"md:{evidence.md_name}:{index}"
            literals.extend(md_repair_literals(left_term, right_term, factory, provenance))
        return literals

    def _cfd_repair_body(
        self, literal_sources: Sequence[tuple[Literal, Tuple]], factory: VariableFactory
    ) -> list[Literal]:
        """Scan the clause for CFD violations and add their repair groups (Section 4.1)."""
        literals: list[Literal] = []
        groups_added = 0
        for cfd in self.problem.cfds:
            relation_schema = self.problem.database.relation(cfd.relation).schema
            members = [(lit, tup) for lit, tup in literal_sources if lit.predicate == cfd.relation]
            for i, (first_literal, first_tuple) in enumerate(members):
                for second_literal, second_tuple in members[i + 1 :]:
                    if groups_added >= self.config.max_repair_groups_per_clause:
                        return literals
                    if not cfd.violated_by(relation_schema, first_tuple, second_tuple):
                        continue
                    lhs_pairs = [
                        (
                            first_literal.terms[relation_schema.position_of(attribute)],
                            second_literal.terms[relation_schema.position_of(attribute)],
                        )
                        for attribute in cfd.lhs
                    ]
                    rhs_position = relation_schema.position_of(cfd.rhs)
                    rhs_first = first_literal.terms[rhs_position]
                    rhs_second = second_literal.terms[rhs_position]
                    if rhs_first == rhs_second:
                        continue
                    provenance = f"cfd:{cfd.name}:{groups_added}"
                    literals.extend(cfd_rhs_repair_literals(lhs_pairs, rhs_first, rhs_second, provenance))
                    groups_added += 1
        return literals
