"""Serial reference implementations the production paths are tested against.

Each layer of the learner has one production path.  The second
implementation of a layer survives only here, where a test compares the
production path against it:

* :class:`ReferenceSubsumptionChecker` — the object-level θ-subsumption
  engine (backtracking over :class:`~repro.logic.atoms.Literal` and
  :class:`~repro.logic.substitution.Substitution` objects) behind the
  compiled integer plane of :class:`~repro.logic.subsumption.SubsumptionChecker`;
  its prepared forms :class:`PreparedClause` / :class:`PreparedGeneral` are
  the object-level counterparts of the compiled forms
  (:class:`~repro.logic.compiled.CompiledSpecific` /
  :class:`~repro.logic.compiled.CompiledGeneral`), rebuilt on every call;
  :func:`install_reference_subsumption` re-wires a learning session onto it;
* :func:`covers_serial` / :func:`covered_counts_serial` — the uncached,
  one-call-at-a-time Section 4.3 coverage pipeline behind the cached,
  batched :class:`~repro.core.coverage.CoverageEngine`;
* :func:`relevant_serial` — the uncached per-example chase behind the
  batched :meth:`~repro.core.saturation.FrontierChase.relevant_many`;
  :func:`install_serial_chase` routes a session's gathering through it.
* :func:`reduce_clause_greedy` — the one-literal-at-a-time clause reduction
  behind the block search of
  :meth:`~repro.core.generalization.Generalizer.reduce_clause`, which
  matches it wherever coverage is monotone in the clause body.

Every oracle must give bit-identical results to its production path; only
the cost profile differs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from ..core.coverage import CoverageEngine, _cfd_variants, _has_cfd_repairs, _md_projection
from ..core.generalization import Generalizer
from ..core.problem import Example
from ..core.saturation import FrontierChase, RelevantTuples
from ..core.session import LearningSession
from ..db.instance import DatabaseInstance
from ..db.relation import RelationInstance
from ..db.sampling import Sampler
from ..logic.atoms import Comparison, Condition, Literal, LiteralKind
from ..logic.clauses import HornClause
from ..logic.compiled import BudgetExceeded, Signature, _collapse_body, _UnionFind
from ..logic.subsumption import SubsumptionChecker, SubsumptionResult
from ..logic.substitution import Substitution
from ..logic.terms import Term, is_constant, is_variable

__all__ = [
    "PreparedClause",
    "PreparedGeneral",
    "ReferenceSubsumptionChecker",
    "covered_counts_serial",
    "covers_serial",
    "install_reference_subsumption",
    "install_serial_chase",
    "reduce_clause_greedy",
    "relevant_serial",
]


# --------------------------------------------------------------------- #
# θ-subsumption
# --------------------------------------------------------------------- #
@dataclass
class PreparedClause:
    """Object-level specific (D) side of a check (see :meth:`ReferenceSubsumptionChecker.prepare`).

    The equality collapse of the clause's body: the collapse map, the
    collapsed structural literals grouped by signature, and the collapsed
    similarity and inequality term pairs.
    """

    clause: HornClause
    collapse: _UnionFind
    index: dict[Signature, list[Literal]]
    similar: set[frozenset[Term]]
    unequal: set[frozenset[Term]]


@dataclass
class PreparedGeneral:
    """Object-level general (C) side of a check: the structural/comparison split of the body."""

    clause: HornClause
    structural: tuple[Literal, ...]
    comparisons: tuple[Literal, ...]
    head: Literal


class ReferenceSubsumptionChecker(SubsumptionChecker):
    """The pure-Python object-level θ-subsumption engine (the oracle).

    Same parameters as :class:`~repro.logic.subsumption.SubsumptionChecker`,
    but :meth:`prepare` and :meth:`prepare_general` build object-level forms
    (uncached), and :meth:`subsumes` and :meth:`retained_generalization` run
    a backtracking search over the prepared clause's literal objects instead
    of the compiled integer plane.  The budget valve charges the same steps,
    so budget-capped verdicts and retained lists agree between the engines.
    """

    def prepare(self, specific: HornClause) -> PreparedClause:  # type: ignore[override]
        return PreparedClause(specific, *_collapse_body(specific))

    def prepare_general(self, general: HornClause) -> PreparedGeneral:  # type: ignore[override]
        return PreparedGeneral(
            clause=general,
            structural=tuple(lit for lit in general.body if lit.is_relation or lit.is_repair),
            comparisons=tuple(lit for lit in general.body if lit.is_comparison),
            head=general.head,
        )

    def _as_prepared(self, specific: HornClause | PreparedClause) -> PreparedClause:
        return specific if isinstance(specific, PreparedClause) else self.prepare(specific)

    def _as_prepared_general(self, general: HornClause | PreparedGeneral) -> PreparedGeneral:
        return general if isinstance(general, PreparedGeneral) else self.prepare_general(general)

    def _seed_theta(self, head: Literal, prepared: PreparedClause) -> Substitution | None:
        if head.predicate != prepared.clause.head.predicate or head.arity != prepared.clause.head.arity:
            return None
        return self._match_terms(
            head.terms,
            tuple(prepared.collapse.find(t) for t in prepared.clause.head.terms),
            Substitution(),
        )

    def subsumes(  # type: ignore[override]
        self, general: HornClause | PreparedGeneral, specific: HornClause | PreparedClause
    ) -> SubsumptionResult:
        prepared_general = self._as_prepared_general(general)
        prepared = self._as_prepared(specific)
        seeded = self._seed_theta(prepared_general.head, prepared)
        if seeded is None:
            return SubsumptionResult(False)

        structural = prepared_general.structural
        comparisons = prepared_general.comparisons

        self._steps = 0
        try:
            witness = self._search(
                structural,
                seeded,
                {},
                prepared.index,
                prepared.collapse,
                comparisons,
                prepared.similar,
                prepared.unequal,
            )
            if witness is None:
                return SubsumptionResult(False)
            theta, assignment = witness

            mapped = frozenset(assignment.values())
            if self.respect_repair_connectivity and not self._repair_connectivity_ok(
                prepared.clause, prepared.collapse, mapped
            ):
                # Retry exhaustively for another witness satisfying the
                # connectivity requirement.  Connectivity violations are rare
                # in practice (they require an unmapped repair literal
                # touching a mapped one), so the retry seldom runs.
                witness = self._search(
                    structural,
                    seeded,
                    {},
                    prepared.index,
                    prepared.collapse,
                    comparisons,
                    prepared.similar,
                    prepared.unequal,
                    require_connectivity=prepared.clause,
                )
                if witness is None:
                    return SubsumptionResult(False)
                theta, assignment = witness
                mapped = frozenset(assignment.values())
        except BudgetExceeded:
            return SubsumptionResult(False)

        return SubsumptionResult(True, theta, mapped)

    def retained_generalization(  # type: ignore[override]
        self, general: HornClause, specific: HornClause | PreparedClause
    ) -> list[Literal]:
        prepared = self._as_prepared(specific)
        theta = self._seed_theta(general.head, prepared)
        if theta is None:
            return []
        # The head mapping never changes across iterations; keep the seed for
        # the head-only blocking test instead of recomputing it per failed
        # literal (Substitution is immutable, so the later rebinding of
        # ``theta`` leaves this reference untouched).
        head_theta = theta

        kept: list[Literal] = []
        kept_structural: list[Literal] = []
        kept_comparisons: list[Literal] = []
        assignment: dict[Literal, Literal] = {}
        # The greedy scans share one max_steps-sized budget for the whole
        # loop, charging one step per candidate probed; exhausting it drops
        # the literal under scan and everything after it.  The compiled loop
        # charges the identical counts (see CompiledSearch.greedy_match), so
        # budget-capped retained lists agree between the engines.
        greedy_steps = 0

        for literal in general.body:
            if literal.is_comparison:
                extended = self._check_comparisons(
                    [literal], theta, prepared.collapse, prepared.similar, prepared.unequal
                )
                if extended is None:
                    # The comparison may only fail because of an earlier greedy
                    # binding (e.g. a similarity literal whose partner variable
                    # was bound to the wrong candidate); retry with full
                    # backtracking before declaring it blocking.
                    witness = self._retry_with_backtracking(
                        general, prepared, kept_structural, kept_comparisons + [literal]
                    )
                    if witness is not None:
                        theta, assignment = witness
                        kept.append(literal)
                        kept_comparisons.append(literal)
                    continue
                theta = extended
                kept.append(literal)
                kept_comparisons.append(literal)
                continue

            extended = None
            matched_candidate: Literal | None = None
            for candidate in prepared.index.get(literal.signature(), ()):
                greedy_steps += 1
                extended = self._match_literal(literal, candidate, theta)
                if extended is not None:
                    matched_candidate = candidate
                    break
            if self.max_steps is not None and greedy_steps > self.max_steps:
                break  # greedy budget exhausted: drop the rest
            if extended is not None and matched_candidate is not None:
                assignment[literal] = matched_candidate
                theta = extended
                kept.append(literal)
                kept_structural.append(literal)
                continue

            # Greedy extension failed.  If the literal cannot be matched even
            # under the head mapping alone it is blocking no matter what the
            # other goals chose — drop it without the expensive retry.
            found_under_head = False
            for candidate in prepared.index.get(literal.signature(), ()):
                greedy_steps += 1
                if self._match_literal(literal, candidate, head_theta) is not None:
                    found_under_head = True
                    break
            if self.max_steps is not None and greedy_steps > self.max_steps:
                break  # greedy budget exhausted: drop the rest
            if not found_under_head:
                continue

            # Otherwise the failure may be due to an earlier greedy choice, so
            # retry with full backtracking over everything retained so far
            # plus this literal.
            witness = self._retry_with_backtracking(
                general, prepared, kept_structural + [literal], kept_comparisons
            )
            if witness is None:
                continue  # genuinely blocking: drop it
            theta, assignment = witness
            kept.append(literal)
            kept_structural.append(literal)

        return kept

    def _retry_with_backtracking(
        self,
        general: HornClause,
        prepared: PreparedClause,
        structural: list[Literal],
        comparisons: list[Literal],
    ) -> tuple[Substitution, dict[Literal, Literal]] | None:
        """Full backtracking search used when the greedy witness extension fails."""
        self._steps = 0
        try:
            return self._search(
                structural,
                self._seed_theta(general.head, prepared),
                {},
                prepared.index,
                prepared.collapse,
                comparisons,
                prepared.similar,
                prepared.unequal,
            )
        except BudgetExceeded:
            return None  # treat as blocking: dropping is the conservative choice

    # ------------------------------------------------------------------ #
    # matching primitives
    # ------------------------------------------------------------------ #
    @staticmethod
    def _match_terms(
        general_terms: Sequence[Term], specific_terms: Sequence[Term], theta: Substitution
    ) -> Substitution | None:
        if len(general_terms) != len(specific_terms):
            return None
        current: Substitution | None = theta
        for g_term, s_term in zip(general_terms, specific_terms):
            if is_constant(g_term):
                if g_term != s_term:
                    return None
                continue
            current = current.bind(g_term, s_term)
            if current is None:
                return None
        return current

    def _match_literal(self, general: Literal, specific: Literal, theta: Substitution) -> Substitution | None:
        if general.signature() != specific.signature():
            return None
        extended = self._match_terms(general.terms, specific.terms, theta)
        if extended is None:
            return None
        if general.is_repair:
            extended = self._match_condition(general, specific, extended)
        return extended

    def _match_condition(self, general: Literal, specific: Literal, theta: Substitution) -> Substitution | None:
        """Match the condition of a general repair literal against a specific one.

        Comparisons whose terms are fully bound must appear (after
        substitution) in the specific condition; comparisons mentioning an
        unbound variable are deferred — they only constrain the repair
        application, not subsumption, and the paper's proofs treat conditions
        as carried along by the mapping of the argument variables.
        """
        specific_comparisons = _condition_key_set(specific.condition)
        if not self.condition_subset:
            # ``Substitution`` duck-types the Mapping.get protocol that
            # ``replace_terms`` relies on, so no per-comparison dict copy.
            general_applied = {_comparison_key(c.replace_terms(theta)) for c in general.condition.comparisons}
            return theta if general_applied == specific_comparisons else None
        for comparison in general.condition.comparisons:
            substituted = comparison.replace_terms(theta)
            if substituted_has_unbound(substituted, theta):
                # Comparisons over still-unbound variables only constrain the
                # eventual repair application, not the subsumption mapping.
                continue
            if _comparison_key(substituted) not in specific_comparisons:
                return None
        return theta

    # ------------------------------------------------------------------ #
    # backtracking search
    # ------------------------------------------------------------------ #
    def _search(
        self,
        goals: Sequence[Literal],
        theta: Substitution,
        assignment: dict[Literal, Literal],
        d_index: dict[Signature, list[Literal]],
        collapse: _UnionFind,
        comparisons: Sequence[Literal],
        d_similar: set[frozenset[Term]],
        d_unequal: set[frozenset[Term]],
        require_connectivity: HornClause | None = None,
        candidate_cache: dict[Literal, list[Literal]] | None = None,
    ) -> tuple[Substitution, dict[Literal, Literal]] | None:
        """Backtracking search with dynamic most-constrained-goal-first ordering.

        At every step the unassigned goal with the fewest candidates
        consistent with the current substitution is chosen.  Bottom clauses
        are join trees: once the head variables are bound, the goal touching
        them has one or two consistent candidates, assigning it binds more
        variables, and the cascade keeps the branching factor close to one.
        Goals sharing no variable with anything bound are postponed until the
        end, where any candidate works.  A goal with zero consistent
        candidates is selected immediately, which is what makes failing
        prefixes fail fast during generalisation.

        ``candidate_cache`` memoises each goal's consistent-candidate list
        across recursion depths.  Assigning a goal only changes the outcome
        of goals whose variable footprint intersects the newly bound
        variables, so each branch passes down the cache minus exactly those
        *dirty* goals instead of rescanning every candidate list per depth.

        Raises :class:`BudgetExceeded` when the per-check step budget runs
        out; callers translate that into a conservative "does not subsume".
        """
        remaining = [goal for goal in goals if goal not in assignment]
        if not remaining:
            final = self._check_comparisons(comparisons, theta, collapse, d_similar, d_unequal)
            if final is None:
                return None
            if require_connectivity is not None:
                mapped = frozenset(assignment.values())
                if not self._repair_connectivity_ok(require_connectivity, collapse, mapped):
                    return None
            return final, dict(assignment)

        # Every node costs O(|remaining|) regardless of how the selection
        # loop short-circuits (the remaining rebuild, the selection scan, the
        # per-branch cache filtering); charge it up front so the step budget
        # bounds the number of search nodes — and with it wall clock — the
        # way the pre-cache full rescans implicitly did.
        if self.max_steps is not None:
            self._steps += len(remaining)
            if self._steps > self.max_steps:
                raise BudgetExceeded()

        # Pick the unassigned goal with the fewest consistent candidates.
        cache = candidate_cache if candidate_cache is not None else {}
        best_goal: Literal | None = None
        best_matches: list[Literal] | None = None
        for goal in remaining:
            matches = cache.get(goal)
            if matches is None:
                matches = []
                for candidate in d_index.get(goal.signature(), ()):
                    if self.max_steps is not None:
                        self._steps += 1
                        if self._steps > self.max_steps:
                            raise BudgetExceeded()
                    if self._match_literal(goal, candidate, theta) is not None:
                        matches.append(candidate)
                cache[goal] = matches
            if best_matches is None or len(matches) < len(best_matches):
                best_goal, best_matches = goal, matches
                if not best_matches:
                    return None
                if len(best_matches) == 1:
                    break

        assert best_goal is not None and best_matches is not None
        for candidate in best_matches:
            extended = self._match_literal(best_goal, candidate, theta)
            if extended is None:  # pragma: no cover - cache entries are theta-consistent
                continue
            newly_bound = {v for v in best_goal.argument_variables() if v not in theta}
            child_cache = {
                goal: matches
                for goal, matches in cache.items()
                if goal != best_goal and not (goal.variables() & newly_bound)
            }
            assignment[best_goal] = candidate
            result = self._search(
                goals,
                extended,
                assignment,
                d_index,
                collapse,
                comparisons,
                d_similar,
                d_unequal,
                require_connectivity,
                child_cache,
            )
            if result is not None:
                return result
            del assignment[best_goal]
        return None

    def _check_comparisons(
        self,
        comparisons: Sequence[Literal],
        theta: Substitution,
        collapse: _UnionFind,
        d_similar: set[frozenset[Term]],
        d_unequal: set[frozenset[Term]],
    ) -> Substitution | None:
        current = theta
        # Equality literals first: they may bind still-free variables.
        for literal in sorted(comparisons, key=lambda lit: 0 if lit.kind is LiteralKind.EQUALITY else 1):
            left = collapse.find(current.apply_term(literal.terms[0]))
            right = collapse.find(current.apply_term(literal.terms[1]))
            if literal.kind is LiteralKind.EQUALITY:
                if left == right:
                    continue
                if is_variable(left) and left == literal.terms[0] and left not in current:
                    bound = current.bind(left, right)
                elif is_variable(right) and right == literal.terms[1] and right not in current:
                    bound = current.bind(right, left)
                else:
                    bound = None
                if bound is None:
                    return None
                current = bound
            elif literal.kind is LiteralKind.SIMILARITY:
                if left == right:
                    continue
                if frozenset((left, right)) not in d_similar:
                    return None
            elif literal.kind is LiteralKind.INEQUALITY:
                if left == right and is_constant(left):
                    return None
                if left == right and frozenset((left, right)) not in d_unequal:
                    return None
        return current

    # ------------------------------------------------------------------ #
    # Definition 4.4, second bullet
    # ------------------------------------------------------------------ #
    def _repair_connectivity_ok(
        self, specific: HornClause, collapse: _UnionFind, mapped: frozenset[Literal]
    ) -> bool:
        """Every repair literal of D connected to a mapped non-repair literal must be mapped."""
        collapsed_body = {
            literal.replace_terms({t: collapse.find(t) for t in literal.all_terms()}): literal
            for literal in specific.body
            if literal.is_relation or literal.is_repair
        }
        collapsed_clause = HornClause(specific.head, tuple(collapsed_body))
        mapped_set = set(mapped)
        for collapsed_literal in collapsed_clause.body:
            if collapsed_literal.is_repair or collapsed_literal not in mapped_set:
                continue
            for repair in collapsed_clause.repair_literals_connected_to(collapsed_literal):
                if repair not in mapped_set:
                    return False
        return True


def substituted_has_unbound(comparison: Comparison, theta: Substitution) -> bool:
    """True when the substituted comparison still mentions an unbound variable."""
    return any(is_variable(t) and t not in theta for t in comparison.terms())


def _comparison_key(comparison: Comparison) -> tuple[str, frozenset[Term]]:
    # = , != and ~ are all symmetric comparisons.
    return (comparison.op.value, frozenset((comparison.left, comparison.right)))


@lru_cache(maxsize=8192)
def _condition_key_set(condition: Condition) -> frozenset[tuple[str, frozenset[Term]]]:
    """Order-insensitive keys of a condition's comparisons.

    Repair-literal matching consults the specific side's key set once per
    candidate pair; conditions are immutable and recur across the whole
    search, so the set is memoised process-wide.
    """
    return frozenset(_comparison_key(c) for c in condition.comparisons)


def install_reference_subsumption(session: LearningSession) -> LearningSession:
    """Re-wire *session* so coverage and generalisation prove on the reference engine.

    The session's coverage engine and generalizer are rebuilt around a
    :class:`ReferenceSubsumptionChecker` sharing the preparation's compiler;
    the chase, builder and similarity indexes are kept.  Sessions derived
    later (``for_examples``, ``evaluation_session``) use the production
    checker again.  Returns *session*.
    """
    config = session.config
    session.engine = CoverageEngine(
        session.builder, config, ReferenceSubsumptionChecker(compiler=session.preparation.compiler)
    )
    session.generalizer = Generalizer(session.engine, config, Sampler(config.seed))
    return session


# --------------------------------------------------------------------- #
# coverage
# --------------------------------------------------------------------- #
def covers_serial(engine: CoverageEngine, clause: HornClause, example: Example) -> bool:
    """Reference for :meth:`CoverageEngine.covers` without clause-level caching.

    Re-derives the general side's split, MD projection and CFD variants on
    every call and never consults the verdict cache; only the example's
    ground bottom clause comes from *engine*'s per-example cache.
    """
    checker = engine.checker
    ground = engine.prepared_ground(example)
    if checker.subsumes(clause, ground).subsumes:
        return True
    ground_clause = ground.clause
    if not _has_cfd_repairs(clause) and not _has_cfd_repairs(ground_clause):
        return False
    if example.positive:
        if not checker.subsumes(_md_projection(clause), _md_projection(ground_clause)).subsumes:
            return False
    clause_variants = _cfd_variants(clause, engine.config.max_cfd_expansions)
    ground_variants = _cfd_variants(ground_clause, engine.config.max_cfd_expansions)
    quantifier = all if example.positive else any
    return quantifier(
        any(checker.subsumes(cv, gv).subsumes for gv in ground_variants) for cv in clause_variants
    )


def covered_counts_serial(
    engine: CoverageEngine, clause: HornClause, positives: Sequence[Example], negatives: Sequence[Example]
) -> tuple[int, int]:
    """Reference for :meth:`CoverageEngine.covered_counts` (see :func:`covers_serial`)."""
    positives_covered = sum(1 for example in positives if covers_serial(engine, clause, example))
    negatives_covered = sum(1 for example in negatives if covers_serial(engine, clause, example))
    return positives_covered, negatives_covered


# --------------------------------------------------------------------- #
# generalisation
# --------------------------------------------------------------------- #
def reduce_clause_greedy(
    generalizer: Generalizer, clause: HornClause, negatives: Sequence[Example]
) -> HornClause:
    """Reference for :meth:`Generalizer.reduce_clause`: one literal, one check.

    Tries the body literals that share no variable with the head one at a
    time in reverse derivation order, and drops each whose removal (followed
    by pruning) leaves a non-empty body that covers no negative outside the
    ones *clause* already covers — re-scoring every negative after each try.
    """
    engine = generalizer.engine
    baseline = {index for index, covered in enumerate(engine.batch_covers(clause, negatives)) if covered}
    head_variables = clause.head.argument_variables()
    current = clause
    for literal in reversed(clause.body):
        if literal not in current.body:
            continue  # already dropped as a side effect of an earlier removal
        if literal.argument_variables() & head_variables:
            continue
        candidate = current.without([literal]).prune_disconnected().prune_dangling_restrictions()
        if not candidate.body:
            continue
        covered = {index for index, flag in enumerate(engine.batch_covers(candidate, negatives)) if flag}
        if covered <= baseline:
            current = candidate
    return current


# --------------------------------------------------------------------- #
# saturation
# --------------------------------------------------------------------- #
class _DirectProbes:
    """Uncached probe answers — the reference per-example path.

    Interface-compatible with the part of
    :class:`~repro.core.saturation.DatabaseProbeCache` the per-example chase
    reads; every call goes straight to the database indexes (no frequency
    memo, no depth tables).
    """

    def __init__(self, database: DatabaseInstance) -> None:
        self.database = database

    def value_frequency(self, key: object) -> int:
        return self.database.id_frequency(key)

    def rows_any(self, relation: RelationInstance, key: object) -> frozenset[int]:
        return relation.rows_with_id(key)

    def rows_equal(self, relation: RelationInstance, attribute: str, key: object) -> tuple[int, ...]:
        return relation.rows_equal_id(attribute, key)


def relevant_serial(chase: FrontierChase, example: Example) -> RelevantTuples:
    """Reference for :meth:`FrontierChase.relevant` without any shared caching.

    Runs the per-example chase mechanics of a fresh chase over *chase*'s
    problem, config and similarity indexes: probes go straight to the
    database indexes, and neither *chase*'s caches (finished results,
    probes, chaseability verdicts, similarity partners) nor any depth-wide
    prefetch is consulted or warmed.
    """
    probes = _DirectProbes(chase.problem.database)
    fresh = FrontierChase(chase.problem, chase.config, chase.similarity_indexes, probes=probes)
    state = fresh._new_state(example, probes, memo=None)
    for _ in range(chase.config.iterations):
        if not state.frontier:
            break
        fresh._advance(state, probes, tables=None, memo=None)
    return state.result


class _SerialFrontierChase(FrontierChase):
    """A frontier chase that gathers every uncached example through :func:`relevant_serial`."""

    def _chase_batch(self, pending: list[tuple[tuple, Example]]) -> None:
        for key, example in pending:
            self.cache.store(key, relevant_serial(self, example))


def install_serial_chase(session: LearningSession) -> LearningSession:
    """Route *session*'s relevant-tuple gathering through :func:`relevant_serial`.

    Replaces the session's chase (as seen by the session, its clause
    assembler and its bottom-clause builder) with one that saturates each
    example on the uncached reference path; results are identical, only the
    cost profile differs.  Install before anything is saturated.  Sessions
    derived later use the batched chase again.  Returns *session*.
    """
    chase = session.chase
    serial = _SerialFrontierChase(chase.problem, chase.config, chase.similarity_indexes, probes=chase.probes)
    session.chase = session.assembler.chase = session.builder.chase = serial
    return session
