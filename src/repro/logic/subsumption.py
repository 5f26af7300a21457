"""θ-subsumption for clauses of the extended language.

``C`` θ-subsumes ``D`` (written ``C ⊆_θ D``) iff there is a substitution θ
such that ``Cθ ⊆ D`` when literals are compared as a set.  θ-subsumption is
the generality order used by bottom-up relational learners: it is sound for
logical entailment of Horn clauses and, by the paper's Theorem 4.6, remains
sound for clauses that carry repair literals under Definition 4.4's extra
requirement:

    every repair literal of ``D`` connected to a mapped (non-repair) literal
    of ``D`` must itself be a mapped literal under θ.

The checker also implements the "additional testings" the paper alludes to
for equality and similarity literals:

* equality literals of ``D`` are collapsed first (union–find) — if ``D``
  asserts ``x = y`` the two variables denote the same value in every model of
  ``D``, so matching against the collapsed clause is sound and much faster;
* an equality literal of ``C`` is satisfied when both sides map to the same
  collapsed term of ``D`` (or one side is still unbound, in which case it is
  bound to the other side's image);
* a similarity literal of ``C`` must map to a similarity literal of ``D``
  (similarity is treated as symmetric) or to a pair of identical terms;
* an inequality literal of ``C`` is satisfied when its sides map to terms
  that are not collapsed together (a conservative test — the paper drops
  inequality literals from learned clauses, so this only matters for
  user-constructed clauses).

θ-subsumption is NP-complete; the implementation is a backtracking search
with signature indexing, most-constrained-literal-first ordering and constant
pre-filtering, which is fast on the clause sizes produced by bottom-clause
construction (tens to a few hundreds of literals).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

from .atoms import Comparison, ComparisonOp, Condition, Literal, LiteralKind
from .clauses import HornClause
from .compiled import BudgetExceeded, ClauseCompiler, CompiledGeneral, CompiledSearch, CompiledSpecific
from .substitution import Substitution
from .terms import Constant, Term, Variable, is_constant, is_variable

__all__ = [
    "PreparedClause",
    "PreparedGeneral",
    "SearchStats",
    "SubsumptionChecker",
    "SubsumptionResult",
    "theta_subsumes",
]


@dataclass
class SubsumptionResult:
    """Outcome of a subsumption check.

    ``subsumes`` tells whether a witnessing substitution exists; when it does,
    ``theta`` holds one witness and ``mapped`` the literals of ``D`` that are
    images of ``C``'s literals under that witness.
    """

    subsumes: bool
    theta: Substitution | None = None
    mapped: frozenset[Literal] = field(default_factory=frozenset)

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.subsumes


@dataclass
class PreparedClause:
    """Pre-processed 'specific' side of subsumption checks (see :meth:`SubsumptionChecker.prepare`)."""

    clause: HornClause
    collapse: "_UnionFind"
    index: dict[tuple[str, str, int], list[Literal]]
    similar: set[frozenset[Term]]
    unequal: set[frozenset[Term]]
    #: Lazily attached integer-plane form (:class:`repro.logic.compiled.CompiledSpecific`);
    #: only valid for the :class:`~repro.logic.compiled.ClauseCompiler` that built it.
    compiled: object | None = field(default=None, compare=False, repr=False)

    @property
    def body_unsatisfiable(self) -> bool:
        """Whether the body asserts the equality of two distinct constants.

        Such a body is false in every model, so no witnessing substitution can
        rely on the offending equality; the collapse map refuses to merge the
        constants and matching proceeds on the uncollapsed (sound) structure.
        """
        return self.collapse.unsatisfiable


@dataclass
class PreparedGeneral:
    """Pre-processed 'general' side of subsumption checks (see :meth:`SubsumptionChecker.prepare_general`).

    Coverage testing subsumes the same candidate clause against the prepared
    ground bottom clause of every example; preparing the general (C) side
    once — the structural/comparison split of the body and the head seed —
    avoids repeating that O(|C|) work on every example.  The per-literal
    signatures the candidate index is probed with are memoised on the
    literals themselves (:meth:`repro.logic.atoms.Literal.signature`), so
    they need no clause-level storage.
    """

    clause: HornClause
    structural: tuple[Literal, ...]
    comparisons: tuple[Literal, ...]
    head: Literal
    #: Lazily attached integer-plane form (:class:`repro.logic.compiled.CompiledGeneral`);
    #: only valid for the :class:`~repro.logic.compiled.ClauseCompiler` that built it.
    compiled: object | None = field(default=None, compare=False, repr=False)


@dataclass
class SearchStats:
    """Per-checker counters of the compiled engine's search profile.

    ``checks`` counts the compiled engine's verdicts
    (:meth:`SubsumptionChecker.subsumes`);
    ``retries`` / ``retry_exhausted`` count the full-backtracking fallbacks
    of :meth:`SubsumptionChecker.retained_generalization` and how many of
    them burnt their whole step budget.  Counters are cumulative;
    :meth:`reset` rewinds them.
    """

    checks: int = 0
    # Always 0: read only by perfbench/tracer.py's ``logic.certificates`` metric.
    certificates: int = 0
    retries: int = 0
    retry_exhausted: int = 0

    def reset(self) -> None:
        self.checks = self.retries = self.retry_exhausted = 0


class _BudgetExceeded(BudgetExceeded):
    """Raised internally when a search exceeds the checker's step budget.

    Subclasses the compiled plane's :class:`~repro.logic.compiled.BudgetExceeded`
    so one ``except`` clause covers both engines.
    """


class _UnionFind:
    """Union–find over terms, used to collapse D-side equality literals.

    ``find`` is iterative with full path compression: D-side equality chains
    grow with the clause (one link per equality literal), so a recursive walk
    can exhaust Python's recursion limit mid-subsumption on large bottom
    clauses.  ``union`` of two distinct constants marks the structure
    ``unsatisfiable`` instead of collapsing them — the body asserts an
    equality that holds in no model, and merging the constants would let a
    general clause match literals it cannot actually map onto.
    """

    def __init__(self) -> None:
        self._parent: dict[Term, Term] = {}
        self.unsatisfiable = False

    def find(self, term: Term) -> Term:
        root = term
        parent = self._parent.get(root, root)
        while parent != root:
            root = parent
            parent = self._parent.get(root, root)
        while term != root:
            next_term = self._parent[term]
            self._parent[term] = root
            term = next_term
        return root

    def mapping(self) -> dict[Term, Term]:
        """Every known term mapped to its current root (used by clause compilation)."""
        return {term: self.find(term) for term in list(self._parent)}

    def union(self, left: Term, right: Term) -> None:
        root_left, root_right = self.find(left), self.find(right)
        if root_left == root_right:
            return
        if is_constant(root_left) and is_constant(root_right):
            # Two distinct constants asserted equal: the body is unsatisfiable.
            # Refuse the merge — matching against the uncollapsed terms stays
            # sound, and the flag lets callers surface the inconsistency.
            self.unsatisfiable = True
            return
        # Prefer constants as representatives so collapsed variables expose
        # their ground value to constant pre-filtering.
        if is_constant(root_left):
            self._parent[root_right] = root_left
        else:
            self._parent[root_left] = root_right


class SubsumptionChecker:
    """Reusable θ-subsumption checker.

    A single instance is cheap and reusable across many checks, but NOT
    thread-safe: the step-budget counter (``_steps``) lives on the instance,
    so concurrent searches must each use their own checker (as the per-thread
    default checker of :func:`theta_subsumes` does).

    Parameters
    ----------
    respect_repair_connectivity:
        Enforce the second bullet of Definition 4.4.  Disable to obtain plain
        θ-subsumption that treats repair literals as ordinary binary atoms
        (used by the MD-only fast path of coverage testing, Theorem 4.9).
    condition_subset:
        When matching a repair literal of ``C`` against one of ``D``, require
        the substituted condition of ``C`` to be a *subset* of ``D``'s
        condition instead of strictly equal.  Subset matching is the right
        notion once generalisation has dropped literals (and with them some
        of the comparisons a condition referred to).
    max_steps:
        Safety valve on the number of candidate-match attempts per search;
        ``None`` disables the limit.  When the limit is hit the clause pair
        is reported as not subsuming, which is sound for learning (a clause
        is never *wrongly* considered more general).  The compiled engine
        honours the same valve with its own (smaller) attempt count.
    use_compiled:
        Route :meth:`subsumes` and :meth:`retained_generalization` through
        the compiled integer-plane engine (:mod:`repro.logic.compiled`).
        Disable to force the pure-Python reference implementation — the
        oracle the property suites and ``bench_subsumption_compiled.py``
        verify observational equality against.
    compiler:
        The :class:`~repro.logic.compiled.ClauseCompiler` whose term
        dictionary compiled clause forms are expressed in.  Checkers that
        exchange prepared clauses (e.g. the sessions over one database
        preparation) must share one compiler; omitted, a private one is
        created on first compiled use.
    """

    def __init__(
        self,
        *,
        respect_repair_connectivity: bool = True,
        condition_subset: bool = True,
        max_steps: int | None = 100_000,
        use_compiled: bool = True,
        compiler: ClauseCompiler | None = None,
    ) -> None:
        self.respect_repair_connectivity = respect_repair_connectivity
        self.condition_subset = condition_subset
        self.max_steps = max_steps
        self.use_compiled = use_compiled
        self.compiler = compiler
        self.stats = SearchStats()
        self._steps = 0

    def _compiler(self) -> ClauseCompiler:
        if self.compiler is None:
            self.compiler = ClauseCompiler()
        return self.compiler

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def prepare(self, specific: HornClause) -> "PreparedClause":
        """Pre-process the specific (D) side of subsumption checks.

        Coverage testing subsumes many candidate clauses against the same
        ground bottom clause; preparing it once (equality collapse, signature
        index, similarity/inequality pair sets) and reusing the result avoids
        repeating the O(|D|) preprocessing on every call.
        """
        collapse = self._collapse_map(specific)
        d_literals = self._collapsed_structural_literals(specific, collapse)
        return PreparedClause(
            clause=specific,
            collapse=collapse,
            index=self._index_by_signature(d_literals),
            similar=self._collapsed_pairs(specific, LiteralKind.SIMILARITY, collapse),
            unequal=self._collapsed_pairs(specific, LiteralKind.INEQUALITY, collapse),
        )

    def prepare_general(self, general: HornClause) -> "PreparedGeneral":
        """Pre-process the general (C) side of subsumption checks.

        The structural/comparison split of the body is a pure function of the
        clause; computing it once lets :meth:`subsumes` check one candidate
        clause against many prepared ground clauses without re-deriving it
        per call.
        """
        return PreparedGeneral(
            clause=general,
            structural=tuple(lit for lit in general.body if lit.is_relation or lit.is_repair),
            comparisons=tuple(lit for lit in general.body if lit.is_comparison),
            head=general.head,
        )

    def _as_prepared(self, specific: "HornClause | PreparedClause") -> "PreparedClause":
        return specific if isinstance(specific, PreparedClause) else self.prepare(specific)

    def _as_prepared_general(self, general: "HornClause | PreparedGeneral") -> "PreparedGeneral":
        return general if isinstance(general, PreparedGeneral) else self.prepare_general(general)

    def _seed_theta(self, head: Literal, prepared: "PreparedClause") -> Substitution | None:
        if head.predicate != prepared.clause.head.predicate or head.arity != prepared.clause.head.arity:
            return None
        return self._match_terms(
            head.terms,
            tuple(prepared.collapse.find(t) for t in prepared.clause.head.terms),
            Substitution(),
        )

    def subsumes(
        self, general: "HornClause | PreparedGeneral", specific: "HornClause | PreparedClause"
    ) -> SubsumptionResult:
        """Check whether *general* θ-subsumes *specific*.

        Both sides accept pre-processed forms: pass a :class:`PreparedGeneral`
        for the general side and/or a :class:`PreparedClause` for the specific
        side when the same clause participates in many checks.  With
        ``use_compiled`` (the default) the check runs on the integer plane;
        the prepared forms carry their compiled counterparts, so repeated
        checks over the same clause replay the flat form.
        """
        prepared_general = self._as_prepared_general(general)
        prepared = self._as_prepared(specific)
        if self.use_compiled:
            return self._subsumes_compiled(prepared_general, prepared)
        return self._subsumes_reference(prepared_general, prepared)

    def _subsumes_compiled(
        self, prepared_general: "PreparedGeneral", prepared: "PreparedClause"
    ) -> SubsumptionResult:
        """Integer-plane fast path of :meth:`subsumes` (see :mod:`repro.logic.compiled`)."""
        compiler = self._compiler()
        cg = compiler.compiled_general_for(prepared_general)
        cs = compiler.compiled_specific_for(prepared)
        search = self._run_compiled(cg, cs)
        if search is None:
            return SubsumptionResult(False)
        return SubsumptionResult(True, search.witness_theta(), search.witness_mapped())

    def _run_compiled(self, cg: CompiledGeneral, cs: CompiledSpecific) -> CompiledSearch | None:
        """Compiled search to a verdict under ``max_steps``; the successful search or ``None``.

        An exhausted budget concedes ``None``.  The connectivity retry
        continues the first search's step count under the same budget,
        exactly as the reference engine charges it.
        """
        self._steps = 0
        self.stats.checks += 1
        search = CompiledSearch(cg, cs, condition_subset=self.condition_subset, max_steps=self.max_steps)
        if not search.seed_head():
            return None
        try:
            found = search.run()
            if (
                found
                and self.respect_repair_connectivity
                and cs.has_repairs
                and not search.connectivity_ok()
            ):
                # Retry exhaustively for a witness satisfying Definition 4.4's
                # connectivity requirement — the reference checker's retry,
                # on the integer plane.
                search = CompiledSearch(
                    cg,
                    cs,
                    condition_subset=self.condition_subset,
                    max_steps=self.max_steps,
                    steps=search.steps,
                )
                search.seed_head()
                found = search.run_with_connectivity()
        except BudgetExceeded:
            return None
        self._steps = search.steps
        return search if found else None

    def _subsumes_reference(
        self, prepared_general: "PreparedGeneral", prepared: "PreparedClause"
    ) -> SubsumptionResult:
        """Pure-Python reference implementation of :meth:`subsumes` (the oracle)."""
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
        except _BudgetExceeded:
            return SubsumptionResult(False)

        return SubsumptionResult(True, theta, mapped)

    def retained_generalization(
        self, general: HornClause, specific: "HornClause | PreparedClause"
    ) -> list[Literal]:
        """Return the body literals of *general* that can be retained while subsuming *specific*.

        This is the workhorse of the ARMG generalisation step (Section 4.2):
        body literals are processed in their given order and every *blocking*
        literal — one that cannot be mapped into *specific* consistently with
        the literals retained so far — is dropped.  The implementation keeps
        a witness substitution and first tries to extend it greedily with
        each new literal; only when the greedy extension fails does it fall
        back to a full backtracking search over the retained set plus the new
        literal, so the common case costs one candidate scan per literal
        rather than one NP-hard subsumption test per prefix.

        The retained literal list always θ-subsumes *specific* (relative to
        the head mapping); the caller is responsible for dropping literals
        that lost their head-connection afterwards.
        """
        prepared = self._as_prepared(specific)
        if self.use_compiled:
            return self._retained_compiled(general, prepared)
        return self._retained_reference(general, prepared)

    def _retained_compiled(self, general: HornClause, prepared: "PreparedClause") -> list[Literal]:
        """Integer-plane fast path of :meth:`retained_generalization`.

        Keep/drop decisions are witness-existence questions (the greedy
        extension is an optimisation, not a semantics), so running them on
        the compiled plane yields the same retained list as the reference
        loop — the property suite asserts this.
        """
        compiler = self._compiler()
        cg = compiler.compile_general(general)
        cs = compiler.compiled_specific_for(prepared)
        # The greedy scans get their own max_steps-sized budget for the whole
        # loop (separate from each backtracking retry's budget, which resets
        # per retry exactly like the reference's).  Exhausting it drops the
        # literal under scan and everything after it — the conservative,
        # more-general outcome, mirrored step-for-step by the reference loop.
        state = CompiledSearch(cg, cs, condition_subset=self.condition_subset, max_steps=self.max_steps)
        if not state.seed_head():
            return []
        # One head-only search state for the whole loop (the head mapping
        # never changes); each blocking probe rewinds it to the bare seed and
        # shares the greedy budget through explicit step syncing.
        head_state = CompiledSearch(cg, cs, condition_subset=self.condition_subset, max_steps=self.max_steps)
        head_state.seed_head()
        head_mark = len(head_state.trail)

        kept: list[Literal] = []
        kept_goals: list[int] = []
        kept_comps: list[int] = []
        for is_goal, index in cg.body_entries:
            if not is_goal:
                literal = cg.comparison_literals[index]
                mark = len(state.trail)
                if state.check_comparisons((cg.comparison_triples[index],)):
                    kept.append(literal)
                    kept_comps.append(index)
                    continue
                state.undo(mark)
                # The comparison may only fail because of an earlier greedy
                # binding; retry with full backtracking before declaring it
                # blocking.
                retry = self._compiled_retry(cg, cs, kept_goals, kept_comps + [index])
                if retry is not None:
                    retry.steps = state.steps  # the greedy budget carries over
                    state = retry
                    kept.append(literal)
                    kept_comps.append(index)
                continue

            goal = cg.goals[index]
            mark = len(state.trail)
            try:
                matched = state.greedy_match(goal)
            except BudgetExceeded:
                state.undo(mark)
                break  # greedy budget exhausted: drop the rest
            if matched is not None:
                state.assignment[index] = matched
                kept.append(goal.literal)
                kept_goals.append(index)
                continue

            # Greedy extension failed.  If the literal cannot be matched even
            # under the head mapping alone it is blocking no matter what the
            # other goals chose — drop it without the expensive retry.
            head_state.steps = state.steps
            try:
                matched_under_head = head_state.greedy_match(goal)
            except BudgetExceeded:
                head_state.undo(head_mark)
                break  # greedy budget exhausted: drop the rest
            head_state.undo(head_mark)
            state.steps = head_state.steps
            if matched_under_head is None:
                continue

            retry = self._compiled_retry(cg, cs, kept_goals + [index], kept_comps)
            if retry is None:
                continue  # genuinely blocking: drop it
            retry.steps = state.steps  # the greedy budget carries over
            state = retry
            kept.append(goal.literal)
            kept_goals.append(index)
        return kept

    def _compiled_retry(
        self, cg, cs, goal_idxs: list[int], comp_idxs: list[int]
    ) -> CompiledSearch | None:
        """Full backtracking search used when the greedy witness extension fails.

        Each retry gets its own ``max_steps`` budget, exactly like the
        reference's; an exhausted retry concedes ``None`` — the conservative
        outcome that drops the literal under test.
        """
        self.stats.retries += 1
        retry = CompiledSearch(cg, cs, condition_subset=self.condition_subset, max_steps=self.max_steps)
        retry.seed_head()
        try:
            if retry.search(tuple(goal_idxs), cg.ordered_triples(comp_idxs), {}):
                return retry
        except BudgetExceeded:
            self.stats.retry_exhausted += 1
        return None

    def _retained_reference(self, general: HornClause, prepared: "PreparedClause") -> list[Literal]:
        """Pure-Python reference implementation of :meth:`retained_generalization`."""
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
        prepared: "PreparedClause",
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
        except _BudgetExceeded:
            return None  # treat as blocking: dropping is the conservative choice

    # ------------------------------------------------------------------ #
    # preprocessing helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _collapse_map(clause: HornClause) -> _UnionFind:
        uf = _UnionFind()
        for literal in clause.body:
            if literal.kind is LiteralKind.EQUALITY:
                uf.union(literal.terms[0], literal.terms[1])
        return uf

    @staticmethod
    def _canon(term: Term, collapse: _UnionFind) -> Term:
        return collapse.find(term)

    def _collapsed_structural_literals(self, clause: HornClause, collapse: _UnionFind) -> list[Literal]:
        mapping_cache: dict[Term, Term] = {}

        def canon(term: Term) -> Term:
            if term not in mapping_cache:
                mapping_cache[term] = collapse.find(term)
            return mapping_cache[term]

        literals: list[Literal] = []
        for literal in clause.body:
            if literal.is_relation or literal.is_repair:
                mapping = {t: canon(t) for t in literal.all_terms()}
                literals.append(literal.replace_terms(mapping))
        return literals

    @staticmethod
    def _collapsed_pairs(clause: HornClause, kind: LiteralKind, collapse: _UnionFind) -> set[frozenset[Term]]:
        pairs: set[frozenset[Term]] = set()
        for literal in clause.body:
            if literal.kind is kind:
                left = collapse.find(literal.terms[0])
                right = collapse.find(literal.terms[1])
                pairs.add(frozenset((left, right)))
        return pairs

    @staticmethod
    def _index_by_signature(literals: Sequence[Literal]) -> dict[tuple[str, str, int], list[Literal]]:
        index: dict[tuple[str, str, int], list[Literal]] = {}
        for literal in literals:
            index.setdefault(literal.signature(), []).append(literal)
        return index

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
        d_index: dict[tuple[str, str, int], list[Literal]],
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

        Raises :class:`_BudgetExceeded` when the per-check step budget runs
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
                raise _BudgetExceeded()

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
                            raise _BudgetExceeded()
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


#: Default checkers for the convenience wrapper are per-thread: a checker's
#: step-budget counter is instance state, so one shared module-level instance
#: would race when callers on two threads use the wrapper (one thread's long
#: search could exhaust — or reset — another's budget).
_DEFAULT_CHECKERS = threading.local()


def _default_checker() -> SubsumptionChecker:
    checker = getattr(_DEFAULT_CHECKERS, "checker", None)
    if checker is None:
        checker = SubsumptionChecker()
        _DEFAULT_CHECKERS.checker = checker
    return checker


def theta_subsumes(general: HornClause, specific: HornClause, checker: SubsumptionChecker | None = None) -> bool:
    """Convenience wrapper returning only the boolean verdict."""
    return (checker or _default_checker()).subsumes(general, specific).subsumes
