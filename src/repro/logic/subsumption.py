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

from .atoms import Literal
from .clauses import HornClause
from .compiled import BudgetExceeded, ClauseCompiler, CompiledGeneral, CompiledSearch, CompiledSpecific
from .substitution import Substitution

__all__ = [
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
class SearchStats:
    """Per-checker counters of the compiled engine's search profile.

    ``checks`` counts the compiled engine's verdicts
    (:meth:`SubsumptionChecker.subsumes`);
    ``retries`` / ``retry_exhausted`` count the full-backtracking fallbacks
    of :meth:`SubsumptionChecker.retained_generalization` and how many of
    them burnt their whole step budget; ``exhausted`` counts every search
    whose step budget ran out — verdicts, the greedy scans of
    :meth:`SubsumptionChecker.retained_generalization` and its retries.  An
    exhausted search concedes the conservative outcome (not subsumed, or the
    literal dropped), so ``exhausted == 0`` certifies that every answer was
    exact.  Counters are cumulative; :meth:`reset` rewinds them.
    """

    checks: int = 0
    # Always 0: read only by perfbench/tracer.py's ``logic.certificates`` metric.
    certificates: int = 0
    retries: int = 0
    retry_exhausted: int = 0
    exhausted: int = 0

    def reset(self) -> None:
        self.checks = self.retries = self.retry_exhausted = self.exhausted = 0


class SubsumptionChecker:
    """Reusable θ-subsumption checker.

    Every check runs on the compiled integer plane
    (:mod:`repro.logic.compiled`); the pure-Python object-level engine the
    property suites compare it against is
    :class:`repro.testing.oracles.ReferenceSubsumptionChecker`.

    A single instance is cheap and reusable across many checks, but NOT
    thread-safe: the search counters (``stats``) live on the instance, so
    concurrent searches must each use their own checker (as the per-thread
    default checker of :func:`theta_subsumes` does).

    Two semantic choices are fixed.  The second bullet of Definition 4.4
    (repair connectivity) is always enforced.  A repair literal of ``C``
    matches one of ``D`` when the substituted condition of ``C`` is a
    *subset* of ``D``'s condition, which is the right notion once
    generalisation has dropped literals (and with them some of the
    comparisons a condition referred to).

    Parameters
    ----------
    max_steps:
        Safety valve on the number of candidate-match attempts per search;
        ``None`` disables the limit.  When the limit is hit the clause pair
        is reported as not subsuming, which is sound for learning (a clause
        is never *wrongly* considered more general).
    compiler:
        The :class:`~repro.logic.compiled.ClauseCompiler` whose term
        dictionary and form caches prepared clauses come from.  Checkers that
        exchange prepared clauses (e.g. the sessions over one database
        preparation) must share one compiler; omitted, a private one is
        created.
    """

    def __init__(
        self,
        *,
        max_steps: int | None = 100_000,
        compiler: ClauseCompiler | None = None,
    ) -> None:
        self.max_steps = max_steps
        self.compiler = compiler if compiler is not None else ClauseCompiler()
        self.stats = SearchStats()

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def prepare(self, specific: HornClause) -> CompiledSpecific:
        """The compiled specific (D) side of *specific*, for repeated subsumption tests.

        Coverage testing subsumes many candidate clauses against the same
        ground bottom clause.  The compiler collapses the body's equalities,
        groups the literals by signature and interns them once per distinct
        ``(head, body)``; every later call, from any checker sharing the
        compiler, is served the same form from its cache.
        """
        return self.compiler.specific_form(specific)

    def prepare_general(self, general: HornClause) -> CompiledGeneral:
        """The compiled general (C) side of *general*, for repeated subsumption tests.

        One candidate clause is checked against many ground clauses; like
        :meth:`prepare`, the form is compiled once per distinct
        ``(head, body)`` and served from the compiler's cache.
        """
        return self.compiler.general_form(general)

    def _as_specific(self, specific: HornClause | CompiledSpecific) -> CompiledSpecific:
        if isinstance(specific, CompiledSpecific):
            if specific.terms is self.compiler.terms:
                return specific
            specific = specific.clause  # built by another compiler: recompile here
        return self.prepare(specific)

    def _as_general(self, general: HornClause | CompiledGeneral) -> CompiledGeneral:
        if isinstance(general, CompiledGeneral):
            if general.terms is self.compiler.terms:
                return general
            general = general.clause  # built by another compiler: recompile here
        return self.prepare_general(general)

    def subsumes(
        self, general: HornClause | CompiledGeneral, specific: HornClause | CompiledSpecific
    ) -> SubsumptionResult:
        """Check whether *general* θ-subsumes *specific*.

        Either side may be a clause or its prepared form
        (:meth:`prepare_general` / :meth:`prepare`); a clause is prepared
        through the compiler's cache, and a form built by another compiler
        is recompiled from its ``clause``.  The check runs on the integer
        plane.
        """
        search = self._run_compiled(self._as_general(general), self._as_specific(specific))
        if search is None:
            return SubsumptionResult(False)
        return SubsumptionResult(True, search.witness_theta(), search.witness_mapped())

    def _run_compiled(self, cg: CompiledGeneral, cs: CompiledSpecific) -> CompiledSearch | None:
        """Compiled search to a verdict under ``max_steps``; the successful search or ``None``.

        An exhausted budget concedes ``None``.  The connectivity retry
        continues the first search's step count under the same budget,
        exactly as the reference engine charges it.
        """
        self.stats.checks += 1
        search = CompiledSearch(cg, cs, max_steps=self.max_steps)
        if not search.seed_head():
            return None
        try:
            found = search.run()
            if found and cs.has_repairs and not search.connectivity_ok():
                # Retry exhaustively for a witness satisfying Definition 4.4's
                # connectivity requirement — the reference checker's retry,
                # on the integer plane.
                search = CompiledSearch(cg, cs, max_steps=self.max_steps, steps=search.steps)
                search.seed_head()
                found = search.run_with_connectivity()
        except BudgetExceeded:
            self.stats.exhausted += 1
            return None
        return search if found else None

    def retained_generalization(
        self, general: HornClause, specific: HornClause | CompiledSpecific
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

        Keep/drop decisions are witness-existence questions (the greedy
        extension is an optimisation, not a semantics), so running them on
        the compiled plane yields the same retained list as the reference
        loop — the property suite asserts this.
        """
        cg = self.compiler.general_form(general)
        cs = self._as_specific(specific)
        # The greedy scans get their own max_steps-sized budget for the whole
        # loop (separate from each backtracking retry's budget, which resets
        # per retry exactly like the reference's).  Exhausting it drops the
        # literal under scan and everything after it — the conservative,
        # more-general outcome, mirrored step-for-step by the reference loop.
        state = CompiledSearch(cg, cs, max_steps=self.max_steps)
        if not state.seed_head():
            return []
        # One head-only search state for the whole loop (the head mapping
        # never changes); each blocking probe rewinds it to the bare seed and
        # shares the greedy budget through explicit step syncing.
        head_state = CompiledSearch(cg, cs, max_steps=self.max_steps)
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
                self.stats.exhausted += 1
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
                self.stats.exhausted += 1
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
        self, cg: CompiledGeneral, cs: CompiledSpecific, goal_idxs: list[int], comp_idxs: list[int]
    ) -> CompiledSearch | None:
        """Full backtracking search used when the greedy witness extension fails.

        Each retry gets its own ``max_steps`` budget, exactly like the
        reference's; an exhausted retry concedes ``None`` — the conservative
        outcome that drops the literal under test.
        """
        self.stats.retries += 1
        retry = CompiledSearch(cg, cs, max_steps=self.max_steps)
        retry.seed_head()
        try:
            if retry.search(tuple(goal_idxs), cg.ordered_triples(comp_idxs), {}):
                return retry
        except BudgetExceeded:
            self.stats.retry_exhausted += 1
            self.stats.exhausted += 1
        return None


#: Default checkers for the convenience wrapper are per-thread: a checker's
#: search counters are instance state, so one shared module-level instance
#: would race when callers on two threads use the wrapper.
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
