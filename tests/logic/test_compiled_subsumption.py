"""Compiled integer-plane θ-subsumption vs the pure-Python reference oracle.

The compiled engine (:mod:`repro.logic.compiled`) must be observationally
equal to the reference checker: identical verdicts, identical retained
literal lists, and — whenever it reports subsumption — a *valid* witness
substitution.  The Hypothesis section generates random clause pairs over the
full extended language (equality-collapsed, similarity, inequality and
repair-condition literals) and compares the two engines literally.

The budget section covers the step-budget semantics the learner relies on:
adversarial symmetric clauses that exhaust ``max_steps`` must yield the
conservative "does not subsume" verdict in both engines, the budget must
reset between checks, and ``retained_generalization`` must treat budget
exhaustion of its backtracking retry as blocking.  The stats section pins
the :class:`~repro.logic.subsumption.SearchStats` counters the perfbench
tracer reads.

The threading section pins the thread-safety fix for the ``theta_subsumes``
convenience wrapper: default checkers are per-thread, so the step counter of
one thread's search can no longer corrupt another's.
"""

from __future__ import annotations

import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic import (
    ClauseCompiler,
    Comparison,
    ComparisonOp,
    CompiledGeneral,
    CompiledSpecific,
    Condition,
    Constant,
    HornClause,
    TermInterner,
    Variable,
    equality_literal,
    inequality_literal,
    relation_literal,
    repair_literal,
    similarity_literal,
    theta_subsumes,
)
from repro.logic import compiled as compiled_module
from repro.logic.subsumption import SubsumptionChecker, _default_checker
from repro.testing.oracles import ReferenceSubsumptionChecker

X, Y, Z, W = Variable("x"), Variable("y"), Variable("z"), Variable("w")
A, B, C = Variable("a"), Variable("b"), Variable("c")


def head(term=X, predicate="t"):
    return relation_literal(predicate, term)


def compiled_checker(**kwargs) -> SubsumptionChecker:
    return SubsumptionChecker(**kwargs)


def reference_checker(**kwargs) -> SubsumptionChecker:
    return ReferenceSubsumptionChecker(**kwargs)


# --------------------------------------------------------------------- #
# the random clause-pair generator
# --------------------------------------------------------------------- #
_VARS = [Variable(f"v{i}") for i in range(6)]
_CONSTS = [Constant(v) for v in ("a", "b", "c", 1)]
_PREDICATES = ["r", "s", "t3"]


def _terms(ground: bool):
    return st.sampled_from(_CONSTS) if ground else st.sampled_from(_VARS + _CONSTS)


def _literals(ground: bool):
    term = _terms(ground)

    relation = st.builds(
        lambda p, ts: relation_literal(p, *ts),
        st.sampled_from(_PREDICATES),
        st.tuples(term, term),
    )
    comparison = st.builds(
        lambda kind, l, r: kind(l, r),
        st.sampled_from([equality_literal, similarity_literal, inequality_literal]),
        term,
        term,
    )
    repair = st.builds(
        lambda target, repl, op, cl, cr: repair_literal(
            target, repl, Condition.of(Comparison(op, cl, cr)), provenance="md:m:0"
        ),
        term,
        term,
        st.sampled_from([ComparisonOp.SIM, ComparisonOp.EQ, ComparisonOp.NEQ]),
        term,
        term,
    )
    return st.one_of(relation, relation, comparison, repair)


def _clauses(ground: bool, min_body: int, max_body: int):
    return st.builds(
        lambda h, body: HornClause(relation_literal("h", *h), tuple(body)),
        st.tuples(_terms(ground), _terms(ground)),
        st.lists(_literals(ground), min_size=min_body, max_size=max_body),
    )


CLAUSE_PAIRS = st.tuples(
    _clauses(ground=False, min_body=1, max_body=6),
    st.booleans().flatmap(lambda g: _clauses(ground=g, min_body=2, max_body=10)),
)


def _assert_witness_valid(checker: SubsumptionChecker, general: HornClause, specific: HornClause, result):
    """A reported witness must map every relation literal of C into collapsed D."""
    prepared = checker.prepare(specific)
    collapsed_literals = {literal for literals in prepared.index.values() for literal in literals}
    theta = result.theta
    assert theta is not None
    for literal in general.body:
        if not literal.is_relation:
            continue
        applied = theta.apply_literal(literal)
        canonical = applied.replace_terms({t: prepared.collapse.find(t) for t in applied.all_terms()})
        assert canonical in collapsed_literals, f"witness does not map {literal} into D"


class TestCompiledEqualsReference:
    @settings(max_examples=300, deadline=None)
    @given(CLAUSE_PAIRS)
    def test_verdicts_and_witnesses_agree(self, pair):
        general, specific = pair
        compiled = compiled_checker().subsumes(general, specific)
        reference = reference_checker().subsumes(general, specific)
        assert compiled.subsumes == reference.subsumes
        if compiled.subsumes:
            _assert_witness_valid(reference_checker(), general, specific, compiled)

    @settings(max_examples=300, deadline=None)
    @given(CLAUSE_PAIRS)
    def test_retained_literal_lists_are_identical(self, pair):
        general, specific = pair
        assert compiled_checker().retained_generalization(
            general, specific
        ) == reference_checker().retained_generalization(general, specific)

    def test_component_decomposition_handles_independent_join_chains(self):
        """Two chains sharing only the head variable solve as separate components."""
        general = HornClause(
            head(X),
            (
                relation_literal("r", X, Y),
                relation_literal("s", Y, Z),
                relation_literal("r", X, W),
                relation_literal("t3", W, Variable("u")),
            ),
        )
        consts = [Constant(f"k{i}") for i in range(6)]
        specific = HornClause(
            head(consts[0]),
            (
                relation_literal("r", consts[0], consts[1]),
                relation_literal("s", consts[1], consts[2]),
                relation_literal("r", consts[0], consts[3]),
                relation_literal("t3", consts[3], consts[4]),
            ),
        )
        result = compiled_checker().subsumes(general, specific)
        assert result.subsumes
        _assert_witness_valid(reference_checker(), general, specific, result)
        # A broken second chain must fail the conjunction.
        broken = HornClause(specific.head, specific.body[:3])
        assert not compiled_checker().subsumes(general, broken).subsumes
        assert not reference_checker().subsumes(general, broken).subsumes


class TestTermInterner:
    def test_ids_are_dense_and_stable(self):
        interner = TermInterner()
        first = interner.intern(Constant("a"))
        second = interner.intern(Variable("x"))
        assert (first, second) == (0, 1)
        assert interner.intern(Constant("a")) == first
        assert interner.term_of(second) == Variable("x")
        assert not interner.is_var(first) and interner.is_var(second)
        assert len(interner) == 2

    def test_equal_terms_share_one_id_across_clauses(self):
        compiler = ClauseCompiler()
        checker = compiled_checker(compiler=compiler)
        specific = HornClause(head(A), (relation_literal("r", A, Constant("a")),))
        general = HornClause(head(), (relation_literal("r", X, Constant("a")),))
        assert checker.subsumes(general, specific).subsumes
        assert compiler.terms.intern(Constant("a")) == compiler.terms.intern(Constant("a"))

    def test_prepare_serves_cached_compiled_forms(self):
        """The prepared form is the compiled form, one per (head, body) per compiler."""
        compiler = ClauseCompiler()
        checker = compiled_checker(compiler=compiler)
        general_clause = HornClause(head(), (relation_literal("r", X, Y),))
        specific_clause = HornClause(head(A), (relation_literal("r", A, B),))
        general = checker.prepare_general(general_clause)
        specific = checker.prepare(specific_clause)
        assert isinstance(general, CompiledGeneral) and isinstance(specific, CompiledSpecific)
        assert general.clause is general_clause and specific.clause is specific_clause
        assert checker.subsumes(general, specific).subsumes
        # An equal clause rebuilt from the same parts, and any other checker
        # over the same compiler, get the very same forms.
        assert checker.prepare_general(HornClause(general_clause.head, general_clause.body)) is general
        assert checker.prepare(HornClause(specific_clause.head, specific_clause.body)) is specific
        other = compiled_checker(compiler=compiler, max_steps=None)
        assert other.prepare(specific_clause) is specific
        assert other.prepare_general(general_clause) is general

    def test_order_variant_clauses_do_not_share_compiled_forms(self):
        """Regression: HornClause equality ignores body order, compiled forms must not.

        ``retained_generalization`` processes literals in body order, so two
        clauses that are *equal* (same head, same body set) but ordered
        differently produce different retained lists; a shared compiler must
        not serve one's compiled form for the other.
        """
        compiler = ClauseCompiler()
        checker = compiled_checker(compiler=compiler)
        reference = reference_checker()
        r, s = relation_literal("r", X, Y), relation_literal("s", Y)
        first_r = HornClause(head(X), (r, s))
        first_s = HornClause(head(X), (s, r))
        assert first_r == first_s  # equal clauses, different body order
        specific = HornClause(head(A), (relation_literal("r", A, B), relation_literal("s", C)))
        # Greedy keeps whichever literal comes first and drops the other.
        assert checker.retained_generalization(first_r, specific) == reference.retained_generalization(
            first_r, specific
        ) == [r]
        assert checker.retained_generalization(first_s, specific) == reference.retained_generalization(
            first_s, specific
        ) == [s]

    def test_duplicate_literal_clauses_do_not_share_compiled_forms(self):
        """Regression: clause equality also folds duplicate body literals."""
        compiler = ClauseCompiler()
        checker = compiled_checker(compiler=compiler)
        reference = reference_checker()
        r = relation_literal("r", X, Y)
        single = HornClause(head(X), (r,))
        doubled = HornClause(head(X), (r, r))
        assert single == doubled
        specific = HornClause(head(A), (relation_literal("r", A, B),))
        assert checker.retained_generalization(single, specific) == reference.retained_generalization(
            single, specific
        ) == [r]
        assert checker.retained_generalization(doubled, specific) == reference.retained_generalization(
            doubled, specific
        ) == [r, r]

    def test_foreign_compiled_forms_are_recompiled(self):
        """A prepared clause compiled under another session's interner is recompiled."""
        general = HornClause(head(), (relation_literal("r", X, Y),))
        specific = HornClause(head(A), (relation_literal("r", A, B),))
        first = compiled_checker()
        prepared_general = first.prepare_general(general)
        prepared = first.prepare(specific)
        assert first.subsumes(prepared_general, prepared).subsumes
        second = compiled_checker()
        assert second.subsumes(prepared_general, prepared).subsumes
        assert second.retained_generalization(general, prepared) == list(general.body)
        # The second checker compiled both sides from their clauses, through
        # its own interner and into its own cache.
        assert (general.head, general.body) in second.compiler._general_cache
        assert (specific.head, specific.body) in second.compiler._specific_cache
        assert second.prepare_general(general).terms is second.compiler.terms
        assert second.prepare(specific).terms is second.compiler.terms
        assert second.prepare(specific) is not prepared

    def test_compiled_form_caches_stay_bounded(self, monkeypatch):
        """Past its bound a form cache is cleared wholesale; verdicts do not change."""
        generals = [
            HornClause(head(), (relation_literal("r", X, Constant(f"c{i}")),)) for i in range(6)
        ]
        specifics = [
            HornClause(head(A), (relation_literal("r", A, Constant(f"c{i % 4}")), relation_literal("s", A)))
            for i in range(10)
        ] + [HornClause(head(A), (relation_literal("r", A, B), equality_literal(B, Constant("c5"))))]

        def verdicts(checker):
            return [checker.subsumes(g, s).subsumes for g in generals for s in specifics]

        expected = verdicts(reference_checker())
        assert verdicts(compiled_checker()) == expected
        assert any(expected) and not all(expected)

        monkeypatch.setattr(compiled_module, "_COMPILE_CACHE_SIZE", 4)
        compiler = ClauseCompiler()
        checker = compiled_checker(compiler=compiler)
        for _ in range(2):  # the second pass re-compiles what eviction dropped
            observed = []
            for g in generals:
                for s in specifics:
                    observed.append(checker.subsumes(g, s).subsumes)
                    assert len(compiler._general_cache) <= 4
                    assert len(compiler._specific_cache) <= 4
            assert observed == expected
        assert compiler._specific_cache and compiler._general_cache


def _symmetric_chain_pair(length: int = 6) -> tuple[HornClause, HornClause]:
    """Adversarial symmetric clauses: every variable chain matches every other."""
    general = HornClause(
        head(Variable("x0")),
        tuple(relation_literal("r", Variable(f"x{i}"), Variable(f"x{i+1}")) for i in range(length)),
    )
    specific = HornClause(
        head(Variable("a0")),
        tuple(relation_literal("r", Variable(f"a{i}"), Variable(f"a{i+1}")) for i in range(length)),
    )
    return general, specific


class TestStepBudget:
    def test_exhaustion_is_conservative_in_both_engines(self):
        general, specific = _symmetric_chain_pair()
        for make in (compiled_checker, reference_checker):
            assert make(max_steps=None).subsumes(general, specific).subsumes
            assert not make(max_steps=2).subsumes(general, specific).subsumes

    def test_budget_resets_between_checks(self):
        general, specific = _symmetric_chain_pair()
        easy_general = HornClause(head(), (relation_literal("r", X, Y),))
        easy_specific = HornClause(head(A), (relation_literal("r", A, B),))
        for make in (compiled_checker, reference_checker):
            checker = make(max_steps=2)
            assert not checker.subsumes(general, specific).subsumes  # exhausts
            # A fresh check starts from a fresh budget: the easy pair passes,
            # and the hard pair keeps failing identically on every retry.
            assert checker.subsumes(easy_general, easy_specific).subsumes
            assert not checker.subsumes(general, specific).subsumes

    def test_retained_generalization_treats_exhaustion_as_blocking(self):
        general = HornClause(head(X), (relation_literal("r", X, Y), relation_literal("s", Y)))
        specific = HornClause(
            head(A),
            (
                relation_literal("r", A, B),
                relation_literal("r", A, C),
                relation_literal("s", C),
            ),
        )
        for make in (compiled_checker, reference_checker):
            # Generous budget: the greedy choice r(x,y)→r(a,b) makes s(y)
            # fail, and the backtracking retry recovers the y→c witness.
            assert make().retained_generalization(general, specific) == list(general.body)
            # One-step budget: the retry exhausts and the literal is dropped
            # — the conservative choice.
            assert make(max_steps=1).retained_generalization(general, specific) == [general.body[0]]

    def test_pathological_pair_terminates_under_budget(self):
        # The greedy and connectivity searches of the compiled retained path
        # charge the caller's budget; the chain pair makes an unbounded
        # search combinatorial.  Small budget ⇒ fast return, identical in
        # both engines (both conservative).
        general, specific = _symmetric_chain_pair(10)
        compiled = compiled_checker(max_steps=50).retained_generalization(general, specific)
        reference = reference_checker(max_steps=50).retained_generalization(general, specific)
        assert compiled == reference

    def test_greedy_budget_is_charged_identically_across_engines(self):
        general, specific = _doomed_retry_pair(width=30)
        for budget in (1, 5, 40, None):
            assert compiled_checker(max_steps=budget).retained_generalization(
                general, specific
            ) == reference_checker(max_steps=budget).retained_generalization(general, specific)


def _doomed_retry_pair(width: int) -> tuple[HornClause, HornClause]:
    """Greedy fails on ``s(y)`` and every backtracking retry is doomed.

    The specific clause offers *width* ``r``-rows, none of whose objects
    appears in the single ``s``-row, so the retry searches (and, with a small
    budget, exhausts) the whole row block.
    """
    general = HornClause(head(X), (relation_literal("r", X, Y), relation_literal("s", Y)))
    body = [relation_literal("r", Constant("k0"), Constant(f"b{i}")) for i in range(width)]
    body.append(relation_literal("s", Constant("c")))
    return general, HornClause(head(Constant("k0")), tuple(body))


class TestSearchStats:
    """The compiled engine's counters, which the perfbench tracer reports."""

    def test_tight_budget_retry_exhausts(self):
        general, specific = _doomed_retry_pair(width=40)
        checker = compiled_checker(max_steps=25)
        assert checker.retained_generalization(general, specific) == [general.body[0]]
        assert checker.stats.retries == 1
        assert checker.stats.retry_exhausted == 1

    def test_retry_that_resolves(self):
        # The greedy choice r(x,y)→r(a,b) makes s(y) fail; the retry finds y→c.
        general = HornClause(head(X), (relation_literal("r", X, Y), relation_literal("s", Y)))
        specific = HornClause(
            head(A),
            (relation_literal("r", A, B), relation_literal("r", A, C), relation_literal("s", C)),
        )
        checker = compiled_checker()
        assert checker.retained_generalization(general, specific) == list(general.body)
        assert (checker.stats.retries, checker.stats.retry_exhausted) == (1, 0)

    def test_exhausted_verdict_is_counted(self):
        general, specific = _symmetric_chain_pair()
        checker = compiled_checker(max_steps=2)
        assert not checker.subsumes(general, specific).subsumes
        assert (checker.stats.exhausted, checker.stats.retry_exhausted) == (1, 0)
        unbounded = compiled_checker(max_steps=None)
        assert unbounded.subsumes(general, specific).subsumes
        assert unbounded.stats.exhausted == 0

    def test_exhausted_greedy_scan_is_counted(self):
        # A one-step budget runs out in the greedy scans, before any retry.
        general, specific = _doomed_retry_pair(width=30)
        checker = compiled_checker(max_steps=1)
        assert checker.retained_generalization(general, specific) == [general.body[0]]
        assert (checker.stats.exhausted, checker.stats.retries) == (1, 0)

    def test_exhausted_retry_is_counted_once_in_each_counter(self):
        general, specific = _doomed_retry_pair(width=40)
        checker = compiled_checker(max_steps=25)
        checker.retained_generalization(general, specific)
        assert (checker.stats.retry_exhausted, checker.stats.exhausted) == (1, 1)

    def test_stats_reset(self):
        general, specific = _doomed_retry_pair(width=40)
        checker = compiled_checker(max_steps=25)
        checker.subsumes(general, specific)
        checker.retained_generalization(general, specific)
        assert (checker.stats.checks, checker.stats.retries, checker.stats.retry_exhausted) == (1, 1, 1)
        assert checker.stats.exhausted == 2  # the verdict and the retry
        checker.stats.reset()
        stats = checker.stats
        counters = (stats.checks, stats.certificates, stats.retries, stats.retry_exhausted, stats.exhausted)
        assert counters == (0, 0, 0, 0, 0)


class TestThreadSafety:
    def test_default_checker_is_per_thread(self):
        checkers = {}

        def grab(name):
            checkers[name] = _default_checker()

        threads = [threading.Thread(target=grab, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len({id(checker) for checker in checkers.values()}) == len(threads)
        # And the calling thread's default is distinct from all of them.
        assert id(_default_checker()) not in {id(checker) for checker in checkers.values()}

    def test_concurrent_theta_subsumes_verdicts_are_correct(self):
        """Interleaved searches must not corrupt each other's step budgets."""
        hard_general, hard_specific = _symmetric_chain_pair(7)
        easy_general = HornClause(head(), (relation_literal("r", X, Y),))
        easy_specific = HornClause(head(A), (relation_literal("r", A, B),))
        wrong = HornClause(head(A), (relation_literal("s", A, B),))
        failures: list[str] = []

        def worker() -> None:
            for _ in range(30):
                if not theta_subsumes(hard_general, hard_specific):
                    failures.append("hard pair must subsume")
                if not theta_subsumes(easy_general, easy_specific):
                    failures.append("easy pair must subsume")
                if theta_subsumes(easy_general, wrong):
                    failures.append("mismatched predicate must not subsume")

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures, failures
