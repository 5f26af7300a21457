"""Unit and property tests for θ-subsumption (including repair-literal semantics)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic import (
    Comparison,
    ComparisonOp,
    Condition,
    CompiledGeneral,
    Constant,
    HornClause,
    SubsumptionChecker,
    Variable,
    equality_literal,
    relation_literal,
    repair_literal,
    similarity_literal,
    theta_subsumes,
)
from repro.testing.oracles import ReferenceSubsumptionChecker

X, Y, Z, W = Variable("x"), Variable("y"), Variable("z"), Variable("w")
A, B, C = Variable("a"), Variable("b"), Variable("c")


def head(term=X, predicate="t"):
    return relation_literal(predicate, term)


class TestPlainSubsumption:
    def test_paper_example(self):
        """C1: highGrossing(x) ← movies(x,y,z) subsumes C2 with the extra genre literal."""
        c1 = HornClause(head(X, "highGrossing"), (relation_literal("movies", X, Y, Z),))
        c2 = HornClause(
            head(A, "highGrossing"),
            (relation_literal("movies", A, B, C), relation_literal("mov2genres", B, Constant("comedy"))),
        )
        assert theta_subsumes(c1, c2)
        assert not theta_subsumes(c2, c1)

    def test_subsumption_is_reflexive(self):
        clause = HornClause(head(), (relation_literal("r", X, Y), relation_literal("s", Y)))
        assert theta_subsumes(clause, clause)

    def test_different_head_predicates_never_subsume(self):
        c1 = HornClause(relation_literal("t", X), (relation_literal("r", X),))
        c2 = HornClause(relation_literal("u", X), (relation_literal("r", X),))
        assert not theta_subsumes(c1, c2)

    def test_constants_must_match(self):
        c1 = HornClause(head(), (relation_literal("r", X, Constant("comedy")),))
        c2 = HornClause(head(A), (relation_literal("r", A, Constant("drama")),))
        c3 = HornClause(head(A), (relation_literal("r", A, Constant("comedy")),))
        assert not theta_subsumes(c1, c2)
        assert theta_subsumes(c1, c3)

    def test_variable_must_map_consistently(self):
        c1 = HornClause(head(), (relation_literal("r", X, Y), relation_literal("s", Y, X)))
        c2 = HornClause(head(A), (relation_literal("r", A, B), relation_literal("s", C, A)))
        assert not theta_subsumes(c1, c2)
        c3 = HornClause(head(A), (relation_literal("r", A, B), relation_literal("s", B, A)))
        assert theta_subsumes(c1, c3)

    def test_shorter_clause_is_more_general(self):
        specific = HornClause(
            head(A),
            tuple(relation_literal(f"r{i}", A, Variable(f"b{i}")) for i in range(5)),
        )
        general = HornClause(head(X), (relation_literal("r0", X, Y),))
        assert theta_subsumes(general, specific)
        assert not theta_subsumes(specific, general)

    def test_witness_is_reported(self):
        checker = SubsumptionChecker()
        c1 = HornClause(head(), (relation_literal("r", X, Y),))
        c2 = HornClause(head(Constant("m1")), (relation_literal("r", Constant("m1"), Constant("t")),))
        result = checker.subsumes(c1, c2)
        assert result.subsumes
        assert result.theta is not None
        assert result.theta.apply_term(X) == Constant("m1")
        assert len(result.mapped) == 1


class TestComparisonLiterals:
    def test_equality_in_specific_is_collapsed(self):
        general = HornClause(head(), (relation_literal("r", X, Y), relation_literal("s", Y),))
        specific = HornClause(
            head(A),
            (relation_literal("r", A, B), equality_literal(B, C), relation_literal("s", C)),
        )
        assert theta_subsumes(general, specific)

    def test_equality_in_general_requires_equal_images(self):
        general = HornClause(head(), (relation_literal("r", X, Y), equality_literal(X, Y)))
        distinct = HornClause(head(A), (relation_literal("r", A, B),))
        merged = HornClause(head(A), (relation_literal("r", A, B), equality_literal(A, B)))
        assert not theta_subsumes(general, distinct)
        assert theta_subsumes(general, merged)

    def test_similarity_literal_must_be_present(self):
        general = HornClause(head(), (relation_literal("r", X, Y), similarity_literal(X, Y)))
        without = HornClause(head(A), (relation_literal("r", A, B),))
        with_similarity = HornClause(head(A), (relation_literal("r", A, B), similarity_literal(A, B)))
        assert not theta_subsumes(general, without)
        assert theta_subsumes(general, with_similarity)

    def test_similarity_is_symmetric(self):
        general = HornClause(head(), (relation_literal("r", X, Y), similarity_literal(Y, X)))
        specific = HornClause(head(A), (relation_literal("r", A, B), similarity_literal(A, B)))
        assert theta_subsumes(general, specific)


class TestRepairLiterals:
    def _md_pair(self, left, right, fresh_left, fresh_right, provenance="md:test:0"):
        condition = Condition.of(Comparison(ComparisonOp.SIM, left, right))
        return (
            similarity_literal(left, right, provenance=provenance),
            repair_literal(left, fresh_left, condition, provenance=provenance),
            repair_literal(right, fresh_right, condition, provenance=provenance),
            equality_literal(fresh_left, fresh_right, provenance=provenance),
        )

    def test_md_repair_clause_subsumes_matching_ground_clause(self):
        u1, u2 = Variable("u1"), Variable("u2")
        general = HornClause(
            head(X, "highGrossing"),
            (relation_literal("movies", Y, Z), *self._md_pair(X, Z, u1, u2)),
        )
        g1, g2 = Variable("g1"), Variable("g2")
        title_e, title_db = Constant("Superbad"), Constant("Superbad (2007)")
        specific = HornClause(
            head(title_e, "highGrossing"),
            (relation_literal("movies", Constant("m1"), title_db), *self._md_pair(title_e, title_db, g1, g2)),
        )
        assert theta_subsumes(general, specific)

    def test_repair_clause_does_not_subsume_clause_without_repairs(self):
        u1, u2 = Variable("u1"), Variable("u2")
        general = HornClause(
            head(X, "highGrossing"),
            (relation_literal("movies", Y, Z), *self._md_pair(X, Z, u1, u2)),
        )
        specific = HornClause(
            head(Constant("Superbad"), "highGrossing"),
            (relation_literal("movies", Constant("m1"), Constant("Superbad (2007)")),),
        )
        assert not theta_subsumes(general, specific)

    def test_connectivity_requirement_definition_4_4(self):
        """A mapped literal of D with a connected repair literal requires that repair to be mapped too."""
        general = HornClause(head(X), (relation_literal("r", X, Y),))
        specific = HornClause(
            head(A),
            (
                relation_literal("r", A, B),
                repair_literal(B, C, Condition.of(Comparison(ComparisonOp.SIM, A, B)), provenance="md:m:0"),
            ),
        )
        strict = SubsumptionChecker(respect_repair_connectivity=True)
        loose = SubsumptionChecker(respect_repair_connectivity=False)
        assert not strict.subsumes(general, specific).subsumes
        assert loose.subsumes(general, specific).subsumes

    def test_repair_literal_condition_subset_matching(self):
        left_cond = Condition.of(Comparison(ComparisonOp.NEQ, X, Y))
        right_cond = Condition.of(Comparison(ComparisonOp.NEQ, A, B), Comparison(ComparisonOp.EQ, A, C))
        general = HornClause(head(X), (relation_literal("r", X, Y), repair_literal(X, Z, left_cond, provenance="p")))
        specific = HornClause(
            head(A), (relation_literal("r", A, B), repair_literal(A, C, right_cond, provenance="p"))
        )
        assert theta_subsumes(general, specific)


class TestPreparedGeneral:
    """The prepared (compiled) general (C) side must be interchangeable with the raw clause."""

    def _pairs(self):
        u1, u2 = Variable("u1"), Variable("u2")
        condition = Condition.of(Comparison(ComparisonOp.SIM, X, Z))
        md_general = HornClause(
            head(X, "highGrossing"),
            (
                relation_literal("movies", Y, Z),
                similarity_literal(X, Z),
                repair_literal(X, u1, condition),
                repair_literal(Z, u2, condition),
                equality_literal(u1, u2),
            ),
        )
        g1, g2 = Variable("g1"), Variable("g2")
        title_e, title_db = Constant("Superbad"), Constant("Superbad (2007)")
        ground_condition = Condition.of(Comparison(ComparisonOp.SIM, title_e, title_db))
        md_specific = HornClause(
            head(title_e, "highGrossing"),
            (
                relation_literal("movies", Constant("m1"), title_db),
                similarity_literal(title_e, title_db),
                repair_literal(title_e, g1, ground_condition),
                repair_literal(title_db, g2, ground_condition),
                equality_literal(g1, g2),
            ),
        )
        plain_general = HornClause(head(), (relation_literal("r", X, Y), relation_literal("s", Y, X)))
        plain_yes = HornClause(head(A), (relation_literal("r", A, B), relation_literal("s", B, A)))
        plain_no = HornClause(head(A), (relation_literal("r", A, B), relation_literal("s", C, A)))
        return [(md_general, md_specific), (plain_general, plain_yes), (plain_general, plain_no)]

    def test_prepared_general_matches_raw_verdicts(self):
        checker = SubsumptionChecker()
        for general, specific in self._pairs():
            raw = checker.subsumes(general, specific).subsumes
            prepared_general = checker.prepare_general(general)
            assert isinstance(prepared_general, CompiledGeneral)
            assert checker.subsumes(prepared_general, specific).subsumes == raw
            # Both sides prepared at once.
            prepared_specific = checker.prepare(specific)
            assert checker.subsumes(prepared_general, prepared_specific).subsumes == raw

    def test_prepared_general_is_reusable(self):
        checker = SubsumptionChecker()
        general, specific = self._pairs()[0]
        prepared = checker.prepare_general(general)
        first = checker.subsumes(prepared, specific).subsumes
        second = checker.subsumes(prepared, specific).subsumes
        assert first == second == True  # noqa: E712


class TestUnionFindCollapse:
    def test_deep_equality_chain_does_not_hit_recursion_limit(self):
        """Regression: D-side equality chains used to recurse once per link."""
        depth = 3000  # far beyond the default recursion limit
        chain_vars = [Variable(f"c{i}") for i in range(depth + 1)]
        body = tuple(equality_literal(chain_vars[i], chain_vars[i + 1]) for i in range(depth)) + (
            relation_literal("r", A, chain_vars[0]),
        )
        specific = HornClause(head(A), body)
        general = HornClause(head(), (relation_literal("r", X, Y),))
        assert theta_subsumes(general, specific)

    def test_equality_of_distinct_constants_flags_unsatisfiable(self):
        # The flag lives on the collapse map, which only the reference
        # checker's object-level prepared form exposes.
        checker = ReferenceSubsumptionChecker()
        specific = HornClause(
            head(A),
            (
                relation_literal("r", A, Constant("comedy")),
                equality_literal(Constant("comedy"), Constant("drama")),
            ),
        )
        prepared = checker.prepare(specific)
        assert prepared.collapse.unsatisfiable

    def test_distinct_constants_are_not_silently_collapsed(self):
        """Regression: collapsing 'a' = 'b' let C match a literal it cannot map onto."""
        general = HornClause(head(), (relation_literal("r", X, Constant("drama")),))
        specific = HornClause(
            head(A),
            (
                relation_literal("r", A, Constant("comedy")),
                equality_literal(Constant("comedy"), Constant("drama")),
            ),
        )
        # Pre-fix the union-find collapsed the two constants, so C's 'drama'
        # literal wrongly matched D's 'comedy' literal.
        assert not theta_subsumes(general, specific)

    def test_satisfiable_bodies_stay_unflagged(self):
        checker = ReferenceSubsumptionChecker()
        specific = HornClause(
            head(A),
            (relation_literal("r", A, B), equality_literal(B, Constant("comedy"))),
        )
        prepared = checker.prepare(specific)
        assert not prepared.collapse.unsatisfiable
        general = HornClause(head(), (relation_literal("r", X, Constant("comedy")),))
        assert theta_subsumes(general, specific)


class TestBudgetAndConnectivityRetry:
    def test_exhausted_budget_reports_does_not_subsume(self):
        """A pair that subsumes under a generous budget must flip to the conservative 'no'."""
        body_general = tuple(
            relation_literal("r", Variable(f"x{i}"), Variable(f"x{i+1}")) for i in range(6)
        )
        body_specific = tuple(
            relation_literal("r", Variable(f"a{i}"), Variable(f"a{i+1}")) for i in range(6)
        )
        general = HornClause(head(Variable("x0")), body_general)
        specific = HornClause(head(Variable("a0")), body_specific)
        assert SubsumptionChecker(max_steps=None).subsumes(general, specific).subsumes
        assert not SubsumptionChecker(max_steps=2).subsumes(general, specific).subsumes

    def test_connectivity_retry_finds_alternative_witness(self):
        """Definition 4.4 retry: the first witness maps a literal with a connected
        unmapped repair literal; the exhaustive retry must find the clean one."""
        y1, y2, u = Variable("y1"), Variable("y2"), Variable("u")
        general = HornClause(head(X), (relation_literal("p", X, Y),))
        specific = HornClause(
            head(A),
            (
                relation_literal("p", A, y1),  # first candidate: connected to the repair below
                repair_literal(y1, u, Condition.of(Comparison(ComparisonOp.SIM, A, y1))),
                relation_literal("p", A, y2),  # repair-free alternative
            ),
        )
        checker = SubsumptionChecker(respect_repair_connectivity=True)
        result = checker.subsumes(general, specific)
        assert result.subsumes
        assert result.theta is not None
        assert result.theta.apply_term(Y) == y2

    def test_connectivity_retry_exhausts_to_no(self):
        """When every witness violates connectivity the verdict is 'does not subsume'."""
        y1, u = Variable("y1"), Variable("u")
        general = HornClause(head(X), (relation_literal("p", X, Y),))
        specific = HornClause(
            head(A),
            (
                relation_literal("p", A, y1),
                repair_literal(y1, u, Condition.of(Comparison(ComparisonOp.SIM, A, y1))),
            ),
        )
        strict = SubsumptionChecker(respect_repair_connectivity=True)
        loose = SubsumptionChecker(respect_repair_connectivity=False)
        assert not strict.subsumes(general, specific).subsumes
        assert loose.subsumes(general, specific).subsumes


class TestRobustness:
    def test_step_limit_reports_not_subsumed(self):
        checker = SubsumptionChecker(max_steps=1)
        c1 = HornClause(head(), tuple(relation_literal("r", Variable(f"x{i}"), Variable(f"x{i+1}")) for i in range(6)))
        c2 = HornClause(
            head(A), tuple(relation_literal("r", Variable(f"a{i}"), Variable(f"a{i+1}")) for i in range(6))
        )
        # With a one-step budget the search gives up; the answer must be the
        # conservative "no".
        assert not checker.subsumes(c1, c2).subsumes

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=3))
    def test_dropping_literals_preserves_subsumption(self, total, dropped):
        """Property: removing body literals yields a clause that subsumes the original."""
        body = tuple(relation_literal(f"r{i % 3}", X, Variable(f"y{i}")) for i in range(total))
        original = HornClause(head(), body)
        generalized = HornClause(head(), body[: max(0, total - dropped)])
        assert theta_subsumes(generalized, original)

    @settings(max_examples=25, deadline=None)
    @given(st.permutations(list(range(4))))
    def test_subsumption_is_insensitive_to_body_order(self, order):
        body = [
            relation_literal("r", X, Y),
            relation_literal("s", Y, Z),
            relation_literal("r", Z, W),
            similarity_literal(X, W),
        ]
        shuffled = HornClause(head(), tuple(body[i] for i in order))
        reference = HornClause(head(), tuple(body))
        specific = HornClause(
            head(A),
            (
                relation_literal("r", A, B),
                relation_literal("s", B, C),
                relation_literal("r", C, Variable("d")),
                similarity_literal(A, Variable("d")),
            ),
        )
        assert theta_subsumes(reference, specific) == theta_subsumes(shuffled, specific) == True  # noqa: E712
