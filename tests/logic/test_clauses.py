"""Unit tests for Horn clauses and definitions."""

from __future__ import annotations

import pytest

from repro.logic import (
    Condition,
    Comparison,
    ComparisonOp,
    Constant,
    Definition,
    HornClause,
    Substitution,
    Variable,
    VariableFactory,
    equality_literal,
    relation_literal,
    repair_literal,
    similarity_literal,
)

X, Y, Z, W = Variable("x"), Variable("y"), Variable("z"), Variable("w")


def clause_for_tests() -> HornClause:
    return HornClause(
        relation_literal("t", X),
        (
            relation_literal("r", X, Y),
            relation_literal("s", Y, Z),
            similarity_literal(X, Y),
        ),
    )


class TestBasics:
    def test_equality_ignores_body_order(self):
        head = relation_literal("t", X)
        a = HornClause(head, (relation_literal("r", X), relation_literal("s", X)))
        b = HornClause(head, (relation_literal("s", X), relation_literal("r", X)))
        assert a == b
        assert hash(a) == hash(b)

    def test_variables_and_constants(self):
        clause = HornClause(relation_literal("t", X), (relation_literal("r", X, Constant("a")),))
        assert clause.variables() == {X}
        assert clause.constants() == {Constant("a")}

    def test_body_kind_views(self):
        clause = HornClause(
            relation_literal("t", X),
            (relation_literal("r", X, Y), similarity_literal(X, Y), repair_literal(X, Z)),
        )
        assert len(clause.relation_literals) == 1
        assert len(clause.comparison_literals) == 1
        assert len(clause.repair_literals) == 1
        assert not clause.is_repaired
        assert clause.without(clause.repair_literals).is_repaired

    def test_str_rendering(self):
        clause = clause_for_tests()
        assert ":-" in str(clause)
        assert str(HornClause(relation_literal("t", X))).endswith(".")


class TestHeadConnectivity:
    def test_connected_literals_found_transitively(self):
        clause = clause_for_tests()
        assert clause.is_head_connected()

    def test_disconnected_literal_detected_and_pruned(self):
        clause = HornClause(
            relation_literal("t", X),
            (relation_literal("r", X, Y), relation_literal("q", Z, W)),
        )
        assert not clause.is_head_connected()
        pruned = clause.prune_disconnected()
        assert len(pruned.body) == 1
        assert pruned.body[0].predicate == "r"

    def test_repair_literal_connected_through_chain(self):
        clause = HornClause(
            relation_literal("t", X),
            (
                relation_literal("r", X, Y),
                repair_literal(Y, Z, provenance="p1"),
                repair_literal(Z, W, provenance="p2"),
            ),
        )
        anchor = clause.body[0]
        connected = clause.repair_literals_connected_to(anchor)
        assert len(connected) == 2

    def test_prune_dangling_restrictions(self):
        clause = HornClause(
            relation_literal("t", X),
            (relation_literal("r", X, Y), equality_literal(Z, W), equality_literal(X, Y)),
        )
        pruned = clause.prune_dangling_restrictions()
        kept = {str(lit) for lit in pruned.body}
        assert "z = w" not in kept
        assert "x = y" in kept


class TestRewriting:
    def test_apply_substitution(self):
        clause = clause_for_tests()
        applied = clause.apply(Substitution({X: Constant("a")}))
        assert Constant("a") in applied.head.terms

    def test_without_and_with_extra_body(self):
        clause = clause_for_tests()
        removed = clause.without([clause.body[0]])
        assert len(removed.body) == len(clause.body) - 1
        extended = removed.with_extra_body([clause.body[0]])
        assert extended == clause

    def test_with_extra_body_skips_duplicates(self):
        clause = clause_for_tests()
        assert clause.with_extra_body([clause.body[0]]) == clause

    def test_standardize_apart_renames_everything(self):
        clause = clause_for_tests()
        renamed = clause.standardize_apart(VariableFactory(prefix="fresh"))
        assert renamed.variables().isdisjoint(clause.variables())
        assert len(renamed.body) == len(clause.body)


class TestDefinition:
    def test_add_checks_target(self):
        definition = Definition("t")
        definition.add(HornClause(relation_literal("t", X), (relation_literal("r", X),)))
        with pytest.raises(ValueError):
            definition.add(HornClause(relation_literal("u", X)))

    def test_iteration_and_len(self):
        definition = Definition("t", [HornClause(relation_literal("t", X))])
        assert len(definition) == 1
        assert list(definition)[0].head.predicate == "t"
        assert bool(definition)

    def test_is_repaired(self):
        clean = Definition("t", [HornClause(relation_literal("t", X), (relation_literal("r", X),))])
        assert clean.is_repaired
        dirty = Definition("t", [HornClause(relation_literal("t", X), (repair_literal(X, Y),))])
        assert not dirty.is_repaired
