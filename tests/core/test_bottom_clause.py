"""Unit tests for bottom-clause construction (Algorithm 2) over the toy movie database."""

from __future__ import annotations

import pytest

from repro.core import ClauseAssembler, Example, FrontierChase
from repro.logic import Constant, LiteralKind


def make_assembler(problem, config, indexes) -> ClauseAssembler:
    return ClauseAssembler(problem, config, FrontierChase(problem, config, indexes))


@pytest.fixture
def assembler(movie_problem, fast_config) -> ClauseAssembler:
    indexes = movie_problem.build_similarity_indexes(
        top_k=fast_config.top_k_matches, threshold=fast_config.similarity_threshold
    )
    return make_assembler(movie_problem, fast_config, indexes)


POSITIVE = Example(("m1",), True)


class TestRelevantTupleGathering:
    def test_reaches_own_source_tuples(self, assembler):
        relevant = assembler.chase.relevant(POSITIVE)
        relations = {tup.relation for tup in relevant.tuples}
        assert {"movies", "mov2genres", "mov2countries", "mov2releasedate"} <= relations

    def test_reaches_other_source_through_md(self, assembler):
        relevant = assembler.chase.relevant(POSITIVE)
        relations = {tup.relation for tup in relevant.tuples}
        assert "bom_movies" in relations
        assert "bom_gross" in relations
        assert any(evidence.md_name == "md_movie_titles" for evidence in relevant.similarity_evidence)

    def test_gathering_is_deterministic_and_cached(self, assembler):
        first = assembler.chase.relevant(POSITIVE)
        second = assembler.chase.relevant(POSITIVE)
        assert first is second
        assert [t.values for t in first.tuples] == [t.values for t in second.tuples]

    def test_iteration_depth_controls_reach(self, movie_problem, fast_config):
        shallow_config = fast_config.but(iterations=1)
        indexes = movie_problem.build_similarity_indexes(top_k=2, threshold=0.6)
        shallow = make_assembler(movie_problem, shallow_config, indexes)
        deep = make_assembler(movie_problem, fast_config, indexes)
        shallow_relations = {t.relation for t in shallow.chase.relevant(POSITIVE).tuples}
        deep_relations = {t.relation for t in deep.chase.relevant(POSITIVE).tuples}
        # bom_gross is only reachable after the bom_movies tuple was reached,
        # i.e. it needs at least two iterations.
        assert "bom_gross" not in shallow_relations
        assert "bom_gross" in deep_relations

    def test_source_restriction(self, movie_problem, fast_config):
        restricted_config = fast_config.but(use_mds=False, restrict_sources=frozenset({"imdb"}))
        assembler = make_assembler(movie_problem, restricted_config, {})
        relations = {t.relation for t in assembler.chase.relevant(POSITIVE).tuples}
        assert relations and all(not name.startswith("bom_") for name in relations)

    def test_no_mds_means_no_similarity_evidence(self, movie_problem, fast_config):
        assembler = make_assembler(movie_problem, fast_config.but(use_mds=False), {})
        relevant = assembler.chase.relevant(POSITIVE)
        assert relevant.similarity_evidence == []

    def test_exact_match_only_mode(self, movie_problem, fast_config):
        indexes = movie_problem.build_similarity_indexes(top_k=2, threshold=0.6)
        assembler = make_assembler(movie_problem, fast_config.but(exact_match_only=True), indexes)
        relevant = assembler.chase.relevant(POSITIVE)
        assert relevant.similarity_evidence == []
        # The heterogeneous BOM titles cannot be reached by exact matching.
        assert all(t.relation not in ("bom_movies", "bom_gross") for t in relevant.tuples)


class TestClauseConstruction:
    def test_head_uses_example_values(self, assembler):
        clause = assembler.bottom_clause(POSITIVE)
        assert clause.head.predicate == "highGrossing"
        assert clause.head.arity == 1

    def test_variabilisation_and_constant_attributes(self, assembler):
        clause = assembler.bottom_clause(POSITIVE)
        genre_literals = [lit for lit in clause.body if lit.predicate == "mov2genres"]
        assert genre_literals
        # The genre attribute was declared categorical, so the value stays a constant.
        assert Constant("comedy") in genre_literals[0].terms
        movie_literals = [lit for lit in clause.body if lit.predicate == "movies"]
        assert all(not isinstance(term, Constant) for term in movie_literals[0].terms)

    def test_md_match_adds_similarity_and_repair_group(self, assembler):
        clause = assembler.bottom_clause(POSITIVE)
        kinds = [lit.kind for lit in clause.body]
        assert LiteralKind.SIMILARITY in kinds
        assert LiteralKind.REPAIR in kinds
        md_repairs = [lit for lit in clause.repair_literals if lit.provenance.startswith("md:")]
        assert len(md_repairs) % 2 == 0 and md_repairs

    def test_ground_clause_keeps_constants(self, assembler):
        ground = assembler.bottom_clause(POSITIVE, ground=True)
        movie_literals = [lit for lit in ground.body if lit.predicate == "movies"]
        assert Constant("m1") in movie_literals[0].terms
        # Repair replacement variables stay variables even in ground clauses.
        assert any(not isinstance(lit.terms[1], Constant) for lit in ground.repair_literals)

    def test_bottom_clause_is_head_connected(self, assembler):
        clause = assembler.bottom_clause(POSITIVE)
        assert clause.is_head_connected()

    def test_sample_size_bounds_literal_count(self, movie_problem, fast_config):
        indexes = movie_problem.build_similarity_indexes(top_k=2, threshold=0.6)
        small = make_assembler(movie_problem, fast_config.but(sample_size=1), indexes)
        large = make_assembler(movie_problem, fast_config.but(sample_size=8), indexes)
        assert len(small.bottom_clause(POSITIVE).body) <= len(large.bottom_clause(POSITIVE).body)


class TestCFDRepairLiterals:
    def test_cfd_violation_in_clause_gets_repair_group(self, movie_problem, fast_config):
        # Make m1 carry two conflicting genres, violating cfd_movie_genre.
        dirty = movie_problem.database.with_rows({"mov2genres": [("m1", "horror")]})
        problem = movie_problem.with_database(dirty)
        indexes = problem.build_similarity_indexes(top_k=2, threshold=0.6)
        assembler = make_assembler(problem, fast_config, indexes)
        clause = assembler.bottom_clause(POSITIVE)
        cfd_repairs = [lit for lit in clause.repair_literals if lit.provenance.startswith("cfd:")]
        assert cfd_repairs
        assert all("cfd_movie_genre" in lit.provenance for lit in cfd_repairs)

    def test_no_cfd_literals_when_disabled(self, movie_problem, fast_config):
        dirty = movie_problem.database.with_rows({"mov2genres": [("m1", "horror")]})
        problem = movie_problem.with_database(dirty)
        assembler = make_assembler(problem, fast_config.but(use_cfds=False), {})
        clause = assembler.bottom_clause(POSITIVE)
        assert not any((lit.provenance or "").startswith("cfd:") for lit in clause.repair_literals)

    def test_repair_group_cap(self, movie_problem, fast_config):
        dirty = movie_problem.database.with_rows(
            {"mov2genres": [("m1", f"genre{i}") for i in range(6)]}
        )
        problem = movie_problem.with_database(dirty)
        assembler = make_assembler(problem, fast_config.but(max_repair_groups_per_clause=2), {})
        clause = assembler.bottom_clause(POSITIVE)
        violations = {
            lit.provenance.rsplit(":", 1)[0]
            for lit in clause.repair_literals
            if lit.provenance.startswith("cfd:")
        }
        assert len(violations) <= 2
