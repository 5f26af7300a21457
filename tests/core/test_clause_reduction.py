"""Clause reduction: the block search returns the greedy loop's clause.

:meth:`~repro.core.generalization.Generalizer.reduce_clause` drops the
droppable body literals in blocks — all of them first, then halves of a
block that lets a new negative in — while
:func:`repro.testing.oracles.reduce_clause_greedy` tries them one at a time.
The two agree whenever coverage is monotone in the clause body over the
literals tried, and budget exhaustion is one way to lose that, so every
comparison also asserts that no subsumption check ran out of steps.

The suite compares the two on the clauses learning actually hands to the
reduction (scenario-grid worlds, a generated movie world and the toy movie
world), on random subsets of the negatives, on a hand-built clause whose
widest reduction covers a new negative, and under a small CFD-expansion cap.
It also pins where monotonicity fails: dropping one literal of a CFD repair
group changes the group's repair.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DLearn, DLearnConfig, Example
from repro.core.generalization import Generalizer
from repro.data.registry import generate
from repro.data.synthetic import ScenarioSpec
from repro.evaluation.experiments import expand_scenario_grid
from repro.logic.atoms import relation_literal
from repro.logic.clauses import HornClause
from repro.logic.terms import Constant, Variable
from repro.testing.oracles import reduce_clause_greedy

FAST = DLearnConfig(
    iterations=2,
    sample_size=4,
    top_k_matches=3,
    generalization_sample=4,
    max_clauses=4,
    min_clause_positive_coverage=2,
    min_clause_precision=0.55,
    seed=0,
)

#: Clean and MD-drifted worlds, with and without CFD violations, two seeds.
GRID = expand_scenario_grid(
    ScenarioSpec(n_entities=60, n_positives=10, n_negatives=20, string_variant_intensity=0.3, null_rate=0.05),
    {"md_drift": [0.0, 0.6], "cfd_violation_rate": [0.0, 0.25], "seed": [3, 4]},
)

#: The benchmark's CFD-heavy knob mix, at a scenario seed whose bottom
#: clauses carry two-variant CFD repair groups.
CFD_HEAVY = ScenarioSpec(
    n_entities=120,
    n_positives=12,
    n_negatives=24,
    string_variant_intensity=0.6,
    md_drift=0.7,
    cfd_violation_rate=0.25,
    null_rate=0.05,
    duplicate_rate=0.1,
    seed=3,
)


@contextmanager
def recorded_reductions():
    """Record the (generalizer, clause, negatives) of every ``reduce_clause`` call."""
    calls: list[tuple[Generalizer, HornClause, list[Example]]] = []
    reduce_clause = Generalizer.reduce_clause

    def record(generalizer, clause, negatives):
        calls.append((generalizer, clause, list(negatives)))
        return reduce_clause(generalizer, clause, negatives)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Generalizer, "reduce_clause", record)
        yield calls


def covered(generalizer: Generalizer, clause: HornClause, negatives: list[Example]) -> set[int]:
    return {index for index, flag in enumerate(generalizer.engine.batch_covers(clause, negatives)) if flag}


def assert_reduces_like_greedy(generalizer: Generalizer, clause: HornClause, negatives: list[Example]) -> HornClause:
    checker = generalizer.engine.checker
    checker.stats.reset()
    reduced = generalizer.reduce_clause(clause, negatives)
    greedy = reduce_clause_greedy(generalizer, clause, negatives)
    assert checker.stats.exhausted == 0  # the precondition of the equivalence
    assert reduced.body == greedy.body
    assert set(reduced.body) <= set(clause.body)
    assert covered(generalizer, reduced, negatives) <= covered(generalizer, clause, negatives)
    return reduced


@pytest.fixture(scope="module")
def learned_reductions():
    """Every reduction learning runs on the grid worlds and a generated movie world.

    Each entry carries the world's examples too, so a test can hand the
    same clause other negatives.
    """
    datasets = [generate("synthetic", spec=spec) for spec in GRID]
    datasets.append(generate("imdb_omdb", n_movies=30, n_positives=6, n_negatives=8, seed=1))
    reductions = []
    for dataset in datasets:
        with recorded_reductions() as calls:
            DLearn(FAST).fit(dataset.problem())
        examples = dataset.examples.all()
        reductions.extend((generalizer, clause, negatives, examples) for generalizer, clause, negatives in calls)
    assert len(reductions) >= len(datasets)
    return reductions


def test_learned_reductions_equal_greedy(learned_reductions):
    for generalizer, clause, negatives, _ in learned_reductions:
        assert_reduces_like_greedy(generalizer, clause, negatives)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_block_reduction_equals_greedy_on_any_negatives(learned_reductions, data):
    index = data.draw(st.integers(0, len(learned_reductions) - 1), label="reduction")
    generalizer, clause, _, examples = learned_reductions[index]
    # Any example may serve as a negative: relabelled positives are the
    # negatives a generalised clause is most likely to let in.
    chosen = data.draw(st.lists(st.sampled_from(examples), unique=True), label="negatives")
    assert_reduces_like_greedy(generalizer, clause, [Example(e.values, False) for e in chosen])


def test_movie_world_reductions_equal_greedy(movie_problem, fast_config):
    with recorded_reductions() as calls:
        DLearn(fast_config).fit(movie_problem)
    assert calls
    for generalizer, clause, negatives in calls:
        assert_reduces_like_greedy(generalizer, clause, negatives)


def test_widest_candidate_covering_a_new_negative_halves_the_block(movie_problem, fast_config):
    session = DLearn(fast_config).session(movie_problem)
    generalizer = session.generalizer
    bottom = session.builder.build(Example(("m1",), True))
    movies = next(literal for literal in bottom.body if literal.predicate == "movies")
    # The movie, its cross-source gross evidence, and an incidental release
    # row joined only through the year: the gross evidence is what keeps
    # the low-grossing negatives out.
    incidental = relation_literal("mov2releasedate", Variable("z"), Constant("May"), movies.terms[2])
    body = [literal for literal in bottom.body if literal.predicate in ("movies", "bom_movies", "bom_gross")]
    body += [literal for literal in bottom.body if not literal.is_relation]
    clause = HornClause(bottom.head, (*body, incidental))
    negatives = list(movie_problem.examples.negatives)

    head_variables = clause.head.argument_variables()
    widest = clause.without(
        [literal for literal in clause.body if not literal.argument_variables() & head_variables]
    ).prune_disconnected().prune_dangling_restrictions()
    assert covered(generalizer, widest, negatives) - covered(generalizer, clause, negatives)

    reduced = assert_reduces_like_greedy(generalizer, clause, negatives)
    assert incidental not in reduced.body
    assert {"bom_movies", "bom_gross"} <= {literal.predicate for literal in reduced.body}


@pytest.fixture(scope="module")
def capped_cfd_world():
    config = FAST.but(max_cfd_expansions=2)
    dataset = generate("synthetic", spec=CFD_HEAVY)
    problem = dataset.problem()
    with recorded_reductions() as calls:
        model = DLearn(config).fit(problem)
    session = model.session
    positives = list(problem.examples.positives)
    bottoms = [session.builder.build(example) for example in positives]
    return session, problem, calls, bottoms


def test_reduction_equals_greedy_under_a_cfd_expansion_cap(capped_cfd_world):
    session, problem, calls, bottoms = capped_cfd_world
    assert calls
    for generalizer, clause, negatives in calls:
        assert_reduces_like_greedy(generalizer, clause, negatives)
    generalizer = session.generalizer
    negatives = list(problem.examples.negatives)
    relabelled = [Example(e.values, False) for e in problem.examples.all()]
    for bottom in bottoms:
        assert_reduces_like_greedy(generalizer, bottom, negatives)
        for seed in problem.examples.positives[:3]:
            candidate = generalizer.armg(bottom, seed)
            if candidate.body:
                assert_reduces_like_greedy(generalizer, candidate, relabelled)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "coverage is not monotone in the body over CFD repair literals: dropping one "
        "literal of a CFD repair group re-targets the group's repair, and the clause can "
        "stop covering an example it covered before (at the default expansion cap too)"
    ),
)
def test_single_literal_removal_never_loses_coverage_under_a_cfd_expansion_cap(capped_cfd_world):
    session, problem, _, bottoms = capped_cfd_world
    engine = session.engine
    relabelled = [Example(e.values, False) for e in problem.examples.all()]
    for bottom in bottoms:
        before = engine.batch_covers(bottom, relabelled)
        head_variables = bottom.head.argument_variables()
        for literal in bottom.body:
            if literal.argument_variables() & head_variables:
                continue
            candidate = bottom.without([literal]).prune_disconnected().prune_dangling_restrictions()
            if not candidate.body:
                continue
            after = engine.batch_covers(candidate, relabelled)
            assert all(now or not then for then, now in zip(before, after))
