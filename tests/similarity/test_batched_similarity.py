"""Batched similarity scoring is exactly the scalar scoring.

:meth:`SmithWatermanGotoh.raw_scores` runs the Gotoh recurrence for a whole
batch of pairs in numpy passes; :meth:`SmithWatermanGotoh.raw_score` is the
scalar oracle.  Equality here is ``==``, never ``approx``: every cell performs
the same additions on the same operands, so results must agree bit for bit —
also for parameters that are not exact binary fractions.
"""

from __future__ import annotations

import random
from unittest.mock import patch

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.similarity import (
    CompositeSimilarity,
    QGramBlocker,
    SimilarityIndex,
    SimilarityMatch,
    SimilarityOperator,
    SmithWatermanGotoh,
)
from repro.similarity import swg as swg_module

needs_numpy = pytest.mark.skipif(swg_module.np is None, reason="the batched kernel needs numpy")

#: Mixed case, punctuation, and characters whose lower-casing changes length
#: ("İ" lower-cases to two code points) or is not a one-to-one map ("ß", "Σ").
_ALPHABET = st.one_of(
    st.sampled_from("aAbBcCxyz İßΣσς,.;:!?-'()é0123456789"),
    st.characters(blacklist_categories=("Cs",)),
)
_TEXT = st.text(_ALPHABET, max_size=64)
_SHORT_TEXT = st.text(_ALPHABET, max_size=12)

#: Non-dyadic values throughout; positive mismatch and gap scores make cells
#: past a pair's own lengths outscore its real cells, so only the mask keeps
#: them out of ``best``.
_PARAMETERS = st.builds(
    SmithWatermanGotoh,
    match_score=st.sampled_from([2.0, 1.0, 0.7, 3.1]),
    mismatch_score=st.sampled_from([-1.0, -0.3, -1.7, 0.0, 0.4]),
    gap_open=st.sampled_from([-2.0, -0.9, -1.3, 0.3]),
    gap_extend=st.sampled_from([-0.5, -0.3, -0.1, -0.7, 0.2]),
    case_sensitive=st.booleans(),
)


def every_bucket_batched():
    """Send every bucket through the numpy pass, however few pairs it holds."""
    return patch.object(swg_module, "_MIN_PASS", 1)


def _close_titles(count: int, seed: int) -> list[tuple[str, str]]:
    """Pairs of title-like strings with shared words, as blocking produces them."""
    rng = random.Random(seed)
    words = ["Star", "Wars", "Episode", "IV", "the", "Return", "of", "Jedi", "1977", "-", "A", "New", "Hope"]
    pairs = []
    for _ in range(count):
        left = " ".join(rng.choice(words) for _ in range(rng.randint(2, 6)))
        right = " ".join(rng.choice(words) for _ in range(rng.randint(2, 6)))
        pairs.append((left, right))
    return pairs


@needs_numpy
class TestRawScores:
    @given(pairs=st.lists(st.tuples(_TEXT, _TEXT), max_size=8), measure=_PARAMETERS)
    def test_equal_to_scalar_loop(self, pairs, measure):
        with every_bucket_batched():
            batched = measure.raw_scores(pairs)
        assert batched == [measure.raw_score(left, right) for left, right in pairs]

    @given(pairs=st.lists(st.tuples(_SHORT_TEXT, _SHORT_TEXT), min_size=1, max_size=30))
    def test_equal_to_scalar_loop_across_split_passes(self, pairs):
        measure = SmithWatermanGotoh(gap_extend=-0.3, mismatch_score=-0.7)
        with every_bucket_batched(), patch.object(swg_module, "_PASS_CELLS", 1):
            batched = measure.raw_scores(pairs)
        assert batched == [measure.raw_score(left, right) for left, right in pairs]

    def test_full_size_batch_equal_to_scalar_loop(self):
        pairs = _close_titles(300, seed=3)
        for measure in (SmithWatermanGotoh(), SmithWatermanGotoh(gap_extend=-0.3, case_sensitive=True)):
            assert measure.raw_scores(pairs) == [measure.raw_score(left, right) for left, right in pairs]

    def test_empty_strings_and_empty_batch(self):
        measure = SmithWatermanGotoh()
        with every_bucket_batched():
            assert measure.raw_scores([]) == []
            assert measure.raw_scores([("", "abc"), ("abc", ""), ("", "")]) == [0.0, 0.0, 0.0]


_VALUE = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-1000, max_value=1000),
    st.floats(allow_nan=False),
    _SHORT_TEXT,
    st.sampled_from(["1", "1.0", "True", "None", "Superbad", "superbad (2007)"]),
)


class TestSimilarityMany:
    @given(pairs=st.lists(st.tuples(_VALUE, _VALUE), max_size=20))
    def test_equal_to_scalar_similarity(self, pairs):
        measure = CompositeSimilarity()
        with every_bucket_batched():
            batched = measure.similarity_many(pairs)
        assert batched == [measure.similarity(left, right) for left, right in pairs]

    @given(pairs=st.lists(st.tuples(_VALUE, _VALUE), max_size=20), alignment=_PARAMETERS)
    def test_equal_to_scalar_similarity_for_any_alignment_parameters(self, pairs, alignment):
        measure = CompositeSimilarity(alignment=alignment)
        with every_bucket_batched():
            batched = measure.similarity_many(pairs)
        assert batched == [measure.similarity(left, right) for left, right in pairs]


def _scalar_index(operator: SimilarityOperator, left: list[object], right: list[object]) -> SimilarityIndex:
    """The index :meth:`SimilarityIndex.build` must produce, scored pair by pair."""
    blocker = QGramBlocker(q=3, min_shared=2)
    blocker.add_all({value for value in right if value is not None})
    matches = [
        SimilarityMatch(l, r, operator.score(l, r))
        for l in sorted({value for value in left if value is not None}, key=repr)
        for r in blocker.candidates(l)
    ]
    return SimilarityIndex(operator, top_k=2).populate(matches)


class TestIndexBuild:
    @given(
        left=st.lists(st.one_of(_SHORT_TEXT, st.none()), max_size=15),
        right=st.lists(st.one_of(_SHORT_TEXT, st.none()), max_size=15),
    )
    def test_build_equals_scalar_populate(self, left, right):
        operator = SimilarityOperator(threshold=0.5)
        with every_bucket_batched():
            built = SimilarityIndex(operator, top_k=2).build(left, right)
        expected = _scalar_index(operator, left, right)
        assert built._forward == expected._forward
        assert built._backward == expected._backward

    def test_title_columns_build_equals_scalar_populate(self):
        pairs = _close_titles(40, seed=11)
        left, right = [l for l, _ in pairs], [r for _, r in pairs]
        operator = SimilarityOperator(threshold=0.6)
        built = SimilarityIndex(operator, top_k=2).build(left, right)
        expected = _scalar_index(operator, left, right)
        assert built._forward == expected._forward
        assert built._backward == expected._backward


class TestWithoutNumpy:
    def test_scalar_fallback_builds_the_same_indexes(self, monkeypatch):
        pairs = _close_titles(40, seed=5)
        left, right = [l for l, _ in pairs], [r for _, r in pairs]
        operator = SimilarityOperator(threshold=0.6)
        measure = SmithWatermanGotoh()
        batched = SimilarityIndex(operator, top_k=3).build(left, right)
        batched_scores = measure.raw_scores(pairs)

        monkeypatch.setattr(swg_module, "np", None)
        assert measure.raw_scores(pairs) == batched_scores
        fallback = SimilarityIndex(operator, top_k=3).build(left, right)
        assert fallback._forward == batched._forward
        assert fallback._backward == batched._backward
