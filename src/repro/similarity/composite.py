"""The paper's composite similarity operator and a generic threshold wrapper.

Section 5: "To implement similarity over strings, DLearn uses the operator
defined as the average of the Smith-Waterman-Gotoh and the Length similarity
functions."  Numeric values are compared by relative difference so that MDs
over numeric attributes (e.g. years or prices from different sources) also
work; the paper states its results are orthogonal to the exact similarity
implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .length import LengthSimilarity
from .swg import SmithWatermanGotoh

__all__ = ["CompositeSimilarity", "SimilarityOperator"]


@dataclass(frozen=True)
class CompositeSimilarity:
    """Average of Smith–Waterman–Gotoh and Length similarity for strings.

    Numbers are compared as ``1 - |a - b| / max(|a|, |b|)`` (1.0 when both are
    zero); values of different kinds fall back to string comparison of their
    renderings.
    """

    alignment: SmithWatermanGotoh = field(default_factory=SmithWatermanGotoh)
    length: LengthSimilarity = field(default_factory=LengthSimilarity)

    def similarity(self, left: object, right: object) -> float:
        score = self._without_alignment(left, right)
        if score is not None:
            return score
        left_str, right_str = str(left), str(right)
        return (self.alignment.similarity(left_str, right_str) + self.length.similarity(left_str, right_str)) / 2.0

    def similarity_many(self, pairs: Iterable[tuple[object, object]]) -> list[float]:
        """:meth:`similarity` of every pair, aligning all string pairs in one batch.

        Equal (``==``) to ``[similarity(l, r) for l, r in pairs]``: ``None``,
        equal and numeric pairs keep their rules, and the rest are scored by
        :meth:`SmithWatermanGotoh.similarity_many`.
        """
        scores: list[float | None] = []
        lefts: list[str] = []
        rights: list[str] = []
        for left, right in pairs:
            score = self._without_alignment(left, right)
            scores.append(score)
            if score is None:
                lefts.append(str(left))
                rights.append(str(right))
        alignments = self.alignment.similarity_many(zip(lefts, rights))
        aligned = iter(
            [
                (alignment + self.length.similarity(left, right)) / 2.0
                for left, right, alignment in zip(lefts, rights, alignments)
            ]
        )
        return [next(aligned) if score is None else score for score in scores]

    def _without_alignment(self, left: object, right: object) -> float | None:
        """The score of a pair that is not compared as strings; ``None`` for one that is."""
        if left is None or right is None:
            return 0.0
        if left == right:
            return 1.0
        if isinstance(left, (int, float)) and isinstance(right, (int, float)) and not isinstance(left, bool) and not isinstance(right, bool):
            return self._numeric_similarity(float(left), float(right))
        return None

    @staticmethod
    def _numeric_similarity(left: float, right: float) -> float:
        if left == right:
            return 1.0
        denominator = max(abs(left), abs(right))
        if denominator == 0:
            return 1.0
        return max(0.0, 1.0 - abs(left - right) / denominator)

    def __call__(self, left: object, right: object) -> float:
        return self.similarity(left, right)


@dataclass(frozen=True)
class SimilarityOperator:
    """A similarity measure plus a decision threshold: the ``≈`` operator.

    Matching dependencies are phrased in terms of a boolean similarity
    operator ``≈_dom`` (Section 2.2); this class turns any scoring function
    into that operator.
    """

    measure: CompositeSimilarity = field(default_factory=CompositeSimilarity)
    threshold: float = 0.75

    def score(self, left: object, right: object) -> float:
        return self.measure.similarity(left, right)

    def similar(self, left: object, right: object) -> bool:
        """The boolean ``left ≈ right`` decision."""
        return self.score(left, right) >= self.threshold

    def __call__(self, left: object, right: object) -> bool:
        return self.similar(left, right)
