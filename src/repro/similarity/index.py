"""Precomputed similarity matches for a pair of comparable columns.

Section 5: "To improve efficiency, we precompute the pairs of similar
values."  Section 6 sweeps ``k_m``, "the number of top similar matches"
considered per value — the main knob trading effectiveness for efficiency in
Table 4.

A :class:`SimilarityIndex` is built once per matching dependency: it scores
every blocked candidate pair between the MD's left and right columns with the
composite operator and keeps, for each value, its ``k_m`` most similar
partners from the other column (provided they clear the operator's
threshold).  Bottom-clause construction then answers its similarity searches
(``ψ_{B ≈ M}(R)`` in Algorithm 2) with a dictionary lookup.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable

from .composite import SimilarityOperator

__all__ = ["SimilarityIndex", "SimilarityMatch"]

from .qgrams import QGramBlocker


@dataclass(frozen=True, slots=True)
class SimilarityMatch:
    """One scored match between a value and a partner value from the other column."""

    value: object
    partner: object
    score: float


class SimilarityIndex:
    """Top-``k_m`` similar-value pairs between two columns.

    Parameters
    ----------
    operator:
        Similarity operator (measure + threshold) used to score candidate
        pairs.
    top_k:
        The paper's ``k_m``: how many most-similar partners to keep per value.
    blocker_q:
        Q-gram size used for blocking before scoring.
    min_shared_grams:
        Minimum number of shared q-grams for a pair to be scored at all.
    """

    def __init__(
        self,
        operator: SimilarityOperator | None = None,
        top_k: int = 5,
        blocker_q: int = 3,
        min_shared_grams: int = 2,
    ) -> None:
        if top_k < 1:
            raise ValueError("top_k (k_m) must be at least 1")
        self.operator = operator or SimilarityOperator()
        self.top_k = top_k
        self.blocker_q = blocker_q
        self.min_shared_grams = min_shared_grams
        self._forward: dict[object, list[SimilarityMatch]] = {}
        self._backward: dict[object, list[SimilarityMatch]] = {}
        self._built = False

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def build(self, left_values: Iterable[object], right_values: Iterable[object]) -> "SimilarityIndex":
        """Score blocked pairs between the two columns and keep the top ``k_m``.

        Every blocked pair is scored in one batch
        (:meth:`~repro.similarity.composite.CompositeSimilarity.similarity_many`).
        """
        left_distinct = {value for value in left_values if value is not None}
        right_distinct = {value for value in right_values if value is not None}

        blocker = QGramBlocker(q=self.blocker_q, min_shared=self.min_shared_grams)
        blocker.add_all(right_distinct)

        lefts: list[object] = []
        rights: list[object] = []
        for left_value in sorted(left_distinct, key=repr):
            for right_value in blocker.candidates(left_value):
                lefts.append(left_value)
                rights.append(right_value)
        scores = self.operator.measure.similarity_many(zip(lefts, rights))
        return self.populate(map(SimilarityMatch, lefts, rights, scores))

    def populate(self, matches: Iterable[SimilarityMatch]) -> "SimilarityIndex":
        """Fill the index from pre-scored left→right matches and keep the top ``k_m``.

        Matches below the operator's threshold are dropped (exact pairs score
        1.0 and therefore always survive), exactly as in :meth:`build`.  This
        is the assembly half of index construction: scoring can happen
        elsewhere — and, crucially, be cached and shared across example sets —
        while the per-example-set trimming stays here.
        """
        forward: dict[object, list[SimilarityMatch]] = defaultdict(list)
        backward: dict[object, list[SimilarityMatch]] = defaultdict(list)
        threshold = self.operator.threshold
        for match in matches:
            if match.value != match.partner and match.score < threshold:
                continue
            forward[match.value].append(match)
            backward[match.partner].append(SimilarityMatch(match.partner, match.value, match.score))
        self._forward = {value: self._trim(candidates) for value, candidates in forward.items()}
        self._backward = {value: self._trim(candidates) for value, candidates in backward.items()}
        self._built = True
        return self

    @classmethod
    def from_scored_matches(
        cls,
        matches: Iterable[SimilarityMatch],
        *,
        operator: SimilarityOperator | None = None,
        top_k: int = 5,
        blocker_q: int = 3,
        min_shared_grams: int = 2,
    ) -> "SimilarityIndex":
        """Assemble an index from already-scored left→right matches.

        Used by the session layer's cached index construction: pair scoring is
        the expensive part and is memoised per database column, so per-fold /
        per-prediction indexes are rebuilt from cached scores instead of
        re-running the similarity measure (top-``k_m`` of a superset's kept
        matches equals top-``k_m`` of the full pair set, so assembly from
        cached scores is exact, not approximate).
        """
        index = cls(operator, top_k, blocker_q, min_shared_grams)
        return index.populate(matches)

    def _trim(self, matches: list[SimilarityMatch]) -> list[SimilarityMatch]:
        matches.sort(key=lambda match: (-match.score, str(match.partner)))
        return matches[: self.top_k]

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #
    def _require_built(self) -> None:
        if not self._built:
            raise RuntimeError("SimilarityIndex.build() must be called before lookups")

    def matches_of(self, value: object) -> list[SimilarityMatch]:
        """Top-``k_m`` partners of *value*, searching both directions."""
        self._require_built()
        forward = self._forward.get(value, [])
        backward = self._backward.get(value, [])
        if not backward:
            return list(forward)
        if not forward:
            return list(backward)
        merged: dict[object, SimilarityMatch] = {}
        for match in forward + backward:
            existing = merged.get(match.partner)
            if existing is None or match.score > existing.score:
                merged[match.partner] = match
        return self._trim(list(merged.values()))

    def partners_of(self, value: object) -> list[object]:
        return [match.partner for match in self.matches_of(value)]

    def are_similar(self, left: object, right: object) -> bool:
        """Whether *right* is among the kept matches of *left* (or vice versa)."""
        self._require_built()
        if left == right:
            return True
        return any(match.partner == right for match in self.matches_of(left)) or any(
            match.partner == left for match in self.matches_of(right)
        )

    def score_of(self, left: object, right: object) -> float | None:
        """Kept score of the pair, ``None`` when the pair was not kept.

        Direction-symmetric, mirroring :meth:`are_similar`: the pair may
        survive top-``k_m`` trimming in only one direction (e.g. *right* keeps
        *left* among its matches while *left*'s list is crowded out by better
        partners), and such a pair must still report its score.
        """
        self._require_built()
        for match in self.matches_of(left):
            if match.partner == right:
                return match.score
        for match in self.matches_of(right):
            if match.partner == left:
                return match.score
        return None

    def pair_count(self) -> int:
        """Number of kept (left, right) pairs."""
        self._require_built()
        return sum(len(matches) for matches in self._forward.values())

    def __contains__(self, value: object) -> bool:
        self._require_built()
        return value in self._forward or value in self._backward
