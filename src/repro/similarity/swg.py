"""Smith–Waterman–Gotoh local-alignment similarity.

The paper's similarity operator (Section 5) is "the average of the
Smith-Waterman-Gotoh and the Length similarity functions".  Smith–Waterman
finds the best *local* alignment between two strings; Gotoh's refinement uses
affine gap penalties (opening a gap is more expensive than extending one),
which is what makes the measure robust to the kind of heterogeneity seen in
the paper's datasets — ``"Star Wars: Episode IV - 1977"`` vs ``"Star Wars - IV"``
share a long, well-aligned local region even though the full strings differ.

The score is normalised to [0, 1] by dividing by the maximum achievable score
(a perfect alignment of the shorter string).

Index construction scores thousands of blocked candidate pairs at once, so
:meth:`SmithWatermanGotoh.raw_scores` runs the recurrence over a whole batch
of pairs in numpy passes along the *pair* axis.  Every cell performs the
scalar loop's additions on the same operands, and maxima are exact, so the
batch is bit-identical to :meth:`SmithWatermanGotoh.raw_score` — which stays
as the reference (and the path taken when numpy is not installed).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable

try:  # pragma: no cover - exercised only on numpy-free interpreters
    import numpy as np
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]

__all__ = ["SmithWatermanGotoh"]

#: Pairs are batched by length class: both lengths rounded up to a multiple of
#: this width, so padding adds fewer than this many rows and columns per pair.
_LENGTH_CLASS = 8

#: Smallest bucket worth a numpy pass.  A pass pays a fixed cost per cell
#: whatever its width; below about this many pairs the scalar loop is faster.
_MIN_PASS = 6

#: Cells per row of a numpy pass: ``(right length + 1) * pairs``.  Keeps each
#: of its ten working arrays at 64 KiB, well under the 128 KiB where the C
#: allocator switches to mapping pages and raises its thresholds for
#: everything allocated later: larger passes are barely faster but leave the
#: process resident set megabytes larger.
_PASS_CELLS = 8_192


@dataclass(frozen=True)
class SmithWatermanGotoh:
    """Normalised Smith–Waterman–Gotoh similarity over strings.

    Parameters
    ----------
    match_score:
        Score for aligning two equal characters.
    mismatch_score:
        Score for aligning two different characters (typically negative).
    gap_open:
        Cost of opening a gap (negative).
    gap_extend:
        Cost of extending an existing gap (negative, smaller magnitude than
        ``gap_open`` — this is Gotoh's affine-gap refinement).
    case_sensitive:
        When ``False`` (the default) both strings are lower-cased first,
        which matches how the benchmark datasets' titles are compared.
    """

    match_score: float = 2.0
    mismatch_score: float = -1.0
    gap_open: float = -2.0
    gap_extend: float = -0.5
    case_sensitive: bool = False

    def raw_score(self, left: str, right: str) -> float:
        """Best local alignment score between *left* and *right* (>= 0)."""
        if not self.case_sensitive:
            left, right = left.lower(), right.lower()
        if not left or not right:
            return 0.0

        len_left, len_right = len(left), len(right)
        # Three Gotoh matrices, kept as rolling rows:
        #   h[j]: best score of an alignment ending at (i, j)
        #   e[j]: best score ending with a gap in `left`
        #   f[j]: best score ending with a gap in `right`
        neg_inf = float("-inf")
        previous_h = [0.0] * (len_right + 1)
        previous_e = [neg_inf] * (len_right + 1)
        best = 0.0

        for i in range(1, len_left + 1):
            current_h = [0.0] * (len_right + 1)
            current_e = [neg_inf] * (len_right + 1)
            f_score = neg_inf
            left_char = left[i - 1]
            for j in range(1, len_right + 1):
                substitution = self.match_score if left_char == right[j - 1] else self.mismatch_score
                current_e[j] = max(previous_h[j] + self.gap_open, previous_e[j] + self.gap_extend)
                f_score = max(current_h[j - 1] + self.gap_open, f_score + self.gap_extend)
                score = max(0.0, previous_h[j - 1] + substitution, current_e[j], f_score)
                current_h[j] = score
                if score > best:
                    best = score
            previous_h, previous_e = current_h, current_e
        return best

    def raw_scores(self, pairs: Iterable[tuple[str, str]]) -> list[float]:
        """:meth:`raw_score` of every ``(left, right)`` pair, computed in batches.

        Equal (``==``, bit for bit) to ``[raw_score(l, r) for l, r in pairs]``
        for any finite parameters.  Pairs are bucketed by length class and each
        bucket runs the recurrence once for all its pairs.  Without numpy, and
        for buckets too small to pay for a pass, the scalar loop scores them
        one by one.
        """
        # Parallel lists of the given strings, not a list of pairs: a batch is
        # thousands of pairs, and tuples (or case-folded copies) kept alive
        # that long would cost garbage-collector passes and resident memory
        # that later work then pays for.
        lefts: list[str] = []
        rights: list[str] = []
        buckets: dict[tuple[int, int], list[int]] = defaultdict(list)
        for position, (left, right) in enumerate(pairs):
            lefts.append(left)
            rights.append(right)
            if left and right:
                # Classed by the unfolded lengths: the class only groups
                # pairs, and a pass pads to its folded strings' own lengths.
                buckets[(-(-len(left) // _LENGTH_CLASS), -(-len(right) // _LENGTH_CLASS))].append(position)
        scores = [0.0] * len(lefts)
        for (_, right_class), positions in buckets.items():
            if np is None or len(positions) < _MIN_PASS:
                for position in positions:
                    scores[position] = self.raw_score(lefts[position], rights[position])
                continue
            per_pass = max(_MIN_PASS, _PASS_CELLS // (right_class * _LENGTH_CLASS + 1))
            for start in range(0, len(positions), per_pass):
                batch = positions[start : start + per_pass]
                best = self._best_alignments(
                    [self._folded(lefts[p]) for p in batch], [self._folded(rights[p]) for p in batch]
                )
                for position, score in zip(batch, best.tolist()):
                    scores[position] = score
        return scores

    def _folded(self, text: str) -> str:
        return text if self.case_sensitive else text.lower()

    def _best_alignments(self, lefts: list[str], rights: list[str]) -> "np.ndarray":
        """Best local alignment score of each ``(lefts[k], rights[k])``, strings already case-folded.

        Arrays are laid out ``(string position, pair)``, so one cell of every
        pair is one contiguous slice.  The terms that read only row ``i - 1``
        (the ``e`` gap and the diagonal) are computed a row at a time; the
        ``f`` gap runs cell by cell, since each cell needs its left
        neighbour's final score.  Each cell performs exactly the scalar loop's
        additions on the same operands; only the grouping of its maxima
        differs, and a maximum is exact whatever the grouping.  So the results
        are the scalar loop's, bit for bit.

        Shorter strings are padded to the pass's longest.  A cell depends
        only on cells above and to its left, so padded cells never feed a
        real one; they are masked out before they can reach ``best``.
        """
        count = len(lefts)
        left_lengths = np.fromiter(map(len, lefts), dtype=np.int64, count=count)
        right_lengths = np.fromiter(map(len, rights), dtype=np.int64, count=count)
        rows, columns = int(left_lengths.max()), int(right_lengths.max())
        left_codes = _code_points(lefts, rows)
        right_codes = _code_points(rights, columns)
        in_columns = np.arange(1, columns + 1)[:, None] <= right_lengths

        previous_h = np.zeros((columns + 1, count))
        current_h = np.zeros((columns + 1, count))
        previous_e = np.full((columns + 1, count), -np.inf)
        current_e = np.full((columns + 1, count), -np.inf)
        substitution = np.empty((columns, count))
        opened = np.empty((columns, count))
        diagonal = np.empty((columns, count))
        f_score = np.empty(count)
        f_opened = np.empty(count)
        best = np.zeros(count)
        for i in range(rows):
            np.copyto(substitution, self.mismatch_score)
            substitution[right_codes == left_codes[i]] = self.match_score
            # e[j] = max(h[i-1][j] + gap_open, e[i-1][j] + gap_extend)
            np.add(previous_h[1:], self.gap_open, out=opened)
            np.add(previous_e[1:], self.gap_extend, out=current_e[1:])
            np.maximum(opened, current_e[1:], out=current_e[1:])
            # max(0, h[i-1][j-1] + substitution, e[j]), awaiting f[j]
            np.add(previous_h[:-1], substitution, out=diagonal)
            np.maximum(diagonal, 0.0, out=diagonal)
            np.maximum(diagonal, current_e[1:], out=diagonal)
            f_score.fill(-np.inf)
            for j in range(1, columns + 1):
                # f = max(h[i][j-1] + gap_open, f + gap_extend); h[i][j] = max(..., f)
                np.add(current_h[j - 1], self.gap_open, out=f_opened)
                np.add(f_score, self.gap_extend, out=f_score)
                np.maximum(f_opened, f_score, out=f_score)
                np.maximum(diagonal[j - 1], f_score, out=current_h[j])
            live = in_columns & (i < left_lengths)
            np.maximum(best, np.where(live, current_h[1:], 0.0).max(axis=0), out=best)
            previous_h, current_h = current_h, previous_h
            previous_e, current_e = current_e, previous_e
        return best

    def similarity(self, left: str, right: str) -> float:
        """Normalised similarity in [0, 1]."""
        max_score = self._max_score(left, right)
        if max_score <= 0:
            return 0.0
        return min(1.0, self.raw_score(str(left), str(right)) / max_score)

    def similarity_many(self, pairs: Iterable[tuple[object, object]]) -> list[float]:
        """:meth:`similarity` of every pair, with the raw scores from :meth:`raw_scores`."""
        max_scores: list[float] = []
        lefts: list[str] = []
        rights: list[str] = []
        for left, right in pairs:
            max_score = self._max_score(left, right)
            max_scores.append(max_score)
            if max_score > 0:
                lefts.append(str(left))
                rights.append(str(right))
        raw = iter(self.raw_scores(zip(lefts, rights)))
        return [min(1.0, next(raw) / max_score) if max_score > 0 else 0.0 for max_score in max_scores]

    def _max_score(self, left: object, right: object) -> float:
        """Score of a perfect alignment of the shorter string; 0.0 if a side is missing or empty."""
        if left is None or right is None:
            return 0.0
        left, right = str(left), str(right)
        if not left or not right:
            return 0.0
        return self.match_score * min(len(left), len(right))

    def __call__(self, left: str, right: str) -> float:
        return self.similarity(left, right)


def _code_points(strings: list[str], width: int) -> "np.ndarray":
    """``(width, len(strings))`` code points, each string padded with -1 past its end."""
    codes = np.full((width, len(strings)), -1, dtype=np.int64)
    for column, text in enumerate(strings):
        codes[: len(text), column] = list(map(ord, text))
    return codes
