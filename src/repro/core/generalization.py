"""Clause generalisation (Section 4.2).

DLearn generalises a bottom clause the way ProGolem does, but extended to the
repair-literal language:

* :meth:`Generalizer.armg` computes the asymmetric relative minimal
  generalisation of a clause with respect to one positive example — body
  literals are considered in their derivation order and every *blocking*
  literal (a literal whose inclusion prevents the clause from covering the
  example) is dropped, together with the repair literals whose only
  connection to the head went through it;
* :meth:`Generalizer.learn_clause` runs the paper's search: propose one ARMG
  per example of a random sample ``E+_s``, keep the highest-scoring
  candidate, and repeat until the score stops improving;
* :meth:`Generalizer.reduce_clause` ends the search by dropping, in blocks,
  every literal whose removal covers no additional negative example.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..db.sampling import Sampler
from ..logic.clauses import HornClause

from .config import DLearnConfig
from .coverage import CoverageEngine
from .problem import Example
from .scoring import ClauseStats, score_clause

__all__ = ["Generalizer", "LearnedClause"]


@dataclass(frozen=True)
class LearnedClause:
    """A clause produced by the generalisation search, with its statistics."""

    clause: HornClause
    stats: ClauseStats


class Generalizer:
    """ProGolem-style generalisation over the repair-literal clause language."""

    def __init__(self, engine: CoverageEngine, config: DLearnConfig, sampler: Sampler | None = None) -> None:
        self.engine = engine
        self.config = config
        self.sampler = sampler or Sampler(config.seed)

    # ------------------------------------------------------------------ #
    # ARMG: generalise one clause to cover one more example
    # ------------------------------------------------------------------ #
    def armg(self, clause: HornClause, example: Example) -> HornClause:
        """Drop the blocking literals of *clause* so that it covers *example*.

        The clause's body is considered in its construction order — the order
        in which bottom-clause construction derived the literals from the seed
        example, which places the seed's own tuples before tuples that were
        only reached through longer chains.  Processing in derivation order
        matters: it lets the literals that carry the clause's join structure
        bind their variables before incidental literals that merely share a
        variable (such as a year) get a chance to bind them to something else
        and thereby turn the important literal into a blocking one.  Every
        blocking literal — one that cannot be mapped into the example's
        ground bottom clause consistently with the literals retained so far —
        is dropped
        (:meth:`repro.logic.subsumption.SubsumptionChecker.retained_generalization`).
        Finally, literals that lost their connection to the head (including
        repair literals whose anchors were dropped) are removed, which keeps
        the result head-connected.
        """
        ground = self.engine.prepared_ground(example)
        kept = self.engine.checker.retained_generalization(clause, ground)
        generalized = HornClause(clause.head, tuple(kept))
        return generalized.prune_disconnected().prune_dangling_restrictions()

    # ------------------------------------------------------------------ #
    # the full generalisation search for one clause of the definition
    # ------------------------------------------------------------------ #
    def learn_clause(
        self,
        bottom_clause: HornClause,
        positives: Sequence[Example],
        negatives: Sequence[Example],
    ) -> LearnedClause:
        """Generalise *bottom_clause* to cover many positives and few negatives."""
        current = bottom_clause
        # The raw bottom clause is the most specific clause covering its seed
        # (Proposition 4.3): it covers one positive and no negatives.  Scoring
        # it against every training example would cost as much as a full
        # generalisation round and the clause is never kept as-is, so its
        # statistics are seeded instead of measured.
        current_stats = ClauseStats(
            positives_covered=1,
            negatives_covered=0,
            positives_total=len(positives),
            negatives_total=len(negatives),
        )

        for _ in range(self.config.max_generalization_rounds):
            covered_flags = self.engine.batch_covers(current, positives)
            uncovered = [example for example, covered in zip(positives, covered_flags) if not covered]
            pool = uncovered if uncovered else list(positives)
            seeds = self.sampler.sample(pool, self.config.generalization_sample)
            if not seeds:
                break

            best_candidate: HornClause | None = None
            best_stats: ClauseStats | None = None
            for seed in seeds:
                candidate = self.armg(current, seed)
                if len(candidate.body) == 0:
                    # Over-generalised to the trivially-true clause; skip it.
                    continue
                stats = score_clause(self.engine, candidate, positives, negatives)
                if best_stats is None or self._better(stats, best_stats):
                    best_candidate, best_stats = candidate, stats

            if best_candidate is None or best_stats is None:
                break
            if self._better(best_stats, current_stats):
                current, current_stats = best_candidate, best_stats
            else:
                break

        if self.config.reduce_clauses and current is not bottom_clause:
            reduced = self.reduce_clause(current, negatives)
            if reduced is not current:
                current = reduced
                current_stats = score_clause(self.engine, current, positives, negatives)

        return LearnedClause(current, current_stats)

    # ------------------------------------------------------------------ #
    # negative-preserving clause reduction
    # ------------------------------------------------------------------ #
    def reduce_clause(self, clause: HornClause, negatives: Sequence[Example]) -> HornClause:
        """Drop every body literal whose removal does not cover additional negatives.

        The contract: the result's body is a subset of *clause*'s, and the
        result covers no negative that *clause* itself does not cover.
        Removing a literal generalises the clause, so the reduction only
        guards the negative side.  Literals that share a variable with the
        head are never dropped: they describe the target entity itself (its
        own genre, its own title row), and negatives are often too few to
        witness their importance.

        The result is that of a greedy loop (kept as
        :func:`repro.testing.oracles.reduce_clause_greedy`) which tries the
        droppable literals one at a time in reverse derivation order, so the
        incidental literals gathered late in bottom-clause construction go
        before the clause's core join path is considered, and keeps each
        removal that covers no new negative.  It is computed as a block
        search instead: drop a whole block of literals at once, prune, and
        accept the block if the candidate keeps a body and covers no
        negative outside the input clause's; otherwise split the block and
        try its first half, then its second, down to single literals, which
        are judged exactly as the greedy loop judges them.  The first block
        is every droppable literal, and it is usually accepted, so one check
        replaces one per literal.

        The two agree where coverage is monotone in the body, i.e. a clause
        whose body is a subset of another's covers a superset of its
        examples.  Every clause the greedy loop would test while working
        through an accepted block has a superset of the accepted candidate's
        body, so it covers no new negative either, and the greedy loop would
        have dropped each literal of the block in turn.  A rejected block
        contains a literal the greedy loop rejects, and halving reaches it
        with the same clause the greedy loop would test it against.
        θ-subsumption itself is monotone; a check that exhausts its step
        budget (:attr:`repro.logic.subsumption.SearchStats.exhausted`) and
        a CFD repair group stripped of one of its literals (the rest of the
        group then repairs differently) are where it can fail.  The contract
        above holds either way, because every accepted candidate is checked
        against the input clause's negatives.
        """
        negatives = list(negatives)
        # Only a negative the input clause leaves uncovered can reject a
        # candidate: "covers no negative outside the baseline".
        outside = [
            example
            for example, covered in zip(negatives, self.engine.batch_covers(clause, negatives))
            if not covered
        ]
        head_variables = clause.head.argument_variables()
        droppable = [
            literal for literal in reversed(clause.body) if not literal.argument_variables() & head_variables
        ]
        current = clause
        # Blocks still to try, the next one on top; a plain loop, since a
        # self-referencing recursive closure would leave a reference cycle.
        blocks = [droppable]
        while blocks:
            body = set(current.body)
            # Literals already pruned by an earlier removal are skipped.
            block = [literal for literal in blocks.pop() if literal in body]
            if not block:
                continue
            candidate = current.without(block).prune_disconnected().prune_dangling_restrictions()
            if candidate.body and not any(self.engine.batch_covers(candidate, outside)):
                current = candidate
            elif len(block) > 1:
                middle = len(block) // 2
                blocks.append(block[middle:])
                blocks.append(block[:middle])
        return current

    @staticmethod
    def _better(candidate: ClauseStats, incumbent: ClauseStats) -> bool:
        """Candidate ordering: higher score first, then higher positive coverage.

        The tie-break matters because generalising a clause often trades one
        extra covered positive for one extra covered negative (equal score);
        preferring the more general clause is what lets the covering loop make
        progress on recall, exactly as the paper's search does by always
        generalising from the selected clause.
        """
        if candidate.score != incumbent.score:
            return candidate.score > incumbent.score
        return candidate.positives_covered > incumbent.positives_covered
