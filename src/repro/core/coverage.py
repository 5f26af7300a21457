"""Coverage testing over heterogeneous data (Section 4.3), batched and cached.

Instead of evaluating a clause as a (very long) join over the database,
DLearn checks coverage by θ-subsumption against the example's *ground bottom
clause*:

* **positive example** ``e`` (Definition 3.4 — every repaired clause must
  cover ``e`` in some repair):

  1. if ``C`` θ-subsumes ``G_e`` directly the example is covered
     (Theorem 4.6 — θ-subsumption is sound);
  2. otherwise project both clauses onto their MD-only parts
     (``C^{md}`` / ``G_e^{md}``): when even those do not subsume, the example
     is not covered (Theorem 4.9 — for MD-only repair literals
     θ-subsumption is also complete);
  3. otherwise expand the CFD repair groups on both sides and require every
     CFD-variant of ``C`` to subsume some CFD-variant of ``G_e``.

* **negative example** ``e⁻`` (Definition 3.6 — it suffices that one repaired
  clause covers ``e⁻`` in some repair): same fast path, but the CFD-variant
  check is existential on both sides (Proposition 4.10).

Every step of that pipeline is a pure function of the participating clauses,
and learning evaluates the same clauses against the same examples over and
over: the ground bottom clause of an example is tested against every
candidate of every generalisation round, and a candidate clause is tested
against every example.  Both sides are therefore prepared once:

* ground bottom clauses are built and prepared once per example (keyed on the
  example's values — the clause does not depend on the label);
* a clause's prepared form is its compiled integer-plane form
  (:class:`~repro.logic.compiled.CompiledGeneral` /
  :class:`~repro.logic.compiled.CompiledSpecific`), served by
  :meth:`~repro.logic.subsumption.SubsumptionChecker.prepare_general` /
  :meth:`~repro.logic.subsumption.SubsumptionChecker.prepare` from the one
  cache of the checker's :class:`~repro.logic.compiled.ClauseCompiler` —
  for learning sessions, the compiler of the database preparation, so every
  session over one database shares the forms.  Compiled forms are pure
  functions of the clause, so database writes never invalidate them;
* the MD projection and CFD-variant expansion of any clause are memoised in
  per-engine LRU caches.

:meth:`CoverageEngine.batch_covers` evaluates one clause against many
examples through those caches, proving every pair on the calling thread;
:func:`repro.testing.oracles.covers_serial` keeps the original
one-call-at-a-time pipeline as the uncached reference the tests compare
against.

On top of the clause-level caches sits a session-level **verdict cache**:
the final coverage verdict of every (candidate clause, ground bottom clause,
label semantics) triple is remembered, so the covering loop — which re-scores
surviving candidates against the full example set round after round — never
re-proves a pair it already settled.
"""

from __future__ import annotations

import threading
from functools import lru_cache, partial
from typing import Iterable, Sequence

from ..logic.clauses import HornClause
from ..logic.compiled import CompiledGeneral, CompiledSpecific
from ..logic.subsumption import SubsumptionChecker
from .bottom_clause import BottomClauseBuilder
from .config import DLearnConfig
from .problem import Example
from .repair_literals import repaired_clauses

__all__ = ["CoverageEngine"]

_CFD_PREFIX = "cfd:"

#: Size of the per-engine LRU caches over clause derivations (MD
#: projections, CFD-variant expansions).  One learning run touches at most a
#: few hundred distinct candidates.
_CLAUSE_CACHE_SIZE = 1024

#: Entry bound on the session-level verdict cache.  Keys are
#: (clause, clause, bool) triples whose hashes are memoised, so entries are
#: cheap; the cap only guards long-lived serving sessions against unbounded
#: growth, and eviction is a wholesale clear (re-proving is what the cache
#: avoids in the steady state, not what correctness depends on).
_VERDICT_CACHE_SIZE = 1 << 16


def _cfd_variants(clause: HornClause, max_results: int) -> tuple[HornClause, ...]:
    """The clause variants of *clause*'s CFD repair groups, at most *max_results*."""
    return tuple(repaired_clauses(clause, only_provenance_prefix=_CFD_PREFIX, max_results=max_results))


def _md_projection(clause: HornClause) -> HornClause:
    """Drop CFD repair literals and the non-repair literals they are connected to.

    What remains is the ``C^{md}`` / ``G^{md}`` clause of Section 4.3: all
    literals whose connected repair literals (if any) correspond to MDs.
    """
    cfd_repairs = {
        literal
        for literal in clause.repair_literals
        if literal.provenance and literal.provenance.startswith(_CFD_PREFIX)
    }
    if not cfd_repairs:
        return clause
    keep = []
    for literal in clause.body:
        if literal in cfd_repairs:
            continue
        if not literal.is_repair:
            connected = clause.repair_literals_connected_to(literal)
            if connected & cfd_repairs:
                continue
        keep.append(literal)
    return HornClause(clause.head, tuple(keep)).prune_dangling_restrictions()


def _has_cfd_repairs(clause: HornClause) -> bool:
    return any(
        literal.provenance and literal.provenance.startswith(_CFD_PREFIX)
        for literal in clause.repair_literals
    )


class CoverageEngine:
    """Computes example coverage for clauses with repair literals."""

    def __init__(
        self,
        builder: BottomClauseBuilder,
        config: DLearnConfig,
        checker: SubsumptionChecker | None = None,
    ) -> None:
        self.builder = builder
        self.config = config
        self.checker = checker if checker is not None else SubsumptionChecker()
        #: The compiler the checker prepares through: the cached ground forms
        #: are expressed in its term dictionary.
        self.compiler = self.checker.compiler
        self._ground_cache: dict[tuple[object, ...], CompiledSpecific] = {}
        self._verdict_cache: dict[tuple[HornClause, HornClause, bool], bool] = {}
        #: Mutation-stamp of the database the cached ground clauses (and the
        #: verdicts derived from them) were built against.  An insert into
        #: the database silently invalidates every example-derived cache —
        #: the stamp check at the prepared-ground funnel detects it.
        self._database = builder.problem.database
        self._database_stamp = self._database.mutation_stamp()
        #: Guards verdict-cache and stamp writes.  Nothing in the library
        #: drives one engine from two threads, but the engine is
        #: session-scoped state whose writes arch-lint TS01 requires to be
        #: lock-guarded, and the size-cap eviction (check, clear, insert) is
        #: not atomic without it.
        self._verdict_lock = threading.Lock()
        # Pure per-clause derivations, memoised for the engine's lifetime.
        self._md_projection_of = lru_cache(maxsize=_CLAUSE_CACHE_SIZE)(_md_projection)
        # A module-level function, not a bound method: caching
        # ``self._method`` would make the engine reference itself, so
        # refcounting could never free it and its caches.
        self._cfd_variants_of = lru_cache(maxsize=_CLAUSE_CACHE_SIZE)(
            partial(_cfd_variants, max_results=config.max_cfd_expansions)
        )

    # ------------------------------------------------------------------ #
    # ground bottom clauses
    # ------------------------------------------------------------------ #
    def _ground_key(self, example: Example) -> tuple:
        """Cache key for an example's ground clause: its interned value ids.

        Ids hash and compare as machine integers, so the per-candidate
        per-example cache lookups of the covering loop stop re-hashing the
        example's strings (decoding happens only at clause construction).
        """
        return self.builder.problem.database.intern_values(example.values)

    def prepared_ground(self, example: Example) -> CompiledSpecific:
        """The example's ground bottom clause, prepared for repeated subsumption tests.

        Keyed on the example's *values* only (as an interned id tuple): the
        ground bottom clause is built from the tuples reachable from those
        values, so an example that appears with both labels (e.g. in
        noisy-label experiments) shares one prepared clause.
        """
        self._refresh_if_mutated()
        key = self._ground_key(example)
        if key not in self._ground_cache:
            self._ground_cache[key] = self.checker.prepare(self.builder.build(example, ground=True))
        return self._ground_cache[key]

    def prepared_grounds(self, examples: Sequence[Example]) -> list[CompiledSpecific]:
        """Prepared ground bottom clauses for many examples, saturating in one batch.

        Uncached examples are gathered through the builder's batched
        multi-example chase (one pass over the database indexes per chase
        depth) before clause preparation; cached examples are simply looked
        up.  Every batched entry point funnels through here, so the covering
        loop, prediction and evaluation all saturate batch-wise.
        """
        self._refresh_if_mutated()
        missing = [example for example in examples if self._ground_key(example) not in self._ground_cache]
        if missing:
            self.builder.gather_relevant_many(missing)
        return [self.prepared_ground(example) for example in examples]

    def ground_bottom_clause(self, example: Example) -> HornClause:
        return self.prepared_ground(example).clause

    def _refresh_if_mutated(self) -> None:
        """Invalidate example-derived caches when the database changed underneath.

        Repairs produce *new* instances with their own engines, but an
        instance can also be written in place (``insert`` — its only in-place
        write), and a ground bottom clause — and every verdict proved from it
        — built before that write is stale.  The stamp comparison is a
        handful of integer reads per call, so it guards every prepared-ground
        funnel entry; on mismatch the ground and verdict caches drop and the
        chase's database-derived memos are invalidated with them.
        """
        stamp = self._database.mutation_stamp()
        if stamp == self._database_stamp:
            return
        with self._verdict_lock:
            if stamp == self._database_stamp:  # refreshed while waiting for the lock
                return
            self._ground_cache.clear()
            self._verdict_cache.clear()
            self.builder.chase.invalidate()
            self._database_stamp = stamp

    def clear_cache(self) -> None:
        self._ground_cache.clear()
        self._verdict_cache.clear()
        self._md_projection_of.cache_clear()
        self._cfd_variants_of.cache_clear()

    # ------------------------------------------------------------------ #
    # clause-level coverage
    # ------------------------------------------------------------------ #
    def covers(self, clause: HornClause | CompiledGeneral, example: Example) -> bool:
        """Coverage of *example* by *clause* under the label-appropriate semantics."""
        ground = self.prepared_ground(example)
        return self._covers_ground(self._as_general(clause), ground, positive=example.positive)

    # ------------------------------------------------------------------ #
    # batched evaluation
    # ------------------------------------------------------------------ #
    def batch_covers(self, clause: HornClause | CompiledGeneral, examples: Sequence[Example]) -> list[bool]:
        """Coverage verdicts of *clause* for every example, preparing the clause once.

        The general side of the subsumption pipeline (compiled form, MD
        projection, CFD-variant expansion) is derived a single time and
        reused for every example; ground bottom clauses come from the
        per-example cache, saturated as one batch.
        """
        examples = list(examples)
        if not examples:
            return []
        general = self._as_general(clause)
        grounds = self.prepared_grounds(examples)
        return [
            self._covers_ground(general, ground, positive=example.positive)
            for example, ground in zip(examples, grounds)
        ]

    def covered_counts(
        self,
        clause: HornClause | CompiledGeneral,
        positives: Sequence[Example],
        negatives: Sequence[Example],
    ) -> tuple[int, int]:
        """Covered positive/negative counts through one batched evaluation."""
        flags = self.batch_covers(clause, list(positives) + list(negatives))
        split = len(positives)
        return sum(flags[:split]), sum(flags[split:])

    # ------------------------------------------------------------------ #
    # definition-level coverage and counting
    # ------------------------------------------------------------------ #
    def definition_covers(self, clauses: Iterable[HornClause], example: Example) -> bool:
        """A definition covers an example when at least one clause does (Section 2.1)."""
        return any(self.covers(clause, example) for clause in clauses)

    def predicts_positive(self, clauses: Iterable[HornClause], example: Example) -> bool:
        """Classification rule used at test time: the positive-coverage semantics."""
        ground = self.prepared_ground(example)
        return any(
            self._covers_ground(self._as_general(clause), ground, positive=True) for clause in clauses
        )

    def batch_predicts_positive(
        self, clauses: Sequence[HornClause | CompiledGeneral], examples: Sequence[Example]
    ) -> list[bool]:
        """Classify many examples against a whole definition, preparing every clause once."""
        prepared_clauses = [self._as_general(clause) for clause in clauses]
        return [
            any(self._covers_ground(clause, ground, positive=True) for clause in prepared_clauses)
            for ground in self.prepared_grounds(list(examples))
        ]

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _covers_ground(self, general: CompiledGeneral, ground: CompiledSpecific, *, positive: bool) -> bool:
        """The Section 4.3 pipeline over prepared clause forms, verdict-cached.

        The verdict is a pure function of (candidate clause, ground clause,
        label semantics); the covering loop scores surviving candidates
        against the full example set round after round, so settled pairs are
        served from the session-level cache instead of being re-proved.
        """
        # The key's HornClause equality folds body-order variants, while
        # compiled forms do not: an order variant is proved through its own
        # form.  The verdict is order-free all the same — subsumption asks
        # whether a witness exists, and reordering a body reorders the
        # search, not its answer — so the variants share one cache entry.
        # Only an exhausted step budget could tell them apart; an exhausted
        # search concedes the sound "not subsumed", and the entry keeps the
        # verdict of whichever variant was proved first.
        key = (general.clause, ground.clause, positive)
        cached = self._verdict_cache.get(key)
        if cached is None:
            # Prove outside the lock (the expensive part, and verdicts are
            # pure so a duplicated proof is only wasted work); mutate under
            # it so eviction and insert stay atomic.
            cached = self._prove_ground(general, ground, positive=positive)
            with self._verdict_lock:
                if len(self._verdict_cache) >= _VERDICT_CACHE_SIZE:
                    self._verdict_cache.clear()
                self._verdict_cache[key] = cached
        return cached

    def _prove_ground(self, general: CompiledGeneral, ground: CompiledSpecific, *, positive: bool) -> bool:
        checker = self.checker
        if checker.subsumes(general, ground).subsumes:
            return True
        clause = general.clause
        ground_clause = ground.clause
        if not _has_cfd_repairs(clause) and not _has_cfd_repairs(ground_clause):
            return False
        if positive:
            clause_md = checker.prepare_general(self._md_projection_of(clause))
            ground_md = checker.prepare(self._md_projection_of(ground_clause))
            if not checker.subsumes(clause_md, ground_md).subsumes:
                return False
        clause_variants = [checker.prepare_general(v) for v in self._cfd_variants_of(clause)]
        ground_variants = [checker.prepare(v) for v in self._cfd_variants_of(ground_clause)]
        quantifier = all if positive else any
        return quantifier(
            any(checker.subsumes(cv, gv).subsumes for gv in ground_variants) for cv in clause_variants
        )

    def _as_general(self, clause: HornClause | CompiledGeneral) -> CompiledGeneral:
        return self.checker.prepare_general(clause) if isinstance(clause, HornClause) else clause
