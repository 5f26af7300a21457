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
against every example.  The engine therefore caches *both* sides:

* ground bottom clauses are built and prepared once per example (keyed on the
  example's values — the clause does not depend on the label);
* the general side is prepared once per clause
  (:class:`repro.logic.subsumption.PreparedGeneral`), and the MD projection
  and CFD-variant expansion of any clause are memoised in per-engine LRU
  caches.

:meth:`CoverageEngine.batch_covers` evaluates one clause against many
examples through those caches, optionally fanning the per-example checks out
across a thread pool (``DLearnConfig.n_jobs``);
:meth:`CoverageEngine.covers_serial` keeps the original one-call-at-a-time
pipeline as an uncached reference implementation for tests and benchmarks.

On top of the clause-level caches sits a session-level **verdict cache**:
the final coverage verdict of every (candidate clause, ground bottom clause,
label semantics) triple is remembered, so the covering loop — which re-scores
surviving candidates against the full example set round after round — never
re-proves a pair it already settled.  The engine also owns the session's
:class:`~repro.logic.compiled.ClauseCompiler`: every checker it drives
(including the per-thread clones of the ``n_jobs`` fan-out) shares one term
interner, so clauses are compiled to the integer plane once per session.
"""

from __future__ import annotations

import threading
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache, partial
from typing import Iterable, Sequence

from ..logic.clauses import HornClause
from ..logic.compiled import ClauseCompiler, general_to_wire, specific_to_wire
from ..logic.subsumption import PreparedClause, PreparedGeneral, SubsumptionChecker
from ..testing.chaos import ChaosInjector
from .bottom_clause import BottomClauseBuilder
from .config import DLearnConfig
from .fanout import ProcessFanout, checker_params
from .problem import Example
from .repair_literals import repaired_clauses
from .supervision import FanoutFault, FanoutFaultError, FaultCounters

__all__ = ["CoverageEngine"]

_CFD_PREFIX = "cfd:"

#: Size of the per-engine LRU caches over general-side clause computations
#: (prepared candidate clauses, MD projections, CFD-variant expansions).  One
#: learning run touches at most a few hundred distinct candidates.
_CLAUSE_CACHE_SIZE = 1024

#: Size of the prepared-specific cache.  Sized separately because it also
#: holds the per-example ground MD projections and up to
#: ``max_cfd_expansions`` prepared CFD variants per ground clause — with the
#: default expansion cap of 64 this accommodates ~125 examples' worth of
#: variants before eviction.
_SPECIFIC_CACHE_SIZE = 8192

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


def _chunk_size(n_examples: int, jobs: int) -> int:
    """Per-future chunk length of the thread fan-out: ``n / (4 * jobs)``.

    Four chunks per worker keeps the pool balanced when per-example costs
    are skewed (a straggler chunk idles at most a quarter of one worker's
    share) while cutting the per-future submission overhead ~chunk-size-fold
    against the old one-future-per-example dispatch.
    """
    return max(1, n_examples // (4 * jobs))


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
        checker = checker or SubsumptionChecker()
        use_compiled = checker.use_compiled and config.compiled_subsumption
        if use_compiled != checker.use_compiled or checker.compiler is None:
            # Clone instead of mutating the caller's instance: a checker
            # passed in may be shared outside this engine, and installing a
            # compiler (or flipping the engine mode) on it would silently
            # couple or reconfigure those other users.
            checker = SubsumptionChecker(
                respect_repair_connectivity=checker.respect_repair_connectivity,
                condition_subset=checker.condition_subset,
                max_steps=checker.max_steps,
                use_compiled=use_compiled,
                compiler=checker.compiler or ClauseCompiler(),
            )
        self.checker = checker
        #: Session-level clause compiler: one term interner shared by every
        #: checker the engine drives, so compiled clause forms attached to
        #: the prepared caches stay valid across worker threads.
        self.compiler = self.checker.compiler
        self._ground_cache: dict[tuple[object, ...], PreparedClause] = {}
        self._verdict_cache: dict[tuple[HornClause, HornClause, bool], bool] = {}
        #: Mutation-stamp of the database the cached ground clauses (and the
        #: verdicts derived from them) were built against.  Overlay instances
        #: support in-place delta mutation (a repair inserting or rewriting a
        #: covered tuple), which silently invalidates every example-derived
        #: cache — the stamp check at the prepared-ground funnel detects it.
        self._database = builder.problem.database
        self._database_stamp = self._database.mutation_stamp()
        #: Guards verdict-cache mutation: ``batch_covers`` workers record
        #: verdicts concurrently, and the size-cap eviction (check, clear,
        #: insert) is not atomic without it.
        self._verdict_lock = threading.Lock()
        self._thread_state = threading.local()
        #: Process fan-out (``config.parallel_backend == "process"``): either
        #: attached by the session from the shared
        #: :class:`~repro.core.session.DatabasePreparation` pool, or created
        #: lazily (and then owned) on first process-backend batch.
        self._fanout: ProcessFanout | None = None
        self._fanout_owned = False
        self._fanout_failed = False
        #: Fault/retry/recovery counters of the last process fan-out this
        #: engine drove.  Kept past demotion (the pool is closed then), so
        #: the session's observability survives the pool it describes.
        self._fault_counters: FaultCounters | None = None
        # Pure per-clause computations, memoised for the engine's lifetime.
        # ``lru_cache`` is thread-safe, which is what allows ``batch_covers``
        # to fan example checks out across a worker pool.
        self._prepare_general = lru_cache(maxsize=_CLAUSE_CACHE_SIZE)(self.checker.prepare_general)
        self._prepare_specific = lru_cache(maxsize=_SPECIFIC_CACHE_SIZE)(self.checker.prepare)
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

    def prepared_ground(self, example: Example) -> PreparedClause:
        """The example's ground bottom clause, pre-processed for repeated subsumption tests.

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

    def prepared_grounds(self, examples: Sequence[Example]) -> list[PreparedClause]:
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

        Repairs normally produce *new* (overlay) instances with their own
        engines, but an :class:`~repro.db.overlay.OverlayInstance` can also be
        mutated in place (a repair inserting or rewriting a covered tuple via
        its delta), and a ground bottom clause — and every verdict proved from
        it — built before that mutation is stale.  The stamp comparison is a
        handful of integer reads per call, so it guards every prepared-ground
        funnel entry; on mismatch the ground and verdict caches drop and the
        chase's database-derived memos are invalidated with them.
        """
        stamp = self._database.mutation_stamp()
        if stamp == self._database_stamp:
            return
        with self._verdict_lock:
            if stamp == self._database_stamp:  # another worker refreshed first
                return
            self._ground_cache.clear()
            self._verdict_cache.clear()
            self.builder.chase.invalidate()
            self._database_stamp = stamp

    def reset_verdicts(self) -> None:
        """Drop only the verdict cache, keeping prepared and compiled clause forms.

        Used by benchmarks to measure the steady-state cost of proving fresh
        (clause, example) pairs — compilation amortised, verdicts cold.
        """
        self._verdict_cache.clear()

    def clear_cache(self) -> None:
        self._ground_cache.clear()
        self._verdict_cache.clear()
        self._prepare_general.cache_clear()
        self._prepare_specific.cache_clear()
        self._md_projection_of.cache_clear()
        self._cfd_variants_of.cache_clear()

    # ------------------------------------------------------------------ #
    # clause-level coverage
    # ------------------------------------------------------------------ #
    def covers(self, clause: HornClause | PreparedGeneral, example: Example) -> bool:
        """Coverage of *example* by *clause* under the label-appropriate semantics."""
        ground = self.prepared_ground(example)
        return self._covers_ground(self.checker, self._as_general(clause), ground, positive=example.positive)

    def covers_ground_positive(
        self, clause: HornClause | PreparedGeneral, ground: HornClause | PreparedClause
    ) -> bool:
        """Definition 3.4 via the Section 4.3 procedure."""
        return self._covers_ground(self.checker, self._as_general(clause), self._as_specific(ground), positive=True)

    def covers_ground_negative(
        self, clause: HornClause | PreparedGeneral, ground: HornClause | PreparedClause
    ) -> bool:
        """Definition 3.6 / Proposition 4.10."""
        return self._covers_ground(self.checker, self._as_general(clause), self._as_specific(ground), positive=False)

    # ------------------------------------------------------------------ #
    # batched evaluation
    # ------------------------------------------------------------------ #
    def batch_covers(self, clause: HornClause | PreparedGeneral, examples: Sequence[Example]) -> list[bool]:
        """Coverage verdicts of *clause* for every example, preparing the clause once.

        The general side of the subsumption pipeline (structural split, MD
        projection, CFD-variant expansion) is derived a single time and
        reused for every example; ground bottom clauses come from the
        per-example cache.  With ``config.n_jobs > 1`` the per-example checks
        fan out per ``config.parallel_backend``: chunked over a thread pool
        (every worker thread gets its own :class:`SubsumptionChecker`
        because the step-budget counter is per-instance state), or shipped
        to the GIL-free process pool (:mod:`repro.core.fanout`) as compiled
        integer-plane forms.  ``"serial"`` forces the calling thread — the
        reference oracle for both.
        """
        examples = list(examples)
        if not examples:
            return []
        general = self._as_general(clause)
        # Ground clauses are built on the calling thread (the chase and its
        # caches are not thread-safe), but saturation runs as one batch.
        grounds = self.prepared_grounds(examples)
        jobs = self._effective_jobs(len(examples))
        if jobs <= 1 or self.config.parallel_backend == "serial":
            return [
                self._covers_ground(self.checker, general, ground, positive=example.positive)
                for example, ground in zip(examples, grounds)
            ]
        if self.config.parallel_backend == "process":
            return self._process_batch(general, examples, grounds)
        return self._thread_batch(general, examples, grounds, jobs)

    def _thread_batch(
        self,
        general: PreparedGeneral,
        examples: Sequence[Example],
        grounds: Sequence[PreparedClause],
        jobs: int,
    ) -> list[bool]:
        """Chunked thread fan-out: ~4 chunks per worker instead of per-example futures."""
        pairs = list(zip(examples, grounds))
        size = _chunk_size(len(pairs), jobs)
        chunks = [pairs[start : start + size] for start in range(0, len(pairs), size)]

        def run_chunk(chunk: list[tuple[Example, PreparedClause]]) -> list[bool]:
            checker = self._thread_checker()
            return [
                self._covers_ground(checker, general, ground, positive=example.positive)
                for example, ground in chunk
            ]

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return [verdict for part in pool.map(run_chunk, chunks) for verdict in part]

    def _process_batch(
        self,
        general: PreparedGeneral,
        examples: Sequence[Example],
        grounds: Sequence[PreparedClause],
    ) -> list[bool]:
        """Process-pool fan-out, verdict-cache aware.

        Settled pairs are served from the session verdict cache without
        touching the pool; in-batch duplicates (examples sharing a ground
        clause and label) are proved once.  Returned verdicts merge into the
        cache under the verdict lock, exactly like thread-worker inserts.
        """
        fanout = self._ensure_fanout()
        if fanout is None:
            return self._thread_batch(general, examples, grounds, self._effective_jobs(len(examples)))
        results: list[bool] = [False] * len(examples)
        slots: dict[tuple[HornClause, HornClause, bool], list[int]] = {}
        pending: list[tuple[PreparedClause, bool, tuple[HornClause, HornClause, bool]]] = []
        for index, (example, ground) in enumerate(zip(examples, grounds)):
            key = (general.clause, ground.clause, example.positive)
            cached = self._verdict_cache.get(key)
            if cached is not None:
                results[index] = cached
                continue
            seen = slots.get(key)
            if seen is None:
                slots[key] = [index]
                pending.append((ground, example.positive, key))
            else:
                seen.append(index)
        if not pending:
            return results
        try:
            verdicts = fanout.dispatch(
                [(general, ground, positive) for ground, positive, _ in pending],
                self._fanout_general_bundle,
                self._fanout_ground_bundle,
            )
        except FanoutFaultError as fault:
            # Terminal under the policy: the supervisor already recovered
            # what the budget allowed.  Retire the pool (broken worker and
            # healthy siblings both — attached pools too: leaving them open
            # leaked handles, and the preparation rebuilds closed pools on
            # demand), then walk the remaining ladder rungs.
            self._retire_fanout(fanout)
            mode = self.config.fault_policy.mode
            if mode == "raise":
                raise
            rung = "serial backend" if mode == "degrade_serial" else "thread backend"
            warnings.warn(
                FanoutFault(
                    f"process fan-out demoted after a terminal {fault.kind} fault "
                    f"({fault}); falling back to the {rung}",
                    kind=fault.kind,
                    pool=fault.pool or ProcessFanout.pool_name,
                    attempt=fault.attempt,
                ),
                stacklevel=3,
            )
            if mode == "degrade_serial":
                return [
                    self._covers_ground(self.checker, general, ground, positive=example.positive)
                    for example, ground in zip(examples, grounds)
                ]
            return self._thread_batch(general, examples, grounds, self._effective_jobs(len(examples)))
        with self._verdict_lock:
            for (_, _, key), verdict in zip(pending, verdicts):
                if len(self._verdict_cache) >= _VERDICT_CACHE_SIZE:
                    self._verdict_cache.clear()
                self._verdict_cache[key] = verdict
        for (_, _, key), verdict in zip(pending, verdicts):
            for index in slots[key]:
                results[index] = verdict
        return results

    def covered_counts(
        self,
        clause: HornClause | PreparedGeneral,
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
            self._covers_ground(self.checker, self._as_general(clause), ground, positive=True)
            for clause in clauses
        )

    def batch_predicts_positive(
        self, clauses: Sequence[HornClause | PreparedGeneral], examples: Sequence[Example]
    ) -> list[bool]:
        """Classify many examples against a whole definition, preparing every clause once."""
        prepared_clauses = [self._as_general(clause) for clause in clauses]
        examples = list(examples)
        grounds = self.prepared_grounds(examples)
        jobs = self._effective_jobs(len(examples))

        def classify(checker: SubsumptionChecker, ground: PreparedClause) -> bool:
            return any(
                self._covers_ground(checker, clause, ground, positive=True) for clause in prepared_clauses
            )

        if jobs <= 1 or self.config.parallel_backend == "serial":
            return [classify(self.checker, ground) for ground in grounds]
        # Chunked thread dispatch for both remaining backends: the
        # per-definition ``any`` short-circuits across clauses, which the
        # per-pair process protocol cannot express without proving every
        # (clause, example) pair — the verdict cache still lets a prior
        # process-backend ``batch_covers`` feed these checks.
        size = _chunk_size(len(grounds), jobs)
        chunks = [grounds[start : start + size] for start in range(0, len(grounds), size)]

        def run_chunk(chunk: Sequence[PreparedClause]) -> list[bool]:
            checker = self._thread_checker()
            return [classify(checker, ground) for ground in chunk]

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return [flag for part in pool.map(run_chunk, chunks) for flag in part]

    # ------------------------------------------------------------------ #
    # serial reference path (pre-batching behaviour)
    # ------------------------------------------------------------------ #
    def covers_serial(self, clause: HornClause, example: Example) -> bool:
        """Reference implementation of :meth:`covers` without clause-level caching.

        Re-derives the general side's split, MD projection and CFD variants on
        every call (ground bottom clauses are still cached per example, as
        they always were).  Kept as the ground truth the batched path is
        validated against in tests and measured against in
        ``benchmarks/bench_coverage_batch.py``.
        """
        checker = self.checker
        ground = self.prepared_ground(example)
        if checker.subsumes(clause, ground).subsumes:
            return True
        ground_clause = ground.clause
        clause_has_cfd = _has_cfd_repairs(clause)
        ground_has_cfd = _has_cfd_repairs(ground_clause)
        if not clause_has_cfd and not ground_has_cfd:
            return False
        if example.positive:
            if not checker.subsumes(_md_projection(clause), _md_projection(ground_clause)).subsumes:
                return False
        clause_variants = _cfd_variants(clause, self.config.max_cfd_expansions)
        ground_variants = _cfd_variants(ground_clause, self.config.max_cfd_expansions)
        quantifier = all if example.positive else any
        return quantifier(
            any(checker.subsumes(cv, gv).subsumes for gv in ground_variants) for cv in clause_variants
        )

    def covered_counts_serial(
        self, clause: HornClause, positives: Sequence[Example], negatives: Sequence[Example]
    ) -> tuple[int, int]:
        """Serial counterpart of :meth:`covered_counts` (see :meth:`covers_serial`)."""
        positives_covered = sum(1 for example in positives if self.covers_serial(clause, example))
        negatives_covered = sum(1 for example in negatives if self.covers_serial(clause, example))
        return positives_covered, negatives_covered

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _covers_ground(
        self,
        checker: SubsumptionChecker,
        general: PreparedGeneral,
        ground: PreparedClause,
        *,
        positive: bool,
    ) -> bool:
        """The Section 4.3 pipeline over prepared clause forms, verdict-cached.

        The verdict is a pure function of (candidate clause, ground clause,
        label semantics); the covering loop scores surviving candidates
        against the full example set round after round, so settled pairs are
        served from the session-level cache instead of being re-proved.
        *checker* is passed explicitly so worker threads can substitute their
        own instance; every clause-level derivation goes through the engine's
        LRU caches.
        """
        # HornClause equality folds body-order variants; that is consistent
        # here because the prepared-clause LRU caches (and the ground cache)
        # fold them the same way, so an order-variant clause is proved
        # through — and cached under — the same prepared form either way.
        key = (general.clause, ground.clause, positive)
        cached = self._verdict_cache.get(key)
        if cached is None:
            # Prove outside the lock (the expensive part, and verdicts are
            # pure so a duplicated proof is only wasted work); mutate under
            # it so eviction and insert stay atomic across worker threads.
            cached = self._prove_ground(checker, general, ground, positive=positive)
            with self._verdict_lock:
                if len(self._verdict_cache) >= _VERDICT_CACHE_SIZE:
                    self._verdict_cache.clear()
                self._verdict_cache[key] = cached
        return cached

    def _prove_ground(
        self,
        checker: SubsumptionChecker,
        general: PreparedGeneral,
        ground: PreparedClause,
        *,
        positive: bool,
    ) -> bool:
        if checker.subsumes(general, ground).subsumes:
            return True
        clause = general.clause
        ground_clause = ground.clause
        if not _has_cfd_repairs(clause) and not _has_cfd_repairs(ground_clause):
            return False
        if positive:
            clause_md = self._prepare_general(self._md_projection_of(clause))
            ground_md = self._prepare_specific(self._md_projection_of(ground_clause))
            if not checker.subsumes(clause_md, ground_md).subsumes:
                return False
        clause_variants = [self._prepare_general(v) for v in self._cfd_variants_of(clause)]
        ground_variants = [self._prepare_specific(v) for v in self._cfd_variants_of(ground_clause)]
        quantifier = all if positive else any
        return quantifier(
            any(checker.subsumes(cv, gv).subsumes for gv in ground_variants) for cv in clause_variants
        )

    def _as_general(self, clause: HornClause | PreparedGeneral) -> PreparedGeneral:
        return clause if isinstance(clause, PreparedGeneral) else self._prepare_general(clause)

    def _as_specific(self, ground: HornClause | PreparedClause) -> PreparedClause:
        return ground if isinstance(ground, PreparedClause) else self._prepare_specific(ground)

    def _effective_jobs(self, n_examples: int) -> int:
        return max(1, min(self.config.n_jobs, n_examples))

    # ------------------------------------------------------------------ #
    # process fan-out plumbing
    # ------------------------------------------------------------------ #
    def attach_fanout(self, fanout: ProcessFanout) -> None:
        """Use a shared (preparation-owned) process fan-out instead of creating one.

        The fan-out must have been built over this engine's compiler interner
        (:meth:`repro.core.session.DatabasePreparation.process_fanout`
        guarantees it).  In healthy operation its lifecycle stays with the
        owner; on a terminal fault the engine *does* close it (see
        :meth:`_retire_fanout`) — a demoted pool is unusable either way and
        the preparation rebuilds closed pools on demand.
        """
        with self._verdict_lock:
            self._fanout = fanout
            self._fanout_owned = False
            self._fanout_failed = False
            self._fault_counters = fanout.supervisor.counters

    @property
    def fault_counters(self) -> FaultCounters | None:
        """Fault/retry/recovery counters of the engine's process fan-out.

        ``None`` until a process pool was attached or created; survives
        demotion so a session can report what its (now closed) pool went
        through.
        """
        return self._fault_counters

    def _retire_fanout(self, fanout: ProcessFanout) -> None:
        """Drop a terminally faulted pool: close every worker, record the demotion."""
        with self._verdict_lock:
            self._fanout = None
            self._fanout_owned = False
            self._fanout_failed = True
        fanout.supervisor.counters.demotions += 1
        fanout.close()

    def _ensure_fanout(self) -> ProcessFanout | None:
        """The engine's process fan-out, created on first use; ``None`` after failure."""
        if self._fanout is not None:
            return self._fanout
        if self._fanout_failed:
            return None
        try:
            fanout = ProcessFanout(
                self.compiler.terms,
                checker_params(self.checker),
                self.config.n_jobs,
                fault_policy=self.config.fault_policy,
                deadline_policy=self.config.deadline_policy,
                chaos=ChaosInjector(self.config.chaos) if self.config.chaos is not None else None,
            )
        except (OSError, PermissionError, ValueError) as error:
            warnings.warn(
                FanoutFault(
                    f"process fan-out unavailable ({error!r}); falling back to the thread backend",
                    kind="seed-failure",
                    pool=ProcessFanout.pool_name,
                    attempt=0,
                ),
                stacklevel=3,
            )
            with self._verdict_lock:
                self._fanout_failed = True
            return None
        with self._verdict_lock:
            self._fanout = fanout
            self._fanout_owned = True
            self._fault_counters = fanout.supervisor.counters
        # Engine-owned pools die with the engine; attached pools belong to
        # the preparation that built them.
        weakref.finalize(self, fanout.close)
        return fanout

    def close(self) -> None:
        """Shut down the engine-owned process fan-out (attached pools stay up)."""
        with self._verdict_lock:
            fanout, owned = self._fanout, self._fanout_owned
            self._fanout = None
            self._fanout_owned = False
        if fanout is not None and owned:
            fanout.close()

    def _fanout_general_bundle(self, general: PreparedGeneral) -> tuple:
        """Wire bundle of a candidate clause: main + (for CFD clauses) MD/variant forms.

        ``None`` entries mean "use the main form" — exact for CFD-free
        clauses, where the MD projection and the CFD expansion are
        identities (see :data:`repro.core.fanout.Bundle`).
        """
        clause = general.clause
        main = general_to_wire(self.compiler.compiled_general_for(general))
        if not _has_cfd_repairs(clause):
            return (main, None, None, False)
        md = self.compiler.compiled_general_for(self._prepare_general(self._md_projection_of(clause)))
        variants = tuple(
            general_to_wire(self.compiler.compiled_general_for(self._prepare_general(v)))
            for v in self._cfd_variants_of(clause)
        )
        return (main, general_to_wire(md), variants, True)

    def _fanout_ground_bundle(self, ground: PreparedClause) -> tuple:
        """Wire bundle of a prepared ground bottom clause (see the general twin)."""
        clause = ground.clause
        main = specific_to_wire(self.compiler.compiled_specific_for(ground))
        if not _has_cfd_repairs(clause):
            return (main, None, None, False)
        md = self.compiler.compiled_specific_for(self._prepare_specific(self._md_projection_of(clause)))
        variants = tuple(
            specific_to_wire(self.compiler.compiled_specific_for(self._prepare_specific(v)))
            for v in self._cfd_variants_of(clause)
        )
        return (main, specific_to_wire(md), variants, True)

    def _thread_checker(self) -> SubsumptionChecker:
        """Per-thread checker clone for pool workers.

        ``SubsumptionChecker`` keeps its step-budget counter on the instance,
        so concurrent searches must not share one checker object.
        """
        checker = getattr(self._thread_state, "checker", None)
        if checker is None:
            checker = SubsumptionChecker(
                respect_repair_connectivity=self.checker.respect_repair_connectivity,
                condition_subset=self.checker.condition_subset,
                max_steps=self.checker.max_steps,
                use_compiled=self.checker.use_compiled,
                compiler=self.compiler,
            )
            self._thread_state.checker = checker
        return checker
