"""Shared learning sessions: prepared state computed once, reused everywhere.

Learning, prediction, cross-validation and scenario grids all need the same
expensive preparation — similarity indexes per MD (Section 5's "precompute
the pairs of similar values"), saturated relevant-tuple sets, prepared ground
bottom clauses, memoised index probes.  Before this module each consumer
rebuilt that state from scratch; a :class:`LearningSession` now owns it, and
a :class:`DatabasePreparation` holds the example-set-independent part so that
sessions over the same database instance (cross-validation folds, train vs
test, the cells of a scenario sweep) share it.

Two levels of sharing:

``DatabasePreparation`` — keyed to one database instance.  Holds the
:class:`~repro.core.saturation.DatabaseProbeCache` (pure index probes) and,
per matching dependency, the similarity *scoring* state: the q-gram blocker
over the MD's database column and a cache of every scored candidate pair.
Because top-``k_m`` trimming commutes with taking subsets (the top ``k`` of
``top_k(A) ∪ B`` equals the top ``k`` of ``A ∪ B``), per-example-set indexes
assembled from cached scores are *identical* to freshly built ones — reuse is
exact, not approximate.  Unseen values (e.g. a new test fold's titles) are
scored incrementally on first sight instead of triggering a full rebuild.

``LearningSession`` — keyed to one (problem, config) pair.  Owns the
batched :class:`~repro.core.saturation.FrontierChase` (with the similarity
indexes for the problem's example set and its saturation cache), the clause
assembler, the coverage engine and the generalizer.
``evaluation_session`` derives (and memoises) sessions for fresh example sets
— prediction calls, test folds — that share the preparation, so consecutive
predictions never rebuild indexes and never re-probe the database.

Each piece of state is kept current across in-place writes by the component
that derives it; the session itself checks nothing.  The coverage engine's
mutation-stamp check is the one write funnel: on a write it drops its ground
clauses and verdicts and invalidates the chase, which re-derives its
similarity indexes only when an MD-matched relation grew.  The probe cache
and the per-MD scoring caches compare the database's stamp or row counts
themselves.
"""

from __future__ import annotations

import warnings
from functools import partial
from itertools import islice
from typing import Iterable, Sequence

from ..constraints.mds import MatchingDependency
from ..db.instance import DatabaseInstance
from ..db.sampling import Sampler
from ..db.schema import RelationSchema
from ..db.sharding import ShardedInstance
from ..logic.compiled import ClauseCompiler
from ..logic.subsumption import SubsumptionChecker
from ..similarity.composite import SimilarityOperator
from ..similarity.index import SimilarityIndex, SimilarityMatch
from ..similarity.qgrams import QGramBlocker
from ..testing.chaos import ChaosInjector, ChaosSpec
from .bottom_clause import ClauseAssembler
from .config import DLearnConfig
from .coverage import CoverageEngine
from .fanout import SaturationFanout, SerialShardScatter
from .generalization import Generalizer
from .problem import Example, ExampleSet, LearningProblem
from .saturation import DatabaseProbeCache, FrontierChase, SaturationCache
from .supervision import DeadlinePolicy, FaultPolicy

__all__ = ["DatabasePreparation", "LearningSession"]

#: Bound on memoised evaluation sessions per learning session.  Each entry
#: holds a full coverage engine with its prepared ground clauses, so a
#: long-lived model serving ever-changing prediction batches must not grow
#: one per batch; eviction is LRU, so the repeated example sets reuse targets
#: (folds, repeated scoring of one test set) stay hot.
_MAX_EVALUATION_SESSIONS = 8


class _MdIndexCache:
    """Cached similarity-index construction for one matching dependency.

    The expensive part of building a :class:`SimilarityIndex` is scoring the
    blocked candidate pairs.  For an MD between two *database* columns the
    whole index is example-set-independent and is built once per
    ``(top_k, threshold)``.  For an MD whose one side is the target relation
    (matching example values against a database column — the common case for
    the paper's datasets) the database column, its blocker, and every scored
    pair are kept here; per-example-set indexes are assembled from the score
    cache, with only never-seen example values scored incrementally.

    All of that state derives from the MD's database relations, so it is
    keyed on their row counts (relations are insert-only, so a relation's row
    count moves with every write to it) and dropped — to be re-scored on
    demand — when a write moves either one.  Writes to other relations leave
    it in place.
    """

    def __init__(
        self,
        md: MatchingDependency,
        database: DatabaseInstance,
        target: RelationSchema,
        measure,
        blocker_q: int = 3,
        min_shared_grams: int = 2,
    ) -> None:
        self.md = md
        self.database = database
        self.target = target
        self.measure = measure
        self.blocker_q = blocker_q
        self.min_shared_grams = min_shared_grams
        first = md.premises[0]
        self._left = (md.left_relation, first.left_attribute)
        self._right = (md.right_relation, first.right_attribute)
        self._left_is_target = md.left_relation == target.name
        self._right_is_target = md.right_relation == target.name
        self._blocker: QGramBlocker | None = None
        self._fixed_distinct: set[object] | None = None
        #: varying value *id* → every blocked candidate pair, scored, oriented
        #: left→right.  Keyed through the database's interner so repeated
        #: index assemblies (folds, prediction batches) probe the score cache
        #: with integer ids instead of re-hashing the example strings.
        self._interner = database.interner
        self._scored: dict[object, tuple[SimilarityMatch, ...]] = {}
        #: (top_k, threshold) → index, for MDs not involving the target.
        self._static: dict[tuple[int, float], SimilarityIndex] = {}
        #: full-build cache for the (rare) target-to-target MDs.
        self._full: dict[tuple[frozenset, frozenset, int, float], SimilarityIndex] = {}
        #: row counts of the MD's database relations when the state above was scored.
        self._row_counts = self._relation_row_counts()

    # ------------------------------------------------------------------ #
    def index_for(self, examples: Sequence[Example], top_k: int, threshold: float) -> SimilarityIndex:
        self._drop_if_stale()
        operator = SimilarityOperator(measure=self.measure, threshold=threshold)
        if not (self._left_is_target or self._right_is_target):
            key = (top_k, threshold)
            if key not in self._static:
                index = SimilarityIndex(operator=operator, top_k=top_k)
                index.build(self._column(self._left, examples), self._column(self._right, examples))
                self._static[key] = index
            return self._static[key]
        if self._left_is_target and self._right_is_target:
            # Keyed on each column's value set separately: equal unions with
            # different left/right assignments must not share an index.
            key = (
                frozenset(self._column(self._left, examples)),
                frozenset(self._column(self._right, examples)),
                top_k,
                threshold,
            )
            if key not in self._full:
                index = SimilarityIndex(operator=operator, top_k=top_k)
                index.build(self._column(self._left, examples), self._column(self._right, examples))
                self._full[key] = index
            return self._full[key]
        varying_side = self._left if self._left_is_target else self._right
        varying = {value for value in self._column(varying_side, examples) if value is not None}
        matches: list[SimilarityMatch] = []
        # Sorted so the match order (and therefore top-k tie-breaking inside
        # the assembled index) is independent of set hash order.
        ordered = sorted(varying, key=repr)
        self._score_unseen(ordered)
        for value in ordered:
            matches.extend(self._scored_pairs(value))
        return SimilarityIndex.from_scored_matches(
            matches,
            operator=operator,
            top_k=top_k,
            blocker_q=self.blocker_q,
            min_shared_grams=self.min_shared_grams,
        )

    # ------------------------------------------------------------------ #
    def _column(self, column: tuple[str, str], examples: Sequence[Example]) -> list[object]:
        relation_name, attribute_name = column
        if relation_name == self.target.name:
            position = self.target.position_of(attribute_name)
            return [example.values[position] for example in examples]
        # Sorted: distinct_values is a set, and column order decides top-k
        # tie-breaking in the indexes built from it.
        return sorted(self.database.relation(relation_name).distinct_values(attribute_name), key=repr)

    def _fixed_column(self) -> set[object]:
        if self._fixed_distinct is None:
            fixed_side = self._right if self._left_is_target else self._left
            relation_name, attribute_name = fixed_side
            self._fixed_distinct = {
                value
                for value in self.database.relation(relation_name).distinct_values(attribute_name)
                if value is not None
            }
        return self._fixed_distinct

    def _blocker_over_fixed(self) -> QGramBlocker:
        if self._blocker is None:
            self._blocker = QGramBlocker(q=self.blocker_q, min_shared=self.min_shared_grams)
            self._blocker.add_all(self._fixed_column())
        return self._blocker

    def _relation_row_counts(self) -> tuple[int, ...]:
        return tuple(
            len(self.database.relation(name))
            for name in (self.md.left_relation, self.md.right_relation)
            if name != self.target.name
        )

    def _drop_if_stale(self) -> None:
        """Forget every score and index built before a write to the MD's relations."""
        row_counts = self._relation_row_counts()
        if row_counts != self._row_counts:
            self._row_counts = row_counts
            self._blocker = None
            self._fixed_distinct = None
            self._scored = {}
            self._static = {}

    def _score_unseen(self, values: Sequence[object]) -> None:
        """Score the blocked candidate pairs of every value not yet cached, in one batch.

        Q-gram candidacy is symmetric (the pair shares ``min_shared`` grams no
        matter which side is indexed), so blocking the fixed database column
        and querying the varying value yields exactly the pairs a fresh
        ``build`` would score; orientation of the stored match (and of the
        measure call) follows the MD's left→right declaration.
        """
        unseen: dict[object, object] = {}  # value id → the first value seen with it
        for value in values:
            key = self._interner.intern(value)
            if key not in self._scored:
                unseen.setdefault(key, value)
        if not unseen:
            return
        blocker = self._blocker_over_fixed()
        candidates = {key: blocker.candidates(value) for key, value in unseen.items()}
        lefts: list[object] = []
        rights: list[object] = []
        for key, value in unseen.items():
            for candidate in candidates[key]:
                left, right = (value, candidate) if self._left_is_target else (candidate, value)
                lefts.append(left)
                rights.append(right)
        matches = map(SimilarityMatch, lefts, rights, self.measure.similarity_many(zip(lefts, rights)))
        for key, partners in candidates.items():
            self._scored[key] = tuple(islice(matches, len(partners)))

    def _scored_pairs(self, value: object) -> tuple[SimilarityMatch, ...]:
        """All blocked candidate pairs of one varying value, as :meth:`_score_unseen` cached them."""
        return self._scored[self._interner.intern(value)]


class DatabasePreparation:
    """Example-set-independent prepared state for one database instance.

    Built once per database and shared by every :class:`LearningSession` over
    it — the covering loop, the prediction path, every cross-validation fold,
    every cell of a scenario grid that evaluates the same instance.  Carries
    the memoised pure index probes and the per-MD similarity scoring caches.

    The preparation assumes a consistent similarity operator across its
    sessions (they all come from the same :class:`LearningProblem` family);
    sessions over a *different* database instance must build their own
    preparation — :class:`LearningSession` enforces this.
    """

    def __init__(
        self,
        database: DatabaseInstance,
        target: RelationSchema,
        operator: SimilarityOperator | None = None,
    ) -> None:
        self.database = database
        self.target = target
        self.operator = operator or SimilarityOperator()
        self.probes = DatabaseProbeCache(database)
        #: Shared θ-subsumption clause compiler: term ids are only meaningful
        #: relative to one interner, so every session over this database (the
        #: covering loop, prediction batches, cross-validation folds) compiles
        #: its clauses through the same dictionary and compiled clause forms
        #: stay valid across sessions.
        self.compiler = ClauseCompiler()
        self._md_caches: dict[str, _MdIndexCache] = {}
        self._sharded: dict[int, ShardedInstance] = {}
        self._scatters: dict[tuple, SaturationFanout | SerialShardScatter] = {}

    @classmethod
    def from_problem(cls, problem: LearningProblem) -> "DatabasePreparation":
        return cls(problem.database, problem.target, problem.similarity_operator)

    # ------------------------------------------------------------------ #
    def sharded_instance(self, shard_count: int) -> ShardedInstance:
        """Memoised row-wise sharded projection of this database.

        One sharded projection per shard count serves every session over the
        preparation — the shards are kept current against in-place mutations
        by the scatter planes' per-depth :meth:`~repro.db.sharding.ShardedInstance.sync`
        (one row-count comparison per relation when nothing changed).
        """
        sharded = self._sharded.get(shard_count)
        if sharded is None:
            sharded = ShardedInstance(self.database, shard_count)
            self._sharded[shard_count] = sharded
        return sharded

    def shard_scatter(
        self,
        shard_count: int,
        backend: str,
        *,
        fault_policy: FaultPolicy | None = None,
        deadline_policy: DeadlinePolicy | None = None,
        chaos: ChaosSpec | None = None,
    ) -> SaturationFanout | SerialShardScatter:
        """The shared per-depth scatter plane over ``shard_count`` shards.

        ``backend == "process"`` builds (and memoises) a
        :class:`~repro.core.fanout.SaturationFanout` — seeded shard worker
        processes answering each depth's probes GIL-free; any other backend
        gets the in-process :class:`~repro.core.fanout.SerialShardScatter`
        over the same shards.  Memoised per (shard count, plane, supervision
        policies) so folds and prediction sessions share one seeded pool;
        demoted (closed) planes are rebuilt on the next request, with a
        fresh chaos injector when a spec is given.
        """
        kind = "process" if backend == "process" else "serial"
        key = (shard_count, kind, fault_policy, deadline_policy, chaos)
        scatter = self._scatters.get(key)
        if scatter is None or scatter._closed:
            sharded = self.sharded_instance(shard_count)
            scatter = (
                SaturationFanout(
                    sharded,
                    fault_policy=fault_policy,
                    deadline_policy=deadline_policy,
                    chaos=ChaosInjector(chaos) if chaos is not None else None,
                )
                if kind == "process"
                else SerialShardScatter(sharded)
            )
            self._scatters[key] = scatter
        return scatter

    def close(self) -> None:
        """Shut down every shard scatter plane this preparation owns."""
        for scatter in self._scatters.values():
            scatter.close()
        self._scatters.clear()

    # ------------------------------------------------------------------ #
    def similarity_indexes_for(
        self,
        mds: Iterable[MatchingDependency],
        examples: Sequence[Example] | ExampleSet,
        *,
        top_k: int,
        threshold: float,
    ) -> dict[str, SimilarityIndex]:
        """One top-``k_m`` index per MD, identical to a fresh build.

        Equivalent to
        :meth:`repro.core.problem.LearningProblem.build_similarity_indexes`
        but served from the per-MD scoring caches: only example values never
        seen before are scored, everything else is assembled from cache.
        """
        if isinstance(examples, ExampleSet):
            examples = examples.all()
        indexes: dict[str, SimilarityIndex] = {}
        for md in mds:
            cache = self._md_caches.get(md.name)
            if cache is None or cache.md != md:
                # Guard against a *different* MD reusing a cached name (e.g. a
                # problem whose constraints were swapped via with_constraints):
                # scored pairs are only valid for the MD they were scored for.
                cache = _MdIndexCache(md, self.database, self.target, self.operator.measure)
                self._md_caches[md.name] = cache
            indexes[md.name] = cache.index_for(examples, top_k, threshold)
        return indexes


class LearningSession:
    """All prepared state for learning and evaluating one (problem, config) pair.

    Owns the batched frontier chase with its similarity indexes and
    saturation cache, the clause assembler, the coverage engine and the
    generalizer; the covering loop, prediction, and the evaluation harness
    all drive the *same* objects instead of rebuilding them per call.

    Parameters
    ----------
    problem / config:
        The learning task and hyper-parameters the session serves.
    preparation:
        Shared :class:`DatabasePreparation`.  Must belong to the problem's
        database instance; omitted, a private one is created.  Pass one
        preparation to many sessions (folds, prediction) to share similarity
        scoring and database probes.
    """

    def __init__(
        self,
        problem: LearningProblem,
        config: DLearnConfig,
        *,
        preparation: DatabasePreparation | None = None,
    ) -> None:
        if preparation is not None and preparation.database is not problem.database:
            raise ValueError(
                "the supplied DatabasePreparation belongs to a different database instance; "
                "build one per database (repaired/cleaned instances need their own)"
            )
        self.problem = problem
        self.config = config
        self.preparation = preparation or DatabasePreparation.from_problem(problem)
        # Bound to the preparation, not to the session, so the chase can
        # re-derive its indexes after a write without a reference cycle.
        reindex = (
            partial(
                self.preparation.similarity_indexes_for,
                problem.mds,
                problem.examples,
                top_k=config.top_k_matches,
                threshold=config.similarity_threshold,
            )
            if config.use_mds
            else None
        )
        self.chase = FrontierChase(
            problem,
            config,
            reindex() if reindex is not None else None,
            probes=self.preparation.probes,
            cache=SaturationCache(),
            reindex=reindex,
        )
        self.assembler = ClauseAssembler(problem, config, self.chase)
        self.engine = CoverageEngine(
            self.assembler,
            config,
            SubsumptionChecker(compiler=self.preparation.compiler),
        )
        if config.shard_count > 1:
            # Scatter each chase depth over row-wise shards: worker processes
            # under the process backend, the in-process shard plane otherwise.
            # Structural refusals — no process spawning — fall back to the
            # (always-correct) unsharded chase.
            try:
                self.chase.attach_shard_scatter(
                    self.preparation.shard_scatter(
                        config.shard_count,
                        config.parallel_backend,
                        fault_policy=config.fault_policy,
                        deadline_policy=config.deadline_policy,
                        chaos=config.chaos,
                    )
                )
            except (OSError, PermissionError, ValueError) as error:
                warnings.warn(
                    f"sharded chase unavailable ({error}); using the unsharded chase",
                    RuntimeWarning,
                    stacklevel=2,
                )
        self.generalizer = Generalizer(self.engine, config, Sampler(config.seed))
        self._evaluation_sessions: dict[frozenset, "LearningSession"] = {}

    # ------------------------------------------------------------------ #
    # derived sessions
    # ------------------------------------------------------------------ #
    def for_examples(self, examples: ExampleSet) -> "LearningSession":
        """A session over the same database and config for a different example set.

        Shares this session's :class:`DatabasePreparation`, so similarity
        scoring and database probes are reused; the saturation cache is fresh
        (relevant tuples depend on the example set's similarity indexes).
        """
        return LearningSession(
            self.problem.with_examples(examples),
            self.config,
            preparation=self.preparation,
        )

    def evaluation_session(self, examples: Sequence[Example]) -> "LearningSession":
        """The (memoised) session classifying *examples* — the prediction path.

        Keyed on the set of example values: similarity indexes and ground
        bottom clauses depend on the values alone, not on labels or order, so
        repeated predictions over the same tuples reuse one session — and
        with it every prepared index, probe, chase result and ground clause.
        The memo is bounded: beyond ``_MAX_EVALUATION_SESSIONS`` the least
        recently used entry is evicted (hits are refreshed, so repeatedly
        scored example sets stay memoised); the shared preparation keeps even
        an evicted set's similarity scoring and database probes warm.

        A memoised session stays valid across writes: its engine drops what
        a write makes stale at its next batch (see
        :meth:`~repro.core.saturation.FrontierChase.invalidate`).
        """
        key = frozenset(example.values for example in examples)
        session = self._evaluation_sessions.pop(key, None)
        if session is None:
            example_set = ExampleSet(
                positives=[example for example in examples if example.positive],
                negatives=[example for example in examples if example.negative],
            )
            session = self.for_examples(example_set)
            if len(self._evaluation_sessions) >= _MAX_EVALUATION_SESSIONS:
                self._evaluation_sessions.pop(next(iter(self._evaluation_sessions)))
        self._evaluation_sessions[key] = session  # (re-)insert at the LRU tail
        return session

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def fault_stats(self) -> dict[str, dict[str, object] | None]:
        """Fault/retry/recovery counters of the session's supervised pool.

        One entry per pool plane — ``"saturation"`` (the chase's shard
        scatter) — a plain-dict snapshot of
        :class:`~repro.core.supervision.FaultCounters` (``faults`` by kind,
        ``retries``, ``recoveries``, ``demotions``, ``recovery_seconds``),
        or ``None`` where no supervised pool was ever attached.  Counters
        survive demotion, so a session that fell back mid-``fit`` still
        reports what its pool went through.
        """
        saturation = self.chase.fault_counters
        return {"saturation": saturation.as_dict() if saturation is not None else None}
