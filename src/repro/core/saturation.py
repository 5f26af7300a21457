"""Relevant-tuple saturation (Algorithm 2, lines 1-12), batched across examples.

The frontier chase gathers the tuples of the database that are *relevant* to a
training example — reachable from the example's constants through exact value
matches or through approximate matches licensed by the matching dependencies.
PR 1 batched coverage testing, PR 3 batched the chase across examples; with
the interned-columnar storage core the chase now runs on **value ids**
end-to-end:

* frontiers, seen-constant sets and per-attribute constant maps hold dense
  integer ids instead of strings, so every membership test and set union the
  chase performs hashes machine integers;
* index probes (:meth:`repro.db.relation.RelationInstance.rows_with_ids` /
  ``rows_equal_id``) are answered id-keyed straight from the relation
  indexes, whose entries freeze to shared immutable sets on first probe;
* gathered tuples are tracked as id rows; a :class:`~repro.db.tuples.Tuple`
  view is materialised only for the rows that survive per-relation sampling,
  and its values decode lazily at the clause-assembly boundary;
* values are decoded only where the clause layer needs them: similarity
  partner lookups (the similarity index is value-keyed), chaseability type
  checks (memoised per id) and :class:`SimilarityEvidence` records.

* :class:`FrontierChase.relevant_many` drives the chase for **many examples in
  one pass** over the database: at every chase depth the union of all
  examples' frontier ids is resolved through the multi-value index probes,
  so each relation's indexes are walked once per depth instead of once per
  example, and examples whose chases overlap share every probe result.

* :class:`DatabaseProbeCache` memoises the chase-global derived quantities
  (value frequencies) and hands out depth-local probe tables; the underlying
  id-keyed row sets are cached inside the relation indexes themselves, so
  prediction, cross-validation folds and scenario-grid cells over the same
  database instance never repeat a probe.

* :class:`SaturationCache` holds the finished :class:`RelevantTuples` per
  example (keyed by the example's interned id tuple), shared by bottom-clause
  and ground-bottom-clause assembly — which is what makes a bottom clause
  cover its own example (Proposition 4.3) under the subsumption-based
  coverage test.

Per-example results are identical on every path (batched, sharded, or the
uncached per-example reference :func:`repro.testing.oracles.relevant_serial`):
each example's chase state is advanced by exactly the same code, and the one
order-sensitive iteration — the per-depth similarity search over several
known constants — visits constants in decoded-value order, which does not
depend on id assignment.  The per-example sampling RNG is seeded from the
example's values alone, so batch composition cannot change what any example
gathers.
"""

from __future__ import annotations

import pickle
import warnings
import zlib
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

from ..db.instance import DatabaseInstance
from ..db.interning import MISSING_ID
from ..db.overlay import OverlayInstance
from ..db.relation import RelationInstance
from ..db.sampling import Sampler
from ..db.tuples import Tuple
from ..similarity.index import SimilarityIndex
from .config import DLearnConfig
from .problem import Example, LearningProblem
from .supervision import FanoutFault, FanoutFaultError, FaultCounters

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .fanout import SaturationFanout, SerialShardScatter

__all__ = [
    "DatabaseProbeCache",
    "FrontierChase",
    "RelevantTuples",
    "SaturationCache",
    "SimilarityEvidence",
]


@dataclass(frozen=True, slots=True)
class SimilarityEvidence:
    """One approximate match discovered while gathering relevant tuples.

    ``known_value`` was already in the seen-constant set ``M``;
    ``matched_value`` is the similar value found in ``relation.attribute`` of
    the matched tuple, licensed by MD ``md_name``.  Values are decoded — this
    record crosses into the clause layer, which is a rendering boundary.
    """

    md_name: str
    known_value: object
    matched_value: object


@dataclass(slots=True)
class RelevantTuples:
    """The information relevant to one example (``I_e`` in Algorithm 2)."""

    tuples: list[Tuple] = field(default_factory=list)
    similarity_evidence: list[SimilarityEvidence] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.tuples)


class SaturationCache:
    """Finished chase results keyed by the example's interned value ids.

    Keyed on the example's *values* only (as an id tuple): the relevant
    tuples are reachable from those values regardless of the example's label,
    so an example that appears with both labels shares one entry, and the
    bottom clause and the ground bottom clause of one example are assembled
    from exactly the same gathered tuples.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple, RelevantTuples] = {}

    def get(self, key: tuple) -> RelevantTuples | None:
        return self._entries.get(key)

    def store(self, key: tuple, relevant: RelevantTuples) -> None:
        self._entries[key] = relevant

    def clear(self) -> None:
        """Drop every finished result (the backing database was mutated)."""
        self._entries.clear()

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)


class DatabaseProbeCache:
    """Memoised chase-global probe state over one database instance.

    Every answer is a pure function of the (immutable, insert-only) database,
    so one cache can back every chase over the instance — the covering loop,
    prediction, all cross-validation folds.  Since the interned storage core
    the raw id→rows sets are cached (frozen) inside the relation indexes
    themselves; what remains here are the cross-relation aggregates (value
    frequencies) and the depth-local probe tables the batched chase hands to
    every example.
    """

    def __init__(self, database: DatabaseInstance) -> None:
        self.database = database
        #: value id → number of tuples containing it anywhere (chaseability).
        self._frequency: dict[object, int] = {}
        # Plain instances freeze probe results inside the relation indexes
        # themselves, so no second cache layer is kept on top.  Copy-on-write
        # overlays do not have that index-level caching (every probe patches
        # the base result with an O(delta) scan, and the baselines chase over
        # overlays directly), so their probes are memoised here.
        self._memoise = isinstance(database, OverlayInstance)
        self._any_rows: dict[tuple[str, object], frozenset[int]] = {}
        self._equal: dict[tuple[str, str, object], tuple[int, ...]] = {}

    def clear(self) -> None:
        """Drop every memoised answer (the backing database was mutated in place).

        The cache's purity argument assumes an unchanging instance; callers
        that detect an in-place mutation (via
        :meth:`repro.db.instance.DatabaseInstance.mutation_stamp`) clear the
        memos so the next probe recomputes against the current contents.
        """
        self._frequency.clear()
        self._any_rows.clear()
        self._equal.clear()

    # -- global value frequency (drives the chaseability test) ---------- #
    def value_frequency(self, key: object) -> int:
        """Number of tuples (across all relations) containing value id *key*."""
        cached = self._frequency.get(key)
        if cached is None:
            cached = sum(
                len(self.rows_any(relation, key))
                for relation in self.database
                if relation.contains_id(key)
            )
            self._frequency[key] = cached
        return cached

    # -- any-attribute containment probes ------------------------------- #
    def rows_any(self, relation: RelationInstance, key: object) -> frozenset[int]:
        if not self._memoise:
            return relation.rows_with_id(key)
        memo_key = (relation.schema.name, key)
        cached = self._any_rows.get(memo_key)
        if cached is None:
            cached = relation.rows_with_id(key)
            self._any_rows[memo_key] = cached
        return cached

    def any_rows_table(self, relation: RelationInstance, keys: Iterable[object]) -> dict[object, frozenset[int]]:
        """Resolve *keys* against *relation* in one call and return the non-empty hits.

        The returned plain dict is the depth-local probe table the batched
        chase hands to every example: distributing rows per example becomes a
        direct dictionary lookup, and the underlying frozensets are the
        index's own shared entries (memoised probe results over an
        overlay).
        """
        if not self._memoise:
            return {key: rows for key, rows in relation.rows_with_ids(keys).items() if rows}
        return {key: rows for key in keys if (rows := self.rows_any(relation, key))}

    # -- equality selection probes --------------------------------------- #
    def rows_equal(self, relation: RelationInstance, attribute: str, key: object) -> tuple[int, ...]:
        if not self._memoise:
            return relation.rows_equal_id(attribute, key)
        memo_key = (relation.schema.name, attribute, key)
        cached = self._equal.get(memo_key)
        if cached is None:
            cached = relation.rows_equal_id(attribute, key)
            self._equal[memo_key] = cached
        return cached

    def prefetch_equal(self, relation: RelationInstance, attribute: str, keys: Iterable[object]) -> None:
        """Warm the attribute-index entries (and the overlay memo) for *keys*."""
        if not self._memoise:
            relation.rows_equal_ids(attribute, keys)
            return
        for key in keys:
            self.rows_equal(relation, attribute, key)


class _ChaseState:
    """Mutable per-example chase state (``M``, ``I_e``, the frontier) — id-keyed."""

    __slots__ = ("example", "sampler", "known_constants", "constants_at", "seen_rows", "result", "frontier")

    def __init__(self, example: Example, sampler: Sampler) -> None:
        self.example = example
        self.sampler = sampler
        #: value ids of every constant seen so far (``M``).
        self.known_constants: set = set()
        #: (relation, attribute) → value ids known to occur there.
        self.constants_at: dict[tuple[str, str], set] = {}
        #: (relation name, canonical row) of every gathered tuple —
        #: value-level deduplication (duplicate rows share a canonical row),
        #: exactly like the former Tuple-keyed seen set but on integers.
        self.seen_rows: set[tuple[str, int]] = set()
        self.result = RelevantTuples()
        #: value ids driving the next depth's lookups.
        self.frontier: set = set()

    def remember(self, relation_name: str, attribute_name: str, key: object) -> None:
        self.known_constants.add(key)
        self.constants_at.setdefault((relation_name, attribute_name), set()).add(key)


class _DepthTables:
    """One depth's prefetched probe tables, whatever plane resolved them.

    ``any_rows`` maps relation name → (frontier id → matching rows) — the
    shape :meth:`DatabaseProbeCache.any_rows_table` returns, one table per
    allowed relation, non-empty keys only.  ``equal_rows`` carries the
    scatter/gather plane's gathered MD equality answers keyed
    ``(relation name, attribute, partner id)``; it is ``None`` on the
    unsharded path, where the same probes are warmed into the index/probe
    caches instead and answered by ``probes.rows_equal`` at use.  Either
    way a missing key falls back to the probe layer, so the prefetched
    subset is an optimisation, never a correctness dependency.
    """

    __slots__ = ("any_rows", "equal_rows")

    def __init__(
        self,
        any_rows: dict[str, dict[object, frozenset[int]]],
        equal_rows: dict[tuple[str, str, object], tuple[int, ...]] | None,
    ) -> None:
        self.any_rows = any_rows
        self.equal_rows = equal_rows


class FrontierChase:
    """Gathers relevant tuples for one or many examples (Algorithm 2, lines 1-12).

    Parameters
    ----------
    problem:
        The learning problem (database, target, constraints, examples).
    config:
        Learner configuration; the chase uses ``iterations`` (``d``),
        ``sample_size``, ``max_chase_frequency``, ``use_mds`` /
        ``exact_match_only`` and ``restrict_sources``.
    similarity_indexes:
        Precomputed top-``k_m`` similarity indexes keyed by MD name.
    probes:
        Shared :class:`DatabaseProbeCache`; created privately when not given.
        Sessions pass one cache so every chase over the same database reuses
        probe results.
    cache:
        Shared :class:`SaturationCache` of finished results.
    """

    def __init__(
        self,
        problem: LearningProblem,
        config: DLearnConfig,
        similarity_indexes: dict[str, SimilarityIndex] | None = None,
        *,
        probes: DatabaseProbeCache | None = None,
        cache: SaturationCache | None = None,
    ) -> None:
        self.problem = problem
        self.config = config
        self.similarity_indexes = similarity_indexes or {}
        self.probes = probes or DatabaseProbeCache(problem.database)
        self.cache = cache or SaturationCache()
        self._interner = problem.database.interner
        #: (md name, value id) → decoded top-k partner values.
        self._partner_cache: dict[tuple[str, object], tuple[object, ...]] = {}
        #: value id → chaseability verdict; valid per chase (fixed config limit).
        self._chaseable_memo: dict[object, bool] = {}
        #: value id → canonical sort key for order-sensitive iterations.
        self._sort_keys: dict[object, str] = {}
        #: Attached shard scatter plane (:meth:`attach_shard_scatter`);
        #: ``None`` keeps every depth on the unsharded prefetch.
        self._shard_scatter: "SaturationFanout | SerialShardScatter | None" = None
        #: Fault/retry/recovery counters of the last *supervised* scatter
        #: plane attached here.  Kept past detachment (the plane is closed
        #: then), so session observability survives the pool it describes.
        self._scatter_counters: FaultCounters | None = None

    # ------------------------------------------------------------------ #
    # public entry points
    # ------------------------------------------------------------------ #
    def _cache_key(self, example: Example) -> tuple:
        return self.problem.database.intern_values(example.values)

    def relevant(self, example: Example) -> RelevantTuples:
        """The (cached) relevant tuples of one example."""
        cached = self.cache.get(self._cache_key(example))
        if cached is not None:
            return cached
        return self.relevant_many([example])[0]

    def relevant_many(self, examples: Sequence[Example]) -> list[RelevantTuples]:
        """Relevant tuples for many examples through one batched chase.

        Uncached examples are chased together: every depth prefetches the
        union of the active frontiers through the db layer's multi-value
        probes, then advances each example's state against the filled cache.
        Already-cached examples are simply looked up.
        """
        keys = [self._cache_key(example) for example in examples]
        pending: dict[tuple, Example] = {}
        for key, example in zip(keys, examples):
            if key not in self.cache and key not in pending:
                pending[key] = example
        if pending:
            self._chase_batch(list(pending.items()))
        results = []
        for key in keys:
            cached = self.cache.get(key)
            assert cached is not None
            results.append(cached)
        return results

    def chaseable(self, value: object) -> bool:
        """Should *value* drive lookups and joins?  (See :meth:`_chaseable`.)

        Value-level entry point used at the clause-assembly boundary; the
        chase itself runs the id-level test.
        """
        key = self.problem.database.id_of(value)
        if key == MISSING_ID:
            # Never stored anywhere: frequency 0, so only the type test applies.
            return isinstance(value, str)
        return self._chaseable(key, self.probes, self._chaseable_memo)

    def attach_shard_scatter(self, scatter: "SaturationFanout | SerialShardScatter | None") -> None:
        """Route each batched depth's probes through a shard scatter plane.

        *scatter* is a :class:`repro.core.fanout.SaturationFanout` (the
        process plane: shard workers answer the frontier probes GIL-free) or
        a :class:`repro.core.fanout.SerialShardScatter` (the in-process
        identity backend over the same shards).  The gathered tables are, by
        the sharding layer's merge guarantees, equal to the unsharded
        prefetch's, so results do not depend on the attachment.  Pass
        ``None`` to detach.  A scatter whose worker pool breaks detaches
        itself with a ``RuntimeWarning`` and the chase falls back to the
        unsharded path mid-batch.
        """
        self._shard_scatter = scatter
        supervisor = getattr(scatter, "supervisor", None)
        if supervisor is not None:
            self._scatter_counters = supervisor.counters

    @property
    def fault_counters(self) -> FaultCounters | None:
        """Counters of the last supervised scatter plane (``None`` before one)."""
        return self._scatter_counters

    def invalidate(self) -> None:
        """Drop every database-derived memo after an in-place mutation.

        Relation-level caches (index entries, canonical-row maps) invalidate
        themselves on insert; what this clears are the layers stacked above
        the storage — finished chase results, the shared probe cache and the
        chaseability memo, all of which assumed an unchanging instance.
        Driven by the coverage engine's mutation-stamp check.
        """
        self.cache.clear()
        self.probes.clear()
        self._chaseable_memo.clear()

    # ------------------------------------------------------------------ #
    # the batched chase
    # ------------------------------------------------------------------ #
    def _chase_batch(self, pending: list[tuple[tuple, Example]]) -> None:
        probes = self.probes
        memo = self._chaseable_memo
        states = [(key, self._new_state(example, probes, memo)) for key, example in pending]
        for _ in range(self.config.iterations):
            active = [state for _, state in states if state.frontier]
            if not active:
                break
            tables = self._prefetch_depth(active)
            for state in active:
                self._advance(state, probes, tables, memo)
        for key, state in states:
            self.cache.store(key, state.result)

    def _prefetch_depth(self, states: Sequence[_ChaseState]) -> _DepthTables:
        """Resolve the probes this depth is known to need, one index walk each.

        Exact-match probes: the union of the active frontier ids, against
        every allowed relation — returned as one id→rows table per relation,
        so distributing rows to examples is a plain dictionary lookup.  MD
        probes: the union of every example's ``search_values`` *as of depth
        start*.  Constants recorded midway through the depth (a tuple sampled
        by an earlier relation putting a frontier value into a premise
        position) can add search values the prefetch did not see — those fall
        back to the same index-level caches, which compute on miss, so
        prefetching a depth-start subset is purely an optimisation and never
        a correctness concern.

        With a shard scatter attached (:meth:`attach_shard_scatter`) both
        probe shapes are resolved by the scatter plane instead — the shard
        workers' index probes, merged order-exactly — and the MD answers
        ride back in ``equal_rows`` rather than warming the parent caches.
        """
        union_frontier: set = set()
        for state in states:
            union_frontier |= state.frontier
        database = self.problem.database
        probe_mds = self.config.use_mds and not self.config.exact_match_only
        allowed = [relation for relation in database if self._relation_allowed(relation.schema)]
        equal_probes: list[tuple[RelationInstance, str, set]] = []
        if probe_mds:
            for relation in allowed:
                relation_name = relation.schema.name
                for md in self.problem.mds:
                    if not md.involves(relation_name):
                        continue
                    index = self.similarity_indexes.get(md.name)
                    if index is None:
                        continue
                    other_relation = md.other_relation(relation_name)
                    to_attribute, from_attribute = md.oriented_premises(relation_name)[0]
                    search_keys: set = set()
                    for state in states:
                        known = state.constants_at.get((other_relation, from_attribute))
                        if known:
                            search_keys |= known & state.frontier
                    partner_keys: set = set()
                    id_of = self._interner.id_of
                    for key in search_keys:
                        value = self._interner.value_of(key)
                        for partner in self._partners(index, md.name, key, value):
                            if partner != value:
                                partner_keys.add(id_of(partner))
                    if partner_keys:
                        equal_probes.append((relation, to_attribute, partner_keys))
        if self._shard_scatter is not None:
            tables = self._scatter_depth(allowed, union_frontier, equal_probes)
            if tables is not None:
                return tables
        tables_map: dict[str, dict[object, frozenset[int]]] = {}
        for relation in allowed:
            tables_map[relation.schema.name] = self.probes.any_rows_table(relation, union_frontier)
        for relation, to_attribute, partner_keys in equal_probes:
            self.probes.prefetch_equal(relation, to_attribute, partner_keys)
        return _DepthTables(tables_map, None)

    def _scatter_depth(
        self,
        allowed: Sequence[RelationInstance],
        union_frontier: set,
        equal_probes: Sequence[tuple[RelationInstance, str, set]],
    ) -> _DepthTables | None:
        """One depth's probes through the attached shard scatter plane.

        Frontier and probe keys travel sorted (deterministic wire payloads).
        A *supervised* scatter (:class:`~repro.core.fanout.SaturationFanout`)
        recovers crashed/hung/desynchronised workers internally; only a
        terminal :class:`~repro.core.supervision.FanoutFaultError` reaches
        here, where the fault policy decides — ``"raise"`` propagates,
        every other mode closes the plane, detaches it with a structured
        :class:`~repro.core.supervision.FanoutFault` warning and returns
        ``None`` so the caller falls through to the always-correct unsharded
        path.  A structurally broken *unsupervised* scatter — worker pool
        died, payload refused to pickle — detaches the same way with a
        ``RuntimeWarning``; a *desynchronised* unsupervised worker raises
        instead, because silently recomputing would mask a protocol bug.
        """
        scatter = self._shard_scatter
        assert scatter is not None
        try:
            membership, equality = scatter.depth_tables(
                tuple(relation.schema.name for relation in allowed),
                tuple(sorted(union_frontier)),
                tuple(
                    (
                        relation.schema.name,
                        attribute,
                        relation.schema.position_of(attribute),
                        tuple(sorted(keys)),
                    )
                    for relation, attribute, keys in equal_probes
                ),
            )
        except FanoutFaultError as fault:
            if self.config.fault_policy.mode == "raise":
                raise
            self._detach_scatter(scatter)
            warnings.warn(
                FanoutFault(
                    f"sharded chase scatter demoted after a terminal {fault.kind} "
                    f"fault ({fault}); falling back to the unsharded chase",
                    kind=fault.kind,
                    pool=fault.pool or "saturation",
                    attempt=fault.attempt,
                ),
                stacklevel=4,
            )
            return None
        except (BrokenProcessPool, pickle.PicklingError, OSError) as error:
            self._detach_scatter(scatter)
            warnings.warn(
                f"sharded chase scatter failed ({error!r}); detaching and "
                "falling back to the unsharded chase",
                RuntimeWarning,
                stacklevel=4,
            )
            return None
        return _DepthTables(membership, equality)

    def _detach_scatter(self, scatter: "SaturationFanout | SerialShardScatter") -> None:
        """Drop a faulted scatter plane: close every worker, record the demotion.

        Closing applies to attached planes too — a demoted plane is unusable
        either way, leaving its workers up leaked process handles, and the
        owning preparation rebuilds closed planes on demand.
        """
        self._shard_scatter = None
        supervisor = getattr(scatter, "supervisor", None)
        if supervisor is not None:
            supervisor.counters.demotions += 1
        scatter.close()

    # ------------------------------------------------------------------ #
    # per-example chase mechanics (shared by every path)
    # ------------------------------------------------------------------ #
    def _new_state(self, example: Example, probes, memo: dict[object, bool] | None) -> _ChaseState:
        state = _ChaseState(example, self._example_sampler(example))
        target = self.problem.target
        intern = self.problem.database.intern
        for attribute, value in zip(target.attributes, example.values):
            if value is None:
                continue
            state.remember(target.name, attribute.name, intern(value))
        state.frontier = {key for key in state.known_constants if self._chaseable(key, probes, memo)}
        return state

    def _example_sampler(self, example: Example) -> Sampler:
        fingerprint = zlib.crc32(repr(example.values).encode("utf-8"))
        return Sampler((self.config.seed * 1_000_003 + fingerprint) & 0x7FFFFFFF)

    def _advance(self, state: _ChaseState, probes, tables, memo) -> None:
        """One depth of Algorithm 2 for one example, identical on every path.

        *tables* is the depth's prefetched per-relation probe table (batched
        path) or ``None`` (the uncached reference path of
        :func:`repro.testing.oracles.relevant_serial`); *memo* the shared
        chaseability memo or ``None``.  Neither changes what is gathered —
        only where the answers come from.
        """
        interner = self._interner
        next_frontier: set = set()
        for relation in self.problem.database:
            if not self._relation_allowed(relation.schema):
                continue
            relation_name = relation.schema.name
            table = tables.any_rows.get(relation_name) if tables is not None else None
            equal_rows = tables.equal_rows if tables is not None else None
            gathered = self._relevant_in_relation(relation, state, probes, table, equal_rows)
            # De-duplicate tuples *by value* — duplicate rows share a
            # canonical row, so the test compares integers — preferring the
            # entry that carries similarity evidence (the MD join is what the
            # clause must be able to express).
            deduplicated: dict[int, tuple[int, SimilarityEvidence | None]] = {}
            seen_rows = state.seen_rows
            for canonical, row, evidence in gathered:
                if (relation_name, canonical) in seen_rows:
                    continue
                if evidence is not None or canonical not in deduplicated:
                    previous = deduplicated.get(canonical)
                    deduplicated[canonical] = (previous[0] if previous is not None else row, evidence)
            fresh = list(deduplicated.items())
            sampled = state.sampler.sample(fresh, self.config.sample_size)
            for canonical, (row, evidence) in sampled:
                if (relation_name, canonical) in seen_rows:
                    continue
                seen_rows.add((relation_name, canonical))
                state.result.tuples.append(relation.tuple_at(row))
                if evidence is not None:
                    state.result.similarity_evidence.append(evidence)
                ids = relation.row_ids(row)
                for attribute, key in zip(relation.schema.attributes, ids):
                    if interner.value_of(key) is None:
                        continue
                    if key not in state.known_constants and self._chaseable(key, probes, memo):
                        next_frontier.add(key)
                    state.remember(relation_name, attribute.name, key)
        state.frontier = next_frontier

    def _relevant_in_relation(
        self, relation: RelationInstance, state: _ChaseState, probes, table, equal_rows=None
    ) -> list[tuple[int, int, SimilarityEvidence | None]]:
        """Rows of one relation reachable from the example's frontier constants.

        Each gathered entry is ``(canonical row, row position, evidence)`` —
        ``evidence`` is ``None`` for exact matches — so that only tuples
        surviving the per-relation sampling are materialised as views and
        contribute similarity and repair literals to the clause.
        """
        rows: set[int] = set()
        if table is not None:
            for key in state.frontier:
                key_rows = table.get(key)
                if key_rows:
                    rows |= key_rows
        else:
            for key in state.frontier:
                rows |= probes.rows_any(relation, key)
        canonical = relation.canonical_rows()
        gathered: list[tuple[int, int, SimilarityEvidence | None]] = [
            (canonical[row], row, None) for row in sorted(rows)
        ]

        if not self.config.use_mds:
            return gathered

        interner = self._interner
        relation_name = relation.schema.name
        for md in self.problem.mds:
            if not md.involves(relation_name):
                continue
            other_relation = md.other_relation(relation_name)
            # Constants known to sit in the MD's premise attribute on the
            # *other* side drive the similarity search over this relation.
            to_attribute, from_attribute = md.oriented_premises(relation_name)[0]
            search_keys = state.constants_at.get((other_relation, from_attribute), _EMPTY_SET) & state.frontier
            if not search_keys:
                continue
            index = self.similarity_indexes.get(md.name)
            # Decoded-value order: deterministic and independent of id
            # assignment (set iteration order over ids is not).
            for known_key in sorted(search_keys, key=self._sort_key):
                known_value = interner.value_of(known_key)
                for partner in self._similarity_partners(index, md.name, known_key, known_value):
                    if partner == known_value:
                        # Exact matches already surfaced through the value index.
                        continue
                    evidence = SimilarityEvidence(md.name, known_value, partner)
                    partner_key = interner.id_of(partner)
                    # Scatter/gather depths carry the MD equality answers in
                    # the depth tables; a miss there (a partner discovered
                    # mid-depth, or one with no rows) falls back to the probe
                    # layer — answers are identical, only provenance differs.
                    rows_equal = (
                        equal_rows.get((relation_name, to_attribute, partner_key))
                        if equal_rows is not None
                        else None
                    )
                    if rows_equal is None:
                        rows_equal = probes.rows_equal(relation, to_attribute, partner_key)
                    for row in rows_equal:
                        gathered.append((canonical[row], row, evidence))
        return gathered

    def _sort_key(self, key: object) -> str:
        cached = self._sort_keys.get(key)
        if cached is None:
            cached = repr(self._interner.value_of(key))
            self._sort_keys[key] = cached
        return cached

    def _similarity_partners(
        self, index: SimilarityIndex | None, md_name: str, key: object, value: object
    ) -> tuple[object, ...]:
        if self.config.exact_match_only or index is None:
            # Castor-Exact: MD attributes may be joined, but only on equality;
            # the exact matches are already found through the value index.
            return ()
        return self._partners(index, md_name, key, value)

    def _partners(self, index: SimilarityIndex, md_name: str, key: object, value: object) -> tuple[object, ...]:
        """Cached top-``k_m`` partners, keyed by (md, value id) — the merge in
        ``matches_of`` is not free, and an id pair hashes cheaper than a value."""
        cache_key = (md_name, key)
        cached = self._partner_cache.get(cache_key)
        if cached is None:
            cached = tuple(index.partners_of(value))
            self._partner_cache[cache_key] = cached
        return cached

    _MISSING = object()

    def _chaseable(self, key: object, probes, memo: dict[object, bool] | None) -> bool:
        """Should the value behind id *key* drive lookups and joins?

        Identifiers and textual values drive the chase.  Purely numeric
        values (years, prices, weights) and values that occur very frequently
        across the whole database (genre names, countries) connect
        essentially everything to everything; chasing them would drag
        unrelated tuples into the clause, so they are neither used for
        lookups nor allowed to join tuples that were reached independently
        (see ``DLearnConfig.max_chase_frequency``).  This plays the role of
        the mode declarations of classic ILP systems.
        """
        if memo is not None:
            cached = memo.get(key, self._MISSING)
            if cached is not self._MISSING:
                return cached
        if not isinstance(self._interner.value_of(key), str):
            verdict = False
        else:
            limit = self.config.max_chase_frequency
            verdict = True if limit is None else probes.value_frequency(key) <= limit
        if memo is not None:
            memo[key] = verdict
        return verdict

    def _relation_allowed(self, relation_schema) -> bool:
        """Source restriction used by the Castor-NoMD baseline (see DLearnConfig)."""
        allowed = self.config.restrict_sources
        if allowed is None or relation_schema.source is None:
            return True
        return relation_schema.source in allowed


_EMPTY_SET: frozenset = frozenset()
