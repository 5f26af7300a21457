"""GIL-free process-pool fan-out over the compiled integer plane.

The ``n_jobs`` thread fan-out of :meth:`repro.core.coverage.CoverageEngine.batch_covers`
contends on the GIL: θ-subsumption search is pure Python bytecode, so worker
threads serialise on the interpreter and four threads buy roughly nothing.
Compiled clause forms, however, are flat ints/tuples by design
(:mod:`repro.logic.compiled`) — exactly the cheap-to-ship shape that lets
the work leave the process:

* each worker process is seeded **once** with the subsumption-checker
  parameters and a read-only snapshot of the session
  :class:`~repro.logic.compiled.TermInterner`'s *is-var* flag plane
  (:class:`~repro.logic.compiled.InternerView` — verdicts never need the
  boxed terms, only the flags);
* a dispatched clause form crosses the process boundary exactly once, as a
  wire tuple (:func:`~repro.logic.compiled.general_to_wire` /
  :func:`~repro.logic.compiled.specific_to_wire`), and is registered in the
  worker under a small integer handle; later dispatches ship only handles;
* the interner is append-only, so each dispatch carries at most a
  *delta* — the flag suffix between the worker's watermark and the parent's
  current one (:meth:`~repro.logic.compiled.TermInterner.snapshot_flags`);
* verdicts flow back as ``(work index, bool)`` pairs and merge into the
  engine's session verdict cache.

Topology: ``n_jobs`` **single-worker** executors instead of one shared
``max_workers=n`` pool.  A single-worker executor is a FIFO queue, which
gives the one ordering guarantee the protocol needs for free — a task that
registers a handle runs before any task that references it — and makes
worker-local state (the handle registries, the interner view watermark)
deterministic.  Ground clauses are routed to a fixed worker on first sight
(round-robin), so each example's (large) prepared form is shipped and held
exactly once across the pool; candidate generals are shipped on demand to
the workers whose grounds they meet.

Verdict parity: a worker proves the same budgeted search the parent engine
proves (:meth:`~repro.logic.subsumption.SubsumptionChecker.subsumes_pair`
runs the search and connectivity retry of ``subsumes``), and the coverage
pipeline over the shipped bundles (:func:`_bundle_verdict`) mirrors
``CoverageEngine._prove_ground`` branch for branch — so verdicts, and everything downstream of them (retained
lists, learned definitions, predictions), are bit-identical to the serial
path.  ``benchmarks/bench_parallel_fanout.py`` and the property suites
assert this.

Start method: ``fork`` where the platform offers it (no re-import cost,
instant spawn), else ``spawn``; override with the
``REPRO_FANOUT_START_METHOD`` environment variable (``fork`` /
``forkserver`` / ``spawn``).  Workers hold no parent locks — the seeded
view is rebuilt from plain bytes — so forking a session mid-fit is safe.

This module also hosts the **saturation scatter/gather**
(:class:`SaturationFanout`): the same seeded-worker topology pointed at the
chase instead of coverage.  Each worker owns one row-wise shard of every
relation (:mod:`repro.db.sharding`) and answers the per-depth id-frontier
probes of :meth:`repro.core.saturation.FrontierChase.relevant_many` locally
against its shard's insert-time indexes; the parent merges the disjoint
per-shard answers into exactly the probe tables the unsharded prefetch
builds, so everything downstream — dedup on canonical rows, state updates,
learned definitions — is bit-identical to the serial chase.  Shards cross
the boundary once as byte wire forms; later dispatches carry interner flag
deltas, row-append deltas, and the frontier.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Any, Callable, Sequence, TYPE_CHECKING

from ..db.interning import ValueId
from ..db.sharding import RelationShard, ShardWire, ShardedInstance, ValueInternerView
from ..logic.compiled import (
    InternerView,
    TermInterner,
    general_from_wire,
    specific_from_wire,
)
from ..logic.subsumption import SubsumptionChecker
from ..testing.chaos import CORRUPT_WIRE, ChaosInjector, chaos_from_env
from .supervision import (
    DeadlinePolicy,
    FaultPolicy,
    PoolSupervisor,
    WorkerJob,
    terminate_executor,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..logic.subsumption import PreparedClause, PreparedGeneral

__all__ = ["ProcessFanout", "SaturationFanout", "SerialShardScatter", "checker_params"]

#: Environment override for the multiprocessing start method.
_START_METHOD_ENV = "REPRO_FANOUT_START_METHOD"

#: A shipped coverage bundle: ``(main, md, variants, has_cfd)`` where the
#: entries are wire forms.  ``md is None`` means the MD projection *is* the
#: main clause and ``variants is None`` means the CFD expansion is
#: ``(main,)`` — both exact for clauses without CFD repair literals
#: (``_md_projection`` and ``repaired_clauses`` are identities there), so
#: CFD-free clauses ship one wire form instead of three.
Bundle = tuple


def checker_params(checker: SubsumptionChecker) -> dict[str, Any]:
    """The picklable constructor kwargs a worker needs to clone *checker*.

    Only the verdict-relevant knobs travel; the compiler is deliberately
    absent (workers receive compiled forms, never clauses) and
    ``use_compiled`` is forced — the process backend *is* the compiled
    engine, there is no boxed-term path on the far side.
    """
    return {
        "respect_repair_connectivity": checker.respect_repair_connectivity,
        "condition_subset": checker.condition_subset,
        "max_steps": checker.max_steps,
        "use_compiled": True,
    }


def _start_method() -> str:
    override = os.environ.get(_START_METHOD_ENV)
    if override:
        return override
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


# --------------------------------------------------------------------------- #
# worker side
# --------------------------------------------------------------------------- #
# Module-level state, seeded once per worker process by the executor
# initializer.  Everything submitted to the pool is a module-level function
# over this state — no closures, no captured locks or handles (arch-lint
# rule PF01 enforces this shape).

_STATE: dict[str, Any] = {}


def _seed_worker(params: dict[str, Any], snapshot: tuple[int, int, bytes]) -> None:
    """Executor initializer: build the worker's checker and interner view."""
    view = InternerView()
    view.extend(*snapshot)
    _STATE["terms"] = view
    _STATE["checker"] = SubsumptionChecker(**params)
    _STATE["generals"] = {}
    _STATE["grounds"] = {}


def _decode_general(bundle: Bundle, terms: TermInterner) -> tuple:
    main, md, variants, has_cfd = bundle
    return (
        general_from_wire(main, terms),
        general_from_wire(md, terms) if md is not None else None,
        tuple(general_from_wire(v, terms) for v in variants) if variants is not None else None,
        has_cfd,
    )


def _decode_specific(bundle: Bundle, terms: TermInterner) -> tuple:
    main, md, variants, has_cfd = bundle
    return (
        specific_from_wire(main, terms),
        specific_from_wire(md, terms) if md is not None else None,
        tuple(specific_from_wire(v, terms) for v in variants) if variants is not None else None,
        has_cfd,
    )


def _bundle_verdict(checker: SubsumptionChecker, general: tuple, ground: tuple, positive: bool) -> bool:
    """The Section 4.3 coverage pipeline over decoded bundles.

    Mirrors ``CoverageEngine._prove_ground`` exactly — direct subsumption,
    the both-sides-CFD-free early False, the positive-only MD-projection
    check, then the all/any CFD-variant quantifier — with every subsumption
    through the same staged compiled search the parent runs.
    """
    g_main, g_md, g_variants, g_cfd = general
    s_main, s_md, s_variants, s_cfd = ground
    if checker.subsumes_pair(g_main, s_main):
        return True
    if not g_cfd and not s_cfd:
        return False
    if positive and not checker.subsumes_pair(
        g_md if g_md is not None else g_main,
        s_md if s_md is not None else s_main,
    ):
        return False
    clause_variants = g_variants if g_variants is not None else (g_main,)
    ground_variants = s_variants if s_variants is not None else (s_main,)
    quantifier = all if positive else any
    return quantifier(
        any(checker.subsumes_pair(cv, gv) for gv in ground_variants) for cv in clause_variants
    )


def _apply_chaos(directive: tuple | None) -> None:
    """Execute a chaos directive shipped inside a task payload.

    Directives are plain data (PF01-picklable) injected parent-side by
    :mod:`repro.testing.chaos`, one-shot per chunk — a recovered worker's
    retry payload never carries one.  ``("kill",)`` is kill -9 semantics:
    no cleanup, no exception, the parent sees a broken pool.  ``("delay",
    seconds)`` holds the chunk past its dispatch deadline.
    """
    if directive is None:
        return
    if directive[0] == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    elif directive[0] == "delay":
        time.sleep(directive[1])


def _run_chunk(task: tuple) -> list[tuple[int, bool]]:
    """One dispatched work chunk: apply the delta, register bundles, prove pairs."""
    delta, generals, grounds, work, chaos = task
    _apply_chaos(chaos)
    terms: InternerView = _STATE["terms"]
    if delta is not None:
        terms.extend(*delta)
    general_registry: dict[int, tuple] = _STATE["generals"]
    ground_registry: dict[int, tuple] = _STATE["grounds"]
    for handle, bundle in generals:
        general_registry[handle] = _decode_general(bundle, terms)
    for handle, bundle in grounds:
        ground_registry[handle] = _decode_specific(bundle, terms)
    checker: SubsumptionChecker = _STATE["checker"]
    return [
        (idx, _bundle_verdict(checker, general_registry[gh], ground_registry[sh], positive))
        for idx, gh, sh, positive in work
    ]


# --------------------------------------------------------------------------- #
# parent side
# --------------------------------------------------------------------------- #
class ProcessFanout:
    """A pool of seeded worker processes proving coverage pairs.

    Owns ``n_jobs`` single-worker executors plus the parent-side shipping
    state: clause → handle maps, per-worker shipped-handle sets and interner
    watermarks, and the ground → worker routing table.  Not thread-safe —
    one dispatch at a time, from the thread driving the batch (the engine's
    batched entry points already run on the calling thread).

    The pool is cheap to create (worker processes spawn lazily on first
    dispatch) and safe to share across engines and sessions that compile
    through the same :class:`~repro.logic.compiled.ClauseCompiler`
    (:meth:`repro.core.session.DatabasePreparation.process_fanout` memoises
    exactly that sharing).

    Dispatches run supervised (:class:`~repro.core.supervision.PoolSupervisor`):
    every await carries a :class:`~repro.core.supervision.DeadlinePolicy`
    timeout, and a crashed, hung or desynchronised worker is killed,
    respawned from the current interner snapshot, its registration log
    replayed from the retained wire bundles (:meth:`_recover_worker`), and
    only the lost chunk re-dispatched.  Routing (:attr:`_route`) survives
    recovery untouched, so verdict identity is preserved by construction.
    """

    #: Pool name in fault taxonomy warnings and session fault counters.
    pool_name = "coverage"

    def __init__(
        self,
        interner: TermInterner,
        params: dict[str, Any],
        n_jobs: int,
        *,
        start_method: str | None = None,
        fault_policy: FaultPolicy | None = None,
        deadline_policy: DeadlinePolicy | None = None,
        chaos: ChaosInjector | None = None,
    ) -> None:
        if n_jobs < 1:
            raise ValueError("n_jobs must be >= 1")
        self._context = multiprocessing.get_context(start_method or _start_method())
        self.n_jobs = n_jobs
        self._interner = interner
        self._params = dict(params)
        self.supervisor = PoolSupervisor(
            self.pool_name, fault_policy=fault_policy, deadline_policy=deadline_policy
        )
        self._chaos = chaos if chaos is not None else chaos_from_env()
        snapshot = interner.snapshot_flags(0)
        self._workers = [self._new_worker(snapshot) for _ in range(n_jobs)]
        self._watermarks = [snapshot[1]] * n_jobs
        self._shipped_generals: list[set[int]] = [set() for _ in range(n_jobs)]
        self._shipped_grounds: list[set[int]] = [set() for _ in range(n_jobs)]
        self._general_ids: dict[object, int] = {}
        self._ground_ids: dict[object, int] = {}
        #: Handle → wire bundle, both planes.  Generals because a general
        #: may meet new grounds routed to workers it has not visited yet;
        #: grounds because crash recovery replays a worker's registration
        #: log from the parent's retained wires (and rehoming after
        #: :meth:`reset_routing` re-ships from here instead of rebuilding).
        self._general_wires: dict[int, Bundle] = {}
        self._ground_wires: dict[int, Bundle] = {}
        #: Ground handle → worker index, fixed at first sight (round-robin).
        self._route: dict[int, int] = {}
        self._next_worker = 0
        self._closed = False

    def _new_worker(self, snapshot: tuple[int, int, bytes]) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=1,
            mp_context=self._context,
            initializer=_seed_worker,
            initargs=(dict(self._params), snapshot),
        )

    # ------------------------------------------------------------------ #
    def dispatch(
        self,
        pairs: Sequence[tuple],
        build_general: "Callable[[PreparedGeneral], Bundle]",
        build_ground: "Callable[[PreparedClause], Bundle]",
    ) -> list[bool]:
        """Prove every ``(prepared general, prepared ground, positive)`` pair.

        Bundle builders run in the parent and may intern new terms (they
        compile MD projections and CFD variants on first sight); the
        interner deltas are therefore snapshotted strictly *after* all
        building, so every id a shipped wire form references is covered by
        the worker's view before the work runs — the single-worker FIFO
        guarantees registration precedes use within the task itself.
        """
        if self._closed:
            raise RuntimeError("ProcessFanout is closed")
        n_jobs = self.n_jobs
        tasks: list[tuple[list, list, list]] = [([], [], []) for _ in range(n_jobs)]
        for idx, (general, ground, positive) in enumerate(pairs):
            gh = self._general_ids.get(general.clause)
            if gh is None:
                gh = len(self._general_ids)
                self._general_ids[general.clause] = gh
                self._general_wires[gh] = build_general(general)
            sh = self._ground_ids.get(ground.clause)
            if sh is None:
                sh = len(self._ground_ids)
                self._ground_ids[ground.clause] = sh
                self._ground_wires[sh] = build_ground(ground)
            worker = self._route.get(sh)
            if worker is None:
                worker = self._next_worker % n_jobs
                self._next_worker += 1
                self._route[sh] = worker
            generals, grounds, work = tasks[worker]
            if gh not in self._shipped_generals[worker]:
                self._shipped_generals[worker].add(gh)
                generals.append((gh, self._general_wires[gh]))
            if sh not in self._shipped_grounds[worker]:
                self._shipped_grounds[worker].add(sh)
                grounds.append((sh, self._ground_wires[sh]))
            work.append((idx, gh, sh, positive))

        jobs: list[WorkerJob] = []
        for worker, (generals, grounds, work) in enumerate(tasks):
            if not work:
                continue
            start, mark, flags = self._interner.snapshot_flags(self._watermarks[worker])
            delta = (start, mark, flags) if mark > start else None
            self._watermarks[worker] = mark
            directive = None
            if self._chaos is not None:
                faults = self._chaos.chunk_faults()
                directive = faults.directive
                if faults.drop_delta:
                    delta = None
                if faults.corrupt_wire:
                    if grounds:
                        grounds = self._chaos.corrupt_bundles(grounds)
                    else:
                        generals = self._chaos.corrupt_bundles(generals)
            jobs.append(
                WorkerJob(
                    worker=worker,
                    payload=(delta, tuple(generals), tuple(grounds), tuple(work), directive),
                    # A recovered worker is reseeded from the current full
                    # snapshot and replayed every shipped bundle, so the
                    # retry needs neither delta nor registrations.
                    retry_payload=(None, (), (), tuple(work), None),
                    units=len(work),
                )
            )
        verdicts = [False] * len(pairs)
        for part in self.supervisor.run(jobs, self._submit, self._recover_worker):
            for idx, verdict in part:
                verdicts[idx] = verdict
        return verdicts

    # ------------------------------------------------------------------ #
    def _submit(self, worker: int, payload: tuple) -> Future:
        return self._workers[worker].submit(_run_chunk, payload)

    def _recover_worker(self, worker: int) -> None:
        """Respawn worker *worker* and replay its registration log.

        The old executor is hard-terminated (a hung worker must not linger),
        a fresh single-worker executor is seeded from the *current* interner
        snapshot, and every bundle the dead worker had registered — by the
        shipped-handle sets, which were updated when the lost chunk was
        built — is re-shipped from the parent's retained wires in one replay
        task.  FIFO ordering guarantees the replay lands before the retried
        chunk; handle order is sorted, so registration is deterministic.
        Routing is deliberately untouched: verdicts are routing-independent,
        and the surviving workers' state is exactly as shipped.
        """
        terminate_executor(self._workers[worker])
        snapshot = self._interner.snapshot_flags(0)
        self._workers[worker] = self._new_worker(snapshot)
        self._watermarks[worker] = snapshot[1]
        generals = tuple(
            (handle, self._general_wires[handle])
            for handle in sorted(self._shipped_generals[worker])
        )
        grounds = tuple(
            (handle, self._ground_wires[handle])
            for handle in sorted(self._shipped_grounds[worker])
        )
        if generals or grounds:
            self._workers[worker].submit(_run_chunk, (None, generals, grounds, (), None))

    def warm(self) -> None:
        """Spawn and seed every worker now (benchmarks time dispatch, not forking)."""
        empty = (None, (), (), (), None)
        timeout = self.supervisor.deadline_policy.timeout_for(0)
        for future in [worker.submit(_run_chunk, empty) for worker in self._workers]:
            future.result(timeout=timeout)

    def reset_routing(self) -> None:
        """Forget the ground → worker pinning; the next dispatch rebalances.

        Grounds are pinned to a worker on first sight, which is the right
        call while a pool lives — the (large) prepared ground ships once —
        but the pinning would otherwise outlive its balance: a long-lived
        fan-out re-used across sessions (or compared against a different
        ``n_jobs``) keeps early grounds crowded onto the first workers.
        Resetting only drops the routing table and the round-robin cursor.
        The shipped-handle bookkeeping survives deliberately: a rehomed
        ground is re-shipped to its new worker on demand by :meth:`dispatch`
        from the parent's retained wire, and the stale copy on the old
        worker is simply never referenced again.  Verdicts are
        routing-independent, so rebalancing cannot change them.
        """
        self._route.clear()
        self._next_worker = 0

    def close(self) -> None:
        """Shut the worker processes down; the fan-out is unusable afterwards.

        Idempotent, and hard: worker processes are killed, not merely asked
        to wind down — a close after a fault (the degradation ladder closes
        demoted pools, healthy siblings included) must not leave a hung
        worker blocking interpreter exit.
        """
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            terminate_executor(worker)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return f"ProcessFanout({self.n_jobs} workers, {state})"


# --------------------------------------------------------------------------- #
# saturation scatter/gather: worker side
# --------------------------------------------------------------------------- #
# Separate module-level state from the coverage plane: a process can in
# principle serve both (coverage chunks and chase depths), and the two
# protocols must not see each other's registries.

_SHARD_STATE: dict[str, Any] = {}

#: Membership answers from one worker: ``(relation name, ((key, rows), ...))``
#: pairs, non-empty keys only — the per-shard slice of ``any_rows_table``.
_MembershipPart = tuple[tuple[str, tuple[tuple[ValueId, frozenset[int]], ...]], ...]
#: Equality answers from one worker: ``((relation name, position), ((key, rows), ...))``.
_EqualityPart = tuple[tuple[tuple[str, int], tuple[tuple[ValueId, tuple[int, ...]], ...]], ...]

#: The probe tables one chase depth runs on, in parent terms: membership
#: tables per relation name (``any_rows_table`` shape: only non-empty keys,
#: but every requested relation present), and equality rows keyed
#: ``(relation name, attribute name, key id)``.
DepthTables = tuple[
    dict[str, dict[ValueId, frozenset[int]]],
    dict[tuple[str, str, ValueId], tuple[int, ...]],
]


def _seed_shard_worker(wires: tuple[ShardWire, ...], snapshot: tuple[int, int, bytes]) -> None:
    """Executor initializer: rebuild this worker's shards and flag view."""
    view = ValueInternerView()
    view.extend(*snapshot)
    _SHARD_STATE["values"] = view
    _SHARD_STATE["shards"] = {wire[0]: RelationShard.from_wire(wire) for wire in wires}


def _run_depth(task: tuple) -> tuple[_MembershipPart, _EqualityPart]:
    """One dispatched chase depth: apply deltas, probe the local shards.

    ``task`` is ``(delta, resets, extends, names, frontier, equal_probes,
    chaos)``: the interner flag delta, full shard wires to replace (an
    overlay delta rewrote rows — rebuilds carry a new generation),
    row-append deltas, the relation names to probe, the ascending
    id-frontier, ``(name, position, keys)`` equality probes, and an
    optional chaos directive (:func:`_apply_chaos`).  Probes run against
    the shard's insert-time indexes — the same index-routed lookups the
    unsharded relation answers, restricted to this shard's rows.
    """
    delta, resets, extends, names, frontier, equal_probes, chaos = task
    _apply_chaos(chaos)
    values: ValueInternerView = _SHARD_STATE["values"]
    if delta is not None:
        values.extend(*delta)
    shards: dict[str, RelationShard] = _SHARD_STATE["shards"]
    for wire in resets:
        shards[wire[0]] = RelationShard.from_wire(wire)
    for name, rows in extends:
        shards[name].extend_rows(rows)
    if frontier and frontier[-1] >= len(values):
        raise RuntimeError(
            f"shard worker desynchronised: frontier id {frontier[-1]} is beyond "
            f"the interner view watermark {len(values)} — an interner delta was lost"
        )
    membership = tuple(
        (name, tuple(shards[name].membership_hits(frontier))) for name in names
    )
    equality = tuple(
        ((name, position), tuple(shards[name].equality_hits(position, keys)))
        for name, position, keys in equal_probes
    )
    return membership, equality


# --------------------------------------------------------------------------- #
# saturation scatter/gather: parent side
# --------------------------------------------------------------------------- #
class SaturationFanout:
    """Shard workers answering the chase's per-depth probes in parallel.

    One single-worker executor per shard (the same FIFO topology as
    :class:`ProcessFanout`: a task that applies a row delta runs before any
    task probing it).  Workers are seeded once with their shard wires and
    the interner flag snapshot; each :meth:`depth_tables` dispatch carries
    only what changed since — interner flag deltas, appended rows (or a
    full shard re-ship when an overlay delta rewrote rows), the frontier
    and the equality probes.  The gather merges the disjoint per-shard
    answers with :mod:`repro.db.sharding`'s order-exact merges, so the
    returned tables equal the unsharded prefetch's tables key for key.

    Not thread-safe — one dispatch at a time, from the thread driving the
    chase (which is how :class:`~repro.core.saturation.FrontierChase`
    calls it).

    Dispatches run supervised, like :class:`ProcessFanout`'s: deadlines on
    every await, and a crashed, hung or desynchronised shard worker is
    killed and respawned seeded with its shard's *current* wire forms and
    the current interner snapshot (:meth:`_recover_worker` — a full
    re-seed genuinely repairs a lost delta, which is why desync faults
    recover here instead of propagating).  The shard index is positional,
    so recovery cannot change which rows a worker answers for.
    """

    #: Pool name in fault taxonomy warnings and session fault counters.
    pool_name = "saturation"

    def __init__(
        self,
        sharded: ShardedInstance,
        *,
        start_method: str | None = None,
        fault_policy: FaultPolicy | None = None,
        deadline_policy: DeadlinePolicy | None = None,
        chaos: ChaosInjector | None = None,
    ) -> None:
        self._context = multiprocessing.get_context(start_method or _start_method())
        self.sharded = sharded
        self.shard_count = sharded.shard_count
        self.supervisor = PoolSupervisor(
            self.pool_name, fault_policy=fault_policy, deadline_policy=deadline_policy
        )
        self._chaos = chaos if chaos is not None else chaos_from_env()
        snapshot = sharded.interner_snapshot(0)
        self._workers = [self._new_worker(index, snapshot) for index in range(self.shard_count)]
        self._watermarks = [snapshot[1]] * self.shard_count
        relations = sharded.shard_relations()
        self._generations: list[dict[str, int]] = [
            {name: rel.generation for name, rel in relations.items()}
            for _ in range(self.shard_count)
        ]
        self._shipped_rows: list[dict[str, int]] = [
            {name: len(rel.shards[index]) for name, rel in relations.items()}
            for index in range(self.shard_count)
        ]
        self._closed = False

    def _new_worker(self, index: int, snapshot: tuple[int, int, bytes]) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=1,
            mp_context=self._context,
            initializer=_seed_shard_worker,
            initargs=(self.sharded.wire_shard(index), snapshot),
        )

    # ------------------------------------------------------------------ #
    def _shard_deltas(self, index: int) -> tuple[tuple[ShardWire, ...], tuple]:
        """What worker *index* is missing: full re-ships and row appends."""
        resets: list[ShardWire] = []
        extends: list[tuple[str, tuple]] = []
        generations = self._generations[index]
        shipped = self._shipped_rows[index]
        for name, sharded_rel in self.sharded.shard_relations().items():
            shard = sharded_rel.shards[index]
            if generations.get(name) != sharded_rel.generation:
                resets.append(shard.to_wire())
                generations[name] = sharded_rel.generation
                shipped[name] = len(shard)
                continue
            have = shipped.get(name, 0)
            if len(shard) > have:
                extends.append((name, tuple(shard.id_rows(have))))
                shipped[name] = len(shard)
        return tuple(resets), tuple(extends)

    def depth_tables(
        self,
        names: tuple[str, ...],
        frontier: tuple[ValueId, ...],
        equal_probes: tuple[tuple[str, str, int, tuple[ValueId, ...]], ...],
    ) -> DepthTables:
        """Scatter one depth's probes to the shard workers and gather the union.

        *names* are the relations to probe for frontier membership,
        *frontier* the ascending id-frontier, *equal_probes* the MD
        partner-key lookups as ``(relation, attribute, position, keys)``.
        The attribute name stays parent-side (workers probe by position);
        it keys the gathered equality table the way the chase consumes it.
        """
        if self._closed:
            raise RuntimeError("SaturationFanout is closed")
        self.sharded.sync()
        wire_probes = tuple((name, position, keys) for name, _, position, keys in equal_probes)
        jobs: list[WorkerJob] = []
        for index in range(self.shard_count):
            resets, extends = self._shard_deltas(index)
            start, mark, flags = self.sharded.interner_snapshot(self._watermarks[index])
            delta = (start, mark, flags) if mark > start else None
            self._watermarks[index] = mark
            directive = None
            if self._chaos is not None:
                faults = self._chaos.chunk_faults()
                directive = faults.directive
                if faults.drop_delta:
                    delta = None
                if faults.corrupt_wire and resets:
                    # ShardWire payloads, not (handle, wire) pairs: replace
                    # the first re-shipped shard with the invalid marker.
                    resets = (CORRUPT_WIRE,) + resets[1:]
            jobs.append(
                WorkerJob(
                    worker=index,
                    payload=(delta, resets, extends, names, frontier, wire_probes, directive),
                    # Recovery reseeds the worker with its shard's current
                    # wires and the full interner snapshot, so the retry
                    # carries only the probes.
                    retry_payload=(None, (), (), names, frontier, wire_probes, None),
                    units=max(1, len(frontier)),
                )
            )
        attribute_of = {(name, position): attribute for name, attribute, position, _ in equal_probes}
        membership: dict[str, dict[ValueId, frozenset[int]]] = {name: {} for name in names}
        equality: dict[tuple[str, str, ValueId], tuple[int, ...]] = {}
        for membership_part, equality_part in self.supervisor.run(
            jobs, self._submit, self._recover_worker
        ):
            for name, hits in membership_part:
                table = membership[name]
                for key, rows in hits:
                    have = table.get(key)
                    table[key] = rows if have is None else have | rows
            for (name, position), hits in equality_part:
                attribute = attribute_of[(name, position)]
                for key, rows in hits:
                    have_rows = equality.get((name, attribute, key))
                    equality[(name, attribute, key)] = (
                        rows if have_rows is None else tuple(sorted(have_rows + rows))
                    )
        return membership, equality

    # ------------------------------------------------------------------ #
    def _submit(self, worker: int, payload: tuple) -> Future:
        return self._workers[worker].submit(_run_depth, payload)

    def _recover_worker(self, worker: int) -> None:
        """Respawn shard worker *worker* seeded with its current shard state.

        The replacement executor's initializer carries the shard's current
        wire forms and the full interner flag snapshot — a complete re-seed,
        which is also why a *desynchronised* worker (lost delta, corrupt
        wire) is recoverable here: the respawn rebuilds the exact state an
        uninterrupted delta stream would have produced.  The parent-side
        delta bookkeeping is re-anchored to what the fresh seed contains.
        """
        terminate_executor(self._workers[worker])
        snapshot = self.sharded.interner_snapshot(0)
        self._workers[worker] = self._new_worker(worker, snapshot)
        self._watermarks[worker] = snapshot[1]
        relations = self.sharded.shard_relations()
        self._generations[worker] = {name: rel.generation for name, rel in relations.items()}
        self._shipped_rows[worker] = {
            name: len(rel.shards[worker]) for name, rel in relations.items()
        }

    def warm(self) -> None:
        """Spawn and seed every shard worker now (benchmarks time depths, not forking)."""
        empty: tuple = (None, (), (), (), (), (), None)
        timeout = self.supervisor.deadline_policy.timeout_for(0)
        for future in [worker.submit(_run_depth, empty) for worker in self._workers]:
            future.result(timeout=timeout)

    def close(self) -> None:
        """Shut the shard workers down; the fan-out is unusable afterwards.

        Idempotent and hard-terminating, like :meth:`ProcessFanout.close` —
        the chase's fallback detach closes the whole pool, healthy shard
        workers included, instead of leaking them to interpreter exit.
        """
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            terminate_executor(worker)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return f"SaturationFanout({self.shard_count} shards, {state})"


class SerialShardScatter:
    """In-process scatter over the same shards — the identity/debug backend.

    Probes the parent-side :class:`~repro.db.sharding.ShardedInstance`
    directly (no processes, no pickling) through exactly the merge path the
    process fan-out gathers with.  This is what ``shard_count > 1`` means
    under the serial/thread backends, and what the property suite uses to
    pin scatter/gather ≡ unsharded without paying worker startup per case.
    """

    def __init__(self, sharded: ShardedInstance) -> None:
        self.sharded = sharded
        self.shard_count = sharded.shard_count
        self._closed = False

    def depth_tables(
        self,
        names: tuple[str, ...],
        frontier: tuple[ValueId, ...],
        equal_probes: tuple[tuple[str, str, int, tuple[ValueId, ...]], ...],
    ) -> DepthTables:
        if self._closed:
            raise RuntimeError("SerialShardScatter is closed")
        self.sharded.sync()
        membership = {name: self.sharded.membership_table(name, frontier) for name in names}
        equality: dict[tuple[str, str, ValueId], tuple[int, ...]] = {}
        for name, attribute, position, keys in equal_probes:
            for key, rows in self.sharded.equality_table(name, position, keys).items():
                equality[(name, attribute, key)] = rows
        return membership, equality

    def warm(self) -> None:
        """Nothing to spawn; present for interface parity."""

    def close(self) -> None:
        self._closed = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return f"SerialShardScatter({self.shard_count} shards, {state})"
