"""Process-pool scatter/gather of the saturation chase over row-wise shards.

:class:`SaturationFanout` owns one seeded worker process per shard of every
relation (:mod:`repro.db.sharding`).  Each worker answers the per-depth
id-frontier probes of
:meth:`repro.core.saturation.FrontierChase.relevant_many` locally against
its shard's insert-time indexes; the parent merges the disjoint per-shard
answers into exactly the probe tables the unsharded prefetch builds, so
everything downstream — dedup on canonical rows, state updates, learned
definitions — is bit-identical to the serial chase.  Shards cross the
boundary once as byte wire forms; later dispatches carry value-interner
flag deltas, row-append deltas, and the frontier.
:class:`SerialShardScatter` probes the same shards in-process and is the
identity oracle for the process plane.

Start method: ``fork`` where the platform offers it (no re-import cost,
instant spawn), else ``spawn``; override with the
``REPRO_FANOUT_START_METHOD`` environment variable (``fork`` /
``forkserver`` / ``spawn``).  Workers hold no parent locks — the seeded
state is rebuilt from plain bytes — so forking a session mid-fit is safe.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Any

from ..db.interning import ValueId
from ..db.sharding import RelationShard, ShardWire, ShardedInstance, ValueInternerView
from ..testing.chaos import CORRUPT_WIRE, ChaosInjector, chaos_from_env
from .supervision import (
    DeadlinePolicy,
    FaultPolicy,
    PoolSupervisor,
    WorkerJob,
    terminate_executor,
)

__all__ = ["SaturationFanout", "SerialShardScatter"]

#: Environment override for the multiprocessing start method.
_START_METHOD_ENV = "REPRO_FANOUT_START_METHOD"


def _start_method() -> str:
    override = os.environ.get(_START_METHOD_ENV)
    if override:
        return override
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


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


# --------------------------------------------------------------------------- #
# worker side
# --------------------------------------------------------------------------- #
# Module-level state, seeded once per worker process by the executor
# initializer.  Everything submitted to the pool is a module-level function
# over this state — no closures, no captured locks or handles (arch-lint
# rule PF01 enforces this shape).

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
# parent side
# --------------------------------------------------------------------------- #
class SaturationFanout:
    """Shard workers answering the chase's per-depth probes in parallel.

    One single-worker executor per shard: a single-worker executor is a
    FIFO queue, so a task that applies a row delta runs before any task
    probing it.  Workers are seeded once with their shard wires and
    the interner flag snapshot; each :meth:`depth_tables` dispatch carries
    only what changed since — interner flag deltas, appended rows (or a
    full shard re-ship when an overlay delta rewrote rows), the frontier
    and the equality probes.  The gather merges the disjoint per-shard
    answers with :mod:`repro.db.sharding`'s order-exact merges, so the
    returned tables equal the unsharded prefetch's tables key for key.

    Not thread-safe — one dispatch at a time, from the thread driving the
    chase (which is how :class:`~repro.core.saturation.FrontierChase`
    calls it).

    Dispatches run supervised (:class:`~repro.core.supervision.PoolSupervisor`):
    deadlines on every await, and a crashed, hung or desynchronised shard
    worker is killed and respawned seeded with its shard's *current* wire
    forms and the current interner snapshot (:meth:`_recover_worker` — a full
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

        Idempotent, and hard: worker processes are killed, not merely asked
        to wind down — the chase's fallback detach closes the whole pool,
        healthy shard workers included, and a hung worker must not block
        interpreter exit.
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
    under the serial backend, and what the property suite uses to
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
