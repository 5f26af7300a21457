"""Fault supervision for the process fan-out plane.

The shard worker pool of :mod:`repro.core.fanout` is built from pure wire
state: every worker is seeded by an executor initializer from picklable
snapshots (value-interner flag planes, shard wires) and every later
dispatch carries only deltas.  That makes workers *replayable* — a dead
worker can be respawned from scratch, re-seeded from the current state, and
only the lost chunk re-dispatched, with bit-identical results.  This module
is the driver for that property:

* :class:`DeadlinePolicy` — per-dispatch timeouts with exponential backoff,
  so a hung worker is killed and recovered instead of blocking ``fit()``
  forever;
* :class:`FaultPolicy` — the degradation ladder (``recover`` →
  ``degrade_serial`` → ``raise``) with a per-pool recovery budget;
* :class:`FanoutFault` — a :class:`RuntimeWarning` subclass carrying a
  machine-readable fault taxonomy (``crash`` / ``timeout`` / ``desync`` /
  ``seed-failure``) plus the pool name and attempt number, so callers can
  filter warnings structurally instead of string-matching;
* :class:`FaultCounters` — per-pool fault / retry / recovery counters,
  surfaced by :meth:`repro.core.session.LearningSession.fault_stats`;
* :class:`PoolSupervisor` — the dispatch loop itself: await every future
  under a deadline, classify faults, recover the owning worker through a
  pool-supplied callback, and resubmit the lost chunk; when the policy or
  the budget says stop, raise a terminal :class:`FanoutFaultError` for the
  caller's ladder.

The module is deliberately stdlib-only (no imports from the rest of
``repro``): the fan-out classes, the config and the saturation ladder all
import *it*.
"""

from __future__ import annotations

import time
import warnings
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Sequence

__all__ = [
    "FAULT_KINDS",
    "DeadlinePolicy",
    "FanoutFault",
    "FanoutFaultError",
    "FaultCounters",
    "FaultPolicy",
    "PoolSupervisor",
    "WorkerJob",
    "classify_fault",
    "terminate_executor",
]

#: The fault taxonomy.  ``crash`` — the worker process died (kill -9, OOM,
#: segfault: surfaces as ``BrokenProcessPool``); ``timeout`` — the dispatch
#: deadline expired with the worker still running; ``desync`` — the worker
#: raised (a lost interner delta, a corrupt wire payload, a protocol bug);
#: ``seed-failure`` — a pool or respawned worker could not be constructed
#: at all.
FAULT_KINDS = ("crash", "timeout", "desync", "seed-failure")

#: Degradation-ladder rungs, most to least capable.
FAULT_MODES = ("recover", "degrade_serial", "raise")


class FanoutFault(RuntimeWarning):
    """A structured fan-out fault warning.

    Subclasses :class:`RuntimeWarning` so existing filters keep matching;
    carries the fault ``kind`` (one of :data:`FAULT_KINDS`), the ``pool``
    it happened on (``"saturation"``) and the ``attempt``
    ordinal, so tests and callers can filter precisely.
    """

    def __init__(self, message: str, *, kind: str = "crash", pool: str = "", attempt: int = 0) -> None:
        super().__init__(message)
        self.kind = kind
        self.pool = pool
        self.attempt = attempt


class FanoutFaultError(RuntimeError):
    """A terminal pool fault: the policy forbids (further) recovery.

    Raised by :class:`PoolSupervisor` out of a dispatch; the saturation
    chase catches it and walks the degradation ladder.  Carries
    the same taxonomy fields as :class:`FanoutFault`.
    """

    def __init__(self, message: str, *, kind: str = "crash", pool: str = "", attempt: int = 0) -> None:
        super().__init__(message)
        self.kind = kind
        self.pool = pool
        self.attempt = attempt


@dataclass(frozen=True)
class DeadlinePolicy:
    """Per-dispatch deadlines: budget-scaled, exponential backoff, bounded retries.

    Attributes
    ----------
    dispatch_timeout:
        Base seconds one dispatched chunk may take before its worker is
        declared hung, killed, and recovered.  ``None`` disables deadlines
        (waits become unbounded — every ``future.result`` still passes the
        explicit ``timeout=None``).  The default is deliberately generous:
        a healthy chunk on a loaded CI runner must never trip it.
    per_item:
        Extra seconds of budget per work unit in the chunk, so deadlines
        scale with dispatch size instead of punishing big batches.
    backoff:
        Multiplier applied to the timeout per retry attempt — a recovered
        worker re-proving the lost chunk gets more headroom, which keeps a
        tight first deadline from looping on a genuinely slow chunk.
    max_retries:
        Recovery-and-resubmit attempts per chunk before the fault is
        terminal.
    """

    dispatch_timeout: float | None = 120.0
    per_item: float = 0.0
    backoff: float = 2.0
    max_retries: int = 2

    def __post_init__(self) -> None:
        if self.dispatch_timeout is not None and self.dispatch_timeout <= 0:
            raise ValueError("dispatch_timeout must be positive or None")
        if self.per_item < 0:
            raise ValueError("per_item must be >= 0")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1.0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")

    def timeout_for(self, attempt: int, work_units: int = 1) -> float | None:
        """The deadline of one chunk await: base + per-unit scale, backed off per attempt."""
        if self.dispatch_timeout is None:
            return None
        base = self.dispatch_timeout + self.per_item * max(0, work_units)
        return base * self.backoff**attempt


@dataclass(frozen=True)
class FaultPolicy:
    """The degradation ladder and the per-pool fault budget.

    ``mode`` picks the top rung: ``"recover"`` (the default) respawns and
    re-seeds faulted workers in place, demoting only when the budget runs
    out; ``"degrade_serial"`` skips recovery and drops straight to the
    unsharded chase on the first fault; ``"raise"`` propagates a
    :class:`FanoutFaultError` immediately — no recovery, no fallback — for
    callers that must not mask faults.
    ``max_recoveries`` bounds respawn-and-re-seed cycles over the pool's
    lifetime, so a persistently faulting environment degrades instead of
    thrashing.
    """

    mode: str = "recover"
    max_recoveries: int = 8

    def __post_init__(self) -> None:
        if self.mode not in FAULT_MODES:
            raise ValueError(f"mode must be one of {', '.join(FAULT_MODES)}")
        if self.max_recoveries < 0:
            raise ValueError("max_recoveries must be >= 0")

    @property
    def recovers(self) -> bool:
        return self.mode == "recover"


class FaultCounters:
    """Per-pool observability: how often what failed, and what it cost.

    Exposed as ``<fanout>.supervisor.counters`` and reported by
    :meth:`repro.core.session.LearningSession.fault_stats` — a session that
    recovered from faults says so, in numbers.
    """

    __slots__ = ("faults", "retries", "recoveries", "demotions", "recovery_seconds")

    def __init__(self) -> None:
        self.faults: dict[str, int] = {kind: 0 for kind in FAULT_KINDS}
        self.retries = 0
        self.recoveries = 0
        self.demotions = 0
        self.recovery_seconds = 0.0

    @property
    def total_faults(self) -> int:
        return sum(self.faults.values())

    def record_fault(self, kind: str) -> None:
        self.faults[kind] = self.faults.get(kind, 0) + 1

    def as_dict(self) -> dict[str, Any]:
        return {
            "faults": dict(self.faults),
            "total_faults": self.total_faults,
            "retries": self.retries,
            "recoveries": self.recoveries,
            "demotions": self.demotions,
            "recovery_seconds": self.recovery_seconds,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultCounters({self.as_dict()!r})"


@dataclass(frozen=True)
class WorkerJob:
    """One supervised chunk.

    ``payload`` is what the first attempt ships (it may carry a one-shot
    chaos directive); ``retry_payload`` is the clean payload a *recovered*
    worker gets — after a respawn the worker is seeded with its current
    shards and the full interner snapshot, so the retry carries no delta
    and no shard wires, only the probes.  ``units`` scales the
    deadline.
    """

    worker: int
    payload: tuple
    retry_payload: tuple
    units: int = 1


def classify_fault(error: BaseException) -> str:
    """Map an await-side exception onto the fault taxonomy."""
    if isinstance(error, BrokenProcessPool):
        return "crash"
    if isinstance(error, (FutureTimeout, TimeoutError)):
        return "timeout"
    return "desync"


def terminate_executor(executor: Any) -> None:
    """Hard-stop a (possibly hung or broken) single-worker executor.

    ``shutdown(wait=False)`` alone leaves a hung worker running — and a
    non-daemon worker process blocks interpreter exit — so the worker
    processes are killed first, best-effort through the executor's process
    map.  Safe on executors that are already broken or never spawned.
    """
    processes = getattr(executor, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.kill()
        except (OSError, ValueError):  # pragma: no cover - already dead
            pass
    try:
        executor.shutdown(wait=False, cancel_futures=True)
    except (OSError, RuntimeError):  # pragma: no cover - broken executor
        pass


class PoolSupervisor:
    """Deadline / retry / recovery driver around one fan-out pool's dispatches.

    Owns no processes itself.  The pool supplies two callbacks per run:
    ``submit(worker, payload) -> Future`` and ``recover(worker) -> None``
    (kill, respawn, re-seed from current state).  The supervisor submits
    every job, awaits each under the :class:`DeadlinePolicy`, and on a
    fault warns a :class:`FanoutFault`, recovers the worker, and resubmits
    the job's clean retry payload with a backed-off deadline — until the
    :class:`FaultPolicy` budget or the retry bound says the fault is
    terminal, at which point a :class:`FanoutFaultError` propagates to the
    caller's degradation ladder.  Healthy dispatches are warning-free and
    touch nothing but the timeout argument.
    """

    def __init__(
        self,
        pool_name: str,
        *,
        fault_policy: FaultPolicy | None = None,
        deadline_policy: DeadlinePolicy | None = None,
    ) -> None:
        self.pool_name = pool_name
        self.fault_policy = fault_policy or FaultPolicy()
        self.deadline_policy = deadline_policy or DeadlinePolicy()
        self.counters = FaultCounters()

    # ------------------------------------------------------------------ #
    def run(
        self,
        jobs: Sequence[WorkerJob],
        submit: Callable[[int, tuple], Future],
        recover: Callable[[int], None],
    ) -> list[Any]:
        """Dispatch every job and gather results, recovering faulted workers.

        Results come back in job order.  All first attempts are submitted
        up front (workers run concurrently); awaiting is sequential, which
        is exact for single-worker FIFO executors — a chunk that finishes
        early stays finished while a slower sibling is awaited.
        """
        futures = [self._submit_guarded(submit, job.worker, job.payload) for job in jobs]
        return [
            self._await(job, future, submit, recover) for job, future in zip(jobs, futures)
        ]

    # ------------------------------------------------------------------ #
    def _submit_guarded(
        self, submit: Callable[[int, tuple], Future], worker: int, payload: tuple
    ) -> Future:
        """Submit, folding synchronous submit failures into the await path."""
        try:
            return submit(worker, payload)
        except Exception as error:  # broken pool at submit time
            failed: Future = Future()
            failed.set_exception(error)
            return failed

    def _await(
        self,
        job: WorkerJob,
        future: Future,
        submit: Callable[[int, tuple], Future],
        recover: Callable[[int], None],
    ) -> Any:
        attempt = 0
        while True:
            timeout = self.deadline_policy.timeout_for(attempt, job.units)
            try:
                return future.result(timeout=timeout)
            except Exception as error:
                kind = classify_fault(error)
                self.counters.record_fault(kind)
                attempt += 1
                if (
                    not self.fault_policy.recovers
                    or attempt > self.deadline_policy.max_retries
                    or self.counters.recoveries >= self.fault_policy.max_recoveries
                ):
                    raise FanoutFaultError(
                        f"{self.pool_name} fan-out fault ({kind}) on worker {job.worker} "
                        f"is terminal under FaultPolicy(mode={self.fault_policy.mode!r}, "
                        f"max_recoveries={self.fault_policy.max_recoveries}) "
                        f"after attempt {attempt}: {error!r}",
                        kind=kind,
                        pool=self.pool_name,
                        attempt=attempt,
                    ) from error
                warnings.warn(
                    FanoutFault(
                        f"{self.pool_name} fan-out worker {job.worker} faulted "
                        f"({kind}: {error!r}); respawning and re-seeding it "
                        f"(attempt {attempt})",
                        kind=kind,
                        pool=self.pool_name,
                        attempt=attempt,
                    ),
                    stacklevel=5,
                )
                started = time.perf_counter()
                try:
                    recover(job.worker)
                except Exception as seed_error:
                    self.counters.record_fault("seed-failure")
                    raise FanoutFaultError(
                        f"{self.pool_name} fan-out could not respawn worker "
                        f"{job.worker} after a {kind} fault: {seed_error!r}",
                        kind="seed-failure",
                        pool=self.pool_name,
                        attempt=attempt,
                    ) from seed_error
                self.counters.recoveries += 1
                self.counters.recovery_seconds += time.perf_counter() - started
                self.counters.retries += 1
                future = self._submit_guarded(submit, job.worker, job.retry_payload)
