"""Deterministic fault injection for the supervised shard worker pool.

The supervision layer (:mod:`repro.core.supervision`) claims that a worker
killed mid-dispatch, a chunk delayed past its deadline, or a dropped
interner delta all recover to bit-identical results.
That claim is only testable if those faults can be *produced* — precisely,
repeatably, at a chosen dispatch.  This module is the producer.

A :class:`ChaosSpec` names the faults by **chunk ordinal**: every payload a
fan-out ships to a worker increments one deterministic counter, and a fault
fires when the counter hits a listed ordinal.  Chunk ordinals are stable
because dispatch construction is deterministic (sorted frontiers, one
payload per shard in shard order) — the same workload faults at the
same chunk every run, under ``fork`` and ``spawn`` alike.  Faults are
one-shot by construction: a recovered worker's retry payload carries no
directive, and the counter never revisits an ordinal.

Gating: the injector is inert unless explicitly constructed — by the chaos
suite through ``DLearnConfig(chaos=ChaosSpec(...))``, or operationally
through the ``REPRO_CHAOS`` environment variable (a JSON object of
:class:`ChaosSpec` fields, consulted at pool construction).  Production
paths never pay more than one ``is None`` check per dispatch.

Fault mechanics (applied parent-side, to the shipped copy only):

* ``kill_at`` — the chunk's payload carries a ``("kill",)`` directive; the
  worker executes ``os.kill(os.getpid(), SIGKILL)`` before touching the
  chunk.  Kill -9 semantics: no cleanup, no exception, a broken pool.
* ``delay_at`` — a ``("delay", seconds)`` directive; the worker sleeps past
  its deadline, exercising the timeout-kill-recover path.
* ``drop_delta_at`` — the chunk's interner flag delta is suppressed after
  the parent's watermark already advanced: the worker's view develops a
  gap and the next reference beyond it fails loudly (``desync``), which
  recovery repairs with a full re-seed.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, fields
from typing import Any

__all__ = ["CHAOS_ENV", "ChaosInjector", "ChaosSpec", "chaos_from_env"]

#: Environment gate: a JSON object of :class:`ChaosSpec` fields.
CHAOS_ENV = "REPRO_CHAOS"


@dataclass(frozen=True)
class ChaosSpec:
    """Which faults fire at which chunk ordinals.

    Hashable (tuple fields only) so it can ride on the frozen
    ``DLearnConfig`` and inside pool memo keys.
    """

    kill_at: tuple[int, ...] = ()
    delay_at: tuple[int, ...] = ()
    delay_seconds: float = 5.0
    drop_delta_at: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for name in ("kill_at", "delay_at", "drop_delta_at"):
            ordinals = getattr(self, name)
            # JSON (the env gate) and hand-written specs may carry lists.
            if not isinstance(ordinals, tuple):
                object.__setattr__(self, name, tuple(ordinals))
            if any(ordinal < 0 for ordinal in getattr(self, name)):
                raise ValueError(f"{name} ordinals must be >= 0")
        if self.delay_seconds <= 0:
            raise ValueError("delay_seconds must be positive")

    @classmethod
    def seeded(
        cls,
        seed: int,
        *,
        kills: int = 1,
        delays: int = 0,
        drops: int = 0,
        horizon: int = 8,
        delay_seconds: float = 5.0,
    ) -> "ChaosSpec":
        """Derive fault ordinals deterministically from *seed*.

        Samples disjoint ordinals in ``[0, horizon)`` — the same seed always
        yields the same spec, so a seeded chaos run is exactly reproducible.
        """
        total = kills + delays + drops
        if total > horizon:
            raise ValueError("horizon too small for the requested fault count")
        ordinals = random.Random(seed).sample(range(horizon), total)
        return cls(
            kill_at=tuple(sorted(ordinals[:kills])),
            delay_at=tuple(sorted(ordinals[kills : kills + delays])),
            drop_delta_at=tuple(sorted(ordinals[kills + delays :])),
            delay_seconds=delay_seconds,
        )

    @property
    def empty(self) -> bool:
        return not (self.kill_at or self.delay_at or self.drop_delta_at)


@dataclass(frozen=True)
class ChunkFaults:
    """The injection decision for one shipped chunk."""

    directive: tuple | None = None  # ("kill",) or ("delay", seconds), rides in the payload
    drop_delta: bool = False

    @property
    def any(self) -> bool:
        return self.directive is not None or self.drop_delta


class ChaosInjector:
    """One pool's chunk counter plus the event log of every fault fired.

    Each fan-out pool owns its own injector (separate counters), built from
    a shared :class:`ChaosSpec`.  Not thread-safe — it is driven from the
    pool's dispatch path, which is single-threaded by the fan-outs'
    documented contract.
    """

    def __init__(self, spec: ChaosSpec) -> None:
        self.spec = spec
        self.events: list[tuple[str, int]] = []
        self._chunks = 0

    # ------------------------------------------------------------------ #
    def chunk_faults(self) -> ChunkFaults:
        """Advance the chunk counter and decide this chunk's faults.

        Called once per shipped payload, in dispatch construction order.
        Recovery retries never come back through here, so every listed
        ordinal fires at most once.
        """
        ordinal = self._chunks
        self._chunks += 1
        directive: tuple | None = None
        if ordinal in self.spec.kill_at:
            directive = ("kill",)
            self.events.append(("kill", ordinal))
        elif ordinal in self.spec.delay_at:
            directive = ("delay", self.spec.delay_seconds)
            self.events.append(("delay", ordinal))
        drop = ordinal in self.spec.drop_delta_at
        if drop:
            self.events.append(("drop-delta", ordinal))
        return ChunkFaults(directive=directive, drop_delta=drop)

    @property
    def chunks_seen(self) -> int:
        return self._chunks

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ChaosInjector({self._chunks} chunks, events={self.events!r})"


def chaos_from_env(environ: Any | None = None) -> ChaosInjector | None:
    """The env-gated injector: ``None`` unless ``REPRO_CHAOS`` holds a spec.

    The variable carries a JSON object of :class:`ChaosSpec` fields, e.g.
    ``REPRO_CHAOS='{"kill_at": [1], "delay_seconds": 3.0}'``.  Unknown keys
    and malformed JSON raise — a mistyped chaos gate must not silently run
    fault-free.
    """
    raw = (environ if environ is not None else os.environ).get(CHAOS_ENV)
    if not raw:
        return None
    payload = json.loads(raw)
    known = {spec_field.name for spec_field in fields(ChaosSpec)}
    unknown = set(payload) - known
    if unknown:
        raise ValueError(f"unknown {CHAOS_ENV} keys: {', '.join(sorted(unknown))}")
    return ChaosInjector(ChaosSpec(**payload))
