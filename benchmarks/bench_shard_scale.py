"""Sharded scatter/gather chase at 10x scale: per-depth probe speedup, identity-gated.

PR 8 parallelised coverage *checking*; the frontier chase that feeds it still
resolves every depth's probe sweep on one interpreter.  :mod:`repro.db.sharding`
+ :class:`~repro.core.fanout.SaturationFanout` ship the storage plane instead:
each relation is row-partitioned into K shards over a shared read-only interner
snapshot, shard workers answer each depth's id-frontier probes from their local
indexes, and the parent unions the disjoint per-shard tables — bit-identical to
the unsharded prefetch.

This benchmark climbs an instance-size ladder (the top rung ~10x the largest
cell any other bench touches, with the example batch scaled to match) and per
rung measures two things:

* ``chase``     — steady-state ``relevant_many`` over the full example batch,
  unsharded vs a ``SaturationFanout``-attached chase at each shard count.
  Reported honestly: the chase also pays the non-scattered ``_advance`` work,
  so its end-to-end ratio is Amdahl-bound and **not** gated.
* ``per-depth`` — the scattered phase itself.  The reference chase records
  every depth's real probe payload (relation names, id-frontier, MD equality
  probes); each plane then replays those payloads through ``depth_tables``.
  The serial baseline is the in-process single-shard plane
  (:class:`~repro.core.fanout.SerialShardScatter`), so serial vs process-at-K
  is the same probe work, scattered or not.  This ratio carries the
  ``--min-shard-speedup`` gate.

Every rung asserts the planes are **observationally identical** — equal
gathered depth tables and equal relevant sets (relations, values, similarity
evidence) against the unsharded chase — and the first rung additionally pins
the uncached :func:`repro.testing.oracles.relevant_serial` oracle; the run
fails otherwise.  Rungs above 480 entities run ``exact_match_only`` (the
quadratic similarity-index build would dwarf the run without touching the
scatter plane); the small rungs keep MDs so equality probes cross the
scatter too.

The floor gates the 2-shard per-depth speedup on the largest rung; on hosts
with fewer than two effective cores it is reported but *not* enforced (one
core cannot demonstrate scatter speed-up — the JSON records the honest
``effective_cpus`` so CI trends stay interpretable).

Run it directly (pytest does not collect it):

    PYTHONPATH=src python benchmarks/bench_shard_scale.py                 # full ladder
    PYTHONPATH=src python benchmarks/bench_shard_scale.py --quick --shards 2
    PYTHONPATH=src python benchmarks/bench_shard_scale.py --min-shard-speedup 1.3
    PYTHONPATH=src python benchmarks/bench_shard_scale.py --output BENCH_shard.json
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import sys
import time

if __package__ in (None, ""):  # running as a script: make src/ importable
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from repro.core import DLearnConfig, FrontierChase
from repro.core.fanout import SaturationFanout, SerialShardScatter, _start_method
from repro.data.registry import generate
from repro.data.synthetic import ScenarioSpec
from repro.db.sharding import ShardedInstance
from repro.testing.oracles import relevant_serial

#: The shard count the ``--min-shard-speedup`` gate reads, on the largest rung.
GATE_SHARDS = 2

#: Rungs above this keep the chase but drop similarity MDs: the top-k index
#: build is quadratic in distinct column values and never touches the scatter
#: plane, so carrying it to 10x scale would only measure the index builder.
MAX_MD_ENTITIES = 480


def _effective_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware where supported)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - macOS / Windows
        return os.cpu_count() or 1


def host_metadata(shard_counts: list[int]) -> dict:
    """The host facts a speed-up number is meaningless without."""
    return {
        "cpu_count": os.cpu_count(),
        "effective_cpus": _effective_cpus(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "start_method": _start_method(),
        "shard_counts": shard_counts,
    }


def _scenario(entities: int) -> ScenarioSpec:
    #: The dirtiness mix mirrors the CFD-heavy cells of the other benches;
    #: the example batch scales with the instance so the per-depth union
    #: frontier does too — a fixed batch would only ever reach a sliver of a
    #: 10x instance and the probe sweeps would stay toy-sized.
    return ScenarioSpec(
        n_entities=entities,
        string_variant_intensity=0.5,
        md_drift=0.6,
        cfd_violation_rate=0.15,
        null_rate=0.05,
        duplicate_rate=0.1,
        n_positives=max(12, entities // 4),
        n_negatives=max(24, entities // 2),
        seed=7,
    )


def _shard_ladder(max_shards: int) -> list[int]:
    ladder = [1]
    shards = 2
    while shards <= max_shards:
        ladder.append(shards)
        shards *= 2
    return ladder


def _normalise(results) -> list:
    """The observational record of a ``relevant_many`` batch."""
    return [
        (
            [(t.relation, t.values) for t in relevant.tuples],
            sorted(relevant.similarity_evidence, key=repr),
        )
        for relevant in results
    ]


class _RecordingScatter:
    """A single-shard plane that records every depth's probe payload."""

    def __init__(self, sharded: ShardedInstance):
        self._plane = SerialShardScatter(sharded)
        self.payloads: list[tuple] = []

    def depth_tables(self, names, frontier, equal_probes):
        self.payloads.append((names, frontier, equal_probes))
        return self._plane.depth_tables(names, frontier, equal_probes)

    def close(self) -> None:
        self._plane.close()


class _Rung:
    """One instance-size rung: serial planes vs the process scatter at each K."""

    def __init__(self, entities: int, shard_counts: list[int], gate_oracle: bool):
        self.entities = entities
        self.shard_counts = shard_counts
        self.gate_oracle = gate_oracle
        self.with_mds = entities <= MAX_MD_ENTITIES
        dataset = generate("synthetic", spec=_scenario(entities))
        self.problem = dataset.problem()
        self.examples = list(self.problem.examples.positives) + list(
            self.problem.examples.negatives
        )
        self.rows = sum(len(r) for r in self.problem.database.relations().values())
        config = DLearnConfig(iterations=3, top_k_matches=3, seed=0)
        if self.with_mds:
            self.indexes = self.problem.build_similarity_indexes(
                top_k=config.top_k_matches, threshold=config.similarity_threshold
            )
        else:
            config = config.but(exact_match_only=True)
            self.indexes = {}
        self.config = config

    def _chase(self) -> FrontierChase:
        return FrontierChase(self.problem, self.config, self.indexes)

    def _timed_chase(self, chase: FrontierChase, repetitions: int) -> tuple[float, list]:
        """Warm pass, then min-of-repetitions from a cold saturation cache."""
        record = _normalise(chase.relevant_many(self.examples))
        seconds = float("inf")
        for _ in range(repetitions):
            chase.invalidate()
            started = time.perf_counter()
            results = chase.relevant_many(self.examples)
            seconds = min(seconds, time.perf_counter() - started)
            assert _normalise(results) == record  # repetitions may not drift
        return seconds, record

    def _timed_depths(self, plane, payloads, repetitions: int) -> tuple[float, list]:
        """Replay the recorded depth payloads; min-of-repetitions sweep time."""
        tables = [plane.depth_tables(*payload) for payload in payloads]  # warm
        seconds = float("inf")
        for _ in range(repetitions):
            started = time.perf_counter()
            for payload in payloads:
                plane.depth_tables(*payload)
            seconds = min(seconds, time.perf_counter() - started)
        return seconds, tables

    @staticmethod
    def _answer_rows(tables: list) -> int:
        """Probe answer volume: rows carried back across all depth tables."""
        total = 0
        for membership, equality in tables:
            for per_relation in membership.values():
                total += sum(len(rows) for rows in per_relation.values())
            total += sum(len(rows) for rows in equality.values())
        return total

    def measure(self, repetitions: int) -> dict:
        # Reference chase: unsharded timing, and — through a recording
        # single-shard plane — the real per-depth probe payloads to replay.
        baseline_seconds, baseline_record = self._timed_chase(self._chase(), repetitions)
        recorder = _RecordingScatter(ShardedInstance(self.problem.database, 1))
        recording_chase = self._chase()
        recording_chase.attach_shard_scatter(recorder)
        assert _normalise(recording_chase.relevant_many(self.examples)) == baseline_record
        payloads = recorder.payloads
        recorder.close()

        serial_plane = SerialShardScatter(ShardedInstance(self.problem.database, 1))
        serial_depth_seconds, serial_tables = self._timed_depths(
            serial_plane, payloads, repetitions
        )
        serial_plane.close()
        answer_rows = self._answer_rows(serial_tables)

        cell: dict = {
            "cell": f"entities-{self.entities}",
            "entities": self.entities,
            "rows": self.rows,
            "examples": len(self.examples),
            "with_mds": self.with_mds,
            "depths": len(payloads),
            "depth_answer_rows": answer_rows,
            "unsharded_seconds": round(baseline_seconds, 4),
            "serial_depth_seconds": round(serial_depth_seconds, 4),
        }
        if self.gate_oracle:
            # The uncached per-example oracle pins the whole stack once per
            # run; on the bigger rungs the batched identity check suffices.
            oracle = _normalise(
                [relevant_serial(self._chase(), example) for example in self.examples]
            )
            cell["identical_unsharded_oracle"] = oracle == baseline_record

        for shards in self.shard_counts:
            chase = self._chase()
            scatter = SaturationFanout(ShardedInstance(self.problem.database, shards))
            try:
                scatter.warm()
                chase.attach_shard_scatter(scatter)
                chase_seconds, record = self._timed_chase(chase, repetitions)
                detached = chase._shard_scatter is None  # a fallback would fake the timing
                depth_seconds, tables = self._timed_depths(scatter, payloads, repetitions)
            finally:
                scatter.close()
            cell[f"shards_{shards}_chase_seconds"] = round(chase_seconds, 4)
            cell[f"shards_{shards}_chase_speedup"] = (
                round(baseline_seconds / chase_seconds, 3) if chase_seconds else float("inf")
            )
            cell[f"shards_{shards}_depth_seconds"] = round(depth_seconds, 4)
            cell[f"shards_{shards}_depth_speedup"] = (
                round(serial_depth_seconds / depth_seconds, 3) if depth_seconds else float("inf")
            )
            cell[f"shards_{shards}_answer_rows_per_second_per_worker"] = (
                round(answer_rows / (depth_seconds * shards), 1)
                if depth_seconds
                else float("inf")
            )
            cell[f"identical_shards_{shards}"] = (
                record == baseline_record and tables == serial_tables and not detached
            )
        return cell


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized smoke ladder")
    parser.add_argument("--shards", type=int, default=4,
                        help="largest shard count; the ladder runs 1, 2, 4, ... up to it")
    parser.add_argument("--repetitions", type=int, default=3,
                        help="timing repetitions; the minimum is reported")
    parser.add_argument("--min-shard-speedup", type=float, default=None,
                        help=f"exit non-zero when the {GATE_SHARDS}-shard per-depth speedup on "
                             f"the largest rung falls below this (skipped with <2 effective cores)")
    parser.add_argument("--output", default=None, help="write the results as JSON to this path")
    args = parser.parse_args(argv)

    shard_counts = _shard_ladder(args.shards)
    host = host_metadata(shard_counts)
    print(
        f"host: {host['effective_cpus']}/{host['cpu_count']} cpus, "
        f"start method {host['start_method']}, shard ladder {shard_counts}"
    )
    # The 10x rung (4800 entities ≈ 30k rows — the largest cell elsewhere is
    # 480) rides in both modes: it is cheap without the MD index build, and
    # carrying it in ``--quick`` makes CI itself prove the scale claim.
    entity_ladder = (120, 4800) if args.quick else (480, 1600, 4800)
    header = f"{'cell':<15} {'rows':>7} {'examples':>9} {'depth-ser':>10} " + " ".join(
        f"{f'x{shards}-depth':>10}" for shards in shard_counts
    ) + f" {'chase':>8} {'identical':>10}"
    print(header)
    print("-" * len(header))

    cells = []
    for index, entities in enumerate(entity_ladder):
        rung = _Rung(entities, shard_counts, gate_oracle=index == 0)
        cell = rung.measure(args.repetitions)
        cells.append(cell)
        identical = all(value for key, value in cell.items() if key.startswith("identical_"))
        speedups = " ".join(
            f"{cell[f'shards_{shards}_depth_speedup']:>9.2f}x" for shards in shard_counts
        )
        print(
            f"{cell['cell']:<15} {cell['rows']:>7} {cell['examples']:>9} "
            f"{cell['serial_depth_seconds']:>9.4f}s {speedups} "
            f"{cell['unsharded_seconds']:>7.3f}s {'yes' if identical else 'NO':>10}"
        )

    all_identical = all(
        value for cell in cells for key, value in cell.items() if key.startswith("identical_")
    )
    largest = cells[-1]
    gate_speedup = largest.get(f"shards_{GATE_SHARDS}_depth_speedup", float("inf"))
    throughput = largest.get(f"shards_{GATE_SHARDS}_answer_rows_per_second_per_worker")
    print(f"largest rung rows                   : {largest['rows']}")
    print(f"gate ({GATE_SHARDS}-shard) per-depth speedup  : {gate_speedup:.2f}x")
    if throughput is not None:
        print(f"gate answer rows/sec per worker     : {throughput:.0f}")
    print(f"observationally identical           : {'yes' if all_identical else 'NO'}")

    if args.output:
        payload = {
            "benchmark": "shard_scale",
            "mode": "quick" if args.quick else "full",
            "host": host,
            "cells": cells,
            "gate_shard_speedup": gate_speedup,
            "all_identical": all_identical,
        }
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.output}")

    if not all_identical:
        print("FAIL: the scatter planes disagree with the unsharded chase or the "
              "serial oracle", file=sys.stderr)
        return 1
    if args.min_shard_speedup is not None:
        if host["effective_cpus"] < 2:
            # One core cannot demonstrate scatter speed-up; failing the gate
            # here would only punish the host, not the code.  Loud skip — the
            # JSON still records the honest numbers.
            print(
                f"SKIP: shard-speedup floor {args.min_shard_speedup:.2f}x not enforced — "
                f"only {host['effective_cpus']} effective cpu(s) on this host",
                file=sys.stderr,
            )
        elif gate_speedup < args.min_shard_speedup:
            print(
                f"FAIL: {GATE_SHARDS}-shard per-depth speedup {gate_speedup:.2f}x on "
                f"{largest['cell']} below required {args.min_shard_speedup:.2f}x",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
