"""GIL-free process fan-out vs thread and serial coverage, verdict-identical.

PR 7's vectorised compute plane made individual coverage checks cheap, but a
``covered_counts`` sweep over many candidate clauses still runs its
θ-subsumption searches on one interpreter: the thread backend fans out, yet
Python-level search work contends on the GIL and the wall-clock barely moves
with cores.  :mod:`repro.core.fanout` ships the *compiled integer plane*
instead — workers are seeded once with a read-only
:class:`~repro.logic.compiled.TermInterner` snapshot, compiled clause forms
travel as flat int tuples, and later dispatches carry only interner deltas
plus chunked example-id work lists, so the NP-hard matching loops run truly
in parallel.

This benchmark pits ``DLearnConfig.parallel_backend`` ``"process"`` against
``"thread"`` and ``"serial"`` (the reference oracle) on the CFD-heavy
synthetic cells of the dirty-scenario grid:

* ``covered``  — the gated phase: steady-state ``covered_counts`` over every
  candidate clause after a warm pass (compilation amortised, wires shipped,
  verdict cache reset), the covering loop's inner hot path.
* ``fit``      — the covering-loop fit plus test-set prediction, exercising
  the session-level pool sharing.

The three backends must be **observationally identical**: equal coverage
verdicts and covered counts, equal retained-literal lists, byte-identical
learned definitions and equal predictions — the run fails otherwise.  The
``--min-process-speedup`` floor gates the process/serial ``covered`` ratio on
the canonical cell; on hosts with fewer than two effective cores the floor is
reported but *not* enforced (a single core cannot demonstrate parallel
speed-up — the JSON records the honest ``effective_cpus`` so CI trends stay
interpretable).  Results are printed and, with ``--output``, written as JSON
(``BENCH_parallel.json``) so CI can record the perf trajectory.

Run it directly (pytest does not collect it):

    PYTHONPATH=src python benchmarks/bench_parallel_fanout.py              # full grid, 4 workers
    PYTHONPATH=src python benchmarks/bench_parallel_fanout.py --quick --jobs 2
    PYTHONPATH=src python benchmarks/bench_parallel_fanout.py --min-process-speedup 1.8
    PYTHONPATH=src python benchmarks/bench_parallel_fanout.py --output BENCH_parallel.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

if __package__ in (None, ""):  # running as a script: make src/ importable
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from repro.core import DLearn, DLearnConfig, DatabasePreparation
from repro.core.fanout import _start_method
from repro.data.registry import generate
from repro.data.synthetic import ScenarioSpec
from repro.evaluation.cross_validation import train_test_split
from repro.logic import HornClause
from repro.logic.subsumption import SubsumptionChecker

BACKENDS = ("serial", "thread", "process")

#: Step budget of the retained identity probe — small enough that a doomed
#: retry exhausts it quickly, large enough that every satisfiable search
#: completes.
RETAINED_BUDGET = 5_000

#: The cell the ``--min-process-speedup`` gate reads: the canonical CFD-heavy
#: cell, carried in both the quick and the full grid.
GATE_CELL = "cfd-heavy-80"


def _effective_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware where supported)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - macOS / Windows
        return os.cpu_count() or 1


def host_metadata(jobs: int) -> dict:
    """The host facts a speed-up number is meaningless without."""
    return {
        "cpu_count": os.cpu_count(),
        "effective_cpus": _effective_cpus(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "start_method": _start_method(),
        "jobs": jobs,
    }


def _cfd_heavy_config() -> DLearnConfig:
    return DLearnConfig(
        iterations=3,
        sample_size=8,
        top_k_matches=3,
        generalization_sample=4,
        max_clauses=4,
        min_clause_positive_coverage=2,
        min_clause_precision=0.55,
        seed=0,
    )


def _grid(quick: bool) -> list[tuple[str, object, DLearnConfig]]:
    #: CFD-heavy cells: the high violation rate and MD drift make individual
    #: subsumption searches expensive enough that per-example parallelism
    #: has real work to split.
    cfd_heavy = dict(
        string_variant_intensity=0.6,
        md_drift=0.7,
        cfd_violation_rate=0.25,
        null_rate=0.05,
        duplicate_rate=0.1,
        n_positives=10,
        n_negatives=20,
        seed=7,
    )
    cells: list[tuple[str, object, DLearnConfig]] = []
    for entities in (80,) if quick else (80, 120):
        cells.append(
            (
                f"cfd-heavy-{entities}",
                generate("synthetic", spec=ScenarioSpec(n_entities=entities, **cfd_heavy)),
                _cfd_heavy_config(),
            )
        )
    return cells


def _backend_config(config: DLearnConfig, backend: str, jobs: int) -> DLearnConfig:
    return config.but(parallel_backend=backend, n_jobs=1 if backend == "serial" else jobs)


def _candidate_clauses(session, positives, n_seeds: int = 3) -> list[HornClause]:
    """Full bottom clauses plus ARMG-like prefix truncations of them."""
    candidates: list[HornClause] = []
    seen: set[HornClause] = set()
    for seed_example in positives[:n_seeds]:
        bottom = session.builder.build(seed_example, ground=False)
        for keep in (1.0, 0.6, 0.35, 0.2):
            candidate = (
                HornClause(bottom.head, bottom.body[: max(1, int(len(bottom.body) * keep))])
                .prune_disconnected()
                .prune_dangling_restrictions()
            )
            if candidate.body and candidate not in seen:
                seen.add(candidate)
                candidates.append(candidate)
    return candidates


class _Cell:
    """One workload cell, measured once per backend."""

    def __init__(self, label: str, dataset, config: DLearnConfig, jobs: int):
        self.label = label
        self.dataset = dataset
        self.config = config
        self.jobs = jobs
        self.train, test = train_test_split(dataset.examples, test_fraction=0.25, seed=0)
        self.test_examples = test.all()
        self._preparations = {
            backend: DatabasePreparation.from_problem(dataset.problem()) for backend in BACKENDS
        }

    def _session(self, backend: str, examples=None):
        problem = self.dataset.problem(examples=examples) if examples is not None else self.dataset.problem()
        config = _backend_config(self.config, backend, self.jobs)
        return DLearn(config).session(problem, preparation=self._preparations[backend])

    # ------------------------------------------------------------------ #
    def run_once(self) -> dict[str, dict]:
        results: dict[str, dict] = {}
        for backend in BACKENDS:
            session = self._session(backend)
            engine = session.engine
            positives = list(session.problem.examples.positives)
            negatives = list(session.problem.examples.negatives)
            examples = positives + negatives
            session.warm_saturation(examples)
            candidates = _candidate_clauses(session, positives)

            # Warm pass: compiles every clause, builds every ground form and
            # — on the process backend — spawns the pool and ships the wires.
            # Its verdicts are the identity record.
            verdicts = [tuple(engine.batch_covers(candidate, examples)) for candidate in candidates]

            # Gated phase: steady-state covered_counts with a cold verdict
            # cache.  Prepared/compiled forms (and shipped wires) stay warm,
            # so the timing isolates proving + dispatch — the cost the
            # covering loop pays on every new candidate clause.
            engine.reset_verdicts()
            started = time.perf_counter()
            counts = [engine.covered_counts(candidate, positives, negatives) for candidate in candidates]
            covered_seconds = time.perf_counter() - started

            # Retained identity probe (budget-bound, backend-independent by
            # construction — asserting it stays cheap and keeps the identity
            # record complete).
            checker = SubsumptionChecker(
                compiler=session.preparation.compiler, max_steps=RETAINED_BUDGET
            )
            grounds = engine.prepared_grounds(examples)
            retained = [
                [str(lit) for lit in checker.retained_generalization(candidate, ground)]
                for candidate in candidates[:4]
                for ground in grounds[: min(len(grounds), 4)]
            ]

            fit_session = self._session(backend, examples=self.train)
            fit_session.warm_saturation(self.train.all())
            started = time.perf_counter()
            model = DLearn(_backend_config(self.config, backend, self.jobs)).fit(
                fit_session.problem, session=fit_session
            )
            predictions = model.predict(self.test_examples)
            fit_seconds = time.perf_counter() - started

            results[backend] = {
                "covered_seconds": covered_seconds,
                "fit_seconds": fit_seconds,
                "verdicts": verdicts,
                "counts": counts,
                "retained": retained,
                "definition": [str(clause) for clause in model.clauses],
                "predictions": predictions,
                "candidates": len(candidates),
                "examples": len(examples),
            }
        return results

    def measure(self, repetitions: int) -> dict:
        results: dict[str, dict] = {}
        try:
            for _ in range(repetitions):
                attempt = self.run_once()
                for backend, outcome in attempt.items():
                    kept = results.get(backend)
                    if kept is None:
                        results[backend] = outcome
                    else:
                        for phase in ("covered_seconds", "fit_seconds"):
                            kept[phase] = min(kept[phase], outcome[phase])
        finally:
            for preparation in self._preparations.values():
                preparation.close()

        serial = results["serial"]
        identical = {}
        for backend in ("thread", "process"):
            for key in ("verdicts", "counts", "retained", "definition", "predictions"):
                identical[f"{backend}_{key}"] = serial[key] == results[backend][key]
        cell = {
            "cell": self.label,
            "candidates": serial["candidates"],
            "examples": serial["examples"],
            "clauses": len(serial["definition"]),
            **{f"identical_{key}": value for key, value in identical.items()},
        }
        for backend in ("thread", "process"):
            for phase in ("covered", "fit"):
                serial_s = serial[f"{phase}_seconds"]
                backend_s = results[backend][f"{phase}_seconds"]
                cell[f"{backend}_{phase}_speedup"] = (
                    round(serial_s / backend_s, 3) if backend_s else float("inf")
                )
        for backend in BACKENDS:
            cell[backend] = {
                f"{phase}_seconds": round(results[backend][f"{phase}_seconds"], 4)
                for phase in ("covered", "fit")
            }
        return cell


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized smoke run")
    parser.add_argument("--jobs", type=int, default=4, help="workers for the thread and process backends")
    parser.add_argument("--repetitions", type=int, default=2,
                        help="timing repetitions; the minimum is reported")
    parser.add_argument("--min-process-speedup", type=float, default=None,
                        help=f"exit non-zero when the process/serial covered_counts speedup on "
                             f"{GATE_CELL} falls below this (skipped with <2 effective cores)")
    parser.add_argument("--output", default=None, help="write the results as JSON to this path")
    args = parser.parse_args(argv)

    host = host_metadata(args.jobs)
    print(
        f"host: {host['effective_cpus']}/{host['cpu_count']} cpus, "
        f"start method {host['start_method']}, {args.jobs} workers"
    )
    header = (
        f"{'cell':<16} {'cands':>6} {'examples':>9} {'thread_x':>9} {'process_x':>10} "
        f"{'fit_x':>7} {'identical':>10}"
    )
    print(header)
    print("-" * len(header))
    cells = []
    for label, dataset, config in _grid(args.quick):
        cell = _Cell(label, dataset, config, args.jobs).measure(args.repetitions)
        cells.append(cell)
        identical = all(value for key, value in cell.items() if key.startswith("identical_"))
        print(
            f"{cell['cell']:<16} {cell['candidates']:>6} {cell['examples']:>9} "
            f"{cell['thread_covered_speedup']:>8.2f}x {cell['process_covered_speedup']:>9.2f}x "
            f"{cell['process_fit_speedup']:>6.2f}x {'yes' if identical else 'NO':>10}"
        )

    aggregates = {}
    for backend in ("thread", "process"):
        for phase in ("covered", "fit"):
            serial_s = sum(cell["serial"][f"{phase}_seconds"] for cell in cells)
            backend_s = sum(cell[backend][f"{phase}_seconds"] for cell in cells)
            aggregates[f"{backend}_{phase}_speedup"] = (
                round(serial_s / backend_s, 3) if backend_s else float("inf")
            )
    all_identical = all(
        value for cell in cells for key, value in cell.items() if key.startswith("identical_")
    )
    gate_cells = [cell for cell in cells if cell["cell"] == GATE_CELL]
    gate_speedup = min((cell["process_covered_speedup"] for cell in gate_cells), default=float("inf"))
    print(f"aggregate thread covered speedup : {aggregates['thread_covered_speedup']:.2f}x")
    print(f"aggregate process covered speedup: {aggregates['process_covered_speedup']:.2f}x")
    print(f"aggregate process fit speedup    : {aggregates['process_fit_speedup']:.2f}x")
    print(f"gate-cell process speedup        : {gate_speedup:.2f}x")
    print(f"observationally identical        : {'yes' if all_identical else 'NO'}")

    if args.output:
        payload = {
            "benchmark": "parallel_fanout",
            "mode": "quick" if args.quick else "full",
            "host": host,
            "cells": cells,
            **{f"aggregate_{key}": value for key, value in aggregates.items()},
            "gate_process_speedup": gate_speedup,
            "all_identical": all_identical,
        }
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.output}")

    if not all_identical:
        print("FAIL: backends disagree on verdicts, counts, retained lists, definitions "
              "or predictions", file=sys.stderr)
        return 1
    if args.min_process_speedup is not None:
        if host["effective_cpus"] < 2:
            # A single core cannot demonstrate parallel speed-up; failing the
            # gate here would only punish the host, not the code.  Loud skip —
            # the JSON still records the honest numbers.
            print(
                f"SKIP: process-speedup floor {args.min_process_speedup:.2f}x not enforced — "
                f"only {host['effective_cpus']} effective cpu(s) on this host",
                file=sys.stderr,
            )
        elif gate_speedup < args.min_process_speedup:
            print(
                f"FAIL: process covered_counts speedup {gate_speedup:.2f}x on {GATE_CELL} "
                f"below required {args.min_process_speedup:.2f}x",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
