"""One end-to-end benchmark for DLearn: learning, bulk prediction and read/write serving.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload cv-dirty --seed 1 --seconds 30 --trace 0

``--workload`` is one of ``cv-dirty``, ``predict-bulk`` and ``serve-churn``
(see ``perfbench/README.md``).  The run repeats rounds — each a fresh set-up
followed by the workload's ops — for about ``--seconds`` (``--seconds`` over
the workload's nominal round time, at least three rounds), checks every
output against its oracle and against the first round, and prints as its
last line one JSON object::

    {"correct": true, "attempted": 15, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics; with ``--trace 1``
they are the per-layer metrics of a traced run, whose spans are also written
to ``perfbench/results/``.  Lines before the last one carry host metadata,
the per-seed output digest and sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(ROOT, "perfbench", "results")

#: At least this many rounds per run: medians need three values, and a traced
#: run alternates untraced and traced rounds (untraced, traced, untraced).
MIN_ROUNDS = 3
#: No round starts after this many seconds, whatever ``--seconds`` says, so a
#: run ends well inside three minutes.
HARD_STOP_S = 100.0

END_TO_END = {
    "setup_s": "s",
    "learn_s": "s",
    "f1": "ratio",
    "predict_eps": "examples/s",
    "batch_p50_ms": "ms",
    "batch_p90_ms": "ms",
    "ops_s": "ops/s",
    "peak_rss_mb": "MB",
}


def host_metadata() -> dict:
    import numpy

    from repro.core.fanout import _start_method

    try:
        effective = len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        effective = os.cpu_count() or 1
    return {
        "nproc": os.cpu_count(),
        "effective_cpus": effective,
        "start_method": _start_method(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def steal_seconds() -> float:
    """CPU time the host took from this machine's CPUs so far (Linux ``steal``)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("cv-dirty", "predict-bulk", "serve-churn"))
    parser.add_argument("--seed", type=int, required=True, help="draws the workload's inputs")
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long to measure: sets the number of rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no DLearn sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"error: imported repro from {repro.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    from tracer import COUNT_METRICS, LAYER_METRICS, Tracer
    from workloads import WORKLOADS, end_to_end

    host = host_metadata()
    workload = WORKLOADS[args.workload](args.seed)
    tracer = Tracer() if args.trace else None

    def tag(label: str) -> None:
        if tracer is not None:
            tracer.request = label

    # Each op counts with its fastest time over the rounds, and the fastest of
    # more samples reads lower, so the number of rounds follows from
    # --seconds and the workload's nominal round time, never from how fast
    # the host happens to run.
    rounds_wanted = max(MIN_ROUNDS, round(args.seconds / workload.ROUND_S))
    records = []  # (Round, per-layer metrics or None, span range or None)
    started = time.perf_counter()
    stolen = steal_seconds()
    while True:
        index = len(records)
        # No gc.collect() between rounds: the library's cyclic garbage makes
        # full collections of ~0.1 s, and a forced collection would line them
        # up on the same ops in every round, where per-op statistics cannot
        # tell them from the ops' own cost.  Left alone, they land on
        # different ops from round to round.
        traced = tracer is not None and index % 2 == 1
        if traced:
            first_span = tracer.mark()
            tracer.install()
        try:
            record = workload.run_round(index, tag)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            records.append((record, tracer.metrics(first_span, record.faults), (first_span, tracer.mark())))
        else:
            records.append((record, None, None))
        if len(records) == rounds_wanted or time.perf_counter() - started >= HARD_STOP_S:
            break

    stolen = steal_seconds() - stolen
    rounds = [record for record, _, _ in records]
    problems = [problem for record in rounds for problem in record.problems]
    digests = sorted({record.digest for record in rounds})
    digest = digests[0]
    if len(digests) > 1:
        problems.append(f"rounds disagree on outputs: digests {digests}")
    if any(any(record.faults.values()) for record in rounds):
        problems.append("fan-out faults were recorded")
    attempted = sum(record.attempted for record in rounds)
    failed = sum(record.failed for record in rounds)

    if tracer is None:
        values = end_to_end(rounds)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    else:
        layer_runs = [(layer, spans) for _, layer, spans in records if layer is not None]
        counts = [{name: layer[name] for name in COUNT_METRICS} for layer, _ in layer_runs]
        if any(count != counts[0] for count in counts[1:]):
            problems.append("traced rounds disagree on per-layer counts")
        values = dict(layer_runs[0][0])
        for name, unit in LAYER_METRICS.items():
            if unit == "s":
                values[name] = statistics.median(layer[name] for layer, _ in layer_runs)
        values["trace.overhead_ratio"] = statistics.median(
            record.timed_s for record, layer, _ in records if layer is not None
        ) / statistics.median(record.timed_s for record, layer, _ in records if layer is None)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS.items()}
        span_start, span_end = layer_runs[0][1]
        tracer.write(
            os.path.join(RESULTS, f"{args.workload}-seed{args.seed}.spans.json"),
            span_start,
            span_end,
            {"workload": args.workload, "seed": args.seed, "host": host, "metrics": values},
        )

    write_latencies = [value for record in rounds for value in record.write_latencies]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": host,
        "digest": digest,
        "rounds": len(rounds),
        "predict_samples": sum(len(record.predict_latencies) for record in rounds),
        "op_samples": sum(len(record.op_latencies) for record in rounds),
        "oracle_checks": sum(record.oracle_checks for record in rounds),
        "round_setup_s": [record.setup_s for record in rounds],
        "round_learn_s": [sum(record.learn_samples) / record.learn_units for record in rounds],
        "host_steal_s": stolen,
        "write_p50_ms": statistics.median(write_latencies) * 1000.0 if write_latencies else None,
        "error_rate": failed / attempted if attempted else None,
        "problems": problems,
    }
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print("info " + json.dumps(info, sort_keys=True))
    result = {"correct": not problems and failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
