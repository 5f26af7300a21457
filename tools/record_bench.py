"""Record the per-PR benchmark trajectory as in-repo BENCH files.

The CI smoke runs emit ``BENCH_*.json`` records but only keep them as build
artifacts, so the repository itself carries no perf trajectory — a PR that
slows a benchmark down leaves no diff to review.  This tool closes that gap:
it runs every registered benchmark in its CI (``--quick``) shape, writes the
canonical record to ``benchmarks/records/BENCH_<name>.json``, and prints how
each numeric headline moved against the record committed at ``HEAD``.

The comparison is informational by default (timings move with the host; the
benchmarks' own identity/floor gates are what CI enforces).  ``--check``
turns any *gate regression* — a benchmark exiting non-zero — into a non-zero
exit from this tool as well.

Usage:

    PYTHONPATH=src python tools/record_bench.py                 # run + record all
    PYTHONPATH=src python tools/record_bench.py shard           # one benchmark
    PYTHONPATH=src python tools/record_bench.py --compare-only  # diff without running
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORDS_DIR = os.path.join("benchmarks", "records")

#: name → benchmark script (run with ``--quick --output <record>``).
BENCHMARKS: dict[str, str] = {
    "saturation": "benchmarks/bench_saturation_batch.py",
    "storage": "benchmarks/bench_storage_intern.py",
    "subsumption": "benchmarks/bench_subsumption_compiled.py",
    "shard": "benchmarks/bench_shard_scale.py",
}

#: Benchmarks whose headline numbers are parallel speed-ups: their records
#: carry an explicit core count and a loud annotation when measured on a
#: host that cannot demonstrate parallelism.
PARALLEL_BENCHMARKS = ("shard",)


def _host_metadata() -> dict:
    """Host facts stamped into every record — timings are host-relative."""
    try:
        effective = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - macOS / Windows
        effective = os.cpu_count() or 1
    return {
        "cpu_count": os.cpu_count(),
        "effective_cpus": effective,
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def record_path(name: str) -> str:
    return os.path.join(RECORDS_DIR, f"BENCH_{name}.json")


def _flatten(value, prefix: str = "") -> dict[str, float]:
    """Numeric leaves of a JSON payload as ``dotted.path → value``."""
    leaves: dict[str, float] = {}
    if isinstance(value, dict):
        for key, child in value.items():
            leaves.update(_flatten(child, f"{prefix}{key}."))
    elif isinstance(value, list):
        for index, child in enumerate(value):
            label = child.get("cell", index) if isinstance(child, dict) else index
            leaves.update(_flatten(child, f"{prefix}{label}."))
    elif isinstance(value, bool):
        leaves[prefix.rstrip(".")] = float(value)
    elif isinstance(value, (int, float)):
        leaves[prefix.rstrip(".")] = float(value)
    return leaves


def _previous_record(path: str) -> dict | None:
    """The record as committed at HEAD, or None when HEAD has no record."""
    shown = subprocess.run(
        ["git", "show", f"HEAD:{path.replace(os.sep, '/')}"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    if shown.returncode != 0:
        return None
    try:
        return json.loads(shown.stdout)
    except json.JSONDecodeError:
        return None


def compare(name: str, fresh: dict, previous: dict | None) -> None:
    if previous is None:
        print(f"  {name}: no record at HEAD — first recording")
        return
    old_leaves = _flatten(previous)
    new_leaves = _flatten(fresh)
    moved = []
    for key in sorted(old_leaves.keys() & new_leaves.keys()):
        old, new = old_leaves[key], new_leaves[key]
        if old != new:
            moved.append((key, old, new))
    for key in sorted(new_leaves.keys() - old_leaves.keys()):
        moved.append((key, float("nan"), new_leaves[key]))
    if not moved:
        print(f"  {name}: unchanged against HEAD")
        return
    print(f"  {name}: {len(moved)} metrics moved against HEAD")
    for key, old, new in moved:
        ratio = f" ({new / old:.2f}x)" if old == old and old else ""
        print(f"    {key:<58} {old:>10.4g} -> {new:<10.4g}{ratio}")


def run_benchmark(name: str, script: str) -> int:
    """Run one benchmark, writing its canonical record; returns its exit code."""
    path = record_path(name)
    os.makedirs(os.path.join(REPO_ROOT, RECORDS_DIR), exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (os.path.join(REPO_ROOT, "src"), env.get("PYTHONPATH")) if part
    )
    completed = subprocess.run(
        [sys.executable, script, "--quick", "--output", path],
        cwd=REPO_ROOT,
        env=env,
    )
    full_path = os.path.join(REPO_ROOT, path)
    if os.path.exists(full_path):
        # Stamp host metadata into every record: a committed timing is only
        # reviewable next to the cpu/platform it was measured on.  Fields a
        # benchmark already recorded itself (jobs, start_method) win.
        with open(full_path, encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["host"] = {**_host_metadata(), **payload.get("host", {})}
        if name in PARALLEL_BENCHMARKS:
            # A committed speed-up is only reviewable next to the cores it
            # had to work with; sub-1x results from a core-starved host are
            # annotated so the trajectory is never silently "regressed" by
            # the container the recording ran on.
            effective = payload["host"].get("effective_cpus") or 1
            payload["effective_cores"] = effective
            sub_unit = sorted(
                key
                for key, value in _flatten(payload).items()
                if key.endswith("speedup") and value < 1.0
            )
            if effective < 2 and sub_unit:
                payload["core_limited_note"] = (
                    f"recorded on a host with {effective} effective core(s): "
                    f"sub-1x speedups ({', '.join(sub_unit)}) reflect the "
                    f"missing cores, not a code regression"
                )
                print(f"  note: {name} record is core-limited ({effective} effective core(s))")
        with open(full_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return completed.returncode


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", metavar="name",
                        help=f"benchmarks to record (default: all of {', '.join(BENCHMARKS)})")
    parser.add_argument("--compare-only", action="store_true",
                        help="diff the existing records against HEAD without running")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero when any benchmark's own gates fail")
    args = parser.parse_args(argv)

    names = args.names or list(BENCHMARKS)
    unknown = [name for name in names if name not in BENCHMARKS]
    if unknown:
        parser.error(f"unknown benchmark(s) {', '.join(unknown)}; choose from {', '.join(BENCHMARKS)}")
    failures = []
    for name in names:
        path = record_path(name)
        previous = _previous_record(path)
        if not args.compare_only:
            print(f"recording {name} ({BENCHMARKS[name]}) ...")
            if run_benchmark(name, BENCHMARKS[name]) != 0:
                failures.append(name)
        full_path = os.path.join(REPO_ROOT, path)
        if not os.path.exists(full_path):
            print(f"  {name}: no record at {path}")
            continue
        with open(full_path, encoding="utf-8") as handle:
            fresh = json.load(handle)
        compare(name, fresh, previous)

    if failures:
        print(f"benchmark gates failed: {', '.join(failures)}", file=sys.stderr)
        return 1 if args.check else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
