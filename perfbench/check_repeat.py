"""Check that traced runs of one seed repeat their per-layer counts and outputs exactly.

Runs ``perfbench/run.py --trace 1`` three times per workload and seed: twice
under ``PYTHONHASHSEED=0`` and once under ``PYTHONHASHSEED=1``.  All three
must report identical per-layer counts (every count metric and the ratios
derived from counts) and the identical output digest — a cheap end-to-end
check that no result depends on set or dict hash order (the DT01 determinism
rule of ``tools/arch_lint``).  Run from the root of a checkout:

    python3 perfbench/check_repeat.py --seconds 5                      # every workload
    python3 perfbench/check_repeat.py --workload serve-churn --seed 3

Exits 1, naming what differed, when any run disagrees or reports an error.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cv-dirty", "predict-bulk", "serve-churn")
HASH_SEEDS = ("0", "0", "1")


def traced_run(workload: str, seed: int, seconds: float, hash_seed: str) -> tuple[str, dict, bool]:
    """Digest, exact-count metrics and correctness of one traced run."""
    command = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "1",
    ]
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    completed = subprocess.run(command, capture_output=True, text=True, env=env, timeout=600, check=True)
    lines = completed.stdout.strip().splitlines()
    info = json.loads(next(line for line in lines if line.startswith("info "))[len("info "):])
    result = json.loads(lines[-1])
    counts = {
        name: metric["value"]
        for name, metric in result["metrics"].items()
        if metric["unit"] != "s" and name != "trace.overhead_ratio"
    }
    return info["digest"], counts, result["correct"] and result["failed"] == 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append",
                        help="workload to check (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5.0)
    args = parser.parse_args(argv)

    ok = True
    for workload in args.workload or WORKLOADS:
        runs = [traced_run(workload, args.seed, args.seconds, hash_seed) for hash_seed in HASH_SEEDS]
        digest, counts, _ = runs[0]
        differing = sorted(
            {name for _, other, _ in runs[1:] for name in counts if other.get(name) != counts[name]}
        )
        digests = [run[0] for run in runs]
        failed = [hash_seed for hash_seed, run in zip(HASH_SEEDS, runs) if not run[2]]
        same = not differing and len(set(digests)) == 1 and not failed
        ok = ok and same
        print(f"{workload:13s} seed {args.seed}: {'repeats' if same else 'DIFFERS'} "
              f"(digests {digests}, PYTHONHASHSEED {list(HASH_SEEDS)})")
        for name in differing:
            print(f"  {name}: {[run[1].get(name) for run in runs]}")
        if failed:
            print(f"  runs under PYTHONHASHSEED {failed} reported errors")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
