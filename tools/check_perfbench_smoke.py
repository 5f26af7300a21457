"""CI guard that the end-to-end benchmark still computes the same answers.

Runs a short seed-1 ``perfbench/run.py`` of each pinned workload and fails
unless the run reports ``"correct": true`` and its output digest (a hash of
the learned definitions and predictions, on the ``info`` line) equals the
pinned one.  Timings are not checked.

Usage:

    python3 tools/check_perfbench_smoke.py              # every pinned workload
    python3 tools/check_perfbench_smoke.py cv-dirty     # the named workloads
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

#: Seed-1 output digests of the workloads.
PINNED = {
    "cv-dirty": "5103bf043296f444",
    "predict-bulk": "5f7449ffdf2d143d",
    "serve-churn": "bf33120218516d5c",
}


def check(workload: str) -> list[str]:
    """Run one short benchmark of *workload*; the problems found (empty when it passes)."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "5"]
    run = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = run.stdout.splitlines()
    info = [line for line in lines if line.startswith("info ")]
    if run.returncode != 0 or not lines or not info:
        return [f"run exited with {run.returncode}:\n{run.stdout}{run.stderr}"]
    problems = []
    if json.loads(lines[-1]).get("correct") is not True:
        problems.append(f"not correct: {lines[-1]}")
    digest = json.loads(info[-1][len("info "):]).get("digest")
    if digest != PINNED[workload]:
        problems.append(f"digest {digest}, pinned {PINNED[workload]}")
    return problems


def main(argv: list[str]) -> int:
    failed = False
    for workload in argv or sorted(PINNED):
        problems = check(workload)
        print(f"{workload}: {'ok' if not problems else 'FAIL'}")
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
