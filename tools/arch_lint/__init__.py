"""Architectural lint engine: the repo's invariants as executable AST rules.

PRs 4-5 moved the system onto a dense-integer plane (value ids in the
storage core, term ids in the compiled subsumption engine) and onto
sessions that share state across folds and predictions.  The bug classes
that now threaten
correctness are exactly the ones a test suite cannot exhaustively catch:

* **id/value mixing** — passing a decoded value where a dense id is
  expected (or vice versa) silently misses every id-keyed probe;
* **nondeterministic iteration** — set iteration order feeding an
  ordering-sensitive structure makes learned definitions run-dependent;
* **unsynchronized shared-state writes** — session objects are shared
  across sessions, so post-``__init__`` writes outside a lock are data
  races as soon as two threads drive them;
* **cache hygiene** — mutable default arguments and identity-keyed or
  unhashable cache keys corrupt the memoisation layers.

Each invariant is a registered :class:`~tools.arch_lint.rules.base.Rule`
(see :mod:`tools.arch_lint.rules`); the engine walks files, applies rules
according to per-rule path scopes from ``config.toml``, honours inline
``# arch-lint: disable=RULE`` suppressions, and diffs the surviving
violations against the recorded baseline (``baseline.txt``).

Run it exactly as CI does::

    PYTHONPATH=src python -m tools.arch_lint src tests

See ``README.md`` ("Static analysis") for the local workflow and
``tools/arch_lint/config.toml`` for rule scopes and allowlists.
"""

from .baseline import Baseline, BaselineError
from .config import LintConfig, load_config
from .engine import LintEngine, Violation
from .rules import all_rules

__all__ = [
    "Baseline",
    "BaselineError",
    "LintConfig",
    "LintEngine",
    "Violation",
    "all_rules",
    "load_config",
]
