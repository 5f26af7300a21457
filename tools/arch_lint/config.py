"""Lint configuration: engine excludes plus per-rule scopes and allowlists.

Defaults are encoded here so the engine runs without any config file; the
checked-in ``tools/arch_lint/config.toml`` overrides them per key.  Path
patterns are :mod:`fnmatch` globs matched against repo-relative POSIX paths
(note that ``*`` crosses ``/`` under fnmatch, so ``src/repro/db/*`` covers
the whole subtree).
"""

from __future__ import annotations

import fnmatch
import os
import tomllib
from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = ["LintConfig", "RuleConfig", "load_config", "DEFAULT_CONFIG_PATH"]

DEFAULT_CONFIG_PATH = os.path.join(os.path.dirname(__file__), "config.toml")


def _match_any(path: str, patterns: tuple[str, ...]) -> bool:
    return any(fnmatch.fnmatch(path, pattern) for pattern in patterns)


@dataclass(frozen=True)
class RuleConfig:
    """One rule's scope and options.

    ``paths`` scopes the rule (empty tuple = everywhere the engine scans);
    ``options`` carries rule-specific settings (class lists, name patterns,
    per-class method allowlists) exactly as written in the TOML table.
    """

    rule_id: str
    enabled: bool = True
    paths: tuple[str, ...] = ()
    options: Mapping[str, Any] = field(default_factory=dict)

    def applies_to(self, relpath: str) -> bool:
        if not self.enabled:
            return False
        if not self.paths:
            return True
        return _match_any(relpath, self.paths)

    def option(self, name: str, default: Any = None) -> Any:
        return self.options.get(name, default)


#: Modules gated by the typed id-plane (ID01/ID02): the storage core and the
#: compiled subsumption engine, where every id is a ``ValueId`` / ``TermId``.
_ID_PLANE_PATHS = ("src/repro/db/*", "src/repro/logic/compiled.py")

#: Learning / evaluation modules whose outputs (clauses, definitions,
#: metrics, reports) are ordering-sensitive: set iteration feeding an ordered
#: structure here makes learned definitions depend on hash seeds.
_DETERMINISM_PATHS = (
    "src/repro/core/*",
    "src/repro/evaluation/*",
    "src/repro/logic/*",
    "src/repro/constraints/*",
    "src/repro/similarity/*",
    "src/repro/baselines/*",
    "src/repro/db/*",
)

#: Names of methods that conventionally return sets/frozensets in this repo;
#: the determinism rule treats their call results as set-typed.
_SET_RETURNING = (
    "rows_with_id",
    "rows_with_value",
    "rows_for",
    "rows_for_any",
    "rows_with_ids",
    "distinct_values",
    "occurrences",
    "repair_literals_connected_to",
)

#: Session-scoped classes shared across folds and prediction sessions (and
#: so across any threads that drive them): attribute/container writes
#: outside ``__init__`` must be lock-guarded or explicitly allowlisted.
_SHARED_CLASSES = (
    "CoverageEngine",
    "LearningSession",
    "SubsumptionChecker",
    "ClauseCompiler",
    "TermInterner",
    "DatabasePreparation",
    "_MdIndexCache",
    "SaturationCache",
    "DatabaseProbeCache",
)

_DEFAULT_RULES: dict[str, dict[str, Any]] = {
    "ID01": {"paths": list(_ID_PLANE_PATHS)},
    "ID02": {"paths": ["src/*", "tools/*"], "options": {
        "decoders": ["value_of", "decode_many", "term_of"],
        "consumers": ["rows_for", "rows_for_many", "rows_for_any", "id_frequency"],
    }},
    "DT01": {"paths": list(_DETERMINISM_PATHS), "options": {
        "set_returning_names": list(_SET_RETURNING),
        "include_dict_iteration": False,
    }},
    "TS01": {"paths": ["src/*"], "options": {
        "classes": list(_SHARED_CLASSES),
        "lock_names": ["_lock", "_verdict_lock", "_cache_lock", "lock"],
        "init_methods": ["__init__", "__post_init__"],
        "allow": {},
    }},
    "PF01": {"paths": ["src/*", "tools/*", "benchmarks/*"], "options": {
        "executor_factories": ["ProcessPoolExecutor"],
        "lock_names": ["_lock", "_verdict_lock", "_cache_lock", "lock"],
    }},
    "FT01": {"paths": ["src/repro/core/*", "src/repro/db/*"], "options": {
        "methods": ["result"],
    }},
    "CH01": {"paths": ["src/*", "tools/*", "tests/*", "benchmarks/*", "examples/*"]},
    "CH02": {"paths": ["src/repro/core/*", "src/repro/logic/*", "src/repro/similarity/*", "src/repro/db/*"], "options": {
        "cache_name_pattern": "cache",
    }},
}


@dataclass(frozen=True)
class LintConfig:
    """Engine-level excludes plus the per-rule :class:`RuleConfig` table."""

    exclude: tuple[str, ...] = ("tests/tools/fixtures/*",)
    rules: Mapping[str, RuleConfig] = field(default_factory=dict)

    def excluded(self, relpath: str) -> bool:
        return _match_any(relpath, self.exclude)

    def rule_config(self, rule_id: str) -> RuleConfig:
        config = self.rules.get(rule_id)
        if config is None:
            config = _default_rule_config(rule_id)
        return config


def _default_rule_config(rule_id: str) -> RuleConfig:
    raw = _DEFAULT_RULES.get(rule_id, {})
    return RuleConfig(
        rule_id=rule_id,
        enabled=True,
        paths=tuple(raw.get("paths", ())),
        options=dict(raw.get("options", {})),
    )


def _merge_rule(rule_id: str, raw: Mapping[str, Any]) -> RuleConfig:
    """Overlay one TOML rule table onto the built-in defaults for that rule."""
    base = _DEFAULT_RULES.get(rule_id, {})
    options = dict(base.get("options", {}))
    for key, value in raw.items():
        if key in ("enabled", "paths"):
            continue
        options[key] = value
    return RuleConfig(
        rule_id=rule_id,
        enabled=bool(raw.get("enabled", True)),
        paths=tuple(raw.get("paths", base.get("paths", ()))),
        options=options,
    )


def load_config(path: str | None = None) -> LintConfig:
    """Load ``config.toml`` (or *path*), overlaying the built-in defaults.

    A missing file yields the pure defaults, so the engine is usable from a
    bare checkout and in the fixture-driven tests.
    """
    config_path = path if path is not None else DEFAULT_CONFIG_PATH
    if not os.path.exists(config_path):
        rules = {rule_id: _default_rule_config(rule_id) for rule_id in _DEFAULT_RULES}
        return LintConfig(rules=rules)
    with open(config_path, "rb") as handle:
        raw = tomllib.load(handle)
    engine_raw = raw.get("engine", {})
    exclude = tuple(engine_raw.get("exclude", ("tests/tools/fixtures/*",)))
    rules: dict[str, RuleConfig] = {}
    raw_rules = raw.get("rules", {})
    for rule_id in set(_DEFAULT_RULES) | set(raw_rules):
        rules[rule_id] = (
            _merge_rule(rule_id, raw_rules[rule_id]) if rule_id in raw_rules else _default_rule_config(rule_id)
        )
    return LintConfig(exclude=exclude, rules=rules)
