"""The lint engine's own test suite, driven by the fixture corpus.

Fixtures live in ``tests/tools/fixtures/``: one directory per invariant
family, with ``ok_*`` files that must lint clean and ``bad_*`` files whose
findings are pinned here.  The repo's checked-in ``config.toml`` excludes
the corpus from normal scans; these tests lint the files explicitly with
purpose-built configs.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT) not in sys.path:  # `python -m pytest` from the repo root covers this
    sys.path.insert(0, str(REPO_ROOT))

from tools.arch_lint.baseline import (  # noqa: E402
    Baseline,
    BaselineError,
    fingerprint,
    load_baseline,
    save_baseline,
)
from tools.arch_lint.cli import main  # noqa: E402
from tools.arch_lint.config import _DEFAULT_RULES, LintConfig, RuleConfig, load_config  # noqa: E402
from tools.arch_lint.engine import LintEngine  # noqa: E402
from tools.arch_lint.rules import all_rules  # noqa: E402

FIXTURES = REPO_ROOT / "tests" / "tools" / "fixtures"


def _config_for(rule_id: str, options: dict | None = None) -> LintConfig:
    """A config that applies *rule_id* everywhere (fixture corpus included)."""
    merged = dict(_DEFAULT_RULES.get(rule_id, {}).get("options", {}))
    if options:
        merged.update(options)
    return LintConfig(
        exclude=(),
        rules={rule_id: RuleConfig(rule_id=rule_id, paths=(), options=merged)},
    )


def lint_fixture(relative: str, rule_id: str, options: dict | None = None):
    engine = LintEngine(_config_for(rule_id, options), root=str(REPO_ROOT))
    return engine.lint_paths([str(FIXTURES / relative)], only_rules=[rule_id])


class TestRuleRegistry:
    def test_all_rules_registered(self):
        assert set(all_rules()) == {
            "ID01",
            "ID02",
            "DT01",
            "TS01",
            "PF01",
            "FT01",
            "CH01",
            "CH02",
        }

    def test_checked_in_config_covers_every_rule(self):
        config = load_config()
        for rule_id in all_rules():
            assert config.rule_config(rule_id).enabled


class TestIdPlaneRules:
    def test_id01_flags_missing_annotations(self):
        result = lint_fixture("id_plane/bad_unannotated.py", "ID01")
        assert len(result.violations) == 2
        messages = " ".join(v.message for v in result.violations)
        assert "value" in messages and "count" in messages and "return" in messages
        assert "key" in messages

    def test_id01_passes_fully_annotated(self):
        assert not lint_fixture("id_plane/ok_annotated.py", "ID01").violations

    def test_id02_flags_decoded_value_into_id_sink(self):
        result = lint_fixture("id_plane/bad_decoded_sink.py", "ID02")
        assert len(result.violations) == 2
        assert all("value_of" in v.message for v in result.violations)

    def test_id02_passes_id_plane_probes(self):
        assert not lint_fixture("id_plane/ok_id_sink.py", "ID02").violations


class TestDeterminismRule:
    def test_dt01_flags_every_ordered_sink(self):
        result = lint_fixture("determinism/bad_set_sinks.py", "DT01")
        assert len(result.violations) == 4
        texts = [v.message for v in result.violations]
        assert any("list()" in t for t in texts)
        assert any("join" in t for t in texts)
        assert any("comprehension" in t for t in texts)
        assert any("append" in t or "ordered sequence" in t for t in texts)

    def test_dt01_passes_sorted_and_order_free(self):
        assert not lint_fixture("determinism/ok_sorted.py", "DT01").violations

    def test_dt01_set_returning_names_come_from_config(self):
        quiet = lint_fixture(
            "determinism/bad_set_sinks.py", "DT01", {"set_returning_names": []}
        )
        # Without the convention list the distinct_values() comprehension is
        # no longer inferred as a set; the literal-set sinks still are.
        assert len(quiet.violations) == 3


class TestThreadSafetyRule:
    OPTIONS = {
        "classes": ["CoverageEngine"],
        "lock_names": ["_lock"],
        "init_methods": ["__init__"],
        "allow": {},
    }

    def test_ts01_flags_unguarded_writes(self):
        result = lint_fixture("thread_safety/bad_unguarded.py", "TS01", self.OPTIONS)
        assert len(result.violations) == 2
        messages = " ".join(v.message for v in result.violations)
        assert "self._verdict_cache[...]" in messages
        assert "self.last" in messages

    def test_ts01_passes_lock_guarded_and_thread_local_writes(self):
        assert not lint_fixture("thread_safety/ok_guarded.py", "TS01", self.OPTIONS).violations

    def test_ts01_allowlist_silences_contract_methods(self):
        options = dict(self.OPTIONS, allow={"CoverageEngine": ["record"]})
        assert not lint_fixture("thread_safety/bad_unguarded.py", "TS01", options).violations

    def test_ts01_ignores_unconfigured_classes(self):
        options = dict(self.OPTIONS, classes=["SomethingElse"])
        assert not lint_fixture("thread_safety/bad_unguarded.py", "TS01", options).violations


class TestProcessSafetyRule:
    def test_pf01_flags_every_bad_payload(self):
        result = lint_fixture("process_safety/bad_payloads.py", "PF01")
        assert len(result.violations) == 6
        messages = " ".join(v.message for v in result.violations)
        assert "nested function 'chunk'" in messages
        assert "self._lock" in messages
        assert "'handle'" in messages
        assert "open(...)" in messages
        assert "initializer" in messages

    def test_pf01_passes_module_level_callables_and_plain_data(self):
        assert not lint_fixture("process_safety/ok_payloads.py", "PF01").violations

    def test_pf01_only_tracks_configured_factories(self):
        quiet = lint_fixture(
            "process_safety/bad_payloads.py", "PF01", {"executor_factories": ["SomethingElse"]}
        )
        assert not quiet.violations


class TestFutureDeadlinesRule:
    def test_ft01_flags_bare_result_calls(self):
        result = lint_fixture("deadlines/bad_undeadlined.py", "FT01")
        assert len(result.violations) == 2
        assert all("timeout" in v.message for v in result.violations)

    def test_ft01_passes_keyword_positional_and_explicit_none(self):
        assert not lint_fixture("deadlines/ok_deadlined.py", "FT01").violations

    def test_ft01_method_names_are_configurable(self):
        quiet = lint_fixture("deadlines/bad_undeadlined.py", "FT01", {"methods": ["gather"]})
        assert not quiet.violations


class TestCacheHygieneRules:
    def test_ch01_flags_mutable_defaults_including_lambdas(self):
        result = lint_fixture("cache_hygiene/bad_defaults.py", "CH01")
        assert len(result.violations) == 3

    def test_ch01_passes_none_defaults(self):
        assert not lint_fixture("cache_hygiene/ok_defaults.py", "CH01").violations

    def test_ch02_flags_identity_and_unhashable_keys(self):
        result = lint_fixture("cache_hygiene/bad_cache_keys.py", "CH02")
        assert len(result.violations) == 2
        messages = " ".join(v.message for v in result.violations)
        assert "id(...)" in messages and "unhashable" in messages

    def test_ch02_passes_tuple_keys(self):
        assert not lint_fixture("cache_hygiene/ok_cache_keys.py", "CH02").violations


class TestSuppressions:
    def test_inline_and_standalone_suppressions(self):
        result = lint_fixture("suppression/suppressed.py", "DT01")
        # Trailing comment, standalone comment above, and disable=all each
        # silence one finding; the unsuppressed function still fails.
        assert result.suppressed_count == 3
        assert len(result.violations) == 1
        assert result.violations[0].line > 10

    def test_disable_all_covers_other_rules_too(self):
        result = lint_fixture("suppression/suppressed.py", "CH01")
        assert not result.violations  # nothing to find, nothing suppressed


class TestSyntaxErrors:
    def test_unparsable_file_is_a_violation_not_a_crash(self):
        result = lint_fixture("syntax/bad_syntax.py", "DT01")
        assert len(result.violations) == 1
        assert result.violations[0].rule == "E000"
        assert "does not parse" in result.violations[0].message


class TestBaseline:
    def test_round_trip_accepts_everything_it_recorded(self, tmp_path):
        found = lint_fixture("determinism/bad_set_sinks.py", "DT01")
        assert found.violations
        path = tmp_path / "baseline.txt"
        save_baseline(str(path), found.violations)
        loaded = load_baseline(str(path))
        assert len(loaded) == len(found.violations)
        engine = LintEngine(_config_for("DT01"), root=str(REPO_ROOT))
        rerun = engine.lint_paths(
            [str(FIXTURES / "determinism/bad_set_sinks.py")],
            baseline=loaded,
            only_rules=["DT01"],
        )
        assert rerun.ok
        assert not rerun.new_violations
        assert len(rerun.baselined) == len(found.violations)

    def test_missing_baseline_is_empty(self, tmp_path):
        assert len(load_baseline(str(tmp_path / "absent.txt"))) == 0

    def test_unsorted_baseline_is_rejected(self, tmp_path):
        path = tmp_path / "baseline.txt"
        path.write_text("ZZ\tb.py\tffff\tmsg\nAA\ta.py\taaaa\tmsg\n")
        with pytest.raises(BaselineError, match="not sorted"):
            load_baseline(str(path))

    def test_duplicate_baseline_entries_are_rejected(self, tmp_path):
        path = tmp_path / "baseline.txt"
        path.write_text("AA\ta.py\taaaa\tmsg\nAA\ta.py\taaaa\tmsg\n")
        with pytest.raises(BaselineError, match="duplicate"):
            load_baseline(str(path))

    def test_malformed_baseline_lines_are_rejected(self, tmp_path):
        path = tmp_path / "baseline.txt"
        path.write_text("AA only-two-fields\n")
        with pytest.raises(BaselineError, match="malformed"):
            load_baseline(str(path))

    def test_fingerprints_survive_line_moves(self, tmp_path):
        source = (FIXTURES / "determinism/bad_set_sinks.py").read_text()
        target = tmp_path / "module.py"
        target.write_text(source)
        engine = LintEngine(_config_for("DT01"), root=str(tmp_path))
        before = engine.lint_paths([str(target)], only_rules=["DT01"]).violations
        target.write_text("\n\n\n" + source)
        after = engine.lint_paths([str(target)], only_rules=["DT01"]).violations
        assert [v.fingerprint for v in before] == [v.fingerprint for v in after]
        assert [v.line + 3 for v in before] == [v.line for v in after]

    def test_fingerprint_distinguishes_identical_lines_by_occurrence(self):
        assert fingerprint("DT01", "a.py", "x = list(s)", 0) != fingerprint(
            "DT01", "a.py", "x = list(s)", 1
        )

    def test_empty_baseline_accepts_nothing(self):
        found = lint_fixture("determinism/bad_set_sinks.py", "DT01")
        empty = Baseline.empty()
        assert not any(empty.accepts(v) for v in found.violations)


class TestCli:
    @pytest.fixture(autouse=True)
    def _run_from_repo_root(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)

    @pytest.fixture
    def permissive_config(self, tmp_path) -> str:
        path = tmp_path / "config.toml"
        path.write_text("[engine]\nexclude = []\n")
        return str(path)

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("ID01", "ID02", "DT01", "TS01", "PF01", "FT01", "CH01", "CH02"):
            assert rule_id in out

    def test_unknown_rule_is_a_usage_error(self, capsys):
        assert main(["--rule", "NOPE", "src"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_new_violations_fail_the_run(self, permissive_config, capsys):
        code = main(
            [
                "tests/tools/fixtures/cache_hygiene/bad_defaults.py",
                "--config",
                permissive_config,
                "--no-baseline",
                "--rule",
                "CH01",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "CH01" in out and "bad_defaults.py" in out

    def test_update_baseline_then_clean_run(self, permissive_config, tmp_path, capsys):
        baseline = str(tmp_path / "baseline.txt")
        args = [
            "tests/tools/fixtures/cache_hygiene/bad_defaults.py",
            "--config",
            permissive_config,
            "--baseline",
            baseline,
            "--rule",
            "CH01",
        ]
        assert main(args + ["--update-baseline"]) == 0
        assert main(args) == 0
        assert main(["--check-baseline", "--baseline", baseline]) == 0
        capsys.readouterr()

    def test_check_baseline_rejects_drift(self, tmp_path, capsys):
        path = tmp_path / "baseline.txt"
        path.write_text("ZZ\tb.py\tffff\tmsg\nAA\ta.py\taaaa\tmsg\n")
        assert main(["--check-baseline", "--baseline", str(path)]) == 1
        assert "not sorted" in capsys.readouterr().err

    def test_repo_scan_is_clean_against_checked_in_baseline(self):
        # The whole point of the PR: src/ and tests/ lint clean with the
        # checked-in config and (near-empty) baseline.
        assert main(["src", "tests"]) == 0


class TestCheckedInConfig:
    def test_fixture_corpus_is_excluded_from_normal_scans(self):
        config = load_config()
        assert config.excluded("tests/tools/fixtures/determinism/bad_set_sinks.py")
        assert not config.excluded("src/repro/db/relation.py")

    def test_id_plane_scope_gates_db_and_compiled(self):
        config = load_config()
        id01 = config.rule_config("ID01")
        assert id01.applies_to("src/repro/db/interning.py")
        assert id01.applies_to("src/repro/logic/compiled.py")
        assert not id01.applies_to("src/repro/core/session.py")

    def test_ts01_allowlists_are_scoped_per_class(self):
        config = load_config()
        allow = config.rule_config("TS01").option("allow", {})
        assert "_cached_ground" in allow.get("CoverageEngine", [])
        assert "store" in allow.get("SaturationCache", [])
        assert "_cached_ground" not in allow.get("SaturationCache", [])
        # The checker builds its compiler in __init__, so it writes no shared
        # state outside an initialiser and needs no allowlist entry.
        assert "SubsumptionChecker" not in allow
