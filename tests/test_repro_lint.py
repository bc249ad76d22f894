"""Tests for the ``repro-lint`` static-analysis pass.

Covers the rule engine (scoping, suppressions, selection, syntax
errors), every rule via the fixture files under ``tests/fixtures/lint``,
the reporters, the CLI subcommand, and two meta-checks: ``src/repro``
itself lints clean, and (when mypy is installed) the strict typed-core
gate passes.
"""

import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    SYNTAX_ERROR_RULE,
    Violation,
    all_rules,
    collect_suppressions,
    iter_python_files,
    lint_file,
    lint_paths,
    lint_source,
    module_name_for_path,
    render_json,
    render_text,
    resolve_rules,
)
from repro.cli import main
from repro.errors import ValidationError

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "lint"
REPO_ROOT = Path(__file__).resolve().parents[1]
SRC_PACKAGE = REPO_ROOT / "src" / "repro"

EXPECTED_RULE_IDS = {
    "rng-discipline",
    "float-eq",
    "ndarray-mutation",
    "bare-except",
    "error-types",
    "no-print",
    "dunder-all",
    "wallclock",
}

#: (fixture file, rule expected to fire, module override or None).
FIXTURE_CASES = [
    ("rng_discipline.py", "rng-discipline", None),
    ("float_eq.py", "float-eq", None),
    ("ndarray_mutation.py", "ndarray-mutation", "repro.core.fixture"),
    ("bare_except.py", "bare-except", None),
    ("error_types.py", "error-types", "repro.core.fixture"),
    ("no_print.py", "no-print", None),
    ("dunder_all.py", "dunder-all", None),
    ("wallclock.py", "wallclock", None),
]


def fire_lines(path):
    """Line numbers carrying a ``# FIRE`` marker in a fixture file."""
    return {
        lineno
        for lineno, line in enumerate(
            path.read_text().splitlines(), start=1
        )
        if "# FIRE" in line
    }


def _run_cli(argv):
    stream = io.StringIO()
    code = main(argv, stream=stream)
    return code, stream.getvalue()


class TestRegistry:
    def test_all_rules_registered(self):
        assert set(all_rules()) == EXPECTED_RULE_IDS

    def test_every_rule_documents_itself(self):
        for rule_cls in all_rules().values():
            assert rule_cls.summary
            assert rule_cls.rationale

    def test_resolve_subset(self):
        rules = resolve_rules(["float-eq", "no-print"])
        assert sorted(rule.id for rule in rules) == ["float-eq", "no-print"]

    def test_resolve_unknown_rule_rejected(self):
        with pytest.raises(ValidationError):
            resolve_rules(["float-eq", "does-not-exist"])


class TestFixtures:
    @pytest.mark.parametrize(
        "filename,rule_id,module", FIXTURE_CASES
    )
    def test_fire_no_fire_and_suppressed(self, filename, rule_id, module):
        path = FIXTURES / filename
        violations = lint_file(str(path), module=module)
        assert violations, f"{filename} should produce violations"
        assert {v.rule_id for v in violations} == {rule_id}
        assert {v.line for v in violations} == fire_lines(path)

    def test_clean_fixture(self):
        assert lint_file(str(FIXTURES / "clean.py")) == []

    def test_skip_file_silences_everything(self):
        assert lint_file(str(FIXTURES / "skip_file.py")) == []

    def test_scoped_rule_ignores_other_packages(self):
        path = FIXTURES / "ndarray_mutation.py"
        violations = lint_file(
            str(path), module="repro.experiments.fixture"
        )
        assert violations == []

    def test_allowlisted_module_is_exempt(self):
        source = "import numpy as np\nrng = np.random.default_rng(0)\n"
        assert (
            lint_source(source, module="repro.utils.rng") == []
        )
        assert lint_source(source, module="repro.synth.points") != []


class TestEngine:
    def test_module_name_for_path(self):
        assert (
            module_name_for_path("src/repro/core/solver.py")
            == "repro.core.solver"
        )
        assert (
            module_name_for_path("src/repro/utils/__init__.py")
            == "repro.utils"
        )
        assert module_name_for_path("scratch/tool.py") == "tool"

    def test_syntax_error_reported_not_raised(self):
        violations = lint_source("def broken(:\n", filename="broken.py")
        assert len(violations) == 1
        assert violations[0].rule_id == SYNTAX_ERROR_RULE
        assert violations[0].path == "broken.py"

    def test_select_limits_rules(self):
        path = FIXTURES / "float_eq.py"
        assert lint_file(str(path), select=["no-print"]) == []
        assert lint_file(str(path), select=["float-eq"]) != []

    def test_lint_paths_walks_directories(self):
        violations = lint_paths([str(FIXTURES)])
        hit_rules = {v.rule_id for v in violations}
        # Scoped rules need a module override, so from a plain directory
        # walk only the unscoped rules fire.
        assert hit_rules == EXPECTED_RULE_IDS - {
            "ndarray-mutation",
            "error-types",
        }

    def test_missing_path_rejected(self):
        with pytest.raises(ValidationError):
            iter_python_files(["definitely/not/a/path"])

    def test_violations_sorted(self):
        violations = lint_paths([str(FIXTURES)])
        assert violations == sorted(violations)

    def test_suppression_requires_matching_rule(self):
        source = "x = 1.0\nflag = x == 0.0  # repro-lint: allow[no-print]\n"
        violations = lint_source(source, filename="demo.py")
        assert [v.rule_id for v in violations] == ["float-eq"]

    def test_collect_suppressions(self):
        sup = collect_suppressions(
            "x = 1  # repro-lint: allow[float-eq, no-print] both\n"
        )
        assert sup.is_suppressed(1, "float-eq")
        assert sup.is_suppressed(1, "no-print")
        assert not sup.is_suppressed(1, "wallclock")
        assert not sup.is_suppressed(2, "float-eq")


class TestSuppressionParsing:
    def test_multiple_rule_ids_one_comment(self):
        sup = collect_suppressions(
            "x = 1  # repro-lint: allow[float-eq, no-print]\n"
        )
        assert sup.by_line == {1: {"float-eq", "no-print"}}

    def test_trailing_justification_text(self):
        sup = collect_suppressions(
            "x = 1  # repro-lint: allow[wallclock] timing the wall is the point\n"
        )
        assert sup.by_line == {1: {"wallclock"}}

    def test_magic_text_in_string_literal_ignored(self):
        sup = collect_suppressions('x = "# repro-lint: allow[float-eq]"\n')
        assert sup.by_line == {}

    def test_empty_ids_dropped(self):
        sup = collect_suppressions("x = 1  # repro-lint: allow[float-eq, ]\n")
        assert sup.by_line == {1: {"float-eq"}}


class TestReporters:
    def test_text_clean(self):
        assert "clean" in render_text([])

    def test_text_lists_rule_and_location(self):
        violation = Violation(
            path="a.py", line=3, col=4, rule_id="float-eq", message="boom"
        )
        text = render_text([violation])
        assert "a.py:3:4: [float-eq] boom" in text
        assert "1 violation" in text

    def test_json_round_trips(self):
        violation = Violation(
            path="a.py", line=3, col=4, rule_id="float-eq", message="boom"
        )
        payload = json.loads(render_json([violation]))
        assert payload["count"] == 1
        assert payload["violations"][0]["rule"] == "float-eq"
        assert payload["violations"][0]["line"] == 3


class TestCli:
    def test_lint_src_exits_zero(self):
        code, out = _run_cli(["lint", str(SRC_PACKAGE)])
        assert code == 0
        assert "clean" in out

    def test_lint_fixture_exits_one_with_locations(self):
        path = FIXTURES / "float_eq.py"
        code, out = _run_cli(["lint", str(path)])
        assert code == 1
        assert "[float-eq]" in out
        assert f"{path}:7:" in out

    def test_lint_json_format(self):
        code, out = _run_cli(
            ["lint", "--format", "json", str(FIXTURES / "no_print.py")]
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["count"] == 1
        assert payload["violations"][0]["rule"] == "no-print"

    def test_lint_select(self):
        code, _ = _run_cli(
            [
                "lint",
                "--select",
                "no-print",
                str(FIXTURES / "float_eq.py"),
            ]
        )
        assert code == 0

    def test_lint_list_rules(self):
        code, out = _run_cli(["lint", "--list-rules"])
        assert code == 0
        for rule_id in EXPECTED_RULE_IDS:
            assert rule_id in out

    def test_lint_no_paths_is_usage_error(self):
        code, _ = _run_cli(["lint"])
        assert code == 2

    def test_lint_missing_path_is_usage_error(self):
        code, _ = _run_cli(["lint", "definitely/not/a/path"])
        assert code == 2


class TestMetaGates:
    def test_repro_lint_runs_clean_on_src(self):
        violations = lint_paths([str(SRC_PACKAGE)])
        assert violations == [], render_text(violations)

    @pytest.mark.skipif(
        shutil.which("mypy") is None,
        reason="mypy not installed in this environment (CI installs it)",
    )
    def test_mypy_typed_core_gate(self):
        result = subprocess.run(
            [sys.executable, "-m", "mypy"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr
