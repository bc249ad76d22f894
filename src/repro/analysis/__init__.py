"""``repro-lint``: the project's numerical-correctness static analysis.

An AST-based, per-file linter with project-specific rules that guard
the invariants the paper relies on -- deterministic seeding,
tolerance-based float comparison (Eq. 16 volume preservation is a
numerical check), error-type discipline in :mod:`repro.core`, and
report/timing hygiene.

Use from Python::

    from repro.analysis import lint_paths
    violations = lint_paths(["src/repro"])

or from the shell::

    geoalign-repro lint src

See ``docs/static-analysis.md`` for the rule catalogue and the
suppression syntax (``# repro-lint: allow[rule-id] <justification>``).
"""

from repro.analysis.engine import (
    SYNTAX_ERROR_RULE,
    iter_python_files,
    lint_file,
    lint_paths,
    lint_source,
    module_name_for_path,
)
from repro.analysis.registry import (
    FileContext,
    Rule,
    all_rules,
    register_rule,
    resolve_rules,
)
from repro.analysis.reporters import render, render_json, render_text
from repro.analysis.suppressions import Suppressions, collect_suppressions
from repro.analysis.violations import Violation

__all__ = [
    "FileContext",
    "Rule",
    "SYNTAX_ERROR_RULE",
    "Suppressions",
    "Violation",
    "all_rules",
    "collect_suppressions",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_source",
    "module_name_for_path",
    "register_rule",
    "render",
    "render_json",
    "render_text",
    "resolve_rules",
]
