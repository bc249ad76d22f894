"""The ``repro-lint`` engine: file discovery, parsing, rule dispatch.

Public entry points:

* :func:`lint_paths` -- lint files and/or directory trees.
* :func:`lint_file` -- lint one file.
* :func:`lint_source` -- lint a source string (used heavily by tests).

All three return a sorted list of
:class:`~repro.analysis.violations.Violation`; an empty list means the
code is clean.  Suppression comments (see
:mod:`repro.analysis.suppressions`) are honoured everywhere.
"""

from __future__ import annotations

import ast
import os
from collections.abc import Iterable, Sequence

from repro.errors import ValidationError
from repro.analysis.registry import FileContext, Rule, resolve_rules
from repro.analysis.suppressions import collect_suppressions
from repro.analysis.violations import Violation

#: Rule id used for files that fail to parse.
SYNTAX_ERROR_RULE = "syntax-error"


def module_name_for_path(path: str) -> str:
    """Dotted module name for ``path``, anchored at the ``repro`` package.

    ``src/repro/core/solver.py`` -> ``repro.core.solver``; files outside
    a ``repro`` tree fall back to their stem so scoped rules simply do
    not apply to them.
    """
    parts = list(os.path.normpath(path).split(os.sep))
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts.pop()
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    else:
        parts = parts[-1:]
    return ".".join(parts) if parts else ""


def iter_python_files(paths: Sequence[str]) -> list[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    found: list[str] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d
                    for d in dirnames
                    if d not in ("__pycache__", ".git")
                )
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        found.append(os.path.join(dirpath, filename))
        elif os.path.isfile(path):
            found.append(path)
        else:
            raise ValidationError(f"no such file or directory: {path!r}")
    return found


def lint_source(
    source: str,
    *,
    filename: str = "<string>",
    module: str | None = None,
    rules: Iterable[Rule] | None = None,
    select: Sequence[str] | None = None,
) -> list[Violation]:
    """Lint a source string and return sorted violations.

    Parameters
    ----------
    source:
        Python source text.
    filename:
        Path used in reports (and for module derivation when ``module``
        is not given).
    module:
        Dotted module name used for rule scoping; derived from
        ``filename`` when omitted.  Tests use this to exercise
        core-scoped rules on fixture snippets.
    rules:
        Pre-instantiated rules (overrides ``select``).
    select:
        Rule ids to run; all registered rules when ``None``.
    """
    if module is None:
        module = module_name_for_path(filename)
    active = list(rules) if rules is not None else resolve_rules(select)
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as exc:
        return [
            Violation(
                path=filename,
                line=int(exc.lineno or 1),
                col=int(exc.offset or 0),
                rule_id=SYNTAX_ERROR_RULE,
                message=f"file does not parse: {exc.msg}",
            )
        ]
    suppressions = collect_suppressions(source)
    if suppressions.skip_file:
        return []
    ctx = FileContext(
        path=filename, module=module, tree=tree, source=source
    )
    violations = [
        violation
        for rule in active
        if rule.applies_to(module)
        for violation in rule.check(ctx)
        if not suppressions.is_suppressed(violation.line, violation.rule_id)
    ]
    return sorted(violations)


def lint_file(
    path: str,
    *,
    module: str | None = None,
    rules: Iterable[Rule] | None = None,
    select: Sequence[str] | None = None,
) -> list[Violation]:
    """Lint one file from disk (see :func:`lint_source`)."""
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    return lint_source(
        source, filename=path, module=module, rules=rules, select=select
    )


def lint_paths(
    paths: Sequence[str],
    *,
    select: Sequence[str] | None = None,
) -> list[Violation]:
    """Lint every ``.py`` file under ``paths``; returns sorted violations."""
    rules = resolve_rules(select)
    violations: list[Violation] = []
    for path in iter_python_files(paths):
        violations.extend(lint_file(path, rules=rules))
    return sorted(violations)
