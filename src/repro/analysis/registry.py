"""Rule base class and registry for ``repro-lint``.

Every rule is a subclass of :class:`Rule` registered under a unique
kebab-case identifier via :func:`register_rule`.  The engine instantiates
one rule object per file and calls :meth:`Rule.check` with a
:class:`FileContext`; rules yield :class:`~repro.analysis.violations.Violation`
records.

Scoping
-------
Rules can restrict themselves two ways:

* ``scope_prefixes`` -- the rule only runs on modules whose dotted name
  starts with one of these prefixes (``None`` means every module).
* ``allowlist`` -- dotted module names exempt from the rule (e.g. the
  RNG-discipline rule exempts :mod:`repro.utils.rng`, the one place
  allowed to construct generators).
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import TypeVar

from repro.errors import ValidationError
from repro.analysis.violations import Violation


@dataclass(frozen=True)
class FileContext:
    """Everything a rule may inspect about one parsed source file."""

    path: str
    module: str
    tree: ast.Module
    source: str = ""

    def walk(self) -> Iterator[ast.AST]:
        """All AST nodes of the file in document order."""
        return ast.walk(self.tree)


class Rule:
    """Base class for all ``repro-lint`` rules.

    Subclasses set the class attributes below and implement
    :meth:`check`.  ``rationale`` ties the rule to the paper invariant
    it protects; it surfaces in ``--list-rules`` and the docs.
    """

    id: str = ""
    summary: str = ""
    rationale: str = ""
    #: Dotted-module prefixes the rule is limited to (None = everywhere).
    scope_prefixes: tuple[str, ...] | None = None
    #: Dotted modules exempt from the rule.
    allowlist: frozenset[str] = frozenset()

    def applies_to(self, module: str) -> bool:
        """Whether this rule should run on ``module`` at all."""
        if module in self.allowlist:
            return False
        if self.scope_prefixes is None:
            return True
        return any(
            module == prefix or module.startswith(prefix + ".")
            for prefix in self.scope_prefixes
        )

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        """Yield violations found in ``ctx``; subclasses must override."""
        raise NotImplementedError

    def violation(
        self, ctx: FileContext, node: ast.AST, message: str
    ) -> Violation:
        """Build a :class:`Violation` anchored at ``node``."""
        return Violation(
            path=ctx.path,
            line=int(getattr(node, "lineno", 1)),
            col=int(getattr(node, "col_offset", 0)),
            rule_id=self.id,
            message=message,
        )


#: The global rule registry: rule id -> rule class.
_REGISTRY: dict[str, type[Rule]] = {}

R = TypeVar("R", bound=type[Rule])


def register_rule(cls: R) -> R:
    """Class decorator adding a rule to the registry (ids must be unique)."""
    if not cls.id:
        raise ValidationError(f"rule {cls.__name__} has no id")
    if cls.id in _REGISTRY:
        raise ValidationError(f"duplicate rule id {cls.id!r}")
    _REGISTRY[cls.id] = cls
    return cls


def _load_rule_modules() -> None:
    # Importing checks here (not at module top) avoids a cycle:
    # checks.py imports register_rule from this module.
    from repro.analysis import checks  # noqa: F401


def all_rules() -> dict[str, type[Rule]]:
    """Copy of the per-file registry (id -> class), import-safe."""
    _load_rule_modules()
    return dict(_REGISTRY)


def resolve_rules(select: Iterable[str] | None = None) -> list[Rule]:
    """Instantiate the selected per-file rules (all when ``select=None``)."""
    registry = all_rules()
    if select is None:
        ids = sorted(registry)
    else:
        ids = list(select)
        unknown = [rule_id for rule_id in ids if rule_id not in registry]
        if unknown:
            known = ", ".join(sorted(registry))
            raise ValidationError(
                f"unknown rule id(s) {unknown}; known rules: {known}"
            )
    return [registry[rule_id]() for rule_id in ids]
