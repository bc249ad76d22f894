"""The project-specific ``repro-lint`` rules.

Each rule guards one numerical-correctness or reproducibility invariant
of the GeoAlign reproduction; the ``rationale`` strings tie them back to
the paper (and are surfaced by ``geoalign-repro lint --list-rules`` and
``docs/static-analysis.md``).
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator

from repro.analysis.registry import FileContext, Rule, register_rule
from repro.analysis.violations import Violation


def dotted_name(node: ast.AST) -> str | None:
    """Best-effort dotted name of a Name/Attribute chain (else ``None``)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _function_defs(
    tree: ast.Module,
) -> Iterator[tuple[ast.FunctionDef | ast.AsyncFunctionDef, bool]]:
    """Yield ``(def, is_public)`` for module-level functions and methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, not node.name.startswith("_")
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item, not item.name.startswith("_")


# ----------------------------------------------------------------------
# rng-discipline
# ----------------------------------------------------------------------
@register_rule
class RngDisciplineRule(Rule):
    """All Generator construction must go through ``repro.utils.rng``."""

    id = "rng-discipline"
    summary = (
        "construct numpy Generators only via repro.utils.rng "
        "(as_rng/as_generator/spawn_rngs)"
    )
    rationale = (
        "Deterministic seeding is what makes every experiment replicable "
        "(paper §4: fixed-seed evaluation); a stray default_rng() or "
        "legacy RandomState forks the seed universe silently."
    )
    allowlist = frozenset({"repro.utils.rng"})

    _BANNED_SUFFIXES = (
        "random.default_rng",
        "random.Generator",
        "random.RandomState",
        "random.seed",
    )
    _BANNED_BARE = ("default_rng", "RandomState")

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        for node in ctx.walk():
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            banned = name in self._BANNED_BARE or any(
                name == suffix or name.endswith("." + suffix)
                for suffix in self._BANNED_SUFFIXES
            )
            if banned:
                yield self.violation(
                    ctx,
                    node,
                    f"direct RNG construction {name!r}; route through "
                    "repro.utils.rng.as_generator so seeding stays "
                    "centralised and reproducible",
                )


# ----------------------------------------------------------------------
# float-eq
# ----------------------------------------------------------------------
@register_rule
class FloatEqualityRule(Rule):
    """No ``==``/``!=`` against float literals outside tolerance helpers."""

    id = "float-eq"
    summary = "no ==/!= comparisons against float literals"
    rationale = (
        "Volume preservation (Eq. 16) and mass conservation are checked "
        "numerically; exact float equality silently degrades to 'never "
        "true' after roundoff, which is how small conservation errors "
        "slip through (cf. arXiv:1807.04883 on compounding count error)."
    )
    allowlist = frozenset({"repro.utils.arrays"})

    @staticmethod
    def _is_float_literal(node: ast.AST) -> bool:
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            return True
        # Unary minus on a float literal: -1.0
        if (
            isinstance(node, ast.UnaryOp)
            and isinstance(node.op, (ast.USub, ast.UAdd))
            and isinstance(node.operand, ast.Constant)
            and isinstance(node.operand.value, float)
        ):
            return True
        return False

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        for node in ctx.walk():
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(
                node.ops, operands[:-1], operands[1:]
            ):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if self._is_float_literal(left) or self._is_float_literal(
                    right
                ):
                    yield self.violation(
                        ctx,
                        node,
                        "float equality comparison; use "
                        "repro.utils.arrays.is_zero / np.isclose, or add "
                        "'# repro-lint: allow[float-eq] <why>' when an "
                        "exact-zero sentinel is intentional",
                    )
                    break


# ----------------------------------------------------------------------
# ndarray-mutation
# ----------------------------------------------------------------------
@register_rule
class NdarrayMutationRule(Rule):
    """Public core/partitions functions must not mutate array parameters."""

    id = "ndarray-mutation"
    summary = (
        "no in-place mutation of parameters in public core/partitions "
        "functions"
    )
    rationale = (
        "GeoAlign re-uses reference DMs and aggregate vectors across "
        "cross-validation folds (§4.2); a public function that mutates "
        "its inputs corrupts every later fold without failing any "
        "single-call test."
    )
    scope_prefixes = ("repro.core", "repro.partitions")

    _MUTATORS = frozenset(
        {"sort", "fill", "resize", "partition", "put", "setflags", "itemset"}
    )

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        for func, is_public in _function_defs(ctx.tree):
            if not is_public:
                continue
            params = {
                arg.arg
                for arg in (
                    *func.args.posonlyargs,
                    *func.args.args,
                    *func.args.kwonlyargs,
                )
                if arg.arg not in ("self", "cls")
            }
            if not params:
                continue
            yield from self._check_function(ctx, func, params)

    def _check_function(
        self,
        ctx: FileContext,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        params: set[str],
    ) -> Iterator[Violation]:
        rebound: set[str] = set()
        for node in ast.walk(func):
            # A parameter rebound to a local copy is no longer the
            # caller's object; stop tracking it.
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    for name_node in ast.walk(target):
                        if (
                            isinstance(name_node, ast.Name)
                            and not isinstance(
                                name_node.ctx, ast.Load
                            )
                            and name_node.id in params
                            and not isinstance(target, ast.Subscript)
                        ):
                            rebound.add(name_node.id)
        live = params - rebound
        if not live:
            return
        for node in ast.walk(func):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and target.value.id in live
                    ):
                        yield self.violation(
                            ctx,
                            node,
                            f"in-place write to parameter "
                            f"{target.value.id!r} of public function "
                            f"{func.name!r}; copy before mutating",
                        )
            if (
                isinstance(node, ast.AugAssign)
                and isinstance(node.target, ast.Name)
                and node.target.id in live
            ):
                yield self.violation(
                    ctx,
                    node,
                    f"augmented assignment mutates parameter "
                    f"{node.target.id!r} of public function {func.name!r} "
                    "in place for ndarray arguments; use 'x = x + ...' on "
                    "a copy",
                )
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in live
                and node.func.attr in self._MUTATORS
            ):
                yield self.violation(
                    ctx,
                    node,
                    f"call to mutating method "
                    f"{node.func.value.id}.{node.func.attr}() on a "
                    f"parameter of public function {func.name!r}",
                )


# ----------------------------------------------------------------------
# bare-except
# ----------------------------------------------------------------------
@register_rule
class BareExceptRule(Rule):
    """No bare or blanket ``except`` clauses."""

    id = "bare-except"
    summary = "no bare 'except:' and no non-reraising 'except Exception:'"
    rationale = (
        "Swallowing SolverError or ValidationError turns a detectable "
        "simplex-infeasibility (Eq. 15) into silently wrong aggregates; "
        "broad handlers are only acceptable when they re-raise (bare "
        "'raise', or wrap-and-chain 'raise ReproError(...) from exc')."
    )

    _BROAD = frozenset({"Exception", "BaseException"})

    @staticmethod
    def _reraises(handler: ast.ExceptHandler) -> bool:
        # A bare ``raise`` propagates the original; ``raise X(...) from
        # exc`` converts it at a boundary without losing the chain.
        # Both keep the failure observable.
        return any(
            isinstance(node, ast.Raise)
            and (node.exc is None or node.cause is not None)
            for node in ast.walk(handler)
        )

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        for node in ctx.walk():
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.violation(
                    ctx,
                    node,
                    "bare 'except:'; catch a repro.errors type (or at "
                    "minimum re-raise)",
                )
                continue
            name = dotted_name(node.type)
            if (
                name is not None
                and name.split(".")[-1] in self._BROAD
                and not self._reraises(node)
            ):
                yield self.violation(
                    ctx,
                    node,
                    f"broad 'except {name}:' without re-raise; catch a "
                    "repro.errors type instead",
                )


# ----------------------------------------------------------------------
# error-types
# ----------------------------------------------------------------------
@register_rule
class ErrorTypesRule(Rule):
    """``repro.core`` raises only :mod:`repro.errors` exception types."""

    id = "error-types"
    summary = "core modules raise repro.errors types, not builtins"
    rationale = (
        "Callers audit crosswalk data by catching ReproError at one "
        "integration boundary (see repro.errors); a builtin ValueError "
        "escaping from core bypasses that boundary and the CLI's error "
        "handling."
    )
    scope_prefixes = ("repro.core",)

    _BUILTIN_EXCEPTIONS = frozenset(
        {
            "Exception",
            "BaseException",
            "ValueError",
            "TypeError",
            "KeyError",
            "IndexError",
            "RuntimeError",
            "ArithmeticError",
            "ZeroDivisionError",
            "FloatingPointError",
            "OverflowError",
            "AssertionError",
            "AttributeError",
            "LookupError",
            "OSError",
            "IOError",
            "StopIteration",
            "NotImplementedError",
        }
    )

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        for node in ctx.walk():
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            if isinstance(exc, ast.Call):
                exc = exc.func
            name = dotted_name(exc)
            if name in self._BUILTIN_EXCEPTIONS:
                yield self.violation(
                    ctx,
                    node,
                    f"core code raises builtin {name}; raise a "
                    "repro.errors type so ReproError stays the single "
                    "catchable root",
                )


# ----------------------------------------------------------------------
# no-print
# ----------------------------------------------------------------------
@register_rule
class NoPrintRule(Rule):
    """No ``print`` in library code (reporting goes through returns/CLI)."""

    id = "no-print"
    summary = "no print() outside the CLI and report-rendering modules"
    rationale = (
        "Experiment reports are return values (to_text()) so they can be "
        "captured, diffed against the paper's figures, and written by "
        "the CLI; stray prints fragment that contract."
    )
    allowlist = frozenset({"repro.cli", "repro.experiments.reporting"})

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        for node in ctx.walk():
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield self.violation(
                    ctx,
                    node,
                    "print() in library code; return report text or raise "
                    "a repro.errors type instead",
                )


# ----------------------------------------------------------------------
# dunder-all
# ----------------------------------------------------------------------
@register_rule
class DunderAllRule(Rule):
    """``__all__`` entries must name objects actually bound in the module."""

    id = "dunder-all"
    summary = "__all__ must list only names defined/imported in the module"
    rationale = (
        "The package __init__ files re-export the public API; an "
        "__all__ entry that drifted from a rename breaks "
        "'from repro.x import *' and hides the symbol from docs."
    )

    @staticmethod
    def _bound_names(tree: ast.Module) -> tuple[set[str], bool]:
        bound: set[str] = set()
        has_star = False
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                bound.add(node.name)
            elif isinstance(node, ast.ClassDef):
                bound.add(node.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    bound.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name == "*":
                        has_star = True
                    else:
                        bound.add(alias.asname or alias.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    for name_node in ast.walk(target):
                        if isinstance(name_node, ast.Name):
                            bound.add(name_node.id)
            elif isinstance(node, (ast.If, ast.Try)):
                for sub in ast.walk(node):
                    if isinstance(
                        sub, (ast.FunctionDef, ast.ClassDef)
                    ):
                        bound.add(sub.name)
                    elif isinstance(sub, ast.Name) and isinstance(
                        sub.ctx, ast.Store
                    ):
                        bound.add(sub.id)
        return bound, has_star

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        dunder_all: ast.Assign | None = None
        exported: list[tuple[str, ast.AST]] = []
        for node in ctx.tree.body:
            if not isinstance(node, ast.Assign):
                continue
            if any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets
            ):
                dunder_all = node
                if isinstance(node.value, (ast.List, ast.Tuple)):
                    for element in node.value.elts:
                        if isinstance(element, ast.Constant) and isinstance(
                            element.value, str
                        ):
                            exported.append((element.value, element))
                else:
                    yield self.violation(
                        ctx,
                        node,
                        "__all__ must be a literal list/tuple of strings "
                        "so it can be statically checked",
                    )
                    return
        if dunder_all is None:
            return
        bound, has_star = self._bound_names(ctx.tree)
        if not has_star:
            for name, element in exported:
                if name not in bound:
                    yield self.violation(
                        ctx,
                        element,
                        f"__all__ exports {name!r} but the module never "
                        "defines or imports it",
                    )
        exported_names = {name for name, _ in exported}
        for node in ctx.tree.body:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                if (
                    not node.name.startswith("_")
                    and node.name not in exported_names
                ):
                    yield self.violation(
                        ctx,
                        node,
                        f"public {node.name!r} is defined here but missing "
                        "from __all__",
                    )


# ----------------------------------------------------------------------
# wallclock
# ----------------------------------------------------------------------
@register_rule
class WallclockRule(Rule):
    """No direct ``time.time()`` -- measured paths use perf_counter."""

    id = "wallclock"
    summary = "use time.perf_counter or timed_span, never time.time()"
    rationale = (
        "The §4.3 runtime-decomposition claim ('>90% of time in DM "
        "construction') is verified with monotonic perf_counter span "
        "timing; time.time() is wall-clock, jumps with NTP, and would "
        "corrupt the scalability figures."
    )
    allowlist = frozenset()

    _BANNED = frozenset({"time.time", "time.clock"})

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        # Track 'from time import time [as x]' aliases.
        aliased: set[str] = set()
        for node in ctx.tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name in ("time", "clock"):
                        aliased.add(alias.asname or alias.name)
        for node in ctx.walk():
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name in self._BANNED or name in aliased:
                yield self.violation(
                    ctx,
                    node,
                    f"{name}() is non-monotonic wall clock; time with "
                    "time.perf_counter or repro.obs.timed_span",
                )
