"""Numerical-health monitors: turn a trace (and a fitted model) into a verdict.

A :class:`Trace` full of spans and gauges is raw material; this module
is the analysis layer that evaluates it into a structured
:class:`HealthReport` — ok / warn / fail per check, against declared
thresholds.  The catalogue covers exactly the invariants GeoAlign's
correctness rests on (see ``docs/observability.md`` for the full
table):

* **volume preservation** (paper Eq. 16) — the estimated DM's row sums
  must carry the objective's source aggregates to float rounding;
* **simplex feasibility** (Eq. 15) — learned weights non-negative and
  summing to one;
* **Gram conditioning** — near-collinear reference designs make the
  weight solution meaningless long before it crashes;
* **solver fallback / non-convergence rates** — silent degradation of
  the active-set path;
* **weight degeneracy** — effective number of references
  (:func:`repro.core.diagnostics.effective_references`);
* **trace coverage** — the operational side.

Checks read the ``health.*`` gauges the estimators emit into every
trace (worst-case per session via ``set_gauge_max`` /
``set_gauge_min``), plus the solver counters, so a trace JSONL
read back from disk months later still health-checks without rerunning
anything.  When the fitted model is at hand,
:func:`evaluate_health`'s ``model=`` overlay recomputes the model-side
gauges directly from its fitted state.

The registry is declarative and open: :func:`register_check` adds a
custom monitor; :func:`all_checks` lists the catalogue.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass

import numpy as np

from repro.core.diagnostics import (
    effective_references,
    gram_condition_number,
    simplex_violation,
    weight_entropy,
)
from repro.errors import ValidationError
from repro.obs.profile import profile_coverage
from repro.obs.trace import Trace

__all__ = [
    "HealthCheck",
    "CheckResult",
    "HealthReport",
    "all_checks",
    "register_check",
    "evaluate_health",
    "model_gauges",
    "OK",
    "WARN",
    "FAIL",
    "SKIP",
]

OK = "ok"
WARN = "warn"
FAIL = "fail"
SKIP = "skip"

#: Severity order for aggregating an overall verdict.
_SEVERITY = {SKIP: 0, OK: 1, WARN: 2, FAIL: 3}


@dataclass(frozen=True)
class HealthCheck:
    """One declarative monitor: a value extractor plus thresholds.

    Attributes
    ----------
    name:
        Stable check identifier (``volume_preservation``, ...).
    description:
        One-line human summary of what the check guards.
    formula:
        How the value is computed, for the report and the docs.
    direction:
        ``"high"`` — larger values are worse (residuals, rates);
        ``"low"`` — smaller values are worse (coverage, hit rate,
        effective references).
    warn, fail:
        Thresholds; crossing ``warn`` (strictly) yields a warning,
        crossing ``fail`` a failure.  ``None`` disables that level.  A
        NaN value is the worst value: it crosses every set threshold.
    extract:
        ``Trace -> float | None``; ``None`` means the trace carries no
        data for this check and the result is ``skip``.
    """

    name: str
    description: str
    formula: str
    direction: str
    warn: float | None
    fail: float | None
    extract: Callable[[Trace], float | None]

    def __post_init__(self) -> None:
        if self.direction not in ("high", "low"):
            raise ValidationError(
                f"check {self.name!r}: direction must be 'high' or "
                f"'low', got {self.direction!r}"
            )

    def _crossed(self, value: float, threshold: float | None) -> bool:
        if threshold is None:
            return False
        if math.isnan(value):
            return True
        if self.direction == "high":
            return value > threshold
        return value < threshold

    def evaluate(self, session: Trace) -> "CheckResult":
        """Run the check against one trace session."""
        value = self.extract(session)
        if value is None:
            status = SKIP
        elif self._crossed(value, self.fail):
            status = FAIL
        elif self._crossed(value, self.warn):
            status = WARN
        else:
            status = OK
        return CheckResult(
            name=self.name,
            status=status,
            value=value,
            warn=self.warn,
            fail=self.fail,
            direction=self.direction,
            description=self.description,
            formula=self.formula,
        )


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one health check on one trace."""

    name: str
    status: str
    value: float | None
    warn: float | None
    fail: float | None
    direction: str
    description: str
    formula: str

    def to_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "status": self.status,
            "value": self.value,
            "warn": self.warn,
            "fail": self.fail,
            "direction": self.direction,
            "description": self.description,
            "formula": self.formula,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "CheckResult":
        value = payload.get("value")
        return cls(
            name=str(payload["name"]),
            status=str(payload["status"]),
            value=None if value is None else float(value),  # type: ignore[arg-type]
            warn=_opt_float(payload.get("warn")),
            fail=_opt_float(payload.get("fail")),
            direction=str(payload.get("direction", "high")),
            description=str(payload.get("description", "")),
            formula=str(payload.get("formula", "")),
        )


def _opt_float(value: object) -> float | None:
    return None if value is None else float(value)  # type: ignore[arg-type]


class HealthReport:
    """All check results for one traced run, plus an overall verdict."""

    def __init__(self, trace_name: str, checks: list[CheckResult]) -> None:
        self.trace_name = trace_name
        self.checks = checks

    @property
    def status(self) -> str:
        """Worst status across checks (``ok`` for an empty report)."""
        if not self.checks:
            return OK
        worst = max(self.checks, key=lambda c: _SEVERITY[c.status])
        return worst.status if _SEVERITY[worst.status] > 1 else OK

    @property
    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if c.status == FAIL]

    @property
    def warnings(self) -> list[CheckResult]:
        return [c for c in self.checks if c.status == WARN]

    @property
    def ok(self) -> bool:
        """True when no check failed (warnings and skips tolerated)."""
        return not self.failures

    def verdicts(self) -> dict[str, str]:
        """Mapping of check name to status string."""
        return {c.name: c.status for c in self.checks}

    def get(self, name: str) -> CheckResult:
        for check in self.checks:
            if check.name == name:
                return check
        raise KeyError(name)

    def to_dict(self) -> dict[str, object]:
        return {
            "trace": self.trace_name,
            "status": self.status,
            "checks": [c.to_dict() for c in self.checks],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "HealthReport":
        checks_raw = payload.get("checks", [])
        if not isinstance(checks_raw, list):
            raise ValidationError("health report 'checks' must be a list")
        return cls(
            trace_name=str(payload.get("trace", "trace")),
            checks=[CheckResult.from_dict(c) for c in checks_raw],
        )

    def to_text(self) -> str:
        """Render the report as the ``obs report`` table."""
        counts = {OK: 0, WARN: 0, FAIL: 0, SKIP: 0}
        for check in self.checks:
            counts[check.status] += 1
        lines = [
            f"health report: {self.trace_name} — verdict {self.status.upper()}"
            f" ({counts[OK]} ok, {counts[WARN]} warn, {counts[FAIL]} fail, "
            f"{counts[SKIP]} skip)",
            f"{'check':26s}{'status':>8s}{'value':>14s}"
            f"{'warn':>12s}{'fail':>12s}",
        ]
        for check in self.checks:
            value = "-" if check.value is None else f"{check.value:.6g}"
            warn = "-" if check.warn is None else f"{check.warn:g}"
            fail = "-" if check.fail is None else f"{check.fail:g}"
            arrow = ">" if check.direction == "high" else "<"
            lines.append(
                f"{check.name:26s}{check.status:>8s}{value:>14s}"
                f"{arrow + warn:>12s}{arrow + fail:>12s}"
            )
        for check in self.checks:
            if check.status in (WARN, FAIL):
                lines.append(
                    f"  {check.status.upper()} {check.name}: "
                    f"{check.description} [{check.formula}]"
                )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"HealthReport({self.trace_name!r}, status={self.status!r}, "
            f"checks={len(self.checks)})"
        )


# ---------------------------------------------------------------------------
# extractors
# ---------------------------------------------------------------------------


def _gauge(name: str) -> Callable[[Trace], float | None]:
    def extract(session: Trace) -> float | None:
        return session.gauges.get(name)

    return extract


def _solver_rate(counter: str) -> Callable[[Trace], float | None]:
    def extract(session: Trace) -> float | None:
        solves = session.counters.get("solver.solves", 0.0)
        if solves <= 0.0:
            return None
        return session.counters.get(counter, 0.0) / solves

    return extract


def _trace_coverage(session: Trace) -> float | None:
    if not session.spans or session.wall_seconds <= 0.0:
        return None
    return profile_coverage(session)


# ---------------------------------------------------------------------------
# the catalogue
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, HealthCheck] = {}


def register_check(check: HealthCheck) -> HealthCheck:
    """Add (or replace) a monitor in the catalogue; returns it."""
    _REGISTRY[check.name] = check
    return check


def all_checks() -> tuple[HealthCheck, ...]:
    """The registered monitors, in registration order."""
    return tuple(_REGISTRY.values())


register_check(
    HealthCheck(
        name="volume_preservation",
        description=(
            "estimated DM row sums must carry the objective's source "
            "aggregates exactly where the references give the rescale "
            "anything to scale (paper Eq. 16)"
        ),
        formula="max_i |rowsum_i - a_i| / max_j a_j over covered rows",
        direction="high",
        warn=1e-9,
        fail=1e-6,
        extract=_gauge("health.volume_residual_max"),
    )
)
register_check(
    HealthCheck(
        name="source_coverage",
        description=(
            "objective mass sitting in source units where no reference "
            "carries any -- the rescale cannot place it anywhere"
        ),
        formula="sum(a_i over zero-denominator rows) / sum(a)",
        direction="high",
        warn=0.05,
        fail=0.5,
        extract=_gauge("health.uncovered_mass_max"),
    )
)
register_check(
    HealthCheck(
        name="shard_merge_preservation",
        description=(
            "the sharded engine's merged partial target aggregates must "
            "re-aggregate to the monolithic Eq. 17 pass; anything beyond "
            "reassociation noise means a shard boundary dropped or "
            "double-counted a column"
        ),
        formula=(
            "max over attributes of "
            "max |merged - reaggregated| / max |reaggregated|"
        ),
        direction="high",
        warn=1e-9,
        fail=1e-6,
        extract=_gauge("health.shard_merge_residual_max"),
    )
)
register_check(
    HealthCheck(
        name="simplex_feasibility",
        description=(
            "learned blend weights must stay on the probability "
            "simplex (paper Eq. 15)"
        ),
        formula="max(|sum(w) - 1|, max(-w, 0))",
        direction="high",
        warn=1e-9,
        fail=1e-6,
        extract=_gauge("health.simplex_violation_max"),
    )
)
register_check(
    HealthCheck(
        name="gram_conditioning",
        description=(
            "near-collinear reference designs make the weight solve "
            "ill-determined"
        ),
        formula="cond_2(A^T A), worst fit of the run",
        direction="high",
        warn=1e8,
        fail=1e12,
        extract=_gauge("health.gram_condition_max"),
    )
)
register_check(
    HealthCheck(
        name="solver_fallbacks",
        description=(
            "active-set solves handing off to projected gradient "
            "(degenerate cycling) should stay rare"
        ),
        formula="solver.fallbacks / solver.solves",
        direction="high",
        warn=0.1,
        fail=0.9,
        extract=_solver_rate("solver.fallbacks"),
    )
)
register_check(
    HealthCheck(
        name="solver_convergence",
        description=(
            "iterative solves exhausting their iteration cap without "
            "a convergence certificate"
        ),
        formula="solver.nonconverged / solver.solves",
        direction="high",
        warn=0.0,
        fail=0.25,
        extract=_solver_rate("solver.nonconverged"),
    )
)
register_check(
    HealthCheck(
        name="weight_degeneracy",
        description=(
            "effective number of references collapsing toward 1 means "
            "one reference carries everything"
        ),
        formula="min over fits of exp(entropy(w))",
        direction="low",
        warn=1.001,
        fail=None,
        extract=_gauge("health.effective_references_min"),
    )
)
register_check(
    HealthCheck(
        name="trace_coverage",
        description=(
            "fraction of session wall time accounted for by recorded "
            "root spans"
        ),
        formula="sum(root span seconds) / wall_seconds",
        direction="low",
        warn=0.95,
        fail=0.25,
        extract=_trace_coverage,
    )
)
register_check(
    HealthCheck(
        name="stack_density",
        description=(
            "fraction of the union-pattern value grid (one row per "
            "reference, one column per union entry) that holds a "
            "reference's own stored entry (1.0 when every reference has "
            "the union pattern); informational only — it describes the "
            "references' patterns, not a defect"
        ),
        formula="stored entries / (n_references * union entries)",
        direction="high",
        warn=None,
        fail=None,
        extract=_gauge("health.stack_density"),
    )
)


# ---------------------------------------------------------------------------
# model overlay
# ---------------------------------------------------------------------------


def model_gauges(model: object) -> dict[str, float]:
    """The ``health.*`` gauges recomputed from a fitted estimator.

    Accepts a fitted :class:`~repro.core.batch.BatchAligner` or
    :class:`~repro.core.shard.ShardedAligner`, and a fitted
    :class:`~repro.core.geoalign.GeoAlign`, which is audited through
    its one-row batch (duck-typed on fitted attributes, so this module
    never imports the estimators).  Used by :func:`evaluate_health`'s
    ``model=`` overlay when the model object is still at hand, and by
    tests that pin gauge == recomputation.
    """
    model = getattr(model, "_batch", model)
    stack = getattr(model, "stack_", None)
    weights = getattr(model, "weights_", None)
    if stack is None or weights is None:
        raise ValidationError(
            "model_gauges needs a fitted estimator (call fit() first)"
        )
    gauges: dict[str, float] = {}
    weight_matrix = np.atleast_2d(np.asarray(weights, dtype=float))
    gauges["health.simplex_violation_max"] = simplex_violation(weight_matrix)
    gauges["health.effective_references_min"] = min(
        effective_references(row) for row in weight_matrix
    )
    gauges["health.weight_entropy_min"] = min(
        weight_entropy(row) for row in weight_matrix
    )
    gauges["health.gram_condition_max"] = gram_condition_number(stack.gram)
    objectives = model.objectives_  # type: ignore[attr-defined]
    # The audit needs per-entry values: this builds the stack's union
    # pattern (and R) if nothing has yet.
    scaled = model._compute_scaled_values()  # type: ignore[attr-defined]
    gauges["health.stack_density"] = stack.dm_stack.density
    gauges["health.stack_nnz"] = float(stack.nnz)
    gauges["health.stack_resident_bytes"] = float(stack.resident_bytes)
    # The sharded engine records its reduce-phase invariant; surface it
    # so health reports gate the merge, not just the rescale.
    merge_residual = getattr(model, "merge_residual_", None)
    if merge_residual is not None:
        gauges["health.shard_merge_residual_max"] = float(merge_residual)
    achieved = stack.row_sums(scaled)
    # A correct rescale leaves exactly the zero-denominator rows at zero,
    # so uncovered rows are inferred from the output; a *tampered*
    # rescale shows up as residual instead of coverage.
    uncovered = (achieved <= 0.0) & (objectives > 0.0)
    gauges["health.uncovered_mass_max"] = float(
        (
            np.where(uncovered, objectives, 0.0).sum(axis=1)
            / objectives.sum(axis=1)
        ).max()
    )
    masked = np.where(uncovered, 0.0, objectives)
    scale_per_attr = masked.max(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        per_attr = np.where(
            scale_per_attr > 0.0,
            np.abs(np.where(uncovered, 0.0, achieved) - masked).max(axis=1)
            / scale_per_attr,
            0.0,
        )
    gauges["health.volume_residual_max"] = float(per_attr.max())
    return gauges


def evaluate_health(
    session: Trace,
    model: object | None = None,
    checks: Iterable[HealthCheck] | None = None,
) -> HealthReport:
    """Evaluate the monitor catalogue against one trace session.

    Parameters
    ----------
    session:
        A live :class:`Trace` or one reconstructed by
        :func:`repro.obs.export.read_trace_jsonl`.
    model:
        Optional fitted estimator; its :func:`model_gauges` overlay the
        trace's recorded gauges (the model is ground truth when both
        exist).
    checks:
        Monitors to run; defaults to the full registered catalogue.

    Returns
    -------
    HealthReport
    """
    if model is not None:
        overlay = Trace(session.name)
        overlay.started = session.started
        overlay.ended = session.ended
        overlay.spans = session.spans
        overlay.events = session.events
        overlay.counters = dict(session.counters)
        overlay.gauges = {**session.gauges, **model_gauges(model)}
        session = overlay
    selected = tuple(checks) if checks is not None else all_checks()
    return HealthReport(
        trace_name=session.name,
        checks=[check.evaluate(session) for check in selected],
    )
