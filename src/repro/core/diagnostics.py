"""Diagnostics for fitted crosswalks: weight stability and leverage.

The paper's practical pitch is "hand GeoAlign all available references
and let the weights sort them out" (§4.4.2).  For a practitioner that
raises an immediate question the paper leaves to inspection: *how
trustworthy are the learned weights?*  This module answers it with a
bootstrap over source units -- the natural resampling unit, since
Eq. 15 treats source units as observations:

* :func:`bootstrap_weights` refits the simplex regression on resampled
  source units and reports per-reference weight distributions and
  selection frequencies;
* :func:`weight_stability_report` renders the result for humans.

High-variance weights with stable *predictions* are expected for
mutually redundant references (the paper's ~96 %-correlated USPS pair
trades weight freely), so the bootstrap also records the dispersion of
the fitted values themselves.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from numpy.typing import ArrayLike, NDArray

from repro.errors import ValidationError
from repro.core.solver import simplex_lstsq
from repro.utils.arrays import as_nonnegative_vector
from repro.utils.rng import RngLike, as_rng

if TYPE_CHECKING:
    from repro.core.reference import Reference

FloatArray = NDArray[np.float64]

#: Weights below this count as "not selected" for frequency purposes.
SELECTION_THRESHOLD = 0.01


def weight_entropy(weights: ArrayLike) -> float:
    """Shannon entropy (nats) of a simplex weight vector.

    Zero when all mass sits on one reference (maximal degeneracy),
    ``log(k)`` when spread uniformly over ``k`` references.  Negative
    entries are clipped and the vector renormalised, so near-feasible
    solver output (tiny negative round-off) is handled gracefully.
    """
    w = np.clip(np.asarray(weights, dtype=float).ravel(), 0.0, None)
    total = float(w.sum())
    if total <= 0.0:
        raise ValidationError("weight_entropy needs positive total mass")
    p = w / total
    positive = p[p > 0.0]
    return float(-(positive * np.log(positive)).sum())


def effective_references(weights: ArrayLike) -> float:
    """Effective number of references: ``exp(entropy)`` of the weights.

    The perplexity of the weight distribution — 1.0 means a single
    reference carries everything (Eq. 15 solution fully degenerate),
    ``k`` means all ``k`` references contribute equally.  The health
    monitors gauge this after every fit as the weight-degeneracy
    signal.
    """
    return float(np.exp(weight_entropy(weights)))


def simplex_violation(weights: ArrayLike) -> float:
    """Worst violation of the Eq. 15 simplex constraints.

    ``max(|sum(w) - 1|, max(-w, 0))`` over the weight vector (or each
    row of a weight matrix): zero iff the weights are exactly feasible.
    A correct solver keeps this at float-rounding level (~1e-15); a
    drifting one is a silent correctness regression the paper's
    guarantees do not survive.
    """
    w = np.atleast_2d(np.asarray(weights, dtype=float))
    sum_violation = float(np.abs(w.sum(axis=1) - 1.0).max())
    negativity = float(np.clip(-w, 0.0, None).max())
    return max(sum_violation, negativity)


def gram_condition_number(gram: ArrayLike) -> float:
    """2-norm condition number of the Eq. 15 Gram matrix ``A^T A``.

    Large values mean near-collinear reference vectors: the weight
    solution is ill-determined and small data perturbations move it
    arbitrarily (the situation §4.4.2's redundant-reference discussion
    anticipates).  Returns ``inf`` for a singular Gram matrix.
    """
    g = np.asarray(gram, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValidationError(
            f"gram must be a square matrix, got shape {g.shape}"
        )
    return float(np.linalg.cond(g))


@dataclass
class BootstrapResult:
    """Bootstrap distribution of GeoAlign's reference weights.

    Attributes
    ----------
    reference_names:
        Column order of ``weights``.
    weights:
        ``(n_boot, k)`` array; one simplex weight vector per resample.
    point_estimate:
        Weights fitted on the full (unresampled) data.
    fit_dispersion:
        Mean over source units of the standard deviation of the fitted
        normalised values across resamples -- low dispersion with noisy
        weights flags redundant references.
    """

    reference_names: list[str]
    weights: FloatArray
    point_estimate: FloatArray
    fit_dispersion: float

    def mean(self) -> FloatArray:
        return self.weights.mean(axis=0)

    def std(self) -> FloatArray:
        return self.weights.std(axis=0)

    def quantiles(
        self, q: Sequence[float] = (0.05, 0.5, 0.95)
    ) -> FloatArray:
        """``(len(q), k)`` array of weight quantiles."""
        return np.quantile(self.weights, q, axis=0)

    def selection_frequency(
        self, threshold: float = SELECTION_THRESHOLD
    ) -> FloatArray:
        """Fraction of resamples giving each reference weight > threshold."""
        return (self.weights > threshold).mean(axis=0)


def bootstrap_weights(
    references: Iterable["Reference"],
    objective_source: ArrayLike,
    n_boot: int = 200,
    seed: RngLike = None,
) -> BootstrapResult:
    """Bootstrap the Eq. 15 weights over source units.

    Parameters
    ----------
    references:
        Sequence of :class:`~repro.core.reference.Reference`.
    objective_source:
        The objective attribute's source aggregates.
    n_boot:
        Number of bootstrap resamples.
    seed:
        RNG seed (any :func:`repro.utils.rng.as_rng` input).

    Returns
    -------
    BootstrapResult
    """
    references = list(references)
    if not references:
        raise ValidationError("bootstrap needs at least one reference")
    if n_boot < 1:
        raise ValidationError(f"n_boot must be positive, got {n_boot}")
    objective = as_nonnegative_vector(
        objective_source, name="objective_source"
    )
    design = np.column_stack(
        [ref.normalized_source() for ref in references]
    )
    if design.shape[0] != objective.shape[0]:
        raise ValidationError(
            "objective_source length does not match the references"
        )
    if objective.max() <= 0:
        raise ValidationError("objective_source is identically zero")
    rhs = objective / float(objective.max())

    point = simplex_lstsq(design, rhs).weights
    rng = as_rng(seed)
    m = design.shape[0]
    draws = np.empty((n_boot, design.shape[1]))
    fitted = np.empty((n_boot, m))
    for b in range(n_boot):
        rows = rng.integers(0, m, size=m)
        result = simplex_lstsq(design[rows], rhs[rows])
        draws[b] = result.weights
        fitted[b] = design @ result.weights
    dispersion = float(fitted.std(axis=0).mean())
    return BootstrapResult(
        reference_names=[ref.name for ref in references],
        weights=draws,
        point_estimate=point,
        fit_dispersion=dispersion,
    )


def weight_stability_report(result: BootstrapResult) -> str:
    """Human-readable summary of a :class:`BootstrapResult`."""
    lows, medians, highs = result.quantiles((0.05, 0.5, 0.95))
    freq = result.selection_frequency()
    name_width = max(len(n) for n in result.reference_names) + 2
    lines = [
        "Reference weight stability "
        f"({result.weights.shape[0]} bootstrap resamples):",
        f"{'reference':{name_width}s}{'point':>8s}{'q05':>8s}"
        f"{'median':>8s}{'q95':>8s}{'sel%':>7s}",
    ]
    order = np.argsort(-result.point_estimate)
    for idx in order:
        lines.append(
            f"{result.reference_names[idx]:{name_width}s}"
            f"{result.point_estimate[idx]:8.3f}{lows[idx]:8.3f}"
            f"{medians[idx]:8.3f}{highs[idx]:8.3f}"
            f"{100 * freq[idx]:6.0f}%"
        )
    lines.append(
        f"fitted-value dispersion: {result.fit_dispersion:.5f} "
        "(low dispersion + wide weight intervals = redundant references)"
    )
    return "\n".join(lines)
