"""Output checks and the accuracy criterion, independent of the program.

Each check raises :class:`CheckFailed` with a reason; the workload
counts the op as failed and the run exits non-zero.  The NRMSE here is
the paper's Fig. 5 criterion computed from scratch, so a bug in
``repro.metrics`` cannot hide a wrong answer.
"""

from __future__ import annotations

import numpy as np

#: Relative tolerance of mass preservation over covered rows.
MASS_RTOL = 1e-9
#: Sharded vs monolithic, and the merge residual bound.
SHARD_RTOL = 1e-9


class CheckFailed(Exception):
    """An op's output failed a correctness check."""


def finite_nonnegative(predictions: np.ndarray) -> None:
    if not np.all(np.isfinite(predictions)):
        raise CheckFailed("predictions contain non-finite values")
    if predictions.size and predictions.min() < 0.0:
        raise CheckFailed(f"negative prediction {predictions.min()!r}")


def covered_rows(weights: np.ndarray, ref_row_sums: np.ndarray) -> np.ndarray:
    """Rows the blend can carry mass to: some weighted reference covers them.

    ``weights`` is ``(n_attrs, k)``, ``ref_row_sums`` is ``(k, n_sources)``
    of non-negative reference DM row sums.
    """
    return (weights > 0.0).astype(float) @ (ref_row_sums > 0.0).astype(float) > 0.0


def mass_preserved(
    predictions: np.ndarray, objectives: np.ndarray, covered: np.ndarray
) -> None:
    """Each attribute's target total equals its covered source total."""
    expected = np.where(covered, objectives, 0.0).sum(axis=1)
    got = predictions.sum(axis=1)
    error = np.abs(got - expected) / np.maximum(np.abs(expected), 1e-300)
    worst = int(np.argmax(error))
    if error[worst] > MASS_RTOL:
        raise CheckFailed(
            f"attribute {worst} total {got[worst]!r} != covered source "
            f"total {expected[worst]!r} (rel {error[worst]:.3e})"
        )


def alignment_output(
    predictions: np.ndarray,
    objectives: np.ndarray,
    weights: np.ndarray,
    ref_row_sums: np.ndarray,
) -> None:
    """Shape, finiteness, non-negativity and mass preservation."""
    if predictions.ndim != 2 or predictions.shape[0] != objectives.shape[0]:
        raise CheckFailed(f"predictions have shape {predictions.shape}")
    finite_nonnegative(predictions)
    mass_preserved(predictions, objectives, covered_rows(weights, ref_row_sums))


def close(actual: np.ndarray, expected: np.ndarray, rtol: float, what: str) -> None:
    """``actual`` equals ``expected`` to ``rtol`` of the largest magnitude."""
    if actual.shape != expected.shape:
        raise CheckFailed(f"{what}: shape {actual.shape} != {expected.shape}")
    scale = max(float(np.abs(expected).max()), 1e-300)
    diff = float(np.abs(actual - expected).max()) / scale
    if not diff <= rtol:
        raise CheckFailed(f"{what}: differs by {diff:.3e} relative (> {rtol:g})")


def nrmse(estimates: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Per-row RMSE / mean(truth) -- the paper's Fig. 5 criterion."""
    estimates = np.atleast_2d(estimates)
    truth = np.atleast_2d(truth)
    rmse = np.sqrt(np.mean((estimates - truth) ** 2, axis=1))
    return rmse / truth.mean(axis=1)
