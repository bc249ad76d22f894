"""Error metrics used in the paper's evaluation (§4.2).

The paper scores realignment accuracy with root mean square error between
estimated and true target aggregates, normalised by the mean of the
measured data (NRMSE) to compare across datasets of heterogeneous scale.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeMismatchError, ValidationError
from repro.utils.arrays import is_zero


def _paired(estimated, actual):
    est = np.asarray(estimated, dtype=float)
    act = np.asarray(actual, dtype=float)
    if est.shape != act.shape:
        raise ShapeMismatchError(
            f"estimated shape {est.shape} != actual shape {act.shape}"
        )
    if est.ndim != 1:
        raise ValidationError("metrics expect 1-D aggregate vectors")
    if len(est) == 0:
        raise ValidationError("metrics need at least one unit")
    if not (np.all(np.isfinite(est)) and np.all(np.isfinite(act))):
        raise ValidationError("metric inputs contain non-finite entries")
    return est, act


def _rmse(est, act):
    return float(np.sqrt(np.mean((est - act) ** 2)))


def rmse(estimated, actual):
    """Root mean square error between two aggregate vectors."""
    return _rmse(*_paired(estimated, actual))


def rmse_and_nrmse(estimated, actual):
    """``(rmse, nrmse)`` of one pair, validated once; each value is what
    :func:`rmse` and :func:`nrmse` return."""
    est, act = _paired(estimated, actual)
    denom = float(np.mean(act))
    if is_zero(denom):
        raise ValidationError(
            "NRMSE undefined: measured data has (numerically) zero mean"
        )
    error = _rmse(est, act)
    return error, error / abs(denom)


def nrmse(estimated, actual):
    """RMSE normalised by the mean of the *actual* (measured) data.

    This is the paper's Figure 5 criterion.  Raises when the measured
    mean is zero, because the normalisation is undefined there.
    """
    return rmse_and_nrmse(estimated, actual)[1]


def mae(estimated, actual):
    """Mean absolute error."""
    est, act = _paired(estimated, actual)
    return float(np.mean(np.abs(est - act)))


def mean_absolute_percentage_error(estimated, actual, epsilon=1e-12):
    """MAPE over units whose actual value is non-negligible.

    Units with ``|actual| <= epsilon`` are skipped (administrative counts
    are frequently zero in rural units and would blow up the ratio).
    """
    est, act = _paired(estimated, actual)
    mask = np.abs(act) > epsilon
    if not np.any(mask):
        raise ValidationError("MAPE undefined: all actual values are ~0")
    return float(np.mean(np.abs((est[mask] - act[mask]) / act[mask])))


def pearson_correlation(x, y):
    """Pearson correlation, 0.0 when either vector is constant."""
    a, b = _paired(x, y)
    if is_zero(float(a.std())) or is_zero(float(b.std())):
        return 0.0
    return float(np.corrcoef(a, b)[0, 1])
