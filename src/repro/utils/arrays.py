"""Array-coercion and validation helpers used at every public boundary.

The library's public functions accept anything array-like; these helpers
convert once, up front, into contiguous float64 arrays and raise
:class:`~repro.errors.ValidationError` with a message that names the
offending argument, so downstream numerical code can assume clean input.

This module is also the home of the tolerance-based comparison helpers
(:func:`is_zero`, :func:`all_close`): it is the single place where the
``float-eq`` lint rule permits raw float equality, so every "is this
numerically zero?" decision in the library shares one definition.
"""

from __future__ import annotations

from typing import Union

import numpy as np
from numpy.typing import ArrayLike, NDArray

from repro.errors import ValidationError

FloatArray = NDArray[np.float64]
BoolArray = NDArray[np.bool_]

#: Default absolute tolerance for :func:`is_zero`.  Aggregates in the
#: library are O(1)-O(1e6) counts, so 1e-12 is far below one float ulp
#: of any realistic total while still absorbing accumulated roundoff.
ZERO_ATOL = 1e-12


def as_float_array(values: ArrayLike, name: str = "values") -> FloatArray:
    """Coerce to a float64 array; ``ValidationError`` if it is not numeric.

    numpy rejects strings, mappings and ragged nesting with a bare
    ``ValueError`` or ``TypeError``; this names the argument instead.
    """
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be numeric: {exc}") from None


def as_float_vector(values: ArrayLike, name: str = "values") -> FloatArray:
    """Coerce to a 1-D float64 array; raise ``ValidationError`` otherwise."""
    arr = as_float_array(values, name=name)
    if arr.ndim == 0:
        raise ValidationError(f"{name} must be a vector, got a scalar")
    if arr.ndim != 1:
        raise ValidationError(
            f"{name} must be 1-dimensional, got shape {arr.shape}"
        )
    return np.ascontiguousarray(arr)


def check_finite(arr: ArrayLike, name: str = "values") -> FloatArray:
    """Raise ``ValidationError`` if ``arr`` contains NaN or infinities."""
    out = np.asarray(arr, dtype=float)
    if not np.all(np.isfinite(out)):
        bad = int(np.count_nonzero(~np.isfinite(out)))
        raise ValidationError(
            f"{name} contains {bad} non-finite entries (NaN or inf)"
        )
    return out


def as_nonnegative_vector(
    values: ArrayLike, name: str = "values"
) -> FloatArray:
    """Coerce to a finite, non-negative 1-D float array."""
    arr = as_float_vector(values, name=name)
    check_finite(arr, name=name)
    if np.any(arr < 0):
        worst = float(arr.min())
        raise ValidationError(
            f"{name} must be non-negative; minimum entry is {worst}"
        )
    return arr


def is_zero(
    values: Union[float, ArrayLike], atol: float = ZERO_ATOL
) -> Union[bool, BoolArray]:
    """Tolerance-based zero test; the library's replacement for ``== 0.0``.

    Scalars return a ``bool``; arrays return an elementwise boolean
    array.  ``atol=0.0`` degrades to an exact test for the rare places
    where an exact-zero sentinel is the contract.

    >>> is_zero(0.0), is_zero(5e-13), is_zero(1e-9)
    (True, True, False)
    """
    if isinstance(values, float):
        # np.isclose's own test with rtol=0, without its array set-up,
        # which costs tens of microseconds per scalar.
        return bool(abs(values) <= atol)
    result = np.isclose(values, 0.0, rtol=0.0, atol=atol)
    if np.ndim(result) == 0:
        return bool(result)
    return result


def all_close(
    a: ArrayLike,
    b: ArrayLike,
    rtol: float = 1e-9,
    atol: float = ZERO_ATOL,
) -> bool:
    """Elementwise closeness reduced to one bool (NaNs never compare)."""
    return bool(np.allclose(a, b, rtol=rtol, atol=atol))
