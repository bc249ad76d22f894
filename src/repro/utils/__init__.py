"""Shared low-level helpers: RNG handling and array checks."""

from repro.utils.rng import RngLike, as_generator, as_rng, spawn_rngs
from repro.utils.arrays import (
    ZERO_ATOL,
    all_close,
    as_float_vector,
    as_nonnegative_vector,
    check_finite,
    is_zero,
)

__all__ = [
    "RngLike",
    "ZERO_ATOL",
    "all_close",
    "as_float_vector",
    "as_generator",
    "as_nonnegative_vector",
    "as_rng",
    "check_finite",
    "is_zero",
    "spawn_rngs",
]
