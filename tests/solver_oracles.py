"""Independent Eq. 15 solvers the test suite checks the library against.

The library solves least squares over the probability simplex with one
kernel, the active-set method of :mod:`repro.core.solver`.  These
oracles reach the same optimum by other routes:

:func:`projected_gradient`
    The library's private FISTA fallback, run on its own rather than
    only when the active-set loop gives up.
:func:`frank_wolfe`
    Classic conditional gradient with exact line search, whose iterates
    are always feasible.  Slowest to converge but division-free.
:func:`scipy_reference_solution`
    ``scipy.optimize.minimize`` with SLSQP.

Each takes the design ``A`` and right-hand side ``b`` of
:func:`~repro.core.solver.simplex_lstsq` and returns a
:class:`~repro.core.solver.SimplexLstsqResult` whose objective is
computed from the residual.  ``ORACLES`` maps the names the
parametrized tests use to the two iterative oracles.  The module has no
``test_`` prefix, so pytest imports it without collecting it.
"""

from dataclasses import replace

import numpy as np

from repro.core.solver import (
    SimplexLstsqResult,
    _normal_equations,
    _objective,
    _projected_gradient,
    _unit,
    _validate_inputs,
    project_to_simplex,
)
from repro.errors import SolverError


def projected_gradient(A, b, max_iter=5000, tol=1e-12):
    """The library's projected-gradient kernel alone."""
    A, b = _validate_inputs(A, b)
    result = _projected_gradient(_normal_equations(A, b), max_iter, tol)
    return replace(result, objective=_objective(A, b, result.weights))


def _frank_wolfe(eqs, max_iter, tol):
    n = eqs.n
    w = np.full(n, 1.0 / n)
    for iteration in range(1, max_iter + 1):
        gradient = eqs.gradient(w)
        direction = _unit(n, int(np.argmin(gradient))) - w
        # Duality gap <= -gradient . direction; standard FW certificate.
        gap = float(-gradient @ direction)
        if gap <= tol * max(1.0, eqs.objective(w)):
            return SimplexLstsqResult(
                w, eqs.objective(w), iteration, "frank-wolfe"
            )
        # Exact line search for the quadratic objective; the curvature
        # ||A d||^2 is the Gram quadratic form d' (A'A) d.
        denom = float(direction @ eqs.gram @ direction)
        if denom <= 0.0:
            gamma = 0.0
        else:
            gamma = min(max(gap / denom, 0.0), 1.0)
        if gamma <= 0.0:
            return SimplexLstsqResult(
                w, eqs.objective(w), iteration, "frank-wolfe"
            )
        w = w + gamma * direction
    return SimplexLstsqResult(
        w, eqs.objective(w), max_iter, "frank-wolfe", converged=False
    )


def frank_wolfe(A, b, max_iter=20000, tol=1e-12):
    """Conditional gradient with exact line search."""
    A, b = _validate_inputs(A, b)
    result = _frank_wolfe(_normal_equations(A, b), max_iter, tol)
    return replace(result, objective=_objective(A, b, result.weights))


def scipy_reference_solution(A, b):
    """Cross-check built on ``scipy.optimize.minimize`` (SLSQP)."""
    from scipy import optimize

    A, b = _validate_inputs(A, b)
    n = A.shape[1]
    result = optimize.minimize(
        lambda w: _objective(A, b, w),
        np.full(n, 1.0 / n),
        jac=lambda w: (A.T @ (A @ w - b)),
        method="SLSQP",
        bounds=[(0.0, 1.0)] * n,
        constraints=[{"type": "eq", "fun": lambda w: w.sum() - 1.0}],
        options={"maxiter": 500, "ftol": 1e-14},
    )
    if not result.success and result.status != 8:
        raise SolverError(f"SLSQP reference failed: {result.message}")
    w = project_to_simplex(result.x)
    return SimplexLstsqResult(w, _objective(A, b, w), result.nit, "slsqp")


ORACLES = {
    "projected-gradient": projected_gradient,
    "frank-wolfe": frank_wolfe,
}
