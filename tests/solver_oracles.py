"""Independent Eq. 15 solvers the test suite checks the library against.

The library solves least squares over the probability simplex with one
kernel, the active-set method of :mod:`repro.core.solver`.  These
oracles reach the same optimum by other routes:

:func:`projected_gradient`
    The library's private FISTA fallback, run on its own rather than
    only when the active-set loop gives up.
:func:`frank_wolfe`
    Conditional gradient with pairwise steps and exact line search,
    whose iterates are always feasible.  Slowest to converge, but it
    needs no projection and no linear solve.
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
    # Pairwise steps move weight from the worst-gradient vertex in the
    # support to the best vertex.  Classic steps toward the best vertex
    # zig-zag when the optimum sits on a face: on a 6 x 6 problem they
    # stalled 0.16 % above the optimum after 20,000 iterations, with
    # 2e-4 left on two vertices the optimum gives zero.  Pairwise steps
    # can empty a vertex, and converge linearly on the simplex.
    n = eqs.n
    w = np.full(n, 1.0 / n)
    for iteration in range(1, max_iter + 1):
        gradient = eqs.gradient(w)
        toward = int(np.argmin(gradient))
        # Duality gap of the classic step; standard FW certificate.
        gap = float(gradient @ w - gradient[toward])
        if gap <= tol * max(1.0, eqs.objective(w)):
            return SimplexLstsqResult(
                w, eqs.objective(w), iteration, "frank-wolfe"
            )
        support = np.flatnonzero(w > 0.0)
        away = int(support[np.argmax(gradient[support])])
        direction = _unit(n, toward) - _unit(n, away)
        # Exact line search for the quadratic objective, capped at the
        # weight the away vertex holds; the curvature ||A d||^2 is the
        # Gram quadratic form d' (A'A) d.
        slope = float(gradient[away] - gradient[toward])
        denom = float(direction @ eqs.gram @ direction)
        if denom <= 0.0:
            gamma = w[away]
        else:
            gamma = min(max(slope / denom, 0.0), w[away])
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
