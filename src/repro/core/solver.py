"""Simplex-constrained least squares: paper Eq. 15.

GeoAlign's weight-learning step solves

    minimise    0.5 * || A beta - b ||^2
    subject to  sum(beta) = 1,  beta >= 0

i.e. least squares over the probability simplex.  One kernel solves it:
an exact, finite-termination active-set iteration (NNLS-style, with the
single equality constraint folded into the KKT system).  On the rare
degenerate problem where that loop cycles, finds no blocking variable
or reaches its ``50 k`` iteration cap, it hands over to a private
accelerated projected-gradient kernel (FISTA with the Duchi et al. 2008
simplex projection); the result's ``method`` then reads
``"projected-gradient"`` and its ``solver.converged`` event carries
``fallback=True``.  The independent oracles the test suite and the
solver ablation bench check the kernel against -- projected gradient on
its own, Frank-Wolfe and scipy's SLSQP -- live in
``tests/solver_oracles.py``.

Internally the kernel operates on the *normal equations* -- the Gram
matrix ``A^T A``, the projected right-hand side ``A^T b``, and the
constant ``b^T b`` -- never on ``A`` itself.  That factoring is what the
batch alignment engine (:mod:`repro.core.batch`) exploits: when N
objective attributes share one reference design, ``A^T A`` is computed
once and every per-attribute solve enters through
:func:`simplex_lstsq_from_gram`.

Each solve takes one of two routes for its free-set systems, chosen by
one Cholesky attempt on the Gram.  A positive-definite Gram solves every
active-set iteration afresh with ``np.linalg.solve`` on the free-set
sub-Gram (every principal sub-Gram of a positive-definite Gram is
positive definite too); any other Gram -- collinear references -- takes
the least-squares KKT solve on every iteration.  Rounding can pass an
exactly duplicated reference through the Cholesky attempt; the first
free-set solve that then meets a singular sub-Gram moves the rest of
its solve to the KKT route.  The KKT optimality check in the
active-set loop gates every candidate on either route.  Everything here
runs on numpy's LAPACK: SciPy bundles its own BLAS, whose tiny calls
slow down by orders of magnitude when they compete with numpy's thread
pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.typing import ArrayLike, NDArray

from repro.errors import SolverError, ValidationError
from repro.obs.trace import event as _obs_event
from repro.obs.trace import incr as _obs_incr

FloatArray = NDArray[np.float64]

#: Convergence and KKT tolerance of every Eq. 15 solve.
_TOL = 1e-12


@dataclass(frozen=True)
class SimplexLstsqResult:
    """Solution of one simplex-constrained least-squares problem.

    Attributes
    ----------
    weights:
        The optimal simplex vector (non-negative, sums to one).
    objective:
        ``0.5 * ||A w - b||^2`` at the solution.
    iterations:
        Solver iterations used.
    method:
        The kernel that produced the result: ``"active-set"``, or
        ``"projected-gradient"`` when the active-set loop fell back.
    converged:
        ``False`` when the projected-gradient fallback exhausted its
        iteration cap without meeting its convergence certificate; the
        returned weights are still feasible, just not certified optimal.
        The health monitors count these per run.
    """

    weights: FloatArray
    objective: float
    iterations: int
    method: str
    converged: bool = True


def _validate_inputs(
    A: ArrayLike, b: ArrayLike
) -> tuple[FloatArray, FloatArray]:
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2:
        raise ValidationError(f"A must be 2-D, got shape {A.shape}")
    if b.ndim != 1:
        raise ValidationError(f"b must be 1-D, got shape {b.shape}")
    if A.shape[0] != b.shape[0]:
        raise ValidationError(
            f"A has {A.shape[0]} rows but b has {b.shape[0]} entries"
        )
    if A.shape[1] == 0:
        raise ValidationError("A must have at least one column (reference)")
    if not np.all(np.isfinite(A)):
        raise ValidationError("A contains non-finite entries")
    if not np.all(np.isfinite(b)):
        raise ValidationError("b contains non-finite entries")
    return A, b


def _objective(A: FloatArray, b: FloatArray, w: FloatArray) -> float:
    r = A @ w - b
    return 0.5 * float(r @ r)


def _emit_solver_event(result: SimplexLstsqResult, n: int) -> None:
    """Record one ``solver.converged`` event on any active trace.

    ``backend`` is the kernel that actually produced the result; it is
    ``"projected-gradient"`` exactly when the active-set solver fell
    back (degenerate cycling / numerical corners), so ``fallback``
    makes silent fallbacks observable.  The companion counters
    (``solver.solves`` / ``solver.fallbacks`` /
    ``solver.nonconverged``) give any active trace the per-run rates
    the health monitors check; with tracing off every call here is a
    no-op costing one context-variable read.
    """
    fallback = result.method != "active-set"
    _obs_event(
        "solver.converged",
        backend=result.method,
        iterations=result.iterations,
        objective=result.objective,
        fallback=fallback,
        converged=result.converged,
        n_references=n,
    )
    _obs_incr("solver.solves")
    if fallback:
        _obs_incr("solver.fallbacks")
    if not result.converged:
        _obs_incr("solver.nonconverged")


@dataclass(frozen=True)
class _NormalEqs:
    """The quadratic ``0.5 w'Gw - (A'b)'w + 0.5 b'b`` every kernel runs on.

    ``gram`` is ``A^T A``, ``atb`` is ``A^T b`` and ``btb`` is
    ``b^T b``; together they determine the least-squares objective up to
    float rounding, without ever touching the (tall) design matrix.
    """

    gram: FloatArray
    atb: FloatArray
    btb: float

    @property
    def n(self) -> int:
        return self.gram.shape[0]

    def objective(self, w: FloatArray) -> float:
        """``0.5||Aw - b||^2`` via the quadratic form, clamped at 0.

        The expanded form can round to a tiny negative number when the
        residual is near zero; the clamp keeps the reported objective a
        valid squared norm.
        """
        value = (
            0.5 * float(w @ self.gram @ w)
            - float(self.atb @ w)
            + 0.5 * self.btb
        )
        return max(value, 0.0)

    def gradient(self, w: FloatArray) -> FloatArray:
        result: FloatArray = self.gram @ w - self.atb
        return result


def _normal_equations(A: FloatArray, b: FloatArray) -> _NormalEqs:
    return _NormalEqs(A.T @ A, A.T @ b, float(b @ b))


def _validate_normal_inputs(
    gram: ArrayLike, atb: ArrayLike, btb: float
) -> _NormalEqs:
    """Validate Eq. 15 normal-equation inputs."""
    gram = np.asarray(gram, dtype=float)
    atb = np.asarray(atb, dtype=float)
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise ValidationError(
            f"gram must be square, got shape {gram.shape}"
        )
    if atb.shape != (gram.shape[0],):
        raise ValidationError(
            f"atb must have shape ({gram.shape[0]},), got {atb.shape}"
        )
    if not np.isfinite(gram).all():
        raise ValidationError("gram contains non-finite entries")
    if not np.isfinite(atb).all():
        raise ValidationError("atb contains non-finite entries")
    if not np.isfinite(btb) or btb < 0:
        raise ValidationError(
            f"btb must be a finite non-negative float, got {btb}"
        )
    if gram.shape[0] == 0:
        raise ValidationError("gram must have at least one column")
    return _NormalEqs(gram, atb, float(btb))


def simplex_lstsq(A: ArrayLike, b: ArrayLike) -> SimplexLstsqResult:
    """Solve ``min 0.5||A w - b||^2  s.t.  sum(w)=1, w>=0``.

    Parameters
    ----------
    A:
        ``(m, k)`` design matrix; columns are (normalised) reference
        aggregate vectors at the source level.
    b:
        ``(m,)`` right-hand side; the (normalised) objective attribute at
        the source level.

    Returns
    -------
    SimplexLstsqResult
    """
    A, b = _validate_inputs(A, b)
    result = _active_set(_normal_equations(A, b))
    # Report the objective from the actual residual (numerically cleaner
    # than the expanded quadratic form when the fit is near-exact).
    result = replace(result, objective=_objective(A, b, result.weights))
    _emit_solver_event(result, A.shape[1])
    return result


def simplex_lstsq_from_gram(
    gram: ArrayLike, atb: ArrayLike, btb: float = 0.0
) -> SimplexLstsqResult:
    """Solve Eq. 15 given precomputed normal equations.

    The batch engine's entry point: when N objectives share one design
    matrix, ``gram = A^T A`` is computed once and each attribute only
    contributes its ``atb = A^T b`` (and optionally ``btb = b^T b``,
    which offsets the reported objective but never changes the weights).

    Parameters
    ----------
    gram:
        ``(k, k)`` Gram matrix ``A^T A``.
    atb:
        ``(k,)`` projected right-hand side ``A^T b``.
    btb:
        ``b^T b``; only used to report the objective value.

    Returns
    -------
    SimplexLstsqResult
    """
    eqs = _validate_normal_inputs(gram, atb, btb)
    result = _active_set(eqs)
    _emit_solver_event(result, eqs.n)
    return result


# ----------------------------------------------------------------------
# Simplex projection (Duchi, Shalev-Shwartz, Singer, Chandra 2008)
# ----------------------------------------------------------------------
def project_to_simplex(v: ArrayLike) -> FloatArray:
    """Euclidean projection of a vector onto the probability simplex."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValidationError(f"can only project vectors, got shape {v.shape}")
    n = len(v)
    if n == 0:
        raise ValidationError("cannot project an empty vector")
    if not np.isfinite(v).all():
        raise ValidationError("cannot project non-finite entries")
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho_candidates = u - css / np.arange(1, n + 1) > 0
    rho = int(np.nonzero(rho_candidates)[0][-1])
    theta = css[rho] / (rho + 1)
    return np.maximum(v - theta, 0.0)


# ----------------------------------------------------------------------
# Active set
# ----------------------------------------------------------------------
def _equality_solve(
    gram: FloatArray, atb: FloatArray, idx: NDArray[np.intp]
) -> tuple[FloatArray, float]:
    """Solve the KKT system of min ||A_F w - b||^2 s.t. sum(w_F) = 1.

    ``idx`` lists the free set F in ascending order.  Returns
    ``(w_free, lam)`` where ``lam`` is the equality multiplier, using
    least-squares on the KKT matrix so rank-deficient reference sets
    (perfectly collinear references) still yield a solution.
    """
    k = len(idx)
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = 2.0 * gram[np.ix_(idx, idx)]
    kkt[:k, k] = -1.0
    kkt[k, :k] = 1.0
    rhs = np.zeros(k + 1)
    rhs[:k] = 2.0 * atb[idx]
    rhs[k] = 1.0
    solution, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    return solution[:k], float(solution[k])


def _positive_definite(gram: FloatArray) -> bool:
    """Whether ``gram`` has a Cholesky factor: the route check of a solve."""
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return False
    return True


def _free_set_solve(
    gram: FloatArray, atb: FloatArray, idx: NDArray[np.intp]
) -> tuple[FloatArray, float]:
    """:func:`_equality_solve` for a positive-definite free-set Gram.

    The solution decomposes as ``w = x + c y`` with ``G_F x = atb_F``
    and ``G_F y = 1`` (one two-column solve), ``c = (1 - sum x) / sum
    y`` and the multiplier ``lam = 2 c``.  Raises ``LinAlgError`` when
    ``G_F`` is singular after all: a Gram with an exactly duplicated
    column can pass the Cholesky check by rounding, and LU then meets a
    zero pivot or ``sum y = 1' G_F^-1 1`` comes out non-positive or
    non-finite.
    """
    sub = gram if len(idx) == gram.shape[0] else gram[idx[:, None], idx]
    rhs = np.empty((len(idx), 2))
    rhs[:, 0] = atb[idx]
    rhs[:, 1] = 1.0
    xy = np.linalg.solve(sub, rhs)
    # Finite column sums mean finite columns (an inf or nan entry
    # leaves its sum inf or nan).
    x_total, y_total = xy.sum(axis=0).tolist()
    if not (0.0 < y_total < math.inf and math.isfinite(x_total)):
        raise np.linalg.LinAlgError("free-set Gram is singular")
    c = (1.0 - x_total) / y_total
    return xy[:, 0] + c * xy[:, 1], 2.0 * c


def _active_set(eqs: _NormalEqs) -> SimplexLstsqResult:
    n = eqs.n
    if n == 1:
        # One reference: the constraint pins the answer.
        w = np.ones(1)
        return SimplexLstsqResult(w, eqs.objective(w), 0, "active-set")
    gram = eqs.gram
    atb = eqs.atb
    scale = max(float(np.abs(gram).max()), 1.0)
    kkt_tol = _TOL * scale + 1e-12

    # Start from the uniform feasible point with all variables free.
    # ``fresh`` is the route: free-set solves on a positive-definite
    # Gram, else the exact least-squares KKT solve.  A free-set solve
    # that finds its sub-Gram singular moves the rest of this solve to
    # the KKT route.  The KKT optimality check below gates candidates
    # from either route.
    free = np.ones(n, dtype=bool)
    w = np.full(n, 1.0 / n)
    fresh = _positive_definite(gram)
    iterations = 0
    stalls = 0
    while iterations < 50 * n:
        iterations += 1
        idx = free.nonzero()[0]
        if fresh:
            try:
                w_free, lam = _free_set_solve(gram, atb, idx)
            except np.linalg.LinAlgError:
                fresh = False
        if not fresh:
            w_free, lam = _equality_solve(gram, atb, idx)
        if (w_free >= -_TOL).all():
            candidate = np.zeros(n)
            candidate[idx] = np.maximum(w_free, 0.0)
            total = candidate.sum()
            if total <= 0:
                raise SolverError("active-set produced a zero weight vector")
            candidate /= total
            # KKT check on zeroed variables: reduced gradient must be >= lam.
            half_gradient = eqs.gradient(candidate)
            zero = ~free
            violations = lam - 2.0 * half_gradient[zero]
            if not (violations > kkt_tol).any():
                # 0.5 w'Gw - atb'w + 0.5 btb, rearranged through the
                # half-gradient ``Gw - atb`` already in hand so the
                # accept path costs one dot product, not a second
                # ``gram @ w``.
                objective = max(
                    0.5
                    * float(
                        candidate @ half_gradient
                        - atb @ candidate
                        + eqs.btb
                    ),
                    0.0,
                )
                return SimplexLstsqResult(
                    candidate, objective, iterations, "active-set",
                )
            worst = zero.nonzero()[0][int(np.argmax(violations))]
            free[worst] = True
            w = candidate
            stalls += 1
            if stalls > 2 * n:
                # Degenerate cycling (ties in a rank-deficient Gram matrix):
                # hand off to the always-convergent iterative solver.
                return _projected_gradient(eqs)
        else:
            if fresh:
                # Speculative block pin (the Bro & de Jong FNNLS move):
                # pin every negative coordinate at once and restart from
                # the uniform point on the survivors, instead of
                # line-searching variables to zero one iteration at a
                # time.  Over-pinning is repaired by the KKT re-free
                # step above, each pin strictly shrinks the free set,
                # and every accepted answer still passes the exact
                # optimality check -- so this only changes how fast the
                # optimum is reached, not which point is accepted.
                negative = w_free < -_TOL
                keep = idx[~negative]
                if len(keep):
                    free[idx[negative]] = False
                    w = np.zeros(n)
                    w[keep] = 1.0 / len(keep)
                    continue
            # Infeasible equality solution: step from w toward it until the
            # first free variable hits zero, then pin that variable.
            direction = np.zeros(n)
            direction[idx] = w_free
            moving = free & (direction < w)
            with np.errstate(divide="ignore", invalid="ignore"):
                alphas = np.where(
                    moving, w / (w - direction), np.inf
                )
            alpha = float(np.min(alphas))
            alpha = min(max(alpha, 0.0), 1.0)
            w = w + alpha * (direction - w)
            hit = (moving & (alphas <= alpha + 1e-15)).nonzero()[0]
            if len(hit) == 0:
                return _projected_gradient(eqs)
            free[hit] = False
            w[hit] = 0.0
            if not free.any():
                # Numerical corner: restart from the best single column.
                best = int(
                    np.argmin(
                        [eqs.objective(_unit(n, j)) for j in range(n)]
                    )
                )
                w = _unit(n, best)
                free[best] = True
    return _projected_gradient(eqs)


def _unit(n: int, j: int) -> FloatArray:
    e = np.zeros(n)
    e[j] = 1.0
    return e


# ----------------------------------------------------------------------
# Projected gradient (FISTA-style acceleration)
# ----------------------------------------------------------------------
def _projected_gradient(
    eqs: _NormalEqs, max_iter: int = 5000, tol: float = _TOL
) -> SimplexLstsqResult:
    """The active-set kernel's fallback for degenerate problems.

    Always feasible and always convergent, but iterative: it stops when
    the objective moves by at most ``tol`` (relative) over ten steps, or
    after ``max_iter`` steps with ``converged=False``.
    """
    n = eqs.n
    # Lipschitz constant of the gradient = largest eigenvalue of Gram.
    lipschitz = float(np.linalg.eigvalsh(eqs.gram)[-1])
    if lipschitz <= 0.0:
        # A is the zero matrix: every simplex point is optimal.
        w = np.full(n, 1.0 / n)
        return SimplexLstsqResult(
            w, eqs.objective(w), 0, "projected-gradient"
        )
    step = 1.0 / lipschitz
    w = np.full(n, 1.0 / n)
    y = w.copy()
    t = 1.0
    previous_obj = eqs.objective(w)
    for iteration in range(1, max_iter + 1):
        gradient = eqs.gradient(y)
        w_next = project_to_simplex(y - step * gradient)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = w_next + ((t - 1.0) / t_next) * (w_next - w)
        w, t = w_next, t_next
        if iteration % 10 == 0:
            obj = eqs.objective(w)
            if abs(previous_obj - obj) <= tol * max(1.0, obj):
                return SimplexLstsqResult(
                    w, obj, iteration, "projected-gradient"
                )
            previous_obj = obj
    return SimplexLstsqResult(
        w, eqs.objective(w), max_iter, "projected-gradient", converged=False
    )
