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

The batch engine goes one step further with :class:`GramFactor`: the
shared Gram is Cholesky-factorized **once per stack**, and every
active-set iteration of every per-attribute solve reuses that factor
through rank-one updates/downdates (:class:`_FreeSetFactor`) instead of
re-factorizing the KKT system from scratch.  Any numerical breakdown of
the updated factor (semi-definite free-set Gram, Givens underflow)
raises :class:`_FactorBreakdown` and the iteration falls back to the
exact least-squares KKT solve, so the factor path is a pure
acceleration: the independent KKT optimality check in the active-set
loop gates every candidate either way.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.typing import ArrayLike, NDArray
from scipy.linalg.lapack import (  # type: ignore[attr-defined]
    dpotrf as _dpotrf,
    dtrtrs as _dtrtrs,
)

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
    gram: ArrayLike, atb: ArrayLike, btb: float,
    gram_checked: bool = False,
) -> _NormalEqs:
    """Validate Eq. 15 normal-equation inputs.

    ``gram_checked=True`` skips the square/finite checks on ``gram``:
    the batch engine re-submits one already-validated Gram matrix for
    every attribute, and per-call ``isfinite`` sweeps were measurable in
    the per-attribute solve budget.  Callers assert the provenance (the
    Gram behind a successfully built :class:`GramFactor`) before
    setting it.
    """
    gram = np.asarray(gram, dtype=float)
    atb = np.asarray(atb, dtype=float)
    if not gram_checked and (
        gram.ndim != 2 or gram.shape[0] != gram.shape[1]
    ):
        raise ValidationError(
            f"gram must be square, got shape {gram.shape}"
        )
    if atb.shape != (gram.shape[0],):
        raise ValidationError(
            f"atb must have shape ({gram.shape[0]},), got {atb.shape}"
        )
    if not gram_checked and not np.isfinite(gram).all():
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


# ----------------------------------------------------------------------
# Shared Cholesky factor (batch hot path)
# ----------------------------------------------------------------------
class GramFactor:
    """One upper-triangular Cholesky factor ``R`` with ``R'R = gram``.

    Built once per :class:`~repro.core.batch.ReferenceStack` and shared
    across all N per-attribute solves: the active-set kernel derives its
    per-free-set factors from this one via rank updates instead of
    re-factorizing ``O(k^3)`` per attribute per iteration.  Construction
    goes through :meth:`try_build`, which returns ``None`` (rather than
    raising) when the Gram is not numerically positive definite --
    callers then simply run the pre-existing least-squares KKT path.
    """

    __slots__ = ("gram", "upper")

    def __init__(self, gram: FloatArray, upper: FloatArray) -> None:
        self.gram = gram
        self.upper = upper

    @classmethod
    def try_build(cls, gram: ArrayLike) -> "GramFactor | None":
        """Factorize ``gram``; ``None`` if it is not positive definite.

        A successful build also certifies the Gram as square and
        finite, which lets :func:`simplex_lstsq_from_gram` skip the
        per-attribute re-validation of the shared matrix.
        """
        dense = np.asarray(gram, dtype=float)
        if (
            dense.ndim != 2
            or dense.shape[0] != dense.shape[1]
            or not np.all(np.isfinite(dense))
        ):
            _obs_event(
                "solver.factor_skipped",
                n=int(dense.shape[0]) if dense.ndim else 0,
            )
            return None
        try:
            lower = np.linalg.cholesky(dense)
        except np.linalg.LinAlgError:
            _obs_event("solver.factor_skipped", n=int(dense.shape[0]))
            return None
        _obs_event("solver.factor_built", n=int(dense.shape[0]))
        return cls(dense, np.ascontiguousarray(lower.T))

    @property
    def n(self) -> int:
        return int(self.gram.shape[0])


class _FactorBreakdown(Exception):
    """Updated Cholesky factor lost positive definiteness.

    Raised by :class:`_FreeSetFactor` whenever a rank update/downdate or
    a triangular solve produces a non-finite or non-SPD result; the
    active-set loop catches it and continues on the exact least-squares
    KKT path for the remainder of that solve.
    """


def _tri_solve(upper: FloatArray, rhs: FloatArray, trans: int) -> FloatArray:
    """Triangular solve via raw LAPACK ``dtrtrs``.

    The batch hot path makes thousands of solves against factors of a
    handful of references each, so the Python-side validation layers of
    ``scipy.linalg.solve_triangular`` (~10x the LAPACK call at k~8)
    dominate; calling the f2py routine directly keeps the per-solve
    overhead at the microsecond level.  ``trans=1`` solves
    ``upper' x = rhs``, ``trans=0`` solves ``upper x = rhs``.
    """
    x, info = _dtrtrs(upper, rhs, lower=0, trans=trans)
    if info != 0:
        raise _FactorBreakdown(
            f"triangular solve failed (LAPACK info={info})"
        )
    return x


class _FreeSetFactor:
    """Cholesky factor of ``gram[F][:, F]`` maintained under pivots.

    ``order`` lists the free set F as *global* column indices in factor
    (insertion) order; ``upper`` is upper triangular with
    ``upper' upper == gram[order][:, order]``.  Freeing a variable
    appends a column (triangular solve + scalar pivot, ``O(f^2)``);
    pinning one deletes a column and re-triangularizes with Givens
    rotations (``O(f^2)``) -- both asymptotically cheaper than the
    ``O(f^3)`` refactorization they replace.
    """

    __slots__ = ("gram", "upper", "order", "_idx", "_unsort")

    def __init__(self, factor: GramFactor) -> None:
        self.gram = factor.gram
        self.upper: FloatArray = factor.upper.copy()
        self.order: list[int] = list(range(factor.n))
        # Cached ``np.asarray(order)`` and its stable argsort; the hot
        # loop calls ``solve`` more often than it pivots, so these are
        # rebuilt lazily on the first solve after a pivot.  The initial
        # order is the identity, so both caches start as ``arange``.
        self._idx: NDArray[np.intp] | None = np.arange(factor.n)
        self._unsort: NDArray[np.intp] | None = np.arange(factor.n)

    def solve(self, atb: FloatArray) -> tuple[FloatArray, float]:
        """Equality-constrained solve over the current free set.

        Returns ``(w_free, lam)`` matching :func:`_equality_solve`'s
        conventions exactly: ``w_free`` is ordered by ascending global
        index (the ``np.flatnonzero(free)`` order) and ``lam`` is the
        multiplier of the KKT system ``[[2G, -1], [1', 0]]``.  The
        solution decomposes as ``w = x + c y`` with ``G x = atb_F`` and
        ``G y = 1`` (two triangular-solve pairs against the cached
        factor), ``c = (1 - sum x) / sum y`` and ``lam = 2 c``.
        """
        idx = self._idx
        if idx is None or self._unsort is None:
            idx = self._idx = np.asarray(self.order, dtype=np.intp)
            self._unsort = idx.argsort(kind="stable")
        f = len(idx)
        rhs = np.empty((f, 2))
        rhs[:, 0] = atb[idx]
        rhs[:, 1] = 1.0
        half = _tri_solve(self.upper, rhs, trans=1)
        xy = _tri_solve(self.upper, half, trans=0)
        x = xy[:, 0]
        y = xy[:, 1]
        y_total = float(y.sum())
        if not np.isfinite(y_total) or y_total == 0.0:  # repro-lint: allow[float-eq] exact-zero division guard; any non-zero sum is usable
            raise _FactorBreakdown("degenerate equality direction")
        c = (1.0 - float(x.sum())) / y_total
        w_free = x + c * y
        if not (np.isfinite(c) and np.isfinite(w_free).all()):
            raise _FactorBreakdown("non-finite factored solution")
        return w_free[self._unsort], 2.0 * c

    def add(self, j: int) -> None:
        """Free global column ``j``: append it to the factor."""
        self._idx = self._unsort = None
        f = len(self.order)
        gjj = float(self.gram[j, j])
        if f == 0:
            if not np.isfinite(gjj) or gjj <= 0.0:
                raise _FactorBreakdown("non-positive diagonal pivot")
            self.upper = np.array([[float(np.sqrt(gjj))]])
            self.order = [j]
            return
        idx = np.asarray(self.order, dtype=np.intp)
        u = _tri_solve(self.upper, self.gram[idx, j], trans=1)
        rho_sq = gjj - float(u @ u)
        if not (np.isfinite(u).all() and np.isfinite(rho_sq)):
            raise _FactorBreakdown("non-finite rank-one update")
        if rho_sq <= 0.0:
            raise _FactorBreakdown("update lost positive definiteness")
        grown = np.zeros((f + 1, f + 1))
        grown[:f, :f] = self.upper
        grown[:f, f] = u
        grown[f, f] = float(np.sqrt(rho_sq))
        self.upper = grown
        self.order.append(j)

    def drop(self, j: int) -> None:
        """Pin global column ``j``: delete it and re-triangularize."""
        self._idx = self._unsort = None
        try:
            pos = self.order.index(j)
        except ValueError:
            raise _FactorBreakdown(
                f"column {j} not in the tracked free set"
            ) from None
        self.order.pop(pos)
        f = self.upper.shape[0]
        trimmed = np.delete(self.upper, pos, axis=1)
        # Givens rotations sweep the subdiagonal spike left behind by the
        # column deletion; ``hypot`` keeps every new diagonal entry
        # non-negative, so the result is again a valid Cholesky factor.
        for k in range(pos, f - 1):
            a = float(trimmed[k, k])
            b = float(trimmed[k + 1, k])
            r = float(np.hypot(a, b))
            if r == 0.0:  # repro-lint: allow[float-eq] hypot is exactly 0 only when both entries are; identity rotation is the correct branch
                cos, sin = 1.0, 0.0
            else:
                cos, sin = a / r, b / r
            top = trimmed[k, k:].copy()
            bottom = trimmed[k + 1, k:]
            trimmed[k, k:] = cos * top + sin * bottom
            trimmed[k + 1, k:] = cos * bottom - sin * top
            trimmed[k, k] = r
            trimmed[k + 1, k] = 0.0
        self.upper = np.ascontiguousarray(trimmed[: f - 1, :])

    def reset(self, columns: "list[int] | NDArray[np.intp]") -> None:
        """Re-anchor the factor on an explicit free set from scratch.

        Runs on the block-pin hot path, so the factorization is a raw
        LAPACK ``dpotrf``: only the upper triangle of ``self.upper`` is
        written (the strictly-lower part is unspecified), which is fine
        because every consumer of the factor -- ``dtrtrs`` solves, the
        ``add`` append and the ``drop`` Givens sweep -- reads the upper
        triangle exclusively.
        """
        self._idx = self._unsort = None
        idx = np.asarray(columns, dtype=np.intp)
        upper, info = _dpotrf(
            self.gram[idx[:, None], idx], lower=0
        )
        if info != 0:
            raise _FactorBreakdown("reset sub-Gram not SPD")
        self.upper = upper
        self.order = idx.tolist()


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
    gram: ArrayLike,
    atb: ArrayLike,
    btb: float = 0.0,
    factor: GramFactor | None = None,
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
    factor:
        Optional pre-built :class:`GramFactor` of the *same* ``gram``
        (``GramFactor.try_build(gram)``).  Lets the active-set kernel
        reuse one Cholesky factorization across the N per-attribute
        solves.  Every candidate is still verified against the exact
        KKT conditions, so a stale or ill-conditioned factor degrades
        speed, never correctness.

    Returns
    -------
    SimplexLstsqResult
    """
    eqs = _validate_normal_inputs(
        gram, atb, btb,
        gram_checked=factor is not None and factor.gram is gram,
    )
    if factor is not None and factor.n != eqs.n:
        raise ValidationError(
            f"factor is {factor.n}x{factor.n} but gram is "
            f"{eqs.n}x{eqs.n}"
        )
    result = _active_set(eqs, factor)
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
    gram: FloatArray, atb: FloatArray, free: NDArray[np.bool_]
) -> tuple[FloatArray, float]:
    """Solve the KKT system of min ||A_F w - b||^2 s.t. sum(w_F) = 1.

    Returns ``(w_free, lam)`` where ``lam`` is the equality multiplier,
    using least-squares on the KKT matrix so rank-deficient reference
    sets (perfectly collinear references) still yield a solution.
    """
    idx = np.flatnonzero(free)
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


def _active_set(
    eqs: _NormalEqs, factor: GramFactor | None = None
) -> SimplexLstsqResult:
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
    # ``state`` mirrors ``free`` as an updatable Cholesky factor of the
    # free-set Gram; any numerical breakdown permanently drops to the
    # exact least-squares KKT solve for the rest of this solve.  The
    # KKT optimality check below gates candidates from either path, so
    # the factor only ever changes speed, not the accepted answer.
    free = np.ones(n, dtype=bool)
    w = np.full(n, 1.0 / n)
    state = _FreeSetFactor(factor) if factor is not None else None
    iterations = 0
    stalls = 0
    while iterations < 50 * n:
        iterations += 1
        w_free = lam = None
        if state is not None:
            try:
                w_free, lam = state.solve(atb)
            except _FactorBreakdown:
                _obs_incr("solver.factor_breakdowns")
                state = None
        if w_free is None or lam is None:
            w_free, lam = _equality_solve(gram, atb, free)
        idx = free.nonzero()[0]
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
            if state is not None:
                try:
                    state.add(int(worst))
                except _FactorBreakdown:
                    _obs_incr("solver.factor_breakdowns")
                    state = None
            w = candidate
            stalls += 1
            if stalls > 2 * n:
                # Degenerate cycling (ties in a rank-deficient Gram matrix):
                # hand off to the always-convergent iterative solver.
                return _projected_gradient(eqs)
        else:
            if state is not None:
                # Speculative block pin (the Bro & de Jong FNNLS move):
                # pin every negative coordinate at once and re-anchor
                # the factor on the survivors with one small fresh
                # Cholesky, instead of line-searching variables to zero
                # one iteration at a time.  Over-pinning is repaired by
                # the KKT re-free step above, each pin strictly shrinks
                # the free set, and every accepted answer still passes
                # the exact optimality check -- so this only changes
                # how fast the optimum is reached, not which point is
                # accepted.
                negative = w_free < -_TOL
                keep = idx[~negative]
                if len(keep):
                    free[idx[negative]] = False
                    w = np.zeros(n)
                    w[keep] = 1.0 / len(keep)
                    try:
                        state.reset(keep)
                    except _FactorBreakdown:
                        _obs_incr("solver.factor_breakdowns")
                        state = None
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
            for j in hit:
                free[j] = False
                w[j] = 0.0
                if state is not None:
                    try:
                        state.drop(int(j))
                    except _FactorBreakdown:
                        _obs_incr("solver.factor_breakdowns")
                        state = None
            if not free.any():
                # Numerical corner: restart from the best single column.
                best = int(
                    np.argmin(
                        [eqs.objective(_unit(n, j)) for j in range(n)]
                    )
                )
                w = _unit(n, best)
                free[best] = True
                if state is not None:
                    try:
                        state.reset([best])
                    except _FactorBreakdown:
                        _obs_incr("solver.factor_breakdowns")
                        state = None
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
