"""Unit and property tests for the simplex-constrained LS solver.

Tests parametrized over ``METHODS`` run the library's active-set kernel
and the two iterative oracles of ``tests/solver_oracles.py`` on the same
problem; SLSQP is the fourth, independent reference.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.core.solver import (
    GramFactor,
    project_to_simplex,
    simplex_lstsq,
    simplex_lstsq_from_gram,
)
from repro.errors import ValidationError
from tests.solver_oracles import (
    ORACLES,
    projected_gradient,
    scipy_reference_solution,
)

METHODS = ("active-set", "projected-gradient", "frank-wolfe")


def _solve(method, A, b, **oracle_options):
    """The library kernel, or the named oracle with its options."""
    if method == "active-set":
        return simplex_lstsq(A, b)
    return ORACLES[method](A, b, **oracle_options)


def _random_problem(seed, m=None, k=None):
    rng = np.random.default_rng(seed)
    m = m or int(rng.integers(4, 50))
    k = k or int(rng.integers(2, 9))
    scales = rng.random(k) + 0.05
    A = rng.random((m, k)) * scales
    b = rng.random(m)
    return A, b


def _feasible(w, tol=1e-8):
    return abs(w.sum() - 1.0) <= tol and np.all(w >= -tol)


class TestProjection:
    def test_already_on_simplex(self):
        w = np.array([0.2, 0.3, 0.5])
        assert np.allclose(project_to_simplex(w), w)

    def test_uniform_from_equal_entries(self):
        assert np.allclose(
            project_to_simplex(np.array([5.0, 5.0])), [0.5, 0.5]
        )

    def test_negative_entries_clipped(self):
        w = project_to_simplex(np.array([-1.0, 2.0]))
        assert _feasible(w)
        assert w[0] == 0.0

    def test_single_entry(self):
        assert project_to_simplex(np.array([42.0])) == pytest.approx([1.0])

    def test_rejects_matrix(self):
        with pytest.raises(ValidationError):
            project_to_simplex(np.ones((2, 2)))

    @pytest.mark.parametrize(
        "values", [[], [np.nan, 1.0], [np.inf, 1.0]],
        ids=["empty", "nan", "inf"],
    )
    def test_rejects_empty_or_non_finite(self, values):
        with pytest.raises(ValidationError):
            project_to_simplex(np.array(values))

    @given(
        st.lists(
            st.floats(-100, 100, allow_nan=False), min_size=1, max_size=20
        )
    )
    def test_projection_always_feasible(self, values):
        w = project_to_simplex(np.array(values))
        assert _feasible(w)

    @given(
        st.lists(
            st.floats(-10, 10, allow_nan=False), min_size=2, max_size=10
        ),
        st.integers(0, 1000),
    )
    def test_projection_is_closest_point(self, values, seed):
        """No random feasible point is closer than the projection."""
        v = np.array(values)
        w = project_to_simplex(v)
        rng = np.random.default_rng(seed)
        other = rng.dirichlet(np.ones(len(v)))
        assert np.linalg.norm(v - w) <= np.linalg.norm(v - other) + 1e-9


class TestSimplexLstsq:
    @pytest.mark.parametrize("method", METHODS)
    def test_feasibility(self, method):
        A, b = _random_problem(0)
        result = _solve(method, A, b)
        assert _feasible(result.weights)

    @pytest.mark.parametrize("method", METHODS)
    def test_exact_recovery_of_interior_solution(self, method):
        """When b = A @ w* with w* in the simplex interior, recover w*."""
        rng = np.random.default_rng(1)
        A = rng.random((40, 3))
        w_true = np.array([0.2, 0.5, 0.3])
        b = A @ w_true
        result = _solve(method, A, b, tol=1e-14)
        assert np.allclose(result.weights, w_true, atol=2e-4)
        assert result.objective < 1e-6

    @pytest.mark.parametrize("method", METHODS)
    def test_vertex_solution(self, method):
        """Objective equal to one column picks that column."""
        rng = np.random.default_rng(2)
        A = rng.random((30, 4))
        b = A[:, 2].copy()
        result = _solve(method, A, b, tol=1e-14)
        assert result.weights[2] > 0.99

    def test_single_reference_is_pinned(self):
        A = np.arange(6, dtype=float).reshape(6, 1)
        result = simplex_lstsq(A, np.ones(6))
        assert result.weights == pytest.approx([1.0])

    @pytest.mark.parametrize("seed", range(20))
    def test_active_set_matches_scipy(self, seed):
        A, b = _random_problem(seed)
        ours = simplex_lstsq(A, b)
        ref = scipy_reference_solution(A, b)
        assert ours.objective <= ref.objective * (1 + 1e-6) + 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_methods_agree_on_objective(self, seed):
        A, b = _random_problem(seed + 100)
        objectives = [
            _solve(m, A, b, tol=1e-12).objective for m in METHODS
        ]
        best = min(objectives)
        scale = max(best, 1e-12)
        assert max(objectives) - best <= 1e-4 * scale + 1e-7

    def test_collinear_columns_do_not_crash(self):
        rng = np.random.default_rng(3)
        col = rng.random(20)
        A = np.column_stack([col, col, col * 2])
        result = simplex_lstsq(A, col * 1.5)
        assert _feasible(result.weights)

    def test_zero_matrix(self):
        A = np.zeros((5, 3))
        for method in ("active-set", "projected-gradient"):
            result = _solve(method, A, np.ones(5))
            assert _feasible(result.weights), method

    def test_zero_rhs(self):
        A, _ = _random_problem(4)
        result = simplex_lstsq(A, np.zeros(A.shape[0]))
        assert _feasible(result.weights)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValidationError):
            simplex_lstsq(np.ones((3, 2)), np.ones(4))

    def test_rejects_nan(self):
        A = np.ones((3, 2))
        A[0, 0] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            simplex_lstsq(A, np.ones(3))

    def test_rejects_empty_columns(self):
        with pytest.raises(ValidationError):
            simplex_lstsq(np.ones((3, 0)), np.ones(3))

    def test_rejects_scalar_b(self):
        with pytest.raises(ValidationError):
            simplex_lstsq(np.ones((3, 2)), 1.0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_active_set_never_beaten_by_random_feasible_point(self, seed):
        """Optimality spot-check against random simplex points."""
        A, b = _random_problem(seed)
        result = simplex_lstsq(A, b)
        rng = np.random.default_rng(seed + 1)
        for _ in range(20):
            w = rng.dirichlet(np.ones(A.shape[1]))
            alt = 0.5 * np.sum((A @ w - b) ** 2)
            assert result.objective <= alt + 1e-9

    def test_result_metadata(self):
        A, b = _random_problem(6)
        result = simplex_lstsq(A, b)
        assert result.method == "active-set"
        assert result.iterations >= 1
        assert result.objective >= 0.0


@st.composite
def well_conditioned_problems(draw):
    """Random simplex-LS problems with independent, comparable columns.

    Column scales stay within one order of magnitude and near-collinear
    draws are rejected, so every backend should reach (close to) the
    same optimum -- the property the batch engine's solver swap relies
    on.
    """
    seed = draw(st.integers(0, 10**6))
    m = draw(st.integers(6, 40))
    k = draw(st.integers(2, 6))
    rng = np.random.default_rng(seed)
    A = rng.uniform(0.1, 1.0, size=(m, k))
    assume(np.linalg.cond(A) < 100.0)
    b = rng.uniform(0.0, 1.0, size=m)
    return A, b


#: A drawn problem on which classic Frank-Wolfe steps stalled 0.16 %
#: above the optimum at their 20,000-iteration cap (the oracle now
#: takes pairwise steps).
PLAIN_FRANK_WOLFE_STALLS = (
    np.array(
        [
            [0.69141872, 0.70046653, 0.99606266, 0.20297276, 0.96384522, 0.99997468],
            [0.96239074, 0.55248997, 0.31122143, 0.36070973, 0.16390826, 0.1159197],
            [0.94255102, 0.49164229, 0.22984593, 0.40560361, 0.91954548, 0.84024757],
            [0.1174628, 0.40205876, 0.62409273, 0.90521947, 0.18631438, 0.4825247],
            [0.31684424, 0.24545583, 0.63488557, 0.36274253, 0.94279965, 0.41697404],
            [0.5818921, 0.31789552, 0.50817559, 0.33886118, 0.29287019, 0.18082566],
        ]
    ),
    np.array(
        [0.67933059, 0.29669165, 0.85149257, 0.38244546, 0.63632377, 0.41233462]
    ),
)


class TestSolverProperties:
    """Hypothesis property suite over the kernel and both oracles."""

    @settings(max_examples=30, deadline=None)
    @given(well_conditioned_problems())
    def test_every_backend_returns_feasible_simplex_point(self, problem):
        A, b = problem
        for method in METHODS:
            result = _solve(method, A, b)
            assert _feasible(result.weights), method

    @settings(max_examples=30, deadline=None)
    @given(well_conditioned_problems())
    @example(PLAIN_FRANK_WOLFE_STALLS)
    def test_backends_agree_on_objective(self, problem):
        A, b = problem
        objectives = {
            method: _solve(method, A, b, tol=1e-12).objective
            for method in METHODS
        }
        best = min(objectives.values())
        worst = max(objectives.values())
        # The iterative oracles stop at a tolerance or an iteration
        # cap, not at the exact active-set optimum; 0.1 % agreement is
        # the honest contract.
        assert worst - best <= 1e-3 * max(best, 1e-9) + 1e-6, objectives

    @settings(max_examples=30, deadline=None)
    @given(well_conditioned_problems())
    def test_iterations_positive_and_capped(self, problem):
        A, b = problem
        for method in METHODS:
            result = _solve(method, A, b)
            # 20000 is the largest per-method default cap (frank-wolfe);
            # a solver falling back still reports the fallback's count.
            assert 1 <= result.iterations <= 20_000, method

    @settings(max_examples=20, deadline=None)
    @given(well_conditioned_problems(), st.integers(1, 40))
    def test_explicit_max_iter_is_respected(self, problem, cap):
        A, b = problem
        result = projected_gradient(A, b, max_iter=cap)
        assert 1 <= result.iterations <= cap
        assert _feasible(result.weights)


class TestGramFactor:
    """The shared-Cholesky active-set path (batch hot loop)."""

    def test_try_build_on_spd_gram(self):
        A, _ = _random_problem(0, m=30, k=5)
        gram = A.T @ A
        factor = GramFactor.try_build(gram)
        assert factor is not None
        assert factor.n == 5
        np.testing.assert_allclose(
            factor.upper.T @ factor.upper, gram, rtol=1e-12, atol=1e-12
        )

    def test_try_build_none_on_singular_gram(self):
        A = np.ones((10, 3))  # perfectly collinear columns
        assert GramFactor.try_build(A.T @ A) is None

    def test_factored_matches_lstsq_path(self):
        # Identical KKT gates on both paths: the factored solve must
        # land on the same weights to factorization noise.
        tested = 0
        for seed in range(60):
            A, b = _random_problem(seed)
            gram, atb = A.T @ A, A.T @ b
            factor = GramFactor.try_build(gram)
            if factor is None:  # rank-deficient draw (m < k)
                continue
            tested += 1
            plain = simplex_lstsq_from_gram(gram, atb)
            fast = simplex_lstsq_from_gram(gram, atb, factor=factor)
            assert _feasible(fast.weights)
            np.testing.assert_allclose(
                fast.weights, plain.weights, rtol=1e-9, atol=1e-12
            )
            assert fast.objective == pytest.approx(
                plain.objective, rel=1e-9, abs=1e-12
            )
        assert tested >= 30  # most draws are full column rank

    def test_factor_reused_across_attributes(self):
        # One factor, many right-hand sides -- the batch engine's shape.
        rng = np.random.default_rng(11)
        A = rng.random((40, 6)) * (rng.random(6) + 0.05)
        gram = A.T @ A
        factor = GramFactor.try_build(gram)
        assert factor is not None
        for _ in range(25):
            b = rng.random(40) * rng.choice([0.1, 1.0, 10.0])
            atb = A.T @ b
            fast = simplex_lstsq_from_gram(gram, atb, factor=factor)
            plain = simplex_lstsq_from_gram(gram, atb)
            np.testing.assert_allclose(
                fast.weights, plain.weights, rtol=1e-9, atol=1e-12
            )

    def test_vertex_solutions_exercise_drop_path(self):
        # A rhs aligned with one column pins the rest at zero, forcing
        # the active-set loop through add *and* drop rank updates.
        rng = np.random.default_rng(5)
        A = rng.random((30, 4)) + 0.05
        b = A[:, 2] * 3.0
        gram, atb = A.T @ A, A.T @ b
        factor = GramFactor.try_build(gram)
        fast = simplex_lstsq_from_gram(gram, atb, factor=factor)
        plain = simplex_lstsq_from_gram(gram, atb)
        np.testing.assert_allclose(
            fast.weights, plain.weights, rtol=1e-9, atol=1e-12
        )

    def test_dimension_mismatch_rejected(self):
        A, b = _random_problem(1, m=20, k=4)
        other, _ = _random_problem(2, m=20, k=3)
        factor = GramFactor.try_build(other.T @ other)
        assert factor is not None
        with pytest.raises(ValidationError):
            simplex_lstsq_from_gram(A.T @ A, A.T @ b, factor=factor)

    def test_near_singular_gram_still_correct(self):
        # Two nearly collinear columns: if the factor breaks down mid-
        # solve the loop must fall back to the lstsq KKT path and still
        # return a feasible, KKT-gated point.
        rng = np.random.default_rng(9)
        base = rng.random(50)
        A = np.column_stack(
            [base, base * (1.0 + 1e-13), rng.random(50)]
        )
        b = rng.random(50)
        gram, atb = A.T @ A, A.T @ b
        factor = GramFactor.try_build(gram)
        result = simplex_lstsq_from_gram(gram, atb, factor=factor)
        assert _feasible(result.weights)
        plain = simplex_lstsq_from_gram(gram, atb)
        assert result.objective <= plain.objective + 1e-9
