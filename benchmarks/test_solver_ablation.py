"""Ablation: the active-set kernel vs its test oracles and scipy SLSQP.

DESIGN.md calls out the weight-learning solver as a design choice.  The
library's active-set kernel and the iterative oracles of
``tests/solver_oracles.py`` (projected gradient alone, Frank-Wolfe) are
timed on the real weight-learning problem (nine reference columns over
every US zip unit) and their objectives compared with SLSQP's -- the
active-set method should match the others' optimum while being the
fastest of the exact options.
"""

import numpy as np
import pytest

from repro.core.solver import simplex_lstsq
from tests.solver_oracles import ORACLES, scipy_reference_solution

SOLVERS = {"active-set": simplex_lstsq, **ORACLES}


@pytest.fixture(scope="module")
def weight_problem(us_world):
    references = us_world.references()
    test, pool = references[0], references[1:]
    design = np.column_stack(
        [ref.normalized_source() for ref in pool]
    )
    rhs = test.source_vector / test.source_vector.max()
    return design, rhs


@pytest.mark.parametrize("method", list(SOLVERS))
def test_solver_variants(benchmark, weight_problem, method, report):
    design, rhs = weight_problem
    solve = SOLVERS[method]
    result = benchmark(lambda: solve(design, rhs))
    reference = scipy_reference_solution(design, rhs)
    gap = result.objective - reference.objective
    report(
        f"solver={method}: objective={result.objective:.6e} "
        f"(scipy gap {gap:+.2e}), iterations={result.iterations}"
    )
    assert result.objective <= reference.objective * (1 + 1e-3) + 1e-9


def test_solver_scipy_baseline(benchmark, weight_problem):
    design, rhs = weight_problem
    result = benchmark(
        lambda: scipy_reference_solution(design, rhs)
    )
    assert abs(result.weights.sum() - 1.0) < 1e-8
