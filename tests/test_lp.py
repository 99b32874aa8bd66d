"""Interior-point LP solver against an independent reference implementation
and its documented edge cases."""

import numpy as np
import pytest
from scipy.optimize import linprog

from bootctrl import lp
from bootctrl.lp import LpError, solve_lp


def _random_bounded_lp(rng, n, m):
    """Feasible, bounded instance: b allows a known interior point and the
    objective is a nonnegative combination of constraint normals (dual
    feasibility), which rules out unbounded rays."""
    A = rng.standard_normal((m, n))
    x_feas = rng.standard_normal(n)
    b = A @ x_feas + rng.uniform(0.5, 2.0, m)
    y = rng.uniform(0.0, 1.0, m)
    c = -A.T @ y
    return c, A, b


@pytest.mark.parametrize("seed", range(20))
def test_matches_reference_solver(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    m = n + int(rng.integers(2, 8))
    c, A, b = _random_bounded_lp(rng, n, m)
    res = solve_lp(c, A, b)
    ref = linprog(c, A_ub=A, b_ub=b, bounds=(None, None), method="highs")
    assert ref.status == 0
    scale = max(1.0, abs(ref.fun))
    assert abs(res.fun - ref.fun) <= 1e-6 * scale
    assert np.all(A @ res.x <= b + 1e-7)


def test_known_solution_box():
    # minimize x0 subject to -1 <= x <= 1 written as A x <= b
    A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    b = np.ones(4)
    res = solve_lp(np.array([1.0, 0.0]), A, b)
    assert res.fun == pytest.approx(-1.0, abs=1e-7)
    assert res.x[0] == pytest.approx(-1.0, abs=1e-7)


def test_result_diagnostics():
    A = np.array([[1.0], [-1.0]])
    res = solve_lp(np.array([1.0]), A, np.array([2.0, 3.0]))
    assert res.fun == pytest.approx(-3.0, abs=1e-7)
    assert res.iterations >= 1
    assert res.mu < 1e-8
    assert res.primal_residual < 1e-8
    assert res.dual_residual < 1e-8


def test_vacuous_zero_rows_are_dropped():
    A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0],
                  [0.0, 0.0]])
    b = np.array([1.0, 1.0, 1.0, 1.0, 0.5])
    res = solve_lp(np.array([1.0, 0.0]), A, b)
    assert res.fun == pytest.approx(-1.0, abs=1e-7)


def test_zero_row_with_negative_bound_is_infeasible():
    A = np.array([[1.0], [0.0]])
    b = np.array([1.0, -1.0])
    with pytest.raises(LpError, match="infeasible"):
        solve_lp(np.array([1.0]), A, b)


def test_all_rows_empty_rejected():
    with pytest.raises(ValueError, match="at least one constraint"):
        solve_lp(np.array([1.0]), np.zeros((2, 1)), np.array([1.0, 2.0]))


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="shape mismatch"):
        solve_lp(np.array([1.0, 2.0]), np.eye(3), np.ones(2))


def test_iteration_cap_reports_best_point(monkeypatch):
    rng = np.random.default_rng(3)
    c, A, b = _random_bounded_lp(rng, 5, 12)
    monkeypatch.setattr(lp, "_MAX_ITER", 2)
    with pytest.raises(LpError) as excinfo:
        solve_lp(c, A, b)
    err = excinfo.value
    assert err.best_x is not None and err.best_x.shape == (5,)
    assert isinstance(err.best_fun, float)


def test_iteration_cap_keeps_the_best_primal_feasible_iterate(monkeypatch):
    """Under every cap short of convergence the error carries the least
    objective over the primal-feasible iterates so far: once one exists,
    best_fun never rises as the cap grows, best_x satisfies A x <= b to the
    tolerance, and no best_fun lies below the optimum.  A cap that meets no
    such iterate hands over the last one, marked infeasible."""
    rng = np.random.default_rng(8)
    c, A, b = _random_bounded_lp(rng, 8, 40)
    optimum = solve_lp(c, A, b)
    b_norm = 1.0 + np.abs(b).max()
    found = []
    for cap in range(optimum.iterations):
        monkeypatch.setattr(lp, "_MAX_ITER", cap)
        with pytest.raises(LpError) as excinfo:
            solve_lp(c, A, b)
        err = excinfo.value
        assert err.best_fun == float(c @ err.best_x)
        if err.feasible:
            assert np.max(A @ err.best_x - b) <= lp._TOL * b_norm
            assert err.best_fun >= optimum.fun - 1e-7
            found.append(err.best_fun)
        else:
            assert not found
    assert len(found) >= 3 and found == sorted(found, reverse=True)


def test_singular_normal_matrix_takes_the_regularized_factorization(monkeypatch):
    """Two equal columns make every normal matrix A^T D A singular: its
    Cholesky factorization fails and the solve goes on with the matrix
    shifted by 1e-12 (1 + trace / n) I, to the optimum x1 + x2 = 1."""
    failures, cholesky = [], np.linalg.cholesky

    def counting(M):
        try:
            return cholesky(M)
        except np.linalg.LinAlgError:
            failures.append(M)
            raise

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    res = solve_lp([1.0, 1.0], [[-1.0, -1.0], [1.0, 1.0]], [-1.0, 3.0])
    assert len(failures) == 4
    assert res.fun == pytest.approx(1.0, abs=1e-8)
    assert res.x.sum() == pytest.approx(1.0, abs=1e-8)
