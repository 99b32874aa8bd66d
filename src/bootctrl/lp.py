"""Dense primal-dual interior-point solver for inequality-form LPs.

Solves   min c^T x   s.t.  A x <= b   with free variables, using an
infeasible-start Mehrotra predictor-corrector method.  Problem sizes in
this package stay tiny on the variable side (tens of columns, up to a
few thousand rows), so all linear algebra goes through dense normal
equations.  The method is deterministic: no randomness, fixed ordering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LpError", "LpResult", "solve_lp"]

_TOL = 1e-9  # relative residuals and mean complementarity at convergence
_MAX_ITER = 100  # iterations before LpError


class LpError(RuntimeError):
    """Raised when the LP cannot be solved to tolerance.

    At the iteration cap, best_x is the least-objective iterate whose
    relative primal residual is within _TOL (feasible is True), or the
    last iterate when no iterate got there (feasible is False); best_fun
    is its objective.
    """

    def __init__(self, message, best_x=None, best_fun=None, feasible=False):
        super().__init__(message)
        self.best_x = best_x
        self.best_fun = best_fun
        self.feasible = feasible


@dataclass(frozen=True)
class LpResult:
    x: np.ndarray
    fun: float
    iterations: int
    mu: float
    primal_residual: float
    dual_residual: float


def solve_lp(c, A_ub, b_ub):
    """Minimize c^T x subject to A_ub x <= b_ub.

    Returns an LpResult on convergence; raises LpError when the iteration
    cap is hit (carrying the best primal-feasible iterate, if any) or the
    problem is detected to be trivially infeasible.
    """
    c = np.asarray(c, dtype=float).reshape(-1)
    A = np.asarray(A_ub, dtype=float)
    b = np.asarray(b_ub, dtype=float).reshape(-1)
    if A.ndim != 2 or A.shape != (b.shape[0], c.shape[0]):
        raise ValueError(
            f"shape mismatch: A is {A.shape}, expected ({b.shape[0]}, {c.shape[0]})"
        )

    # Drop numerically empty rows; 0 <= b is vacuous, 0 <= negative is infeasible.
    row_scale = np.abs(A).max(axis=1, initial=0.0)
    empty = row_scale < 1e-14
    if np.any(empty):
        if np.any(b[empty] < -1e-12):
            raise LpError("infeasible: empty constraint row with negative bound")
        A, b = A[~empty], b[~empty]

    m, n = A.shape
    if m == 0:
        raise ValueError("LP needs at least one constraint")

    x = np.zeros(n)
    s = np.full(m, max(1.0, float(np.abs(b).max())))
    lam = np.ones(m)

    b_norm = 1.0 + float(np.abs(b).max())
    c_norm = 1.0 + float(np.abs(c).max())
    best = None  # (objective, x) of the best primal-feasible iterate

    for it in range(_MAX_ITER + 1):  # it steps taken so far
        r_p = A @ x + s - b
        r_d = c + A.T @ lam
        mu = float(s @ lam) / m
        fun = float(c @ x)
        primal_ok = np.abs(r_p).max() / b_norm < _TOL
        if primal_ok and (best is None or fun < best[0]):
            best = (fun, x)

        if mu < _TOL and primal_ok and np.abs(r_d).max() / c_norm < _TOL:
            return LpResult(
                x=x,
                fun=fun,
                iterations=it,
                mu=mu,
                primal_residual=float(np.abs(r_p).max()),
                dual_residual=float(np.abs(r_d).max()),
            )
        if it == _MAX_ITER:
            break

        d = lam / s
        M = (A.T * d) @ A
        cf = None
        try:
            cf = np.linalg.cholesky(M)
        except np.linalg.LinAlgError:
            M = M + 1e-12 * (1.0 + np.trace(M) / n) * np.eye(n)
            cf = np.linalg.cholesky(M)

        def solve_M(rhs):
            z = np.linalg.solve(cf, rhs)
            return np.linalg.solve(cf.T, z)

        def newton(r_c):
            rhs = -r_d - A.T @ (d * r_p + r_c / s)
            dx = solve_M(rhs)
            dlam = d * (A @ dx + r_p) + r_c / s
            ds = (r_c - s * dlam) / lam
            return dx, dlam, ds

        def max_step(v, dv):
            neg = dv < 0
            if not np.any(neg):
                return 1.0
            return min(1.0, float(np.min(-v[neg] / dv[neg])))

        # Affine (predictor) direction.
        r_c_aff = -lam * s
        dx_a, dlam_a, ds_a = newton(r_c_aff)
        a_p = max_step(s, ds_a)
        a_d = max_step(lam, dlam_a)
        mu_aff = float((s + a_p * ds_a) @ (lam + a_d * dlam_a)) / m
        sigma = (mu_aff / mu) ** 3 if mu > 0 else 0.0

        # Corrector direction reusing the factorization.
        r_c = -lam * s + sigma * mu - ds_a * dlam_a
        dx, dlam, ds = newton(r_c)
        a_p = 0.995 * max_step(s, ds)
        a_d = 0.995 * max_step(lam, dlam)

        x = x + a_p * dx
        s = s + a_p * ds
        lam = lam + a_d * dlam

    best_fun, best_x = best or (fun, x)
    raise LpError(
        f"interior-point method did not converge in {_MAX_ITER} iterations",
        best_x=best_x,
        best_fun=best_fun,
        feasible=best is not None,
    )
