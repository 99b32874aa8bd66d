"""Small dense semidefinite engine with independent checking.

Problems come in as lists of symmetric-matrix-valued affine constraints in
the decision variables (a symmetric matrix X, optionally a scalar tau).
solve_feasibility runs the phase-I shift minimization (Boyd & Vandenberghe,
Convex Optimization, sec. 11.4.1) with one absolute margin delta = _DELTA:

    minimize s   s.t.   G_j(v) + delta*I <= s*I  (strict-negative constraints)
                        P_i(v) >= delta*I        (strict-positive constraints)

and FEASIBLE means the optimal shift satisfies s <= 0.  bisect_gain
takes the LMI at g^2 = 0 and the diagonal c_j of g^2's coefficient in
each strict-negative constraint, where g^2 enters affinely, and follows
phase I with one phase-II minimization of g^2 over G_j(v) + g^2 diag(c_j)
+ delta*I <= 0.  Both phases run one log-det barrier with damped Newton
steps (sec. 11.3) on one term per G_j, -G_j(v) - delta*I + o diag(slope)
> 0: o = s and slope 1 in phase I, o = g^2 and slope -c_j in phase II.
Both follow its central path by one predictor-corrector loop (_follow),
to which each phase gives only the duality gap that decides it: t
grows up to 100-fold per centering, which starts from a tangent step.
bisect_gain's phase I solves only the rows that g^2 does not move, and
phase II starts just above the smallest g^2 at which the phase-I point is
interior.  Each Newton step forms its Hessian on the shared range of a
constraint's coefficient matrices, the way DSDP assembles its Newton
matrix from low-rank data (Benson & Ye, ACM TOMS 34(3), 2008): the
lifted LMI's coefficients span at most 2 n_xi + n_wu + n_zu dimensions,
whatever T_BS (10 for the demo loop's 11 coefficients).  The slope-free
constraints (X > 0, tau > 0 and the compactifying bounds) share one
block-diagonal barrier term, so a Newton step forms, factors and inverts
one matrix per strict-negative constraint and one for all the rest.
Every certificate is re-validated by check_certificate, which returns a
Cholesky-verified lower bound (Rump 2006) on its margin: the bound holds
for the exact real-valued constraints, whatever the rounding in forming
them, and never depends on the barrier or on an eigensolver being
accurate, so solver quality is never safety-critical.

INFEASIBLE means the phase-I optimum stays above 0.  The tests in this
package are sufficient conditions, so INFEASIBLE never implies that the
underlying loop is unstable; naming stays neutral on purpose.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .statespace import check_count, check_real, check_symmetric

__all__ = [
    "LmiConstraint",
    "LmiProblem",
    "SdpCertificate",
    "SolveOutcome",
    "UncertifiableError",
    "sym_basis",
    "vech_indices",
    "solve_feasibility",
    "check_certificate",
    "bisect_gain",
    "jacobi_eigvals",
]

FEASIBLE = "FEASIBLE"
INFEASIBLE = "INFEASIBLE"
NUMERICAL_FAILURE = "NUMERICAL_FAILURE"

_MAX_NEWTON = 200  # Newton steps per solve before NUMERICAL_FAILURE
_RADIUS = 1e4  # compactifying bound X <= radius*I, tau <= radius
_DELTA = 1e-7  # every certified margin, absolute
_JACOBI_TOL = 1e-13  # Jacobi stops at off-norm <= this * max(1, max |entry|)
_JACOBI_SWEEPS = 100  # or after this many sweeps
_T_STEP = 100.0  # largest factor by which t grows per centering


class UncertifiableError(RuntimeError):
    """Raised when no certificate within _RADIUS exists at any gain."""


def vech_indices(n):
    """Upper-triangle (i, j) pairs in row-major order."""
    return [(i, j) for i in range(n) for j in range(i, n)]


def sym_basis(n):
    """Symmetric basis matrices S_k with X = sum_k v_k S_k, v = vech(X)."""
    basis = []
    for i, j in vech_indices(n):
        S = np.zeros((n, n))
        if i == j:
            S[i, i] = 1.0
        else:
            S[i, j] = S[j, i] = 1.0
        basis.append(S)
    return basis


@dataclass(frozen=True)
class LmiConstraint:
    """Affine matrix constraint const + sum_k v_k coeffs[k], tagged by sense."""

    const: np.ndarray
    coeffs: np.ndarray
    sense: str  # "neg": ... < 0   |   "pos": ... > 0
    name: str = ""

    def __post_init__(self):
        const = np.asarray(self.const, dtype=float)
        coeffs = np.asarray(self.coeffs, dtype=float)
        if self.sense not in ("neg", "pos"):
            raise ValueError(f"sense must be 'neg' or 'pos', got {self.sense!r}")
        check_symmetric(const, f"constraint {self.name or 'const'}")
        if coeffs.ndim != 3 or coeffs.shape[1:] != const.shape:
            raise ValueError(
                f"coeffs must be (p, {const.shape[0]}, {const.shape[0]}), got {coeffs.shape}"
            )
        check_symmetric(coeffs, f"constraint {self.name or '?'} coeff")
        const.setflags(write=False)
        coeffs.setflags(write=False)
        object.__setattr__(self, "const", const)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def dim(self):
        return self.const.shape[0]

    def evaluate(self, v):
        return self.const + np.tensordot(v, self.coeffs, axes=(0, 0))


@dataclass(frozen=True)
class LmiProblem:
    """Feasibility problem in (X, tau): X is n_x x n_x symmetric, tau optional.

    The decision vector v stacks vech(X) (row-major upper triangle)
    followed by tau when with_tau is set.  Constraints are affine in v.
    """

    n_x: int
    constraints: tuple
    with_tau: bool = True

    def __post_init__(self):
        object.__setattr__(self, "n_x", check_count(self.n_x, "n_x"))
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if self.n_x < 1:
            raise ValueError("n_x must be at least 1")
        p = self.n_vars
        for con in self.constraints:
            if not isinstance(con, LmiConstraint):
                raise TypeError("constraints must be LmiConstraint instances")
            if con.coeffs.shape[0] != p:
                raise ValueError(
                    f"constraint {con.name!r} has {con.coeffs.shape[0]} coefficient "
                    f"matrices, problem has {p} variables"
                )

    @property
    def n_vech(self):
        return self.n_x * (self.n_x + 1) // 2

    @property
    def n_vars(self):
        return self.n_vech + (1 if self.with_tau else 0)

    def pack(self, X, tau=None):
        X = np.asarray(X, dtype=float)
        check_symmetric(X, "X")
        if X.shape != (self.n_x, self.n_x):
            raise ValueError(f"X must be {self.n_x}x{self.n_x}, got {X.shape}")
        v = np.array([X[i, j] for i, j in vech_indices(self.n_x)])
        if self.with_tau:
            if tau is None:
                raise ValueError("problem expects tau but none was given")
            v = np.append(v, float(tau))
        return v

    def unpack(self, v):
        X = np.zeros((self.n_x, self.n_x))
        for k, (i, j) in enumerate(vech_indices(self.n_x)):
            X[i, j] = X[j, i] = v[k]
        tau = float(v[self.n_vech]) if self.with_tau else None
        return X, tau


@dataclass(frozen=True)
class SdpCertificate:
    """Materialized feasible point (X, tau) plus its checked margin.

    margin_achieved is check_certificate's Cholesky-verified lower bound
    (Rump 2006) on the minimum constraint margin at (X, tau).
    """

    X: np.ndarray
    tau: float | None
    margin_achieved: float
    solver_iterations: int

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        check_symmetric(X, "certificate X")
        X.setflags(write=False)
        object.__setattr__(self, "X", X)

    def to_json(self):
        return {
            "X": self.X.tolist(),
            "tau": self.tau,
            "margin_achieved": self.margin_achieved,
            "solver_iterations": self.solver_iterations,
        }

    @staticmethod
    def from_json(data):
        return SdpCertificate(
            X=np.asarray(data["X"], dtype=float),
            tau=data.get("tau"),
            margin_achieved=float(data["margin_achieved"]),
            solver_iterations=int(data.get("solver_iterations", 0)),
        )


@dataclass(frozen=True)
class SolveOutcome:
    status: str
    certificate: SdpCertificate | None = None
    iterations: int = 0

    @property
    def feasible(self):
        return self.status == FEASIBLE


def jacobi_eigvals(A):
    """Eigenvalues of a symmetric matrix by the cyclic Jacobi iteration.

    A reference solver: deterministic sweep order, no external eigenvalue
    routine, accurate to far better than 1e-10 on the matrix sizes used
    here (<= ~50).  The tests use it as an oracle independent of LAPACK.
    """
    A = np.asarray(A, dtype=float)
    check_symmetric(A, "matrix")
    n = A.shape[0]
    if n == 1:
        return A.diagonal().copy()
    M = A.copy()
    scale = max(1.0, np.abs(M).max())
    for _ in range(_JACOBI_SWEEPS):
        off = np.sqrt(np.sum(np.tril(M, -1) ** 2) * 2)
        if off <= _JACOBI_TOL * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = M[p, q]
                if abs(apq) <= 1e-300:
                    continue
                gap = M[q, q] - M[p, p]
                if abs(gap) + 100.0 * abs(apq) == abs(gap):
                    # theta = gap / (2 apq) is so large that theta**2 would
                    # overflow; there t = 1/(2 theta) to working precision.
                    t = apq / gap
                else:
                    theta = gap / (2.0 * apq)
                    t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                    if theta == 0.0:
                        t = 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot = np.array([[c, s], [-s, c]])
                rows = M[[p, q], :]
                M[[p, q], :] = rot.T @ rows
                cols = M[:, [p, q]]
                M[:, [p, q]] = cols @ rot
                M[p, q] = M[q, p] = 0.0
    return np.sort(np.diag(M))


_U = 2.0 ** -53  # unit roundoff of IEEE double precision
_ETA = 2.0 ** -1074  # smallest positive subnormal
_TINY = 2.0 ** -1022  # smallest positive normal number
_WIDENINGS = 4  # Cholesky attempts per constraint before giving up


def _gamma(k):
    """Higham's gamma_k = k u / (1 - k u), the relative error of k flops."""
    return k * _U / (1.0 - k * _U)


def _verified_lambda_min(H):
    """A rigorous lower bound on lambda_min of the float matrix H, or -inf.

    eigvalsh proposes s just below lambda_min; a floating-point Cholesky
    of fl(H - s I) then decides.  If it runs to completion, Demmel's bound
    R^T R = A + dA, |dA| <= gamma_{n+1} |R^T| |R|, gives lambda_min(A) >=
    -gamma_{n+1} / (1 - gamma_{n+1}) * trace(A) for A = fl(H - s I), and the
    shift rounds each diagonal entry by at most u relative (Rump, BIT
    Numer. Math. 46 (2006) 433-452, with his underflow term).  Soundness
    therefore never depends on eigvalsh being accurate; if the Cholesky
    keeps failing as s is lowered, no bound is claimed.
    """
    n = H.shape[0]
    if not np.isfinite(H).all():
        return -np.inf
    g = _gamma(n + 1)
    alpha = g / (1.0 - g)
    lam = np.linalg.eigvalsh(H)[0]
    slack = n * (_U * np.abs(H).sum(axis=1).max() + _TINY)
    for _ in range(_WIDENINGS):
        s = lam - slack
        shifted = H - s * np.eye(n)
        if not _strictly_positive(shifted):
            slack *= 64.0
            continue
        d = np.abs(np.diag(shifted))
        rho = (alpha * d.sum() + 2.0 * _U * d.max()
               + 3.0 * n * (2.0 * n + d.max()) * _ETA)
        # rho and alpha take fewer than n + 10 roundings: inflate rho by
        # that relative error, then round the difference down.
        return np.nextafter(s - rho * (1.0 + _gamma(n + 10)), -np.inf)
    return -np.inf


def check_certificate(problem: LmiProblem, cert: SdpCertificate) -> float:
    """Substitute (X, tau) into every constraint; return a verified lower
    bound on the minimum margin.

    The margin is lambda_min(G) for strict-positive constraints and
    -lambda_max(G) for strict-negative ones.  The result is a
    Cholesky-verified lower bound (Rump 2006) on it for the exact real
    constraints const + sum_k v_k coeffs[k] at the certificate's float
    (X, tau): it allows for the rounding in forming G and in the check
    itself, and is -inf when no bound could be verified.  This function
    never touches the barrier solver.
    """
    v = problem.pack(cert.X, cert.tau)
    p = problem.n_vars
    margin = np.inf
    for con in problem.constraints:
        n = con.dim
        G = con.evaluate(v)
        # |fl(G) - G| <= gamma_{p+1} B entrywise.  For a symmetric
        # nonnegative B, ||B||_2 is at most its largest row sum, which
        # takes no squares and so cannot underflow.
        B = np.abs(con.const) + np.tensordot(np.abs(v), np.abs(con.coeffs), axes=(0, 0))
        B = np.maximum(B, B.T)
        rho_form = _gamma(p + 1) * B.sum(axis=1).max() + n * (p + 1) * _ETA
        # B, its row sums and gamma take fewer than 2p + n + 4 roundings.
        rho_form *= 1.0 + _gamma(2 * p + n + 4)
        lam = _verified_lambda_min(G if con.sense == "pos" else -G)
        margin = min(margin, np.nextafter(lam - rho_form, -np.inf))
    return float(margin)


def _strictly_positive(M):
    try:
        np.linalg.cholesky(M)
        return True
    except np.linalg.LinAlgError:
        return False


def _range_basis(coeffs):
    """(V, G) with V (m x R) an orthonormal basis of the shared range of the
    symmetric stack coeffs and G_k = V^T F_k V, or (I, coeffs), R = m,
    when R > m/2 or when some V G_k V^T misses its F_k.

    The range of sum_k F_k^T F_k / ||F_k||_F^2 is the sum of the ranges of
    the F_k, so one eigh of that m x m Gram gives it; eigenvalues below
    1e-12 of the largest count as zero.  The unit weights keep a small
    F_k from vanishing next to a large one, but the Gram still squares
    singular values, so each F_k must be reproduced by V G_k V^T to
    within 1e-13 of its own norm before V is used.
    """
    q, m, _ = coeffs.shape
    norms = np.linalg.norm(coeffs, axis=(1, 2))
    unit = coeffs / np.where(norms > 0, norms, 1.0)[:, None, None]
    flat = unit.reshape(q * m, m)
    lam, vecs = np.linalg.eigh(flat.T @ flat)
    V = vecs[:, lam > 1e-12 * lam[-1]]
    if 2 * V.shape[1] > m:
        return np.eye(m), coeffs
    G = V.T @ coeffs @ V
    for F, Gk, norm in zip(coeffs, G, norms):
        if np.linalg.norm(F - V @ Gk @ V.T) > 1e-13 * norm:
            return np.eye(m), coeffs
    return V, G


class _BarrierData:
    """The barrier in z = (v, o) over one copy of each coefficient stack.

    The objective o is the shift s in phase I and g^2 in phase II.  Each
    strict-negative constraint G(v) < 0 is one term (const, coeffs, slope,
    V, G), the matrix M(z) = const - sum_k v_k coeffs[k] + o diag(slope)
    with const = -G(0) - _DELTA I, kept positive definite; coeffs is the
    constraint's own read-only stack.  slope is 1 in phase I, so M = s I -
    G(v) - _DELTA I, and -gain_slopes[j] in phase II, gain_slopes[j] =
    diag(C) being the diagonal g^2 coefficient of constraint j, so M =
    -G(v) - g^2 C - _DELTA I: in both, the raw margin above _DELTA.

    V is an orthonormal basis of the coefficients' shared range and G_k =
    V^T F_k V, F_k = coeffs[k]; V = I and G = coeffs where the range is
    over half the rows or misses some F_k (_range_basis).  With W = M^-1 and
    W^ = V^T W V (R x R), grad_hess takes g_k = tr(W^ G_k) and H_kl =
    tr(W^ G_k W^ G_l): one batched matmul U_k = -W^ G_k and one GEMM of the
    flattened U by the flattened U_k^T.  The slope S = diag(slope) lies
    outside that range and enters every term the same way, through its
    diagonal: g_o = -sum_i W_ii S_ii, H_oo = sum_ij S_ii W_ij^2 S_jj, and
    H_ko = -tr(G_k Z) with Z = (WV)^T S WV, so the objective's column
    contracts the term's own coefficients against one R x R matrix, at
    O(m^2 R).  The lifted LMI's coefficients lie in the ranges of T_sta^T
    and T_unc^T, so R <= 2 n_xi + n_wu + n_zu whatever T_BS (R = 10 of 11
    coefficients for the demo loop), and there only the inverse stays cubic
    in m.

    Every slope-free block shares one block-diagonal term, block_const +
    sum_k v_k block_coeffs[k]: each strict-positive constraint as G(v) -
    _DELTA I, then the bounds _RADIUS I - X and _RADIUS - tau, one linear
    block as in SDPT3 (Toh, Todd & Tutuncu, Optim. Methods Softw. 11,
    1999).  A point so takes one formation, one Cholesky and one inverse
    for all of them.  The inverse is block diagonal too, and only its
    diagonal blocks W_b give nonzero products W F_k, so grad_hess stacks
    the blocks of equal size: one batched matmul W_b F_bk and one GEMM
    over the variables they use per size.  form gives every matrix at a
    point, the terms' first; barrier_value (one Cholesky each, inf if any
    fails) and grad_hess take them, so _center forms an accepted point
    once.
    """

    def __init__(self, problem: LmiProblem, gain_slopes=None):
        self.p = problem.n_vars
        self.terms = []
        blocks = []  # (const, coeffs over all of v) of each slope-free block
        for j, con in enumerate(problem.constraints):
            if con.sense == "pos":
                blocks.append((con.const - _DELTA * np.eye(con.dim), con.coeffs))
                continue
            slope = np.ones(con.dim) if gain_slopes is None else -gain_slopes[j]
            self.terms.append((-con.const - _DELTA * np.eye(con.dim), con.coeffs, slope,
                               *_range_basis(con.coeffs)))
        # Compactifying bounds: without them the phase-I objective's
        # recession directions (margins that grow without lowering s) leave
        # no analytic center.  They are never part of the certified claim,
        # so INFEASIBLE means "no certificate within the search radius".
        n, nv = problem.n_x, problem.n_vech
        bound = np.zeros((self.p, n, n))
        bound[:nv] = -np.stack(sym_basis(n))
        blocks.append((_RADIUS * np.eye(n), bound))
        if problem.with_tau:
            bound = np.zeros((self.p, 1, 1))
            bound[nv] = -1.0
            blocks.append((np.array([[_RADIUS]]), bound))
        sizes = [len(const) for const, _ in blocks]
        starts = np.cumsum([0] + sizes)
        m = int(starts[-1])
        self.block_const = np.zeros((m, m))
        coeffs = np.zeros((self.p, m, m))
        for (const, F), a, b in zip(blocks, starts, starts[1:]):
            self.block_const[a:b, a:b] = const
            coeffs[:, a:b, a:b] = F
        self.block_coeffs = coeffs.reshape(self.p, -1)
        # (rows of each block of one size, the variables they use, their
        # coefficients on those variables as a (q, blocks, size, size) stack)
        self.block_groups = []
        for size in sorted(set(sizes)):
            same = [i for i, s in enumerate(sizes) if s == size]
            F = np.stack([blocks[i][1] for i in same], axis=1)
            used = np.flatnonzero(F.any(axis=(1, 2, 3)))
            if len(used):
                cols = slice(used[0], used[-1] + 1)
                rows = starts[same][:, None] + np.arange(size)
                self.block_groups.append((rows, cols, np.ascontiguousarray(F[cols])))
        self.n_barrier = sum(term[0].shape[0] for term in self.terms) + m

    def matrix(self, term, z):
        const, coeffs, slope = term[:3]
        m = len(const)
        M = const - (z[:-1] @ coeffs.reshape(self.p, -1)).reshape(m, m)
        M.flat[::m + 1] += z[-1] * slope
        return M

    def form(self, z):
        m = len(self.block_const)
        return ([self.matrix(term, z) for term in self.terms]
                + [self.block_const + (z[:-1] @ self.block_coeffs).reshape(m, m)])

    def barrier_value(self, z, t, mats=None):
        total = t * z[-1]
        for M in self.form(z) if mats is None else mats:
            try:
                L = np.linalg.cholesky(M)
            except np.linalg.LinAlgError:
                return np.inf
            total -= 2.0 * np.log(np.diagonal(L)).sum()
        # A NaN or inf in M passes the factorization but leaves a
        # non-finite diagonal in L.
        return total if np.isfinite(total) else np.inf

    def grad_hess(self, z, t, mats=None):
        *mats, block = self.form(z) if mats is None else mats
        p = self.p
        g = np.zeros(p + 1)
        H = np.zeros((p + 1, p + 1))
        g[-1] = t
        for (_, _, slope, V, G), M in zip(self.terms, mats):
            W = np.linalg.inv(M)
            W = 0.5 * (W + W.T)
            WV = W @ V
            U = -(V.T @ WV) @ G
            Z = WV.T @ (slope[:, None] * WV)
            cross = G.reshape(p, -1) @ Z.ravel()
            H[:p, -1] -= cross
            H[-1, :p] -= cross
            g[-1] -= np.diagonal(W) @ slope
            H[-1, -1] += slope @ (W * W) @ slope
            g[:p] -= np.trace(U, axis1=1, axis2=2)
            Uf = U.reshape(p, -1)
            H[:p, :p] += Uf @ U.transpose(0, 2, 1).reshape(Uf.shape).T
        W = np.linalg.inv(block)
        W = 0.5 * (W + W.T)
        for rows, cols, F in self.block_groups:
            U = np.matmul(W[rows[:, :, None], rows[:, None, :]], F)
            g[cols] -= np.trace(U, axis1=2, axis2=3).sum(axis=1)
            Uf = U.reshape(len(U), -1)
            H[cols, cols] += Uf @ U.transpose(0, 1, 3, 2).reshape(Uf.shape).T
        return g, H


def _center(data, z, t, steps, floor):
    """Damped Newton centering of the barrier at t from the interior point z.

    Armijo backtracking while the Newton decrement exceeds 1/128; stops
    when it is below 1e-9, the line search stalls, or the objective z[-1]
    reaches floor.  Returns (z, decrement, steps, H), decrement None when
    the Newton matrix is singular or steps reached _MAX_NEWTON first, H the
    Newton matrix of the last solve: the one at the returned z unless floor
    or the 60-step cap ended on a move.  A start z that is not interior
    raises RuntimeError.
    """
    mats = data.form(z)
    phi = data.barrier_value(z, t, mats)
    if phi == np.inf:
        raise RuntimeError("the barrier's start point is not interior")
    decrement = np.inf
    H = None
    for _ in range(60):
        if steps >= _MAX_NEWTON:
            return z, None, steps, H
        g, H = data.grad_hess(z, t, mats)
        try:
            dz = -np.linalg.solve(H, g)
        except np.linalg.LinAlgError:
            return z, None, steps, H
        decrement = -0.5 * float(g @ dz)
        steps += 1
        if decrement < 1e-9:
            break
        step = 1.0
        while step > 1e-13:
            cand = z + step * dz
            cand_mats = data.form(cand)
            phi_cand = data.barrier_value(cand, t, cand_mats)
            # At lambda = sqrt(2 decrement) <= (1 - 2 * 0.25) / 4 a self-
            # concordant barrier passes at step 1 (sec. 9.6.4): only rounding
            # can fail the test there, so an interior step is taken.
            if (phi_cand <= phi + 0.25 * step * float(g @ dz)
                    or (decrement <= 1 / 128 and phi_cand < np.inf)):
                break
            step *= 0.5
        if step <= 1e-13:
            break
        z, phi, mats = cand, phi_cand, cand_mats
        if z[-1] <= floor:
            break
    return z, decrement, steps, H


def _follow(data, z, t, gap, floor=-np.inf):
    """Follow the barrier's central path from the interior point z at t
    until the objective o = z[-1] reaches floor or, at a centre, the
    duality gap nu/t is at most gap(o).  Between centerings t grows to t' =
    min(_T_STEP t, max(2t, 1.5 nu / gap(o))), and the next starts from the
    path's tangent in 1/t, dz/d(1/t) = t^2 H^-1 e_o, H the centre's Newton
    matrix: z - (t' - t)(t/t') H^-1 e_o, halved down to 2^-9 until
    interior, else z.  Returns (z, steps), z None when a centering failed
    or stalled (the gap bound holds only at a centre).
    """
    nu, steps = data.n_barrier, 0
    while True:
        z, decrement, steps, H = _center(data, z, t, steps, floor)
        if z[-1] <= floor:
            return z, steps
        if decrement is None or decrement >= 1e-6:
            return None, steps
        bound = gap(float(z[-1]))
        if nu / t <= bound:
            return z, steps
        t_next = min(_T_STEP * t, max(2.0 * t, 1.5 * nu / bound))
        dz = -(t_next - t) * (t / t_next) * np.linalg.solve(H, np.eye(len(z))[-1])
        for frac in 0.5 ** np.arange(10):
            if data.barrier_value(z + frac * dz, t_next) < np.inf:
                z = z + frac * dz
                break
        t = t_next


def _certificate(problem: LmiProblem, v, iterations: int) -> SdpCertificate:
    """The point v as a certificate of problem, with its checked margin."""
    X, tau = problem.unpack(v)
    cert = SdpCertificate(X=X, tau=tau, margin_achieved=0.0,
                          solver_iterations=iterations)
    return replace(cert, margin_achieved=check_certificate(problem, cert))


def solve_feasibility(problem: LmiProblem) -> SolveOutcome:
    """Phase-I barrier solve; see the module docstring for the method.

    Each strict-negative constraint G(v) < 0 is the barrier term s I -
    G(v) - _DELTA I, so at s <= 0 every margin is at least _DELTA, the
    absolute margin check_certificate and bisect_gain certify.  The
    strict-positive constraints X > 0 and tau > 0 are kept as hard barrier
    constraints at level _DELTA, and RuntimeError is raised if no X = 2^k I,
    2^k <= _RADIUS / 2, with tau = 1 satisfies them.  The search is
    compactified to X <= _RADIUS*I, tau <= _RADIUS, so INFEASIBLE means no
    certificate within that radius.  The path from t = 1 ends once s <=
    -0.5 _DELTA witnesses feasibility (s is unbounded below on homogeneous
    problems), or at a centre with s <= 0, or with s - nu/t >= 0 or nu/t <=
    _DELTA/20: the optimum is above 0, or within a razor-thin band of it.
    """
    data = _BarrierData(problem)

    # Start from the first X = 2^k I, k >= 0, where the slope-free block is
    # interior, tau = 1, and s at least 1 above every lambda_max(G) + _DELTA:
    # each term is -G - _DELTA I at s = 0, with slope 1 on every row.
    for k in range(int(np.log2(_RADIUS / 2)) + 1):
        z = np.append(problem.pack(2.0 ** k * np.eye(problem.n_x),
                                   1.0 if problem.with_tau else None), 0.0)
        if _strictly_positive(data.form(z)[-1]):
            break
    z[-1] = max(_gain_floor(data, z), 0.0) + 1.0
    z, steps = _follow(data, z, 1.0, lambda s: max(s, _DELTA / 20) if s > 0 else np.inf,
                       floor=-0.5 * _DELTA)
    if z is None or z[-1] > 0.0:
        return SolveOutcome(status=NUMERICAL_FAILURE if z is None else INFEASIBLE,
                            iterations=steps)
    cert = _certificate(problem, z[:-1], steps)
    if cert.margin_achieved < _DELTA:
        return SolveOutcome(status=NUMERICAL_FAILURE, iterations=steps)
    return SolveOutcome(status=FEASIBLE, certificate=cert, iterations=steps)


def bisect_gain(problem: LmiProblem, gain_slopes, tol: float = 1e-3):
    """Smallest certified gain by one phase-I and one phase-II barrier solve.

    problem is the LMI at g^2 = 0 and gain_slopes[j] the diagonal of g^2's
    coefficient in constraint j (Qp = -g^2 I gives -1 on the w_p rows, 0
    elsewhere), None for a strict-positive one: g^2 enters only the
    strict-negative constants, affinely and on the diagonal, never
    tightening a row, so the smallest gain is an eigenvalue problem (EVP;
    Boyd, El Ghaoui, Feron & Balakrishnan 1994).  By a Schur complement
    some finite g^2 is feasible iff each strict-negative constraint is on
    its rows A with zero slope, so phase I solves problem cut to those
    blocks (a constraint with no such rows is dropped), or raises
    UncertifiableError: no certificate within _RADIUS at any gain.  Phase
    II minimizes g^2 on phase I's barrier terms with slope -gain_slopes[j]
    in place of 1, from that point v, starting at g^2 = 1.5
    max(g^2_min(v), 0) + 1 with t = nu / g^2, where g^2_min(v) is the
    smallest g^2 at which v is interior (_gain_floor), and ends at a centre
    whose gain g is within tol of the duality-gap bound sqrt(g^2 - nu/t).
    Returns (gain, certificate): sqrt(g^2) rounded up, with a margin of at
    least _DELTA checked on problem with each const + gain^2 diag(slope).
    tol must be finite and positive, and there must be one slope per
    constraint, each strict-negative one a finite vector of its
    constraint's size with no positive entry, or ValueError is raised
    before phase I.  A stalled phase I or phase II, or a failed check,
    raises RuntimeError.  The name predates the method; perfbench's tracer
    patches the function under it.
    """
    tol = check_real(tol, "tol")
    if not tol > 0:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    gain_slopes = [None if slope is None else np.asarray(slope, dtype=float)
                   for slope in gain_slopes]
    if len(gain_slopes) != len(problem.constraints):
        raise ValueError(f"need one g^2 slope per constraint, got {len(gain_slopes)}")
    free = []
    for con, slope in zip(problem.constraints, gain_slopes):
        if (slope is None) != (con.sense == "pos"):
            raise ValueError(f"constraint {con.name!r} needs a g^2 slope iff strict-negative")
        if slope is None:
            free.append(con)
            continue
        if slope.shape != (con.dim,) or not np.isfinite(slope).all():
            raise ValueError(f"the g^2 slope of constraint {con.name!r} must be "
                             f"{con.dim} finite entries, got {slope}")
        if (slope > 0).any():
            raise ValueError(f"the g^2 slope of constraint {con.name!r} tightens it")
        rows = np.flatnonzero(slope == 0)
        if len(rows):
            free.append(replace(con, const=con.const[np.ix_(rows, rows)],
                                coeffs=con.coeffs[:, rows[:, None], rows]))
    outcome = solve_feasibility(replace(problem, constraints=free))
    if outcome.status == NUMERICAL_FAILURE:
        raise RuntimeError("solver failed numerically in phase I")
    if not outcome.feasible:
        raise UncertifiableError(
            "UNSTABLE_OR_UNCERTIFIABLE: no certificate within the search radius "
            "at any gain")

    data = _BarrierData(problem, gain_slopes)
    z = np.append(problem.pack(outcome.certificate.X, outcome.certificate.tau), 0.0)
    z[-1] = 1.5 * max(_gain_floor(data, z), 0.0) + 1.0

    def gap(gain_sq):  # sqrt(g^2 - nu/t) >= g - tol iff nu/t <= tol (2g - tol)
        gain = np.nextafter(np.sqrt(max(gain_sq, 0.0)), np.inf)
        return tol * (2.0 * gain - tol) if gain > tol else np.inf

    z, steps = _follow(data, z, data.n_barrier / z[-1], gap)
    if z is None:
        raise RuntimeError(f"phase II failed after {steps} Newton steps")
    gain = float(np.nextafter(np.sqrt(max(z[-1], 0.0)), np.inf))
    at_gain = replace(problem, constraints=[
        con if slope is None
        else replace(con, const=con.const + gain * gain * np.diag(slope))
        for con, slope in zip(problem.constraints, gain_slopes)])
    cert = _certificate(at_gain, z[:-1], outcome.iterations + steps)
    if cert.margin_achieved < _DELTA:
        raise RuntimeError(f"phase II point failed its check at gain {gain}")
    return gain, cert


def _gain_floor(data, z):
    """The smallest objective (g^2, or phase I's s) at which z = (v, .) is
    interior, given that each term is on its rows with zero slope (phase
    I's have none, so K = M); -inf if no term moves.

    A term M(g^2) = M_0 + g^2 diag(slope), slope >= 0, is positive definite
    iff its rows A with zero slope are (they do not move with g^2) and the
    Schur complement K = M_0,BB - M_0,BA M_0,AA^-1 M_0,AB on the others
    satisfies K + g^2 D > 0, D = diag(slope_B): g^2 > lambda_max(-D^-1/2 K
    D^-1/2).
    """
    floor = -np.inf
    for term in data.terms:
        slope = term[2]
        if not slope.any():
            continue
        M = data.matrix(term, np.append(z[:-1], 0.0))
        B = slope > 0
        A = ~B
        K = M[np.ix_(B, B)] - M[np.ix_(B, A)] @ np.linalg.solve(M[np.ix_(A, A)],
                                                               M[np.ix_(A, B)])
        d = 1.0 / np.sqrt(slope[B])
        floor = max(floor, np.linalg.eigvalsh(-d[:, None] * K * d)[-1])
    return floor
