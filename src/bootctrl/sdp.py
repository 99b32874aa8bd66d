"""Small dense semidefinite engine with independent checking.

Problems come in as lists of symmetric-matrix-valued affine constraints in
the decision variables (a symmetric matrix X, optionally a scalar tau).
solve_feasibility runs a phase-I eigenvalue-shift minimization:

    minimize s   s.t.   G_j(v) <= s*I  (strict-negative constraints)
                        P_i(v) >= delta*I  (strict-positive constraints)

and FEASIBLE means the optimal shift satisfies s <= -delta.  bisect_gain
follows it with one phase-II minimization of g^2, which enters the
strict-negative constraints affinely.  Both phases run one log-det barrier
with damped Newton steps (Boyd & Vandenberghe, Convex Optimization, sec.
11.3-11.4; see _BarrierData and _center).  Each Newton step forms its
Hessian on the shared range of a constraint's coefficient matrices, the
way DSDP assembles its Newton matrix from low-rank data (Benson & Ye,
ACM TOMS 34(3), 2008): the lifted LMI's coefficients span at most
2 n_xi + n_wu + n_zu dimensions, whatever T_BS (10 for the demo
loop's 11 coefficients).  Every certificate is
re-validated by check_certificate, which returns a Cholesky-verified lower
bound (Rump 2006) on its margin: the bound holds for the exact real-valued
constraints, whatever the rounding in forming them, and never depends on
the barrier or on an eigensolver being accurate, so solver quality is
never safety-critical.

INFEASIBLE means the phase-I optimum stays above -delta.  The tests in
this package are sufficient conditions, so INFEASIBLE never implies that
the underlying loop is unstable; naming stays neutral on purpose.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

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


class UncertifiableError(RuntimeError):
    """Raised when no feasible gain exists at or below the gain cap."""


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


def _check_symmetric(M, name):
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError(f"{name} has non-finite entries")
    if np.abs(M - M.T).max() > 1e-12 * max(1.0, np.abs(M).max()):
        raise ValueError(f"{name} must be symmetric")


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
        _check_symmetric(const, f"constraint {self.name or 'const'}")
        if coeffs.ndim != 3 or coeffs.shape[1:] != const.shape:
            raise ValueError(
                f"coeffs must be (p, {const.shape[0]}, {const.shape[0]}), got {coeffs.shape}"
            )
        for k in range(coeffs.shape[0]):
            _check_symmetric(coeffs[k], f"constraint {self.name or '?'} coeff {k}")
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
        _check_symmetric(X, "X")
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
        _check_symmetric(X, "certificate X")
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


def jacobi_eigvals(A, tol=1e-13, max_sweeps=100):
    """Eigenvalues of a symmetric matrix by the cyclic Jacobi iteration.

    A reference solver: deterministic sweep order, no external eigenvalue
    routine, accurate to far better than 1e-10 on the matrix sizes used
    here (<= ~50).  The tests use it as an oracle independent of LAPACK.
    """
    A = np.asarray(A, dtype=float)
    _check_symmetric(A, "matrix")
    n = A.shape[0]
    if n == 1:
        return A.diagonal().copy()
    M = A.copy()
    scale = max(1.0, np.abs(M).max())
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(np.tril(M, -1) ** 2) * 2)
        if off <= tol * scale:
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
    symmetric stack coeffs and G_k = V^T F_k V, or (None, coeffs), meaning
    V = I, when R > m/2 or when some V G_k V^T misses its F_k.

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
        return None, coeffs
    G = V.T @ coeffs @ V
    for F, Gk, norm in zip(coeffs, G, norms):
        if np.linalg.norm(F - V @ Gk @ V.T) > 1e-13 * norm:
            return None, coeffs
    return V, G


class _BarrierData:
    """The barrier in z = (v, o) over one copy of each coefficient stack.

    The objective o is the shift s in phase I and g^2 in phase II.  A term
    (const, coeffs, first, scale, slope, V, G) is the matrix M(z) = const +
    scale * sum_k z[first + k] coeffs[k] (+ o diag(slope)), kept positive
    definite; coeffs is a constraint's own read-only stack.  G(v) > 0
    becomes G(v) - delta I.  G(v) < 0 becomes s I - G(v) / ||const||_F in
    phase I and, given gain_slopes[j] = diag(C), the diagonal g^2
    coefficient of constraint j, -G(v) - g^2 C - delta I in phase II: raw
    margin above delta.  The bounds _RADIUS I - X and _RADIUS - tau carry
    small stacks of their own.  Only constraint terms, whose coeffs cover
    all of v, have a slope, so a term's variables are a slice of z.

    V is an orthonormal basis of the coefficients' shared range
    (_range_basis; None means V = I) and G_k = V^T F_k V, kept only where
    F_k = V G_k V^T holds to 1e-13 of ||F_k||_F, with F_k = scale *
    coeffs[k].  With W = M^-1 and W^ = V^T W V (R x R), grad_hess takes g_k
    = -tr(W^ G_k) and H_kl = tr(W^ G_k W^ G_l): one batched matmul U_k = W^
    G_k and one GEMM of the flattened U by the flattened U_k^T.  The slope S
    = diag(slope) lies outside that range and enters through its diagonal:
    g_o = -sum_i W_ii S_ii, H_ko = tr(G_k (WV)^T S WV) and H_oo = sum_ij
    S_ii W_ij^2 S_jj, at O(m^2 R).  The lifted LMI's coefficients lie in the
    ranges of T_sta^T and T_unc^T, so R <= 2 n_xi + n_wu + n_zu whatever
    T_BS (R = 10 of 11 coefficients for the demo loop), and there only the
    inverse stays cubic in m.  With V = I, W S = W * slope joins the stack
    as U_o and one GEMM gives every entry.  barrier_value takes each log-det
    from one Cholesky, inf if any fails.
    """

    def __init__(self, problem: LmiProblem, delta: float, gain_slopes=None):
        self.p = problem.n_vars
        self.terms = []
        for j, con in enumerate(problem.constraints):
            if con.sense == "pos":
                self._add(con.const - delta * np.eye(con.dim), con.coeffs, 0, 1.0, None)
            elif gain_slopes is None:
                norm = max(1.0, float(np.linalg.norm(con.const)))
                self._add(-con.const / norm, con.coeffs, 0, -1.0 / norm,
                          np.ones(con.dim))
            else:
                self._add(-con.const - delta * np.eye(con.dim), con.coeffs, 0, -1.0,
                          -gain_slopes[j])
        # Compactifying bounds: without them the phase-I objective's
        # recession directions (margins that grow without lowering s) leave
        # no analytic center.  They are never part of the certified claim,
        # so INFEASIBLE means "no certificate within the search radius".
        n = problem.n_x
        self._add(_RADIUS * np.eye(n), np.stack(sym_basis(n)), 0, -1.0, None)
        if problem.with_tau:
            self._add(np.array([[_RADIUS]]), np.ones((1, 1, 1)), problem.n_vech,
                      -1.0, None)
        self.n_barrier = sum(term[0].shape[0] for term in self.terms)

    def _add(self, const, coeffs, first, scale, slope):
        V, G = _range_basis(coeffs)
        self.terms.append((const, coeffs, first, scale, slope, V, G))

    def matrix(self, term, z):
        const, coeffs, first, scale, slope = term[:5]
        q, m = coeffs.shape[0], const.shape[0]
        M = const + scale * (z[first:first + q] @ coeffs.reshape(q, -1)).reshape(m, m)
        if slope is not None:
            M.flat[::m + 1] += z[-1] * slope
        return M

    def barrier_value(self, z, t):
        total = t * z[-1]
        for term in self.terms:
            try:
                L = np.linalg.cholesky(self.matrix(term, z))
            except np.linalg.LinAlgError:
                return np.inf
            total -= 2.0 * np.log(np.diagonal(L)).sum()
        # A NaN or inf in M passes the factorization but leaves a
        # non-finite diagonal in L.
        return total if np.isfinite(total) else np.inf

    def grad_hess(self, z, t):
        g = np.zeros(self.p + 1)
        H = np.zeros((self.p + 1, self.p + 1))
        g[-1] = t
        for term in self.terms:
            first, scale, slope, V, G = term[2:]
            q = len(G)
            W = np.linalg.inv(self.matrix(term, z))
            W = 0.5 * (W + W.T)
            if V is None:
                U = np.empty((q + (slope is not None),) + W.shape)
                np.matmul(scale * W, G, out=U[:q])
                if slope is not None:
                    np.multiply(W, slope, out=U[q])
            else:
                WV = W @ V
                U = np.matmul(scale * (V.T @ WV), G)
                if slope is not None:
                    Z = WV.T @ (slope[:, None] * WV)
                    cross = scale * (G.reshape(q, -1) @ Z.ravel())
                    H[first:first + q, -1] += cross
                    H[-1, first:first + q] += cross
                    g[-1] -= np.diagonal(W) @ slope
                    H[-1, -1] += slope @ (W * W) @ slope
            cols = slice(first, first + len(U))
            g[cols] -= np.trace(U, axis1=1, axis2=2)
            Uf = U.reshape(len(U), -1)
            H[cols, cols] += Uf @ U.transpose(0, 2, 1).reshape(Uf.shape).T
        return g, H


def _center(data, z, t, steps, floor=-np.inf):
    """Damped Newton centering of the barrier at t from the interior point z.

    Armijo backtracking on each step; stops when the Newton decrement is
    below 1e-9, the line search stalls, or the objective z[-1] reaches
    floor.  Returns (z, decrement, steps), with decrement None when z is
    not interior or steps reached _MAX_NEWTON first.
    """
    phi = data.barrier_value(z, t)
    if phi == np.inf:
        return z, None, steps
    decrement = np.inf
    for _ in range(60):
        if steps >= _MAX_NEWTON:
            return z, None, steps
        g, H = data.grad_hess(z, t)
        try:
            dz = -np.linalg.solve(H, g)
        except np.linalg.LinAlgError:
            dz = -np.linalg.solve(H + 1e-10 * np.eye(H.shape[0]), g)
        decrement = -0.5 * float(g @ dz)
        steps += 1
        if decrement < 1e-9:
            break
        step = 1.0
        while step > 1e-13:
            cand = z + step * dz
            phi_cand = data.barrier_value(cand, t)
            if phi_cand <= phi + 0.25 * step * float(g @ dz):
                break
            step *= 0.5
        if step <= 1e-13:
            break
        z, phi = cand, phi_cand
        if z[-1] <= floor:
            break
    return z, decrement, steps


def _certificate(problem: LmiProblem, v, iterations: int) -> SdpCertificate:
    """The point v as a certificate of problem, with its checked margin."""
    X, tau = problem.unpack(v)
    cert = SdpCertificate(X=X, tau=tau, margin_achieved=0.0,
                          solver_iterations=iterations)
    return replace(cert, margin_achieved=check_certificate(problem, cert))


def solve_feasibility(problem: LmiProblem, delta: float = 1e-7) -> SolveOutcome:
    """Phase-I barrier solve; see the module docstring for the method.

    Strict-negative constraints are normalized by their constant part's
    Frobenius norm, so delta acts relative to the constraint scale; the
    strict-positive constraints X > 0 and tau > 0 are kept as hard
    barrier constraints at level delta.  The search is compactified to
    X <= _RADIUS*I, tau <= _RADIUS inside the solver, so INFEASIBLE means
    no certificate exists within that (generous) radius.
    """
    if not (np.isfinite(delta) and delta > 0):
        raise ValueError(f"delta must be finite and positive, got {delta}")
    data = _BarrierData(problem, delta)

    # Start from X = I, tau = 1 and s at least 1 above every lambda_max(Ghat):
    # a term with a slope is -Ghat at s = 0.
    v0 = problem.pack(np.eye(problem.n_x), 1.0 if problem.with_tau else None)
    z = np.append(v0, 0.0)
    z[-1] = max([1.0] + [1.0 - np.linalg.eigvalsh(data.matrix(term, z))[0]
                         for term in data.terms if term[4] is not None])
    nu = data.n_barrier
    t = 1.0
    steps = 0
    while True:
        # Centering stops once s <= -1.5 delta witnesses strict feasibility
        # (s is unbounded below on strictly feasible homogeneous problems).
        z, decrement, steps = _center(data, z, t, steps, floor=-1.5 * delta)
        if decrement is None:
            return SolveOutcome(status=NUMERICAL_FAILURE, iterations=steps)
        s_cur = float(z[-1])
        if s_cur <= -delta:
            cert = _certificate(problem, z[:-1], steps)
            if cert.margin_achieved < delta:
                return SolveOutcome(status=NUMERICAL_FAILURE, iterations=steps)
            return SolveOutcome(status=FEASIBLE, certificate=cert, iterations=steps)
        if decrement >= 1e-6:
            # The duality-gap bound below only holds at a centered point.
            return SolveOutcome(status=NUMERICAL_FAILURE, iterations=steps)
        if s_cur - nu / t > -delta or nu / t < delta / 20:
            # The optimum is above -delta, or within a razor-thin band of it.
            return SolveOutcome(status=INFEASIBLE, iterations=steps)
        t *= 20.0


def bisect_gain(problem_builder, tol: float = 1e-3, delta: float = 1e-7,
                hi_cap: float = 1600.0):
    """Smallest certified gain by one phase-I and one phase-II barrier solve.

    problem_builder maps g^2 to an LmiProblem in which g^2 (Qp = -g^2 I)
    enters only the strict-negative constants, affinely, so the smallest
    gain is an eigenvalue problem (EVP; Boyd, El Ghaoui, Feron &
    Balakrishnan 1994).  The builder runs three times: at g^2 = 0 and 1,
    whose difference is the g^2 slope C, and at the reported gain.  Phase
    I finds a point of the g^2 = 0 problem with hi_cap^2 C added to its
    strict-negative constants, or raises UncertifiableError.  Phase II
    minimizes g^2 from there and stops at a centered point once the gain
    is within tol of the duality-gap bound sqrt(g^2 - nu/t).  Returns
    (gain, certificate): sqrt(g^2) rounded up, with the margin checked at
    problem_builder(gain * gain).  tol, delta and hi_cap must be finite
    and positive, checked before any build, and every strict-negative C
    diagonal, or ValueError is raised.  A stalled phase II or a failed
    check raises RuntimeError.  The name predates the method; perfbench's
    tracer patches the function under it.
    """
    for name, value in (("tol", tol), ("delta", delta), ("hi_cap", hi_cap)):
        if not (np.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    base, unit = problem_builder(0.0), problem_builder(1.0)
    slopes = [b.const - a.const for a, b in zip(base.constraints, unit.constraints)]
    for con, slope in zip(base.constraints, slopes):
        if con.sense == "neg" and np.count_nonzero(slope - np.diag(np.diagonal(slope))):
            raise ValueError(
                f"the g^2 slope of constraint {con.name!r} is not diagonal")
    capped = replace(base, constraints=[
        replace(con, const=con.const + hi_cap * hi_cap * slope)
        if con.sense == "neg" else con
        for con, slope in zip(base.constraints, slopes)])
    outcome = solve_feasibility(capped, delta=delta)
    if outcome.status == NUMERICAL_FAILURE:
        raise RuntimeError(f"solver failed numerically at gain {hi_cap}")
    if not outcome.feasible:
        raise UncertifiableError(
            f"UNSTABLE_OR_UNCERTIFIABLE: no feasible gain at or below {hi_cap}")

    data = _BarrierData(base, delta, [np.diagonal(slope) for slope in slopes])
    start = outcome.certificate
    z = np.append(base.pack(start.X, start.tau), hi_cap * hi_cap)
    nu = data.n_barrier
    t = nu / z[-1]  # a duality gap the size of the starting objective
    steps = 0
    while True:
        z, decrement, steps = _center(data, z, t, steps)
        if decrement is None or decrement >= 1e-6:
            raise RuntimeError(f"phase II failed after {steps} Newton steps")
        gain_sq = float(z[-1])
        gain = float(np.nextafter(np.sqrt(max(gain_sq, 0.0)), np.inf))
        if gain - np.sqrt(max(0.0, gain_sq - nu / t)) <= tol:
            break
        t *= 20.0
    cert = _certificate(problem_builder(gain * gain), z[:-1],
                        outcome.iterations + steps)
    if cert.margin_achieved < delta:
        raise RuntimeError(f"phase II point failed its check at gain {gain}")
    return gain, cert
