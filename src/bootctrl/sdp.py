"""Small dense semidefinite feasibility engine with independent checking.

Feasibility problems come in as lists of symmetric-matrix-valued affine
constraints in the decision variables (a symmetric matrix X, optionally a
scalar tau).  The solver runs a phase-I eigenvalue-shift minimization:

    minimize s   s.t.   G_j(v) <= s*I  (strict-negative constraints)
                        P_i(v) >= delta*I  (strict-positive constraints)

driven by a log-det barrier with damped Newton steps.  The verdict is
FEASIBLE exactly when the optimal shift satisfies s <= -delta.  Every
certificate is re-validated by check_certificate, which returns a
Cholesky-verified lower bound (Rump 2006) on its margin: the bound holds
for the exact real-valued constraints, whatever the rounding in forming
them, and never depends on the barrier or on an eigensolver being
accurate, so solver quality is never safety-critical.

INFEASIBLE means the phase-I optimum stays above -delta.  The tests in
this package are sufficient conditions, so INFEASIBLE never implies that
the underlying loop is unstable; naming stays neutral on purpose.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


class UncertifiableError(RuntimeError):
    """Raised when no feasible gain exists inside the bisection cap."""


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
    best_margin: float | None = None
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


class _BarrierData:
    """Constraint matrices rewritten in the phase-I variables z = (v, s)."""

    def __init__(self, problem: LmiProblem, delta: float, radius: float = 1e4):
        self.p = problem.n_vars
        self.terms = []
        self.n_barrier = 0
        for con in problem.constraints:
            m = con.dim
            eye = np.eye(m)
            basis = np.zeros((self.p + 1, m, m))
            if con.sense == "neg":
                scale = max(1.0, float(np.linalg.norm(con.const)))
                basis[: self.p] = -con.coeffs / scale
                basis[self.p] = eye
                const = -con.const / scale
            else:
                basis[: self.p] = con.coeffs
                const = con.const - delta * eye
            self.terms.append((const, basis, con.sense))
            self.n_barrier += m
        # Compactifying bounds radius*I - X >= 0 (and radius - tau >= 0).
        # The phase-I objective often has recession directions (constraint
        # margins that grow without lowering s), so without these the
        # analytic center need not exist and Newton cannot converge.  They
        # are internal to the solver and never part of the certified claim;
        # an INFEASIBLE verdict therefore means "no certificate within the
        # search radius", which the bounds keep far above any certificate
        # a well-scaled problem produces.
        n = problem.n_x
        basis_x = np.zeros((self.p + 1, n, n))
        basis_x[: problem.n_vech] = -np.stack(sym_basis(n))
        self.terms.append((radius * np.eye(n), basis_x, "bound"))
        self.n_barrier += n
        if problem.with_tau:
            basis_t = np.zeros((self.p + 1, 1, 1))
            basis_t[problem.n_vech, 0, 0] = -1.0
            self.terms.append((np.array([[radius]]), basis_t, "bound"))
            self.n_barrier += 1

    def matrices(self, z):
        return [
            const + np.tensordot(z, basis, axes=(0, 0))
            for const, basis, _ in self.terms
        ]

    def interior(self, z):
        return all(_strictly_positive(M) for M in self.matrices(z))

    def barrier_value(self, z, t):
        total = t * z[-1]
        for M in self.matrices(z):
            sign, logdet = np.linalg.slogdet(M)
            if sign <= 0:
                return np.inf
            total -= logdet
        return total

    def grad_hess(self, z, t):
        g = np.zeros(self.p + 1)
        H = np.zeros((self.p + 1, self.p + 1))
        g[-1] = t
        for const, basis, _ in self.terms:
            M = const + np.tensordot(z, basis, axes=(0, 0))
            W = np.linalg.inv(M)
            W = 0.5 * (W + W.T)
            U = np.einsum("ab,kbc->kac", W, basis)
            g -= np.einsum("kaa->k", U)
            H += np.einsum("kab,lba->kl", U, U)
        return g, H


def solve_feasibility(problem: LmiProblem, delta: float = 1e-7,
                      max_newton: int = 200, radius: float = 1e4) -> SolveOutcome:
    """Phase-I barrier solve; see the module docstring for the method.

    Strict-negative constraints are normalized by their constant part's
    Frobenius norm, so delta acts relative to the constraint scale; the
    strict-positive constraints X > 0 and tau > 0 are kept as hard
    barrier constraints at level delta.  The search is compactified to
    X <= radius*I, tau <= radius inside the solver, so INFEASIBLE means
    no certificate exists within that (generous) radius.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    data = _BarrierData(problem, delta, radius)

    # Start from X = I, tau = 1, s above the largest shifted eigenvalue.
    v0 = problem.pack(np.eye(problem.n_x), 1.0 if problem.with_tau else None)
    s0 = 1.0
    z = np.append(v0, s0)
    for (const, basis, sense), con in zip(data.terms, problem.constraints):
        if con.sense == "neg":
            G = const + np.tensordot(z[:-1], basis[:-1], axes=(0, 0))
            # G here is -Ghat; need s > lambda_max(Ghat) = -lambda_min(G)
            s0 = max(s0, float(-np.linalg.eigvalsh(G).min()) + 1.0)
    z[-1] = s0
    if not data.interior(z):
        return SolveOutcome(status=NUMERICAL_FAILURE, iterations=0)

    nu = data.n_barrier
    t = 1.0
    newton_count = 0
    while True:
        # Center at the current t.
        decrement = np.inf
        for _ in range(60):
            if newton_count >= max_newton:
                return SolveOutcome(status=NUMERICAL_FAILURE, iterations=newton_count)
            g, H = data.grad_hess(z, t)
            try:
                dz = -np.linalg.solve(H, g)
            except np.linalg.LinAlgError:
                dz = -np.linalg.solve(H + 1e-10 * np.eye(H.shape[0]), g)
            decrement = -0.5 * float(g @ dz)
            newton_count += 1
            if decrement < 1e-9:
                break
            step = 1.0
            phi0 = data.barrier_value(z, t)
            while step > 1e-13:
                cand = z + step * dz
                if data.interior(cand) and data.barrier_value(cand, t) <= phi0 + 0.25 * step * float(g @ dz):
                    break
                step *= 0.5
            if step <= 1e-13:
                break
            z = z + step * dz
            if z[-1] <= -1.5 * delta:
                # Strict feasibility is already witnessed; no need to
                # keep centering (the phase-I objective is unbounded
                # below on strictly feasible homogeneous problems).
                break

        s_cur = float(z[-1])
        centered = decrement < 1e-6
        if s_cur <= -delta:
            X, tau = problem.unpack(z[:-1])
            cert = SdpCertificate(
                X=0.5 * (X + X.T),
                tau=tau,
                margin_achieved=0.0,
                solver_iterations=newton_count,
            )
            margin = check_certificate(problem, cert)
            if margin < delta:
                return SolveOutcome(status=NUMERICAL_FAILURE, iterations=newton_count)
            cert = SdpCertificate(
                X=cert.X,
                tau=cert.tau,
                margin_achieved=margin,
                solver_iterations=newton_count,
            )
            return SolveOutcome(status=FEASIBLE, certificate=cert,
                                best_margin=margin, iterations=newton_count)
        if not centered:
            # The duality-gap bound below only holds at a centered point.
            return SolveOutcome(status=NUMERICAL_FAILURE, iterations=newton_count)
        if s_cur - nu / t > -delta:
            return SolveOutcome(status=INFEASIBLE, best_margin=-s_cur,
                                iterations=newton_count)
        if nu / t < delta / 20:
            # Razor-thin band around the decision boundary; settle by sign.
            return SolveOutcome(status=INFEASIBLE, best_margin=-s_cur,
                                iterations=newton_count)
        t *= 20.0


def bisect_gain(problem_builder, lo: float = 0.0, hi: float = 100.0,
                tol: float = 1e-3, delta: float = 1e-7, hi_cap: float = 1600.0):
    """Smallest certified-feasible gain by bisection on the gain itself.

    problem_builder maps gain**2 to an LmiProblem (the performance index
    is affine in the squared gain).  hi is doubled up to hi_cap until
    feasible; failure to find any feasible gain raises UncertifiableError.
    Returns (gain, certificate) for the smallest gain certified feasible.
    """
    if tol <= 0 or lo < 0 or hi <= lo:
        raise ValueError("need tol > 0 and 0 <= lo < hi")

    def attempt(g):
        outcome = solve_feasibility(problem_builder(g * g), delta=delta)
        if outcome.status == NUMERICAL_FAILURE:
            raise RuntimeError(f"solver failed numerically at gain {g}")
        return outcome

    outcome_lo = attempt(lo)
    if outcome_lo.feasible:
        return lo, outcome_lo.certificate

    outcome_hi = attempt(hi)
    while not outcome_hi.feasible:
        hi *= 2.0
        if hi > hi_cap:
            raise UncertifiableError(
                f"UNSTABLE_OR_UNCERTIFIABLE: no feasible gain at or below {hi_cap}"
            )
        outcome_hi = attempt(hi)

    cert = outcome_hi.certificate
    feasible_points = [hi]
    infeasible_points = [lo]
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        outcome = attempt(mid)
        if outcome.feasible:
            hi, cert = mid, outcome.certificate
            feasible_points.append(mid)
        else:
            lo = mid
            infeasible_points.append(mid)
    assert max(infeasible_points) < min(feasible_points)
    return hi, cert
