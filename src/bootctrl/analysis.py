"""Robust performance analysis of the encrypted loop.

Assembles the two sufficient LMI tests for quadratic performance under
sector-bounded refresh errors: the direct test on the closed loop
(THEOREM_1) and the less conservative lifted test that accounts for the
refresh happening only every T_BS steps (THEOREM_2).  analyze_l2_gain
also casts periodic state resets and FIR-style controllers (through
fir_closed_loop) into the same sector framework with slope gamma = 1.

Assembly is done literally as congruence products

    (T)^T  M  (T)

on the tall outer factors of the test, summed term by term, so the code
can be audited line by line against the test statement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bootpoly import BootstrapPolynomial
from .sdp import (
    LmiConstraint,
    LmiProblem,
    SdpCertificate,
    UncertifiableError,
    bisect_gain,
    sym_basis,
)
from .statespace import (
    ClosedLoop,
    Controller,
    PerformanceIndex,
    Plant,
    _Matrices,
    as_matrix,
    check_count,
    check_real,
    interconnect,
    lift,
    lift_performance,
)

__all__ = [
    "SectorBound",
    "AnalysisReport",
    "sector_from_bootstrap",
    "l2_gain_index",
    "build_theorem1",
    "build_theorem2",
    "make_fir_controller",
    "fir_closed_loop",
    "analyze_l2_gain",
]

THEOREM_1 = "THEOREM_1"
THEOREM_2 = "THEOREM_2"
CERTIFIED = "CERTIFIED"
NOT_CERTIFIED = "NOT_CERTIFIED"


@dataclass(frozen=True)
class SectorBound(_Matrices):
    """Sector [L_lower, L_upper] on the uncertainty channel.

    The quadratic multiplier is

        P_u = [ -2 I              L_lower + L_upper          ]
              [ (L_lower+L_upper)^T   -L_lower^T L_upper - L_upper^T L_lower ]

    and (w_u, z_u) pairs produced by any admissible uncertainty satisfy
    [w_u; z_u]^T P_u [w_u; z_u] >= 0.
    """

    L_lower: np.ndarray
    L_upper: np.ndarray

    _DIMS = {"L_lower": ("n_zu", "n_zu"), "L_upper": ("n_zu", "n_zu")}

    @property
    def P_u(self):
        Ll, Lu = self.L_lower, self.L_upper
        n = Ll.shape[0]
        return np.block(
            [
                [-2.0 * np.eye(n), Ll + Lu],
                [Ll.T + Lu.T, -Ll.T @ Lu - Lu.T @ Ll],
            ]
        )

    @classmethod
    def symmetric(cls, gamma, n_zu):
        """Componentwise symmetric sector [-gamma, gamma]."""
        gamma = check_real(gamma, "gamma")
        if gamma < 0:
            raise ValueError(f"gamma must be finite and nonnegative, got {gamma!r}")
        return cls(L_lower=-gamma * np.eye(n_zu), L_upper=gamma * np.eye(n_zu))


def sector_from_bootstrap(poly: BootstrapPolynomial, n_zu: int) -> SectorBound:
    """Sector bound induced by a certified refresh polynomial.

    The componentwise relative error bound gives L_upper = gamma I and
    L_lower = -gamma I; gamma >= 1 would admit sign flips of the state
    and is rejected as uncertifiable.
    """
    gamma = poly.gamma_certified
    if gamma >= 1.0:
        raise ValueError(
            f"polynomial slope gamma = {gamma:.4f} >= 1 cannot define a usable sector"
        )
    return SectorBound.symmetric(gamma, n_zu)


def l2_gain_index(m_wp: int, p_z: int, gain_sq: float) -> PerformanceIndex:
    """Performance index encoding an l2-gain bound: Qp = -gain^2 I, Rp = I.

    A gain from no disturbance or to no output bounds nothing, so m_wp and
    p_z must be at least 1, or ValueError names the dimension.
    """
    check_count(m_wp, "m_wp (disturbance inputs, m_w1 + m_w2)", 1)
    check_count(p_z, "p_z (performance outputs)", 1)
    return PerformanceIndex(
        Qp=-float(gain_sq) * np.eye(m_wp),
        Sp=np.zeros((m_wp, p_z)),
        Rp=np.eye(p_z),
    )


def build_theorem1(cl: ClosedLoop, perf: PerformanceIndex,
                   sector: SectorBound) -> LmiProblem:
    """Direct robust-performance test on the closed loop.

    Feasibility of  X > 0, tau > 0  with

        (*)^T [ -X 0; 0 X ] [ I 0 0; Acl Bp Bu ]
      + (*)^T     P_p       [ 0 I 0; Cp Dpp Dpu ]
      + (*)^T   tau P_u     [ 0 0 I; Cu Dup Duu ]   < 0

    certifies quadratic performance for every admissible uncertainty.
    """
    if perf.m_wp != cl.m_wp or perf.p_z != cl.p_z:
        raise ValueError(
            f"performance index is {perf.m_wp}x{perf.p_z}, loop needs {cl.m_wp}x{cl.p_z}"
        )
    if sector.n_zu != cl.n_zu:
        raise ValueError(
            f"sector dimension {sector.n_zu} does not match uncertainty output {cl.n_zu}"
        )
    r_eigs = np.linalg.eigvalsh(perf.Rp)  # none when p_z = 0: the check passes
    if r_eigs.min(initial=0.0) < -1e-10 * max(1.0, abs(r_eigs).max(initial=0.0)):
        raise ValueError(
            "Rp must be positive semidefinite (hypothesis of the performance test)"
        )

    nxi, m_wp, n_wu = cl.n_xi, cl.m_wp, cl.n_wu
    ncols = nxi + m_wp + n_wu

    T_sta = np.vstack(
        [
            np.hstack([np.eye(nxi), np.zeros((nxi, m_wp + n_wu))]),
            np.hstack([cl.Acl, cl.Bp, cl.Bu]),
        ]
    )
    T_perf = np.vstack(
        [
            np.hstack([np.zeros((m_wp, nxi)), np.eye(m_wp), np.zeros((m_wp, n_wu))]),
            np.hstack([cl.Cp, cl.Dpp, cl.Dpu]),
        ]
    )
    T_unc = np.vstack(
        [
            np.hstack([np.zeros((n_wu, nxi + m_wp)), np.eye(n_wu)]),
            np.hstack([cl.Cu, cl.Dup, cl.Duu]),
        ]
    )

    basis = sym_basis(nxi)
    n_vech = len(basis)
    coeffs = np.zeros((n_vech + 1, ncols, ncols))
    for k, S in enumerate(basis):
        middle = np.block(
            [[-S, np.zeros((nxi, nxi))], [np.zeros((nxi, nxi)), S]]
        )
        coeffs[k] = T_sta.T @ middle @ T_sta
    coeffs[n_vech] = T_unc.T @ sector.P_u @ T_unc
    for F in coeffs:  # symmetrize in place: no second p x m x m stack
        F += F.T
        F *= 0.5
    const = T_perf.T @ perf.Pp @ T_perf

    lmi = LmiConstraint(
        const=0.5 * (const + const.T),
        coeffs=coeffs,
        sense="neg",
        name="performance_lmi",
    )
    x_pos = LmiConstraint(
        const=np.zeros((nxi, nxi)),
        coeffs=np.concatenate(
            [np.stack(basis), np.zeros((1, nxi, nxi))], axis=0
        ),
        sense="pos",
        name="X_pos",
    )
    tau_coeffs = np.zeros((n_vech + 1, 1, 1))
    tau_coeffs[n_vech, 0, 0] = 1.0
    tau_pos = LmiConstraint(
        const=np.zeros((1, 1)), coeffs=tau_coeffs, sense="pos", name="tau_pos"
    )
    return LmiProblem(n_x=nxi, constraints=(lmi, x_pos, tau_pos), with_tau=True)


def build_theorem2(cl: ClosedLoop, perf: PerformanceIndex, sector: SectorBound,
                   T_BS: int) -> LmiProblem:
    """Lifted robust-performance test; X keeps the base state dimension."""
    return build_theorem1(lift(cl, T_BS), lift_performance(perf, T_BS), sector)


def make_fir_controller(N: int, lam: float, c_out, p_y: int = 1) -> Controller:
    """Delay-line realization of a moving-aggregation (FIR) controller.

    State layout: [y(t-1), ..., y(t-N), a(t)] with each delay slot p_y
    wide and a scalar aggregator block of width p_y obeying
    a(t+1) = lam a(t) + y(t); the uncertainty channel later removes the
    aggregator's memory of y(t-N), which makes

        a(t) = sum_{i=1..N} lam^(i-1) y(t-i)

    an FIR window of the last N measurements.  The output is
    u = c_out a(t), with no direct feedthrough.  |lam| < 1 keeps the nominal
    realization stable (lam = 1, a plain running sum, is not certifiable:
    the sector must contain the error-free case).
    """
    N = check_count(N, "N", 1)
    lam = check_real(lam, "lam")
    if abs(lam) >= 1:
        raise ValueError("the aggregator pole must satisfy |lam| < 1")
    c_out = as_matrix(c_out, "c_out")
    m_u = c_out.shape[0]
    if c_out.shape[1] != p_y:
        raise ValueError(f"c_out must have {p_y} columns")

    eye = np.eye(p_y)
    nc = (N + 1) * p_y
    Ac = np.zeros((nc, nc))
    Ac[: N * p_y, : N * p_y] = np.kron(np.eye(N, k=-1), eye)
    Ac[N * p_y:, N * p_y:] = lam * eye
    Bc = np.zeros((nc, p_y))
    Bc[:p_y, :] = eye
    Bc[N * p_y:, :] = eye
    Cc = np.zeros((m_u, nc))
    Cc[:, N * p_y:] = c_out
    return Controller(
        Ac=Ac,
        Bc=Bc,
        B2=np.zeros((nc, 1)),
        Cc=Cc,
        Dc=np.zeros((m_u, p_y)),
        F2=np.zeros((m_u, 1)),
    )


def _validate_fir_structure(controller: Controller, N: int):
    N = check_count(N, "FIR length", 1)
    p_y = controller.p_y
    nd = N * p_y
    if controller.nc < nd + 1:
        raise ValueError(
            f"controller has {controller.nc} states; a length-{N} delay line "
            f"of {p_y}-wide measurements needs at least {nd + 1}"
        )
    want_top = np.kron(np.eye(N, k=-1), np.eye(p_y))
    if not np.allclose(controller.Ac[:nd, :nd], want_top, atol=1e-12):
        raise ValueError("controller state must start with a measurement delay line")
    if not np.allclose(controller.Ac[:nd, nd:], 0.0, atol=1e-12):
        raise ValueError("delay-line states must not be driven by the aggregator")
    if not np.allclose(controller.Bc[:nd], np.eye(nd, p_y), atol=1e-12):
        raise ValueError("delay line must load the current measurement at its head")


def fir_closed_loop(plant: Plant, fir_controller: Controller, N: int) -> ClosedLoop:
    """Closed loop of the FIR adapter with its rewired uncertainty channel.

    The uncertainty output taps the dropped measurement y(t-N) (the last
    delay slot), and the uncertainty input column becomes [0; Ac^N Bc]:
    injecting w_u = -y(t-N) there cancels exactly the influence that
    y(t-N) would still have had on the nominal controller state.
    """
    _validate_fir_structure(fir_controller, N)
    cl = interconnect(plant, fir_controller)
    n, nc, p_y = plant.n, fir_controller.nc, fir_controller.p_y

    Ac_pow = np.eye(nc)
    for _ in range(N):
        Ac_pow = fir_controller.Ac @ Ac_pow
    Bu = np.vstack([np.zeros((n, p_y)), Ac_pow @ fir_controller.Bc])

    Cu = np.zeros((p_y, n + nc))
    Cu[:, n + (N - 1) * p_y: n + N * p_y] = np.eye(p_y)
    return ClosedLoop(
        Acl=cl.Acl,
        Bp=cl.Bp,
        Bu=Bu,
        Cp=cl.Cp,
        Dpp=cl.Dpp,
        Dpu=np.zeros((cl.p_z, p_y)),
        Cu=Cu,
        Dup=np.zeros((p_y, cl.m_wp)),
        Duu=np.zeros((p_y, p_y)),
    )


@dataclass(frozen=True)
class AnalysisReport:
    """Outcome of a gain certification run."""

    verdict: str
    method: str
    T_BS: int
    gamma_sector: float
    gain: float | None = None
    certificate: SdpCertificate | None = None
    mode: str = "bootstrap"
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.verdict not in (CERTIFIED, NOT_CERTIFIED):
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if (self.gain is not None) != (self.verdict == CERTIFIED):
            raise ValueError("gain must be present exactly when the verdict is CERTIFIED")

    def to_json(self):
        out = {
            "verdict": self.verdict,
            "method": self.method,
            "T_BS": self.T_BS,
            "gamma_sector": self.gamma_sector,
            "gain": self.gain,
            "mode": self.mode,
            "details": self.details,
        }
        out["certificate"] = self.certificate.to_json() if self.certificate else None
        return out


def analyze_l2_gain(plant: Plant, controller: Controller, gamma_sector: float,
                    method: str = THEOREM_2, T_BS: int = 1, mode: str = "bootstrap",
                    fir_length: int | None = None, tol: float = 1e-3) -> AnalysisReport:
    """Smallest certified l2-gain, to within tol, by sdp.bisect_gain's EVP.

    The mode alone fixes the loop, the sector slope and the test: "bootstrap"
    uses the given slope on the interconnection; "reset" forces slope 1
    and the lifted test with T_BS as the reset period; "fir" forces slope 1
    and the direct test on the rewired loop of fir_closed_loop.  The LMI is
    built once, at g^2 = 0, and bisect_gain gets the slope of Qp = -g^2 I:
    -1 on its T_BS * m_wp w_p rows.  Returns a NOT_CERTIFIED report instead
    of raising when no certificate within the search radius exists at any gain.
    """
    if method not in (THEOREM_1, THEOREM_2):
        raise ValueError(f"unknown method {method!r}")
    # Python ints, so that the report's JSON carries no numpy integer.
    T_BS = check_count(T_BS, "T_BS")
    if fir_length is not None:
        fir_length = check_count(fir_length, "FIR length")
    details = {}
    if mode == "bootstrap":
        cl = interconnect(plant, controller)
        if method == THEOREM_1:
            T_BS = 1
    elif mode == "reset":
        cl = interconnect(plant, controller)
        gamma_sector, method = 1.0, THEOREM_2
        details["reset_period"] = T_BS
    elif mode == "fir":
        if fir_length is None:
            raise ValueError("fir mode needs fir_length")
        cl = fir_closed_loop(plant, controller, fir_length)
        gamma_sector, method, T_BS = 1.0, THEOREM_1, 1
        details["fir_length"] = fir_length
        details["Bu_modified"] = cl.Bu.tolist()
        details["Cu_modified"] = cl.Cu.tolist()
    else:
        raise ValueError(f"unknown mode {mode!r}")
    sector = SectorBound.symmetric(gamma_sector, cl.n_zu)
    problem = build_theorem2(cl, l2_gain_index(cl.m_wp, cl.p_z, 0.0), sector, T_BS)
    slope = np.zeros(problem.constraints[0].dim)  # Qp = -g^2 I on the w_p rows
    slope[cl.n_xi:cl.n_xi + T_BS * cl.m_wp] = -1.0
    try:
        gain, cert = bisect_gain(problem, [slope, None, None], tol=tol)
    except UncertifiableError:
        gain = cert = None
    return AnalysisReport(
        verdict=NOT_CERTIFIED if gain is None else CERTIFIED,
        method=method,
        T_BS=T_BS,
        gamma_sector=gamma_sector,
        gain=gain,
        certificate=cert,
        mode=mode,
        details=details,
    )
