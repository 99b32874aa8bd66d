"""An exact-arithmetic oracle for CERTIFIED.

Every float is a dyadic rational, so the certified LMI can be rebuilt
exactly with fractions.Fraction from the system file's floats: the closed
loop, the lift's powers, the congruences and the sector term.  At a
report's (X, tau, gain) the oracle then decides, by integer Bareiss
elimination (Sylvester's criterion), whether every constraint holds with
the report's margin: -G - margin I > 0, X - margin I > 0 and
tau - margin > 0.  It shares nothing with sdp's rounding allowances or
Rump's bound, so a change that makes check_certificate unsound fails here.
"""

from fractions import Fraction
from math import lcm

import numpy as np
import pytest

from bootctrl import bootpoly
from bootctrl.analysis import (
    CERTIFIED,
    THEOREM_1,
    THEOREM_2,
    SectorBound,
    analyze_l2_gain,
    build_theorem2,
    l2_gain_index,
)
from bootctrl.bootpoly import BootstrapSpec, fit
from bootctrl.fixtures import REFERENCE_SECTOR_SLOPE, demo_system
from bootctrl.statespace import interconnect


def _exact(M):
    return [[Fraction(x) for x in row] for row in np.atleast_2d(M).tolist()]


def _zeros(r, c):
    return [[Fraction(0)] * c for _ in range(r)]


def _eye(n, scale=1):
    return [[Fraction(scale if i == j else 0) for j in range(n)] for i in range(n)]


def _mul(A, B):
    Bt = list(zip(*B))
    return [[sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in Bt] for row in A]


def _add(*Ms):
    return [[sum(xs, Fraction(0)) for xs in zip(*rows)] for rows in zip(*Ms)]


def _t(A):
    return [list(col) for col in zip(*A)]


def _hcat(*Ms):
    return [sum(rows, []) for rows in zip(*Ms)]


def _vcat(*Ms):
    return [row for M in Ms for row in M]


def _neg(M):
    return [[-x for x in row] for row in M]


def _closed_loop(plant, controller):
    """interconnect's blocks, exactly."""
    A, B, B1, C, F1, C1, E, D1 = (_exact(getattr(plant, k)) for k in plant._DIMS)
    Ac, Bc, B2, Cc, Dc, F2 = (_exact(getattr(controller, k)) for k in controller._DIMS)
    n, nc, m_wp = plant.n, controller.nc, plant.m_w1 + controller.m_w2
    BDc, EDc = _mul(B, Dc), _mul(E, Dc)
    return dict(
        Acl=_vcat(_hcat(_add(A, _mul(BDc, C)), _mul(B, Cc)), _hcat(_mul(Bc, C), Ac)),
        Bp=_vcat(_hcat(_add(B1, _mul(BDc, F1)), _mul(B, F2)), _hcat(_mul(Bc, F1), B2)),
        Bu=_vcat(_zeros(n, nc), Ac),
        Cp=_hcat(_add(C1, _mul(EDc, C)), _mul(E, Cc)),
        Dpp=_hcat(_add(D1, _mul(EDc, F1)), _mul(E, F2)),
        Dpu=_zeros(plant.p_z, nc),
        Cu=_hcat(_zeros(nc, n), _eye(nc)),
        Dup=_zeros(nc, m_wp),
        Duu=_zeros(nc, nc),
    )


def _lift(cl, T):
    """The T-step lift: x(T) and every z_p(t), t < T, from x(0), the T
    w_p inputs and w_u at step 0 only."""
    n_xi, m_wp, p_z = len(cl["Acl"]), len(cl["Bp"][0]), len(cl["Cp"])
    powers = [_eye(n_xi)]
    for _ in range(T):
        powers.append(_mul(cl["Acl"], powers[-1]))
    CpA = [_mul(cl["Cp"], P) for P in powers[:T]]
    Dpp = _vcat(*[_hcat(*[cl["Dpp"] if j == i else
                          _mul(CpA[i - j - 1], cl["Bp"]) if j < i else _zeros(p_z, m_wp)
                          for j in range(T)]) for i in range(T)])
    return dict(
        Acl=powers[T],
        Bp=_hcat(*[_mul(powers[T - 1 - j], cl["Bp"]) for j in range(T)]),
        Bu=_mul(powers[T - 1], cl["Bu"]),
        Cp=_vcat(*CpA),
        Dpp=Dpp,
        Dpu=_vcat(cl["Dpu"], *[_mul(C, cl["Bu"]) for C in CpA[:T - 1]]),
        Cu=cl["Cu"],
        Dup=_hcat(cl["Dup"], *[_zeros(len(cl["Cu"]), m_wp)] * (T - 1)),
        Duu=cl["Duu"],
    )


def _performance_lmi(cl, X, tau, gain, gamma):
    """G = (*)^T diag(-X, X) [I 0 0; Acl Bp Bu]
     + (*)^T diag(-g^2 I, I) [0 I 0; Cp Dpp Dpu]
     + tau (*)^T P_u [0 0 I; Cu Dup Duu],  sector [-gamma, gamma]."""
    n_xi, m_wp, n_wu = len(cl["Acl"]), len(cl["Bp"][0]), len(cl["Bu"][0])
    n_zu, p_z = len(cl["Cu"]), len(cl["Cp"])
    g_sq, Ll, Lu = Fraction(gain) ** 2, _eye(n_zu, -Fraction(gamma)), _eye(n_zu, Fraction(gamma))
    P_u = _vcat(_hcat(_eye(n_wu, -2), _add(Ll, Lu)),
                _hcat(_t(_add(Ll, Lu)), _neg(_add(_mul(_t(Ll), Lu), _mul(_t(Lu), Ll)))))
    terms = []
    for top, bottom, middle in (
            (_hcat(_eye(n_xi), _zeros(n_xi, m_wp + n_wu)),
             _hcat(cl["Acl"], cl["Bp"], cl["Bu"]),
             _vcat(_hcat(_neg(X), _zeros(n_xi, n_xi)),
                   _hcat(_zeros(n_xi, n_xi), X))),
            (_hcat(_zeros(m_wp, n_xi), _eye(m_wp), _zeros(m_wp, n_wu)),
             _hcat(cl["Cp"], cl["Dpp"], cl["Dpu"]),
             _vcat(_hcat(_eye(m_wp, -g_sq), _zeros(m_wp, p_z)),
                   _hcat(_zeros(p_z, m_wp), _eye(p_z)))),
            (_hcat(_zeros(n_wu, n_xi + m_wp), _eye(n_wu)),
             _hcat(cl["Cu"], cl["Dup"], cl["Duu"]),
             [[tau * x for x in row] for row in P_u])):
        outer = _vcat(top, bottom)
        terms.append(_mul(_t(outer), _mul(middle, outer)))
    return _add(*terms)


def _positive_definite(M):
    """Sylvester's criterion on the integer matrix lcm(denominators) * M:
    Bareiss's fraction-free pivots are its leading principal minors."""
    scale = lcm(*(x.denominator for row in M for x in row))
    A = [[int(x * scale) for x in row] for row in M]
    prev = 1
    for k in range(len(A)):
        if A[k][k] <= 0:
            return False
        for i in range(k + 1, len(A)):
            for j in range(k + 1, len(A)):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return True


def _holds(cl, X, tau, gain, gamma, margin):
    """Every constraint of the certificate with the given margin, exactly."""
    X, tau, margin = _exact(X), Fraction(tau), Fraction(margin)
    G = _performance_lmi(cl, X, tau, gain, gamma)
    return (tau > margin and _positive_definite(_add(X, _eye(len(X), -margin)))
            and _positive_definite(_add(_neg(G), _eye(len(G), -margin))))


@pytest.fixture(scope="module")
def exact_loop():
    return _closed_loop(*demo_system())


@pytest.mark.parametrize("kwargs, T, gamma", [
    (dict(method=THEOREM_1), 1, REFERENCE_SECTOR_SLOPE),
    (dict(method=THEOREM_2, T_BS=5), 5, REFERENCE_SECTOR_SLOPE),
    (dict(mode="reset", T_BS=5), 5, 1.0),
], ids=["direct", "lifted_T5", "reset_T5"])
def test_certificate_holds_in_exact_arithmetic(exact_loop, kwargs, T, gamma):
    """The exact LMI of the system file's floats is the one the analysis
    assembled in floats, to rounding, and it holds at the certificate with
    the reported margin; at twice that margin, or with X scaled by 1/2, it
    does not."""
    plant, controller = demo_system()
    report = analyze_l2_gain(plant, controller, REFERENCE_SECTOR_SLOPE, **kwargs)
    assert report.verdict == CERTIFIED and report.gamma_sector == gamma
    cert = report.certificate
    cl = exact_loop if T == 1 else _lift(exact_loop, T)
    loop = interconnect(plant, controller)
    problem = build_theorem2(loop, l2_gain_index(loop.m_wp, loop.p_z, report.gain ** 2),
                             SectorBound.symmetric(gamma, loop.n_zu), T)
    G = problem.constraints[0].evaluate(problem.pack(cert.X, cert.tau))
    exact = np.array(_performance_lmi(cl, _exact(cert.X), Fraction(cert.tau), report.gain,
                                      gamma), dtype=float)
    np.testing.assert_allclose(G, exact, rtol=0, atol=1e-9 * np.abs(G).max())
    assert _holds(cl, cert.X, cert.tau, report.gain, gamma, cert.margin_achieved)
    assert not _holds(cl, cert.X, cert.tau, report.gain, gamma, 2 * cert.margin_achieved)
    assert not _holds(cl, 0.5 * cert.X, cert.tau, report.gain, gamma, cert.margin_achieved)


def test_bareiss_decides_definiteness_exactly():
    """[[1, 1], [1, 1 + e]] is positive definite for every e > 0, however
    small, and not for e = 0."""
    tiny = Fraction(1, 2 ** 200)
    assert _positive_definite([[Fraction(1), Fraction(1)], [Fraction(1), 1 + tiny]])
    assert not _positive_definite([[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]])
    assert not _positive_definite([[Fraction(2), Fraction(0)], [Fraction(0), -tiny]])


# --------------------------------------------------------------------------
# the refresh polynomial's slope bound

# pi truncated to 40 decimals: _PI_LO < pi < _PI_LO + 1e-40
_PI_LO = Fraction(31415926535897932384626433832795028841971, 10**40)


def _expi(phi, bits):
    """Integers (X, Y) with |(X + iY) / 2^bits - e^{i phi}| < 2 / 2^bits,
    for a rational 0 < phi < 1e-3 (Taylor to phi^12 / 12!, whose
    remainder is below 1e-40)."""
    cos = sin = Fraction(0)
    term = Fraction(1)
    for k in range(13):
        if k % 2:
            sin += term if k % 4 == 1 else -term
        else:
            cos += term if k % 4 == 0 else -term
        term *= phi / (k + 1)
    return round(cos * 2**bits), round(sin * 2**bits)


def _node_numerators(N, bits):
    """Integers T_j, j < N / 2, with |T_j / 2^bits - cos((2j + 1) pi / (2N))|
    <= 8 N / 2^bits, and that bound.

    e^{i (2j + 1) phi} = e^{i phi} e^{2 i phi j}: each rotation by the
    rounded e^{2 i phi} adds at most 2 / 2^bits of its own error and
    2^(1 - bits) of rounding, and |e^{i phi}| = 1 keeps what came before
    from growing.  phi's own error from _PI_LO is below 1e-44.
    """
    F = 2**bits
    X, Y = _expi(_PI_LO / (2 * N), bits)
    zx, zy = _expi(_PI_LO / N, bits)
    T = []
    for _ in range(N // 2):
        T.append(X)
        X, Y = (X * zx - Y * zy) // F, (X * zy + Y * zx) // F
    return T, Fraction(8 * N, F)


def _exact_slope_bound(poly, bits=100):
    """max_j |q_r(t_j)| / cos(n pi / (2N)) over every offset r in -K..K,
    from above, in exact arithmetic.

    q_r(t) = (P(s) - P(s0)) / (a t) - 1 with s = (a t - r q) / H, s0 =
    -r q / H and P = sum c_k T_k, straight from its definition: no
    division by a small m can lose anything when nothing is rounded.  P
    runs through Clenshaw on integers, scaled by 2^E V^d where s = U / V.
    A node t_j is known to within w (_node_numerators), which moves q_r by
    at most w alpha sup|P''| / (2H), alpha = a / H, with sup|P''| <=
    sum |c_k| k^2 (k^2 - 1) / 3 (Markov).  cos x >= 1 - x^2 / 2 bounds the
    divisor from below.
    """
    spec = poly.spec
    c = [Fraction(x) for x in poly.coefficients.tolist()]
    d, n = spec.d, spec.d - 1
    N = bootpoly.NODES_PER_DEGREE * n
    F = 2**bits
    nodes, width = _node_numerators(N, bits)
    E = max(x.denominator for x in c).bit_length() - 1  # c_k 2^E are integers
    C = [int(x * 2**E) for x in c]
    a = Fraction(spec.epsilon * spec.q / 2)
    H = Fraction(spec.half_range)
    worst = Fraction(0)
    for r in spec.offsets:
        rq = Fraction(r * spec.q)
        # s = (a T / F - rq) / H = (A1 T + A0) / V
        V = a.denominator * F * rq.denominator * H.numerator
        A1 = a.numerator * rq.denominator * H.denominator
        A0 = -rq.numerator * a.denominator * F * H.denominator
        scaled = [C[k] * V**(d - k) for k in range(d + 1)]
        V2 = V * V

        def clenshaw(U):
            b1 = b2 = 0
            for k in range(d, 0, -1):
                b1, b2 = scaled[k] + 2 * U * b1 - V2 * b2, b1
            return scaled[0] + U * b1 - V2 * b2

        Y0 = clenshaw(A0)
        W = 2**E * V**d * a.numerator  # q = (Z - W T) / (W T)
        best_num, best_T = 0, 1
        for T in nodes:
            for t in (T, -T):
                num = abs((clenshaw(A1 * t + A0) - Y0) * F * a.denominator - W * t)
                if num * best_T > best_num * abs(t):
                    best_num, best_T = num, abs(t)
        worst = max(worst, Fraction(best_num, W * best_T))
    markov = sum(abs(x) * k * k * (k * k - 1) / 3 for k, x in enumerate(c))
    x = (_PI_LO + Fraction(1, 10**40)) * n / (2 * N)
    return (worst + width * (a / H) * markov / (2 * H)) / (1 - x * x / 2)


def test_slope_bound_is_above_the_exact_node_bound():
    """On a d = 7, K = 1 fit, slope_bound is at or above the Ehlich-Zeller
    bound recomputed in exact arithmetic from the float coefficients, over
    all three offsets, and not far above it: its rounding allowance is
    small."""
    poly = fit(BootstrapSpec(q=1.0, epsilon=0.5, K=1, d=7))
    exact = _exact_slope_bound(poly)
    assert exact <= Fraction(poly.gamma_certified) <= exact + Fraction(1, 10**12)
