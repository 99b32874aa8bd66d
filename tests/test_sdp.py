"""Semidefinite feasibility engine: the Jacobi reference eigensolver,
hand-checkable Lyapunov problems, verified certificate checking, and gain
bisection."""

import warnings

import numpy as np
import pytest

from bootctrl.sdp import (
    FEASIBLE,
    INFEASIBLE,
    LmiConstraint,
    LmiProblem,
    SdpCertificate,
    UncertifiableError,
    bisect_gain,
    check_certificate,
    jacobi_eigvals,
    solve_feasibility,
    sym_basis,
    vech_indices,
)


# --------------------------------------------------------------------------
# eigenvalue path


@pytest.mark.parametrize("n", [1, 2, 10, 50])
def test_jacobi_matches_reference_eigensolver(n):
    rng = np.random.default_rng(n)
    A = rng.standard_normal((n, n))
    A = 0.5 * (A + A.T)
    mine = np.sort(jacobi_eigvals(A))
    ref = np.linalg.eigvalsh(A)
    scale = max(1.0, np.abs(ref).max())
    np.testing.assert_allclose(mine, ref, atol=1e-10 * scale)


def test_jacobi_diagonal_is_exact():
    d = np.array([3.0, -1.0, 0.5])
    np.testing.assert_array_equal(np.sort(jacobi_eigvals(np.diag(d))),
                                  np.sort(d))


def test_jacobi_handles_equal_diagonal_rotation():
    # theta = 0 case: equal diagonal entries with nonzero off-diagonal
    A = np.array([[2.0, 1.0], [1.0, 2.0]])
    np.testing.assert_allclose(np.sort(jacobi_eigvals(A)), [1.0, 3.0],
                               atol=1e-12)


def test_jacobi_tiny_offdiagonal_does_not_overflow():
    # Pair (0, 1) has off-diagonal 1e-200 and diagonal gap 1, so theta =
    # 5e199 and theta * theta would overflow; the (1, 2) coupling keeps the
    # sweep from stopping before it reaches that pair.
    A = np.array([[0.0, 1e-200, 0.0], [1e-200, 1.0, 0.5], [0.0, 0.5, 3.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mine = jacobi_eigvals(A)
    np.testing.assert_allclose(mine, np.linalg.eigvalsh(A), rtol=0, atol=1e-14)


# --------------------------------------------------------------------------
# problem construction helpers


def lyapunov_problem(A):
    """X > 0 with A^T X A - X < 0 (discrete-time stability test)."""
    n = A.shape[0]
    basis = sym_basis(n)
    coeffs = np.stack([A.T @ S @ A - S for S in basis])
    lmi = LmiConstraint(const=np.zeros((n, n)), coeffs=coeffs, sense="neg",
                        name="lyapunov")
    x_pos = LmiConstraint(const=np.zeros((n, n)), coeffs=np.stack(basis),
                          sense="pos", name="X_pos")
    return LmiProblem(n_x=n, constraints=(lmi, x_pos), with_tau=False)


def gain_problem(a, b, c, gain_sq):
    """Scalar bounded-real test: the loop x+ = a x + b w, z = c x has
    l2-gain |c b| / (1 - a), certifiable iff gain exceeds that."""
    const = np.array([[c * c, 0.0], [0.0, -gain_sq]])
    coeffs = np.array([[[a * a - 1.0, a * b], [a * b, b * b]]])
    lmi = LmiConstraint(const=const, coeffs=coeffs, sense="neg", name="brl")
    x_pos = LmiConstraint(const=np.zeros((1, 1)), coeffs=np.ones((1, 1, 1)),
                          sense="pos", name="X_pos")
    return LmiProblem(n_x=1, constraints=(lmi, x_pos), with_tau=False)


# --------------------------------------------------------------------------
# constraint and problem validation


def test_constraint_rejects_asymmetric_const():
    with pytest.raises(ValueError, match="symmetric"):
        LmiConstraint(const=np.array([[0.0, 1.0], [0.0, 0.0]]),
                      coeffs=np.zeros((1, 2, 2)), sense="neg")


def test_constraint_rejects_bad_sense():
    with pytest.raises(ValueError, match="sense"):
        LmiConstraint(const=np.zeros((1, 1)), coeffs=np.zeros((1, 1, 1)),
                      sense="nonneg")


def test_problem_rejects_wrong_coefficient_count():
    con = LmiConstraint(const=np.zeros((1, 1)), coeffs=np.zeros((2, 1, 1)),
                        sense="neg")
    with pytest.raises(ValueError, match="coefficient"):
        LmiProblem(n_x=2, constraints=(con,), with_tau=False)


def test_pack_unpack_roundtrip():
    prob = lyapunov_problem(np.diag([0.5, 0.2, 0.1]))
    rng = np.random.default_rng(0)
    X = rng.standard_normal((3, 3))
    X = 0.5 * (X + X.T)
    v = prob.pack(X)
    X2, tau = prob.unpack(v)
    assert tau is None
    np.testing.assert_array_equal(X, X2)
    assert len(v) == len(vech_indices(3))


# --------------------------------------------------------------------------
# feasibility verdicts on ground-truth cases


def test_scalar_stable_system_is_feasible():
    out = solve_feasibility(lyapunov_problem(np.array([[0.5]])))
    assert out.status == FEASIBLE
    assert out.certificate.margin_achieved > 0
    # independent recheck of the returned point
    assert check_certificate(lyapunov_problem(np.array([[0.5]])),
                             out.certificate) > 0


def test_scalar_unstable_system_is_infeasible():
    out = solve_feasibility(lyapunov_problem(np.array([[1.1]])))
    assert out.status == INFEASIBLE


def test_checker_margin_is_exact_for_hand_point():
    """For a = 0.5 and X = 1: the stability block is 0.75-definite and the
    positivity block 1-definite, so the margin is exactly 0.75."""
    prob = lyapunov_problem(np.array([[0.5]]))
    cert = SdpCertificate(X=np.array([[1.0]]), tau=None, margin_achieved=0.0,
                          solver_iterations=0)
    assert check_certificate(prob, cert) == pytest.approx(0.75, abs=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_random_lyapunov_matches_spectral_radius(seed):
    rng = np.random.default_rng(seed)
    n = 3
    A = rng.standard_normal((n, n))
    A /= max(abs(np.linalg.eigvals(A)))
    stable = solve_feasibility(lyapunov_problem(0.8 * A))
    unstable = solve_feasibility(lyapunov_problem(1.05 * A))
    assert stable.status == FEASIBLE
    assert unstable.status == INFEASIBLE


def _eigvalsh_margin(prob, cert):
    """Minimum margin by numpy.linalg.eigvalsh, and the largest ||G||_F."""
    v = prob.pack(cert.X, cert.tau)
    margins, norm = [], 0.0
    for con in prob.constraints:
        G = con.evaluate(v)
        eigs = np.linalg.eigvalsh(G)
        margins.append(eigs[0] if con.sense == "pos" else -eigs[-1])
        norm = max(norm, np.linalg.norm(G))
    return min(margins), norm


@pytest.mark.parametrize("n", [1, 3])
def test_margin_below_rounding_allowance_is_rejected(n):
    """G = -2^40 I + X I at X = 2^40 + 2^-12: the exact margin 2^-12 ~ 2.4e-4
    is positive and far above delta, and here the float G even equals it,
    but forming G may err by up to gamma_2 * 2^41 ~ 4.9e-4 in general, so
    the verified bound stays below delta.  A margin 16 times larger clears
    the allowance and is accepted."""
    c = 2.0 ** 40
    con = LmiConstraint(const=-c * np.eye(n), coeffs=np.eye(n)[None],
                        sense="pos")
    prob = LmiProblem(n_x=1, constraints=(con,), with_tau=False)
    delta = 1e-7
    for k, accepted in ((1, False), (16, True)):
        exact = k * 2.0 ** -12
        cert = SdpCertificate(X=np.array([[c + exact]]), tau=None,
                              margin_achieved=0.0, solver_iterations=0)
        np.testing.assert_array_equal(jacobi_eigvals(con.evaluate([c + exact])),
                                      np.full(n, exact))
        bound = check_certificate(prob, cert)
        assert bound <= exact
        assert (bound >= delta) == accepted


@pytest.mark.parametrize("seed", range(8))
def test_verified_margin_is_a_tight_lower_bound(seed):
    """On solver certificates and on random (infeasible) points the bound
    never exceeds the eigvalsh margin and trails it by at most the order
    of the rounding allowance, (n+1) u trace <= (n+1) sqrt(n) u ||G||_F."""
    rng = np.random.default_rng(seed)
    n = 2 + seed % 5
    A = rng.standard_normal((n, n))
    A /= max(abs(np.linalg.eigvals(A)))
    prob = lyapunov_problem(0.8 * A)
    out = solve_feasibility(prob)
    assert out.status == FEASIBLE
    X = rng.standard_normal((n, n))
    random_point = SdpCertificate(X=X + X.T, tau=None, margin_achieved=0.0,
                                  solver_iterations=0)
    u = 2.0 ** -53
    for cert in (out.certificate, random_point):
        bound = check_certificate(prob, cert)
        margin, norm = _eigvalsh_margin(prob, cert)
        assert bound <= margin
        assert margin - bound <= 16 * (n + 1) * np.sqrt(n) * u * norm
    assert out.certificate.margin_achieved == check_certificate(prob, out.certificate)


def test_tampered_certificates_are_rejected():
    prob = lyapunov_problem(np.diag([0.5, 0.3]))
    out = solve_feasibility(prob)
    assert out.status == FEASIBLE
    good = out.certificate
    assert check_certificate(prob, good) > 0

    flipped = SdpCertificate(X=-good.X, tau=None, margin_achieved=0.0,
                             solver_iterations=0)
    assert check_certificate(prob, flipped) < 0

    spiked = SdpCertificate(
        X=good.X + 100.0 * np.abs(good.X).max() * np.outer([1.0, 1.0],
                                                           [1.0, 1.0]),
        tau=None, margin_achieved=0.0, solver_iterations=0,
    )
    assert check_certificate(prob, spiked) < 0


def test_certificate_json_roundtrip():
    cert = SdpCertificate(X=np.array([[2.0, 0.5], [0.5, 1.0]]), tau=3.0,
                          margin_achieved=0.1, solver_iterations=17)
    back = SdpCertificate.from_json(cert.to_json())
    np.testing.assert_array_equal(back.X, cert.X)
    assert back.tau == cert.tau
    assert back.margin_achieved == cert.margin_achieved


# --------------------------------------------------------------------------
# gain bisection


def test_bisection_finds_known_scalar_gain():
    """a = 0.5, b = c = 1: the true l2-gain is bc/(1-a) = 2."""
    gain, cert = bisect_gain(lambda gsq: gain_problem(0.5, 1.0, 1.0, gsq),
                             lo=0.0, hi=8.0, tol=1e-4)
    assert gain == pytest.approx(2.0, abs=1e-3)
    assert cert.margin_achieved > 0


def test_feasibility_is_monotone_in_gain():
    assert solve_feasibility(gain_problem(0.5, 1.0, 1.0, 1.9 ** 2)).status \
        == INFEASIBLE
    assert solve_feasibility(gain_problem(0.5, 1.0, 1.0, 2.5 ** 2)).status \
        == FEASIBLE


def test_unstable_loop_is_uncertifiable_at_any_gain():
    with pytest.raises(UncertifiableError, match="UNSTABLE"):
        bisect_gain(lambda gsq: gain_problem(1.2, 1.0, 1.0, gsq),
                    lo=0.0, hi=800.0)


def test_bisection_validates_bracket():
    with pytest.raises(ValueError):
        bisect_gain(lambda gsq: gain_problem(0.5, 1.0, 1.0, gsq),
                    lo=5.0, hi=1.0)
