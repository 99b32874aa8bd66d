"""Semidefinite feasibility engine: the Jacobi reference eigensolver,
hand-checkable Lyapunov problems, the barrier's Newton kernels, verified
certificate checking, and the gain search."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from bootctrl import sdp
from bootctrl.analysis import (
    SectorBound,
    build_theorem2,
    fir_closed_loop,
    l2_gain_index,
    make_fir_controller,
)
from bootctrl.sdp import (
    _RADIUS,
    FEASIBLE,
    INFEASIBLE,
    LmiConstraint,
    LmiProblem,
    SdpCertificate,
    UncertifiableError,
    _BarrierData,
    bisect_gain,
    check_certificate,
    jacobi_eigvals,
    solve_feasibility,
    sym_basis,
    vech_indices,
)
from bootctrl.statespace import ClosedLoop, interconnect


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
# barrier Newton kernels

DELTA = 1e-7


def _reference_terms(problem, delta, gain_slopes=None):
    """Every barrier matrix as (const, basis) with an explicit (p+1)-stack
    of coefficients in z = (v, o): strict-negative constraints as s I -
    G(v) / max(1, ||const||_F) in phase I and as -G(v) - g^2 diag(c_j) -
    delta I given gain_slopes[j] = c_j in phase II, strict-positive ones as
    G(v) - delta I, then _RADIUS I - X and _RADIUS - tau."""
    p = problem.n_vars
    terms = []
    for j, con in enumerate(problem.constraints):
        m = con.dim
        basis = np.zeros((p + 1, m, m))
        if con.sense == "pos":
            basis[:p] = con.coeffs
            terms.append((con.const - delta * np.eye(m), basis))
        elif gain_slopes is None:
            scale = max(1.0, float(np.linalg.norm(con.const)))
            basis[:p] = -con.coeffs / scale
            basis[p] = np.eye(m)
            terms.append((-con.const / scale, basis))
        else:
            basis[:p] = -con.coeffs
            basis[p] = -np.diag(gain_slopes[j])
            terms.append((-con.const - delta * np.eye(m), basis))
    n = problem.n_x
    basis = np.zeros((p + 1, n, n))
    basis[:problem.n_vech] = -np.stack(sym_basis(n))
    terms.append((_RADIUS * np.eye(n), basis))
    if problem.with_tau:
        basis = np.zeros((p + 1, 1, 1))
        basis[problem.n_vech] = -1.0
        terms.append((np.array([[_RADIUS]]), basis))
    return terms


def _reference_grad_hess(terms, z, t):
    """g_k = t [k = o] - sum tr(W F_k), H_kl = sum tr(W F_k W F_l) by einsum."""
    g = np.zeros(len(z))
    g[-1] = t
    H = np.zeros((len(z), len(z)))
    for const, basis in terms:
        W = np.linalg.inv(const + np.tensordot(z, basis, axes=(0, 0)))
        U = np.einsum("ab,kbc->kac", 0.5 * (W + W.T), basis)
        g -= np.einsum("kaa->k", U)
        H += np.einsum("kab,lba->kl", U, U)
    return g, H


def _reference_interior(terms, z):
    return all(np.linalg.eigvalsh(const + np.tensordot(z, basis, axes=(0, 0)))[0] > 0
               for const, basis in terms)


def _phase_one_point(problem, D):
    """z = (v, s) at X = D (I + E + E^T) D with a small seeded E and tau =
    1, s half a unit above every normalized strict-negative eigenvalue."""
    rng = np.random.default_rng(5)
    E = 0.05 * rng.standard_normal((problem.n_x, problem.n_x))
    v = problem.pack(D @ (np.eye(problem.n_x) + E + E.T) @ D, 1.0)
    s = 0.5 + max(np.linalg.eigvalsh(con.evaluate(v))[-1]
                  / max(1.0, np.linalg.norm(con.const))
                  for con in problem.constraints if con.sense == "neg")
    return np.append(v, s)


# (rows, range dimension R) of each barrier term for the barrier_case
# problems: the LMI, X > 0, tau > 0 and the two bounds; None means V = I
RANGE_DIMS = {
    "lifted_T10": [(36, 10), (4, None), (1, None), (4, None), (1, None)],
    "lifted_T20": [(66, 10), (4, None), (1, None), (4, None), (1, None)],
    "fir_N5": [(11, None), (8, None), (1, None), (8, None), (1, None)],
}


@pytest.fixture(scope="module", params=list(RANGE_DIMS))
def barrier_case(request, plant, controller, reference_slope):
    """The demo lifted T_BS=10 and 20 LMIs at gain 4 and the FIR N=5 LMI
    at gain 2.6, with an interior phase-I point near X = I, tau = 1; and
    the phase-II barrier of the g^2 = 0 problem with its g^2 slopes, at
    the phase-I solution and g^2 = gain^2."""
    if request.param.startswith("lifted"):
        cl, slope, T, gain = (interconnect(plant, controller), reference_slope,
                              int(request.param[8:]), 4.0)
    else:
        fir = make_fir_controller(5, 0.45, [[-0.3]])
        cl, slope, T, gain = fir_closed_loop(plant, fir, 5), 1.0, 1, 2.6

    def builder(gain_sq):
        return build_theorem2(cl, l2_gain_index(cl.m_wp, cl.p_z, gain_sq),
                              SectorBound.symmetric(slope, cl.n_zu), T)

    problem = builder(gain ** 2)
    z = _phase_one_point(problem, np.eye(problem.n_x))
    terms = _reference_terms(problem, DELTA)
    assert _reference_interior(terms, z)

    base, unit = builder(0.0), builder(1.0)
    slopes = [np.diagonal(b.const - a.const)
              for a, b in zip(base.constraints, unit.constraints)]
    start = solve_feasibility(problem, DELTA).certificate
    z2 = np.append(base.pack(start.X, start.tau), gain ** 2)
    terms2 = _reference_terms(base, DELTA, slopes)
    assert _reference_interior(terms2, z2)
    return request.param, problem, terms, z, (base, slopes, terms2, z2)


def test_grad_hess_matches_einsum_reference(barrier_case):
    """Phase I and phase II, with the lifted LMIs' Hessians formed on the
    10-dimensional range of their coefficients and the FIR LMI's at full
    size."""
    case, problem, terms, z, (base, slopes, terms2, z2) = barrier_case
    t = 3.0
    for data, ref, point in ((_BarrierData(problem, DELTA), terms, z),
                             (_BarrierData(base, DELTA, slopes), terms2, z2)):
        assert [(len(term[0]), None if term[5] is None else term[5].shape[1])
                for term in data.terms] == RANGE_DIMS[case]
        g, H = data.grad_hess(point, t)
        g_ref, H_ref = _reference_grad_hess(ref, point, t)
        assert np.linalg.norm(g - g_ref) <= 1e-10 * np.linalg.norm(g_ref)
        assert np.linalg.norm(H - H_ref) <= 1e-10 * np.linalg.norm(H_ref)


@pytest.mark.parametrize("case", ["demo_state_x1000", "scalar_bp_1e4"])
def test_grad_hess_on_badly_scaled_lifted_lmis(case, plant, controller,
                                               reference_slope):
    """The demo plant with its state scaled by 1e3 (T_BS=20) and the loop
    x+ = 0.5 x + 1e4 w_p (T_BS=10) spread their coefficients' singular
    values over 1e9, so a range basis from the plain Gram sum_k F_k^T F_k
    cut at 1e-12 (R = 4 and R = 1) drops directions they need.  The first
    reproduces its F_k only to about 1e-12 and takes V = I, the second
    keeps its exact R = 3 of 12 rows; both match the reference at a
    phase-I point."""
    if case == "demo_state_x1000":
        scaled = replace(plant, B=1e3 * plant.B, B1=1e3 * plant.B1,
                         C=plant.C / 1e3, C1=plant.C1 / 1e3)
        cl, slope, T, R = interconnect(scaled, controller), reference_slope, 20, None
        D = np.diag([1e-3, 1e-3, 1.0, 1.0])
    else:
        cl = ClosedLoop(Acl=[[0.5]], Bp=[[1e4]], Bu=[[0.0]], Cp=[[1.0]],
                        Dpp=[[0.0]], Dpu=[[0.0]], Cu=[[1.0]], Dup=[[0.0]],
                        Duu=[[0.0]])
        slope, T, R, D = 1.0, 10, 3, np.eye(1)
    problem = build_theorem2(cl, l2_gain_index(cl.m_wp, cl.p_z, 16.0),
                             SectorBound.symmetric(slope, cl.n_zu), T)
    z = _phase_one_point(problem, D)
    terms = _reference_terms(problem, DELTA)
    assert _reference_interior(terms, z)
    data = _BarrierData(problem, DELTA)
    V = data.terms[0][5]
    assert (None if V is None else V.shape[1]) == R
    assert all(term[5] is None for term in data.terms[1:])
    g, H = data.grad_hess(z, 3.0)
    g_ref, H_ref = _reference_grad_hess(terms, z, 3.0)
    assert np.linalg.norm(g - g_ref) <= 1e-10 * np.linalg.norm(g_ref)
    assert np.linalg.norm(H - H_ref) <= 1e-10 * np.linalg.norm(H_ref)


def test_gradient_matches_central_differences(barrier_case):
    _, problem, _, z, _ = barrier_case
    t = 3.0
    data = _BarrierData(problem, DELTA)
    g, _ = data.grad_hess(z, t)
    h = 1e-6
    fd = np.array([(data.barrier_value(z + h * e, t)
                    - data.barrier_value(z - h * e, t)) / (2 * h)
                   for e in np.eye(len(z))])
    assert np.linalg.norm(fd - g) <= 1e-6 * np.linalg.norm(g)


def test_barrier_is_infinite_exactly_outside_the_domain(barrier_case):
    """Lowering s breaks the strict-negative terms, X < 0 the positivity
    term, X = 2 _RADIUS I and tau = 2 _RADIUS the compactifying bounds,
    tau < 0 the tau term; random directions cross several at once."""
    _, problem, terms, z, _ = barrier_case
    data = _BarrierData(problem, DELTA)
    nv, p = problem.n_vech, problem.n_vars
    points = [z]
    for index, value in ((p, -10.0), (p, -1e-3), (nv, 2 * _RADIUS), (nv, -1.0)):
        point = z.copy()
        point[index] = value
        points.append(point)
    points.append(np.append(-z[:nv], z[nv:]))
    points.append(np.append(2 * _RADIUS * z[:nv], z[nv:]))
    rng = np.random.default_rng(9)
    for _ in range(20):
        d = rng.standard_normal(len(z))
        points.append(z + 10.0 ** rng.uniform(-3, 1) * d / np.linalg.norm(d))
    nan_point = z.copy()
    nan_point[0] = np.nan
    inside = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for point in points:
            inside.append(_reference_interior(terms, point))
            assert np.isinf(data.barrier_value(point, 3.0)) == (not inside[-1])
        assert data.barrier_value(nan_point, 3.0) == np.inf
    assert any(inside) and not all(inside)


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


def test_non_finite_matrices_are_rejected_by_name():
    """A NaN or inf in a constraint's const or coeffs, in pack's X or in a
    certificate's X raises ValueError naming the matrix, with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for value in (np.nan, np.inf, -np.inf):
            matrix = np.array([[0.0, value], [value, 0.0]])
            with pytest.raises(ValueError, match="constraint lyap has non-finite"):
                LmiConstraint(const=matrix, coeffs=np.zeros((1, 2, 2)),
                              sense="neg", name="lyap")
            with pytest.raises(ValueError, match="lyap coeff 1 has non-finite"):
                LmiConstraint(const=np.zeros((2, 2)), sense="neg", name="lyap",
                              coeffs=np.stack([np.eye(2), matrix]))
            with pytest.raises(ValueError, match="^X has non-finite"):
                lyapunov_problem(np.eye(2) * 0.5).pack(matrix)
            with pytest.raises(ValueError, match="certificate X has non-finite"):
                SdpCertificate(X=matrix, tau=None, margin_achieved=0.0,
                               solver_iterations=0)


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
# gain search: one phase-I solve at the cap, one phase-II barrier on g^2


def scalar_gain_builder(a):
    return lambda gsq: gain_problem(a, 1.0, 1.0, gsq)


def test_gain_search_finds_known_scalar_gain():
    """a = 0.5, b = c = 1: the true l2-gain is bc/(1-a) = 2."""
    gain, cert = bisect_gain(scalar_gain_builder(0.5), tol=1e-4)
    assert gain == pytest.approx(2.0, abs=1e-3)
    margin = check_certificate(gain_problem(0.5, 1.0, 1.0, gain * gain), cert)
    assert margin == cert.margin_achieved >= DELTA


def test_feasibility_is_monotone_in_gain():
    assert solve_feasibility(gain_problem(0.5, 1.0, 1.0, 1.9 ** 2)).status \
        == INFEASIBLE
    assert solve_feasibility(gain_problem(0.5, 1.0, 1.0, 2.5 ** 2)).status \
        == FEASIBLE


def test_unstable_loop_is_uncertifiable_at_any_gain():
    with pytest.raises(UncertifiableError, match="UNSTABLE"):
        bisect_gain(scalar_gain_builder(1.2))


def test_gain_search_rejects_bad_tol():
    for tol in (0.0, -1e-3, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="tol"):
            bisect_gain(scalar_gain_builder(0.5), tol=tol)


def test_gain_search_checks_delta_and_hi_cap_before_any_build():
    """0, negative, NaN and +-inf delta or hi_cap raise ValueError naming
    it, and the builder never runs; solve_feasibility rejects a bad delta
    too."""
    calls = []

    def builder(gain_sq):
        calls.append(gain_sq)
        return gain_problem(0.5, 1.0, 1.0, gain_sq)

    for name in ("delta", "hi_cap"):
        for value in (0.0, -5.0, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                bisect_gain(builder, **{name: value})
            if name == "delta":
                with pytest.raises(ValueError, match="^delta must be finite"):
                    solve_feasibility(gain_problem(0.5, 1.0, 1.0, 4.0), delta=value)
    assert calls == []


def test_gain_search_rejects_an_off_diagonal_slope():
    """The barrier reads only the diagonal of each g^2 slope, so a builder
    whose g^2 reaches an off-diagonal entry is refused by name."""
    def builder(gain_sq):
        brl = gain_problem(0.5, 1.0, 1.0, gain_sq).constraints[0]
        const = brl.const + 0.1 * gain_sq * np.array([[0.0, 1.0], [1.0, 0.0]])
        lmi = LmiConstraint(const=const, coeffs=brl.coeffs, sense="neg",
                            name="coupled")
        x_pos = LmiConstraint(const=np.zeros((1, 1)), coeffs=np.ones((1, 1, 1)),
                              sense="pos", name="X_pos")
        return LmiProblem(n_x=1, constraints=(lmi, x_pos), with_tau=False)

    with pytest.raises(ValueError, match="'coupled' is not diagonal"):
        bisect_gain(builder)


def test_gain_search_raises_when_phase_two_runs_out_of_steps(monkeypatch):
    """Phase I needs 31 Newton steps here and phase II about 50: with a
    cap of 40 per phase no gain is returned."""
    monkeypatch.setattr(sdp, "_MAX_NEWTON", 40)
    with pytest.raises(RuntimeError, match="phase II failed"):
        bisect_gain(scalar_gain_builder(0.5))


def test_gain_search_never_returns_an_unchecked_gain():
    """A builder outside the affine family, here with an extra constraint
    that is infeasible for 1 <= g^2 <= 100 and that phase II sees only at
    g^2 = 0, raises rather than return a gain its check rejects."""
    def builder(gain_sq):
        problem = gain_problem(0.5, 1.0, 1.0, gain_sq)
        sign = -1.0 if 1.0 <= gain_sq <= 100.0 else 1.0
        window = LmiConstraint(const=np.array([[sign]]),
                               coeffs=np.zeros((1, 1, 1)), sense="pos")
        return LmiProblem(n_x=1, constraints=problem.constraints + (window,),
                          with_tau=False)

    with pytest.raises(RuntimeError, match="failed its check"):
        bisect_gain(builder)


@pytest.mark.parametrize("T_BS", [1, 10], ids=["direct", "lifted_T10"])
def test_gain_certificate_holds_at_the_reported_gain(plant, controller,
                                                     reference_slope, T_BS):
    """At every tol the certificate passes check_certificate and an
    eigvalsh margin of at least delta at exactly gain * gain, and a
    smaller tol never gives a larger gain."""
    cl = interconnect(plant, controller)
    sector = SectorBound.symmetric(reference_slope, cl.n_zu)

    def builder(gain_sq):
        return build_theorem2(cl, l2_gain_index(cl.m_wp, cl.p_z, gain_sq),
                              sector, T_BS)

    gains = []
    for tol in (10.0, 1e-3, 1e-6):
        gain, cert = bisect_gain(builder, tol=tol, delta=DELTA)
        problem = builder(gain * gain)
        assert check_certificate(problem, cert) == cert.margin_achieved >= DELTA
        assert _eigvalsh_margin(problem, cert)[0] >= DELTA
        gains.append(gain)
    assert gains == sorted(gains, reverse=True)
    assert gains[0] - gains[2] <= 10.0 and gains[1] - gains[2] <= 1e-3
