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


def random_lyapunov_problem(seed, scale):
    """lyapunov_problem of a seeded random 3x3 A with spectral radius scale."""
    A = np.random.default_rng(seed).standard_normal((3, 3))
    A /= max(abs(np.linalg.eigvals(A)))
    return lyapunov_problem(scale * A)


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


def _reference_terms(problem, gain_slopes=None):
    """Every barrier matrix as (const, basis) with an explicit (p+1)-stack
    of coefficients in z = (v, o): strict-negative constraints as -G(v) -
    delta I + s I in phase I and as -G(v) - delta I - g^2 diag(c_j) given
    gain_slopes[j] = c_j in phase II, strict-positive ones as G(v) - delta
    I, then _RADIUS I - X and _RADIUS - tau."""
    p = problem.n_vars
    terms = []
    for j, con in enumerate(problem.constraints):
        m = con.dim
        basis = np.zeros((p + 1, m, m))
        if con.sense == "pos":
            basis[:p] = con.coeffs
            terms.append((con.const - DELTA * np.eye(m), basis))
        else:
            basis[:p] = -con.coeffs
            basis[p] = np.eye(m) if gain_slopes is None else -np.diag(gain_slopes[j])
            terms.append((-con.const - DELTA * np.eye(m), basis))
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


def _shift_at(problem, v, above):
    """The phase-I shift s at v that puts the barrier term s I - G(v) -
    delta I of the one strict-negative constraint G at lambda_min = above
    max(1, ||const||_F): a normalized distance from the boundary."""
    [con] = [con for con in problem.constraints if con.sense == "neg"]
    norm = max(1.0, np.linalg.norm(con.const))
    return np.linalg.eigvalsh(con.evaluate(v))[-1] + DELTA + above * norm


def _phase_one_point(problem, D):
    """z = (v, s) at X = D (I + E + E^T) D with a small seeded E and tau =
    1, s half a normalized unit above the strict-negative eigenvalues."""
    rng = np.random.default_rng(5)
    E = 0.05 * rng.standard_normal((problem.n_x, problem.n_x))
    v = problem.pack(D @ (np.eye(problem.n_x) + E + E.T) @ D, 1.0)
    return np.append(v, _shift_at(problem, v, 0.5))


# (rows, range dimension R) of each barrier term for the barrier_case
# problems: the LMI, then the block-diagonal term of X > 0, tau > 0 and the
# two bounds; R = rows means V = I (the block-diagonal term has no basis
# and works on all its rows)
RANGE_DIMS = {
    "lifted_T10": [(36, 10), (10, 10)],
    "lifted_T20": [(66, 10), (10, 10)],
    "fir_N5": [(11, 11), (18, 18)],
    "fir_N8": [(14, 14), (24, 24)],
}


def _case_lmi(case, plant, controller, reference_slope):
    """(LMI as a function of g^2, gain) of a barrier case: the demo lifted
    T_BS=10 and 20 LMIs at gain 4, the FIR N=5 and N=8 LMIs (37 and 67
    variables) at gain 2.6."""
    if case.startswith("lifted"):
        cl, slope, T, gain = (interconnect(plant, controller), reference_slope,
                              int(case[8:]), 4.0)
    else:
        N = int(case[5:])
        fir = make_fir_controller(N, 0.45, [[-0.3]])
        cl, slope, T, gain = fir_closed_loop(plant, fir, N), 1.0, 1, 2.6

    def builder(gain_sq):
        return build_theorem2(cl, l2_gain_index(cl.m_wp, cl.p_z, gain_sq),
                              SectorBound.symmetric(slope, cl.n_zu), T)

    return builder, gain


def _gain_slopes(builder):
    """The g^2 = 0 LMI and the diagonal of each constraint's g^2 slope."""
    base, unit = builder(0.0), builder(1.0)
    return base, [np.diagonal(b.const - a.const)
                  for a, b in zip(base.constraints, unit.constraints)]


@pytest.fixture(scope="module", params=list(RANGE_DIMS))
def barrier_case(request, plant, controller, reference_slope):
    """Each _case_lmi case at its gain, with an interior phase-I point near
    X = I, tau = 1; and the phase-II barrier of the g^2 = 0 problem with
    its g^2 slopes, at the phase-I solution and g^2 = gain^2."""
    builder, gain = _case_lmi(request.param, plant, controller, reference_slope)
    problem = builder(gain ** 2)
    z = _phase_one_point(problem, np.eye(problem.n_x))
    terms = _reference_terms(problem)
    assert _reference_interior(terms, z)

    base, slopes = _gain_slopes(builder)
    start = solve_feasibility(problem).certificate
    z2 = np.append(base.pack(start.X, start.tau), gain ** 2)
    terms2 = _reference_terms(base, slopes)
    assert _reference_interior(terms2, z2)
    return request.param, problem, terms, z, (base, slopes, terms2, z2)


def test_grad_hess_matches_einsum_reference(barrier_case):
    """Phase I and phase II, with the lifted LMIs' Hessians formed on the
    10-dimensional range of their coefficients, the FIR LMIs' at full size,
    and every slope-free constraint in one block-diagonal term."""
    case, problem, terms, z, (base, slopes, terms2, z2) = barrier_case
    t = 3.0
    for data, ref, point in ((_BarrierData(problem), terms, z),
                             (_BarrierData(base, slopes), terms2, z2)):
        layout = [(len(term[0]), term[3].shape[1])
                  for term in data.terms] + [(len(data.block_const),) * 2]
        assert layout == RANGE_DIMS[case]
        for _, _, _, V, _ in data.terms:
            assert V.shape[1] < len(V) or np.array_equal(V, np.eye(len(V)))
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
    reproduces its F_k only to about 1e-12 and takes V = I (R = 66), the
    second keeps its exact R = 3 of 12 rows; both match the reference at
    a phase-I point."""
    if case == "demo_state_x1000":
        scaled = replace(plant, B=1e3 * plant.B, B1=1e3 * plant.B1,
                         C=plant.C / 1e3, C1=plant.C1 / 1e3)
        cl, slope, T, R = interconnect(scaled, controller), reference_slope, 20, 66
        D = np.diag([1e-3, 1e-3, 1.0, 1.0])
    else:
        cl = ClosedLoop(Acl=[[0.5]], Bp=[[1e4]], Bu=[[0.0]], Cp=[[1.0]],
                        Dpp=[[0.0]], Dpu=[[0.0]], Cu=[[1.0]], Dup=[[0.0]],
                        Duu=[[0.0]])
        slope, T, R, D = 1.0, 10, 3, np.eye(1)
    problem = build_theorem2(cl, l2_gain_index(cl.m_wp, cl.p_z, 16.0),
                             SectorBound.symmetric(slope, cl.n_zu), T)
    z = _phase_one_point(problem, D)
    terms = _reference_terms(problem)
    assert _reference_interior(terms, z)
    data = _BarrierData(problem)
    [(_, _, _, V, _)] = data.terms
    assert V.shape[1] == R
    assert R < len(V) or np.array_equal(V, np.eye(R))
    g, H = data.grad_hess(z, 3.0)
    g_ref, H_ref = _reference_grad_hess(terms, z, 3.0)
    assert np.linalg.norm(g - g_ref) <= 1e-10 * np.linalg.norm(g_ref)
    assert np.linalg.norm(H - H_ref) <= 1e-10 * np.linalg.norm(H_ref)


def test_gradient_matches_central_differences(barrier_case):
    _, problem, _, z, _ = barrier_case
    t = 3.0
    data = _BarrierData(problem)
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
    data = _BarrierData(problem)
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


def _point_at(problem, X, tau):
    """z = (v, s) at (X, tau), s a normalized unit above the
    strict-negative eigenvalues."""
    v = problem.pack(X, tau)
    return np.append(v, _shift_at(problem, v, 1.0))


@pytest.mark.parametrize("block, outside", [("tau_below_delta", 2),
                                            ("X_above_radius", 3)])
def test_one_non_definite_block_makes_the_barrier_infinite(barrier_case, block,
                                                           outside):
    """tau = delta / 2 breaks only the tau > 0 block of the block-diagonal
    term, X = 1.001 _RADIUS I only its _RADIUS I - X block: every other
    reference term stays interior, and barrier_value is inf, with no
    exception or warning."""
    _, problem, terms, _, _ = barrier_case
    n = problem.n_x
    X, tau = ((np.eye(n), 0.5 * DELTA) if block == "tau_below_delta"
              else (1.001 * _RADIUS * np.eye(n), 1.0))
    z = _point_at(problem, X, tau)
    assert [not _reference_interior([term], z) for term in terms] == \
        [j == outside for j in range(len(terms))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _BarrierData(problem).barrier_value(z, 3.0) == np.inf


def test_handed_over_matrices_give_bitwise_the_same_step(barrier_case):
    """grad_hess and barrier_value on the matrices form made at a point
    return bitwise what they return when they form them, in phase I and
    phase II, and a solve hands every grad_hess the matrices of its own
    point."""
    _, problem, _, z, (base, slopes, _, z2) = barrier_case
    for data, point in ((_BarrierData(problem), z),
                        (_BarrierData(base, slopes), z2)):
        mats = data.form(point)
        g, H = data.grad_hess(point, 3.0, mats)
        g0, H0 = data.grad_hess(point, 3.0)
        assert np.array_equal(g, g0) and np.array_equal(H, H0)
        assert data.barrier_value(point, 3.0, mats) == data.barrier_value(point, 3.0)

    handed = []
    grad_hess = _BarrierData.grad_hess

    def checking(self, z, t, mats=None):
        handed.append(all(np.array_equal(a, b) for a, b in zip(mats, self.form(z))))
        return grad_hess(self, z, t, mats)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_BarrierData, "grad_hess", checking)
        assert solve_feasibility(problem).status == FEASIBLE
    assert len(handed) > 1 and all(handed)


@pytest.mark.parametrize("case", [*RANGE_DIMS, "lyapunov_phase_one"])
def test_phase_two_centering_hands_its_newton_matrix_to_the_tangent_step(
        case, plant, controller, reference_slope):
    """Every centering of a gain search's phase II, and of the phase I of
    an unstable Lyapunov LMI (seed 0 at 1.5 times a unit spectral radius),
    returns bitwise grad_hess's H at the point it returns, the matrix the
    tangent step solves with, and each one after the first starts where
    that step went: below the previous centre's objective.  Both phases
    follow the central path by one loop."""
    if case in RANGE_DIMS:
        base, slopes = _gain_slopes(_case_lmi(case, plant, controller, reference_slope)[0])
        floor = -np.inf

        def solve():
            bisect_gain(base, [slope if con.sense == "neg" else None
                               for con, slope in zip(base.constraints, slopes)])
    else:
        floor = -0.5 * DELTA

        def solve():
            assert solve_feasibility(random_lyapunov_problem(0, 1.5)).status == INFEASIBLE
    calls = []
    center = sdp._center

    def recording(data, z, t, steps, floor=-np.inf):
        out = center(data, z, t, steps, floor)
        calls.append((data, z, t, floor, out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sdp, "_center", recording)
        solve()
    path = [call for call in calls if call[3] == floor]
    assert len(path) >= 3
    for data, _, t, _, (z, _, _, H) in path:
        assert np.array_equal(H, data.grad_hess(z, t)[1])
    for (*_, (end, _, _, _)), (_, start, *_) in zip(path, path[1:]):
        assert start[-1] < end[-1]


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


@pytest.mark.parametrize("index, value, match", [
    (5, np.nan, "has non-finite entries"), (3, 1e-9, "must be symmetric")])
def test_constraint_names_the_first_bad_coefficient(index, value, match):
    """The stack is checked in one pass, each coefficient against its own
    threshold 1e-12 max(1, max|F_k|): a NaN in coeff 5, or an asymmetry of
    1e-9 in coeff 3 beside a coefficient of size 1e4, is named by its
    index, though coeff 7 is bad the same way; the same asymmetry in the
    coefficient of size 1e4 passes."""
    coeffs = np.zeros((8, 3, 3))
    coeffs[6] = 1e4 * np.eye(3)
    coeffs[index, 0, 1] = coeffs[7, 1, 0] = value
    with pytest.raises(ValueError, match=f"^constraint lyap coeff {index} {match}$"):
        LmiConstraint(const=np.zeros((3, 3)), coeffs=coeffs, sense="neg", name="lyap")
    coeffs[6, 0, 1] = 1e-9
    LmiConstraint(const=np.zeros((3, 3)), coeffs=coeffs[6:7], sense="neg")


def test_problem_rejects_wrong_coefficient_count():
    con = LmiConstraint(const=np.zeros((1, 1)), coeffs=np.zeros((2, 1, 1)),
                        sense="neg")
    with pytest.raises(ValueError, match="coefficient"):
        LmiProblem(n_x=2, constraints=(con,), with_tau=False)


@pytest.mark.parametrize("n_x", [1.5, True])
def test_problem_takes_only_an_integer_size(n_x):
    with pytest.raises(ValueError, match=f"^n_x must be an integer, got {n_x}$"):
        LmiProblem(n_x=n_x, constraints=())


def test_constraint_and_problem_refuse_malformed_parts():
    with pytest.raises(ValueError, match=r"^coeffs must be \(p, 2, 2\), got \(1, 3, 3\)$"):
        LmiConstraint(const=np.zeros((2, 2)), coeffs=np.zeros((1, 3, 3)), sense="neg")
    with pytest.raises(ValueError, match="^n_x must be at least 1$"):
        LmiProblem(n_x=0, constraints=())
    with pytest.raises(TypeError, match="^constraints must be LmiConstraint instances$"):
        LmiProblem(n_x=1, constraints=(np.zeros((1, 1)),))
    prob = LmiProblem(n_x=2, constraints=(), with_tau=True)
    with pytest.raises(ValueError, match=r"^X must be 2x2, got \(3, 3\)$"):
        prob.pack(np.eye(3), 1.0)
    with pytest.raises(ValueError, match="^problem expects tau but none was given$"):
        prob.pack(np.eye(2))
    np.testing.assert_array_equal(prob.pack(np.eye(2), 0.5), [1.0, 0.0, 1.0, 0.5])


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


@pytest.mark.parametrize("a, band", [(10.0, 1e-6), (1000.0, 1e-6), (1000.0, 4e-6)])
def test_thin_band_is_feasible_at_the_absolute_margin(a, band):
    """G(X) = diag(a - X, X - a - band) < 0 with X > 0 holds on (a, a +
    band), with the best margin band / 2 at X = a + band / 2, below delta
    ||const||_F (1.4e-6 to 1.4e-4): phase I asks for the absolute margin
    delta that check_certificate certifies, whatever the constraint's
    size."""
    lmi = LmiConstraint(const=np.diag([a, -a - band]),
                        coeffs=np.diag([-1.0, 1.0])[None], sense="neg", name="band")
    x_pos = LmiConstraint(const=np.zeros((1, 1)), coeffs=np.ones((1, 1, 1)),
                          sense="pos", name="X_pos")
    assert sdp._DELTA * np.hypot(a, a + band) > band / 2
    out = solve_feasibility(LmiProblem(n_x=1, constraints=(lmi, x_pos), with_tau=False))
    assert out.status == FEASIBLE
    assert out.certificate.margin_achieved >= sdp._DELTA
    assert abs(out.certificate.X[0, 0] - (a + band / 2)) <= band / 2 - sdp._DELTA


def test_phase_one_starts_at_the_first_interior_power_of_two():
    """X - 2 I > 0 excludes the start X = I, so phase I starts from a larger
    X = 2^k I and finds the Lyapunov LMI feasible with margin delta on X -
    2 I as well.  X - _RADIUS I > 0 has no start 2^k <= _RADIUS / 2 and
    raises."""
    lyap = lyapunov_problem(np.array([[0.5, 0.3], [0.0, 0.4]]))

    def above(c):
        x_above = LmiConstraint(const=-c * np.eye(2), coeffs=np.stack(sym_basis(2)),
                                sense="pos", name="X_above")
        return replace(lyap, constraints=lyap.constraints + (x_above,))

    out = solve_feasibility(above(2.0))
    assert out.status == FEASIBLE
    assert check_certificate(above(2.0), out.certificate) >= DELTA
    assert np.linalg.eigvalsh(out.certificate.X)[0] >= 2.0 + DELTA
    with pytest.raises(RuntimeError, match="start point is not interior"):
        solve_feasibility(above(_RADIUS))


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


LYAPUNOV_SCALES = (0.8, 1.05, 1.1, 1.2, 1.5, 2.0)  # times a unit spectral radius


@pytest.mark.parametrize("seed", range(6))
def test_random_lyapunov_matches_spectral_radius(seed):
    """The seeded 3x3 Lyapunov LMI at every scale of LYAPUNOV_SCALES:
    FEASIBLE below a spectral radius of 1, INFEASIBLE above it."""
    for scale in LYAPUNOV_SCALES:
        status = solve_feasibility(random_lyapunov_problem(seed, scale)).status
        assert status == (FEASIBLE if scale < 1 else INFEASIBLE), scale


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
# gain search: one phase-I solve of the g^2-free rows, one phase-II barrier on g^2


# g^2 moves gain_problem's second row, on its diagonal, with slope -1
SCALAR_SLOPES = [np.array([0.0, -1.0]), None]


def test_gain_search_finds_known_scalar_gain():
    """a = 0.5, b = c = 1: the true l2-gain is bc/(1-a) = 2."""
    gain, cert = bisect_gain(gain_problem(0.5, 1.0, 1.0, 0.0), SCALAR_SLOPES,
                             tol=1e-4)
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
        bisect_gain(gain_problem(1.2, 1.0, 1.0, 0.0), SCALAR_SLOPES)


def test_gain_search_rejects_bad_tol():
    for tol in (0.0, -1e-3, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="tol"):
            bisect_gain(gain_problem(0.5, 1.0, 1.0, 0.0), SCALAR_SLOPES, tol=tol)


@pytest.fixture
def phase_one_calls(monkeypatch):
    """Every problem handed to sdp.solve_feasibility, which still runs."""
    calls = []

    def counting(problem, **kw):
        calls.append(problem)
        return solve_feasibility(problem, **kw)

    monkeypatch.setattr(sdp, "solve_feasibility", counting)
    return calls


@pytest.mark.parametrize("slopes, match", [
    ([np.array([-1.0]), None], "'brl' must be 2 finite entries"),
    ([np.array([0.0, -1.0, 0.0]), None], "'brl' must be 2 finite entries"),
    ([np.array([[0.0, -1.0]]), None], "'brl' must be 2 finite entries"),
    ([np.array([0.0, np.nan]), None], "'brl' must be 2 finite entries"),
    ([np.array([-np.inf, -1.0]), None], "'brl' must be 2 finite entries"),
    ([np.array([1.0, 2.0]), None], "'brl' tightens it"),
    ([np.array([0.5, -1.0]), None], "'brl' tightens it"),
    ([None, None], "'brl' needs a g\\^2 slope"),
    ([np.array([0.0, -1.0]), np.array([0.0])], "'X_pos' needs a g\\^2 slope"),
    ([np.array([0.0, -1.0])], "one g\\^2 slope per constraint, got 1"),
    ([np.array([0.0, -1.0]), None, None], "one g\\^2 slope per constraint, got 3"),
], ids=["short", "long", "matrix", "nan", "inf", "tightens", "tightens_a_row",
        "missing", "on_positive", "too_few", "too_many"])
def test_gain_search_checks_its_slopes_before_phase_one(phase_one_calls, slopes,
                                                        match):
    """A slope of the wrong size, a non-finite one, a positive entry (g^2
    would then bound the gain from above), a slope missing from the
    strict-negative constraint or given to a strict-positive one, and a
    slope list that does not match the constraints are all refused, by
    constraint name where there is one, before phase I."""
    with pytest.raises(ValueError, match=match):
        bisect_gain(gain_problem(0.5, 1.0, 1.0, 0.0), slopes)
    assert phase_one_calls == []


def test_gain_search_raises_when_phase_two_runs_out_of_steps(monkeypatch):
    """Phase I needs 1 Newton step here and phase II 17: with a cap of 12
    per phase no gain is returned."""
    monkeypatch.setattr(sdp, "_MAX_NEWTON", 12)
    with pytest.raises(RuntimeError, match="phase II failed"):
        bisect_gain(gain_problem(0.5, 1.0, 1.0, 0.0), SCALAR_SLOPES)


def test_singular_newton_system_is_a_numerical_failure(monkeypatch):
    """A zero Newton matrix H fails the Newton solve, and the centering ends
    there: NUMERICAL_FAILURE, and RuntimeError from the gain search, never a
    LinAlgError."""
    def singular(self, z, t, mats=None):
        return np.ones(len(z)), np.zeros((len(z), len(z)))

    monkeypatch.setattr(_BarrierData, "grad_hess", singular)
    problem = gain_problem(0.5, 1.0, 1.0, 9.0)
    assert solve_feasibility(problem).status == sdp.NUMERICAL_FAILURE
    with pytest.raises(RuntimeError, match="failed numerically"):
        bisect_gain(gain_problem(0.5, 1.0, 1.0, 0.0), SCALAR_SLOPES)


def test_gain_search_raises_when_its_start_is_outside(monkeypatch):
    """A g^2 floor that misses (here -inf, so the start g^2 = 1 lies below
    the true gain^2 = 4) is not interior: RuntimeError, no fallback."""
    monkeypatch.setattr(sdp, "_gain_floor", lambda data, z: -np.inf)
    with pytest.raises(RuntimeError, match="start point is not interior"):
        bisect_gain(gain_problem(0.5, 1.0, 1.0, 0.0), SCALAR_SLOPES)


def test_gain_floor_without_a_lower_bound():
    """A g^2 that no strict-negative row depends on gives no floor (-inf)."""
    base = gain_problem(0.5, 1.0, 1.0, 0.0)
    data = _BarrierData(base, [np.zeros(2), None])
    assert sdp._gain_floor(data, np.array([1.0, 0.0])) == -np.inf


def test_gain_search_certifies_a_gain_far_above_the_old_cap():
    """a = 0.9995, b = c = 1: a stable loop whose true gain is 2000."""
    gain, cert = bisect_gain(gain_problem(0.9995, 1.0, 1.0, 0.0), SCALAR_SLOPES)
    assert 2000.0 <= gain <= 2000.0 + 1e-3
    assert cert.margin_achieved >= DELTA


def test_gain_search_needing_a_certificate_beyond_the_radius_is_uncertifiable():
    """a = 0.5, b = 1, c = 2500: the g^2-free row c^2 + (a^2 - 1) X < 0
    needs X > c^2 / (1 - a^2) ~ 8.3e6, beyond _RADIUS, at any gain."""
    assert 2500.0 ** 2 / 0.75 > _RADIUS
    with pytest.raises(UncertifiableError,
                       match="^UNSTABLE_OR_UNCERTIFIABLE: .* radius at any gain"):
        bisect_gain(gain_problem(0.5, 1.0, 2500.0, 0.0), SCALAR_SLOPES)


def test_gain_floor_is_where_the_phase_two_point_turns_interior(barrier_case):
    """Just above _gain_floor the phase-I solution is interior to every
    phase-II term, just below it is not."""
    _, _, _, _, (base, slopes, terms2, z2) = barrier_case
    floor = sdp._gain_floor(_BarrierData(base, slopes), z2)
    assert 0.0 < floor < z2[-1]
    for step, inside in ((1e-6, True), (-1e-6, False)):
        point = np.append(z2[:-1], floor + step * floor)
        assert _reference_interior(terms2, point) == inside


def test_gain_floor_of_phase_one_is_the_largest_negated_lambda_min(barrier_case):
    """Phase I's terms have slope 1 on every row, so the Schur complement
    is M itself and _gain_floor is max_j -lambda_min(M_j) at s = 0: the
    shift that phase I's start lifts by 1."""
    _, problem, _, z, _ = barrier_case
    data = _BarrierData(problem)
    assert all((term[2] == 1.0).all() for term in data.terms)
    at_zero = np.append(z[:-1], 0.0)
    want = max(-np.linalg.eigvalsh(data.matrix(term, at_zero))[0]
               for term in data.terms)
    assert sdp._gain_floor(data, z) == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_gain_search_raises_when_the_point_fails_its_check(monkeypatch):
    """The at-gain check is the last word: with check_certificate forced
    below delta there (phase I's own check still passes), no gain is
    returned."""
    calls = []

    def weak_at_gain(problem, cert):
        calls.append(problem)
        margin = check_certificate(problem, cert)
        return margin if len(calls) == 1 else 0.5 * DELTA

    monkeypatch.setattr(sdp, "check_certificate", weak_at_gain)
    with pytest.raises(RuntimeError, match="failed its check at gain 2.00"):
        bisect_gain(gain_problem(0.5, 1.0, 1.0, 0.0), SCALAR_SLOPES)
    at_gain = calls[-1].constraints[0].const
    assert len(calls) == 2 and at_gain[0, 0] == 1.0 and -4.01 < at_gain[1, 1] < -4.0


@pytest.mark.parametrize("T_BS", [1, 10], ids=["direct", "lifted_T10"])
def test_gain_certificate_holds_at_the_reported_gain(plant, controller,
                                                     reference_slope, T_BS):
    """At every tol the certificate passes check_certificate and an
    eigvalsh margin of at least delta on the LMI rebuilt at exactly gain *
    gain, whose check agrees with the one bisect_gain made on the g^2 = 0
    LMI plus gain^2 times its slope, and a smaller tol never gives a
    larger gain."""
    cl = interconnect(plant, controller)
    sector = SectorBound.symmetric(reference_slope, cl.n_zu)

    def build(gain_sq):
        return build_theorem2(cl, l2_gain_index(cl.m_wp, cl.p_z, gain_sq),
                              sector, T_BS)

    slope = np.zeros(build(0.0).constraints[0].dim)
    slope[cl.n_xi:cl.n_xi + T_BS * cl.m_wp] = -1.0
    gains = []
    for tol in (10.0, 1e-3, 1e-6):
        gain, cert = bisect_gain(build(0.0), [slope, None, None], tol=tol)
        problem = build(gain * gain)
        assert cert.margin_achieved >= DELTA
        assert abs(check_certificate(problem, cert) - cert.margin_achieved) <= 1e-12
        assert check_certificate(problem, cert) >= DELTA
        assert _eigvalsh_margin(problem, cert)[0] >= DELTA
        gains.append(gain)
    assert gains == sorted(gains, reverse=True)
    assert gains[0] - gains[2] <= 10.0 and gains[1] - gains[2] <= 1e-3
