"""Certification layer: sector multipliers, LMI assembly checked against an
independent congruence recomputation, lifted-test consistency, FIR adapter
rewiring, and the report objects."""

import warnings

import numpy as np
import pytest

from bootctrl import sdp
from bootctrl.analysis import (
    CERTIFIED,
    NOT_CERTIFIED,
    THEOREM_1,
    THEOREM_2,
    AnalysisReport,
    SectorBound,
    analyze_l2_gain,
    build_theorem1,
    build_theorem2,
    fir_closed_loop,
    l2_gain_index,
    make_fir_controller,
    sector_from_bootstrap,
)
from bootctrl.bootpoly import BootstrapPolynomial, BootstrapSpec
from bootctrl.sdp import SdpCertificate, check_certificate, solve_feasibility
from bootctrl.statespace import PerformanceIndex, interconnect


# --------------------------------------------------------------------------
# sector multiplier


def test_symmetric_sector_quadratic_form():
    """[w; z]^T P_u [w; z] >= 0 exactly on |w| <= gamma |z| (componentwise
    symmetric sector)."""
    gamma = 0.3
    sector = SectorBound.symmetric(gamma, 1)
    P = sector.P_u

    def form(w, z):
        v = np.array([w, z])
        return v @ P @ v

    assert form(gamma * 5.0, 5.0) == pytest.approx(0.0, abs=1e-12)
    assert form(-gamma * 5.0, 5.0) == pytest.approx(0.0, abs=1e-12)
    assert form(0.0, 1.0) > 0
    assert form(gamma * 5.0 + 0.01, 5.0) < 0
    assert form(1.0, 0.0) < 0


def test_sector_blocks():
    sector = SectorBound.symmetric(0.25, 2)
    n = 2
    np.testing.assert_array_equal(sector.P_u[:n, :n], -2.0 * np.eye(n))
    np.testing.assert_array_equal(sector.P_u[:n, n:], np.zeros((n, n)))
    np.testing.assert_allclose(sector.P_u[n:, n:], 2 * 0.25 ** 2 * np.eye(n))


def test_asymmetric_sector_matches_expansion():
    rng = np.random.default_rng(3)
    Ll = -0.2 * np.eye(2) + 0.05 * rng.standard_normal((2, 2))
    Lu = 0.4 * np.eye(2) + 0.05 * rng.standard_normal((2, 2))
    sector = SectorBound(L_lower=Ll, L_upper=Lu)
    w = rng.standard_normal(2)
    z = rng.standard_normal(2)
    v = np.concatenate([w, z])
    expected = 2.0 * (w - Ll @ z) @ (Lu @ z - w)
    assert v @ sector.P_u @ v == pytest.approx(expected, rel=1e-12)


def test_sector_validation():
    with pytest.raises(ValueError, match="square"):
        SectorBound(L_lower=np.zeros((2, 3)), L_upper=np.zeros((2, 3)))
    for gamma in (-0.1, np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            SectorBound.symmetric(gamma, 1)


def test_sector_from_bootstrap_rejects_unusable():
    spec = BootstrapSpec(d=3, K=1)
    bad = BootstrapPolynomial(spec=spec, coefficients=np.zeros(4),
                              gamma_certified=1.0)
    with pytest.raises(ValueError, match=">= 1"):
        sector_from_bootstrap(bad, 2)
    good = BootstrapPolynomial(spec=spec, coefficients=np.zeros(4),
                               gamma_certified=0.3)
    assert sector_from_bootstrap(good, 2).n_zu == 2


# --------------------------------------------------------------------------
# LMI assembly


def _independent_lmi(cl, perf, sector, X, tau):
    """Recompute the performance LMI value at (X, tau) from the dissipation
    form, without using the constraint objects."""
    nxi, m_wp, n_wu = cl.n_xi, cl.m_wp, cl.n_wu
    T_sta = np.block([[np.eye(nxi), np.zeros((nxi, m_wp + n_wu))],
                      [cl.Acl, cl.Bp, cl.Bu]])
    T_perf = np.block(
        [[np.zeros((m_wp, nxi)), np.eye(m_wp), np.zeros((m_wp, n_wu))],
         [cl.Cp, cl.Dpp, cl.Dpu]])
    T_unc = np.block([[np.zeros((n_wu, nxi + m_wp)), np.eye(n_wu)],
                      [cl.Cu, cl.Dup, cl.Duu]])
    middle = np.block([[-X, np.zeros((nxi, nxi))],
                       [np.zeros((nxi, nxi)), X]])
    G = (T_sta.T @ middle @ T_sta + T_perf.T @ perf.Pp @ T_perf
         + tau * T_unc.T @ sector.P_u @ T_unc)
    return 0.5 * (G + G.T)


def test_direct_lmi_matches_independent_congruence(plant, controller):
    cl = interconnect(plant, controller)
    sector = SectorBound.symmetric(0.2296, cl.n_zu)
    perf = l2_gain_index(cl.m_wp, cl.p_z, 25.0)
    problem = build_theorem1(cl, perf, sector)
    assert [c.name for c in problem.constraints] == \
        ["performance_lmi", "X_pos", "tau_pos"]

    rng = np.random.default_rng(42)
    for _ in range(5):
        X = rng.standard_normal((cl.n_xi, cl.n_xi))
        X = 0.5 * (X + X.T)
        tau = float(rng.uniform(0.1, 3.0))
        v = problem.pack(X, tau)
        got = problem.constraints[0].evaluate(v)
        want = _independent_lmi(cl, perf, sector, X, tau)
        np.testing.assert_allclose(got, want, atol=1e-11)
        np.testing.assert_allclose(problem.constraints[1].evaluate(v), X,
                                   atol=1e-12)
        assert problem.constraints[2].evaluate(v)[0, 0] == pytest.approx(tau)


def test_lifted_lmi_matches_independent_congruence(plant, controller):
    from bootctrl.statespace import lift, lift_performance

    cl = interconnect(plant, controller)
    T = 4
    sector = SectorBound.symmetric(0.2296, cl.n_zu)
    perf = l2_gain_index(cl.m_wp, cl.p_z, 25.0)
    problem = build_theorem2(cl, perf, sector, T)
    lifted = lift(cl, T)
    lifted_perf = lift_performance(perf, T)
    assert problem.n_x == cl.n_xi  # the certificate stays base-dimensional

    rng = np.random.default_rng(43)
    X = rng.standard_normal((cl.n_xi, cl.n_xi))
    X = 0.5 * (X + X.T)
    tau = 1.7
    got = problem.constraints[0].evaluate(problem.pack(X, tau))
    want = _independent_lmi(lifted, lifted_perf, sector, X, tau)
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_theorem2_with_unit_period_equals_theorem1(plant, controller):
    cl = interconnect(plant, controller)
    sector = SectorBound.symmetric(0.3, cl.n_zu)
    perf = l2_gain_index(cl.m_wp, cl.p_z, 10.0)
    p1 = build_theorem1(cl, perf, sector)
    p2 = build_theorem2(cl, perf, sector, 1)
    for c1, c2 in zip(p1.constraints, p2.constraints):
        assert np.array_equal(c1.const, c2.const)
        assert np.array_equal(c1.coeffs, c2.coeffs)
        assert c1.sense == c2.sense


def test_certificate_check_at_refresh_period_50(plant, controller,
                                                reference_slope):
    """The T_BS=10 certificate substituted into the T_BS=50 test (a 156x156
    LMI with the same X) is checked without any RuntimeWarning, and its
    verified bound is finite and below the eigvalsh margin."""
    cl = interconnect(plant, controller)
    sector = SectorBound.symmetric(reference_slope, cl.n_zu)
    perf = l2_gain_index(cl.m_wp, cl.p_z, 4.0 ** 2)
    outcome = solve_feasibility(build_theorem2(cl, perf, sector, 10))
    assert outcome.feasible
    problem = build_theorem2(cl, perf, sector, 50)
    assert max(con.dim for con in problem.constraints) == 156
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bound = check_certificate(problem, outcome.certificate)
    assert np.isfinite(bound)
    v = problem.pack(outcome.certificate.X, outcome.certificate.tau)
    eig_margin = min(
        np.linalg.eigvalsh(con.evaluate(v))[0] if con.sense == "pos"
        else -np.linalg.eigvalsh(con.evaluate(v))[-1]
        for con in problem.constraints)
    assert eig_margin - 1e-9 <= bound <= eig_margin


def test_build_rejects_dimension_mismatch(plant, controller):
    cl = interconnect(plant, controller)
    sector = SectorBound.symmetric(0.2, cl.n_zu)
    with pytest.raises(ValueError, match="performance index"):
        build_theorem1(cl, l2_gain_index(cl.m_wp + 1, cl.p_z, 4.0), sector)
    with pytest.raises(ValueError, match="sector dimension"):
        build_theorem1(cl, l2_gain_index(cl.m_wp, cl.p_z, 4.0),
                       SectorBound.symmetric(0.2, cl.n_zu + 1))


def test_build_rejects_indefinite_rp(plant, controller):
    cl = interconnect(plant, controller)
    sector = SectorBound.symmetric(0.2, cl.n_zu)
    perf = PerformanceIndex(Qp=-np.eye(cl.m_wp),
                            Sp=np.zeros((cl.m_wp, cl.p_z)),
                            Rp=-np.eye(cl.p_z))
    with pytest.raises(ValueError, match="positive semidefinite"):
        build_theorem1(cl, perf, sector)


# --------------------------------------------------------------------------
# end-to-end certification on the bundled example


def test_direct_certification_of_example_loop(plant, controller,
                                              reference_slope):
    report = analyze_l2_gain(plant, controller, reference_slope,
                             method=THEOREM_1)
    assert report.verdict == CERTIFIED
    assert report.method == THEOREM_1 and report.T_BS == 1
    assert report.gain == pytest.approx(5.13, abs=0.1)
    assert report.certificate.margin_achieved > 0


# analyze_l2_gain arguments and the recorded gain at tol = 1e-3; FIR runs
# the design-sweep controller (lambda = 0.45, c_out = -0.3) of that length
BUNDLED_CASES = {
    "direct": (dict(method=THEOREM_1), 5.126953125),
    "lifted_T10": (dict(method=THEOREM_2, T_BS=10), 3.972625732421875),
    "lifted_T20": (dict(method=THEOREM_2, T_BS=20), 3.946685791015625),
    "lifted_T50": (dict(method=THEOREM_2, T_BS=50), 3.93524169921875),
    "reset_T5": (dict(mode="reset", T_BS=5), 4.91485595703125),
    "fir_N5": (dict(mode="fir", fir_length=5), 2.51617431640625),
    "fir_N8": (dict(mode="fir", fir_length=8), 2.51007080078125),
}


@pytest.fixture(scope="module")
def bundled_analysis(plant, controller, reference_slope):
    """case -> (closed loop, report, Newton steps of each solve_feasibility
    call), each analysis run once per module."""
    cache = {}

    def get(case):
        if case not in cache:
            kwargs, _ = BUNDLED_CASES[case]
            ctrl, cl = controller, interconnect(plant, controller)
            if kwargs.get("mode") == "fir":
                ctrl = make_fir_controller(kwargs["fir_length"], 0.45, [[-0.3]])
                cl = fir_closed_loop(plant, ctrl, kwargs["fir_length"])
            phase_one = []

            def counting(*args, **kw):
                outcome = solve_feasibility(*args, **kw)
                phase_one.append(outcome.iterations)
                return outcome

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(sdp, "solve_feasibility", counting)
                report = analyze_l2_gain(plant, ctrl, reference_slope,
                                         tol=1e-3, **kwargs)
            cache[case] = cl, report, phase_one
        return cache[case]

    return get


@pytest.mark.parametrize("case", BUNDLED_CASES)
def test_bundled_loop_gains_are_pinned(bundled_analysis, case):
    """The bundled loop's certified gains stay within tol of their
    recorded values, and each certificate holds at exactly gain * gain."""
    cl, report, _ = bundled_analysis(case)
    assert report.verdict == CERTIFIED
    assert abs(report.gain - BUNDLED_CASES[case][1]) <= 1e-3
    problem = build_theorem2(
        cl, l2_gain_index(cl.m_wp, cl.p_z, report.gain * report.gain),
        SectorBound.symmetric(report.gamma_sector, cl.n_zu), report.T_BS)
    assert check_certificate(problem, report.certificate) >= 1e-7


@pytest.mark.parametrize("case", BUNDLED_CASES)
def test_gain_search_newton_budget(bundled_analysis, case):
    """One phase-I solve, and at most 150 Newton steps in phase I and
    phase II together (about 800 in the 19 solves of a bisection)."""
    _, report, phase_one = bundled_analysis(case)
    assert len(phase_one) == 1
    assert phase_one[0] < report.certificate.solver_iterations <= 150


def test_reset_mode_forces_unit_slope(plant, controller):
    report = analyze_l2_gain(plant, controller, 0.123, method=THEOREM_1,
                             T_BS=5, mode="reset")
    assert report.mode == "reset"
    assert report.gamma_sector == 1.0
    assert report.method == THEOREM_2 and report.T_BS == 5
    assert report.verdict == CERTIFIED
    assert report.details["reset_period"] == 5


# --------------------------------------------------------------------------
# FIR adapter


def test_fir_controller_structure():
    N, lam, p_y = 4, 0.5, 1
    ctrl = make_fir_controller(N, lam, [[-0.3]])
    assert ctrl.nc == N + 1
    # delay line shifts, aggregator decays, Bc loads head and aggregator
    assert np.array_equal(ctrl.Ac[1:N, :N - 1], np.eye(N - 1))
    assert ctrl.Ac[N, N] == lam
    assert ctrl.Bc[0, 0] == 1.0 and ctrl.Bc[N, 0] == 1.0
    assert np.array_equal(ctrl.Cc, [[0.0, 0.0, 0.0, 0.0, -0.3]])
    with pytest.raises(ValueError, match="lam"):
        make_fir_controller(N, 1.0, [[-0.3]])
    with pytest.raises(ValueError, match="N"):
        make_fir_controller(0, 0.5, [[-0.3]])


def test_fir_closed_loop_rewiring(plant):
    N, lam = 3, 0.4
    ctrl = make_fir_controller(N, lam, [[-0.3]])
    cl = fir_closed_loop(plant, ctrl, N)
    n = plant.n

    Ac_pow = np.linalg.matrix_power(ctrl.Ac, N)
    np.testing.assert_allclose(cl.Bu[:n], 0.0, atol=1e-15)
    np.testing.assert_allclose(cl.Bu[n:], Ac_pow @ ctrl.Bc, atol=1e-12)
    want_cu = np.zeros((1, n + ctrl.nc))
    want_cu[0, n + N - 1] = 1.0  # taps the departing measurement y(t-N)
    np.testing.assert_array_equal(cl.Cu, want_cu)
    assert not cl.Duu.any() and not cl.Dpu.any() and not cl.Dup.any()


def test_fir_structure_validation_rejects_tampering(plant):
    ctrl = make_fir_controller(3, 0.4, [[-0.3]])
    bad_ac = np.array(ctrl.Ac)
    bad_ac[1, 0] = 0.0  # break the shift
    from bootctrl.statespace import Controller

    tampered = Controller(Ac=bad_ac, Bc=ctrl.Bc, B2=ctrl.B2, Cc=ctrl.Cc,
                          Dc=ctrl.Dc, F2=ctrl.F2)
    with pytest.raises(ValueError, match="delay line"):
        fir_closed_loop(plant, tampered, 3)

    bad_bc = np.array(ctrl.Bc)
    bad_bc[0, 0] = 0.0  # head no longer loads y
    tampered = Controller(Ac=ctrl.Ac, Bc=bad_bc, B2=ctrl.B2, Cc=ctrl.Cc,
                          Dc=ctrl.Dc, F2=ctrl.F2)
    with pytest.raises(ValueError, match="head"):
        fir_closed_loop(plant, tampered, 3)


def test_fir_certification(plant):
    ctrl = make_fir_controller(4, 0.5, [[-0.3]])
    report = analyze_l2_gain(plant, ctrl, 0.7, mode="fir", fir_length=4)
    assert report.verdict == CERTIFIED
    assert report.gamma_sector == 1.0 and report.method == THEOREM_1
    assert report.details["fir_length"] == 4
    assert "Bu_modified" in report.details and "Cu_modified" in report.details

    perf = l2_gain_index(interconnect(plant, ctrl).m_wp, plant.p_z,
                         report.gain ** 2)
    problem = build_theorem1(fir_closed_loop(plant, ctrl, 4), perf,
                             SectorBound.symmetric(1.0, 1))
    assert solve_feasibility(problem).status == "FEASIBLE"


def test_fir_mode_requires_length(plant, controller):
    with pytest.raises(ValueError, match="fir_length"):
        analyze_l2_gain(plant, controller, 0.5, mode="fir")


@pytest.mark.parametrize("N", [0, -2])
def test_fir_closed_loop_rejects_nonpositive_length(plant, N):
    ctrl = make_fir_controller(3, 0.4, [[-0.3]])
    with pytest.raises(ValueError, match="FIR length must be at least 1"):
        fir_closed_loop(plant, ctrl, N)


# --------------------------------------------------------------------------
# reports


def test_report_invariants():
    with pytest.raises(ValueError, match="verdict"):
        AnalysisReport(verdict="MAYBE", method=THEOREM_1, T_BS=1,
                       gamma_sector=0.2)
    with pytest.raises(ValueError, match="gain"):
        AnalysisReport(verdict=CERTIFIED, method=THEOREM_1, T_BS=1,
                       gamma_sector=0.2)  # missing gain
    with pytest.raises(ValueError, match="gain"):
        AnalysisReport(verdict=NOT_CERTIFIED, method=THEOREM_1, T_BS=1,
                       gamma_sector=0.2, gain=3.0)


def test_report_json_roundtrip_certificate():
    cert = SdpCertificate(X=np.eye(2), tau=1.0, margin_achieved=0.5,
                          solver_iterations=3)
    report = AnalysisReport(verdict=CERTIFIED, method=THEOREM_2, T_BS=10,
                            gamma_sector=0.2296, gain=3.97, certificate=cert)
    data = report.to_json()
    assert data["verdict"] == CERTIFIED
    assert data["gain"] == 3.97
    back = SdpCertificate.from_json(data["certificate"])
    np.testing.assert_array_equal(back.X, cert.X)


def test_unknown_mode_rejected(plant, controller):
    with pytest.raises(ValueError, match="mode"):
        analyze_l2_gain(plant, controller, 0.5, mode="homomorphic")


def test_unknown_method_rejected(plant, controller):
    with pytest.raises(ValueError, match="method"):
        analyze_l2_gain(plant, controller, 0.5, method="bogus")
