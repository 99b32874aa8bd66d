"""Certification layer: sector multipliers, LMI assembly checked against an
independent congruence recomputation, lifted-test consistency, FIR adapter
rewiring, and the report objects."""

import json
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from bootctrl import analysis, sdp
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
from bootctrl.sdp import FEASIBLE, SdpCertificate, check_certificate, solve_feasibility
from bootctrl.statespace import PerformanceIndex, interconnect, lift


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
    with pytest.raises(ValueError, match="^incompatible dimensions: L_lower has 3 "
                                         "columns, but n_zu = 2$"):
        SectorBound(L_lower=np.zeros((2, 3)), L_upper=np.zeros((2, 3)))
    # refused by name when built, not later as a non-finite LMI coefficient
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="^L_lower contains non-finite entries"):
            SectorBound(L_lower=[[bad, 0], [0, 0]], L_upper=np.eye(2))
        with pytest.raises(ValueError, match="^L_upper contains non-finite entries"):
            SectorBound(L_lower=np.zeros((2, 2)), L_upper=[[1, 0], [0, bad]])
    # a non-number too, not as numpy's TypeError from isfinite
    with pytest.raises(ValueError, match="^gamma must be finite and nonnegative"):
        SectorBound.symmetric(-0.1, 1)
    for gamma in (np.inf, -np.inf, np.nan, None, "0.2", [0.2], 1j, True):
        with pytest.raises(ValueError, match="^gamma must be a finite real number, got "):
            SectorBound.symmetric(gamma, 1)


def test_missing_sector_slope_is_refused_by_name(plant, controller):
    """A bootstrap-mode analysis takes its slope as given, so gamma None
    raises a ValueError naming it; reset mode forces slope 1 and needs
    none."""
    with pytest.raises(ValueError, match="^gamma must be .*, got None$"):
        analyze_l2_gain(plant, controller, None)
    assert analyze_l2_gain(plant, controller, None, mode="reset", T_BS=5).verdict == CERTIFIED


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


def test_lmi_assembly_keeps_one_coefficient_stack(plant, controller,
                                                  reference_slope):
    """build_theorem2 symmetrizes the coefficient stack slab by slab in
    place, so at T_BS=50 its traced peak stays below twice the p x m x m
    stack's bytes (2.76 times when the raw stack, their sum and the result
    were alive at once)."""
    cl = interconnect(plant, controller)
    args = (cl, l2_gain_index(cl.m_wp, cl.p_z, 16.0),
            SectorBound.symmetric(reference_slope, cl.n_zu), 50)
    build_theorem2(*args)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        problem = build_theorem2(*args)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 2 * problem.constraints[0].coeffs.nbytes


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


def test_build_accepts_a_performance_index_without_outputs(plant, controller):
    """With no performance output (p_z = 0) Rp is 0x0, which is positive
    semidefinite: build_theorem1 builds the test and the loop is certified
    dissipative for the supply rate -|w_p|^2."""
    no_z = replace(plant, C1=np.zeros((0, plant.n)), E=np.zeros((0, plant.m_u)),
                   D1=np.zeros((0, plant.m_w1)))
    cl = interconnect(no_z, controller)
    assert cl.p_z == 0
    perf = PerformanceIndex(Qp=-np.eye(cl.m_wp), Sp=np.zeros((cl.m_wp, 0)),
                            Rp=np.zeros((0, 0)))
    problem = build_theorem1(cl, perf, SectorBound.symmetric(0.2, cl.n_zu))
    assert problem.constraints[0].const.shape == (cl.n_xi + cl.m_wp + cl.n_wu,) * 2
    assert solve_feasibility(problem).status == FEASIBLE


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
    """case -> (closed loop, report, (Newton steps, largest constraint
    rows) of each solve_feasibility call, numbers of LMI builds and of
    lifts, (problem, slopes) of each bisect_gain call), each analysis run
    once per module."""
    cache = {}

    def get(case):
        if case not in cache:
            kwargs, _ = BUNDLED_CASES[case]
            ctrl, cl = controller, interconnect(plant, controller)
            if kwargs.get("mode") == "fir":
                ctrl = make_fir_controller(kwargs["fir_length"], 0.45, [[-0.3]])
                cl = fir_closed_loop(plant, ctrl, kwargs["fir_length"])
            phase_one, builds, lifts, searches = [], [], [], []

            def counting(*args, **kw):
                outcome = solve_feasibility(*args, **kw)
                rows = max(con.dim for con in args[0].constraints)
                phase_one.append((outcome.iterations, rows))
                return outcome

            def counting_build(*args, **kw):
                builds.append(args)
                return build_theorem2(*args, **kw)

            def counting_lift(*args, **kw):
                lifts.append(args)
                return lift(*args, **kw)

            def recording_search(problem, gain_slopes, **kw):
                searches.append((problem, gain_slopes))
                return sdp.bisect_gain(problem, gain_slopes, **kw)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(sdp, "solve_feasibility", counting)
                mp.setattr(analysis, "build_theorem2", counting_build)
                mp.setattr(analysis, "lift", counting_lift)
                mp.setattr(analysis, "bisect_gain", recording_search)
                report = analyze_l2_gain(plant, ctrl, reference_slope,
                                         tol=1e-3, **kwargs)
            cache[case] = (cl, report, phase_one, len(builds), len(lifts),
                           searches)
        return cache[case]

    return get


@pytest.mark.parametrize("case", BUNDLED_CASES)
def test_bundled_loop_gains_are_pinned(bundled_analysis, case):
    """The bundled loop's certified gains stay within tol of their
    recorded values, each certificate holds at exactly gain * gain, and
    phase I on that rebuilt LMI finds it feasible too: both ask for the
    same absolute margin."""
    cl, report, *_ = bundled_analysis(case)
    assert report.verdict == CERTIFIED
    assert abs(report.gain - BUNDLED_CASES[case][1]) <= 1e-3
    assert report.certificate.margin_achieved >= 1e-7
    problem = build_theorem2(
        cl, l2_gain_index(cl.m_wp, cl.p_z, report.gain * report.gain),
        SectorBound.symmetric(report.gamma_sector, cl.n_zu), report.T_BS)
    assert check_certificate(problem, report.certificate) >= 1e-7
    assert solve_feasibility(problem).status == FEASIBLE


@pytest.mark.parametrize("case", BUNDLED_CASES)
def test_gain_search_newton_budget(bundled_analysis, case):
    """One phase-I solve, and at most 50 Newton steps in phase I and
    phase II together (29-46 with the tangent step, 40-55 before it,
    about 800 in the 19 solves of a bisection)."""
    _, report, phase_one, *_ = bundled_analysis(case)
    assert len(phase_one) == 1
    assert phase_one[0][0] < report.certificate.solver_iterations <= 50


@pytest.mark.parametrize("case", ["direct", "lifted_T10", "lifted_T50", "reset_T5",
                                  "fir_N5", "fir_N8"])
def test_reported_gain_is_within_tol_of_a_tight_solve(bundled_analysis, case):
    """The gain at tol 1e-3 lies in [g, g + 1e-3], g being the same LMI's
    gain at tol 1e-7, and both certificates keep a margin of at least
    delta: the long t steps trade no accuracy for speed."""
    _, report, _, _, _, [(problem, slopes)] = bundled_analysis(case)
    gain, cert = sdp.bisect_gain(problem, slopes, tol=1e-7)
    assert gain <= report.gain <= gain + 1e-3
    assert min(cert.margin_achieved, report.certificate.margin_achieved) >= sdp._DELTA


@pytest.mark.parametrize("case", ["fir_N5", "fir_N8"])
def test_tight_fir_solves_end_no_centering_far_below_zero(bundled_analysis, case):
    """At tol 1e-7 on the FIR loops, no centering of either phase returns a
    Newton decrement below -1e-3 (the most negative is about -5e-5, on FIR
    N=8).  A negative decrement only comes from a computed Newton matrix
    that is indefinite (ROADMAP item 2)."""
    _, _, _, _, _, [(problem, slopes)] = bundled_analysis(case)
    decrements = []
    center = sdp._center

    def recording(*args, **kw):
        out = center(*args, **kw)
        decrements.append(out[1])
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sdp, "_center", recording)
        sdp.bisect_gain(problem, slopes, tol=1e-7)
    assert min(d for d in decrements if d is not None) >= -1e-3


@pytest.mark.parametrize("case", BUNDLED_CASES)
def test_phase_one_solves_only_the_rows_free_of_the_gain(bundled_analysis, case):
    """Phase I sees the LMI cut to the n_xi + n_wu rows that g^2 does not
    move, whatever T_BS: 6 rows for the demo loop, whose full LMI has 9
    to 156."""
    cl, _, phase_one, *_ = bundled_analysis(case)
    assert [rows for _, rows in phase_one] == [cl.n_xi + cl.n_wu]


@pytest.mark.parametrize("case", BUNDLED_CASES)
def test_gain_search_builds_the_lmi_once(bundled_analysis, case):
    """One LMI assembly and one lift per analysis, at g^2 = 0, and that
    LMI is the one the gain search gets."""
    _, _, _, builds, lifts, searches = bundled_analysis(case)
    assert (builds, lifts, len(searches)) == (1, 1, 1)


@pytest.mark.parametrize("case", BUNDLED_CASES)
def test_gain_slope_is_the_difference_of_two_builds(bundled_analysis, case):
    """The slope analyze_l2_gain passes for Qp = -g^2 I is the diagonal of
    the LMI built at g^2 = 1 minus the one built at g^2 = 0, to 1e-14, the
    off-diagonal difference is exactly zero, and the problem it passes is
    that g^2 = 0 build."""
    cl, report, _, _, _, [(problem, slopes)] = bundled_analysis(case)
    sector = SectorBound.symmetric(report.gamma_sector, cl.n_zu)
    base, unit = (build_theorem2(cl, l2_gain_index(cl.m_wp, cl.p_z, gain_sq),
                                 sector, report.T_BS) for gain_sq in (0.0, 1.0))
    assert len(slopes) == len(base.constraints)
    for con, b, u, slope in zip(problem.constraints, base.constraints,
                                unit.constraints, slopes):
        assert np.array_equal(con.const, b.const)
        assert np.array_equal(con.coeffs, b.coeffs)
        diff = u.const - b.const
        assert not np.count_nonzero(diff - np.diag(np.diagonal(diff)))
        if con.sense == "pos":
            assert slope is None and not diff.any()
        else:
            assert np.abs(slope - np.diagonal(diff)).max() <= 1e-14


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


def test_fir_controller_output_must_match_the_measurement_width():
    with pytest.raises(ValueError, match="^c_out must have 1 columns$"):
        make_fir_controller(4, 0.5, [[-0.3, 0.1]])
    with pytest.raises(ValueError, match="^c_out must have 2 columns$"):
        make_fir_controller(4, 0.5, [[-0.3]], p_y=2)


def test_fir_controller_output_takes_the_matrix_rule():
    """c_out is coerced like every controller matrix: text and bools are
    refused by name, and a scalar is a 1x1 matrix."""
    for bad in ("0.3", [[True]]):
        with pytest.raises(ValueError, match="^c_out entries must be real numbers"):
            make_fir_controller(3, 0.5, bad)
    for good in ([[-0.3]], -0.3):
        assert np.array_equal(make_fir_controller(3, 0.5, good).Cc,
                              [[0.0, 0.0, 0.0, -0.3]])


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


def test_fir_structure_validation_rejects_an_aggregator_driven_delay_line(plant):
    ctrl = make_fir_controller(3, 0.4, [[-0.3]])
    Ac = np.array(ctrl.Ac)
    Ac[0, 3] = 0.1  # the head of the delay line reads the aggregator
    with pytest.raises(ValueError, match="^delay-line states must not be driven "
                                         "by the aggregator$"):
        fir_closed_loop(plant, replace(ctrl, Ac=Ac), 3)


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


@pytest.mark.parametrize("N", [2.0, 2.5, True, "2"])
def test_fir_length_must_be_an_integer(plant, N):
    """Each used to end in a bare TypeError (or, for True, a length-1 FIR
    loop); a numpy integer builds the same controller as a Python one."""
    with pytest.raises(ValueError, match="^N must be an integer"):
        make_fir_controller(N, 0.4, [[-0.3]])
    ctrl = make_fir_controller(3, 0.4, [[-0.3]])
    with pytest.raises(ValueError, match="^FIR length must be an integer"):
        fir_closed_loop(plant, ctrl, N)
    with pytest.raises(ValueError, match="^FIR length must be an integer"):
        analyze_l2_gain(plant, ctrl, 0.5, mode="fir", fir_length=N)
    assert np.array_equal(make_fir_controller(np.int64(3), 0.4, [[-0.3]]).Ac, ctrl.Ac)


@pytest.mark.parametrize("T_BS", [True, 2.0, 2.5])
@pytest.mark.parametrize("mode", ["bootstrap", "reset"])
def test_analysis_period_must_be_an_integer(plant, controller, reference_slope,
                                            mode, T_BS):
    """T_BS = True used to certify and report "T_BS": true, and 2.0 to
    report 2.0."""
    with pytest.raises(ValueError, match="^T_BS must be an integer"):
        analyze_l2_gain(plant, controller, reference_slope, T_BS=T_BS, mode=mode)


@pytest.mark.parametrize("mode", ["bootstrap", "reset", "fir"])
def test_numpy_integer_counts_give_a_json_report(plant, controller,
                                                 reference_slope, mode):
    """np.int64 counts are taken as Python ints, so json.dumps of the
    report works; it used to raise TypeError on T_BS or on
    details["fir_length"]."""
    counts = dict(T_BS=np.int64(5))
    if mode == "fir":
        controller = make_fir_controller(4, 0.45, [[-0.3]])
        counts = dict(fir_length=np.int64(4))
    report = analyze_l2_gain(plant, controller, reference_slope, mode=mode,
                             tol=10.0, **counts)
    assert report.verdict == CERTIFIED
    data = json.loads(json.dumps(report.to_json()))
    assert type(report.T_BS) is int and data["T_BS"] == (1 if mode == "fir" else 5)
    for key in ("reset_period", "fir_length"):
        if key in report.details:
            assert type(report.details[key]) is int
            assert data["details"][key] == (4 if mode == "fir" else 5)


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


def _no_performance_output(plant, controller):
    return replace(plant, C1=np.zeros((0, plant.n)), E=np.zeros((0, plant.m_u)),
                   D1=np.zeros((0, plant.m_w1))), controller


def _no_disturbance(plant, controller):
    return (replace(plant, B1=np.zeros((plant.n, 0)), F1=np.zeros((plant.p_y, 0)),
                    D1=np.zeros((plant.p_z, 0))),
            replace(controller, B2=np.zeros((controller.nc, 0)),
                    F2=np.zeros((controller.m_u, 0))))


@pytest.mark.parametrize("strip, name", [(_no_performance_output, "p_z"),
                                         (_no_disturbance, "m_wp")],
                         ids=["p_z_0", "m_wp_0"])
@pytest.mark.parametrize("kwargs", [dict(method=THEOREM_1), dict(T_BS=10),
                                    dict(mode="reset", T_BS=5),
                                    dict(mode="fir", fir_length=3)],
                         ids=["direct", "lifted", "reset", "fir"])
def test_gain_without_a_disturbance_or_an_output_is_refused_by_name(
        monkeypatch, plant, controller, strip, name, kwargs):
    """An l2 gain from no disturbance (m_w1 + m_w2 = 0) or to no performance
    output (p_z = 0) bounds nothing: every mode refuses it with a ValueError
    naming the dimension before any solve, not with numpy's zero-size
    reduction error or a phase-II RuntimeError."""
    if kwargs.get("mode") == "fir":
        controller = make_fir_controller(3, 0.4, [[-0.3]])
    plant, controller = strip(plant, controller)

    def no_solve(*args, **kw):
        raise AssertionError("the gain search ran")

    monkeypatch.setattr(analysis, "bisect_gain", no_solve)
    with pytest.raises(ValueError, match=rf"^{name} \(.* must be at least 1, got 0$"):
        analyze_l2_gain(plant, controller, 0.2, **kwargs)

