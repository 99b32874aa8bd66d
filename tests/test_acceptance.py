"""Acceptance gate: every release criterion at its stated tolerance, one
pass/fail line each.

1. Direct certification of the example loop at sector slope 0.2296.
2. Lifted certification with refresh period 10, tighter than the direct one.
3. Polynomial fit (d=25, K=2, eps=0.5) certified at slope <= 0.25 on at
   least one million verification samples.
4. Lifting exactness and performance-sum consistency on random systems.
5. Long encrypted simulations stay under the certified gain with zero
   sector violations, including a worst-case-aligned disturbance.
6. Noise-ledger soundness on 100000 randomized ciphertext cases.
7. Cross-validation: certified gain vs frequency sweep, reset algebra, FIR
   window vs convolution.
8. An unstable loop is never certified, and tampered certificates are
   rejected by the independent checker.
"""

import time

import numpy as np
import pytest

import bootctrl.crypto_sim as cs
from bootctrl.analysis import (
    CERTIFIED,
    NOT_CERTIFIED,
    THEOREM_1,
    THEOREM_2,
    SectorBound,
    analyze_l2_gain,
    build_theorem1,
    l2_gain_index,
    make_fir_controller,
)
from bootctrl.bootpoly import BootstrapSpec, fit, verify
from bootctrl.sdp import SdpCertificate, check_certificate
from bootctrl.simulator import (
    ENCRYPTED,
    PLAINTEXT_REFERENCE,
    SimulationConfig,
    estimate_empirical_gain,
    run_closed_loop,
)
from bootctrl.statespace import (
    Controller,
    Plant,
    interconnect,
    lift,
    lift_performance,
    simulate,
)


def _check(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def direct_result(plant, controller, reference_slope):
    t0 = time.perf_counter()
    report = analyze_l2_gain(plant, controller, reference_slope,
                             method=THEOREM_1)
    return report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def lifted_result(plant, controller, reference_slope):
    t0 = time.perf_counter()
    report = analyze_l2_gain(plant, controller, reference_slope,
                             method=THEOREM_2, T_BS=10)
    return report, time.perf_counter() - t0


def test_criterion_1_direct_certification(plant, controller, reference_slope,
                                          direct_result):
    report, elapsed = direct_result
    ok = report.verdict == CERTIFIED
    gain = report.gain if ok else float("nan")
    margin = report.certificate.margin_achieved if ok else float("nan")

    # independent recheck of the certificate through the eigenvalue path
    recheck = float("nan")
    if ok:
        cl = interconnect(plant, controller)
        problem = build_theorem1(
            cl, l2_gain_index(cl.m_wp, cl.p_z, gain ** 2),
            SectorBound.symmetric(reference_slope, cl.n_zu))
        recheck = check_certificate(problem, report.certificate)

    ok = ok and abs(gain - 5.13) <= 0.10 and margin > 0 and recheck > 0 \
        and elapsed < 10.0
    _check("criterion 1 (direct test, slope 0.2296)", ok,
           f"gain {gain:.4f} (target 5.13 +/- 0.10), margin {margin:.2e}, "
           f"independent recheck {recheck:.2e}, {elapsed:.1f}s (< 10s)")


def test_criterion_2_lifted_certification(direct_result, lifted_result):
    direct, _ = direct_result
    report, elapsed = lifted_result
    ok = report.verdict == CERTIFIED
    gain = report.gain if ok else float("nan")
    ok = ok and abs(gain - 3.97) <= 0.10 and gain <= direct.gain \
        and report.certificate.margin_achieved > 0 and elapsed < 30.0
    _check("criterion 2 (lifted test, period 10)", ok,
           f"gain {gain:.4f} (target 3.97 +/- 0.10, <= direct "
           f"{direct.gain:.4f}), {elapsed:.1f}s (< 30s)")


def test_criterion_3_polynomial_fit():
    t0 = time.perf_counter()
    poly = fit(BootstrapSpec(q=1.0, epsilon=0.5, K=2, d=25))
    gamma_recheck = verify(poly, 200_000)  # 5 intervals -> 1e6 samples
    elapsed = time.perf_counter() - t0
    total = 200_000 * len(list(poly.spec.offsets))
    ok = (poly.gamma_certified <= 0.25 and gamma_recheck <= 0.25
          and total >= 10 ** 6 and elapsed < 60.0)
    _check("criterion 3 (fit d=25, K=2, eps=0.5)", ok,
           f"certified slope {poly.gamma_certified:.6f} (<= 0.25), recheck "
           f"{gamma_recheck:.6f} on {total} samples, {elapsed:.1f}s (< 60s)")


def test_criterion_4_lifting_exactness(make_random_system):
    rng = np.random.default_rng(2024_06)
    worst_model = 0.0
    worst_perf = 0.0
    for _ in range(100):
        plant, controller = make_random_system(rng)
        cl = interconnect(plant, controller)
        for T in (1, 2, 5, 10):
            lifted = lift(cl, T)
            x0 = rng.standard_normal(cl.n_xi)
            w_p = rng.standard_normal((T, cl.m_wp))
            w_u = np.zeros((T, cl.n_wu))
            w_u[0] = rng.standard_normal(cl.n_wu)
            xi, z_p, z_u = simulate(cl, x0, w_p, w_u, T)
            wtil = w_p.reshape(-1)
            scale = max(1.0, np.abs(xi).max(), np.abs(z_p).max())
            worst_model = max(
                worst_model,
                np.abs(lifted.Acl @ x0 + lifted.Bp @ wtil
                       + lifted.Bu @ w_u[0] - xi[T]).max() / scale,
                np.abs(lifted.Cp @ x0 + lifted.Dpp @ wtil
                       + lifted.Dpu @ w_u[0] - z_p.reshape(-1)).max() / scale,
                np.abs(lifted.Cu @ x0 + lifted.Dup @ wtil - z_u[0]).max()
                / scale,
            )

            perf = l2_gain_index(cl.m_wp, cl.p_z, 4.0)
            lifted_perf = lift_performance(perf, T)
            z = rng.standard_normal((T, cl.p_z))
            per_step = sum(
                np.concatenate([w_p[t], z[t]]) @ perf.Pp
                @ np.concatenate([w_p[t], z[t]]) for t in range(T)
            )
            stacked = np.concatenate([wtil, z.reshape(-1)])
            lifted_val = stacked @ lifted_perf.Pp @ stacked
            worst_perf = max(
                worst_perf,
                abs(lifted_val - per_step) / max(1.0, abs(per_step)),
            )
    ok = worst_model <= 1e-9 and worst_perf <= 1e-9
    _check("criterion 4 (lifting exactness, 100 systems x T in {1,2,5,10})",
           ok, f"worst model deviation {worst_model:.2e}, worst performance "
               f"deviation {worst_perf:.2e} (both <= 1e-9)")


def test_criterion_5_encrypted_simulations(plant, controller, scheme,
                                           fitted_poly, lifted_result):
    certified = min(3.97, lifted_result[0].gain)
    poly = fitted_poly.rescaled(float(scheme.q0))
    t0 = time.perf_counter()
    config = SimulationConfig(mode=ENCRYPTED, steps=10_000, T_BS=10)
    study = estimate_empirical_gain(plant, controller, config, scheme=scheme,
                                    poly=poly, n_random=20)
    elapsed = time.perf_counter() - t0
    ok = (len(study.trial_gains) == 20
          and study.max_gain <= certified
          and study.total_violations == 0
          and study.aligned_gain >= 1.5
          and study.max_fidelity_ratio <= 1.0
          and elapsed < 120.0)
    _check("criterion 5 (20 seeds x 10k-step encrypted simulations)", ok,
           f"max ratio {study.max_gain:.4f} (<= certified {certified:.4f}), "
           f"aligned {study.aligned_gain:.4f} (>= 1.5), violations "
           f"{study.total_violations} over {study.total_events} refreshes, "
           f"worst ledger usage {study.max_fidelity_ratio:.3f}, "
           f"{elapsed:.0f}s (< 120s)")


def test_criterion_6_noise_ledger_soundness(scheme, fitted_poly):
    """100000 randomized cases; a case is one post-operation check of
    |Dec_raw - c**sigma * debug| <= ledger bound on a fresh or derived
    ciphertext (including emulated refreshes)."""
    keys = cs.keygen(scheme)
    poly = fitted_poly.rescaled(float(scheme.q0))
    rng = np.random.default_rng(55)
    cases = 0
    worst = 0.0

    def check(ct):
        nonlocal cases, worst
        err = cs.fidelity_error(keys, ct)
        assert err <= ct.noise_bound
        if ct.noise_bound > 0:
            worst = max(worst, err / ct.noise_bound)
        cases += 1

    # refresh cases: level-0 payloads across the fitted range, kept a
    # noise margin inside the boundary so the range guard cannot fire
    half = 0.95 * poly.spec.epsilon * scheme.q0 / 2
    for _ in range(2_000):
        value = float(rng.uniform(-half, half)) / scheme.c
        fresh, _ = cs.bootstrap_emulated(
            keys, cs.encrypt(keys, value, level=0), poly)
        check(fresh)

    # arithmetic cases: random add/scalar/matvec/rescale circuits (a
    # scalar product is the 1x1 matvec)
    while cases < 100_000:
        level = int(rng.integers(1, scheme.L + 1))
        cts = [cs.encrypt(keys, float(rng.uniform(-40, 40)), level=level)
               for _ in range(3)]
        for ct in cts:
            check(ct)
        for _ in range(10):
            op = rng.integers(0, 4)
            try:
                if op == 0:
                    i, j = rng.integers(0, 3, 2)
                    if (cts[i].level == cts[j].level
                            and cts[i].scale_exponent
                            == cts[j].scale_exponent):
                        cts[i] = cs.add(scheme, cts[i], cts[j])
                elif op == 1:
                    i = rng.integers(0, 3)
                    cts[i] = cs.matvec(scheme, [[float(rng.uniform(-2, 2))]],
                                       [cts[i]])[0]
                elif op == 2 and all(
                        c.level == cts[0].level
                        and c.scale_exponent == cts[0].scale_exponent
                        for c in cts):
                    cts = cs.matvec(scheme, rng.uniform(-1, 1, (3, 3)), cts)
                else:
                    i = rng.integers(0, 3)
                    if cts[i].level > 0 and cts[i].scale_exponent > 1:
                        cts[i] = cs.rescale(scheme, cts[i])
            except cs.CiphertextOverflowError:
                pass
            for ct in cts:
                check(ct)
    ok = cases >= 100_000 and worst <= 1.0
    _check("criterion 6 (noise-ledger soundness)", ok,
           f"{cases} randomized cases, worst bound usage {worst:.3f} "
           f"(every case within its ledger)")


def _sweep_free_loop():
    """Loop whose uncertainty channel is physically disconnected (Ac = 0,
    so the injection matrix Ac vanishes): certification must match the
    nominal frequency-domain gain."""
    plant = Plant(A=[[0.7]], B=[[1.0]], B1=[[1.0]], C=[[1.0]], F1=[[0.0]],
                  C1=[[1.0]], E=[[0.1]], D1=[[0.0]])
    controller = Controller(Ac=[[0.0]], Bc=[[0.2]], B2=[[0.0]],
                            Cc=[[-0.4]], Dc=[[0.0]], F2=[[0.0]])
    return plant, controller


def test_criterion_7_cross_validation(plant, controller):
    # (a) certified gain vs frequency sweep on an uncertainty-free loop
    p0, c0 = _sweep_free_loop()
    report = analyze_l2_gain(p0, c0, 0.0, method=THEOREM_1, tol=1e-4)
    cl = interconnect(p0, c0)
    peak = 0.0
    for om in np.linspace(0.0, np.pi, 20_001):
        H = cl.Cp @ np.linalg.inv(np.exp(1j * om) * np.eye(cl.n_xi)
                                  - cl.Acl) @ cl.Bp + cl.Dpp
        peak = max(peak, np.linalg.svd(H, compute_uv=False)[0])
    sweep_ok = report.verdict == CERTIFIED \
        and abs(report.gain - peak) / peak <= 0.01

    # (b) reset as w_u = -x_c: exact to machine precision in the model
    steps, T_reset = 120, 10
    rng = np.random.default_rng(77)
    w1 = rng.standard_normal((steps, plant.m_w1))
    x = np.zeros(plant.n)
    xc = np.zeros(controller.nc)
    xc_log = np.zeros((steps + 1, controller.nc))
    for t in range(steps):
        y = plant.C @ x + plant.F1 @ w1[t]
        u = controller.Cc @ xc + controller.Dc @ y
        if t > 0 and t % T_reset == 0:
            xc = np.zeros(controller.nc)
        xc = controller.Ac @ xc + controller.Bc @ y
        x = plant.A @ x + plant.B @ u + plant.B1 @ w1[t]
        xc_log[t + 1] = xc
    wu = np.zeros((steps, controller.nc))
    for t in range(T_reset, steps, T_reset):
        wu[t] = -xc_log[t]
    replay = run_closed_loop(
        plant, controller,
        SimulationConfig(mode=PLAINTEXT_REFERENCE, steps=steps),
        w_p1=w1, w_u=wu)
    reset_dev = np.abs(replay.x_c - xc_log).max()

    # (c) FIR adapter vs direct convolution
    N, lam = 5, 0.45
    fir = make_fir_controller(N, lam, [[-0.3]])
    res = run_closed_loop(
        plant, fir,
        SimulationConfig(mode=PLAINTEXT_REFERENCE, steps=steps,
                         fir_length=N),
        w_p1=w1)
    y_hist = res.y[:, 0]
    fir_dev = 0.0
    for t in range(steps):
        acc = sum(lam ** (i - 1) * y_hist[t - i]
                  for i in range(1, N + 1) if t - i >= 0)
        fir_dev = max(fir_dev, abs(res.x_c[t][N] - acc))

    ok = sweep_ok and reset_dev <= 1e-12 and fir_dev <= 1e-10
    _check("criterion 7 (cross-validation)", ok,
           f"certified {report.gain:.4f} vs sweep {peak:.4f} "
           f"(diff {abs(report.gain - peak) / peak:.2%} <= 1%), reset "
           f"deviation {reset_dev:.1e} (<= 1e-12), FIR deviation "
           f"{fir_dev:.1e} (<= 1e-10)")


def test_criterion_8_unstable_and_tampered(plant, controller,
                                           reference_slope, direct_result):
    unstable_plant = Plant(A=[[1.2]], B=[[1.0]], B1=[[1.0]], C=[[1.0]],
                           F1=[[0.0]], C1=[[1.0]], E=[[0.0]], D1=[[0.0]])
    idle_controller = Controller(Ac=[[0.5]], Bc=[[0.0]], B2=[[0.0]],
                                 Cc=[[0.0]], Dc=[[0.0]], F2=[[0.0]])
    report = analyze_l2_gain(unstable_plant, idle_controller, 0.2,
                             method=THEOREM_1)
    unstable_ok = report.verdict == NOT_CERTIFIED and report.gain is None

    direct, _ = direct_result
    cl = interconnect(plant, controller)
    problem = build_theorem1(
        cl, l2_gain_index(cl.m_wp, cl.p_z, direct.gain ** 2),
        SectorBound.symmetric(reference_slope, cl.n_zu))
    good = direct.certificate
    dented = np.array(good.X)
    dented[0, 0] = -1.0
    margins = []
    for bad in (
        SdpCertificate(X=-good.X, tau=good.tau, margin_achieved=0.0,
                       solver_iterations=0),
        SdpCertificate(X=good.X, tau=0.0, margin_achieved=0.0,
                       solver_iterations=0),
        SdpCertificate(X=dented, tau=good.tau, margin_achieved=0.0,
                       solver_iterations=0),
    ):
        margins.append(check_certificate(problem, bad))
    tampered_ok = all(m < 1e-7 for m in margins)

    ok = unstable_ok and tampered_ok
    _check("criterion 8 (unstable loop, tampered certificates)", ok,
           f"unstable verdict {report.verdict} (gain cap exhausted), "
           f"tampered margins {['%.1e' % m for m in margins]} all below "
           f"the 1e-7 acceptance threshold")
