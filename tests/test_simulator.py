"""Closed-loop simulator: the plaintext reference equals the interconnection
model, the encrypted loop equals the reference plus injected refresh errors,
reset and FIR modes match their algebraic models, and the empirical gain
stays under the certified bound."""

import hashlib
import warnings
from dataclasses import replace

import numpy as np
import pytest

import bootctrl.crypto_sim as cs
from bootctrl.analysis import CERTIFIED, analyze_l2_gain, make_fir_controller
from bootctrl.simulator import (
    ENCRYPTED,
    FIR,
    PLAINTEXT_REFERENCE,
    RESET,
    SimulationConfig,
    aligned_disturbance,
    estimate_empirical_gain,
    run_closed_loop,
)
from bootctrl.statespace import (
    ClosedLoop,
    Controller,
    Plant,
    interconnect,
    simulate,
)


@pytest.fixture(scope="module")
def sim_poly(fitted_poly, scheme):
    return fitted_poly.rescaled(float(scheme.q0))


def _plain_cfg(steps, **kw):
    return SimulationConfig(mode=PLAINTEXT_REFERENCE, steps=steps, **kw)


# --------------------------------------------------------------------------
# plaintext reference vs closed-loop model


def test_plaintext_reference_matches_interconnect_model(plant, controller):
    steps = 120
    rng = np.random.default_rng(1)
    w1 = rng.standard_normal((steps, plant.m_w1))
    w2 = rng.standard_normal((steps, controller.m_w2))
    res = run_closed_loop(plant, controller, _plain_cfg(steps), w_p1=w1,
                          w_p2=w2)

    cl = interconnect(plant, controller)
    xi, z_p, _ = simulate(cl, np.zeros(cl.n_xi), np.hstack([w1, w2]), None,
                          steps)
    np.testing.assert_allclose(res.z_p, z_p, atol=1e-10)
    np.testing.assert_allclose(
        np.hstack([res.x_plant, res.x_c]), xi, atol=1e-10
    )


def test_plaintext_wu_injection_matches_model(plant, controller):
    steps = 80
    rng = np.random.default_rng(2)
    w1 = rng.standard_normal((steps, plant.m_w1))
    wu = 0.2 * rng.standard_normal((steps, controller.nc))
    res = run_closed_loop(plant, controller, _plain_cfg(steps), w_p1=w1,
                          w_u=wu)

    cl = interconnect(plant, controller)
    w_p = np.hstack([w1, np.zeros((steps, controller.m_w2))])
    xi, z_p, _ = simulate(cl, np.zeros(cl.n_xi), w_p, wu, steps)
    np.testing.assert_allclose(res.z_p, z_p, atol=1e-10)
    np.testing.assert_allclose(res.x_c, xi[:, plant.n:], atol=1e-10)


def test_x0_length_checked(plant, controller):
    for x0 in (np.zeros(plant.n + 1), np.zeros((plant.n, 1))):
        with pytest.raises(ValueError, match=f"plant.n = {plant.n} entries"):
            run_closed_loop(plant, controller, _plain_cfg(10), x0=x0)


def test_w_u_rejected_outside_plaintext(plant, controller, scheme, sim_poly):
    cfg = SimulationConfig(mode=ENCRYPTED, steps=20, T_BS=scheme.L)
    with pytest.raises(ValueError, match="PLAINTEXT_REFERENCE"):
        run_closed_loop(plant, controller, cfg, scheme=scheme, poly=sim_poly,
                        w_u=np.zeros((20, controller.nc)))


# --------------------------------------------------------------------------
# encrypted mode


def _controller_noise(with_w2, rng, steps, controller):
    """(controller, w_p2): w_p2 absent, or 0.1 * standard normal through a
    nonzero F2 (the demo F2 is zero), so the F2 and B2 columns both act."""
    if not with_w2:
        return controller, None
    return (replace(controller, F2=0.5 * np.ones_like(controller.F2)),
            0.1 * rng.standard_normal((steps, controller.m_w2)))


@pytest.mark.parametrize("with_w2", [False, True],
                         ids=["w_p2_absent", "w_p2_random"])
def test_encrypted_replay_through_ideal_model(plant, controller, scheme,
                                              sim_poly, with_w2):
    """Replaying the recorded refresh errors as w_u through the plaintext
    model reproduces the encrypted trajectories: the encrypted loop IS the
    nominal interconnection driven by the refresh-error uncertainty (plus
    actuation noise at the 1/c**2 scale)."""
    steps = 400
    rng = np.random.default_rng(3)
    w1 = rng.standard_normal((steps, plant.m_w1))
    controller, w2 = _controller_noise(with_w2, rng, steps, controller)
    cfg = SimulationConfig(mode=ENCRYPTED, steps=steps, T_BS=scheme.L, seed=5)
    res = run_closed_loop(plant, controller, cfg, scheme=scheme,
                          poly=sim_poly, w_p1=w1, w_p2=w2)
    n_refresh = (steps - 1) // scheme.L
    assert len(res.events) == controller.nc * n_refresh
    assert res.violations == 0

    wu = np.zeros((steps, controller.nc))
    by_step = {}
    for ev in res.events:
        by_step.setdefault(ev.step, []).append(ev)
    for t, evs in by_step.items():
        assert len(evs) == controller.nc
        for comp, ev in enumerate(evs):
            wu[t, comp] = ev.output / scheme.c - res.x_c[t, comp]

    replay = run_closed_loop(plant, controller, _plain_cfg(steps), w_p1=w1,
                             w_p2=w2, w_u=wu)
    scale = max(1.0, np.abs(res.x_c).max())
    assert np.abs(replay.x_c - res.x_c).max() / scale <= 2e-3
    assert np.abs(replay.z_p - res.z_p).max() \
        / max(1.0, np.abs(res.z_p).max()) <= 2e-3
    # the injections themselves are nonzero, so the match is not vacuous
    assert np.abs(wu).max() > 0


def test_encrypted_ledger_and_summary(plant, controller, scheme, sim_poly):
    steps = 150
    rng = np.random.default_rng(4)
    cfg = SimulationConfig(mode=ENCRYPTED, steps=steps, T_BS=scheme.L)
    res = run_closed_loop(plant, controller, cfg, scheme=scheme,
                          poly=sim_poly,
                          w_p1=rng.standard_normal((steps, plant.m_w1)))
    assert res.violations == 0
    assert 0 < res.max_fidelity_ratio <= 1.0
    assert "violations 0" in res.summary()


def test_encrypted_mode_validation(plant, controller, scheme, sim_poly,
                                   fitted_poly):
    with pytest.raises(ValueError, match="needs scheme and poly"):
        run_closed_loop(plant, controller,
                        SimulationConfig(mode=ENCRYPTED, steps=10, T_BS=10))
    with pytest.raises(ValueError, match="L == T_BS"):
        run_closed_loop(plant, controller,
                        SimulationConfig(mode=ENCRYPTED, steps=10, T_BS=5),
                        scheme=scheme, poly=sim_poly)
    with pytest.raises(ValueError, match="rescaled"):
        run_closed_loop(plant, controller,
                        SimulationConfig(mode=ENCRYPTED, steps=10,
                                         T_BS=scheme.L),
                        scheme=scheme, poly=fitted_poly)  # q = 1 poly


def test_simulation_determinism(plant, controller, scheme, sim_poly):
    steps = 60
    rng = np.random.default_rng(8)
    w1 = rng.standard_normal((steps, plant.m_w1))
    cfg = SimulationConfig(mode=ENCRYPTED, steps=steps, T_BS=scheme.L, seed=2)
    r1 = run_closed_loop(plant, controller, cfg, scheme=scheme,
                         poly=sim_poly, w_p1=w1)
    r2 = run_closed_loop(plant, controller, cfg, scheme=scheme,
                         poly=sim_poly, w_p1=w1)
    assert np.array_equal(r1.x_c, r2.x_c)
    assert r1.empirical_gain == r2.empirical_gain

    cfg3 = SimulationConfig(mode=ENCRYPTED, steps=steps, T_BS=scheme.L,
                            seed=3)
    r3 = run_closed_loop(plant, controller, cfg3, scheme=scheme,
                         poly=sim_poly, w_p1=w1)
    assert not np.array_equal(r1.x_c, r3.x_c)  # encryption noise re-drawn


def _run_digest(res):
    """sha256 of the exact u, z_p and x_c bytes and the event list."""
    h = hashlib.sha256()
    for arr in (res.u, res.z_p, res.x_c):
        h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    h.update(repr(res.events).encode())
    return h.hexdigest()


def test_encrypted_loop_is_pinned_bitwise(plant, controller, scheme, sim_poly):
    """Three short seeded runs (ENCRYPTED with w_p2 at T_BS=5, RESET, FIR
    N=3) reproduce recorded trajectories and refresh events bit for bit,
    so a kernel rewrite cannot move a ciphertext, a noise bound or a
    debug value unnoticed."""
    steps = 40
    rng = np.random.default_rng(17)
    w1 = rng.standard_normal((steps, plant.m_w1))
    w2 = 0.1 * rng.standard_normal((steps, controller.m_w2))
    ctrl_w2 = replace(controller, F2=0.5 * np.ones_like(controller.F2))
    enc = run_closed_loop(
        plant, ctrl_w2, SimulationConfig(mode=ENCRYPTED, steps=steps, T_BS=5,
                                         seed=7),
        scheme=replace(scheme, L=5), poly=sim_poly, w_p1=w1, w_p2=w2)
    rst = run_closed_loop(
        plant, controller, SimulationConfig(mode=RESET, steps=steps, T_BS=10,
                                            seed=7),
        scheme=scheme, w_p1=w1)
    fir = run_closed_loop(
        plant, make_fir_controller(3, 0.4, [[-0.3]]),
        SimulationConfig(mode=FIR, steps=steps, fir_length=3, seed=7),
        scheme=scheme, w_p1=w1)
    assert len(enc.events) == 14 and enc.violations == 0
    assert _run_digest(enc) == \
        "760fa159e2b16b5c4ef97927bdfad29d94d76273923e78a40eb70907fbd77a78"
    assert _run_digest(rst) == \
        "81b480cb38a0a5ba2ee1bd960d3e1541958489bc49a459a570aacace392cfa9d"
    assert _run_digest(fir) == \
        "8b2ef42addef8475af1f53617e5e00f24a15044291979f8d4570577d7f38550e"


@pytest.mark.parametrize("mode", [ENCRYPTED, RESET, FIR])
def test_each_ciphertext_is_decrypted_once(plant, controller, scheme, sim_poly,
                                           monkeypatch, mode):
    """The ledger check's phase also decodes u: no ciphertext is decrypted
    twice, and every control output is decrypted."""
    seen = []
    real = cs.decrypt_raw

    def spy(keys, ct):
        seen.append(ct)
        return real(keys, ct)

    monkeypatch.setattr(cs, "decrypt_raw", spy)
    steps = 12
    if mode == FIR:
        res = run_closed_loop(plant, make_fir_controller(3, 0.4, [[-0.3]]),
                              SimulationConfig(mode=FIR, steps=steps, fir_length=3),
                              scheme=scheme)
    else:
        res = run_closed_loop(plant, controller,
                              SimulationConfig(mode=mode, steps=steps, T_BS=5),
                              scheme=replace(scheme, L=5), poly=sim_poly)
    assert len({id(ct) for ct in seen}) == len(seen)
    assert len(seen) >= steps * res.u.shape[1]


# --------------------------------------------------------------------------
# reset mode


def _plaintext_reset_recursion(plant, controller, w1, T_reset, w2=None):
    """Reference recursion: u from the pre-reset state, reset before the
    state update, exactly as the encrypted loop schedules it."""
    steps = w1.shape[0]
    if w2 is None:
        w2 = np.zeros((steps, controller.m_w2))
    x = np.zeros(plant.n)
    xc = np.zeros(controller.nc)
    xc_log = np.zeros((steps + 1, controller.nc))
    u_log = np.zeros((steps, controller.m_u))
    for t in range(steps):
        y = plant.C @ x + plant.F1 @ w1[t]
        u = controller.Cc @ xc + controller.Dc @ y + controller.F2 @ w2[t]
        u_log[t] = u
        if t > 0 and t % T_reset == 0:
            xc = np.zeros(controller.nc)
        xc = controller.Ac @ xc + controller.Bc @ y + controller.B2 @ w2[t]
        x = plant.A @ x + plant.B @ u + plant.B1 @ w1[t]
        xc_log[t + 1] = xc
    return xc_log, u_log


def test_reset_equals_wu_injection_exactly(plant, controller):
    """The reset is the uncertainty w_u = -x_c: injecting the recorded
    states through the plaintext model reproduces the reset recursion to
    machine precision."""
    steps, T_reset = 97, 10
    rng = np.random.default_rng(5)
    w1 = rng.standard_normal((steps, plant.m_w1))
    xc_log, _ = _plaintext_reset_recursion(plant, controller, w1, T_reset)

    wu = np.zeros((steps, controller.nc))
    for t in range(T_reset, steps, T_reset):
        wu[t] = -xc_log[t]
    replay = run_closed_loop(plant, controller, _plain_cfg(steps), w_p1=w1,
                             w_u=wu)
    assert np.abs(replay.x_c - xc_log).max() <= 1e-12


@pytest.mark.parametrize("with_w2", [False, True],
                         ids=["w_p2_absent", "w_p2_random"])
def test_encrypted_reset_tracks_plaintext(plant, controller, scheme, with_w2):
    steps, T_reset = 200, 10
    rng = np.random.default_rng(6)
    w1 = rng.standard_normal((steps, plant.m_w1))
    controller, w2 = _controller_noise(with_w2, rng, steps, controller)
    cfg = SimulationConfig(mode=RESET, steps=steps, T_BS=T_reset)
    res = run_closed_loop(plant, controller, cfg, scheme=scheme, w_p1=w1,
                          w_p2=w2)
    assert res.events == [] and res.violations == 0

    xc_log, u_log = _plaintext_reset_recursion(plant, controller, w1,
                                               T_reset, w2)
    assert np.abs(res.x_c - xc_log).max() <= 1e-3
    assert np.abs(res.u - u_log).max() <= 1e-3


def test_reset_period_must_fit_levels(plant, controller, scheme):
    cfg = SimulationConfig(mode=RESET, steps=10, T_BS=scheme.L + 1)
    with pytest.raises(ValueError, match="levels"):
        run_closed_loop(plant, controller, cfg, scheme=scheme)


# --------------------------------------------------------------------------
# FIR mode


def test_fir_plaintext_equals_convolution(plant):
    """With the departing-tap correction the aggregator is exactly the
    N-term convolution a(t) = sum_{i=1..N} lam^(i-1) y(t-i)."""
    N, lam = 6, 0.4
    ctrl = make_fir_controller(N, lam, [[-0.3]])
    steps = 150
    rng = np.random.default_rng(7)
    w1 = rng.standard_normal((steps, plant.m_w1))
    res = run_closed_loop(plant, ctrl, _plain_cfg(steps, fir_length=N),
                          w_p1=w1)

    y = res.y[:, 0]
    for t in range(steps):
        acc = sum(lam ** (i - 1) * y[t - i]
                  for i in range(1, N + 1) if t - i >= 0)
        assert abs(res.x_c[t][N] - acc) <= 1e-10
        assert abs(res.u[t][0] - (-0.3) * acc) <= 1e-10


def test_fir_encrypted_tracks_exact_recursion(plant, scheme):
    N, lam = 6, 0.4
    ctrl = make_fir_controller(N, lam, [[-0.3]])
    steps = 200
    rng = np.random.default_rng(8)
    w1 = rng.standard_normal((steps, plant.m_w1))
    cfg = SimulationConfig(mode=FIR, steps=steps, fir_length=N)
    enc = run_closed_loop(plant, ctrl, cfg, scheme=scheme, w_p1=w1)
    ref = run_closed_loop(plant, ctrl, _plain_cfg(steps, fir_length=N),
                          w_p1=w1)
    assert enc.events == []  # constant depth: no refreshes at all
    assert np.abs(enc.u - ref.u).max() <= 1e-3
    assert np.abs(enc.z_p - ref.z_p).max() <= 1e-3


def test_fir_encrypted_state_is_the_window_convolution(plant, scheme):
    """The logged delay-line state of an encrypted FIR run holds the last N
    measurements and their lam-weighted sum."""
    N, lam = 6, 0.4
    ctrl = make_fir_controller(N, lam, [[-0.3]])
    steps = 60
    rng = np.random.default_rng(9)
    w1 = rng.standard_normal((steps, plant.m_w1))
    cfg = SimulationConfig(mode=FIR, steps=steps, fir_length=N)
    res = run_closed_loop(plant, ctrl, cfg, scheme=scheme, w_p1=w1)

    y = res.y[:, 0]
    assert res.x_c.shape == (steps + 1, N + 1)
    for t in range(steps + 1):
        acc = sum(lam ** (i - 1) * y[t - i]
                  for i in range(1, N + 1) if t - i >= 0)
        assert abs(res.x_c[t][N] - acc) <= 1e-10
        for i in range(1, N + 1):
            assert res.x_c[t][i - 1] == (y[t - i] if t - i >= 0 else 0.0)


def test_fir_encrypted_runs_a_non_scalar_aggregator(plant, scheme):
    """A delay line feeding a 2-state aggregator is certified by the FIR
    analysis, and the encrypted FIR run follows the exact recursion; its
    logged state is the certified window map sum_i Ac^(i-1) Bc y(t-i)."""
    N, steps = 4, 300
    nc = N + 2
    Ac = np.zeros((nc, nc))
    Ac[:N, :N] = make_fir_controller(N, 0.4, [[-0.3]]).Ac[:N, :N]
    Ac[N:, N:] = [[0.4, 0.1], [0.0, 0.5]]
    Bc = np.zeros((nc, 1))
    Bc[0] = Bc[N:] = 1.0
    Cc = np.zeros((1, nc))
    Cc[0, N:] = [-0.2, -0.1]
    ctrl = Controller(Ac=Ac, Bc=Bc, B2=np.zeros((nc, 1)), Cc=Cc, Dc=[[0.0]],
                      F2=[[0.0]])
    report = analyze_l2_gain(plant, ctrl, 1.0, mode="fir", fir_length=N,
                             tol=0.5)
    assert report.verdict == CERTIFIED

    w1 = np.random.default_rng(11).standard_normal((steps, plant.m_w1))
    cfg = SimulationConfig(mode=FIR, steps=steps, fir_length=N)
    enc = run_closed_loop(plant, ctrl, cfg, scheme=scheme, w_p1=w1)
    ref = run_closed_loop(plant, ctrl, _plain_cfg(steps, fir_length=N),
                          w_p1=w1)
    assert np.abs(enc.u - ref.u).max() <= 1e-3
    assert np.abs(enc.z_p - ref.z_p).max() <= 1e-3

    for t in range(steps + 1):
        want = sum((np.linalg.matrix_power(Ac, i - 1) @ Bc @ enc.y[t - i]
                    for i in range(1, N + 1) if t - i >= 0), np.zeros(nc))
        np.testing.assert_allclose(enc.x_c[t], want, rtol=0, atol=1e-10)


def test_fir_encrypted_carries_w_p2_through_f2(plant, scheme):
    """A given w_p2 reaches u through F2, as in the plaintext reference."""
    N, steps = 3, 200
    ctrl = replace(make_fir_controller(N, 0.45, [[-0.3]]), F2=[[0.5]])
    rng = np.random.default_rng(12)
    w1 = rng.standard_normal((steps, plant.m_w1))
    w2 = rng.standard_normal((steps, ctrl.m_w2))
    cfg = SimulationConfig(mode=FIR, steps=steps, fir_length=N)
    enc = run_closed_loop(plant, ctrl, cfg, scheme=scheme, w_p1=w1, w_p2=w2)
    plain = _plain_cfg(steps, fir_length=N)
    ref = run_closed_loop(plant, ctrl, plain, w_p1=w1, w_p2=w2)
    without_w2 = run_closed_loop(plant, ctrl, plain, w_p1=w1)
    assert np.abs(ref.u - without_w2.u).max() > 0.1
    assert np.abs(enc.u - ref.u).max() <= 1e-3
    assert np.abs(enc.z_p - ref.z_p).max() <= 1e-3


def test_fir_encrypted_rejects_w_p2_into_the_state(plant, scheme):
    ctrl = replace(make_fir_controller(3, 0.45, [[-0.3]]),
                   B2=np.ones((4, 1)))
    cfg = SimulationConfig(mode=FIR, steps=10, fir_length=3)
    with pytest.raises(ValueError, match="B2"):
        run_closed_loop(plant, ctrl, cfg, scheme=scheme,
                        w_p2=np.ones((10, 1)))


def test_fir_mode_needs_valid_structure(plant, controller, scheme):
    cfg = SimulationConfig(mode=FIR, steps=10, fir_length=2)
    with pytest.raises(ValueError, match="delay line"):
        run_closed_loop(plant, controller, cfg, scheme=scheme)


# --------------------------------------------------------------------------
# empirical gain studies


def test_empirical_gain_stays_under_certified(plant, controller, scheme,
                                              sim_poly):
    cfg = SimulationConfig(mode=ENCRYPTED, steps=2000, T_BS=scheme.L)
    study = estimate_empirical_gain(plant, controller, cfg, scheme=scheme,
                                    poly=sim_poly, n_random=3)
    assert study.total_violations == 0
    assert study.total_events > 0
    assert study.max_fidelity_ratio <= 1.0
    assert len(study.trial_gains) == 3
    assert study.max_gain <= 3.97  # certified bound for the lifted test
    assert study.aligned_gain >= 1.5


def test_aligned_disturbance_matches_frequency_sweep():
    """On a loop whose uncertainty channel is disconnected (static-update
    controller, Ac = 0), the aligned excitation reproduces the peak of the
    frequency response within a few percent."""
    plant = Plant(A=[[0.7]], B=[[1.0]], B1=[[1.0]], C=[[1.0]], F1=[[0.0]],
                  C1=[[1.0]], E=[[0.1]], D1=[[0.0]])
    controller = Controller(Ac=[[0.0]], Bc=[[0.2]], B2=[[0.0]],
                            Cc=[[-0.4]], Dc=[[0.0]], F2=[[0.0]])
    cl = interconnect(plant, controller)

    steps = 400
    w = aligned_disturbance(cl, steps, columns=[0], iterations=60)
    xi, z, _ = simulate(cl, np.zeros(cl.n_xi), w, None, steps)
    achieved = np.linalg.norm(z) / np.linalg.norm(w)

    omegas = np.linspace(0, np.pi, 20001)
    peak = 0.0
    for om in omegas:
        H = cl.Cp[:, :] @ np.linalg.inv(
            np.exp(1j * om) * np.eye(cl.n_xi) - cl.Acl) @ cl.Bp[:, [0]] \
            + cl.Dpp[:, [0]]
        peak = max(peak, np.linalg.svd(H, compute_uv=False)[0])
    assert achieved == pytest.approx(peak, rel=0.05)
    assert achieved <= peak + 1e-9  # finite horizon cannot beat the sup


def _aligned_by_simulation(cl, steps, columns=None, iterations=30, seed=0):
    """Reference power iteration: both passes through simulate, the
    adjoint one on the dual system over the time-reversed output."""
    cols = np.arange(cl.m_wp) if columns is None else np.asarray(columns)
    fwd = replace(cl, Bp=cl.Bp[:, cols], Dpp=cl.Dpp[:, cols],
                  Dup=cl.Dup[:, cols])
    adj = ClosedLoop(Acl=fwd.Acl.T, Bp=fwd.Cp.T, Bu=fwd.Cu.T, Cp=fwd.Bp.T,
                     Dpp=fwd.Dpp.T, Dpu=fwd.Dup.T, Cu=fwd.Bu.T, Dup=fwd.Dpu.T,
                     Duu=fwd.Duu.T)
    x0 = np.zeros(cl.n_xi)
    w = np.random.default_rng(seed).standard_normal((steps, len(cols)))
    w /= np.linalg.norm(w)
    gain_prev = 0.0
    for _ in range(iterations):
        _, z, _ = simulate(fwd, x0, w, None, steps)
        g = simulate(adj, x0, z[::-1], None, steps)[1][::-1]
        norm = np.linalg.norm(g)
        if norm == 0:
            break
        gain = np.linalg.norm(z)
        w = g / norm
        if abs(gain - gain_prev) < 1e-10 * max(1.0, gain):
            break
        gain_prev = gain
    out = np.zeros((steps, cl.m_wp))
    out[:, cols] = w
    return out


@pytest.mark.parametrize("steps", [1, 2, 30, 1000])
@pytest.mark.parametrize("columns", [None, [0], [0, 2]],
                         ids=["all", "w_p1", "w_p1_and_last"])
def test_aligned_disturbance_fft_matches_simulation(plant, controller, steps,
                                                    columns):
    cl = interconnect(plant, controller)
    got = aligned_disturbance(cl, steps, columns=columns)
    want = _aligned_by_simulation(cl, steps, columns=columns)
    assert np.abs(got - want).max() <= 1e-12
    assert np.linalg.norm(got) == pytest.approx(1.0, abs=1e-12)


def _unit_start(steps, width, seed=0):
    w = np.random.default_rng(seed).standard_normal((steps, width))
    return w / np.linalg.norm(w)


def test_aligned_disturbance_silent_loop_returns_start(plant, controller):
    """A loop with no path to z_p (Cp = 0, Dpp = 0) stops on the zero
    adjoint without a warning and returns the normalised random start."""
    cl = interconnect(plant, controller)
    silent = replace(cl, Cp=np.zeros_like(cl.Cp), Dpp=np.zeros_like(cl.Dpp))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = aligned_disturbance(silent, 50, columns=[0], seed=4)
    assert np.array_equal(w[:, [0]], _unit_start(50, 1, seed=4))
    assert not w[:, 1:].any()


def test_aligned_disturbance_zero_iterations_returns_start(plant, controller):
    cl = interconnect(plant, controller)
    w = aligned_disturbance(cl, 25, iterations=0, seed=3)
    assert np.array_equal(w, _unit_start(25, cl.m_wp, seed=3))


@pytest.mark.parametrize("columns, steps", [
    ([0, 0], 30), ([0.7], 30), ([-1], 30), ([7], 30), ([], 30), ([0], 0),
], ids=["duplicate", "float", "negative", "out_of_range", "empty",
        "no_steps"])
def test_aligned_disturbance_rejects_bad_input(plant, controller, columns,
                                               steps):
    cl = interconnect(plant, controller)
    with pytest.raises(ValueError, match="columns|steps"):
        aligned_disturbance(cl, steps, columns=columns)


# --------------------------------------------------------------------------
# config validation


def test_config_validation():
    with pytest.raises(ValueError, match="mode"):
        SimulationConfig(mode="HOMOMORPHIC", steps=10)
    with pytest.raises(ValueError, match="steps"):
        SimulationConfig(mode=ENCRYPTED, steps=0)
    with pytest.raises(ValueError, match="T_BS"):
        SimulationConfig(mode=ENCRYPTED, steps=10, T_BS=0)
    with pytest.raises(ValueError, match="fir_length"):
        SimulationConfig(mode=FIR, steps=10, fir_length=0)
