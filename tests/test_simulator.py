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
from bootctrl import simulator
from bootctrl.analysis import CERTIFIED, analyze_l2_gain, make_fir_controller
from bootctrl.bootpoly import BootstrapSpec, fit
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

# the full-body reference kernels, which the pinned digests are taken from
from test_crypto_sim import (_matvec_per_entry, _ref_bootstrap, _ref_decrypt_raw,
                             _ref_encrypt, _ref_rescale)


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
        with pytest.raises(ValueError, match=rf"^x0 must have shape \({plant.n},\), got "):
            run_closed_loop(plant, controller, _plain_cfg(10), x0=x0)


@pytest.mark.parametrize("signal, value, message", [
    ("w_p1", {}, "^w_p1 is not a numeric array: "),
    ("w_p2", "ab", "^w_p2 entries must be real numbers, got 'ab'$"),
    ("x0", "ab", "^x0 entries must be real numbers, got 'ab'$"),
    ("x0", ["1.0", "2.0"], "^x0 entries must be real numbers, got '1.0'$"),
    ("x0", [True, False], "^x0 entries must be real numbers, got True$"),
    ("w_p1", np.ones((10, 1), dtype=bool), "^w_p1 entries must be real numbers, got np.True_$"),
    ("x0", [object(), 1.0], "^x0 is not a numeric array: "),
], ids=["dict", "str", "str_x0", "numeric_strings", "bools", "bool_array", "object"])
def test_non_numeric_signal_is_refused_by_name(plant, controller, signal, value, message):
    """A value that is not an array of real numbers is a ValueError naming
    the argument, not numpy's own error or a silent conversion."""
    with pytest.raises(ValueError, match=message):
        run_closed_loop(plant, controller, _plain_cfg(10), **{signal: value})


def test_w_u_rejected_outside_plaintext(plant, controller, scheme, sim_poly):
    cfg = SimulationConfig(mode=ENCRYPTED, steps=20, T_BS=scheme.L)
    with pytest.raises(ValueError, match="PLAINTEXT_REFERENCE"):
        run_closed_loop(plant, controller, cfg, scheme=scheme, poly=sim_poly,
                        w_u=np.zeros((20, controller.nc)))


# --------------------------------------------------------------------------
# encrypted mode


X0 = np.array([2.0, -1.5])  # a nonzero plant start for the demo plant (n = 2)
W2_AND_X0 = pytest.mark.parametrize(
    "with_w2, x0", [(False, None), (True, None), (False, X0), (True, X0)],
    ids=["w_p2_absent", "w_p2_random", "w_p2_absent-x0", "w_p2_random-x0"])


def _controller_noise(with_w2, rng, steps, controller):
    """(controller, w_p2): w_p2 absent, or 0.1 * standard normal through a
    nonzero F2 (the demo F2 is zero), so the F2 and B2 columns both act."""
    if not with_w2:
        return controller, None
    return (replace(controller, F2=0.5 * np.ones_like(controller.F2)),
            0.1 * rng.standard_normal((steps, controller.m_w2)))


@W2_AND_X0
def test_encrypted_replay_through_ideal_model(plant, controller, scheme,
                                              sim_poly, with_w2, x0):
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
                          poly=sim_poly, w_p1=w1, w_p2=w2, x0=x0)
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
                             w_p2=w2, w_u=wu, x0=x0)
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


def test_encrypted_run_refuses_a_poly_below_the_wrap_count(plant, controller, scheme,
                                                           monkeypatch):
    """The demo scheme (hamming_weight 4, epsilon 0.5) needs K = 2
    (required_offset_range); a K = 1 poly is refused by name before any
    encryption, not by an ASSUMPTION_VIOLATION partway through the run."""
    assert cs.required_offset_range(scheme, 0.5) == 2
    poly = fit(BootstrapSpec(q=1.0, epsilon=0.5, K=1, d=13)).rescaled(float(scheme.q0))
    encrypted, encrypt = [], cs.encrypt
    monkeypatch.setattr(cs, "encrypt",
                        lambda *a, **kw: encrypted.append(a) or encrypt(*a, **kw))
    with pytest.raises(ValueError, match=r"^poly covers wrap counts up to K = 1, "
                       r"but the scheme needs K >= 2 \("):
        run_closed_loop(plant, controller,
                        SimulationConfig(mode=ENCRYPTED, steps=300, T_BS=scheme.L),
                        scheme=scheme, poly=poly,
                        w_p1=np.random.default_rng(1).standard_normal((300, plant.m_w1)))
    assert not encrypted


def test_scheme_failure_names_its_step(plant, controller, scheme, sim_poly):
    """At level 0 the output u has scale c^2, so the budget caps |u| at
    q0 / (2 c^2) = 512: with w_p1 = 1000 at every step ten steps pass and
    the output matvec of step 10 overflows.  The error keeps its type and
    says at which step it happened."""
    assert scheme.q0 / (2 * scheme.c ** 2) == 512
    cfg = SimulationConfig(mode=ENCRYPTED, steps=10, T_BS=scheme.L)
    w = np.full((11, plant.m_w1), 1000.0)
    run_closed_loop(plant, controller, cfg, scheme=scheme, poly=sim_poly, w_p1=w[:10])
    with pytest.raises(cs.CiphertextOverflowError,
                       match=r"^OVERFLOW: at step 10: payload 2\.958e\+12 \+ noise "
                             r"1\.432e\+08 exceeds q/2 = 2\.199e\+12 at level 0$"):
        run_closed_loop(plant, controller, replace(cfg, steps=11), scheme=scheme,
                        poly=sim_poly, w_p1=w)


def test_ledger_violation_is_a_scheme_error_that_names_its_step(
        plant, controller, scheme, monkeypatch):
    """A rescale that reports a noise bound of 0 makes the first ledger
    check after it fail: LedgerViolationError, a SchemeError, with the
    step in front of its message."""
    rescale = cs.rescale
    monkeypatch.setattr(cs, "rescale",
                        lambda *a: replace(rescale(*a), noise_bound=0.0))
    with pytest.raises(cs.LedgerViolationError,
                       match=r"^LEDGER_VIOLATION: at step 0: noise ledger violated: "
                             r"error \S+ > bound 0\.0$"):
        run_closed_loop(plant, controller,
                        SimulationConfig(mode=RESET, steps=20, T_BS=5), scheme=scheme,
                        w_p1=np.random.default_rng(0).standard_normal((20, plant.m_w1)))


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


def _pinned_runs(plant, controller, scheme, sim_poly):
    """Three short seeded runs: ENCRYPTED with w_p2 at T_BS=5, RESET, FIR N=3."""
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
    return [_run_digest(res) for res in (enc, rst, fir)]


def test_encrypted_loop_is_pinned_bitwise(plant, controller, scheme, sim_poly,
                                          monkeypatch):
    """The three runs of _pinned_runs reproduce recorded trajectories and
    refresh events bit for bit, so a kernel rewrite cannot move a
    ciphertext, a noise bound or a debug value unnoticed.  The pins are
    the digests of the same runs on the full-body reference kernels of
    test_crypto_sim patched into the simulator, and that run is repeated
    here."""
    pins = ["a11a6a1eae9c390d03e9dcebc2961d5bb7336333c04d1f7443d1af970eb021d8",
            "9ac634f0fc047aea9f23c385119b8f13f0570b84aefdd437713101601588c46c",
            "432e734f4ec4ca48bc32f9cad6628076e227bf1c36ad3b7f0feb49ea27c6ea70"]
    with monkeypatch.context() as patch:
        for name, kernel in (("encrypt", _ref_encrypt), ("decrypt_raw", _ref_decrypt_raw),
                             ("encode_matrix", lambda params, M: M),
                             ("matvec", _matvec_per_entry), ("rescale", _ref_rescale),
                             ("bootstrap_emulated", _ref_bootstrap)):
            patch.setattr(simulator.cs, name, kernel)
        assert _pinned_runs(plant, controller, scheme, sim_poly) == pins
    assert _pinned_runs(plant, controller, scheme, sim_poly) == pins


@pytest.mark.parametrize("m_w1", [1, 2, 3])
def test_disturbance_products_match_the_per_step_form(scheme, make_random_system,
                                                      m_w1):
    """The loop forms F1 w1(t), D1 w1(t) and B1 w1(t) for all steps up
    front; its logs satisfy the per-step plant equations with F1 @ w1[t],
    D1 @ w1[t] and B1 @ w1[t] bit for bit, on random systems."""
    rng = np.random.default_rng(40 + m_w1)
    for trial in range(6):
        plant, controller = make_random_system(rng, m_w1=m_w1)
        steps = 30
        w1 = rng.standard_normal((steps, m_w1))
        res = run_closed_loop(plant, controller,
                              SimulationConfig(mode=RESET, steps=steps, T_BS=5,
                                               seed=trial),
                              scheme=replace(scheme, L=5), w_p1=w1)
        x, u = res.x_plant, res.u
        for t in range(steps):
            assert np.array_equal(res.y[t], plant.C @ x[t] + plant.F1 @ w1[t])
            assert np.array_equal(res.z_p[t], plant.C1 @ x[t] + plant.D1 @ w1[t]
                                  + plant.E @ u[t])
            assert np.array_equal(x[t + 1], plant.A @ x[t] + plant.B @ u[t]
                                  + plant.B1 @ w1[t])


def _assert_per_step_plant_form(res, plant, w1):
    """y, z_p and the plant state of a run satisfy the per-step plant
    equations bit for bit."""
    x, u = res.x_plant, res.u
    for t in range(len(u)):
        assert np.array_equal(res.y[t], plant.C @ x[t] + plant.F1 @ w1[t])
        assert np.array_equal(res.z_p[t], plant.C1 @ x[t] + plant.D1 @ w1[t]
                              + plant.E @ u[t])
        assert np.array_equal(x[t + 1], plant.A @ x[t] + plant.B @ u[t]
                              + plant.B1 @ w1[t])


def test_fir_outputs_match_the_per_step_form(scheme, make_random_system):
    """z_p, formed after the loop, equals C1 x(t) + D1 w1(t) + E u(t) per
    step bit for bit in FIR mode, on random plants with random FIR
    controllers."""
    rng = np.random.default_rng(50)
    for trial in range(6):
        plant, _ = make_random_system(rng)
        N = int(rng.integers(1, 5))
        ctrl = make_fir_controller(N, 0.45, 0.3 * rng.standard_normal(
            (plant.m_u, plant.p_y)), p_y=plant.p_y)
        steps = 30
        w1 = rng.standard_normal((steps, plant.m_w1))
        res = run_closed_loop(plant, ctrl,
                              SimulationConfig(mode=FIR, steps=steps, fir_length=N,
                                               seed=trial),
                              scheme=scheme, w_p1=w1)
        _assert_per_step_plant_form(res, plant, w1)


@pytest.mark.parametrize("mode", [ENCRYPTED, RESET])
def test_state_log_holds_each_steps_plaintexts(plant, controller, scheme, sim_poly,
                                               monkeypatch, mode):
    """The x_c log, filled after the loop, starts at zero and then holds
    the debug plaintexts of each step's rescaled state in step order; the
    run's z_p matches the per-step form bit for bit (ENCRYPTED on the demo
    loop with T_BS=5, so three refreshes happen in 20 steps)."""
    rescaled = []
    real = cs.rescale

    def spy(params, ct):
        out = real(params, ct)
        rescaled.append(out.debug_plaintext)
        return out

    monkeypatch.setattr(cs, "rescale", spy)
    steps = 20
    w1 = np.random.default_rng(60).standard_normal((steps, plant.m_w1))
    res = run_closed_loop(plant, controller,
                          SimulationConfig(mode=mode, steps=steps, T_BS=5, seed=4),
                          scheme=replace(scheme, L=5),
                          poly=sim_poly if mode == ENCRYPTED else None, w_p1=w1)
    assert len(res.events) == (3 * controller.nc if mode == ENCRYPTED else 0)
    assert res.x_c.shape == (steps + 1, controller.nc)
    assert not res.x_c[0].any()
    assert np.array_equal(res.x_c[1:].ravel(), rescaled)
    _assert_per_step_plant_form(res, plant, w1)


@pytest.mark.parametrize("mode, encodings", [(ENCRYPTED, 2), (RESET, 2), (FIR, 1)])
def test_controller_matrices_are_encoded_once_per_run(plant, controller, scheme,
                                                      sim_poly, monkeypatch, mode,
                                                      encodings):
    """The output rows and, outside FIR, the state rows are encoded once per
    run, however many steps it takes: matvec never re-encodes them."""
    calls = []
    real = cs.encode_matrix

    def spy(params, M):
        calls.append(M)
        return real(params, M)

    monkeypatch.setattr(cs, "encode_matrix", spy)
    for steps in (3, 12):
        calls.clear()
        if mode == FIR:
            run_closed_loop(plant, make_fir_controller(3, 0.4, [[-0.3]]),
                            SimulationConfig(mode=FIR, steps=steps, fir_length=3),
                            scheme=scheme)
        else:
            run_closed_loop(plant, controller,
                            SimulationConfig(mode=mode, steps=steps, T_BS=5),
                            scheme=replace(scheme, L=5), poly=sim_poly)
        assert len(calls) == encodings


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


def _plaintext_reset_recursion(plant, controller, w1, T_reset, w2=None,
                               x0=None):
    """Reference recursion: u from the pre-reset state, reset before the
    state update, exactly as the encrypted loop schedules it."""
    steps = w1.shape[0]
    if w2 is None:
        w2 = np.zeros((steps, controller.m_w2))
    x = np.zeros(plant.n) if x0 is None else np.array(x0, dtype=float)
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


@W2_AND_X0
def test_encrypted_reset_tracks_plaintext(plant, controller, scheme, with_w2,
                                          x0):
    steps, T_reset = 200, 10
    rng = np.random.default_rng(6)
    w1 = rng.standard_normal((steps, plant.m_w1))
    controller, w2 = _controller_noise(with_w2, rng, steps, controller)
    cfg = SimulationConfig(mode=RESET, steps=steps, T_BS=T_reset)
    res = run_closed_loop(plant, controller, cfg, scheme=scheme, w_p1=w1,
                          w_p2=w2, x0=x0)
    assert res.events == [] and res.violations == 0

    xc_log, u_log = _plaintext_reset_recursion(plant, controller, w1,
                                               T_reset, w2, x0)
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


@pytest.mark.parametrize("x0", [None, X0], ids=["x0_zero", "x0"])
def test_fir_encrypted_tracks_exact_recursion(plant, scheme, x0):
    N, lam = 6, 0.4
    ctrl = make_fir_controller(N, lam, [[-0.3]])
    steps = 200
    rng = np.random.default_rng(8)
    w1 = rng.standard_normal((steps, plant.m_w1))
    cfg = SimulationConfig(mode=FIR, steps=steps, fir_length=N)
    enc = run_closed_loop(plant, ctrl, cfg, scheme=scheme, w_p1=w1, x0=x0)
    ref = run_closed_loop(plant, ctrl, _plain_cfg(steps, fir_length=N),
                          w_p1=w1, x0=x0)
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


@pytest.mark.parametrize("n_random", [0, 2])
def test_gain_study_is_its_seeded_runs(plant, controller, scheme, sim_poly,
                                       n_random):
    """Random trial k is the run at seed base_seed + 1000 + k on the k-th
    draw of default_rng(base_seed); the last, aligned trial is the run at
    seed base_seed + 999_983 on the aligned disturbance scaled to energy
    steps / 4.  Every GainStudy field equals theirs bitwise."""
    steps, base_seed = 120, 4
    cfg = SimulationConfig(mode=ENCRYPTED, steps=steps, T_BS=scheme.L)
    study = estimate_empirical_gain(plant, controller, cfg, scheme=scheme,
                                    poly=sim_poly, n_random=n_random,
                                    base_seed=base_seed)

    rng = np.random.default_rng(base_seed)
    trials = [(base_seed + 1000 + k, rng.standard_normal((steps, plant.m_w1)))
              for k in range(n_random)]
    w = aligned_disturbance(interconnect(plant, controller), steps,
                            columns=range(plant.m_w1), seed=base_seed)
    trials.append((base_seed + 999_983, np.sqrt(steps / 4) * w[:, :plant.m_w1]))
    runs = [run_closed_loop(plant, controller, replace(cfg, seed=seed),
                            scheme=scheme, poly=sim_poly, w_p1=w1)
            for seed, w1 in trials]
    assert study.trial_gains == [res.empirical_gain for res in runs[:-1]]
    assert study.aligned_gain == runs[-1].empirical_gain
    assert study.max_gain == max(res.empirical_gain for res in runs)
    assert study.total_violations == sum(res.violations for res in runs)
    assert study.total_events == sum(len(res.events) for res in runs) > 0
    assert study.max_fidelity_ratio == max(res.max_fidelity_ratio
                                           for res in runs)


@pytest.mark.parametrize("name, bad", [
    ("n_random", -1), ("n_random", True), ("n_random", 2.5),
    ("base_seed", -1), ("base_seed", 1.5), ("base_seed", None),
])
def test_gain_study_rejects_bad_counts(plant, controller, scheme, sim_poly,
                                       monkeypatch, name, bad):
    """n_random = -1 used to run no trial, True one trial, 2.5 a bare
    TypeError; a float or negative base_seed failed inside numpy.  Each is
    a ValueError naming the argument, before any run."""
    monkeypatch.setattr(simulator, "run_closed_loop", None)
    cfg = SimulationConfig(mode=ENCRYPTED, steps=30, T_BS=scheme.L)
    with pytest.raises(ValueError, match=f"^{name} must be (an integer|at least 0)"):
        estimate_empirical_gain(plant, controller, cfg, scheme=scheme,
                                poly=sim_poly, **{name: bad})


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


@pytest.mark.parametrize("kwargs, match", [
    (dict(columns=[0, 0]), "columns"), (dict(columns=[0.7]), "columns"),
    (dict(columns=[-1]), "columns"), (dict(columns=[7]), "columns"),
    (dict(columns=[]), "columns"), (dict(steps=0), "steps"),
    (dict(iterations=-3), "^iterations must be at least 0"),
    (dict(iterations=2.5), "^iterations must be an integer"),
    (dict(seed=-1), "^seed must be at least 0"),
    (dict(seed=1.5), "^seed must be an integer"),
], ids=["duplicate", "float", "negative", "out_of_range", "empty",
        "no_steps", "negative_iterations", "float_iterations",
        "negative_seed", "float_seed"])
def test_aligned_disturbance_rejects_bad_input(plant, controller, kwargs,
                                               match):
    """iterations = -3 used to return the start vector, and a float or
    negative seed failed inside numpy without naming it."""
    cl = interconnect(plant, controller)
    with pytest.raises(ValueError, match=match):
        aligned_disturbance(cl, **{"steps": 30, "columns": [0], **kwargs})


@pytest.mark.parametrize("steps", [8.0, 2.5, True, "8", None])
def test_aligned_disturbance_rejects_a_non_integer_step_count(plant, controller,
                                                              steps):
    """8.0 and True used to fail as a bare TypeError; a numpy integer
    gives the same disturbance as a Python one."""
    cl = interconnect(plant, controller)
    with pytest.raises(ValueError, match="^steps must be an integer"):
        aligned_disturbance(cl, steps)
    assert np.array_equal(aligned_disturbance(cl, np.int64(8)),
                          aligned_disturbance(cl, 8))


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
    with pytest.raises(ValueError, match="^seed must be at least 0, got -1$"):
        SimulationConfig(mode=ENCRYPTED, steps=10, seed=-1)


@pytest.mark.parametrize("field", ["steps", "T_BS", "fir_length", "seed"])
@pytest.mark.parametrize("bad", [2.5, 5.0, True, "5", None])
def test_config_rejects_non_integer_counts(field, bad):
    """A bool, float or other non-integer count is a ValueError naming it
    (RESET with T_BS = 2.5 used to reset every 5 steps), in every mode;
    numpy integers are accepted."""
    for mode in (RESET, FIR):
        kwargs = dict(steps=10, T_BS=5, fir_length=3, seed=0)
        kwargs[field] = bad
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            SimulationConfig(mode=mode, **kwargs)
    cfg = SimulationConfig(mode=RESET, **{**dict(steps=10, T_BS=5, seed=0),
                                          field: np.int64(3)})
    assert getattr(cfg, field) == 3


@pytest.mark.parametrize("mode", [PLAINTEXT_REFERENCE, ENCRYPTED, RESET, FIR])
@pytest.mark.parametrize("signal", ["w_p1", "w_p2", "x0"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "-inf"])
def test_non_finite_signal_is_rejected_by_name(plant, controller, scheme,
                                               sim_poly, mode, signal, bad):
    """A NaN or inf in a disturbance or in x0 is a ValueError naming the
    signal in every mode, before any warning or encryption."""
    steps = 12
    if mode == FIR:
        ctrl = make_fir_controller(3, 0.4, [[-0.3]])
        cfg = SimulationConfig(mode=FIR, steps=steps, fir_length=3)
    else:
        ctrl = controller
        cfg = SimulationConfig(mode=mode, steps=steps, T_BS=scheme.L)
    kwargs = dict(w_p1=np.ones((steps, plant.m_w1)),
                  w_p2=np.zeros((steps, ctrl.m_w2)), x0=np.ones(plant.n))
    kwargs[signal][-1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"{signal} has non-finite"):
            run_closed_loop(plant, ctrl, cfg, scheme=scheme, poly=sim_poly,
                            **kwargs)


@pytest.mark.parametrize("mode", [PLAINTEXT_REFERENCE, ENCRYPTED, RESET, FIR])
def test_incompatible_pair_is_refused_in_every_mode(plant, controller, scheme,
                                                    sim_poly, mode):
    """A controller that expects 2 measurements from a plant that gives 1
    is refused by interconnect in every mode, not by a matvec shape error."""
    wide = replace(controller, Bc=np.hstack([controller.Bc] * 2),
                   Dc=np.hstack([controller.Dc] * 2))
    cfg = SimulationConfig(mode=mode, steps=12, T_BS=scheme.L,
                           fir_length=3 if mode == FIR else 0)
    with pytest.raises(ValueError, match="incompatible dimensions"):
        run_closed_loop(plant, wide, cfg, scheme=scheme, poly=sim_poly)


def test_non_finite_w_u_is_rejected(plant, controller):
    w_u = np.zeros((10, controller.nc))
    w_u[3, 0] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="w_u has non-finite"):
            run_closed_loop(plant, controller, _plain_cfg(10), w_u=w_u)


def test_static_controller_runs_in_plaintext_reference(plant):
    """A static controller (nc = 0) has a zero-width w_u; its plaintext run
    is the hand recursion u = Dc y + F2 w_p2 with an empty controller state."""
    static = Controller(Ac=np.zeros((0, 0)), Bc=np.zeros((0, 1)),
                        B2=np.zeros((0, 1)), Cc=np.zeros((1, 0)),
                        Dc=[[-0.1]], F2=[[0.2]])
    steps = 12
    rng = np.random.default_rng(3)
    w1 = rng.standard_normal((steps, plant.m_w1))
    w2 = rng.standard_normal((steps, 1))
    res = run_closed_loop(plant, static, _plain_cfg(steps), w_p1=w1, w_p2=w2)
    assert res.x_c.shape == (steps + 1, 0)
    x = np.zeros(plant.n)
    for t in range(steps):
        y = plant.C @ x + plant.F1 @ w1[t]
        u = static.Dc @ y + static.F2 @ w2[t]
        np.testing.assert_allclose(res.z_p[t], plant.C1 @ x + plant.E @ u + plant.D1 @ w1[t],
                                   rtol=1e-12, atol=1e-12)
        x = plant.A @ x + plant.B @ u + plant.B1 @ w1[t]
    np.testing.assert_allclose(res.x_plant[-1], x, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("mode", [ENCRYPTED, RESET])
def test_static_controller_is_refused_in_encrypted_modes(plant, scheme, sim_poly,
                                                         mode):
    """A static controller (nc = 0) has no state to encrypt: ENCRYPTED and
    RESET refuse it by name instead of failing inside the step loop."""
    static = Controller(Ac=np.zeros((0, 0)), Bc=np.zeros((0, 1)),
                        B2=np.zeros((0, 1)), Cc=np.zeros((1, 0)),
                        Dc=[[0.1]], F2=[[0.0]])
    cfg = SimulationConfig(mode=mode, steps=12, T_BS=scheme.L)
    with pytest.raises(ValueError, match=f"{mode} mode .* nc >= 1.*static \\(nc = 0\\)"):
        run_closed_loop(plant, static, cfg, scheme=scheme, poly=sim_poly)
