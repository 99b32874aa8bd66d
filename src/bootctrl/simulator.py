"""Closed-loop simulation of the encrypted controller.

Four modes:

* ENCRYPTED: the controller state x_c lives in ciphertexts at level L, one
  rescale per step, and every T_BS steps it is refreshed through the
  fitted polynomial (this is the loop the lifted LMI test certifies).
* RESET: instead of refreshing, x_c is re-encrypted as zero every T_BS
  steps (slope-1 sector, lifted test).
* FIR: a delay-line controller whose state is the window of the last N
  measurement encryptions [y(t-1); ...; y(t-N)] at level 1, so levels never
  deplete and no refresh is needed (slope-1 sector, direct test).
  S = [Bc, Ac Bc, ..., Ac^(N-1) Bc] maps the window to the certified FIR
  state x_c(t); any controller that analysis.fir_closed_loop accepts runs
  (w_p2 only through F2: B2 must be zero when w_p2 is given).
* PLAINTEXT_REFERENCE: the certified ClosedLoop itself, run through
  statespace.simulate (not a separate recursion).  An optional w_u
  schedule replays refresh or reset errors; with fir_length set it is the
  rewired FIR loop of analysis.fir_closed_loop closed with w_u = -z_u,
  i.e. the exact N-tap window.

The three encrypted modes run one loop over a state that is a list of
ciphertexts, read through [Cc | Dc | F2] (FIR: [Cc S | Dc | F2]); each
matrix is encoded once per run.  Step t, in the certified order:

1. y(t) in the clear, and [y(t); w_p2(t)] encrypted at the state's level
   (w_p2 only when given);
2. u(t) from one matvec of the pre-refresh state and those inputs,
   decrypted by the ledger check;
3. the state update: FIR shifts y(t) into the window.  ENCRYPTED and RESET
   first refresh or reset x_c when t > 0 and t % T_BS == 0 (re-encrypting
   the inputs at the new level), then take one matvec by [Ac Bc B2] and a
   rescale;
4. the plant state advances.

This realizes x_c(t+1) = Ac (x_c(t) + w_u(t)) + Bc y(t) with w_u the
refresh error.  No step reads z_p or the x_c log, so both are formed in
the clear after the loop: z_p(t) = C1 x(t) + D1 w1(t) + E u(t) from the
plant and control logs, and x_c from each step's state plaintexts.

aligned_disturbance takes the nominal loop's exact impulse response from
statespace.simulate (one run per disturbance column) and then runs its
power iteration as FFT convolutions, so statespace.simulate stays the
only real-valued recursion.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import crypto_sim as cs
from .analysis import fir_closed_loop
from .bootpoly import BootstrapPolynomial
from .statespace import (ClosedLoop, Controller, Plant, check_count, check_signal,
                         interconnect, simulate)

__all__ = [
    "ENCRYPTED",
    "RESET",
    "FIR",
    "PLAINTEXT_REFERENCE",
    "SimulationConfig",
    "SimulationResult",
    "GainStudy",
    "run_closed_loop",
    "aligned_disturbance",
    "estimate_empirical_gain",
]

ENCRYPTED = "ENCRYPTED"
RESET = "RESET"
FIR = "FIR"
PLAINTEXT_REFERENCE = "PLAINTEXT_REFERENCE"
_MODES = (ENCRYPTED, RESET, FIR, PLAINTEXT_REFERENCE)


@dataclass(frozen=True)
class SimulationConfig:
    mode: str = ENCRYPTED
    steps: int = 1000
    T_BS: int = 10
    fir_length: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        for name, low in (("steps", 1),
                          ("T_BS", 1 if self.mode in (ENCRYPTED, RESET) else None),
                          ("fir_length", 1 if self.mode == FIR else None),
                          ("seed", 0)):
            check_count(getattr(self, name), name, low)


@dataclass
class SimulationResult:
    mode: str
    w_p: np.ndarray
    z_p: np.ndarray
    u: np.ndarray
    y: np.ndarray
    x_plant: np.ndarray
    x_c: np.ndarray
    empirical_gain: float
    events: list = field(default_factory=list)
    violations: int = 0
    max_fidelity_ratio: float = 0.0

    def summary(self) -> str:
        return (
            f"{self.mode}: {self.z_p.shape[0]} steps, empirical gain "
            f"{self.empirical_gain:.4f}, refreshes {len(self.events)}, "
            f"violations {self.violations}, "
            f"worst noise-ledger usage {self.max_fidelity_ratio:.3f}"
        )


def _empirical_gain(z_p, w_p):
    num = float(np.sum(z_p ** 2))
    den = float(np.sum(w_p ** 2))
    if den == 0.0:
        return 0.0
    return np.sqrt(num / den)


def run_closed_loop(plant: Plant, controller: Controller,
                    config: SimulationConfig, scheme: cs.SchemeParams | None = None,
                    poly: BootstrapPolynomial | None = None,
                    w_p1=None, w_p2=None, w_u=None, x0=None) -> SimulationResult:
    """Simulate the loop for config.steps steps from x = x_c = 0 (default).

    w_p1 (plant disturbance) and w_p2 (controller-side disturbance) are
    (steps, width) arrays; omitted signals are zero.  In encrypted modes
    the plant and sensor/actuator work in the clear while the controller
    state is encrypted per component.

    w_u is accepted only in PLAINTEXT_REFERENCE mode: a (steps, nc)
    schedule injected as x_c(t+1) = Ac (x_c(t) + w_u(t)) + Bc y(t), which
    lets tests replay recorded refresh errors through the ideal model.

    An ENCRYPTED run refuses, before it encrypts anything, a poly whose
    wrap count K is below crypto_sim.required_offset_range of the scheme.
    A scheme failure in any step, a failed ledger check
    (cs.LedgerViolationError) included, is re-raised as its own
    SchemeError type with "at step t: " in front of its message.
    """
    cl = interconnect(plant, controller)  # refuses an incompatible pair
    steps = config.steps
    n, nc = plant.n, controller.nc
    p_y, m_u = plant.p_y, controller.m_u
    w1 = check_signal(w_p1, (steps, plant.m_w1), "w_p1")
    w2 = check_signal(w_p2, (steps, controller.m_w2), "w_p2")

    if config.mode != PLAINTEXT_REFERENCE and (
            scheme is None or config.mode == ENCRYPTED and poly is None):
        needs = "scheme and poly" if config.mode == ENCRYPTED else "scheme"
        raise ValueError(f"{config.mode} mode needs {needs}")
    if config.mode in (ENCRYPTED, RESET) and nc == 0:
        raise ValueError(f"{config.mode} mode encrypts the controller state, "
                         f"so it needs nc >= 1; this controller is static (nc = 0)")
    if config.mode == ENCRYPTED:
        if scheme.L != config.T_BS:
            raise ValueError(
                f"one rescale per step requires scheme.L == T_BS "
                f"(got L={scheme.L}, T_BS={config.T_BS})"
            )
        if abs(poly.spec.q - scheme.q0) > 1e-9 * scheme.q0:
            raise ValueError("poly must be rescaled to the scheme base modulus q0")
        K = cs.required_offset_range(scheme, poly.spec.epsilon)
        if poly.spec.K < K:
            raise ValueError(f"poly covers wrap counts up to K = {poly.spec.K}, but the "
                             f"scheme needs K >= {K} (crypto_sim.required_offset_range)")
    if config.mode == RESET and config.T_BS > scheme.L:
        raise ValueError(f"reset period {config.T_BS} exceeds available levels {scheme.L}")
    if config.mode == FIR:
        fir_closed_loop(plant, controller, config.fir_length)  # validates

    x = check_signal(x0, (n,), "x0")
    w_p = np.hstack([w1, w2])
    if w_u is not None and config.mode != PLAINTEXT_REFERENCE:
        raise ValueError("w_u injection is only meaningful in PLAINTEXT_REFERENCE mode")

    if config.mode == PLAINTEXT_REFERENCE:
        if config.fir_length:
            # exact FIR: the certified rewired loop closed with w_u = -z_u;
            # Bu stays [0; Ac], so a w_u schedule keeps its meaning
            fir = fir_closed_loop(plant, controller, config.fir_length)
            cl = replace(cl, Acl=fir.Acl - fir.Bu @ fir.Cu)
        xi, z_p, _ = simulate(cl, np.concatenate([x, np.zeros(nc)]), w_p, w_u, steps)
        x_log, xc_log = xi[:, :n], xi[:, n:]
        y_log = x_log[:-1] @ plant.C.T + w1 @ plant.F1.T
        u_log = (xc_log[:-1] @ controller.Cc.T + y_log @ controller.Dc.T
                 + w2 @ controller.F2.T)
        return SimulationResult(config.mode, w_p, z_p, u_log, y_log, x_log,
                                xc_log, _empirical_gain(z_p, w_p))

    u_log = np.zeros((steps, m_u))
    y_log = np.zeros((steps, p_y))
    x_log = np.zeros((steps + 1, n))
    x_log[0] = x
    events, violations, max_fid = [], 0, 0.0
    # F1 w1(t), D1 w1(t) and B1 w1(t) for every step: a stacked matmul runs
    # the per-step F1 @ w1[t] kernel row by row (w1 @ F1.T can round apart)
    F1w, D1w, B1w = (np.matmul(G, w1[:, :, None])[..., 0]
                     for G in (plant.F1, plant.D1, plant.B1))

    keys = cs.keygen(scheme)
    # Re-seed the encryption stream so different trials draw different
    # randomness while the secret key stays tied to the scheme seed.
    keys.rng.seed((scheme.seed + 1) * 1_000_003 + config.seed)

    def encrypt_all(values, level):
        return [cs.encrypt(keys, float(v), level=level) for v in values]

    def check(cts):
        """Ledger check of the ciphertexts the loop keeps or decrypts.

        Every state ciphertext is checked when it is made, and so is u.  The
        inputs [y; w_p2] are checked only in FIR mode, where they stay in
        the window.  The stateful modes use each fresh input in one step and
        check what it feeds (u and the next x_c), so their
        max_fidelity_ratio covers the state and u.
        Returns the decoded values (cs.decrypt's), taken from the phase the
        check computes, so control outputs are not decrypted a second time.
        """
        nonlocal max_fid
        decoded = []
        for ct in cts:
            # cs.fidelity_error and cs.decrypt on one phase
            phase = cs.decrypt_raw(keys, ct)
            scale = float(scheme.c) ** ct.scale_exponent
            err = abs(phase - scale * ct.debug_plaintext)
            if ct.noise_bound > 0:
                max_fid = max(max_fid, err / ct.noise_bound)
            if err > ct.noise_bound:
                raise cs.LedgerViolationError(
                    f"noise ledger violated: error {err} > bound {ct.noise_bound}"
                )
            decoded.append(phase / scale)
        return decoded

    # The w_p2 columns enter only when w_p2 is given: encrypting zeros would
    # draw encryption randomness and change every seeded run.
    k = 0 if w_p2 is None else controller.m_w2
    Ac, Bc, Cc = controller.Ac, controller.Bc, controller.Cc
    if config.mode == FIR:
        if k and np.any(controller.B2):
            raise ValueError("FIR mode cannot carry B2 w_p2: B2 must be zero")
        N = config.fir_length
        taps = [Bc]  # window map S = [Bc, Ac Bc, ..., Ac^(N-1) Bc]
        for _ in range(N - 1):
            taps.append(Ac @ taps[-1])
        S = np.hstack(taps)
        out_rows = cs.encode_matrix(scheme, np.hstack([Cc @ S, controller.Dc,
                                                       controller.F2[:, :k]]))
        state = encrypt_all(np.zeros(N * p_y), 1)  # y(t-1) first, y(t-N) last
    else:
        out_rows = cs.encode_matrix(scheme, np.hstack([Cc, controller.Dc,
                                                       controller.F2[:, :k]]))
        state_rows = cs.encode_matrix(scheme, np.hstack([Ac, Bc, controller.B2[:, :k]]))
        state = encrypt_all(np.zeros(nc), scheme.L)
        xc_rows = [np.zeros(nc)]  # x_c(0), then one row per step
    check(state)
    try:
        for t in range(steps):
            y = plant.C @ x + F1w[t]
            inputs = np.concatenate([y, w2[t, :k]]) if k else y
            enc_in = encrypt_all(inputs, state[0].level)
            if config.mode == FIR:
                check(enc_in)
            # control from the pre-refresh state
            u = np.array(check(cs.matvec(scheme, out_rows, state + enc_in)))
            u_log[t], y_log[t] = u, y

            if config.mode == FIR:
                state = enc_in[:p_y] + state[:-p_y]
            else:
                # periodic refresh/reset, after u(t), before the state update
                if t > 0 and t % config.T_BS == 0:
                    if config.mode == RESET:
                        state = encrypt_all(np.zeros(nc), scheme.L)
                    else:
                        for comp, ct in enumerate(state):
                            state[comp], ev = cs.bootstrap_emulated(keys, ct, poly)
                            events.append(replace(ev, step=t))
                            violations += int(ev.violation)
                    check(state)
                    enc_in = encrypt_all(inputs, state[0].level)
                state = [cs.rescale(scheme, ct)
                         for ct in cs.matvec(scheme, state_rows, state + enc_in)]
                check(state)
                xc_rows.append([ct.debug_plaintext for ct in state])

            x = plant.A @ x + plant.B @ u + B1w[t]
            x_log[t + 1] = x
    except cs.SchemeError as exc:  # the step, then the scheme's own message
        raise type(exc)(f"at step {t}: {exc.message}") from exc

    # the per-step form's row-by-row kernel and addition order, bit for bit
    z_p = (np.matmul(plant.C1, x_log[:-1, :, None])[..., 0] + D1w
           + np.matmul(plant.E, u_log[:, :, None])[..., 0])
    if config.mode == FIR:
        # the certified FIR state x_c(t) = S [y(t-1); ...; y(t-N)]
        padded = np.vstack([np.zeros((N, p_y)), y_log])
        xc_log = np.hstack([padded[N - i: N - i + steps + 1]
                            for i in range(1, N + 1)]) @ S.T
    else:
        xc_log = np.array(xc_rows)
    return SimulationResult(config.mode, w_p, z_p, u_log, y_log, x_log, xc_log,
                            _empirical_gain(z_p, w_p), events, violations, max_fid)


def aligned_disturbance(cl: ClosedLoop, steps: int, columns=None,
                        iterations: int = 30, seed: int = 0) -> np.ndarray:
    """Near-worst-case finite-horizon disturbance for the nominal loop.

    Power iteration on L*L, where L maps the disturbance sequence to the
    performance output sequence of the nominal (w_u = 0) loop from zero
    initial state.  L is a causal convolution with the impulse response
    H(t) (p_z x len(columns)), taken exactly from one statespace.simulate
    per selected column.  Each pass is then two FFT products of length
    next_pow2(2*steps): z = L w, and g = L* z as H^T convolved with the
    time-reversed z, reversed back.  `columns` restricts the disturbance
    to distinct w_p channels (e.g. the physical ones when the
    controller-side channel is not exercised).
    """
    cols = list(range(cl.m_wp)) if columns is None else list(columns)
    if not cols or not all(isinstance(c, (int, np.integer)) and 0 <= c < cl.m_wp
                           for c in cols) or len(set(cols)) < len(cols):
        raise ValueError(f"columns must be distinct integers in 0..{cl.m_wp - 1}, "
                         f"got {columns!r}")
    steps = check_count(steps, "steps", 1)
    iterations = check_count(iterations, "iterations", 0)
    rng = np.random.default_rng(check_count(seed, "seed", 0))
    H = np.empty((steps, cl.p_z, len(cols)))
    for j, col in enumerate(cols):
        pulse = np.zeros((steps, cl.m_wp))
        pulse[0, col] = 1.0
        H[:, :, j] = simulate(cl, np.zeros(cl.n_xi), pulse, None, steps)[1]
    nfft = 1 << (2 * steps - 1).bit_length()
    Hf = np.fft.rfft(H, nfft, axis=0)
    w = rng.standard_normal((steps, len(cols)))
    w /= np.linalg.norm(w)
    gain_prev = 0.0
    for _ in range(iterations):
        zf = np.einsum("fij,fj->fi", Hf, np.fft.rfft(w, nfft, axis=0))
        z = np.fft.irfft(zf, nfft, axis=0)[:steps]  # z = L w
        gf = np.einsum("fij,fi->fj", Hf, np.fft.rfft(z[::-1], nfft, axis=0))
        g = np.fft.irfft(gf, nfft, axis=0)[steps - 1::-1]  # g = L* z
        norm = np.linalg.norm(g)
        if norm == 0:
            break
        gain = np.linalg.norm(z)  # since ||w|| = 1
        if abs(gain - gain_prev) < 1e-10 * max(1.0, gain):
            w = g / norm
            break
        gain_prev = gain
        w = g / norm
    out = np.zeros((steps, cl.m_wp))
    out[:, cols] = w
    return out


@dataclass
class GainStudy:
    trial_gains: list
    aligned_gain: float
    total_violations: int
    total_events: int
    max_fidelity_ratio: float

    @property
    def max_gain(self):
        return max([*self.trial_gains, self.aligned_gain])


def estimate_empirical_gain(plant: Plant, controller: Controller,
                            config: SimulationConfig,
                            scheme: cs.SchemeParams | None = None,
                            poly: BootstrapPolynomial | None = None,
                            n_random: int = 20, base_seed: int = 0) -> GainStudy:
    """Random-excitation trials plus one disturbance aligned with the
    worst nominal finite-horizon direction; returns the observed gains.

    Random trial k draws i.i.d. standard normal physical disturbances from
    one generator seeded with base_seed and runs with seed base_seed + 1000
    + k.  The last trial, with seed base_seed + 999_983, uses power
    iteration on the nominal closed loop restricted to the physical
    disturbance columns.  Each trial's disturbance is made just before its
    run, and only its summary is kept.
    """
    n_random = check_count(n_random, "n_random", 0)
    base_seed = check_count(base_seed, "base_seed", 0)

    def trials():
        rng = np.random.default_rng(base_seed)
        for k in range(n_random):
            yield base_seed + 1000 + k, rng.standard_normal((config.steps, plant.m_w1))
        w = aligned_disturbance(interconnect(plant, controller), config.steps,
                                columns=np.arange(plant.m_w1), seed=base_seed)
        # the unit-energy vector scaled up
        yield base_seed + 999_983, np.sqrt(config.steps / 4.0) * w[:, :plant.m_w1]

    gains, violations, n_events, max_fid = [], 0, 0, 0.0
    for seed, w1 in trials():
        res = run_closed_loop(plant, controller, replace(config, seed=seed),
                              scheme=scheme, poly=poly, w_p1=w1)
        gains.append(res.empirical_gain)
        violations += res.violations
        n_events += len(res.events)
        max_fid = max(max_fid, res.max_fidelity_ratio)
    return GainStudy(trial_gains=gains[:-1], aligned_gain=gains[-1],
                     total_violations=violations, total_events=n_events,
                     max_fidelity_ratio=max_fid)
