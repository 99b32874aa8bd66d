"""Closed-loop simulation of the encrypted controller.

Four modes:

* ENCRYPTED: the controller state lives in ciphertexts, one rescale per
  step, and every T_BS steps the state is refreshed through the fitted
  polynomial (this is the loop the lifted LMI test certifies).  A step is
  the controller's two affine maps of the encrypted stack [x_c; y; w_p2]:
  one matvec by [Cc Dc F2] gives u, one matvec by [Ac Bc B2] followed by
  a rescale gives the next x_c.
* RESET: instead of refreshing, the controller state is re-encrypted as
  zero every T_BS steps (slope-1 sector, lifted test).
* FIR: a delay-line controller evaluated from a window of fresh
  measurement encryptions; no persistent ciphertext state, so levels
  never deplete and no refresh is needed (slope-1 sector, direct test).
  u is one matvec by [Cc S | Dc | F2] of [y(t-1); ...; y(t-N); y(t); w_p2(t)],
  where S = [Bc, Ac Bc, ..., Ac^(N-1) Bc] maps the window to the certified
  FIR state x_c(t) (w_p2 only when given; B2 must then be zero); any
  controller that analysis.fir_closed_loop accepts runs.
* PLAINTEXT_REFERENCE: the certified ClosedLoop itself, run through
  statespace.simulate (not a separate recursion).  An optional w_u
  schedule replays refresh or reset errors; with fir_length set it is the
  rewired FIR loop of analysis.fir_closed_loop closed with w_u = -z_u,
  i.e. the exact N-tap window.

aligned_disturbance takes the nominal loop's exact impulse response from
statespace.simulate (one run per disturbance column) and then runs its
power iteration as FFT convolutions, so statespace.simulate stays the
only real-valued recursion.

Event order inside step t (matching the certified interconnection): the
control u(t) is computed from the pre-refresh controller state, then the
refresh/reset happens, then both states advance.  This realizes
x_c(t+1) = Ac (x_c(t) + w_u(t)) + Bc y(t) with w_u the refresh error.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import crypto_sim as cs
from .analysis import fir_closed_loop
from .bootpoly import BootstrapPolynomial
from .statespace import ClosedLoop, Controller, Plant, interconnect, simulate

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
        if self.steps < 1:
            raise ValueError("steps must be positive")
        if self.mode in (ENCRYPTED, RESET) and self.T_BS < 1:
            raise ValueError("T_BS must be positive")
        if self.mode == FIR and self.fir_length < 1:
            raise ValueError("FIR mode needs fir_length >= 1")


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


def _as_signal(arr, steps, width, name):
    if arr is None:
        return np.zeros((steps, width))
    arr = np.asarray(arr, dtype=float)
    if arr.shape != (steps, width):
        raise ValueError(f"{name} must have shape ({steps}, {width}), got {arr.shape}")
    return arr


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
    """
    steps = config.steps
    n, nc = plant.n, controller.nc
    p_y, m_u = plant.p_y, controller.m_u
    w1 = _as_signal(w_p1, steps, plant.m_w1, "w_p1")
    w2 = _as_signal(w_p2, steps, controller.m_w2, "w_p2")

    if config.mode == ENCRYPTED:
        if scheme is None or poly is None:
            raise ValueError("ENCRYPTED mode needs scheme and poly")
        if scheme.L != config.T_BS:
            raise ValueError(
                f"one rescale per step requires scheme.L == T_BS "
                f"(got L={scheme.L}, T_BS={config.T_BS})"
            )
        if abs(poly.spec.q - scheme.q0) > 1e-9 * scheme.q0:
            raise ValueError("poly must be rescaled to the scheme base modulus q0")
    if config.mode == RESET:
        if scheme is None:
            raise ValueError("RESET mode needs scheme")
        if config.T_BS > scheme.L:
            raise ValueError(
                f"reset period {config.T_BS} exceeds available levels {scheme.L}"
            )
    if config.mode == FIR:
        if scheme is None:
            raise ValueError("FIR mode needs scheme")
        fir_closed_loop(plant, controller, config.fir_length)  # validates

    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"x0 must have plant.n = {n} entries, got shape {x.shape}")
    w_p = np.hstack([w1, w2])
    if w_u is not None and config.mode != PLAINTEXT_REFERENCE:
        raise ValueError("w_u injection is only meaningful in PLAINTEXT_REFERENCE mode")

    if config.mode == PLAINTEXT_REFERENCE:
        cl = interconnect(plant, controller)
        if config.fir_length:
            # exact FIR: the certified rewired loop closed with w_u = -z_u;
            # Bu stays [0; Ac], so a w_u schedule keeps its meaning
            fir = fir_closed_loop(plant, controller, config.fir_length)
            cl = replace(cl, Acl=fir.Acl - fir.Bu @ fir.Cu)
        xi, z_p, _ = simulate(cl, np.concatenate([x, np.zeros(nc)]), w_p,
                              _as_signal(w_u, steps, nc, "w_u"), steps)
        x_log, xc_log = xi[:, :n], xi[:, n:]
        y_log = x_log[:-1] @ plant.C.T + w1 @ plant.F1.T
        u_log = (xc_log[:-1] @ controller.Cc.T + y_log @ controller.Dc.T
                 + w2 @ controller.F2.T)
        return SimulationResult(config.mode, w_p, z_p, u_log, y_log, x_log,
                                xc_log, _empirical_gain(z_p, w_p))

    z_p = np.zeros((steps, plant.p_z))
    u_log = np.zeros((steps, m_u))
    y_log = np.zeros((steps, p_y))
    x_log = np.zeros((steps + 1, n))
    x_log[0] = x

    events = []
    violations = 0
    max_fid = 0.0

    keys = cs.keygen(scheme)
    # Re-seed the encryption stream so different trials draw different
    # randomness while the secret key stays tied to the scheme seed.
    keys.rng.seed((scheme.seed + 1) * 1_000_003 + config.seed)

    def encrypt_all(values, level):
        return [cs.encrypt(keys, float(v), level=level) for v in values]

    def check(cts):
        """Ledger check; each ciphertext is checked once, when it is made.

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
                raise AssertionError(
                    f"noise ledger violated: error {err} > bound {ct.noise_bound}"
                )
            decoded.append(phase / scale)
        return decoded

    if config.mode == FIR:
        N = config.fir_length
        # w_p2 enters u through F2 only, encrypted next to y when given (as
        # in ENCRYPTED mode); the window cannot carry a B2 w_p2 state input
        k = 0 if w_p2 is None else controller.m_w2
        if k and np.any(controller.B2):
            raise ValueError("FIR mode cannot carry B2 w_p2: B2 must be zero")
        # window map S = [Bc, Ac Bc, ..., Ac^(N-1) Bc]: the certified FIR
        # state is x_c(t) = S [y(t-1); ...; y(t-N)]
        taps = [controller.Bc]
        for _ in range(N - 1):
            taps.append(controller.Ac @ taps[-1])
        S = np.hstack(taps)
        # flat window: y(t-1) first, y(t-N) last, p_y ciphertexts each
        window = encrypt_all(np.zeros(N * p_y), 1)
        check(window)
        u_row = np.hstack([controller.Cc @ S, controller.Dc,
                           controller.F2[:, :k]]).tolist()
        for t in range(steps):
            y = plant.C @ x + plant.F1 @ w1[t]
            enc_in = encrypt_all(np.concatenate([y, w2[t, :k]]), 1)
            check(enc_in)
            enc_y = enc_in[:p_y]
            u_cts = cs.matvec(scheme, u_row, window + enc_in)
            u = np.array(check(u_cts))
            z_p[t] = plant.C1 @ x + plant.D1 @ w1[t] + plant.E @ u
            u_log[t], y_log[t] = u, y
            x = plant.A @ x + plant.B @ u + plant.B1 @ w1[t]
            window = enc_y + window[:len(window) - p_y]
            x_log[t + 1] = x
        padded = np.vstack([np.zeros((N, p_y)), y_log])
        xc_log = np.hstack([padded[N - i: N - i + steps + 1]
                            for i in range(1, N + 1)]) @ S.T
        gain = _empirical_gain(z_p, w_p)
        return SimulationResult(config.mode, w_p, z_p, u_log, y_log, x_log,
                                xc_log, gain, events, violations, max_fid)

    # ENCRYPTED / RESET: persistent encrypted controller state.  The w_p2
    # columns enter only when w_p2 is given: encrypting zeros would draw
    # encryption randomness and change every seeded run.
    k = 0 if w_p2 is None else controller.m_w2
    out_rows = np.hstack([controller.Cc, controller.Dc,
                          controller.F2[:, :k]]).tolist()
    state_rows = np.hstack([controller.Ac, controller.Bc,
                            controller.B2[:, :k]]).tolist()
    w_enc = w2[:, :k]
    top = scheme.L
    xc_log = np.zeros((steps + 1, nc))
    x_c = encrypt_all(np.zeros(nc), top)
    check(x_c)
    for t in range(steps):
        y = plant.C @ x + plant.F1 @ w1[t]
        inputs = np.concatenate([y, w_enc[t]])
        enc_in = encrypt_all(inputs, x_c[0].level)

        # control from the pre-refresh state
        u_cts = cs.matvec(scheme, out_rows, x_c + enc_in)
        u = np.array(check(u_cts))
        z_p[t] = plant.C1 @ x + plant.D1 @ w1[t] + plant.E @ u
        u_log[t], y_log[t] = u, y

        # periodic refresh/reset, after u(t), before the state update
        if t > 0 and t % config.T_BS == 0:
            if config.mode == ENCRYPTED:
                refreshed = []
                for comp, ct in enumerate(x_c):
                    try:
                        fresh, ev = cs.bootstrap_emulated(keys, ct, poly)
                    except (cs.RangeViolationError,
                            cs.AssumptionViolationError) as exc:
                        raise type(exc)(
                            f"at step {t}, state component {comp}: {exc.message}"
                        ) from exc
                    events.append(replace(ev, step=t))
                    violations += int(ev.violation)
                    refreshed.append(fresh)
                x_c = refreshed
            else:
                x_c = encrypt_all(np.zeros(nc), top)
            check(x_c)
            enc_in = encrypt_all(inputs, x_c[0].level)

        x_c = [cs.rescale(scheme, ct)
               for ct in cs.matvec(scheme, state_rows, x_c + enc_in)]
        check(x_c)

        x = plant.A @ x + plant.B @ u + plant.B1 @ w1[t]
        x_log[t + 1] = x
        xc_log[t + 1] = np.array([ct.debug_plaintext for ct in x_c])

    gain = _empirical_gain(z_p, w_p)
    return SimulationResult(config.mode, w_p, z_p, u_log, y_log, x_log,
                            xc_log, gain, events, violations, max_fid)


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
    if steps < 1:
        raise ValueError(f"steps must be positive, got {steps}")
    H = np.empty((steps, cl.p_z, len(cols)))
    for j, col in enumerate(cols):
        pulse = np.zeros((steps, cl.m_wp))
        pulse[0, col] = 1.0
        H[:, :, j] = simulate(cl, np.zeros(cl.n_xi), pulse, None, steps)[1]
    nfft = 1 << (2 * steps - 1).bit_length()
    Hf = np.fft.rfft(H, nfft, axis=0)
    rng = np.random.default_rng(seed)
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
        vals = list(self.trial_gains) + [self.aligned_gain]
        return max(vals) if vals else 0.0


def estimate_empirical_gain(plant: Plant, controller: Controller,
                            config: SimulationConfig,
                            scheme: cs.SchemeParams | None = None,
                            poly: BootstrapPolynomial | None = None,
                            n_random: int = 20, base_seed: int = 0,
                            align_iterations: int = 30) -> GainStudy:
    """Random-excitation trials plus one disturbance aligned with the
    worst nominal finite-horizon direction; returns the observed gains.

    Random trials draw i.i.d. standard normal physical disturbances; the
    aligned trial uses power iteration on the nominal closed loop
    restricted to the physical disturbance columns.
    """
    cl = interconnect(plant, controller)
    rng = np.random.default_rng(base_seed)
    gains = []
    violations = 0
    n_events = 0
    max_fid = 0.0
    for k in range(n_random):
        w1 = rng.standard_normal((config.steps, plant.m_w1))
        cfg = replace(config, seed=base_seed + 1000 + k)
        res = run_closed_loop(plant, controller, cfg, scheme=scheme, poly=poly,
                              w_p1=w1)
        gains.append(res.empirical_gain)
        violations += res.violations
        n_events += len(res.events)
        max_fid = max(max_fid, res.max_fidelity_ratio)

    w_aligned = aligned_disturbance(cl, config.steps,
                                    columns=np.arange(plant.m_w1),
                                    iterations=align_iterations,
                                    seed=base_seed)
    scale = np.sqrt(config.steps / 4.0)  # unit-energy vector scaled up
    cfg = replace(config, seed=base_seed + 999_983)
    res_a = run_closed_loop(plant, controller, cfg, scheme=scheme, poly=poly,
                            w_p1=scale * w_aligned[:, : plant.m_w1])
    violations += res_a.violations
    n_events += len(res_a.events)
    max_fid = max(max_fid, res_a.max_fidelity_ratio)
    return GainStudy(
        trial_gains=gains,
        aligned_gain=res_a.empirical_gain,
        total_violations=violations,
        total_events=n_events,
        max_fidelity_ratio=max_fid,
    )
