"""Relative-error polynomial approximation of the centered modulo function.

The refresh step of the homomorphic layer evaluates a polynomial p that
approximates m mod q on a union of intervals around multiples of q,

    I = { m - r q : |m| <= eps q / 2, r in {-K, ..., K} },

with a relative (sector) error bound: |p(x) - (x mod q)| <= gamma |x mod q|
for all x in I.  The fit minimizes gamma over polynomials of fixed degree
by discretizing the constraint set at Chebyshev nodes and solving the
resulting LP in-repo, whose rows are written in place into one
constraint matrix, at the positive nodes only with weight 2 (p is odd,
so the negative nodes repeat them); the returned gamma is then a proven bound
(slope_bound): the Ehlich-Zeller bound on Chebyshev nodes of each
offset's slope polynomial, with a derived rounding allowance.  Its nodes
stream through the kernel's blocks twice: one sweep evaluates a centre
node per cell of _CELL nodes, and Bernstein's inequality then leaves
only the cells that can hold the maximum for the second, so the bound is
bitwise that of every node at about a sixth of the evaluations.  The
bound does not cover the absolute term |p(r q)| / |x mod q| near x mod q
= 0, which only the root check bounds.  verify dense-samples the
relative error instead, an independent cross-check whose maximum over
samples can read below the supremum.

Every evaluation of p goes through one Clenshaw kernel, numpy's chebval
recurrence operation for operation (x2 = 2x; c0, c1 <- c[-i] - c1,
c0 + c1 x2; then c0 + c1 x), so every value is bitwise chebval's, signs
of zero included.  A scalar runs it on Python floats.  Arrays are walked
in blocks of _BLOCK doubles, and each block runs it with ufuncs into four
work buffers allocated once per call, so no step allocates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial.chebyshev import chebvander

from .lp import LpError, solve_lp
from .statespace import check_count, check_object, check_real, read_json, write_json

__all__ = [
    "BootstrapSpec",
    "BootstrapPolynomial",
    "FitError",
    "fit",
    "slope_bound",
    "verify",
    "evaluate",
    "centered_mod",
    "poly_to_json",
    "poly_from_json",
    "save_poly",
    "load_poly",
]

ROOT_TOL = 1e-9
# slope_bound's first-kind Chebyshev nodes per degree of q_r: the
# Ehlich-Zeller factor 1 / cos(pi / 4096) exceeds 1 by 2.9e-7
NODES_PER_DEGREE = 2048
_U = 2.0 ** -53  # unit roundoff of a double
# doubles per Clenshaw block (128 KiB): slope_bound's six work arrays
# (768 KiB) stay in a 2 MiB L2, and each ufunc call still covers enough
# elements to hide its Python overhead (16k beat 4k, 8k, 12k, 24k and 32k)
_BLOCK = 16_384
# consecutive nodes per cell of slope_bound's coarse sweep; divides
# NODES_PER_DEGREE and _BLOCK, so no cell straddles a block
_CELL = 16


class FitError(RuntimeError):
    """Raised when no usable polynomial (gamma < 1) can be produced."""

    def __init__(self, message, best_gamma=None):
        super().__init__(message)
        self.best_gamma = best_gamma


@dataclass(frozen=True)
class BootstrapSpec:
    """Fit parameters: base modulus q, message range eps, overflow bound K, degree d."""

    q: float = 1.0
    epsilon: float = 0.5
    K: int = 2
    d: int = 25

    def __post_init__(self):
        for name in ("q", "epsilon", "K", "d"):
            check_real(getattr(self, name), name)
        if not self.q > 0:
            raise ValueError(f"q must be finite and positive, got {self.q}")
        if not 0 < self.epsilon < 1:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if int(self.K) != self.K or self.K < 0:
            raise ValueError(f"K must be a nonnegative integer, got {self.K}")
        if int(self.d) != self.d or self.d < 1:
            raise ValueError(f"d must be a positive integer, got {self.d}")
        object.__setattr__(self, "K", int(self.K))
        object.__setattr__(self, "d", int(self.d))

    @property
    def half_range(self):
        """Half-width of the interval the Chebyshev basis lives on."""
        return (self.K + self.epsilon / 2) * self.q

    @property
    def offsets(self):
        return range(-self.K, self.K + 1)


@dataclass(frozen=True)
class BootstrapPolynomial:
    """Chebyshev-basis polynomial with a certified relative error slope.

    coefficients has length spec.d + 1 in the Chebyshev basis over
    [-half_range, half_range]; even-index entries are zero because the
    target restricted to I is odd.  gamma_certified, from fit or rescaled,
    is slope_bound's proven bound on the relative error's slope for its own
    coefficients, not the fitting LP's objective, and verification_samples
    counts the Chebyshev nodes the bound covers, not the fewer it evaluates
    (the field keeps its name so that saved polynomials load).  Each
    coefficient and gamma_certified must be a finite real number and
    verification_samples a nonnegative integer, or ValueError is raised.
    """

    spec: BootstrapSpec
    coefficients: np.ndarray
    gamma_certified: float
    verification_samples: int = 0

    def __post_init__(self):
        coeffs = np.array([check_real(c, "coefficients") for c in
                           np.asarray(self.coefficients, dtype=object).reshape(-1)])
        if coeffs.shape[0] != self.spec.d + 1:
            raise ValueError(
                f"expected {self.spec.d + 1} coefficients, got {coeffs.shape[0]}"
            )
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "gamma_certified",
                           check_real(self.gamma_certified, "gamma_certified"))
        object.__setattr__(self, "verification_samples",
                           check_count(self.verification_samples, "verification_samples", 0))

    @property
    def interval(self):
        r = self.spec.half_range
        return (-r, r)

    @property
    def usable(self):
        return self.gamma_certified < 1.0

    def __call__(self, m):
        return evaluate(self, m)

    def rescaled(self, q_new):
        """The same relative-error polynomial expressed at a new base modulus.

        The fitting program is homogeneous in q, so the argument and the value
        are scaled by q_new / q, and slope_bound proves gamma anew: the stored
        one, bit for bit, for a power-of-two factor that underflows no
        coefficient.  An inf gamma is refused by name.
        """
        factor = float(q_new) / self.spec.q
        # an overflowing factor gives inf or nan coefficients, which
        # __post_init__ refuses by name
        with np.errstate(over="ignore", invalid="ignore"):
            coefficients = self.coefficients * factor
        poly = BootstrapPolynomial(
            spec=replace(self.spec, q=float(q_new)),
            coefficients=coefficients,
            gamma_certified=self.gamma_certified,
            verification_samples=self.verification_samples,
        )
        return replace(poly, gamma_certified=slope_bound(poly))


def centered_mod(m, q):
    """m - q*round(m/q) with round-half-away-from-zero on exact halves.

    q must be finite and positive, or ValueError is raised.
    """
    if not check_real(q, "q") > 0:
        raise ValueError(f"q must be finite and positive, got {q}")
    m_arr = np.asarray(m, dtype=float)
    ratio = m_arr / q
    rounded = np.sign(ratio) * np.floor(np.abs(ratio) + 0.5)
    out = m_arr - q * rounded
    return float(out) if np.isscalar(m) or m_arr.ndim == 0 else out


def _clenshaw(c, x, work=None):
    """sum_k c[k] T_k(x) (len(c) >= 2) at a float x, or on one block x.

    This is numpy's chebval recurrence (x2 = 2x; c0, c1 <- c[-i] - c1,
    c0 + c1 x2; then c0 + c1 x), operation for operation, so the value is
    bitwise chebval's.  At a float x (work None) it runs on Python floats.
    On a block it runs with ufuncs into work, four arrays of x.size or
    more doubles (x2, c0, c1 and a scratch t), and returns a view of one
    of them, valid until work is reused.
    """
    if work is None:
        x2 = 2 * x
        c0, c1 = c[-2], c[-1]
        for i in range(3, len(c) + 1):
            c0, c1 = c[-i] - c1, c0 + c1 * x2
        return c0 + c1 * x
    n = x.size
    x2, c0, c1, t = (w[:n] for w in work)
    np.multiply(x, 2, out=x2)
    c0.fill(c[-2])
    c1.fill(c[-1])
    for ci in c[-3::-1]:
        np.add(c0, np.multiply(c1, x2, out=t), out=t)
        np.subtract(ci, c1, out=c0)
        c1, t = t, c1
    return np.add(c0, np.multiply(c1, x, out=t), out=t)


def evaluate(poly: BootstrapPolynomial, m):
    """Evaluate the polynomial by the Clenshaw kernel, blockwise on arrays.

    A scalar or 0-d m returns a float, an array an array of m's shape,
    bitwise chebval's either way.  An array is walked in blocks of _BLOCK
    doubles through one set of work buffers.
    """
    c = poly.coefficients.tolist()
    x = np.asarray(m, dtype=float)
    if x.ndim == 0:
        return _clenshaw(c, float(x) / poly.spec.half_range)
    flat = x.reshape(-1) / poly.spec.half_range
    out = np.empty_like(flat)
    work = np.empty((4, min(flat.size, _BLOCK)))
    for lo in range(0, flat.size, _BLOCK):
        out[lo:lo + _BLOCK] = _clenshaw(c, flat[lo:lo + _BLOCK], work)
    return out.reshape(x.shape)


def _odd_chebvander(x, spec: BootstrapSpec):
    """Rows of the odd Chebyshev basis T_1, T_3, ... evaluated at x."""
    V = chebvander(np.asarray(x, dtype=float) / spec.half_range, spec.d)
    return V[:, 1::2]


def _root_nullspace(spec: BootstrapSpec):
    """Basis of odd-coefficient vectors with p(r q) = 0 for r = 1..K.

    Negative offsets follow from oddness, and p(0) = 0 holds structurally,
    so these K conditions realize the relative bound at m mod q = 0.
    """
    n_odd = (spec.d + 1) // 2
    if spec.K == 0:
        return np.eye(n_odd)
    A_root = _odd_chebvander([r * spec.q for r in range(1, spec.K + 1)], spec)
    _, sv, Vt = np.linalg.svd(A_root)
    rank = int(np.sum(sv > 1e-12 * sv[0]))
    return Vt[rank:].T


def fit(spec: BootstrapSpec, samples_per_interval: int = 512) -> BootstrapPolynomial:
    """Solve the discretized minimax program and prove the result's slope.

    minimize gamma  s.t.  |m - p(m - r q)| <= gamma |m|
    for sampled m in [-eps q/2, eps q/2] and every offset r in {-K..K}.
    Sampling uses Chebyshev-Lobatto nodes (an even count, so m = 0 is
    excluded; that case is enforced structurally through the root
    conditions p(r q) = 0).  p is odd, so the rows at node -m and offset
    r repeat those at m and -r: the LP takes every offset at the positive
    nodes only, half the rows, each with weight 2 so that its central path
    is the full LP's.  The stored gamma is slope_bound's proven
    bound, not the LP objective.  When the LP stops at its iteration cap,
    its least-objective primal-feasible iterate is bounded the same way;
    FitError is raised when there is no such iterate or the bound is 1 or
    more.  samples_per_interval must be an integer of at least 2(d + 1),
    or ValueError is raised before the LP runs.
    """
    M = check_count(samples_per_interval, "samples_per_interval", 2 * (spec.d + 1))
    if M % 2 == 1:
        M += 1
    half_msg = spec.epsilon * spec.q / 2
    nodes = (-np.cos(np.pi * np.arange(M) / (M - 1)) * half_msg)[M // 2:]

    N = _root_nullspace(spec)
    n_free = N.shape[1]
    if n_free == 0:
        raise FitError(
            f"degree {spec.d} leaves no free coefficients after the "
            f"{spec.K} root conditions",
            best_gamma=1.0,
        )

    # each offset's rows at the nodes m > 0, -p(m - r q) - gamma m <= -m
    # then its mirror, written in place, each standing also for node -m at
    # offset -r (weight 2); the last row is gamma >= 0 (weight 1)
    n_off = len(spec.offsets)
    A_ub = np.zeros((n_off * 2 * nodes.size + 1, n_free + 1))
    b_ub = np.zeros(A_ub.shape[0])
    blocks = A_ub[:-1].reshape(n_off, 2, nodes.size, n_free + 1)
    blocks[..., -1] = -nodes
    b_ub[:-1].reshape(n_off, 2, nodes.size)[...] = (-nodes, nodes)
    for block, r in zip(blocks, spec.offsets):
        P = _odd_chebvander(nodes - r * spec.q, spec) @ N
        np.negative(P, out=block[0, :, :-1])
        block[1, :, :-1] = P
    A_ub[-1, -1] = -1.0
    cost = np.zeros(n_free + 1)
    cost[-1] = 1.0
    weights = np.full(A_ub.shape[0], 2.0)
    weights[-1] = 1.0

    try:
        x = solve_lp(cost, A_ub, b_ub, weights).x
    except LpError as exc:
        if not exc.feasible:
            raise FitError(f"fitting LP failed: {exc}", best_gamma=exc.best_fun) from exc
        x = exc.best_x

    coeffs = np.zeros(spec.d + 1)
    coeffs[1::2] = N @ x[:-1]
    poly = BootstrapPolynomial(spec=spec, coefficients=coeffs, gamma_certified=float(x[-1]))
    gamma = slope_bound(poly)
    if gamma >= 1.0:
        raise FitError(
            f"best achievable relative slope is {gamma:.4f} >= 1 at "
            f"degree {spec.d}; the polynomial could flip signs",
            best_gamma=gamma,
        )
    # an odd polynomial is bounded on the offsets 0..K (slope_bound)
    return replace(poly, gamma_certified=gamma,
                   verification_samples=_node_count(spec.d) * (spec.K + 1))


def _node_count(d):
    """slope_bound's Chebyshev nodes per offset at degree d."""
    return NODES_PER_DEGREE * max(d - 1, 1)


def _slope_series(c, s0, H):
    """Chebyshev series in s of q = (P(s) - P(s0)) / (H (s - s0)) - 1.

    P = sum c_k T_k.  Clenshaw's intermediates at s0, b_k = c_k + 2 s0
    b_{k+1} - b_{k+2}, are the quotient's coefficients: summing by parts
    with T_k - 2 s T_{k-1} + T_{k-2} = 0 gives P(s) - P(s0) = (s - s0)
    (b_1 + 2 sum_{k>=2} b_k T_{k-1}(s)).  So the division by s - s0 costs
    d scalar steps and divides nothing by a small number.

    Also returned: E bounding |Q(s) - Q_hat(s)| / H on [-1, 1], where Q is
    the exact quotient at the exact s0 and Q_hat has the computed b_k.
    Step k's rounding, s0's included, is at most eta_k = 5u (|c_k| +
    2|b_{k+1}| + |b_{k+2}|), and the computed b_k are the exact
    intermediates of P + sum eta_k T_k.  So Q_hat - Q = sum eta_k (T_k(s)
    - T_k(s0)) / (s - s0), which is at most sum k^2 |eta_k| by the mean
    value theorem and Markov's |T_k'| <= k^2.
    """
    b1 = b2 = err = 0.0  # b_{k+1}, b_{k+2}
    b = []
    x2 = 2 * s0
    for k in range(len(c) - 1, 0, -1):
        err += k * k * (abs(c[k]) + 2 * abs(b1) + abs(b2))
        b1, b2 = c[k] - b2 + x2 * b1, b1
        b.append(b1)
    b.reverse()  # b_1, ..., b_d
    g = [b[0] / H - 1] + [2 * bk / H for bk in b[1:]]
    return g + [0.0] * (2 - len(g)), 5 * _U * err / H


def slope_bound(poly: BootstrapPolynomial) -> float:
    """A proven upper bound on the slope of the relative error over I.

    For offset r, e_r(m) = p(m - r q) - m = e_r(0) + m q_r(m) on |m| <= a
    = eps q / 2 (a and r q as the package computes them in floats), and
    the result is max_r sup |q_r|.  It does not cover the absolute term
    |e_r(0)| / |m|, which near m = 0 is bounded only by the root check
    |p(r q)| <= ROOT_TOL q: the sector |p(x) - x mod q| <= gamma |x mod
    q| holds up to an absolute error max_r |e_r(0)|, to be carried beside
    gamma.  In t = m / a, q_r is a polynomial of degree n = d - 1 whose
    Chebyshev series in s = (a t - r q) / half_range comes from
    _slope_series.  Take the N = NODES_PER_DEGREE n first-kind Chebyshev
    nodes t_j = cos((2j + 1) pi / (2N)).  By Ehlich and Zeller (Math. Z.
    86, 1964; Rivlin, Chebyshev Polynomials, 2nd ed., 1990) sup |q_r| <=
    max_j |q_r(t_j)| / cos(n pi / (2N)), and the result is

        (max_j |v_j| + A) / (cos(pi / (2 NODES_PER_DEGREE)) - 2 n^2 delta - 8u)

    with v_j the kernel's values and u the unit roundoff:
    - A = _slope_series' quotient bound plus 4u ((n + 1)^2 + 1) (sum |g| +
      1).  Forming the series g costs at most 2u (sum |g| + 1).  Clenshaw
      at |s| <= 1 returns sum (g_k + eta_k) T_k(s) with |eta_k| <= 2u
      (|g_k| + 2|b_{k+1}| + |b_{k+2}|), and |b_k| <= sum_{j>=k} (j - k +
      1) |g_j| since |U_m| <= m + 1, so its error is at most 3u (n + 1)^2
      sum |g|, plus second-order terms.
    - delta = 4u (8 + |r q| / a) bounds how far a computed node, mapped
      to s, lies from the exact one, in units of t: 3u pi from the angle,
      8u from a cos within 4 ulp, 3u + 2u |r q| / a from the map.
      Markov's |q'| <= n^2 sup |q| (2 n^2 just outside [-1, 1]) turns it
      into the 2 n^2 delta, so |v_j - q_r(t_j)| <= A + 2 n^2 delta S with
      S = sup |q_r|.
    - 8u covers the last four roundings.
    A divisor that is not positive proves nothing, and returns inf.

    max_j |v_j| is found without evaluating most nodes.  The nodes are
    cut into cells of C = _CELL consecutive ones, and a first sweep
    evaluates each cell's centre node, index C/2 in the cell; their
    largest value m is a node value, so at most max_j |v_j|.  Q(theta) =
    q_r(cos theta) is a trigonometric polynomial of degree n, so by
    Bernstein's inequality |Q'| <= n S, and with the bound on |v_j -
    q_r(t_j)| above:
    - every angle lies within (C/2 + 1) pi / N of a centre, so S <= (m +
      A) / (1 - n (C/2 + 1) pi / N - 2 n^2 delta);
    - a cell's nodes lie within (C/2) pi / N of its centre, so each of
      them has |v_j| <= v_c + margin, with v_c the centre's value and
      margin = n (C/2) (pi / N) S + 2A + 4 n^2 delta S, rounded up by a
      factor 1 + 32u.
    A second sweep evaluates only the cells with v_c + margin >= m, so the
    maximum, and the result, are bitwise those of every node: each
    evaluated node gets the same t (its block's cos, gathered by index)
    and the same elementwise operations.  Cells are skipped only while m,
    S and 8 ((n + 1)^2 + 1) (sum |g| + 1) are finite; the last bounds
    every intermediate of the recurrence, so no skipped node is inf or
    NaN.  On the fitted polynomials about a sixth of the nodes are
    evaluated.  Memory is the kernel's six block buffers, two doubles per
    cell and one byte per cell and offset; no array of length N is formed.

    An odd polynomial has q_{-r}(m) = q_r(-m), so only offsets 0..K are
    evaluated; any nonzero even coefficient brings in all 2K + 1.  A root
    outside |p(r q)| <= ROOT_TOL q or a non-finite value returns inf,
    without a warning, so fit() rejects it.
    """
    spec = poly.spec
    c = poly.coefficients.tolist()
    H = spec.half_range
    alpha = spec.epsilon * spec.q / 2 / H
    n = max(spec.d - 1, 1)
    N = _node_count(spec.d)
    offsets = spec.offsets if any(c[::2]) else range(spec.K + 1)
    ez = np.cos(np.pi / (2 * NODES_PER_DEGREE)) - 8 * _U
    # Bernstein's |Q'| <= n S over a node's distance to its cell's centre,
    # and over any angle's distance to the nearest centre
    near = n * (_CELL // 2) * np.pi / N
    far = n * (_CELL // 2 + 1) * np.pi / N
    series = []
    for r in offsets:
        # NaN fails the comparison too
        if not abs(evaluate(poly, -r * spec.q)) <= ROOT_TOL * spec.q:
            return np.inf
        s0 = -r * spec.q / H
        g, quotient_err = _slope_series(c, s0, H)
        total = sum(map(abs, g))
        allowance = quotient_err + 4 * _U * ((n + 1) ** 2 + 1) * (total + 1)
        delta = 4 * _U * (8 + abs(s0) / alpha)
        divisor = ez - 2 * n * n * delta
        if not divisor > 0:
            return np.inf
        bounded = 8 * ((n + 1) ** 2 + 1) * (total + 1) < np.inf
        series.append((g, s0, allowance, divisor, delta, bounded))

    step = np.pi / (2 * N)
    t, s, *work = np.empty((6, min(_BLOCK, N)))
    centre_t, centres = np.empty((2, N // _CELL))
    keep = np.empty((len(series), centres.size), dtype=bool)

    def blocks():
        """(first cell, nodes t_j) per block of _BLOCK nodes."""
        for lo in range(0, N, _BLOCK):
            tb = t[:min(_BLOCK, N - lo)]
            np.cos(np.multiply(np.arange(2 * lo + 1, 2 * lo + 2 * tb.size, 2,
                                         dtype=float), step, out=tb), out=tb)
            yield lo // _CELL, tb.reshape(-1, _CELL)

    def slopes(g, s0, x):
        """|q_r| at the nodes whose t x holds; x is overwritten with s."""
        np.add(np.multiply(x, alpha, out=x), s0, out=x)
        v = _clenshaw(g, x, work)
        return np.abs(v, out=v)

    worst = []
    with np.errstate(over="ignore", invalid="ignore"):
        for cell, cells in blocks():
            centre_t[cell:cell + len(cells)] = cells[:, _CELL // 2]
        for (g, s0, allowance, _, delta, bounded), cut in zip(series, keep):
            centres[:] = centre_t
            for lo in range(0, centres.size, _BLOCK):
                centres[lo:lo + _BLOCK] = slopes(g, s0, centres[lo:lo + _BLOCK])
            m = float(centres.max())
            if not m < np.inf:
                return np.inf
            worst.append(m)
            den = 1 - far - 2 * n * n * delta
            margin = np.inf  # keeps every cell, as an infinite S would
            if bounded and den > 0:
                S = (m + allowance) / den
                # 1 + 32u covers the roundings of S and of the margin
                margin = (1 + 32 * _U) * (near * S + 2 * allowance
                                          + 4 * n * n * delta * S)
            # a cell is skipped when its centre value plus margin is below m
            np.greater_equal(np.add(centres, margin, out=centres), m, out=cut)

        for cell, cells in blocks():
            for i, ((g, s0, *_), cut) in enumerate(zip(series, keep)):
                kept = np.flatnonzero(cut[cell:cell + len(cells)])
                if not kept.size:
                    continue
                x = s[:kept.size * _CELL]
                np.take(cells, kept, axis=0, out=x.reshape(-1, _CELL), mode="clip")
                block_worst = float(slopes(g, s0, x).max())
                if not block_worst < np.inf:
                    return np.inf
                worst[i] = max(worst[i], block_worst)
    bound = max((w + allowance) / divisor
                for w, (_, _, allowance, divisor, _, _) in zip(worst, series))
    return bound if bound < np.inf else np.inf


def verify(poly: BootstrapPolynomial, samples: int) -> float:
    """Dense-sample the relative error over I and return its maximum.

    samples counts evaluation points per offset interval (at least 1e5;
    enforced).  Half the points form a uniform grid including the
    endpoints, half are drawn from a fixed seeded stream, so the result is
    deterministic.  Within 1e-9 q of m mod q = 0 the ratio is replaced by
    the root check |p(r q)| <= ROOT_TOL * q, since the quotient there
    measures only floating-point cancellation, not the polynomial
    (ValueError if that leaves an offset no sample).  A non-finite root or
    error (overflow in the recurrence) returns inf, without a warning.
    Each offset's samples are formed as whole arrays, so memory grows with
    samples (a tracemalloc peak of 9.3 MB at 250k and 65 MB at 2e6).

    The result is a maximum over samples, so it can read below the
    supremum; it is the tests' cross-check of slope_bound, which it also
    exceeds where the absolute term |e_r(0)| / |m| dominates near m = 0.
    """
    check_count(samples, "samples", 10**5)
    spec = poly.spec
    half_msg = spec.epsilon * spec.q / 2
    rng = np.random.default_rng(20_240_501)
    worst = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for r in spec.offsets:
            # NaN fails the comparison too
            if not abs(evaluate(poly, -r * spec.q)) <= ROOT_TOL * spec.q:
                return np.inf
            m = np.concatenate([np.linspace(-half_msg, half_msg, samples // 2),
                                rng.uniform(-half_msg, half_msg, samples - samples // 2)])
            m = m[np.abs(m) > 1e-9 * spec.q]
            if not m.size:
                raise ValueError(f"epsilon {spec.epsilon} leaves verify no sample "
                                 f"farther than 1e-9 q from m mod q = 0")
            err = (np.abs(evaluate(poly, m - r * spec.q) - m) / np.abs(m)).max()
            if not err < np.inf:
                return np.inf
            worst = max(worst, float(err))
    return worst


def poly_to_json(poly: BootstrapPolynomial) -> dict:
    return {
        "spec": {
            "q": poly.spec.q,
            "epsilon": poly.spec.epsilon,
            "K": poly.spec.K,
            "d": poly.spec.d,
        },
        "basis": "chebyshev",
        "interval": list(poly.interval),
        "coefficients": poly.coefficients.tolist(),
        "gamma_certified": poly.gamma_certified,
        "verification_samples": poly.verification_samples,
    }


def poly_from_json(data: dict) -> BootstrapPolynomial:
    """poly_to_json's inverse; the records' ValueErrors get a "poly JSON: " prefix."""
    check_object(data, "poly", ())
    spec_data = data.get("spec", {})
    if not isinstance(spec_data, dict):
        raise ValueError("poly JSON field spec must be an object")
    spec_fields = ("q", "epsilon", "K", "d")
    missing = [k for k in ("basis", "coefficients", "gamma_certified")
               if k not in data]
    missing += [f"spec.{k}" for k in spec_fields if k not in spec_data]
    if missing:
        raise ValueError(f"poly JSON is missing fields: {', '.join(missing)}")
    if data["basis"] != "chebyshev":
        raise ValueError(f"unsupported basis: {data['basis']!r}")
    if not isinstance(data["coefficients"], list):
        raise ValueError("poly JSON field coefficients must be a list")
    try:
        poly = BootstrapPolynomial(
            spec=BootstrapSpec(**{k: spec_data[k] for k in spec_fields}),
            coefficients=data["coefficients"],
            gamma_certified=data["gamma_certified"],
            verification_samples=data.get("verification_samples", 0),
        )
    except ValueError as exc:
        raise ValueError(f"poly JSON: {exc}") from None
    interval = data.get("interval", list(poly.interval))
    if not (isinstance(interval, list) and len(interval) == 2):
        raise ValueError("poly JSON field interval must be a list [lo, hi]")
    lo, hi = (check_real(x, "poly JSON field interval") for x in interval)
    r = poly.spec.half_range  # relative only: any absolute slack swamps a tiny q
    if not (abs(lo + r) <= 1e-9 * r and abs(hi - r) <= 1e-9 * r):
        raise ValueError("interval in JSON is inconsistent with the spec fields")
    return poly


def save_poly(path, poly: BootstrapPolynomial):
    write_json(path, poly_to_json(poly))


def load_poly(path) -> BootstrapPolynomial:
    return poly_from_json(read_json(path))
