"""Relative-error polynomial approximation of the centered modulo function.

The refresh step of the homomorphic layer evaluates a polynomial p that
approximates m mod q on a union of intervals around multiples of q,

    I = { m - r q : |m| <= eps q / 2, r in {-K, ..., K} },

with a relative (sector) error bound: |p(x) - (x mod q)| <= gamma |x mod q|
for all x in I.  The fit minimizes gamma over polynomials of fixed degree
by discretizing the constraint set at Chebyshev nodes and solving the
resulting LP in-repo; the returned gamma is then re-established by dense
a-posteriori sampling, which is the authoritative certificate.

Every evaluation of p goes through one Clenshaw kernel, numpy's chebval
recurrence operation for operation (x2 = 2x; c0, c1 <- c[-i] - c1,
c0 + c1 x2; then c0 + c1 x), so its values are bitwise chebval's.  Arrays
are walked in blocks of _BLOCK doubles, so the recurrence's temporaries
stay in cache instead of being fresh full-length arrays per coefficient.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial.chebyshev import chebvander

from .lp import LpError, solve_lp

__all__ = [
    "BootstrapSpec",
    "BootstrapPolynomial",
    "FitError",
    "fit",
    "verify",
    "evaluate",
    "centered_mod",
    "poly_to_json",
    "poly_from_json",
    "save_poly",
    "load_poly",
]

ROOT_TOL = 1e-9
# doubles per Clenshaw block (256 KiB): a block's few live arrays stay in
# L2, and each ufunc call of the recurrence still covers many elements
_BLOCK = 32_768


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
        if not (np.isfinite(self.q) and self.q > 0):
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
    target restricted to I is odd.  gamma_certified is the dense-sampling
    supremum of the relative error, not the fitting LP's objective.
    """

    spec: BootstrapSpec
    coefficients: np.ndarray
    gamma_certified: float
    verification_samples: int = 0

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=float).reshape(-1)
        if coeffs.shape[0] != self.spec.d + 1:
            raise ValueError(
                f"expected {self.spec.d + 1} coefficients, got {coeffs.shape[0]}"
            )
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficients contain non-finite entries")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)

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

        The fitting program is homogeneous in q, so scaling the argument
        and the value by q_new / q preserves gamma exactly.
        """
        factor = float(q_new) / self.spec.q
        return BootstrapPolynomial(
            spec=replace(self.spec, q=float(q_new)),
            coefficients=self.coefficients * factor,
            gamma_certified=self.gamma_certified,
            verification_samples=self.verification_samples,
        )


def centered_mod(m, q):
    """m - q*round(m/q) with round-half-away-from-zero on exact halves."""
    if q <= 0:
        raise ValueError(f"q must be positive, got {q}")
    m_arr = np.asarray(m, dtype=float)
    ratio = m_arr / q
    rounded = np.sign(ratio) * np.floor(np.abs(ratio) + 0.5)
    out = m_arr - q * rounded
    return float(out) if np.isscalar(m) or m_arr.ndim == 0 else out


def _clenshaw(c, x):
    """sum_k c[k] T_k(x) (len(c) >= 2) at a float x or on one block of x.

    This is numpy's chebval recurrence, operation for operation, so its
    values are bitwise chebval's.
    """
    x2 = 2 * x
    c0, c1 = c[-2], c[-1]
    for i in range(3, len(c) + 1):
        c0, c1 = c[-i] - c1, c0 + c1 * x2
    return c0 + c1 * x


def evaluate(poly: BootstrapPolynomial, m):
    """Evaluate the polynomial by the blocked Clenshaw recurrence."""
    x = np.asarray(m, dtype=float) / poly.spec.half_range
    if np.isscalar(m) or x.ndim == 0:
        return float(_clenshaw(poly.coefficients, x))
    flat = x.reshape(-1)
    out = np.empty_like(flat)
    for lo in range(0, flat.size, _BLOCK):
        out[lo:lo + _BLOCK] = _clenshaw(poly.coefficients, flat[lo:lo + _BLOCK])
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


def fit(spec: BootstrapSpec, samples_per_interval: int = 512,
        verify_samples_per_interval: int = 250_000) -> BootstrapPolynomial:
    """Solve the discretized minimax program and certify the result densely.

    minimize gamma  s.t.  |m - p(m - r q)| <= gamma |m|
    for sampled m in [-eps q/2, eps q/2] and every offset r in {-K..K}.
    Sampling uses Chebyshev-Lobatto nodes (an even count, so m = 0 is
    excluded; that case is enforced structurally through the root
    conditions p(r q) = 0).  The stored gamma comes from verify(), not
    from the LP objective.
    """
    if samples_per_interval < 2 * (spec.d + 1):
        raise ValueError(
            f"samples_per_interval must be at least 2(d+1) = {2 * (spec.d + 1)}"
        )
    M = int(samples_per_interval)
    if M % 2 == 1:
        M += 1
    half_msg = spec.epsilon * spec.q / 2
    nodes = -np.cos(np.pi * np.arange(M) / (M - 1)) * half_msg

    N = _root_nullspace(spec)
    n_free = N.shape[1]
    if n_free == 0:
        raise FitError(
            f"degree {spec.d} leaves no free coefficients after the "
            f"{spec.K} root conditions",
            best_gamma=1.0,
        )

    rows, rhs = [], []
    abs_m = np.abs(nodes)
    for r in spec.offsets:
        P = _odd_chebvander(nodes - r * spec.q, spec) @ N
        rows.append(np.hstack([-P, -abs_m[:, None]]))
        rhs.append(-nodes)
        rows.append(np.hstack([P, -abs_m[:, None]]))
        rhs.append(nodes)
    # gamma >= 0
    gamma_row = np.zeros((1, n_free + 1))
    gamma_row[0, -1] = -1.0
    rows.append(gamma_row)
    rhs.append(np.zeros(1))

    A_ub = np.vstack(rows)
    b_ub = np.concatenate(rhs)
    cost = np.zeros(n_free + 1)
    cost[-1] = 1.0

    try:
        res = solve_lp(cost, A_ub, b_ub)
    except LpError as exc:
        raise FitError(f"fitting LP failed: {exc}", best_gamma=exc.best_fun) from exc

    coeffs = np.zeros(spec.d + 1)
    coeffs[1::2] = N @ res.x[:-1]
    poly = BootstrapPolynomial(
        spec=spec,
        coefficients=coeffs,
        gamma_certified=float(res.x[-1]),
        verification_samples=0,
    )
    gamma_dense = verify(poly, verify_samples_per_interval)
    if gamma_dense >= 1.0:
        raise FitError(
            f"best achievable relative slope is {gamma_dense:.4f} >= 1 at "
            f"degree {spec.d}; the polynomial could flip signs",
            best_gamma=gamma_dense,
        )
    return replace(
        poly,
        gamma_certified=gamma_dense,
        verification_samples=verify_samples_per_interval * (2 * spec.K + 1),
    )


def verify(poly: BootstrapPolynomial, samples: int) -> float:
    """Dense-sample the relative error over I and return its supremum.

    samples counts evaluation points per offset interval (at least 1e5
    for a meaningful certificate; enforced).  Half the points form a
    uniform grid including the endpoints, half are drawn from a fixed
    seeded stream, so the result is deterministic.  Within 1e-9 q of
    m mod q = 0 the ratio is replaced by the root check
    |p(r q)| <= ROOT_TOL * q, since the quotient there measures only
    floating-point cancellation, not the polynomial.

    The points are walked in kernel blocks: x = (m - r q) / half_range,
    the Clenshaw kernel and |p(x) - m| / |m| run on one block, whose
    maximum joins a running maximum, so no array of the full sample count
    is formed past m itself.  Every value is bitwise the whole-array
    chebval formula's.  A non-finite root or error (overflow in the
    recurrence) returns inf, without a warning, so fit() rejects it.
    """
    if samples < 10**5:
        raise ValueError(f"verification needs at least 1e5 samples per interval, got {samples}")
    spec = poly.spec
    half_msg = spec.epsilon * spec.q / 2
    rng = np.random.default_rng(20_240_501)
    n_grid = samples // 2
    n_rand = samples - n_grid

    worst = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for r in spec.offsets:
            # NaN fails the comparison too
            if not abs(evaluate(poly, -r * spec.q)) <= ROOT_TOL * spec.q:
                return np.inf
            m = np.concatenate(
                [
                    np.linspace(-half_msg, half_msg, n_grid),
                    rng.uniform(-half_msg, half_msg, n_rand),
                ]
            )
            m = m[np.abs(m) > 1e-9 * spec.q]
            for lo in range(0, m.size, _BLOCK):
                mb = m[lo:lo + _BLOCK]
                p = _clenshaw(poly.coefficients, (mb - r * spec.q) / spec.half_range)
                block_worst = float(np.max(np.abs(p - mb) / np.abs(mb)))
                if not block_worst < np.inf:
                    return np.inf
                worst = max(worst, block_worst)
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


def _json_float(value, name):
    """value as a float if it is a finite JSON number; ValueError otherwise."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise ValueError(f"poly JSON field {name} must be a finite number, got {value!r}")
    return float(value)


def poly_from_json(data: dict) -> BootstrapPolynomial:
    if not isinstance(data, dict):
        raise ValueError(f"poly JSON must be an object, got {type(data).__name__}")
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
    coefficients = data["coefficients"]
    samples = data.get("verification_samples", 0)
    if not isinstance(coefficients, list):
        raise ValueError("poly JSON field coefficients must be a list")
    if type(samples) is not int:
        raise ValueError("poly JSON field verification_samples must be an integer")
    spec = BootstrapSpec(**{k: _json_float(spec_data[k], f"spec.{k}")
                            for k in spec_fields})
    poly = BootstrapPolynomial(
        spec=spec,
        coefficients=np.array([_json_float(c, "coefficients") for c in coefficients]),
        gamma_certified=_json_float(data["gamma_certified"], "gamma_certified"),
        verification_samples=samples,
    )
    interval = data.get("interval", list(poly.interval))
    if not (isinstance(interval, list) and len(interval) == 2):
        raise ValueError("poly JSON field interval must be a list [lo, hi]")
    lo, hi = (_json_float(x, "interval") for x in interval)
    if not (np.isclose(-lo, poly.spec.half_range, rtol=1e-9)
            and np.isclose(hi, poly.spec.half_range, rtol=1e-9)):
        raise ValueError("interval in JSON is inconsistent with the spec fields")
    return poly


def save_poly(path, poly: BootstrapPolynomial):
    with open(path, "w") as fh:
        json.dump(poly_to_json(poly), fh, indent=2)
        fh.write("\n")


def load_poly(path) -> BootstrapPolynomial:
    with open(path) as fh:
        return poly_from_json(json.load(fh))
