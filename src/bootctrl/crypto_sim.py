"""Toy leveled LWE-style scheme with an emulated bootstrapping step.

The scheme exists to validate certificates empirically, not to be
secure: parameters are tiny, and every ciphertext carries a debug
ledger (an ideal-plaintext shadow value plus a rigorously propagated
noise bound) so tests can assert the fidelity invariant

    |Dec(ct) - c**scale_exponent * debug_plaintext| <= noise_bound

after every operation.  Ciphertext bodies are lists of Python ints
(arbitrary precision), stored as centered residues in [-q/2, q/2),
always computed as (x + h) % q - h with h = q // 2.

Homomorphic operations: add, matvec (plaintext matrix times ciphertext
vector; a plaintext scalar product is the 1x1 case) and rescale.

The secret is sparse and ternary, so the phase <body, sk> with
sk = (1, s) is formed in exact integers as the sum of the body over the
h + 1 positions where sk is +1 or -1 (h = hamming_weight), each with its
sign: no product with a zero or unit key coefficient is ever taken.
Fresh masks are drawn by CPython's own randrange(q) algorithm
(_randbelow_with_getrandbits: getrandbits(q.bit_length()) until the
draw is below q) inlined, so every value and the generator state match
keys.rng.randrange(q) call for call.

Modulus chain: q_level = q0 * c**level, level in 0..L, tabulated once
when the SchemeParams is built.  One rescale consumes one level; the
emulated bootstrap consumes a level-0 ciphertext and returns a fresh
level-L one whose plaintext is the rounded value of the refresh
polynomial applied to the raw phase b + <a, s> over the integers.
"""

from __future__ import annotations

import json
import math
import numbers
import random
from dataclasses import dataclass, field, fields

from .bootpoly import BootstrapPolynomial

__all__ = [
    "SchemeParams",
    "Keys",
    "Ciphertext",
    "BootstrapEvent",
    "SchemeError",
    "CiphertextOverflowError",
    "NoLevelsLeftError",
    "RangeViolationError",
    "AssumptionViolationError",
    "keygen",
    "encrypt",
    "decrypt",
    "decrypt_raw",
    "add",
    "matvec",
    "rescale",
    "bootstrap_emulated",
    "fidelity_error",
    "required_offset_range",
    "scheme_to_json",
    "scheme_from_json",
    "save_scheme",
    "load_scheme",
]


class SchemeError(Exception):
    """Base class for scheme failures; `code` is a stable machine token."""

    code = "SCHEME_ERROR"

    def __init__(self, message):
        self.message = message
        super().__init__(f"{self.code}: {message}")


class CiphertextOverflowError(SchemeError):
    """Plaintext plus noise no longer fits the current modulus."""

    code = "OVERFLOW"


class NoLevelsLeftError(SchemeError):
    """Rescale requested at level 0."""

    code = "NO_LEVELS_LEFT"


class RangeViolationError(SchemeError):
    """Bootstrap input left the certified interval |m + e| <= eps*q0/2."""

    code = "RANGE_VIOLATION"


class AssumptionViolationError(SchemeError):
    """Bootstrap raw phase needed a wrap count beyond the fitted K."""

    code = "ASSUMPTION_VIOLATION"


@dataclass(frozen=True)
class SchemeParams:
    """Public parameters.

    n:             LWE dimension (number of mask coordinates).
    q0:            base modulus (level 0).
    c:             rescaling factor; level ell has modulus q0 * c**ell.
    L:             number of levels above the base.
    noise_bound:   fresh encryption noise is uniform in [-noise_bound, noise_bound].
    seed:          master seed for key generation and encryption randomness.
    hamming_weight: number of nonzero (ternary) secret coefficients; keeping
                   it small keeps the bootstrap wrap count |r| deterministic
                   and small, |r| <= (hamming_weight + 1 + eps) / 2.
    """

    n: int = 16
    q0: int = 2 ** 42
    c: int = 2 ** 16
    L: int = 10
    noise_bound: int = 8
    seed: int = 0
    hamming_weight: int = 4

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
            object.__setattr__(self, f.name, int(value))
        if self.n < 1 or self.q0 < 2 or self.c < 2 or self.L < 0:
            raise ValueError("invalid scheme parameters")
        if not 0 < self.hamming_weight <= self.n:
            raise ValueError("hamming_weight must be in 1..n")
        if self.noise_bound < 0:
            raise ValueError("noise_bound must be nonnegative")
        # not a field: equality, repr and JSON see only the parameters
        object.__setattr__(self, "_moduli",
                           tuple(self.q0 * self.c ** ell for ell in range(self.L + 1)))

    def modulus(self, level: int) -> int:
        if not 0 <= level <= self.L:
            raise ValueError(f"level {level} outside 0..{self.L}")
        return self._moduli[level]


@dataclass(frozen=True)
class Keys:
    """Secret key plus the RNG stream used for encryption randomness.

    s must hold params.n entries from {-1, 0, 1}.  The body positions
    where sk = (1, s) is +1 and where it is -1 are tabulated once (not
    fields; frozen so they cannot go stale), so the phase is a signed sum
    over h + 1 coordinates.
    """

    params: SchemeParams
    s: tuple
    rng: random.Random = field(repr=False)

    def __post_init__(self):
        s = tuple(self.s)
        if len(s) != self.params.n:
            raise ValueError(f"s must have params.n = {self.params.n} entries, "
                             f"got {len(s)}")
        if any(x not in (-1, 0, 1) for x in s):
            raise ValueError("s entries must be -1, 0 or 1")
        object.__setattr__(self, "s", tuple(int(x) for x in s))
        object.__setattr__(self, "_plus",
                           (0,) + tuple(i + 1 for i, x in enumerate(s) if x == 1))
        object.__setattr__(self, "_minus",
                           tuple(i + 1 for i, x in enumerate(s) if x == -1))

    @property
    def sk(self):
        """Full secret key (1, s): decryption is <body, sk> mod q."""
        return (1,) + self.s


@dataclass
class Ciphertext:
    """body = (b, a_1..a_n) with b + <a, s> = m + e (mod q_level).

    The encoded integer m represents the real number
    m / c**scale_exponent.  noise_bound and debug_plaintext form the
    debug ledger; they are carried for validation only and no operation
    reads them to produce its cryptographic output.
    """

    body: list
    level: int
    scale_exponent: int
    noise_bound: float
    debug_plaintext: float


@dataclass(frozen=True)
class BootstrapEvent:
    """Telemetry from one emulated refresh."""

    r: int
    m_plus_e: int
    output: int
    poly_error: float
    relative_error: float
    violation: bool
    step: int = -1


def _phase(keys: Keys, body) -> int:
    """<body, sk> in exact integers over the support of sk = (1, s)."""
    v = 0
    for i in keys._plus:
        v += body[i]
    for i in keys._minus:
        v -= body[i]
    return v


def _centered(x: int, q: int) -> int:
    h = q // 2
    return (x + h) % q - h


def required_offset_range(params: SchemeParams, epsilon: float) -> int:
    """Smallest K certain to cover the bootstrap wrap count.

    |b + <a, s>| <= (h + 1) q / 2 for centered residues, so with the
    payload inside |m + e| <= eps*q/2 the wrap count satisfies
    |r| <= floor((h + 1 + eps) / 2).
    """
    return math.floor((params.hamming_weight + 1 + epsilon) / 2.0)


def keygen(params: SchemeParams) -> Keys:
    """Sparse ternary secret with exactly hamming_weight nonzeros."""
    rng = random.Random(params.seed)
    positions = rng.sample(range(params.n), params.hamming_weight)
    s = [0] * params.n
    for pos in positions:
        s[pos] = rng.choice((-1, 1))
    return Keys(params=params, s=tuple(s), rng=rng)


def _budget_check(params: SchemeParams, ct: Ciphertext):
    q = params.modulus(ct.level)
    payload = abs(ct.debug_plaintext) * float(params.c) ** ct.scale_exponent
    if payload + ct.noise_bound >= q / 2:
        raise CiphertextOverflowError(
            f"payload {payload:.3e} + noise {ct.noise_bound:.3e} "
            f"exceeds q/2 = {q / 2:.3e} at level {ct.level}"
        )
    return ct


def _fresh(keys: Keys, m: int, level: int, scale_exponent: int,
           noise_bound: float, debug: float) -> Ciphertext:
    """Encrypt the encoded integer m afresh (draws e, then a).

    Each mask a_i is keys.rng.randrange(q) by its own algorithm: k-bit
    draws, k = q.bit_length(), until one is below q.  b = m + e - <a, s>
    is the phase of the body with b set to 0.
    """
    params = keys.params
    q = params.modulus(level)
    h = q // 2
    e = keys.rng.randint(-params.noise_bound, params.noise_bound)
    getrandbits = keys.rng.getrandbits
    k = q.bit_length()
    body = [0]
    for _ in range(params.n):
        r = getrandbits(k)
        while r >= q:
            r = getrandbits(k)
        body.append(r)
    body[0] = m + e - _phase(keys, body)
    ct = Ciphertext(
        body=[(x + h) % q - h for x in body],
        level=level,
        scale_exponent=scale_exponent,
        noise_bound=noise_bound,
        debug_plaintext=debug,
    )
    return _budget_check(params, ct)


def encrypt(keys: Keys, value: float, level: int | None = None,
            scale_exponent: int = 1) -> Ciphertext:
    """Encode round(value * c**scale_exponent) and encrypt it."""
    params = keys.params
    if not math.isfinite(value):
        raise ValueError(f"cannot encrypt non-finite value {value}")
    if level is None:
        level = params.L
    m = int(round(value * float(params.c) ** scale_exponent))
    return _fresh(keys, m, level, scale_exponent, params.noise_bound + 0.5,
                  float(value))


def decrypt_raw(keys: Keys, ct: Ciphertext) -> int:
    """Noisy encoded integer m + e (centered)."""
    q = keys.params.modulus(ct.level)
    return _centered(_phase(keys, ct.body), q)


def decrypt(keys: Keys, ct: Ciphertext) -> float:
    """Decode to a real number (noise still included, scaled down)."""
    return decrypt_raw(keys, ct) / float(keys.params.c) ** ct.scale_exponent


def fidelity_error(keys: Keys, ct: Ciphertext) -> float:
    """|Dec - c**sigma * debug_plaintext|; must stay <= ct.noise_bound."""
    scale = float(keys.params.c) ** ct.scale_exponent
    return abs(decrypt_raw(keys, ct) - scale * ct.debug_plaintext)


def add(params: SchemeParams, ct1: Ciphertext, ct2: Ciphertext) -> Ciphertext:
    if ct1.level != ct2.level or ct1.scale_exponent != ct2.scale_exponent:
        raise ValueError(
            f"operands disagree: level {ct1.level}/{ct2.level}, "
            f"scale {ct1.scale_exponent}/{ct2.scale_exponent}"
        )
    q = params.modulus(ct1.level)
    body = [_centered(x + y, q) for x, y in zip(ct1.body, ct2.body)]
    ct = Ciphertext(
        body=body,
        level=ct1.level,
        scale_exponent=ct1.scale_exponent,
        noise_bound=ct1.noise_bound + ct2.noise_bound,
        debug_plaintext=ct1.debug_plaintext + ct2.debug_plaintext,
    )
    return _budget_check(params, ct)


def matvec(params: SchemeParams, M, cts: list) -> list:
    """Encrypted y = M x for a plaintext matrix and a ciphertext vector.

    Each entry is encoded as round(c * M_ij); the result has
    scale_exponent raised by one.  Noise ledger per output row:
    sum_j |M_int_ij| nu_j + sum_j |round err_ij| * |x_j| * c**sigma.
    """
    rows = len(M)
    if rows == 0:
        return []
    ncols = len(M[0])
    if ncols != len(cts):
        raise ValueError(f"matrix has {ncols} columns, vector has {len(cts)}")
    level = cts[0].level
    sigma = cts[0].scale_exponent
    if any(ct.level != level or ct.scale_exponent != sigma for ct in cts):
        raise ValueError("ciphertext vector entries disagree on level or scale")
    q = params.modulus(level)
    h = q // 2
    scale_old = float(params.c) ** sigma
    out = []
    for i in range(rows):
        body = None
        noise = 0.0
        debug = 0.0
        for m_ij, ct in zip(map(float, M[i]), cts, strict=True):
            f_int = int(round(params.c * m_ij))
            if f_int:
                body = ([f_int * x for x in ct.body] if body is None
                        else [b + f_int * x for b, x in zip(body, ct.body)])
            round_err = abs(f_int - params.c * m_ij)
            noise += abs(f_int) * ct.noise_bound
            noise += round_err * abs(ct.debug_plaintext) * scale_old
            debug += m_ij * ct.debug_plaintext
        body = ([0] * len(cts[0].body) if body is None
                else [(x + h) % q - h for x in body])
        out.append(
            _budget_check(
                params,
                Ciphertext(body=body, level=level, scale_exponent=sigma + 1,
                           noise_bound=noise, debug_plaintext=debug),
            )
        )
    return out


def rescale(params: SchemeParams, ct: Ciphertext) -> Ciphertext:
    """Divide the body by c (rounded) and drop one level; scale -1.

    Rounding each of the n+1 body coordinates by at most 1/2 perturbs
    the phase by at most (hamming_weight + 1)/2 through the secret key.
    """
    if ct.level == 0:
        raise NoLevelsLeftError("rescale at level 0")
    q_next = params.modulus(ct.level - 1)
    h = q_next // 2
    c = params.c
    c2 = 2 * c
    # round(x / c), ties away from zero, exactly in integers; then centered
    body = [((2 * x + c) // c2 + h) % q_next - h if x >= 0
            else (h - (c - 2 * x) // c2) % q_next - h
            for x in ct.body]
    ct_out = Ciphertext(
        body=body,
        level=ct.level - 1,
        scale_exponent=ct.scale_exponent - 1,
        noise_bound=ct.noise_bound / params.c + (params.hamming_weight + 1) / 2.0,
        debug_plaintext=ct.debug_plaintext,
    )
    return _budget_check(params, ct_out)


def bootstrap_emulated(keys: Keys, ct: Ciphertext,
                       poly: BootstrapPolynomial) -> tuple:
    """Refresh a level-0 ciphertext through the fitted polynomial.

    Emulation: the raw phase v = b + <a, s> is computed over the
    integers (this is where a real implementation would evaluate the
    polynomial homomorphically), the refresh polynomial is applied,
    and its rounded value is re-encrypted fresh at the top level.

    Raises RangeViolationError if the payload left the fitted interval
    and AssumptionViolationError if the wrap count exceeds the fitted K.
    Returns (fresh ciphertext, BootstrapEvent telemetry).  The recorded
    violation flag allows +1 on top of the certified relative bound for
    the final rounding to an integer plaintext.
    """
    params = keys.params
    if ct.level != 0:
        raise ValueError(f"bootstrap expects a level-0 ciphertext, got level {ct.level}")
    spec = poly.spec
    if abs(spec.q - params.q0) > 1e-9 * params.q0:
        raise ValueError(
            f"polynomial fitted for q = {spec.q}, scheme base modulus is {params.q0}"
        )
    v = _phase(keys, ct.body)
    m_plus_e = _centered(v, params.q0)
    r = (v - m_plus_e) // params.q0
    if abs(m_plus_e) > spec.epsilon * params.q0 / 2.0:
        raise RangeViolationError(
            f"|m + e| = {abs(m_plus_e)} exceeds eps*q0/2 = "
            f"{spec.epsilon * params.q0 / 2.0:.0f}"
        )
    if abs(r) > spec.K:
        raise AssumptionViolationError(f"wrap count {r} exceeds K = {spec.K}")

    w = float(poly(v))
    output = int(round(w))
    poly_error = abs(output - w)
    denom = max(1.0, abs(m_plus_e))
    relative_error = abs(output - m_plus_e) / denom
    violation = abs(output - m_plus_e) > poly.gamma_certified * abs(m_plus_e) + 1.0
    event = BootstrapEvent(
        r=int(r),
        m_plus_e=int(m_plus_e),
        output=output,
        poly_error=poly_error,
        relative_error=relative_error,
        violation=violation,
    )

    scale = float(params.c) ** ct.scale_exponent
    return _fresh(keys, output, params.L, ct.scale_exponent,
                  float(params.noise_bound), output / scale), event


def scheme_to_json(params: SchemeParams) -> dict:
    return {
        "n": params.n,
        "q0": params.q0,
        "c": params.c,
        "L": params.L,
        "noise_bound": params.noise_bound,
        "seed": params.seed,
        "hamming_weight": params.hamming_weight,
    }


def scheme_from_json(data: dict) -> SchemeParams:
    if not isinstance(data, dict):
        raise ValueError(f"scheme JSON must be an object, got {type(data).__name__}")
    required = ("n", "q0", "c", "L", "noise_bound", "seed")
    missing = [k for k in required if k not in data]
    if missing:
        raise ValueError(f"scheme JSON is missing fields: {', '.join(missing)}")
    kwargs = {k: data[k] for k in required + ("hamming_weight",) if k in data}
    return SchemeParams(**kwargs)


def save_scheme(path, params: SchemeParams):
    with open(path, "w") as fh:
        json.dump(scheme_to_json(params), fh, indent=2)
        fh.write("\n")


def load_scheme(path) -> SchemeParams:
    with open(path) as fh:
        return scheme_from_json(json.load(fh))
