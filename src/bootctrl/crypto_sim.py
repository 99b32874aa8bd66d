"""Toy leveled LWE-style scheme with an emulated bootstrapping step.

The scheme exists to validate certificates empirically, not to be
secure: parameters are tiny, and every ciphertext carries a debug
ledger (an ideal-plaintext shadow value plus a rigorously propagated
noise bound) so tests can assert the fidelity invariant

    |Dec(ct) - c**scale_exponent * debug_plaintext| <= noise_bound

after every operation.  Ciphertext bodies are lists of Python ints
(arbitrary precision), stored as centered residues in [-q/2, q/2): each
operation builds its body in list passes whose last one ends in
(x + h) % q - h with h = q // 2, and a fresh mask r in [0, q) is centered
as it is kept.

Homomorphic operations: add, matvec (plaintext matrix times ciphertext
vector; a plaintext scalar product is the 1x1 case) and rescale.
matvec takes an EncodedMatrix, which encode_matrix makes once per matrix
(a plain matrix is encoded on the way in), so the encrypted loop encodes
its controller matrices once per run.  Each matvec row folds its nonzero
terms two per list pass, s + f1*a + f2*b, and rescale rounds x / c as
(x + c//2) // c, or -((c//2 - x) // c) for negative x.

The secret is sparse and ternary: sk = (1, s) is nonzero on only
h + 1 of the n + 1 coordinates of an LWE ciphertext (b, a_1..a_n)
(h = hamming_weight), and every operation is coordinatewise, so no
other coordinate can reach a phase, a decryption, a wrap count or a
refresh.  A body therefore keeps only those h + 1 coordinates,
[b, a_i where s_i = +1, a_i where s_i = -1] (Keys._support order), and
the phase <body, sk> is the sum of the first 1 + #{s_i = +1} less the
sum of the rest, in exact integers.  A Ciphertext is thus not a
complete LWE ciphertext, and only the h masks it keeps are drawn:
encryption costs O(h), and n sets only the secret's positions and
bounds h.  Fresh noise and masks, uniform below a bound N, are
getrandbits((N - 1).bit_length()) draws until one is below N: exactly
keys.rng.randrange(N), call for call, when N is not a power of two, and
a single getrandbits(j), never rejected, when N = 2**j.

Modulus chain: q_level = q0 * c**level, level in 0..L, tabulated once
(with q_level / 2 as a float for the budget check) when the SchemeParams
is built.  One rescale consumes one level; the
emulated bootstrap consumes a level-0 ciphertext and returns a fresh
level-L one whose plaintext is the rounded value of the refresh
polynomial applied to the raw phase b + <a, s> over the integers.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, fields

from .bootpoly import BootstrapPolynomial
from .statespace import as_matrix, check_count, check_object, check_real, read_json, write_json

__all__ = [
    "SchemeParams",
    "Keys",
    "Ciphertext",
    "EncodedMatrix",
    "BootstrapEvent",
    "SchemeError",
    "CiphertextOverflowError",
    "NoLevelsLeftError",
    "RangeViolationError",
    "AssumptionViolationError",
    "LedgerViolationError",
    "keygen",
    "encrypt",
    "decrypt",
    "decrypt_raw",
    "add",
    "encode_matrix",
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


class LedgerViolationError(SchemeError):
    """A decrypted error exceeded the noise bound its ciphertext carries."""

    code = "LEDGER_VIOLATION"


@dataclass(frozen=True)
class SchemeParams:
    """Public parameters.

    n:             LWE dimension: keygen places the secret's nonzeros
                   among n positions, so n bounds hamming_weight; only the
                   hamming_weight masks on the support are drawn.
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
        low = {"n": 1, "q0": 2, "c": 2, "L": 0, "noise_bound": 0, "seed": 0, "hamming_weight": 1}
        for f in fields(self):
            object.__setattr__(self, f.name, check_count(getattr(self, f.name), f.name,
                                                         low.get(f.name)))
        if self.hamming_weight > self.n:
            raise ValueError(f"hamming_weight must be at most n = {self.n}, "
                             f"got {self.hamming_weight}")
        # not fields: equality, repr and JSON see only the parameters
        moduli = tuple(self.q0 * self.c ** ell for ell in range(self.L + 1))
        object.__setattr__(self, "_moduli", moduli)
        object.__setattr__(self, "_half_moduli", tuple(q / 2 for q in moduli))

    def modulus(self, level: int) -> int:
        if not 0 <= level <= self.L:
            raise ValueError(f"level {level} outside 0..{self.L}")
        return self._moduli[level]


@dataclass(frozen=True)
class Keys:
    """Secret key plus the RNG stream used for encryption randomness.

    s must hold params.n entries from {-1, 0, 1}, params.hamming_weight of
    them nonzero: the noise ledger's rescale rounding term and
    required_offset_range rest on that weight.  Its support is
    tabulated once (not fields; frozen so they cannot go stale): _support
    lists the mask indices i with s_i = +1, then those with s_i = -1, each
    in increasing order, and _k is one more than the number of +1 entries,
    so a body [b, a_i for i in _support] has phase
    sum(body[:_k]) - sum(body[_k:]).
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
        weight = sum(x != 0 for x in s)
        if weight != self.params.hamming_weight:
            raise ValueError(f"s has {weight} nonzero entries, but params.hamming_weight "
                             f"= {self.params.hamming_weight}")
        object.__setattr__(self, "s", tuple(int(x) for x in s))
        plus = tuple(i for i, x in enumerate(s) if x == 1)
        object.__setattr__(self, "_support",
                           plus + tuple(i for i, x in enumerate(s) if x == -1))
        object.__setattr__(self, "_k", 1 + len(plus))

    @property
    def sk(self):
        """Full secret key (1, s): decryption is <body, sk> mod q."""
        return (1,) + self.s


@dataclass
class Ciphertext:
    """body = [b, a_i for i in keys._support] with b + <a, s> = m + e
    (mod q_level).

    The body holds the h + 1 coordinates of the LWE ciphertext
    (b, a_1..a_n) on the secret's support; the masks off the support are
    never drawn.  The encoded integer m represents the real number
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
class EncodedMatrix:
    """A plaintext matrix encoded for matvec under the rescaling factor c.

    rows holds, for each entry M_ij, (f, |f|, |f - c*M_ij|, M_ij) with
    f = round(c*M_ij): the encoded integer, its size and its rounding
    error for the noise ledger, and the entry for the debug plaintext.
    """

    c: int
    rows: tuple


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
    """<body, sk> in exact integers: the +1 coordinates less the -1 ones."""
    k = keys._k
    return sum(body[:k]) - sum(body[k:])


def _centered(x: int, q: int) -> int:
    h = q // 2
    return (x + h) % q - h


def required_offset_range(params: SchemeParams, epsilon: float) -> int:
    """Smallest K certain to cover the bootstrap wrap count.

    |b + <a, s>| <= (h + 1) q / 2 for centered residues, so with the
    payload inside |m + e| <= eps*q/2 the wrap count satisfies
    |r| <= floor((h + 1 + eps) / 2).  epsilon must be a real number in
    (0, 1), as in bootpoly.BootstrapSpec, or ValueError is raised.
    """
    if not 0 < check_real(epsilon, "epsilon") < 1:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
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
    """ct, or CiphertextOverflowError; ct.level is one its maker checked."""
    half = params._half_moduli[ct.level]
    payload = abs(ct.debug_plaintext) * float(params.c) ** ct.scale_exponent
    if payload + ct.noise_bound >= half:
        raise CiphertextOverflowError(
            f"payload {payload:.3e} + noise {ct.noise_bound:.3e} "
            f"exceeds q/2 = {half:.3e} at level {ct.level}"
        )
    return ct


def _fresh(keys: Keys, m: int, level: int, scale_exponent: int,
           noise_bound: float, debug: float) -> Ciphertext:
    """Encrypt the encoded integer m afresh (draws e, then h masks).

    e + nb is uniform below n = 2 nb + 1 and each mask below q, by the
    module's rejection rule: k-bit draws, k = (n - 1).bit_length(), until
    one is below n (never rejected when n is a power of two).  Only the
    masks on the secret's support are drawn, in keys._support order, and
    kept centered, so the cost is O(h) whatever params.n is.
    b = m + e - <a, s> is the phase of the body with b set to 0.
    """
    params = keys.params
    q = params.modulus(level)
    h = q // 2
    top = q - h
    getrandbits = keys.rng.getrandbits
    nb = params.noise_bound
    n = 2 * nb + 1
    k = (n - 1).bit_length()
    e = getrandbits(k)
    while e >= n:
        e = getrandbits(k)
    k = (q - 1).bit_length()
    body = [0]
    for _ in keys._support:
        r = getrandbits(k)
        while r >= q:
            r = getrandbits(k)
        body.append(r if r < top else r - q)
    body[0] = (m + e - nb - _phase(keys, body) + h) % q - h
    ct = Ciphertext(
        body=body,
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
    value = check_real(value, "value")
    if level is None:
        level = params.L
    m = int(round(value * float(params.c) ** scale_exponent))
    return _fresh(keys, m, level, scale_exponent, params.noise_bound + 0.5, value)


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
    h = q // 2
    body = [(x + y + h) % q - h for x, y in zip(ct1.body, ct2.body)]
    ct = Ciphertext(
        body=body,
        level=ct1.level,
        scale_exponent=ct1.scale_exponent,
        noise_bound=ct1.noise_bound + ct2.noise_bound,
        debug_plaintext=ct1.debug_plaintext + ct2.debug_plaintext,
    )
    return _budget_check(params, ct)


def encode_matrix(params: SchemeParams, M) -> EncodedMatrix:
    """M (a finite 2-D matrix, named M in errors) encoded under params.c."""
    c = params.c
    return EncodedMatrix(c, tuple(
        tuple((f := int(round(c * m)), abs(f), abs(f - c * m), m) for m in row)
        for row in as_matrix(M, "M").tolist()))


def _fold(terms: list, h: int, q: int) -> list:
    """sum_j f_j x_j centered mod q, for terms [(f_j, x_j), ...] (at least one).

    Two terms per list pass, s + f1*a + f2*b, so k terms take ceil(k/2)
    passes: the first pass adds h = q // 2 and takes one term when k is
    odd, and the last one reduces, (s + h) % q - h.
    """
    f, x = terms.pop()
    if len(terms) % 2:
        g, y = terms.pop()
        if not terms:
            return [(f * a + g * b + h) % q - h for a, b in zip(x, y)]
        acc = [f * a + g * b + h for a, b in zip(x, y)]
    elif not terms:
        return [(f * a + h) % q - h for a in x]
    else:
        acc = [f * a + h for a in x]
    while len(terms) > 2:
        (f, x), (g, y) = terms.pop(), terms.pop()
        acc = [s + f * a + g * b for s, a, b in zip(acc, x, y)]
    (f, x), (g, y) = terms
    return [(s + f * a + g * b) % q - h for s, a, b in zip(acc, x, y)]


def matvec(params: SchemeParams, M, cts: list) -> list:
    """Encrypted y = M x for a plaintext matrix and a ciphertext vector.

    M is an EncodedMatrix for params.c, or a plain matrix, which is
    encoded here.  Each entry is encoded as round(c * M_ij); the result
    has scale_exponent raised by one.  Noise ledger per output row:
    sum_j |M_int_ij| nu_j + sum_j |round err_ij| * |x_j| * c**sigma.
    Each input's body and ledger are read once per call; each body sums
    f_ij x_j over the nonzero columns only (see _fold).
    """
    if not isinstance(M, EncodedMatrix):
        M = encode_matrix(params, M)
    elif M.c != params.c:
        raise ValueError(f"M was encoded for c = {M.c}, the scheme has c = {params.c}")
    if not M.rows:
        return []
    ncols = len(M.rows[0])
    if ncols != len(cts):
        raise ValueError(f"matrix has {ncols} columns, vector has {len(cts)}")
    if not cts:
        raise ValueError("the ciphertext vector cts is empty")
    level = cts[0].level
    sigma = cts[0].scale_exponent
    ins = [(ct.body, ct.noise_bound, abs(ct.debug_plaintext), ct.debug_plaintext)
           for ct in cts if ct.level == level and ct.scale_exponent == sigma]
    if len(ins) < len(cts):
        raise ValueError("ciphertext vector entries disagree on level or scale")
    q = params.modulus(level)
    h = q // 2
    scale_old = float(params.c) ** sigma
    out = []
    for row in M.rows:
        terms = []
        noise = 0.0
        debug = 0.0
        for (f, f_abs, round_err, m), (x, nu, d_abs, d) in zip(row, ins):
            if f:
                terms.append((f, x))
            noise += f_abs * nu
            noise += round_err * d_abs * scale_old
            debug += m * d
        body = _fold(terms, h, q) if terms else [0] * len(ins[0][0])
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

    round(x / c), ties away from zero, is (x + c//2) // c for x >= 0 and
    -((c//2 - x) // c) for x < 0, exactly in integers: the same as
    (2x + c) // (2c) and its mirror for every integer c >= 1, ties
    included.  Rounding each of the h + 1 body coordinates (the secret's
    support) by at most 1/2 perturbs the phase by at most
    (hamming_weight + 1)/2 through the secret key.
    """
    if ct.level == 0:
        raise NoLevelsLeftError("rescale at level 0")
    q_next = params.modulus(ct.level - 1)
    h = q_next // 2
    c = params.c
    half = c // 2
    body = [((x + half) // c + h) % q_next - h if x >= 0
            else (h - (half - x) // c) % q_next - h
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
    return {f.name: getattr(params, f.name) for f in fields(params)}


def scheme_from_json(data: dict) -> SchemeParams:
    """SchemeParams from its JSON object; hamming_weight may be left out."""
    check_object(data, "scheme", ("n", "q0", "c", "L", "noise_bound", "seed"))
    return SchemeParams(**{f.name: data[f.name] for f in fields(SchemeParams)
                           if f.name in data})


def save_scheme(path, params: SchemeParams):
    write_json(path, scheme_to_json(params))


def load_scheme(path) -> SchemeParams:
    return scheme_from_json(read_json(path))
