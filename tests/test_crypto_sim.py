"""Homomorphic toy layer: decryption correctness, the noise ledger as a
sound overapproximation under fuzzing, rescaling, the emulated refresh,
and parameter serialization."""

import hashlib
import json
import random
from collections import Counter
from dataclasses import FrozenInstanceError, fields, replace
from operator import mul

import numpy as np
import pytest

import bootctrl.crypto_sim as cs
from bootctrl.bootpoly import BootstrapSpec, fit


@pytest.fixture(scope="module")
def small_scheme():
    return cs.SchemeParams(n=16, q0=2 ** 42, c=2 ** 16, L=4, noise_bound=8,
                           seed=3, hamming_weight=4)


@pytest.fixture(scope="module")
def keys(small_scheme):
    return cs.keygen(small_scheme)


@pytest.fixture(scope="module")
def q0_poly(fitted_poly, small_scheme):
    return fitted_poly.rescaled(float(small_scheme.q0))


def fidelity_ok(keys, ct):
    return cs.fidelity_error(keys, ct) <= ct.noise_bound


# --------------------------------------------------------------------------
# parameters and keys


def test_parameter_validation():
    with pytest.raises(ValueError):
        cs.SchemeParams(n=0)
    with pytest.raises(ValueError):
        cs.SchemeParams(hamming_weight=0)
    with pytest.raises(ValueError, match="^hamming_weight must be at most n = 16, got 17$"):
        cs.SchemeParams(hamming_weight=17, n=16)
    with pytest.raises(ValueError):
        cs.SchemeParams(noise_bound=-1)


@pytest.mark.parametrize("name, low", [
    ("n", 1), ("q0", 2), ("c", 2), ("L", 0), ("noise_bound", 0), ("seed", 0),
    ("hamming_weight", 1),
])
def test_parameter_lower_bounds_name_the_field(name, low):
    with pytest.raises(ValueError, match=f"^{name} must be at least {low}, got {low - 1}$"):
        cs.SchemeParams(**{name: low - 1})
    assert getattr(cs.SchemeParams(**{"hamming_weight": 1, name: low}), name) == low


@pytest.mark.parametrize("name", [f.name for f in fields(cs.SchemeParams)])
def test_parameter_fields_must_be_integers(name):
    """Floats (even integral ones), bools and strings are rejected for every
    field; numpy integers are converted to int."""
    default = getattr(cs.SchemeParams(), name)
    for value in (float(default), default + 0.5, True, False, str(default),
                  None):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            cs.SchemeParams(**{name: value})
    for cast in (np.int64, np.uint64):
        params = cs.SchemeParams(**{name: cast(default)})
        assert type(getattr(params, name)) is int
        assert params == cs.SchemeParams()


def test_scheme_json_refuses_a_negative_seed():
    """random.Random seeds with the absolute value, so seed -5 would give
    seed 5's secret key."""
    data = cs.scheme_to_json(cs.SchemeParams(seed=5))
    data["seed"] = -5
    with pytest.raises(ValueError, match="^seed must be at least 0, got -5$"):
        cs.scheme_from_json(data)


def test_modulus_chain(small_scheme):
    for scheme in (small_scheme, replace(small_scheme, L=7, c=3)):
        assert scheme._moduli == tuple(scheme.q0 * scheme.c ** ell
                                       for ell in range(scheme.L + 1))
        for level in range(scheme.L + 1):
            assert scheme.modulus(level) == scheme.q0 * scheme.c ** level
        with pytest.raises(ValueError):
            scheme.modulus(scheme.L + 1)
        with pytest.raises(ValueError):
            scheme.modulus(-1)


def test_moduli_table_is_not_a_field(small_scheme):
    """The cached table leaves equality, hashing, repr and JSON as they
    were: only the seven parameters take part."""
    twin = cs.SchemeParams(n=16, q0=2 ** 42, c=2 ** 16, L=4, noise_bound=8,
                           seed=3, hamming_weight=4)
    assert twin == small_scheme and hash(twin) == hash(small_scheme)
    assert twin != replace(small_scheme, L=5)
    assert [f.name for f in fields(cs.SchemeParams)] == [
        "n", "q0", "c", "L", "noise_bound", "seed", "hamming_weight"]
    assert "_moduli" not in repr(small_scheme)
    assert cs.scheme_to_json(small_scheme) == {
        "n": 16, "q0": 2 ** 42, "c": 2 ** 16, "L": 4, "noise_bound": 8,
        "seed": 3, "hamming_weight": 4}
    loaded = cs.scheme_from_json(json.loads(json.dumps(
        cs.scheme_to_json(small_scheme))))
    assert loaded == small_scheme and loaded._moduli == small_scheme._moduli


def _centered_two_line(x, q):
    """The earlier centering, kept here as the oracle."""
    x %= q
    return x - q if x >= q - q // 2 else x


@pytest.mark.parametrize("q", [2, 3, 1000003, 2 ** 42, 2 ** 202, 3 ** 130],
                         ids=["2", "3", "1000003", "2^42", "2^202", "3^130"])
def test_centering_formula_matches_two_line_form(q):
    h = q // 2
    offsets = (-h - 1, -h, -h + 1, -1, 0, 1, h - 1, h, h + 1)
    values = [k * q + d for k in range(-3, 4) for d in offsets]
    rnd = random.Random(q)
    values += [rnd.randrange(-5 * q, 5 * q) for _ in range(20_000)]
    for x in values:
        want = _centered_two_line(x, q)
        assert (x + h) % q - h == want
        assert cs._centered(x, q) == want
        assert -h <= want < q - h


def test_keygen_deterministic_and_sparse(small_scheme):
    k1 = cs.keygen(small_scheme)
    k2 = cs.keygen(small_scheme)
    assert k1.s == k2.s
    assert sum(1 for si in k1.s if si != 0) == small_scheme.hamming_weight
    assert all(si in (-1, 0, 1) for si in k1.s)
    assert k1.sk[0] == 1
    with pytest.raises(FrozenInstanceError):
        k1.s = (0,) * small_scheme.n  # the support tables would go stale


@pytest.mark.parametrize("s", [(0,) * 15, (0,) * 17, (0,) * 15 + (2,),
                               (-2,) + (0,) * 15, (0,) * 15 + (0.5,)],
                         ids=["short", "long", "two", "minus_two", "half"])
def test_keys_reject_bad_secret(small_scheme, s):
    with pytest.raises(ValueError, match="s "):
        cs.Keys(small_scheme, s=s, rng=random.Random(0))


def test_keys_reject_a_secret_of_another_weight():
    """A secret must have params.hamming_weight nonzero entries: the noise
    ledger's rescale rounding term and required_offset_range assume it."""
    params = cs.SchemeParams(n=16, hamming_weight=1)
    with pytest.raises(ValueError, match="^s has 16 nonzero entries, but "
                       "params.hamming_weight = 1$"):
        cs.Keys(params, s=(1,) * 16, rng=random.Random(0))
    with pytest.raises(ValueError, match="^s has 0 nonzero entries"):
        cs.Keys(params, s=(0,) * 16, rng=random.Random(0))
    assert cs.Keys(params, s=(0,) * 15 + (-1,), rng=random.Random(0))._k == 1


def _secret(n, weight, rnd):
    s = [0] * n
    for pos in rnd.sample(range(n), weight):
        s[pos] = rnd.choice((-1, 1))
    return tuple(s)


# --------------------------------------------------------------------------
# full-body reference: the scheme with complete LWE bodies (b, a_1..a_n),
# as it was before bodies kept only the secret's support, kept here as the
# oracle (matvec's is _matvec_per_entry below, which works on any body)


def _project(keys, body):
    """The compact body of a full one (b, a_1..a_n): b, then the a_i where
    s_i = +1, then those where s_i = -1, each in index order."""
    a = body[1:]
    return ([body[0]] + [x for x, si in zip(a, keys.s) if si == 1]
            + [x for x, si in zip(a, keys.s) if si == -1])


def _ref_decrypt_raw(keys, ct):
    """<body, sk> over the full body, centered."""
    return cs._centered(sum(map(mul, ct.body, keys.sk)), keys.params.modulus(ct.level))


def _ref_fresh(keys, m, level, scale_exponent, noise_bound, debug):
    """e = rng.randint(-nb, nb), then a_i = rng.randrange(q) for every i,
    centered, and b = m + e - <a, s> centered."""
    params = keys.params
    q = params.modulus(level)
    e = keys.rng.randint(-params.noise_bound, params.noise_bound)
    a = [cs._centered(keys.rng.randrange(q), q) for _ in range(params.n)]
    b = cs._centered(m + e - sum(map(mul, a, keys.s)), q)
    return cs._budget_check(params, cs.Ciphertext(
        body=[b] + a, level=level, scale_exponent=scale_exponent,
        noise_bound=noise_bound, debug_plaintext=debug))


def _ref_encrypt(keys, value, level=None, scale_exponent=1):
    params = keys.params
    level = params.L if level is None else level
    m = int(round(value * float(params.c) ** scale_exponent))
    return _ref_fresh(keys, m, level, scale_exponent, params.noise_bound + 0.5, value)


def _ref_add(params, ct1, ct2):
    return cs._budget_check(params, cs.Ciphertext(
        body=_add_centered(params, ct1, ct2), level=ct1.level,
        scale_exponent=ct1.scale_exponent,
        noise_bound=ct1.noise_bound + ct2.noise_bound,
        debug_plaintext=ct1.debug_plaintext + ct2.debug_plaintext))


def _ref_rescale(params, ct):
    if ct.level == 0:
        raise cs.NoLevelsLeftError("rescale at level 0")
    q_next = params.modulus(ct.level - 1)
    return cs._budget_check(params, cs.Ciphertext(
        body=[cs._centered(_round_half_away(x, params.c), q_next) for x in ct.body],
        level=ct.level - 1, scale_exponent=ct.scale_exponent - 1,
        noise_bound=ct.noise_bound / params.c + (params.hamming_weight + 1) / 2.0,
        debug_plaintext=ct.debug_plaintext))


def _ref_bootstrap(keys, ct, poly):
    """The emulated refresh on the dense phase <body, sk>."""
    params = keys.params
    v = sum(map(mul, ct.body, keys.sk))
    m_plus_e = cs._centered(v, params.q0)
    r = (v - m_plus_e) // params.q0
    if abs(m_plus_e) > poly.spec.epsilon * params.q0 / 2.0:
        raise cs.RangeViolationError("|m + e| exceeds eps*q0/2")
    if abs(r) > poly.spec.K:
        raise cs.AssumptionViolationError(f"wrap count {r} exceeds K = {poly.spec.K}")
    w = float(poly(v))
    output = int(round(w))
    event = cs.BootstrapEvent(
        r=r, m_plus_e=m_plus_e, output=output, poly_error=abs(output - w),
        relative_error=abs(output - m_plus_e) / max(1.0, abs(m_plus_e)),
        violation=abs(output - m_plus_e) > poly.gamma_certified * abs(m_plus_e) + 1.0)
    scale = float(params.c) ** ct.scale_exponent
    return _ref_fresh(keys, output, params.L, ct.scale_exponent,
                      float(params.noise_bound), output / scale), event


def _same(keys, ct, ref_keys, ref):
    """ct is ref's projection: support coordinates, level, scale, ledger
    and decryption all equal."""
    assert ct.body == _project(ref_keys, ref.body)
    assert (ct.level, ct.scale_exponent, ct.noise_bound, ct.debug_plaintext) \
        == (ref.level, ref.scale_exponent, ref.noise_bound, ref.debug_plaintext)
    raw = cs.decrypt_raw(keys, ct)
    assert raw == _ref_decrypt_raw(ref_keys, ref)
    assert cs.fidelity_error(keys, ct) \
        == abs(raw - float(ref_keys.params.c) ** ref.scale_exponent * ref.debug_plaintext)


def test_support_phase_matches_dense_inner_product():
    """The phase of a compact body equals the dense <body, sk> of the full
    body it projects, on random bodies, from a weight-1 secret to
    full-weight, all +1 and all -1 ones; a body holds h + 1 coordinates."""
    rnd = random.Random(5)
    secrets = [_secret(16, w, rnd) for w in (1, 1, 4, 16, 16)]
    secrets += [(1,) * 16, (-1,) * 16, (0,) * 15 + (1,), (-1,) + (0,) * 15]
    for s in secrets:
        params = cs.SchemeParams(n=16, hamming_weight=sum(map(abs, s)))
        q = params.modulus(params.L)
        keys = cs.Keys(params, s=s, rng=random.Random(0))
        for _ in range(200):
            full = [rnd.randrange(-q // 2, q - q // 2) for _ in range(17)]
            body = _project(keys, full)
            assert len(body) == 1 + sum(map(abs, s))
            assert cs._phase(keys, body) == sum(map(mul, full, keys.sk))
            ct = cs.Ciphertext(body=body, level=params.L, scale_exponent=1,
                               noise_bound=0.0, debug_plaintext=0.0)
            assert cs.decrypt_raw(keys, ct) == cs._centered(
                sum(map(mul, full, keys.sk)), q)


@pytest.mark.parametrize("q", [2, 3, 5, 7, 2 ** 42, 2 ** 202, 1000003 * 7 ** 5,
                               2 ** 58 - 1, 2 ** 58 + 1],
                         ids=["2", "3", "5", "7", "2^42", "2^202", "1000003*7^5",
                              "2^58-1", "2^58+1"])
def test_mask_sampler_is_randrange(q):
    """Fresh masks are keys.rng.randrange(q) draw for draw: every mask is
    drawn, the kept ones are the support's (centered), and the generator
    state is the same after 8,000 draws."""
    params = cs.SchemeParams(n=16, q0=q, c=2, L=0, noise_bound=0,
                             hamming_weight=3)
    keys = cs.keygen(params)
    ref = random.Random()
    ref.setstate(keys.rng.getstate())
    for _ in range(500):
        ct = cs._fresh(keys, 0, 0, 1, 0.0, 0.0)
        e = ref.randint(0, 0)
        a = [ref.randrange(q) for _ in range(params.n)]
        assert ct.body[1:] == _project(keys, [0] + [cs._centered(x, q) for x in a])[1:]
        assert cs.decrypt_raw(keys, ct) == cs._centered(e, q)
    assert keys.rng.getstate() == ref.getstate()


def test_required_offset_range(small_scheme):
    # h = 4, eps = 0.5: floor((4 + 1 + 0.5) / 2) = 2
    assert cs.required_offset_range(small_scheme, 0.5) == 2
    dense = cs.SchemeParams(n=16, hamming_weight=16)
    assert cs.required_offset_range(dense, 0.5) == 8  # dense keys need big K


# --------------------------------------------------------------------------
# encrypt/decrypt and arithmetic


def test_roundtrip_within_noise(keys, small_scheme):
    rng = np.random.default_rng(0)
    for _ in range(50):
        value = float(rng.uniform(-100, 100))
        level = int(rng.integers(0, small_scheme.L + 1))
        ct = cs.encrypt(keys, value, level=level)
        assert ct.level == level and ct.scale_exponent == 1
        assert abs(cs.decrypt(keys, ct) - value) \
            <= ct.noise_bound / small_scheme.c
        assert fidelity_ok(keys, ct)


def test_encrypt_rejects_non_finite(keys):
    for value in (float("inf"), float("-inf"), float("nan"), np.float64("nan")):
        with pytest.raises(ValueError, match="^value must be a finite real number, got "):
            cs.encrypt(keys, value)


def _kernel_chain(fitted_poly, ops):
    """keys, every ciphertext and every refresh event of a short encrypt /
    matvec / rescale / bootstrap chain on q0 = 1000003, c = 7, where the
    mask sampler rejects draws at other rates than on power-of-two moduli,
    run with the kernels ops = (encrypt, matvec, rescale, bootstrap)."""
    encrypt, matvec, rescale, bootstrap = ops
    params = cs.SchemeParams(n=16, q0=1000003, c=7, L=3, noise_bound=8,
                             seed=5, hamming_weight=4)
    keys = cs.keygen(params)
    poly = fitted_poly.rescaled(float(params.q0))
    rnd = random.Random(11)
    M = [[0.9, -0.2, 0.1, 1.0], [0.1, 0.8, -0.3, 0.5], [-0.2, 0.1, 0.7, -1.0]]
    made, events = [], []
    x = [encrypt(keys, rnd.uniform(-50, 50)) for _ in range(3)]
    made += x
    for _ in range(2 * params.L + 1):
        if x[0].level == 0:
            pairs = [bootstrap(keys, ct, poly) for ct in x]
            x = [ct for ct, _ in pairs]
            events += [ev for _, ev in pairs]
            made += x
        w = encrypt(keys, rnd.uniform(-50, 50), level=x[0].level)
        y = matvec(params, M, x + [w])
        x = [rescale(params, ct) for ct in y]
        made += [w] + y + x
    assert len(made) == 58 and len(events) == 6
    return keys, made, events


def test_kernels_are_pinned_on_non_power_of_two_moduli(fitted_poly):
    """The full-body reference chain hashes (every body and ledger entry,
    then the refresh events) to the digest pinned on full bodies, and the
    library's chain is its projection, event for event."""
    ref_keys, ref_made, ref_events = _kernel_chain(
        fitted_poly, (_ref_encrypt, _matvec_per_entry, _ref_rescale, _ref_bootstrap))
    h = hashlib.sha256()
    for ct in ref_made:
        h.update(repr((ct.body, ct.level, ct.scale_exponent, ct.noise_bound,
                       ct.debug_plaintext)).encode())
    h.update(repr(ref_events).encode())
    assert h.hexdigest() == \
        "80e5ee81b038d822e8afe8c8a75222d8a11f6df7c3c724470a02a914bc8d5330"
    keys, made, events = _kernel_chain(
        fitted_poly, (cs.encrypt, cs.matvec, cs.rescale, cs.bootstrap_emulated))
    for ct, ref in zip(made, ref_made, strict=True):
        _same(keys, ct, ref_keys, ref)
    assert events == ref_events
    assert keys.rng.getstate() == ref_keys.rng.getstate()


def test_add_and_scalar_matvec(keys, small_scheme):
    a = cs.encrypt(keys, 2.5, level=2)
    b = cs.encrypt(keys, -1.25, level=2)
    s = cs.add(small_scheme, a, b)
    assert s.debug_plaintext == 1.25
    assert fidelity_ok(keys, s)
    assert abs(cs.decrypt(keys, s) - 1.25) <= s.noise_bound / small_scheme.c

    p = cs.matvec(small_scheme, [[-0.75]], [a])[0]
    assert p.scale_exponent == 2
    assert p.debug_plaintext == pytest.approx(-1.875)
    assert fidelity_ok(keys, p)


def _add_centered(params, ct1, ct2):
    """The earlier add body, one _centered call per coordinate, kept here
    as the oracle."""
    q = params.modulus(ct1.level)
    return [cs._centered(x + y, q) for x, y in zip(ct1.body, ct2.body)]


def test_add_matches_centered_form(keys, small_scheme):
    """Random ciphertexts, and bodies whose sums sit on and next to the
    wrap points -q/2 and q/2."""
    rnd = random.Random(4)
    q = small_scheme.modulus(1)
    h = q // 2
    edge = [-h, -h + 1, -1, 0, 1, h - 2, h - 1]
    pairs = [[cs.Ciphertext(body=body, level=1, scale_exponent=1, noise_bound=0.0,
                            debug_plaintext=0.0)
              for body in (edge, [d + x for x in edge])] for d in (-1, 0, 1, h, -h)]
    for _ in range(300):
        level = rnd.randrange(small_scheme.L + 1)
        pairs.append([cs.encrypt(keys, rnd.uniform(-1e3, 1e3), level=level)
                      for _ in range(2)])
    for a, b in pairs:
        s = cs.add(small_scheme, a, b)
        assert s.body == _add_centered(small_scheme, a, b)
        assert s.noise_bound == a.noise_bound + b.noise_bound
        assert s.debug_plaintext == a.debug_plaintext + b.debug_plaintext


def test_add_rejects_mismatched_operands(keys, small_scheme):
    a = cs.encrypt(keys, 1.0, level=2)
    b = cs.encrypt(keys, 1.0, level=1)
    with pytest.raises(ValueError, match="disagree"):
        cs.add(small_scheme, a, b)


def test_matvec_matches_plaintext(keys, small_scheme):
    rng = np.random.default_rng(1)
    M = rng.uniform(-1.5, 1.5, (3, 4))
    x = rng.uniform(-20, 20, 4)
    cts = [cs.encrypt(keys, float(v), level=3) for v in x]
    out = cs.matvec(small_scheme, M, cts)
    want = M @ x
    for ct, w in zip(out, want):
        assert ct.scale_exponent == 2
        assert ct.debug_plaintext == pytest.approx(w, abs=1e-12)
        assert fidelity_ok(keys, ct)
        assert abs(cs.decrypt(keys, ct) - w) <= ct.noise_bound / small_scheme.c ** 2


def test_matvec_zero_row_gives_zero_body(keys, small_scheme):
    cts = [cs.encrypt(keys, v, level=3) for v in (4.0, -7.5)]
    zero, live = cs.matvec(small_scheme, [[0.0, 0.0], [1.0, 0.5]], cts)
    assert zero.body == [0] * (small_scheme.hamming_weight + 1)
    assert zero.noise_bound == 0.0 and zero.debug_plaintext == 0.0
    assert (zero.level, zero.scale_exponent) == (3, 2)
    assert cs.fidelity_error(keys, zero) == 0.0
    assert fidelity_ok(keys, live) and live.debug_plaintext == 0.25


def test_matvec_same_for_list_and_array(keys, small_scheme):
    rng = np.random.default_rng(2)
    M = rng.uniform(-1.5, 1.5, (3, 4))
    cts = [cs.encrypt(keys, float(v), level=2) for v in rng.uniform(-9, 9, 4)]
    assert cs.matvec(small_scheme, M, cts) \
        == cs.matvec(small_scheme, M.tolist(), cts)


def _matvec_per_entry(params, M, cts):
    """The earlier matvec, which encoded every entry on every call and
    took one pass per column and one more to center, kept here as the
    oracle."""
    rows = len(M)
    if rows == 0:
        return []
    level = cts[0].level
    sigma = cts[0].scale_exponent
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
        out.append(cs._budget_check(params, cs.Ciphertext(
            body=body, level=level, scale_exponent=sigma + 1,
            noise_bound=noise, debug_plaintext=debug)))
    return out


def _outcome(kernel, *args):
    """Every output body and ledger entry."""
    return [(ct.body, ct.level, ct.scale_exponent, ct.noise_bound,
             ct.debug_plaintext) for ct in kernel(*args)]


@pytest.mark.parametrize("params", [
    cs.SchemeParams(n=16, q0=2 ** 42, c=2 ** 16, L=4, noise_bound=8, seed=3),
    cs.SchemeParams(n=16, q0=1000003, c=7, L=6, noise_bound=8, seed=5),
], ids=["c=2^16", "c=7"])
def test_matvec_matches_per_entry_oracle(params):
    """On random matrices from 1x1 to 4x9, with zero rows and zero entries,
    at every level and scale exponents 1 and 2, and on 1 x cols rows with
    0 to cols zero entries interleaved (every odd and even term count of
    the two-term fold), the kernel (given the plain matrix or its
    encoding) returns exactly the oracle's bodies, noise bounds and debug
    values."""
    keys = cs.keygen(params)
    c, h = params.c, params.modulus(1) // 2
    for sign in (1, -1):  # sums on and next to the wrap points +-q/2
        edge = [cs.Ciphertext(body=body, level=1, scale_exponent=1, noise_bound=0.0,
                              debug_plaintext=0.0)
                for body in ([sign * (h // c)] * 3, [sign * (h % c) + d for d in (-1, 0, 1)])]
        assert _outcome(cs.matvec, params, [[1.0, 1 / c]], edge) \
            == _outcome(_matvec_per_entry, params, [[1.0, 1 / c]], edge)
    rnd = random.Random(params.c)
    rng = np.random.default_rng(params.c)
    for _ in range(400):
        rows, cols = rnd.randint(1, 4), rnd.randint(1, 9)
        M = rng.uniform(-2, 2, (rows, cols))
        M[rng.random((rows, cols)) < 0.3] = 0.0
        if rnd.random() < 0.3:
            M[rnd.randrange(rows)] = 0.0
        M[rng.random((rows, cols)) < 0.1] *= 1e-9  # rounds to a zero integer
        level, sigma = rnd.randint(0, params.L), rnd.randint(1, 2)
        bound = 0.2 * params.modulus(level) / float(params.c) ** (sigma + 1) / cols
        cts = [cs.encrypt(keys, rnd.uniform(-bound, bound), level=level,
                          scale_exponent=sigma) for _ in range(cols)]
        want = _outcome(_matvec_per_entry, params, M, cts)
        assert _outcome(cs.matvec, params, M, cts) == want
        assert _outcome(cs.matvec, params, cs.encode_matrix(params, M), cts) == want
    level = params.L
    for cols in range(1, 10):  # one row, as a FIR window row: every term count
        cts = [cs.encrypt(keys, rnd.uniform(-1e3, 1e3), level=level)
               for _ in range(cols)]
        for zeros in range(cols + 1):  # zero entries interleaved, then all zero
            M = rng.uniform(0.1, 2, (1, cols)) * rng.choice((-1.0, 1.0), (1, cols))
            M[0, rng.permutation(cols)[:zeros]] = 0.0
            assert _outcome(cs.matvec, params, M, cts) \
                == _outcome(_matvec_per_entry, params, M, cts)


def test_encode_matrix_entries(small_scheme):
    c = small_scheme.c
    enc = cs.encode_matrix(small_scheme, [[0.5, -1.25e-5], [0.0, 3]])
    assert enc.c == c
    assert enc.rows == (
        ((c // 2, c // 2, 0.0, 0.5), (-1, 1, abs(-1 + c * 1.25e-5), -1.25e-5)),
        ((0, 0, 0.0, 0.0), (3 * c, 3 * c, 0.0, 3.0)))
    assert all(type(e[0]) is int and type(e[3]) is float
               for row in enc.rows for e in row)


def test_matvec_refuses_a_matrix_encoded_for_another_c(keys, small_scheme):
    cts = [cs.encrypt(keys, 1.0, level=2)]
    enc = cs.encode_matrix(replace(small_scheme, c=2 ** 15), [[0.5]])
    with pytest.raises(ValueError, match=r"^M was encoded for c = 32768, "
                                         r"the scheme has c = 65536$"):
        cs.matvec(small_scheme, enc, cts)


@pytest.mark.parametrize("M, message", [
    ([[1.0, np.inf]], "^M contains non-finite entries$"),
    ([[-np.inf], [0.5]], "^M contains non-finite entries$"),
    ([[np.nan, 1.0]], "^M contains non-finite entries$"),
    ([[1.0, 2.0], [3.0]], "^M is not a numeric matrix: "),
], ids=["inf", "minus_inf", "nan", "ragged"])
def test_bad_plaintext_matrix_is_named(keys, small_scheme, M, message):
    cts = [cs.encrypt(keys, 1.0, level=2) for _ in range(2)]
    with pytest.raises(ValueError, match=message):
        cs.encode_matrix(small_scheme, M)
    with pytest.raises(ValueError, match=message):
        cs.matvec(small_scheme, M, cts[:len(M[0])])


@pytest.mark.parametrize("M", [np.zeros((1, 0)), []], ids=["1x0", "empty_list"])
def test_matvec_refuses_an_empty_ciphertext_vector(small_scheme, M):
    with pytest.raises(ValueError, match="^the ciphertext vector cts is empty$"):
        cs.matvec(small_scheme, M, [])


def test_matvec_rejects_ragged_levels(keys, small_scheme):
    cts = [cs.encrypt(keys, 1.0, level=2), cs.encrypt(keys, 1.0, level=1)]
    with pytest.raises(ValueError, match="disagree"):
        cs.matvec(small_scheme, np.ones((1, 2)), cts)


def test_matvec_checks_the_column_count_and_takes_a_matrix_without_rows(keys,
                                                                        small_scheme):
    cts = [cs.encrypt(keys, 1.0, level=2)]
    with pytest.raises(ValueError, match="^matrix has 2 columns, vector has 1$"):
        cs.matvec(small_scheme, np.ones((1, 2)), cts)
    assert cs.matvec(small_scheme, np.zeros((0, 1)), cts) == []


def _round_half_away(num, den):
    """The earlier rescale rounding helper, kept here as the oracle."""
    if num >= 0:
        return (2 * num + den) // (2 * den)
    return -((-2 * num + den) // (2 * den))


@pytest.mark.parametrize("c", [2, 3, 2 ** 16, 10 ** 9 + 7])
def test_rescale_rounding_matches_helper(small_scheme, c):
    scheme = replace(small_scheme, c=c)
    q_next = scheme.modulus(0)
    h = q_next // 2
    # ties (x = k c + c/2 for even c) and their neighbours, both signs
    values = [k * c + d for k in range(-4, 5)
              for d in (-(c // 2) - 1, -(c // 2), -(c // 2) + 1, -1, 0, 1,
                        c // 2 - 1, c // 2, c // 2 + 1)]
    rnd = random.Random(c)
    values += [rnd.randrange(-2 ** 200, 2 ** 200) for _ in range(20_000)]
    values += [rnd.randrange(-scheme.modulus(1), scheme.modulus(1)) for _ in range(1_000)]
    ct = cs.Ciphertext(body=values, level=1, scale_exponent=1, noise_bound=0.0,
                       debug_plaintext=0.0)
    out = cs.rescale(scheme, ct)
    assert out.body == [(_round_half_away(x, c) + h) % q_next - h for x in values]
    assert all(type(b) is int for b in out.body)


def test_rescale_drops_level_and_scale(keys, small_scheme):
    ct = cs.encrypt(keys, 7.5, level=2, scale_exponent=1)
    ct2 = cs.matvec(small_scheme, [[1.5]], [ct])[0]  # scale 2
    out = cs.rescale(small_scheme, ct2)
    assert out.level == 1 and out.scale_exponent == 1
    assert out.debug_plaintext == pytest.approx(11.25)
    assert fidelity_ok(keys, out)
    level0 = cs.rescale(small_scheme, cs.matvec(small_scheme, [[1.0]], [
        cs.encrypt(keys, 1.0, level=1)])[0])
    with pytest.raises(cs.NoLevelsLeftError):
        cs.rescale(small_scheme, level0)


def test_budget_overflow_rejected(keys, small_scheme):
    huge = small_scheme.q0 / small_scheme.c  # payload ~ q0/2 after encoding
    with pytest.raises(cs.CiphertextOverflowError):
        cs.encrypt(keys, huge, level=0)


# --------------------------------------------------------------------------
# noise-ledger soundness (fuzz)


def test_noise_ledger_sound_under_random_circuits(keys, small_scheme):
    """The ledger bound |Dec_raw - c**sigma * debug| <= nu must hold after
    every operation of random add/scalar/matvec/rescale circuits."""
    rng = np.random.default_rng(2024)
    checks = 0
    for _ in range(60):
        level = int(rng.integers(1, small_scheme.L + 1))
        cts = [cs.encrypt(keys, float(rng.uniform(-50, 50)), level=level)
               for _ in range(3)]
        for ct in cts:
            assert fidelity_ok(keys, ct)
            checks += 1
        for _ in range(8):
            op = rng.integers(0, 4)
            try:
                if op == 0:
                    i, j = rng.integers(0, len(cts), 2)
                    if cts[i].level == cts[j].level and \
                            cts[i].scale_exponent == cts[j].scale_exponent:
                        cts[i] = cs.add(small_scheme, cts[i], cts[j])
                elif op == 1:
                    i = rng.integers(0, len(cts))
                    cts[i] = cs.matvec(small_scheme,
                                       [[float(rng.uniform(-2, 2))]],
                                       [cts[i]])[0]
                elif op == 2 and all(
                        c.level == cts[0].level
                        and c.scale_exponent == cts[0].scale_exponent
                        for c in cts):
                    M = rng.uniform(-1, 1, (3, 3))
                    cts = cs.matvec(small_scheme, M, cts)
                else:
                    i = rng.integers(0, len(cts))
                    if cts[i].level > 0 and cts[i].scale_exponent > 1:
                        cts[i] = cs.rescale(small_scheme, cts[i])
            except cs.CiphertextOverflowError:
                pass  # budget exhausted on this path; ledger still applies
            for ct in cts:
                assert fidelity_ok(keys, ct)
                checks += 1
    assert checks > 1000


# --------------------------------------------------------------------------
# emulated refresh


def test_bootstrap_restores_top_level(keys, small_scheme, q0_poly):
    ct = cs.encrypt(keys, 3.25, level=0)
    fresh, event = cs.bootstrap_emulated(keys, ct, q0_poly)
    assert fresh.level == small_scheme.L
    assert fresh.scale_exponent == ct.scale_exponent
    assert fresh.noise_bound == float(small_scheme.noise_bound)
    assert fidelity_ok(keys, fresh)
    assert not event.violation
    assert abs(event.r) <= q0_poly.spec.K
    # refreshed payload close to the original: certified slope plus the
    # encryption noise and integer rounding, all scaled down by c
    slack = (small_scheme.noise_bound + 2.0) / small_scheme.c
    assert abs(fresh.debug_plaintext - 3.25) \
        <= q0_poly.gamma_certified * 3.25 + slack


def test_bootstrap_relative_error_certified(keys, small_scheme, q0_poly):
    """2000 refreshes across the payload range: the output always respects
    the certified slope plus the one-integer rounding allowance."""
    rng = np.random.default_rng(9)
    half = q0_poly.spec.epsilon * small_scheme.q0 / 2
    worst = 0.0
    for _ in range(2000):
        value = float(rng.uniform(-half, half)) / small_scheme.c
        ct = cs.encrypt(keys, value, level=0)
        fresh, ev = cs.bootstrap_emulated(keys, ct, q0_poly)
        assert not ev.violation
        assert abs(ev.output - ev.m_plus_e) \
            <= q0_poly.gamma_certified * abs(ev.m_plus_e) + 1.0
        worst = max(worst, ev.relative_error)
    assert worst <= q0_poly.gamma_certified + 1e-3


def test_bootstrap_requires_level_zero(keys, q0_poly):
    ct = cs.encrypt(keys, 1.0, level=1)
    with pytest.raises(ValueError, match="level-0"):
        cs.bootstrap_emulated(keys, ct, q0_poly)


def test_bootstrap_requires_matching_modulus(keys, fitted_poly):
    ct = cs.encrypt(keys, 1.0, level=0)
    with pytest.raises(ValueError, match="modulus"):
        cs.bootstrap_emulated(keys, ct, fitted_poly)  # q = 1 poly


def test_bootstrap_range_violation(keys, small_scheme, q0_poly):
    # above eps*q0/2 = 0.25 q0 but still inside the level-0 budget (q0/2)
    too_big = 0.35 * small_scheme.q0 / small_scheme.c
    ct = cs.encrypt(keys, too_big, level=0)
    with pytest.raises(cs.RangeViolationError):
        cs.bootstrap_emulated(keys, ct, q0_poly)


def test_bootstrap_wrap_count_violation(keys, small_scheme, q0_poly):
    """Shift each mask of the (compact) body by a multiple of q0 times its
    key coefficient so the phase picks up more wraps than the fitted K."""
    ct = cs.encrypt(keys, 1.0, level=0)
    s = _project(keys, keys.sk)[1:]  # the key coefficient of each mask kept
    shift = (q0_poly.spec.K + 1) * small_scheme.q0
    body = ct.body[:1] + [a + si * shift for a, si in zip(ct.body[1:], s, strict=True)]
    shifted = cs.Ciphertext(body=body, level=0, scale_exponent=1,
                            noise_bound=ct.noise_bound,
                            debug_plaintext=ct.debug_plaintext)
    with pytest.raises(cs.AssumptionViolationError, match="wrap count"):
        cs.bootstrap_emulated(keys, shifted, q0_poly)


def test_wrap_count_stays_inside_required_range(keys, small_scheme, q0_poly):
    """The deterministic bound floor((h + 1 + eps)/2) really covers the
    observed wrap counts."""
    bound = cs.required_offset_range(small_scheme, q0_poly.spec.epsilon)
    assert bound <= q0_poly.spec.K
    rng = np.random.default_rng(17)
    half = q0_poly.spec.epsilon * small_scheme.q0 / 2
    seen = set()
    for _ in range(500):
        value = float(rng.uniform(-half, half)) / small_scheme.c
        ct = cs.encrypt(keys, value, level=0)
        _, ev = cs.bootstrap_emulated(keys, ct, q0_poly)
        assert abs(ev.r) <= bound
        seen.add(ev.r)
    assert len(seen) > 1  # wraps do occur, the bound is not vacuous


# --------------------------------------------------------------------------
# compact bodies against the full-body reference


@pytest.mark.parametrize("n, h, q0, c, L, nb, ops", [
    (16, 4, 2 ** 42, 2 ** 16, 3, 8, 300),
    (7, 3, 1000003, 7, 3, 3, 300),
    (10, 1, 3 ** 20, 3, 4, 0, 300),
    (5, 5, 2 ** 30 - 35, 1000, 2, 8, 300),
    (256, 4, 2 ** 40 + 15, 2 ** 12 + 1, 2, 8, 120),
], ids=["n16-h4-2^42", "n7-h3-1000003-c7", "n10-h1-3^20-c3", "n5-h5-c1000",
        "n256-h4-2^40+15"])
def test_compact_bodies_match_the_full_body_reference(fitted_poly, n, h, q0, c, L,
                                                      nb, ops):
    """Random encrypt / add / matvec / rescale / bootstrap sequences, on the
    library's compact bodies and on the full-body reference with twin keys:
    every output is the reference's projection with the same decryption
    and ledger, every refresh event (r, m + e, output) is the same, every
    refused operation is refused by both with the same error, and the two
    generators end in the same state."""
    params = cs.SchemeParams(n=n, q0=q0, c=c, L=L, noise_bound=nb, seed=n,
                             hamming_weight=h)
    keys, ref_keys = cs.keygen(params), cs.keygen(params)
    poly = fitted_poly.rescaled(float(q0))
    rnd = random.Random(q0)
    half = 0.2 * q0 / c  # a scale-1 payload inside eps*q0/2 at every level
    pool, done = [], Counter()  # pool: (compact, full) ciphertext pairs

    def both(op, kernel, reference):
        try:
            outs = kernel()
        except cs.SchemeError as exc:
            with pytest.raises(type(exc)):
                reference()
            done[op + " refused"] += 1
            return []
        done[op] += 1
        return list(zip(outs, reference(), strict=True))

    def mates(ct):
        return [p for p in pool
                if (p[0].level, p[0].scale_exponent) == (ct.level, ct.scale_exponent)]

    for _ in range(ops):
        op = rnd.choice(("encrypt", "add", "matvec", "rescale", "bootstrap")) \
            if pool else "encrypt"
        if op == "encrypt":
            value, level = rnd.uniform(-half, half), rnd.randint(0, L)
            got = both(op, lambda: [cs.encrypt(keys, value, level)],
                       lambda: [_ref_encrypt(ref_keys, value, level)])
        elif op == "add":
            (a, ra) = rnd.choice(pool)
            (b, rb) = rnd.choice(mates(a))
            got = both(op, lambda: [cs.add(params, a, b)],
                       lambda: [_ref_add(params, ra, rb)])
        elif op == "matvec":
            group = mates(rnd.choice(pool)[0])
            cols = rnd.sample(group, rnd.randint(1, min(4, len(group))))
            M = [[rnd.choice((0.0, rnd.uniform(-1, 1))) for _ in cols]
                 for _ in range(rnd.randint(1, 3))]
            got = both(op, lambda: cs.matvec(params, M, [ct for ct, _ in cols]),
                       lambda: _matvec_per_entry(params, M, [ref for _, ref in cols]))
        elif op == "rescale":  # at level 0 both refuse
            ct, ref = rnd.choice(pool)
            got = both(op, lambda: [cs.rescale(params, ct)],
                       lambda: [_ref_rescale(params, ref)])
        else:
            ready = [p for p in pool if p[0].level == 0]
            if not ready:
                continue
            ct, ref = rnd.choice(ready)
            got = both(op, lambda: [cs.bootstrap_emulated(keys, ct, poly)],
                       lambda: [_ref_bootstrap(ref_keys, ref, poly)])
            for (_, event), (_, ref_event) in got:
                assert event == ref_event
            got = [(out, ref_out) for (out, _), (ref_out, _) in got]
        for ct, ref in got:
            _same(keys, ct, ref_keys, ref)
        pool = (pool + got)[-12:]
    assert keys.rng.getstate() == ref_keys.rng.getstate()
    assert all(done[op] for op in ("encrypt", "add", "matvec", "rescale", "bootstrap"))


# --------------------------------------------------------------------------
# serialization


def test_scheme_json_roundtrip(tmp_path, small_scheme):
    path = tmp_path / "scheme.json"
    cs.save_scheme(path, small_scheme)
    loaded = cs.load_scheme(path)
    assert loaded == small_scheme


def test_scheme_json_missing_field(small_scheme):
    """Missing, null and ill-typed fields and a top level that is not an
    object all raise ValueError; a string is not read as a field list."""
    data = cs.scheme_to_json(small_scheme)
    del data["q0"]
    with pytest.raises(ValueError, match="missing fields: q0"):
        cs.scheme_from_json(data)
    for top in ([1], "abc", 3, None):
        with pytest.raises(ValueError, match="must be an object"):
            cs.scheme_from_json(top)
    for key in ("n", "c", "hamming_weight"):
        for value in (None, "16", 16.5, True, [16]):
            data = cs.scheme_to_json(small_scheme)
            data[key] = value
            with pytest.raises(ValueError, match=f"^{key} must be an integer"):
                cs.scheme_from_json(data)


def test_scheme_json_default_hamming_weight(small_scheme):
    data = cs.scheme_to_json(small_scheme)
    del data["hamming_weight"]
    loaded = cs.scheme_from_json(data)
    assert loaded.hamming_weight == 4
