"""Homomorphic toy layer: decryption correctness, the noise ledger as a
sound overapproximation under fuzzing, rescaling, the emulated refresh,
and parameter serialization."""

import hashlib
import json
import random
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
    with pytest.raises(ValueError):
        cs.SchemeParams(hamming_weight=17, n=16)
    with pytest.raises(ValueError):
        cs.SchemeParams(noise_bound=-1)


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


def _secret(n, weight, rnd):
    s = [0] * n
    for pos in rnd.sample(range(n), weight):
        s[pos] = rnd.choice((-1, 1))
    return tuple(s)


def test_support_phase_matches_dense_inner_product():
    """The phase over sk's support equals the dense <body, sk> on random
    bodies, from a weight-1 secret to full-weight, all +1 and all -1 ones."""
    params = cs.SchemeParams(n=16, hamming_weight=1)
    rnd = random.Random(5)
    secrets = [_secret(16, w, rnd) for w in (1, 1, 4, 16, 16)]
    secrets += [(1,) * 16, (-1,) * 16, (0,) * 15 + (1,), (-1,) + (0,) * 15]
    q = params.modulus(params.L)
    for s in secrets:
        keys = cs.Keys(params, s=s, rng=random.Random(0))
        for _ in range(200):
            body = [rnd.randrange(-q // 2, q - q // 2) for _ in range(17)]
            assert cs._phase(keys, body) == sum(map(mul, body, keys.sk))
            ct = cs.Ciphertext(body=body, level=params.L, scale_exponent=1,
                               noise_bound=0.0, debug_plaintext=0.0)
            assert cs.decrypt_raw(keys, ct) == cs._centered(
                sum(map(mul, body, keys.sk)), q)


@pytest.mark.parametrize("q", [2, 3, 5, 7, 2 ** 42, 2 ** 202, 1000003 * 7 ** 5,
                               2 ** 58 - 1, 2 ** 58 + 1],
                         ids=["2", "3", "5", "7", "2^42", "2^202", "1000003*7^5",
                              "2^58-1", "2^58+1"])
def test_mask_sampler_is_randrange(q):
    """Fresh masks are keys.rng.randrange(q) draw for draw: same values
    (centered) and the same generator state after 8,000 draws."""
    params = cs.SchemeParams(n=16, q0=q, c=2, L=0, noise_bound=0,
                             hamming_weight=3)
    keys = cs.keygen(params)
    ref = random.Random()
    ref.setstate(keys.rng.getstate())
    for _ in range(500):
        ct = cs._fresh(keys, 0, 0, 1, 0.0, 0.0)
        e = ref.randint(0, 0)
        a = [ref.randrange(q) for _ in range(params.n)]
        assert ct.body[1:] == [cs._centered(x, q) for x in a]
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
        with pytest.raises(ValueError, match="non-finite"):
            cs.encrypt(keys, value)


def _kernel_digest(fitted_poly):
    """sha256 of every ciphertext (body and ledger) and refresh event of a
    short encrypt / matvec / rescale / bootstrap chain on q0 = 1000003,
    c = 7, where the mask sampler rejects draws at other rates than on
    power-of-two moduli."""
    params = cs.SchemeParams(n=16, q0=1000003, c=7, L=3, noise_bound=8,
                             seed=5, hamming_weight=4)
    keys = cs.keygen(params)
    poly = fitted_poly.rescaled(float(params.q0))
    rnd = random.Random(11)
    M = [[0.9, -0.2, 0.1, 1.0], [0.1, 0.8, -0.3, 0.5], [-0.2, 0.1, 0.7, -1.0]]
    made, events = [], []
    x = [cs.encrypt(keys, rnd.uniform(-50, 50)) for _ in range(3)]
    made += x
    for _ in range(2 * params.L + 1):
        if x[0].level == 0:
            pairs = [cs.bootstrap_emulated(keys, ct, poly) for ct in x]
            x = [ct for ct, _ in pairs]
            events += [ev for _, ev in pairs]
            made += x
        w = cs.encrypt(keys, rnd.uniform(-50, 50), level=x[0].level)
        y = cs.matvec(params, M, x + [w])
        x = [cs.rescale(params, ct) for ct in y]
        made += [w] + y + x
    assert len(made) == 58 and len(events) == 6
    h = hashlib.sha256()
    for ct in made:
        h.update(repr((ct.body, ct.level, ct.scale_exponent, ct.noise_bound,
                       ct.debug_plaintext)).encode())
    h.update(repr(events).encode())
    return h.hexdigest()


def test_kernels_are_pinned_on_non_power_of_two_moduli(fitted_poly):
    assert _kernel_digest(fitted_poly) == \
        "80e5ee81b038d822e8afe8c8a75222d8a11f6df7c3c724470a02a914bc8d5330"


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
    assert zero.body == [0] * (small_scheme.n + 1)
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


def test_matvec_rejects_ragged_levels(keys, small_scheme):
    cts = [cs.encrypt(keys, 1.0, level=2), cs.encrypt(keys, 1.0, level=1)]
    with pytest.raises(ValueError, match="disagree"):
        cs.matvec(small_scheme, np.ones((1, 2)), cts)


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
    """Shift the body mask by multiples of q0 along the secret support so
    the phase picks up more wraps than the fitted K."""
    ct = cs.encrypt(keys, 1.0, level=0)
    support = [i for i, si in enumerate(keys.s) if si != 0]
    body = list(ct.body)
    for i in support:
        body[i + 1] += keys.s[i] * (q0_poly.spec.K + 1) * small_scheme.q0
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
