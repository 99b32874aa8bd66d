"""Homomorphic toy layer: decryption correctness, the noise ledger as a
sound overapproximation under fuzzing, rescaling, the emulated refresh,
and parameter serialization."""

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


def test_modulus_chain(small_scheme):
    for level in range(small_scheme.L + 1):
        assert small_scheme.modulus(level) \
            == small_scheme.q0 * small_scheme.c ** level
    with pytest.raises(ValueError):
        small_scheme.modulus(small_scheme.L + 1)
    with pytest.raises(ValueError):
        small_scheme.modulus(-1)


def test_keygen_deterministic_and_sparse(small_scheme):
    k1 = cs.keygen(small_scheme)
    k2 = cs.keygen(small_scheme)
    assert k1.s == k2.s
    assert sum(1 for si in k1.s if si != 0) == small_scheme.hamming_weight
    assert all(si in (-1, 0, 1) for si in k1.s)
    assert k1.sk[0] == 1


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


def test_matvec_rejects_ragged_levels(keys, small_scheme):
    cts = [cs.encrypt(keys, 1.0, level=2), cs.encrypt(keys, 1.0, level=1)]
    with pytest.raises(ValueError, match="disagree"):
        cs.matvec(small_scheme, np.ones((1, 2)), cts)


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
    data = cs.scheme_to_json(small_scheme)
    del data["q0"]
    with pytest.raises(ValueError, match="missing fields: q0"):
        cs.scheme_from_json(data)


def test_scheme_json_default_hamming_weight(small_scheme):
    data = cs.scheme_to_json(small_scheme)
    del data["hamming_weight"]
    loaded = cs.scheme_from_json(data)
    assert loaded.hamming_weight == 4
