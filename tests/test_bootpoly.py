"""Refresh-polynomial fitting: centered reduction, minimax fit quality,
root constraints, dense verification, rescaling, and serialization."""

import numpy as np
import pytest

from bootctrl.bootpoly import (
    BootstrapPolynomial,
    BootstrapSpec,
    FitError,
    centered_mod,
    fit,
    load_poly,
    poly_from_json,
    poly_to_json,
    save_poly,
    verify,
)


def test_centered_mod_values():
    q = 4.0
    assert centered_mod(0.0, q) == 0.0
    assert centered_mod(3.0, q) == -1.0
    assert centered_mod(-3.0, q) == 1.0
    assert centered_mod(9.0, q) == 1.0
    # ties round away from zero: q/2 wraps to -q/2, -q/2 wraps to +q/2
    assert centered_mod(2.0, q) == -2.0
    assert centered_mod(-2.0, q) == 2.0
    arr = centered_mod(np.array([0.5, 4.5, -7.5]), q)
    np.testing.assert_allclose(arr, [0.5, 0.5, 0.5])
    with pytest.raises(ValueError):
        centered_mod(1.0, 0.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        BootstrapSpec(q=-1.0)
    with pytest.raises(ValueError):
        BootstrapSpec(epsilon=0.0)
    with pytest.raises(ValueError):
        BootstrapSpec(epsilon=1.0)
    with pytest.raises(ValueError):
        BootstrapSpec(K=-1)
    with pytest.raises(ValueError):
        BootstrapSpec(d=0)
    spec = BootstrapSpec(q=2.0, epsilon=0.5, K=2, d=25)
    assert spec.half_range == pytest.approx((2 + 0.25) * 2.0)
    assert list(spec.offsets) == [-2, -1, 0, 1, 2]


def test_fit_reference_configuration(fitted_poly):
    """Degree 25, two wraps, eps = 0.5: slope well under the 0.25 target."""
    assert fitted_poly.usable
    assert 0.05 <= fitted_poly.gamma_certified <= 0.25
    assert fitted_poly.gamma_certified == pytest.approx(0.0915, abs=5e-3)
    # odd target: even-index Chebyshev coefficients vanish
    assert np.abs(fitted_poly.coefficients[::2]).max() <= 1e-9


def test_fitted_roots_at_wrap_points(fitted_poly):
    spec = fitted_poly.spec
    for r in spec.offsets:
        assert abs(fitted_poly(r * spec.q)) <= 1e-9 * spec.q


def test_fitted_relative_error_on_fresh_grid(fitted_poly):
    """Independent dense check: |p(m - r q) - m| <= gamma |m| on points not
    used by the fit or by its internal verification."""
    spec = fitted_poly.spec
    rng = np.random.default_rng(987_321)
    gamma = fitted_poly.gamma_certified
    for r in spec.offsets:
        m = rng.uniform(-spec.epsilon * spec.q / 2, spec.epsilon * spec.q / 2,
                        20_000)
        m = m[np.abs(m) > 1e-9 * spec.q]
        err = np.abs(fitted_poly(m - r * spec.q) - m)
        assert np.max(err / np.abs(m)) <= gamma + 1e-12


def test_verify_is_deterministic_and_matches_certificate(fitted_poly):
    assert verify(fitted_poly, 250_000) == fitted_poly.gamma_certified
    assert fitted_poly.verification_samples == 250_000 * 5


def test_verify_rejects_small_sample_count(fitted_poly):
    with pytest.raises(ValueError, match="1e5"):
        verify(fitted_poly, 99_999)


def test_identity_fit_without_wraps():
    """K = 0, degree 1: the target is m itself, so the slope is ~0."""
    poly = fit(BootstrapSpec(q=1.0, epsilon=0.5, K=0, d=1))
    assert poly.gamma_certified <= 1e-9
    x = np.linspace(-0.25, 0.25, 101)
    np.testing.assert_allclose(poly(x), x, atol=1e-12)


def test_zero_polynomial_has_slope_exactly_one():
    spec = BootstrapSpec(q=1.0, epsilon=0.5, K=1, d=3)
    zero = BootstrapPolynomial(spec=spec, coefficients=np.zeros(4),
                               gamma_certified=1.0)
    assert verify(zero, 100_000) == 1.0
    assert not zero.usable


def test_degree_too_low_raises_with_best_slope():
    """Degree 3 with K = 2 leaves no freedom after the root constraints."""
    with pytest.raises(FitError) as excinfo:
        fit(BootstrapSpec(q=1.0, epsilon=0.5, K=2, d=3))
    assert excinfo.value.best_gamma is not None
    assert excinfo.value.best_gamma >= 0.25


def test_rescaled_preserves_relative_error(fitted_poly):
    q_new = float(2 ** 42)
    big = fitted_poly.rescaled(q_new)
    assert big.spec.q == q_new
    assert big.gamma_certified == fitted_poly.gamma_certified
    rng = np.random.default_rng(5)
    m = rng.uniform(-fitted_poly.spec.half_range, fitted_poly.spec.half_range,
                    256)
    np.testing.assert_allclose(big(m * q_new), q_new * fitted_poly(m),
                               rtol=1e-12)


def test_poly_json_roundtrip(tmp_path, fitted_poly):
    path = tmp_path / "poly.json"
    save_poly(path, fitted_poly)
    loaded = load_poly(path)
    assert loaded.spec == fitted_poly.spec
    assert np.array_equal(loaded.coefficients, fitted_poly.coefficients)
    assert loaded.gamma_certified == fitted_poly.gamma_certified
    assert loaded.verification_samples == fitted_poly.verification_samples


def test_poly_json_missing_field(fitted_poly):
    """Missing, null and ill-typed fields and a top level that is not an
    object all raise ValueError, never AttributeError or TypeError."""
    data = poly_to_json(fitted_poly)
    del data["spec"]["q"]
    del data["gamma_certified"]
    with pytest.raises(ValueError, match="missing fields: gamma_certified, spec.q"):
        poly_from_json(data)
    for top in ([1], "abc", 3, None):
        with pytest.raises(ValueError, match="must be an object"):
            poly_from_json(top)
    for path in (["spec"], ["interval"], ["coefficients"], ["gamma_certified"],
                 ["verification_samples"], ["spec", "q"], ["spec", "K"],
                 ["interval", 0], ["coefficients", 1]):
        for value in (None, "abc", {}, True, float("nan")):
            data = poly_to_json(fitted_poly)
            parent = data
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
            with pytest.raises(ValueError, match="poly JSON|interval"):
                poly_from_json(data)


def test_poly_json_interval_checked_at_both_ends(fitted_poly):
    data = poly_to_json(fitted_poly)
    lo, hi = data["interval"]
    data["interval"] = [0.5 * lo, hi]
    with pytest.raises(ValueError, match="interval"):
        poly_from_json(data)


def test_coefficient_length_checked():
    spec = BootstrapSpec(d=5)
    with pytest.raises(ValueError, match="coefficients"):
        BootstrapPolynomial(spec=spec, coefficients=np.zeros(3),
                            gamma_certified=0.5)
