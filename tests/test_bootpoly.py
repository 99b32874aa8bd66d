"""Refresh-polynomial fitting: centered reduction, minimax fit quality,
root constraints, dense verification, rescaling, and serialization."""

import warnings

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebval

from bootctrl import bootpoly
from bootctrl.bootpoly import (
    BootstrapPolynomial,
    BootstrapSpec,
    FitError,
    centered_mod,
    evaluate,
    fit,
    load_poly,
    poly_from_json,
    poly_to_json,
    save_poly,
    verify,
)
from bootctrl.lp import LpResult


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
    for q in (-1.0, 0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="q must be finite and positive"):
            BootstrapSpec(q=q)
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


# --------------------------------------------------------------------------
# blocked Clenshaw kernel

BLOCK = bootpoly._BLOCK
KERNEL = bootpoly._clenshaw


def _random_poly(d, seed):
    rng = np.random.default_rng(seed)
    spec = BootstrapSpec(q=1.0, epsilon=0.5, K=2, d=d)
    return BootstrapPolynomial(spec=spec, coefficients=rng.standard_normal(d + 1),
                               gamma_certified=0.5)


@pytest.mark.parametrize("d", [1, 2, 3, 25, 45])
@pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7],
                         ids=["0", "1", "block-1", "block", "block+1", "3block+7"])
def test_evaluate_is_bitwise_chebval(d, n):
    poly = _random_poly(d, seed=d)
    # a little past the interval too, where the recurrence grows
    m = np.random.default_rng(n).uniform(-1.2, 1.2, n) * poly.spec.half_range
    want = chebval(m / poly.spec.half_range, poly.coefficients)
    got = evaluate(poly, m)
    assert got.shape == (n,) and got.dtype == np.float64
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("d", [1, 2, 3, 25, 45])
def test_evaluate_scalar_zero_d_and_list_inputs(d):
    poly = _random_poly(d, seed=100 + d)
    r = poly.spec.half_range
    for m in (0.3, -1.7, 0.0, r):
        want = float(chebval(np.asarray(m) / r, poly.coefficients))
        for arg in (m, np.float64(m), np.array(m)):
            got = evaluate(poly, arg)
            assert type(got) is float and got == want
    values = [0.1, -0.2, 1.9, -r]
    want = chebval(np.asarray(values) / r, poly.coefficients)
    assert evaluate(poly, values).tobytes() == want.tobytes()
    grid = np.linspace(-r, r, 12).reshape(3, 4)
    got = evaluate(poly, grid)
    assert got.shape == (3, 4)
    assert got.tobytes() == chebval(grid / r, poly.coefficients).tobytes()


def _verify_samples(spec, samples):
    """(r, m) per offset: verify's grid, seeded stream and exclusion."""
    half_msg = spec.epsilon * spec.q / 2
    rng = np.random.default_rng(20_240_501)
    n_grid = samples // 2
    for r in spec.offsets:
        m = np.concatenate([np.linspace(-half_msg, half_msg, n_grid),
                            rng.uniform(-half_msg, half_msg, samples - n_grid)])
        yield r, m[np.abs(m) > 1e-9 * spec.q]


def _verify_whole_array(poly, samples):
    """The earlier whole-array verify, kept here as the oracle."""
    spec = poly.spec
    worst = 0.0
    for r, m in _verify_samples(spec, samples):
        root = abs(float(chebval(-r * spec.q / spec.half_range, poly.coefficients)))
        if root > bootpoly.ROOT_TOL * spec.q:
            worst = np.inf
        p = chebval((m - r * spec.q) / spec.half_range, poly.coefficients)
        worst = max(worst, float(np.max(np.abs(p - m) / np.abs(m))))
    return worst


@pytest.mark.parametrize("d, K", [(15, 1), (25, 2), (45, 3)])
def test_verify_matches_whole_array_formula(d, K, fitted_poly):
    spec = BootstrapSpec(q=1.0, epsilon=0.5, K=K, d=d)
    poly = fitted_poly if spec == fitted_poly.spec else fit(spec)
    want = _verify_whole_array(poly, 250_000)
    assert verify(poly, 250_000) == want == poly.gamma_certified
    # a sample count that leaves a ragged last block
    assert verify(poly, 7 * BLOCK + 7) == _verify_whole_array(poly, 7 * BLOCK + 7)


@pytest.mark.parametrize("spec, coefficients", [
    # the recurrence overflows at every root: NaN roots
    (BootstrapSpec(q=1.0, epsilon=0.5, K=2, d=5), [0, 1e308, 0, -1e308, 0, 1e308]),
    # p(0) = 0 exactly, but the samples near |x| = 1 overflow to inf/NaN
    (BootstrapSpec(q=1.0, epsilon=0.5, K=0, d=3), [0, 1e308, 0, 1e308]),
], ids=["nan_roots", "overflow_in_samples"])
def test_verify_is_infinite_on_overflow(spec, coefficients):
    poly = BootstrapPolynomial(spec=spec, coefficients=coefficients,
                               gamma_certified=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert verify(poly, 100_000) == np.inf


def _kernel_calls(monkeypatch, poly, samples, hook):
    """Run verify with every kernel value p(x) replaced by hook(index, x, p)."""
    calls = []

    def spy(c, x):
        p = hook(len(calls), x, KERNEL(c, x))
        calls.append(np.size(x))
        return p

    monkeypatch.setattr(bootpoly, "_clenshaw", spy)
    return verify(poly, samples), calls


def test_verify_walks_every_sample_once(monkeypatch, fitted_poly):
    samples = 7 * BLOCK + 7
    seen = []

    def record(i, x, p):
        seen.append(np.ravel(x))
        return p

    gamma, calls = _kernel_calls(monkeypatch, fitted_poly, samples, record)
    spec = fitted_poly.spec
    want = []
    for r, m in _verify_samples(spec, samples):
        want += [np.array([-r * spec.q / spec.half_range]),
                 (m - r * spec.q) / spec.half_range]
    assert max(calls) == BLOCK
    assert np.concatenate(seen).tobytes() == np.concatenate(want).tobytes()
    assert gamma == _verify_whole_array(fitted_poly, samples)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("call", ["first_root", "first_block", "last_block"])
def test_verify_is_infinite_on_any_nonfinite_value(monkeypatch, fitted_poly,
                                                   call, bad):
    """One non-finite kernel value, at a root or anywhere in the samples,
    makes the slope inf; a NaN is never dropped by the running maximum."""
    _, calls = _kernel_calls(monkeypatch, fitted_poly, 100_000,
                             lambda i, x, p: p)
    target = {"first_root": 0, "first_block": 1, "last_block": len(calls) - 1}[call]

    def inject(i, x, p):
        if i != target:
            return p
        if np.ndim(p) == 0:
            return bad
        p = p.copy()
        p[-1] = bad
        return p

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gamma, _ = _kernel_calls(monkeypatch, fitted_poly, 100_000, inject)
    assert gamma == np.inf


def test_fit_rejects_overflowing_polynomial(monkeypatch):
    """An LP answer whose polynomial overflows is a FitError, not slope 0."""
    def huge_lp(cost, A_ub, b_ub):
        x = np.full(cost.size, 1e307)
        x[-1] = 0.0
        return LpResult(x=x, fun=0.0, iterations=1, mu=0.0,
                        primal_residual=0.0, dual_residual=0.0)

    monkeypatch.setattr(bootpoly, "solve_lp", huge_lp)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FitError) as excinfo:
            fit(BootstrapSpec(q=1.0, epsilon=0.5, K=1, d=5))
    assert excinfo.value.best_gamma == np.inf
