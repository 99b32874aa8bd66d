"""Refresh-polynomial fitting: centered reduction, minimax fit quality,
root constraints, the proven slope bound and its sampled cross-check,
rescaling, and serialization."""

import importlib.util
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebval, poly2cheb
from numpy.polynomial.polynomial import polyfromroots

from bootctrl import bootpoly, lp
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
    slope_bound,
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


@pytest.mark.parametrize("q", [np.nan, np.inf, -np.inf, 0.0, -4.0])
def test_centered_mod_rejects_a_bad_modulus(q):
    """A NaN, infinite or nonpositive modulus is refused by name, with no
    nan result and no RuntimeWarning."""
    want = "finite and positive" if np.isfinite(q) else "a finite real number"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^q must be {want}, got "):
            centered_mod(1.0, q)


def test_spec_validation():
    for q in (-1.0, 0.0):
        with pytest.raises(ValueError, match="^q must be finite and positive"):
            BootstrapSpec(q=q)
    for q in (np.inf, np.nan):
        with pytest.raises(ValueError, match="^q must be a finite real number, got "):
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
    assert BootstrapSpec(q=2, K=2.0, d=25.0) == spec
    assert spec.half_range == pytest.approx((2 + 0.25) * 2.0)
    assert list(spec.offsets) == [-2, -1, 0, 1, 2]


def test_spec_takes_a_large_integer_modulus():
    """A finite integer modulus of any size up to the float range is taken
    as given, like centered_mod takes it; one beyond it is refused by
    name."""
    spec = BootstrapSpec(q=2**70)
    assert spec.q == 2**70
    assert spec.half_range == pytest.approx(2.25 * 2.0**70)
    assert centered_mod(2.0**70 + 3.0 * 2.0**60, spec.q) == 3.0 * 2.0**60
    with pytest.raises(ValueError, match="^q must be a finite real number, got 1000"):
        BootstrapSpec(q=10**400)


@pytest.mark.parametrize("field", ["q", "K", "d"])
@pytest.mark.parametrize("flag", [True, np.True_])
def test_spec_rejects_bools(field, flag):
    """A bool is refused by name, not taken as the number 1."""
    with pytest.raises(ValueError, match=f"^{field} must be a finite real number, got "):
        BootstrapSpec(**{field: flag})


def _no_lp(*args):
    raise AssertionError("the LP ran")


@pytest.mark.parametrize("name, call", [
    ("samples", lambda poly: verify(poly, 2e5)),
    ("samples_per_interval", lambda poly: fit(poly.spec, samples_per_interval=512.7)),
    ("samples_per_interval", lambda poly: fit(poly.spec, samples_per_interval=True)),
], ids=["verify", "fit_samples", "fit_samples_bool"])
def test_sample_counts_must_be_integers(monkeypatch, fitted_poly, name, call):
    """A float or bool count is refused by name (neither a TypeError from
    np.linspace nor a silent truncation); fit checks its count before its
    LP."""
    monkeypatch.setattr(bootpoly, "solve_lp", _no_lp)
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        call(fitted_poly)


def test_fit_reference_configuration(fitted_poly):
    """Degree 25, two wraps, eps = 0.5: slope well under the 0.25 target."""
    assert fitted_poly.usable
    assert 0.05 <= fitted_poly.gamma_certified <= 0.25
    assert fitted_poly.gamma_certified == pytest.approx(0.0915, abs=5e-3)
    # odd target: even-index Chebyshev coefficients vanish
    assert np.abs(fitted_poly.coefficients[::2]).max() <= 1e-9


# gamma_certified on the (d, K) design grid at q = 1, eps = 0.5, bit for bit:
# slope_bound's proven bound, taken under default BLAS threading
DESIGN_GRID_GAMMAS = {
    (15, 1): 0.051925999252723815,
    (15, 2): 0.24618883104856384,
    (15, 3): 0.972003079358208,
    (25, 1): 0.0034553933341959385,
    (25, 2): 0.09146708386153327,
    (25, 3): 0.22288845782548036,
    (35, 1): 0.000436008546672866,
    (35, 2): 0.028029930089289362,
    (35, 3): 0.16112749041679306,
    (45, 1): 3.6425100436131015e-05,
    (45, 2): 0.004281874891931612,
    (45, 3): 0.03113481162411024,
}


@pytest.fixture(scope="module")
def benchmark_workloads():
    """perfbench/workloads.py, whose design_sweep checks each grid fit."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def grid_fits():
    return {(d, K): fit(BootstrapSpec(q=1.0, epsilon=0.5, K=K, d=d))
            for d, K in DESIGN_GRID_GAMMAS}


@pytest.mark.parametrize("d, K", list(DESIGN_GRID_GAMMAS))
def test_design_grid_slopes_are_pinned_bitwise(d, K, grid_fits):
    poly = grid_fits[d, K]
    assert poly.gamma_certified.hex() == DESIGN_GRID_GAMMAS[d, K].hex()
    assert poly.gamma_certified == slope_bound(poly)


@pytest.mark.parametrize("d, K", list(DESIGN_GRID_GAMMAS))
def test_design_grid_pins_are_bracketed_by_sampling(d, K, grid_fits, benchmark_workloads):
    """Each pin lies between verify's sampled slope of its fit and 1e-6
    relative above it, and matches the benchmark's seed slope (taken by
    sampling) to the benchmark's tolerance, so design_sweep accepts it."""
    pin = DESIGN_GRID_GAMMAS[d, K]
    sampled = verify(grid_fits[d, K], 250_000)
    assert sampled <= pin <= sampled * (1 + 1e-6)
    bench = benchmark_workloads
    seed = bench.SEED_GAMMAS[d, K]
    assert abs(pin - seed) <= bench.GAMMA_REL_TOL * seed + bench.GAMMA_ABS_TOL


def test_fitted_roots_at_wrap_points(fitted_poly):
    spec = fitted_poly.spec
    for r in spec.offsets:
        assert abs(fitted_poly(r * spec.q)) <= 1e-9 * spec.q


def test_fitted_relative_error_on_fresh_grid(fitted_poly):
    """Independent dense check: |p(m - r q) - m| <= gamma |m| on points not
    used by the fit or by verify."""
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
    sampled = verify(fitted_poly, 250_000)
    assert verify(fitted_poly, 250_000) == sampled
    assert sampled <= fitted_poly.gamma_certified <= sampled * (1 + 1e-6)
    # the bound's nodes: 2048 per degree of q_r, offsets 0..K of an odd fit
    assert fitted_poly.verification_samples == bootpoly.NODES_PER_DEGREE * 24 * 3


def test_verify_rejects_small_sample_count(fitted_poly):
    with pytest.raises(ValueError, match="^samples must be at least 100000, got 99999$"):
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


def test_fitting_lp_failure_is_a_fit_error_with_its_best_slope(monkeypatch):
    """An LP that stops at its iteration cap raises FitError, which carries
    the LP's best objective value as best_gamma."""
    monkeypatch.setattr(lp, "_MAX_ITER", 2)
    with pytest.raises(FitError, match="^fitting LP failed: interior-point method "
                                       "did not converge in 2 iterations$") as excinfo:
        fit(BootstrapSpec(q=1.0, epsilon=0.5, K=1, d=5))
    cause = excinfo.value.__cause__
    assert isinstance(cause, lp.LpError) and isinstance(cause.best_fun, float)
    assert excinfo.value.best_gamma == cause.best_fun


def test_odd_sample_count_rounds_up_to_even(monkeypatch):
    """13 samples per interval become 14, so m = 0 stays off the grid: the
    LP has 2 rows per sample and offset, plus gamma >= 0."""
    rows, solve_lp = [], bootpoly.solve_lp
    monkeypatch.setattr(bootpoly, "solve_lp",
                        lambda c, A, b: rows.append(len(A)) or solve_lp(c, A, b))
    spec = BootstrapSpec(q=1.0, epsilon=0.5, K=1, d=5)
    odd = fit(spec, samples_per_interval=13)
    even = fit(spec, samples_per_interval=14)
    assert rows == [3 * 2 * 14 + 1] * 2
    assert np.array_equal(odd.coefficients, even.coefficients)


def _spy_slope_bound(monkeypatch):
    """The polynomials bootpoly.slope_bound is called on, recorded."""
    calls = []
    monkeypatch.setattr(bootpoly, "slope_bound",
                        lambda poly: calls.append(poly) or slope_bound(poly))
    return calls


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


@pytest.mark.parametrize("q_new", [2.0 ** 42, 2.0 ** -30, 2.0 ** -1010],
                         ids=["2^42", "2^-30", "2^-1010"])
def test_rescale_by_a_power_of_two_keeps_a_proven_slope(monkeypatch, fitted_poly, q_new):
    """A power-of-two factor scales the coefficients and every step of the
    bound exactly: the kept slope is the rescaled polynomial's bound, bit
    for bit, and no bound is computed (at the demo scheme's q0 = 2^42 the
    encrypted runs' set-up does no extra work)."""
    calls = _spy_slope_bound(monkeypatch)
    scaled = fitted_poly.rescaled(q_new)
    assert calls == []
    assert slope_bound(scaled).hex() == fitted_poly.gamma_certified.hex()


@pytest.mark.parametrize("q_new", [3.0, 0.1, 7.7e12, 2.0 ** -1020],
                         ids=["3", "0.1", "7.7e12", "2^-1020"])
def test_rescale_that_rounds_proves_the_slope_anew(monkeypatch, fitted_poly, q_new):
    """Any other factor rounds the coefficients, as does a power of two
    that underflows some to subnormals (2^-1020): the stored slope is the
    bound of the rescaled coefficients (at d = 25, K = 2 it reads 1.1e-15
    to 2.4e-15 relative off the unit polynomial's)."""
    calls = _spy_slope_bound(monkeypatch)
    scaled = fitted_poly.rescaled(q_new)
    assert len(calls) == 1
    assert scaled.gamma_certified == slope_bound(scaled)
    assert scaled.gamma_certified == pytest.approx(fitted_poly.gamma_certified, rel=1e-13)


def test_rescale_whose_slope_cannot_be_proven_is_refused_by_name():
    """p(q) = 1.008 is no root, so the slope of a rounded rescale is not
    proven (inf), and the rescale refuses it without a RuntimeWarning."""
    poly = BootstrapPolynomial(spec=BootstrapSpec(q=1.0, epsilon=0.5, K=1, d=3),
                               coefficients=[0, 1.26, 0, 0], gamma_certified=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError,
                           match="^gamma_certified must be a finite real number, got inf$"):
            poly.rescaled(3.0)


def test_rescale_that_overflows_is_refused_by_name(fitted_poly):
    """A factor q_new / q that overflows to inf gives inf and nan
    coefficients; the rescale refuses them without a RuntimeWarning."""
    tiny = BootstrapPolynomial(
        spec=BootstrapSpec(q=1e-300, epsilon=0.5, K=2, d=25),
        coefficients=fitted_poly.coefficients,
        gamma_certified=fitted_poly.gamma_certified,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError,
                           match="^coefficients must be a finite real number, got "):
            tiny.rescaled(float(2 ** 40))


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


def test_poly_json_other_basis_is_refused(fitted_poly):
    with pytest.raises(ValueError, match="^unsupported basis: 'monomial'$"):
        poly_from_json({**poly_to_json(fitted_poly), "basis": "monomial"})


def test_poly_json_interval_checked_at_both_ends(fitted_poly):
    data = poly_to_json(fitted_poly)
    lo, hi = data["interval"]
    data["interval"] = [0.5 * lo, hi]
    with pytest.raises(ValueError, match="interval"):
        poly_from_json(data)


@pytest.mark.parametrize("q", [1e-9, 1.0, 1e300])
def test_poly_json_interval_checked_relative_to_half_range(fitted_poly, q):
    """The interval must match +-half_range to 1e-9 of half_range, with no
    absolute slack: at q = 1e-9 the interval [0, 0] is refused, and the
    exact interval loads at every scale."""
    data = poly_to_json(fitted_poly)
    data["spec"]["q"] = q
    r = replace(fitted_poly.spec, q=q).half_range
    for interval in ([-r, r], [-r * (1 + 1e-10), r * (1 - 1e-10)]):
        data["interval"] = interval
        assert poly_from_json(data).spec.q == q
    for interval in ([0.0, 0.0], [-r, r * (1 + 1e-8)], [-r * (1 - 1e-8), r]):
        data["interval"] = interval
        with pytest.raises(ValueError, match="^interval in JSON is inconsistent"):
            poly_from_json(data)


def test_coefficient_length_checked():
    spec = BootstrapSpec(d=5)
    with pytest.raises(ValueError, match="coefficients"):
        BootstrapPolynomial(spec=spec, coefficients=np.zeros(3),
                            gamma_certified=0.5)


# --------------------------------------------------------------------------
# buffered Clenshaw kernel

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


@pytest.mark.parametrize("d, K", [(25, 2), (15, 1), (16, 1), (2, 0)],
                         ids=["odd-25-2", "odd-15-1", "even-16-1", "even-2-0"])
def test_evaluate_fitted_polynomial_matches_chebval(d, K, fitted_poly):
    """Fitted polynomials have exact zero coefficients (every even index,
    and the leading one at even d), whose steps the block kernel folds:
    the values are chebval's bit for bit wherever they are nonzero, and
    equal everywhere (an exact zero may differ in sign)."""
    spec = BootstrapSpec(q=1.0, epsilon=0.5, K=K, d=d)
    poly = fitted_poly if spec == fitted_poly.spec else fit(spec)
    assert np.count_nonzero(poly.coefficients == 0) >= d // 2
    r = poly.spec.half_range
    m = np.concatenate([
        np.random.default_rng(d).uniform(-1.2 * r, 1.2 * r, 3 * BLOCK + 7),
        [0.0, -0.0, r, -r],
        np.arange(-K, K + 1) * poly.spec.q,
    ])
    want = chebval(m / r, poly.coefficients)
    got = evaluate(poly, m)
    assert np.array_equal(got, want)
    nonzero = want != 0
    assert nonzero.sum() >= m.size - 2 * K - 3
    assert got[nonzero].tobytes() == want[nonzero].tobytes()


def test_scalar_evaluate_runs_on_python_floats(monkeypatch, fitted_poly):
    """A scalar call is one kernel call on a Python float with no work
    buffers, and returns a float bitwise equal to chebval's."""
    calls = []

    def spy(c, x, work=None):
        calls.append((type(c), type(x), work))
        return KERNEL(c, x, work)

    monkeypatch.setattr(bootpoly, "_clenshaw", spy)
    r = fitted_poly.spec.half_range
    for m in (0.3, np.float64(-1.7), np.array(0.9), 2):
        calls.clear()
        got = evaluate(fitted_poly, m)
        want = float(chebval(np.float64(m) / r, fitted_poly.coefficients))
        assert calls == [(list, float, None)]
        assert type(got) is float and got.hex() == want.hex()


def test_block_kernel_writes_only_into_its_work_buffers(fitted_poly):
    """No step of the block kernel allocates an array (numpy reports its
    data buffers to tracemalloc); the result is a view into work."""
    x = np.linspace(-1.0, 1.0, BLOCK)
    work = np.empty((4, BLOCK))
    c = fitted_poly.coefficients.tolist()
    want = KERNEL(c, x, work).copy()
    tracemalloc.start()
    try:
        got = KERNEL(c, x, work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.shares_memory(got, work) and np.array_equal(got, want)
    assert peak < x.nbytes // 8


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


@pytest.mark.parametrize("d, K", [(15, 1), (25, 2), (45, 3), (16, 1), (15, 0),
                                  pytest.param(3, 0, id="exclusion")])
def test_verify_matches_whole_array_formula(d, K, fitted_poly):
    """verify is the chebval oracle bit for bit, on the fits and at eps =
    2.2e-6, where the 45 grid points nearest the centre of an odd
    50,001-point grid (100,002 samples) lie within 1e-9 q of 0."""
    if (d, K) == (3, 0):
        spec = BootstrapSpec(q=1.0, epsilon=2.2e-6, K=0, d=3)
        r = spec.half_range
        poly = BootstrapPolynomial(spec=spec, coefficients=[0, 0.9 * r, 0, 0.05 * r],
                                   gamma_certified=0.5)
        grid = np.linspace(-spec.epsilon / 2, spec.epsilon / 2, 50_001)
        assert np.count_nonzero(np.abs(grid) <= 1e-9) == 45
        assert verify(poly, 100_002) == _verify_whole_array(poly, 100_002)
        return
    spec = BootstrapSpec(q=1.0, epsilon=0.5, K=K, d=d)
    poly = fitted_poly if spec == fitted_poly.spec else fit(spec)
    want = _verify_whole_array(poly, 250_000)
    assert verify(poly, 250_000) == want
    # K = 0 fits the identity, where only the bound's rounding allowance is left
    slack = 1e-12 if K == 0 else 0.0
    assert want <= poly.gamma_certified <= want * (1 + 1e-6) + slack
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

    def spy(c, x, work=None):
        p = hook(len(calls), x, KERNEL(c, x, work))
        calls.append(np.size(x))
        return p

    monkeypatch.setattr(bootpoly, "_clenshaw", spy)
    return verify(poly, samples), calls


def test_verify_walks_every_sample_once(monkeypatch, fitted_poly):
    samples = 7 * BLOCK + 7
    seen = []

    def record(i, x, p):
        seen.append(np.array(x, ndmin=1))  # a copy: x is a reused buffer
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


# --------------------------------------------------------------------------
# proven slope bound


def _slopes(poly, m, offsets=None):
    """|q_r(m)| = |e_r(m) - e_r(0)| / |m| per offset r, e_r(m) = p(m - r q) - m."""
    q = poly.spec.q
    return {r: np.abs((poly(m - r * q) - poly(-r * q) - m) / m)
            for r in (poly.spec.offsets if offsets is None else offsets)}


def test_slope_bound_is_above_the_local_maxima(fitted_poly):
    """Around each offset's sampled argmax a grid 1e4 times finer finds
    the local maximum of |q_r|; the bound is at or above every one, while
    verify's sampled maximum falls below the largest."""
    a = fitted_poly.spec.epsilon * fitted_poly.spec.q / 2
    coarse = np.linspace(-a, a, 20_001)
    coarse = coarse[np.abs(coarse) >= 1e-3]
    bound = slope_bound(fitted_poly)
    peaks = []
    for r, slope in _slopes(fitted_poly, coarse).items():
        centre, h = coarse[np.argmax(slope)], coarse[1] - coarse[0]
        local = np.linspace(centre - h, centre + h, 20_001)
        local = local[(np.abs(local) >= 1e-3) & (np.abs(local) <= a)]
        peaks.append(_slopes(fitted_poly, local, [r])[r].max())
    assert max(peaks) <= bound
    assert verify(fitted_poly, 250_000) < max(peaks)


@pytest.mark.parametrize("d, K", list(DESIGN_GRID_GAMMAS))
def test_slope_bound_is_above_dense_samples(d, K, grid_fits):
    """The bound covers |q_r| on 40k points per offset at |m| >= 1e-3 q,
    where the absolute term |e_r(0)| / |m| cannot reach the slope."""
    poly = grid_fits[d, K]
    m = np.linspace(1e-3, poly.spec.epsilon / 2, 20_000)
    m = np.concatenate([-m[::-1], m])
    assert max(v.max() for v in _slopes(poly, m).values()) <= poly.gamma_certified


@pytest.mark.parametrize("spec, coefficients", [
    # the recurrence overflows at every root: NaN roots
    (BootstrapSpec(q=1.0, epsilon=0.5, K=2, d=5), [0, 1e308, 0, -1e308, 0, 1e308]),
    # p(0) = 0 exactly, but the series of q_0 overflows
    (BootstrapSpec(q=1.0, epsilon=0.5, K=0, d=3), [0, 1e308, 0, 1e308]),
    # finite, but p(q) = 1.008 is no root
    (BootstrapSpec(q=1.0, epsilon=0.5, K=1, d=3), [0, 1.26, 0, 0]),
], ids=["nan_roots", "overflow_in_series", "failed_root"])
def test_slope_bound_is_infinite_on_overflow_or_a_failed_root(spec, coefficients):
    poly = BootstrapPolynomial(spec=spec, coefficients=coefficients,
                               gamma_certified=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert slope_bound(poly) == np.inf


def _bound_kernel_calls(monkeypatch, poly, hook):
    """Run slope_bound with every kernel value replaced by hook(index, p)."""
    calls = []

    def spy(c, x, work=None):
        p = hook(len(calls), KERNEL(c, x, work))
        calls.append(np.size(x))
        return p

    monkeypatch.setattr(bootpoly, "_clenshaw", spy)
    return slope_bound(poly), calls


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("call", ["first_root", "first_block", "last_block"])
def test_slope_bound_is_infinite_on_any_nonfinite_value(monkeypatch, fitted_poly,
                                                        call, bad):
    """One non-finite kernel value, at a root or at any node, makes the
    bound inf; a NaN is never dropped by the running maximum."""
    _, calls = _bound_kernel_calls(monkeypatch, fitted_poly, lambda i, p: p)
    K = fitted_poly.spec.K
    # the roots of offsets 0..K, then blocks of nodes
    assert calls[:K + 1] == [1] * (K + 1) and max(calls) == BLOCK
    target = {"first_root": 0, "first_block": K + 1, "last_block": len(calls) - 1}[call]

    def inject(i, p):
        if i != target:
            return p
        if np.ndim(p) == 0:
            return bad
        p = p.copy()
        p[-1] = bad
        return p

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gamma, _ = _bound_kernel_calls(monkeypatch, fitted_poly, inject)
    assert gamma == np.inf


def test_slope_bound_memory_is_a_few_blocks():
    """The nodes are formed a block at a time: at d = 45, K = 3 (4 x 90k
    nodes) the tracemalloc peak stays that of a few blocks."""
    poly = fit(BootstrapSpec(q=1.0, epsilon=0.5, K=3, d=45))
    tracemalloc.start()
    try:
        gamma = slope_bound(poly)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gamma == poly.gamma_certified
    assert peak <= 1.5e6


def test_slope_bound_takes_every_offset_of_a_polynomial_that_is_not_odd(fitted_poly):
    """-r mirrors r only when every even coefficient is exactly 0.  An even
    term vanishing at every wrap point makes the negative offsets' slope
    the larger; the bound of the polynomial loaded from JSON covers it."""
    H = fitted_poly.spec.half_range
    even = poly2cheb(-0.03 * polyfromroots([0, 0, 1 / H, -1 / H, 2 / H, -2 / H]))
    data = poly_to_json(fitted_poly)
    data["coefficients"] = (fitted_poly.coefficients
                            + np.pad(even, (0, 26 - even.size))).tolist()
    poly = poly_from_json(data)
    assert np.count_nonzero(poly.coefficients[::2]) > 0
    m = np.linspace(1e-3, 0.25, 20_000)
    slopes = {r: v.max() for r, v in _slopes(poly, np.concatenate([-m, m])).items()}
    negative = max(v for r, v in slopes.items() if r < 0)
    assert negative > max(v for r, v in slopes.items() if r >= 0) * (1 + 1e-3)
    assert negative <= slope_bound(poly)


def _record_stalls(monkeypatch):
    """The LpErrors that fit's LP raises, recorded as they pass through."""
    stalls, solve_lp = [], bootpoly.solve_lp

    def spy(c, A, b):
        try:
            return solve_lp(c, A, b)
        except lp.LpError as exc:
            stalls.append(exc)
            raise

    monkeypatch.setattr(bootpoly, "solve_lp", spy)
    return stalls


def test_fit_certifies_the_lp_iterate_at_a_stall(monkeypatch):
    """At K = 8, d = 95, eps = 0.1 the LP stalls at its iteration cap with a
    primal-feasible iterate, and fit returns that iterate's proven slope."""
    stalls = _record_stalls(monkeypatch)
    poly = fit(BootstrapSpec(q=1.0, epsilon=0.1, K=8, d=95))
    assert len(stalls) == 1 and stalls[0].feasible
    assert poly.gamma_certified == slope_bound(poly) <= 5.2e-4


def test_fit_returns_a_feasible_iterate_of_a_capped_lp(monkeypatch):
    """Seven iterations leave d = 25, K = 2 unconverged, but the last
    iterate is primal feasible: fit certifies it instead of raising."""
    monkeypatch.setattr(lp, "_MAX_ITER", 7)
    stalls = _record_stalls(monkeypatch)
    poly = fit(BootstrapSpec(q=1.0, epsilon=0.5, K=2, d=25))
    assert len(stalls) == 1 and stalls[0].feasible
    assert poly.gamma_certified == slope_bound(poly) < 1.0
    assert verify(poly, 100_000) <= poly.gamma_certified
