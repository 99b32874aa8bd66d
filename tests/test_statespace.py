"""Closed-loop algebra: interconnection blocks, simulation, lifting,
performance lifting, and system serialization."""

import itertools
import re
from dataclasses import fields

import numpy as np
import pytest

import bootctrl.crypto_sim as cs
from bootctrl.analysis import (
    CERTIFIED,
    THEOREM_1,
    THEOREM_2,
    SectorBound,
    analyze_l2_gain,
    make_fir_controller,
)
from bootctrl.bootpoly import (
    BootstrapPolynomial,
    BootstrapSpec,
    centered_mod,
    poly_from_json,
    poly_to_json,
)
from bootctrl.cli import main
from bootctrl.fixtures import demo_scheme
from bootctrl.simulator import PLAINTEXT_REFERENCE, SimulationConfig, run_closed_loop
from bootctrl.statespace import (
    ClosedLoop,
    Controller,
    Plant,
    PerformanceIndex,
    as_matrix,
    check_symmetric,
    interconnect,
    lift,
    lift_performance,
    load_system,
    save_system,
    simulate,
    system_from_json,
    system_to_json,
)


def test_interconnect_blocks_match_hand_formula(plant, controller):
    cl = interconnect(plant, controller)
    A, B, B1, C = plant.A, plant.B, plant.B1, plant.C
    F1, C1, E, D1 = plant.F1, plant.C1, plant.E, plant.D1
    Ac, Bc, B2 = controller.Ac, controller.Bc, controller.B2
    Cc, Dc, F2 = controller.Cc, controller.Dc, controller.F2
    n, nc = plant.n, controller.nc

    assert np.array_equal(
        cl.Acl, np.block([[A + B @ Dc @ C, B @ Cc], [Bc @ C, Ac]])
    )
    assert np.array_equal(
        cl.Bp, np.block([[B1 + B @ Dc @ F1, B @ F2], [Bc @ F1, B2]])
    )
    assert np.array_equal(cl.Bu, np.vstack([np.zeros((n, nc)), Ac]))
    assert np.array_equal(cl.Cp, np.hstack([C1 + E @ Dc @ C, E @ Cc]))
    assert np.array_equal(cl.Dpp, np.hstack([D1 + E @ Dc @ F1, E @ F2]))
    assert np.array_equal(cl.Dpu, np.zeros((plant.p_z, nc)))
    assert np.array_equal(cl.Cu, np.hstack([np.zeros((nc, n)), np.eye(nc)]))
    assert not cl.Dup.any() and not cl.Duu.any()


def test_interconnect_checks_dimensions(plant, controller):
    wide_controller = Controller(
        Ac=controller.Ac,
        Bc=np.hstack([controller.Bc, controller.Bc]),  # expects 2 measurements
        B2=controller.B2,
        Cc=controller.Cc,
        Dc=np.hstack([controller.Dc, controller.Dc]),
        F2=controller.F2,
    )
    with pytest.raises(ValueError, match="outputs"):
        interconnect(plant, wide_controller)
    # a system file of the pair is refused when it is read
    with pytest.raises(ValueError, match="incompatible dimensions"):
        system_from_json(system_to_json(plant, wide_controller))


def test_interconnect_checks_the_input_count(plant, controller):
    tall_controller = Controller(  # produces 2 inputs for a 1-input plant
        Ac=controller.Ac, Bc=controller.Bc, B2=controller.B2,
        Cc=np.vstack([controller.Cc, controller.Cc]),
        Dc=np.vstack([controller.Dc, controller.Dc]),
        F2=np.vstack([controller.F2, controller.F2]),
    )
    with pytest.raises(ValueError, match="^incompatible dimensions: plant expects 1 "
                                         "inputs, controller produces 2$"):
        interconnect(plant, tall_controller)


def test_closed_loop_recursion_matches_components(plant, controller):
    """simulate() on the interconnection equals the componentwise recursion
    x(t+1) = A x + B u + B1 w1, x_c(t+1) = Ac (x_c + w_u) + Bc y + B2 w2."""
    cl = interconnect(plant, controller)
    rng = np.random.default_rng(7)
    steps = 60
    w1 = rng.standard_normal((steps, plant.m_w1))
    w2 = rng.standard_normal((steps, controller.m_w2))
    wu = 0.1 * rng.standard_normal((steps, controller.nc))
    w_p = np.hstack([w1, w2])
    x0 = rng.standard_normal(cl.n_xi)

    xi, z_p, z_u = simulate(cl, x0, w_p, wu, steps)

    x = x0[: plant.n].copy()
    xc = x0[plant.n:].copy()
    for t in range(steps):
        y = plant.C @ x + plant.F1 @ w1[t]
        u = controller.Cc @ xc + controller.Dc @ y + controller.F2 @ w2[t]
        z = plant.C1 @ x + plant.E @ u + plant.D1 @ w1[t]
        np.testing.assert_allclose(z_p[t], z, atol=1e-12)
        np.testing.assert_allclose(z_u[t], xc, atol=1e-12)
        x, xc = (
            plant.A @ x + plant.B @ u + plant.B1 @ w1[t],
            controller.Ac @ (xc + wu[t]) + controller.Bc @ y
            + controller.B2 @ w2[t],
        )
        np.testing.assert_allclose(xi[t + 1], np.concatenate([x, xc]),
                                   atol=1e-11)


def test_lift_T1_reproduces_base_loop(plant, controller):
    cl = interconnect(plant, controller)
    lifted = lift(cl, 1)
    for name in ("Acl", "Bp", "Bu", "Cp", "Dpp", "Cu", "Duu"):
        assert np.array_equal(getattr(lifted, name), getattr(cl, name)), name
    assert np.array_equal(lifted.Dpu, cl.Dpu)
    assert np.array_equal(lifted.Dup, cl.Dup)


def _lift_deviation(cl, lifted, T, rng):
    """Max relative deviation between the lifted one-shot map and running
    the base recursion T steps (uncertainty input applied at period start)."""
    x0 = rng.standard_normal(cl.n_xi)
    w_p = rng.standard_normal((T, cl.m_wp))
    w_u = np.zeros((T, cl.n_wu))
    w_u[0] = rng.standard_normal(cl.n_wu)
    xi, z_p, z_u = simulate(cl, x0, w_p, w_u, T)
    wtil = w_p.reshape(-1)
    xi_T = lifted.Acl @ x0 + lifted.Bp @ wtil + lifted.Bu @ w_u[0]
    ztil = lifted.Cp @ x0 + lifted.Dpp @ wtil + lifted.Dpu @ w_u[0]
    zu0 = lifted.Cu @ x0 + lifted.Dup @ wtil + lifted.Duu @ w_u[0]
    scale = max(1.0, np.abs(xi).max(), np.abs(z_p).max())
    return max(
        np.abs(xi_T - xi[T]).max() / scale,
        np.abs(ztil - z_p.reshape(-1)).max() / scale,
        np.abs(zu0 - z_u[0]).max() / scale,
    )


@pytest.mark.parametrize("T", [2, 5, 10])
def test_lift_exactness_random_systems(make_random_system, T):
    rng = np.random.default_rng(100 + T)
    for _ in range(10):
        plant, controller = make_random_system(rng)
        cl = interconnect(plant, controller)
        lifted = lift(cl, T)
        assert lifted.Acl.shape == cl.Acl.shape  # state is not expanded
        assert lifted.Bp.shape == (cl.n_xi, T * cl.m_wp)
        assert lifted.Cp.shape == (T * cl.p_z, cl.n_xi)
        assert _lift_deviation(cl, lifted, T, rng) <= 1e-9


@pytest.mark.parametrize("T", [1, 2, 5])
def test_lift_keeps_uncertainty_feedthrough(T):
    """Interconnected loops have Dpu = Duu = 0, so build random closed loops
    with every block nonzero: w_u enters z_p and z_u directly in the first
    step of each period."""
    rng = np.random.default_rng(200 + T)
    for _ in range(10):
        n_xi, m_wp, n_wu, p_z, n_zu = rng.integers(1, 4, size=5)
        A = rng.standard_normal((n_xi, n_xi))
        cl = ClosedLoop(
            Acl=0.8 * A / max(abs(np.linalg.eigvals(A))),
            Bp=rng.standard_normal((n_xi, m_wp)),
            Bu=rng.standard_normal((n_xi, n_wu)),
            Cp=rng.standard_normal((p_z, n_xi)),
            Dpp=rng.standard_normal((p_z, m_wp)),
            Dpu=rng.standard_normal((p_z, n_wu)),
            Cu=rng.standard_normal((n_zu, n_xi)),
            Dup=rng.standard_normal((n_zu, m_wp)),
            Duu=rng.standard_normal((n_zu, n_wu)),
        )
        assert _lift_deviation(cl, lift(cl, T), T, rng) <= 1e-10


def test_lift_performance_energy_sum(make_random_system):
    """The lifted index sums the per-step quadratic forms: for stacked
    signals, [w~; z~]^T P~ [w~; z~] = sum_t [w(t); z(t)]^T P [w(t); z(t)]."""
    rng = np.random.default_rng(11)
    m_wp, p_z, T = 3, 2, 6
    Q = rng.standard_normal((m_wp, m_wp))
    Q = Q + Q.T
    S = rng.standard_normal((m_wp, p_z))
    R = rng.standard_normal((p_z, p_z))
    R = R @ R.T
    perf = PerformanceIndex(Qp=Q, Sp=S, Rp=R)
    lifted = lift_performance(perf, T)
    assert np.array_equal(lifted.Qp, np.kron(np.eye(T), Q))
    assert np.array_equal(lifted.Sp, np.kron(np.eye(T), S))
    assert np.array_equal(lifted.Rp, np.kron(np.eye(T), R))

    w = rng.standard_normal((T, m_wp))
    z = rng.standard_normal((T, p_z))
    per_step = sum(
        np.concatenate([w[t], z[t]]) @ perf.Pp @ np.concatenate([w[t], z[t]])
        for t in range(T)
    )
    wtil, ztil = w.reshape(-1), z.reshape(-1)
    lifted_val = np.concatenate([wtil, ztil]) @ lifted.Pp @ np.concatenate(
        [wtil, ztil]
    )
    np.testing.assert_allclose(lifted_val, per_step, rtol=1e-12)


@pytest.mark.parametrize("T", [0, -1, 2.5, True, 2.0])
def test_lift_rejects_bad_period(plant, controller, T):
    cl = interconnect(plant, controller)
    with pytest.raises(ValueError, match="^T_BS must be"):
        lift(cl, T)
    with pytest.raises(ValueError, match="^T_BS must be"):
        lift_performance(PerformanceIndex(Qp=-np.eye(1), Sp=np.zeros((1, 1)),
                                          Rp=np.eye(1)), T)


def test_lift_takes_a_numpy_integer_period(plant, controller):
    cl = interconnect(plant, controller)
    perf = PerformanceIndex(Qp=-np.eye(1), Sp=np.zeros((1, 1)), Rp=np.eye(1))
    for got, want in ((lift(cl, np.int64(3)), lift(cl, 3)),
                      (lift_performance(perf, np.int64(3)), lift_performance(perf, 3))):
        for name in vars(want):
            assert np.array_equal(getattr(got, name), getattr(want, name))


def test_simulate_validates_inputs(plant, controller):
    cl = interconnect(plant, controller)
    with pytest.raises(ValueError, match=rf"^x0 must have shape \({cl.n_xi},\), got "):
        simulate(cl, np.zeros(cl.n_xi + 1), None, None, 3)
    with pytest.raises(ValueError, match=rf"^w_p must have shape \(3, {cl.m_wp}\), got "):
        simulate(cl, np.zeros(cl.n_xi), np.zeros((2, cl.m_wp)), None, 3)
    with pytest.raises(ValueError, match="^steps must be at least 0, got -1$"):
        simulate(cl, np.zeros(cl.n_xi), None, None, -1)
    xi, z_p, z_u = simulate(cl, np.zeros(cl.n_xi), None, None, 0)
    assert xi.shape == (1, cl.n_xi) and z_p.shape == (0, cl.p_z)


@pytest.mark.parametrize("steps", [2.7, 2.0, True, "2", None])
def test_simulate_rejects_non_integer_steps(plant, controller, steps):
    """steps = 2.7 used to run 2 steps and steps = True 1; a numpy integer
    runs as given."""
    cl = interconnect(plant, controller)
    with pytest.raises(ValueError, match="^steps must be an integer"):
        simulate(cl, np.zeros(cl.n_xi), None, None, steps)
    xi, z_p, _ = simulate(cl, np.zeros(cl.n_xi), None, None, np.int64(2))
    assert xi.shape == (3, cl.n_xi) and z_p.shape == (2, cl.p_z)


@pytest.mark.parametrize("record, name", [
    (Plant, "B1"), (Controller, "Dc"), (ClosedLoop, "Dup"), (PerformanceIndex, "Sp"),
])
def test_wrong_shaped_field_is_named(plant, controller, record, name):
    """A field with one row too many is refused by its name, against the
    size that an earlier field fixed."""
    valid = {
        Plant: plant,
        Controller: controller,
        ClosedLoop: interconnect(plant, controller),
        PerformanceIndex: PerformanceIndex(Qp=-np.eye(3), Sp=np.zeros((3, 2)),
                                           Rp=np.eye(2)),
    }[record]
    kwargs = {k: getattr(valid, k) for k in vars(valid)}
    kwargs[name] = np.vstack([kwargs[name], kwargs[name][:1]])
    with pytest.raises(ValueError, match=f"^incompatible dimensions: {name} has "):
        record(**kwargs)
    for arr in vars(record(**{k: getattr(valid, k) for k in vars(valid)})).values():
        assert not arr.flags.writeable


def test_matrices_are_frozen(plant):
    assert not plant.A.flags.writeable
    with pytest.raises(ValueError):
        plant.A[0, 0] = 5.0


def test_records_copy_the_callers_arrays(plant):
    """Freezing a record leaves the caller's own array writable, and a later
    write to it does not reach the record."""
    A = np.array(plant.A)
    frozen = Plant(**{**{k: getattr(plant, k) for k in vars(plant)}, "A": A})
    L = np.array([[0.25]])
    sector = SectorBound(L_lower=L, L_upper=np.array([[0.5]]))
    assert frozen.A is not A and sector.L_lower is not L
    assert A.flags.writeable and L.flags.writeable
    A[0, 0] += 1.0
    L[0, 0] = 0.75
    np.testing.assert_array_equal(frozen.A, plant.A)
    assert sector.L_lower[0, 0] == 0.25
    assert not frozen.A.flags.writeable and not sector.L_lower.flags.writeable


def test_matrix_rules_refuse_the_wrong_number_of_axes():
    with pytest.raises(ValueError, match=r"^M must be square, got \(2, 3\)$"):
        check_symmetric(np.zeros((2, 3)), "M")
    with pytest.raises(ValueError, match=r"^M must be at most 2-dimensional, "
                                         r"got shape \(2, 2, 2\)$"):
        as_matrix(np.zeros((2, 2, 2)), "M")


def test_system_json_roundtrip(tmp_path, plant, controller):
    path = tmp_path / "system.json"
    save_system(path, plant, controller)
    plant2, controller2 = load_system(path)
    for name in ("A", "B", "B1", "C", "F1", "C1", "E", "D1"):
        assert np.array_equal(getattr(plant, name), getattr(plant2, name))
    for name in ("Ac", "Bc", "B2", "Cc", "Dc", "F2"):
        assert np.array_equal(getattr(controller, name),
                              getattr(controller2, name))


def test_system_json_missing_field(plant, controller):
    """Missing, null and ill-typed fields and a top level that is not an
    object all raise ValueError."""
    data = system_to_json(plant, controller)
    del data["Bc"]
    with pytest.raises(ValueError, match="Bc"):
        system_from_json(data)
    for top in ([1], "abc", 3, None):
        with pytest.raises(ValueError, match="must be an object"):
            system_from_json(top)
    for value in (None, "abc", {}, [[1.0], [2.0, 3.0]], 10 ** 400):
        data = system_to_json(plant, controller)
        data["Bc"] = value
        with pytest.raises(ValueError, match="Bc"):
            system_from_json(data)


def test_as_matrix_refuses_strings_and_bools_by_name(plant):
    """A string or bool entry, which numpy would read as a number, is
    refused naming the argument, as check_real refuses it as a scalar;
    integers of either kind and numeric arrays still pass."""
    for value, bad in [([["0.5", True]], "'0.5'"), ([[0.5, True]], "True"),
                       ("1", "'1'"), ([[1.0], [np.bool_(0)]], "np.False_"),
                       (np.array([[True, False]]), "np.True_"),
                       (np.array([["1.5"]]), "np.str_('1.5')"),
                       (np.array([[1.0, "x"]], dtype=object), "'x'"), ([[b"1"]], "b'1'")]:
        with pytest.raises(ValueError, match=f"^A entries must be real numbers, got {re.escape(bad)}$"):
            as_matrix(value, "A")
    with pytest.raises(ValueError, match="^A entries must be real numbers, got '0.5'$"):
        Plant(**{**{k: getattr(plant, k) for k in Plant._DIMS}, "A": [["0.5"]]})
    for value in ([[1, np.int64(2)], [0.5, np.float32(0.25)]], np.eye(2, dtype=np.int8),
                  np.array([[1.0, 2]], dtype=object)):
        assert as_matrix(value, "A").dtype == float


def test_simulate_takes_zero_width_signals_and_refuses_the_wrong_shape(plant, controller):
    """A zero-width signal of the right length runs; a signal with extra
    rows, a flattened one and a non-finite one are refused by name."""
    static = Controller(Ac=np.zeros((0, 0)), Bc=np.zeros((0, 1)), B2=np.zeros((0, 1)),
                        Cc=np.zeros((1, 0)), Dc=[[-0.1]], F2=[[0.0]])
    cl = interconnect(plant, static)
    xi, z_p, z_u = simulate(cl, np.zeros(cl.n_xi), None, np.zeros((4, 0)), 4)
    assert xi.shape == (5, cl.n_xi) and z_u.shape == (4, 0)
    cl = interconnect(plant, controller)
    w_p = np.ones((4, cl.m_wp))
    for bad in (np.ones((5, cl.m_wp)), w_p.reshape(-1)):
        with pytest.raises(ValueError, match=r"^w_p must have shape \(4, "):
            simulate(cl, np.zeros(cl.n_xi), bad, None, 4)
    w_p[2, 0] = np.nan
    with pytest.raises(ValueError, match="^w_p has non-finite entries$"):
        simulate(cl, np.zeros(cl.n_xi), w_p, None, 4)
    with pytest.raises(ValueError, match="^x0 has non-finite entries$"):
        simulate(cl, np.full(cl.n_xi, np.inf), None, None, 4)


def test_system_file_keeps_matrices_without_rows(tmp_path, plant, controller):
    """A plant with no performance output (p_z = 0) and a static controller
    (nc = 0) survive the system file: JSON writes a (0, n) matrix as [],
    and the records take its shape from their dimension tables."""
    no_z = Plant(**{**{k: getattr(plant, k) for k in Plant._DIMS},
                    "C1": np.zeros((0, plant.n)), "E": np.zeros((0, plant.m_u)),
                    "D1": np.zeros((0, plant.m_w1))})
    static = Controller(Ac=np.zeros((0, 0)), Bc=np.zeros((0, 1)), B2=np.zeros((0, 1)),
                        Cc=np.zeros((1, 0)), Dc=[[-0.1]], F2=[[0.0]])
    path = tmp_path / "system.json"
    save_system(path, no_z, static)
    for record, loaded in zip((no_z, static), load_system(path)):
        for name in record._DIMS:
            assert np.array_equal(getattr(loaded, name), getattr(record, name)), name
    data = system_to_json(plant, controller)
    data["Bc"] = []  # no entries, although nc and p_y are not 0
    with pytest.raises(ValueError, match="^incompatible dimensions: Bc is empty, but "
                                         f"nc = {controller.nc} and p_y = 1$"):
        system_from_json(data)


def _grid_system(n, nc, m_w1, m_w2, p_z):
    """A stable loop with m_u = p_y = 1 and the given other dimensions."""
    plant = Plant(A=0.5 * np.eye(n) + 0.1 * np.eye(n, k=1), B=np.ones((n, 1)),
                  B1=0.5 * np.ones((n, m_w1)), C=np.ones((1, n)),
                  F1=0.1 * np.ones((1, m_w1)), C1=np.ones((p_z, n)),
                  E=np.zeros((p_z, 1)), D1=np.zeros((p_z, m_w1)))
    controller = Controller(Ac=0.3 * np.eye(nc), Bc=np.ones((nc, 1)),
                            B2=0.2 * np.ones((nc, m_w2)), Cc=-0.1 * np.ones((1, nc)),
                            Dc=[[-0.1]], F2=0.1 * np.ones((1, m_w2)))
    return plant, controller


GRID = list(itertools.product((1, 2), (0, 1), (0, 1), (0, 1), (0, 1)))


@pytest.mark.parametrize("dims", GRID, ids=["n{}-nc{}-w1_{}-w2_{}-z{}".format(*d)
                                             for d in GRID])
def test_every_small_shape_works_or_is_refused_by_name(tmp_path, capsys, dims):
    """n in {1, 2}; nc, m_w1, m_w2 and p_z in {0, 1}; m_u = p_y = 1.  The
    direct, lifted and reset analyses, a plaintext run, a system-file round
    trip and `bootctrl analyze --system` each give a result, or a
    ValueError naming the dimension (no disturbance: m_wp; no performance
    output: p_z); RuntimeWarnings are errors under pyproject.toml."""
    n, nc, m_w1, m_w2, p_z = dims
    plant, controller = _grid_system(*dims)
    refused = "m_wp" if m_w1 + m_w2 == 0 else "p_z" if p_z == 0 else None
    for kwargs in (dict(method=THEOREM_1), dict(method=THEOREM_2, T_BS=3),
                   dict(mode="reset", T_BS=3)):
        if refused:
            with pytest.raises(ValueError, match=rf"^{refused} \("):
                analyze_l2_gain(plant, controller, 0.1, **kwargs)
        else:
            assert analyze_l2_gain(plant, controller, 0.1, **kwargs).verdict == CERTIFIED
    res = run_closed_loop(plant, controller, SimulationConfig(mode=PLAINTEXT_REFERENCE,
                                                              steps=12),
                          w_p1=np.ones((12, m_w1)), w_p2=np.ones((12, m_w2)))
    assert res.x_c.shape == (13, nc) and res.z_p.shape == (12, p_z)
    path = tmp_path / "system.json"
    save_system(path, plant, controller)
    for record, loaded in zip((plant, controller), load_system(path)):
        for name in record._DIMS:
            assert np.array_equal(getattr(loaded, name), getattr(record, name)), name
    code = main(["analyze", "--system", str(path), "--gamma", "0.1", "--tbs", "3",
                 "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    if refused:
        assert code == 1 and err.startswith(f"analysis aborted: {refused} (")
    else:
        assert code == 0 and err == ""


def _assert_dimensions_from_table(record):
    """Each name in the record's _DIMS is a read-only class property equal
    to that axis of every field naming it; vars(record) holds only the
    fields."""
    assert list(vars(record)) == [f.name for f in fields(record)]
    for name, dims in record._DIMS.items():
        for axis, dim in enumerate(dims):
            prop = getattr(type(record), dim)
            assert isinstance(prop, property) and prop.fset is None, dim
            size = getattr(record, dim)
            assert type(size) is int and size == getattr(record, name).shape[axis], dim


def test_dimensions_are_read_from_each_records_table(plant, controller):
    """On the demo records and the 32 systems of the small-shape grid, zero
    sizes included, every dimension is its field's axis."""
    for dims in [None, *GRID]:
        pair = (plant, controller) if dims is None else _grid_system(*dims)
        cl = interconnect(*pair)
        perf = PerformanceIndex(Qp=-np.eye(cl.m_wp), Sp=np.zeros((cl.m_wp, cl.p_z)),
                                Rp=np.eye(cl.p_z))
        for record in (*pair, cl, lift(cl, 3), perf, lift_performance(perf, 3),
                       SectorBound.symmetric(0.1, cl.n_zu)):
            _assert_dimensions_from_table(record)
        assert (cl.n_xi, cl.n_zu) == (pair[0].n + pair[1].nc, pair[1].nc)


_SPEC = BootstrapSpec(d=3)
_REAL_SITES = {
    "gamma": lambda bad: SectorBound.symmetric(bad, 2),
    "tol": lambda bad: analyze_l2_gain(*_grid_system(1, 1, 1, 0, 1), 0.1,
                                       method=THEOREM_1, tol=bad),
    "value": lambda bad: cs.encrypt(cs.keygen(demo_scheme()), bad),
    "lam": lambda bad: make_fir_controller(3, bad, [[-0.3]]),
    **{name: lambda bad, name=name: BootstrapSpec(**{name: bad})
       for name in ("q", "epsilon", "K", "d")},
    "gamma_certified": lambda bad: BootstrapPolynomial(_SPEC, [0, 1, 0, 0], bad),
    "coefficients": lambda bad: BootstrapPolynomial(_SPEC, [0, bad, 0, 0], 0.5),
    "poly JSON field interval": lambda bad: poly_from_json(
        {**poly_to_json(BootstrapPolynomial(_SPEC, [0, 1, 0, 0], 0.5)),
         "interval": [bad, _SPEC.half_range]}),
    "centered_mod q": lambda bad: centered_mod(1.0, bad),
}


@pytest.mark.parametrize("bad", ["1", None, True, np.nan], ids=["str", "None", "bool", "nan"])
@pytest.mark.parametrize("site", list(_REAL_SITES))
def test_every_real_number_site_refuses_a_non_real_by_name(site, bad):
    """A string, None, a bool or NaN given for a real number is a ValueError
    naming the argument, never a TypeError or a bool taken as 1."""
    name = site.split()[-1] if site.startswith("centered_mod") else site
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be a finite "
                                         f"real number, got {re.escape(repr(bad))}$"):
        _REAL_SITES[site](bad)


@pytest.mark.parametrize("name", ["Qp", "Rp"])
def test_performance_index_holds_the_symmetric_matrix_rule(name):
    """An asymmetry of 1e-6, which the LMI layer would refuse, is refused
    when the index is built."""
    fields = dict(Qp=-np.eye(2), Sp=np.zeros((2, 2)), Rp=np.eye(2))
    fields[name] = fields[name] + np.array([[0.0, 1e-6], [0.0, 0.0]])
    with pytest.raises(ValueError, match=f"^{name} must be symmetric$"):
        PerformanceIndex(**fields)
