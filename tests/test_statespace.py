"""Closed-loop algebra: interconnection blocks, simulation, lifting,
performance lifting, and system serialization."""

import numpy as np
import pytest

from bootctrl.statespace import (
    ClosedLoop,
    Controller,
    Plant,
    PerformanceIndex,
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


@pytest.mark.parametrize("T", [0, -1, 2.5])
def test_lift_rejects_bad_period(plant, controller, T):
    cl = interconnect(plant, controller)
    with pytest.raises(ValueError):
        lift(cl, T)
    with pytest.raises(ValueError):
        lift_performance(PerformanceIndex(Qp=-np.eye(1), Sp=np.zeros((1, 1)),
                                          Rp=np.eye(1)), T)


def test_simulate_validates_inputs(plant, controller):
    cl = interconnect(plant, controller)
    with pytest.raises(ValueError, match="incompatible"):
        simulate(cl, np.zeros(cl.n_xi + 1), None, None, 3)
    with pytest.raises(ValueError, match="samples"):
        simulate(cl, np.zeros(cl.n_xi), np.zeros((2, cl.m_wp)), None, 3)
    with pytest.raises(ValueError, match="nonnegative"):
        simulate(cl, np.zeros(cl.n_xi), None, None, -1)
    xi, z_p, z_u = simulate(cl, np.zeros(cl.n_xi), None, None, 0)
    assert xi.shape == (1, cl.n_xi) and z_p.shape == (0, cl.p_z)


def test_matrices_are_frozen(plant):
    assert not plant.A.flags.writeable
    with pytest.raises(ValueError):
        plant.A[0, 0] = 5.0


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
