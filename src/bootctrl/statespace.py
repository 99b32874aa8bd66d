"""State-space representations for the encrypted control loop.

Holds the plant, the dynamic output-feedback controller with its
uncertainty channel, their interconnection, and the lifted reformulation
that samples the loop every T_BS base steps.  All matrices are dense
float arrays and all types are immutable after construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "Plant",
    "Controller",
    "ClosedLoop",
    "PerformanceIndex",
    "interconnect",
    "lift",
    "lift_performance",
    "simulate",
    "system_to_json",
    "system_from_json",
    "load_system",
    "save_system",
]


def as_matrix(value, name="matrix"):
    """Coerce scalars / nested lists into a 2-D float array."""
    try:
        arr = np.atleast_2d(np.asarray(value, dtype=float))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{name} is not a numeric matrix: {exc}") from None
    if arr.ndim != 2:
        raise ValueError(f"{name} must be at most 2-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _freeze(obj):
    for f in fields(obj):
        v = getattr(obj, f.name)
        if isinstance(v, np.ndarray):
            v.setflags(write=False)


def _check(cond, pair, detail):
    if not cond:
        raise ValueError(f"incompatible dimensions between {pair}: {detail}")


@dataclass(frozen=True)
class Plant:
    """Discrete-time LTI plant with measurement and performance channels.

    x(t+1) = A x + B u + B1 w_p1
    y(t)   = C x + F1 w_p1
    z_p(t) = C1 x + E u + D1 w_p1
    """

    A: np.ndarray
    B: np.ndarray
    B1: np.ndarray
    C: np.ndarray
    F1: np.ndarray
    C1: np.ndarray
    E: np.ndarray
    D1: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, as_matrix(getattr(self, f.name), f.name))
        n, m_u, m_w1, p_y, p_z = self.n, self.m_u, self.m_w1, self.p_y, self.p_z
        _check(self.A.shape == (n, n), "A/A", "state matrix must be square")
        _check(self.B.shape == (n, m_u), "A/B", f"B must have {n} rows")
        _check(self.B1.shape == (n, m_w1), "A/B1", f"B1 must have {n} rows")
        _check(self.C.shape == (p_y, n), "C/A", f"C must have {n} columns")
        _check(self.F1.shape == (p_y, m_w1), "F1/(C,B1)", f"F1 must be {p_y}x{m_w1}")
        _check(self.C1.shape == (p_z, n), "C1/A", f"C1 must have {n} columns")
        _check(self.E.shape == (p_z, m_u), "E/(C1,B)", f"E must be {p_z}x{m_u}")
        _check(self.D1.shape == (p_z, m_w1), "D1/(C1,B1)", f"D1 must be {p_z}x{m_w1}")
        _freeze(self)

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m_u(self):
        return self.B.shape[1]

    @property
    def m_w1(self):
        return self.B1.shape[1]

    @property
    def p_y(self):
        return self.C.shape[0]

    @property
    def p_z(self):
        return self.C1.shape[0]


@dataclass(frozen=True)
class Controller:
    """Dynamic output-feedback controller with an uncertainty channel.

    x_c(t+1) = Ac x_c + Bc y + B2 w_p2 + Ac w_u
    u(t)     = Cc x_c + Dc y + F2 w_p2
    z_u(t)   = x_c

    The uncertainty input enters through Ac itself; there is no separate
    input matrix for w_u.
    """

    Ac: np.ndarray
    Bc: np.ndarray
    B2: np.ndarray
    Cc: np.ndarray
    Dc: np.ndarray
    F2: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, as_matrix(getattr(self, f.name), f.name))
        nc, p_y, m_w2, m_u = self.nc, self.p_y, self.m_w2, self.m_u
        _check(self.Ac.shape == (nc, nc), "Ac/Ac", "state matrix must be square")
        _check(self.Bc.shape == (nc, p_y), "Ac/Bc", f"Bc must have {nc} rows")
        _check(self.B2.shape == (nc, m_w2), "Ac/B2", f"B2 must have {nc} rows")
        _check(self.Cc.shape == (m_u, nc), "Cc/Ac", f"Cc must have {nc} columns")
        _check(self.Dc.shape == (m_u, p_y), "Dc/(Cc,Bc)", f"Dc must be {m_u}x{p_y}")
        _check(self.F2.shape == (m_u, m_w2), "F2/(Cc,B2)", f"F2 must be {m_u}x{m_w2}")
        _freeze(self)

    @property
    def nc(self):
        return self.Ac.shape[0]

    @property
    def p_y(self):
        return self.Bc.shape[1]

    @property
    def m_w2(self):
        return self.B2.shape[1]

    @property
    def m_u(self):
        return self.Cc.shape[0]


@dataclass(frozen=True)
class ClosedLoop:
    """Interconnection of plant and controller with joint state xi = (x, x_c).

    ( xi(t+1) )   ( Acl | Bp  | Bu  ) ( xi(t)  )
    ( z_p(t)  ) = ( Cp  | Dpp | Dpu ) ( w_p(t) )
    ( z_u(t)  )   ( Cu  | Dup | Duu ) ( w_u(t) )
    """

    Acl: np.ndarray
    Bp: np.ndarray
    Bu: np.ndarray
    Cp: np.ndarray
    Dpp: np.ndarray
    Dpu: np.ndarray
    Cu: np.ndarray
    Dup: np.ndarray
    Duu: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, as_matrix(getattr(self, f.name), f.name))
        nxi, m_wp, n_wu = self.n_xi, self.m_wp, self.n_wu
        p_z, n_zu = self.p_z, self.n_zu
        _check(self.Acl.shape == (nxi, nxi), "Acl/Acl", "state matrix must be square")
        _check(self.Bp.shape == (nxi, m_wp), "Acl/Bp", f"Bp must have {nxi} rows")
        _check(self.Bu.shape == (nxi, n_wu), "Acl/Bu", f"Bu must have {nxi} rows")
        _check(self.Cp.shape == (p_z, nxi), "Cp/Acl", f"Cp must have {nxi} columns")
        _check(self.Dpp.shape == (p_z, m_wp), "Dpp/(Cp,Bp)", f"Dpp must be {p_z}x{m_wp}")
        _check(self.Dpu.shape == (p_z, n_wu), "Dpu/(Cp,Bu)", f"Dpu must be {p_z}x{n_wu}")
        _check(self.Cu.shape == (n_zu, nxi), "Cu/Acl", f"Cu must have {nxi} columns")
        _check(self.Dup.shape == (n_zu, m_wp), "Dup/(Cu,Bp)", f"Dup must be {n_zu}x{m_wp}")
        _check(self.Duu.shape == (n_zu, n_wu), "Duu/(Cu,Bu)", f"Duu must be {n_zu}x{n_wu}")
        _freeze(self)

    @property
    def n_xi(self):
        return self.Acl.shape[0]

    @property
    def m_wp(self):
        return self.Bp.shape[1]

    @property
    def n_wu(self):
        return self.Bu.shape[1]

    @property
    def p_z(self):
        return self.Cp.shape[0]

    @property
    def n_zu(self):
        return self.Cu.shape[0]


@dataclass(frozen=True)
class PerformanceIndex:
    """Quadratic performance index P_p = [[Qp, Sp], [Sp^T, Rp]].

    Rp must be positive semidefinite; this is a hypothesis of both
    analysis tests.
    """

    Qp: np.ndarray
    Sp: np.ndarray
    Rp: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, as_matrix(getattr(self, f.name), f.name))
        m, p = self.m_wp, self.p_z
        _check(self.Qp.shape == (m, m), "Qp/Qp", "Qp must be square")
        _check(self.Rp.shape == (p, p), "Rp/Rp", "Rp must be square")
        _check(self.Sp.shape == (m, p), "Sp/(Qp,Rp)", f"Sp must be {m}x{p}")
        if not np.allclose(self.Qp, self.Qp.T, atol=1e-12):
            raise ValueError("Qp must be symmetric")
        if not np.allclose(self.Rp, self.Rp.T, atol=1e-12):
            raise ValueError("Rp must be symmetric")
        _freeze(self)

    @property
    def m_wp(self):
        return self.Qp.shape[0]

    @property
    def p_z(self):
        return self.Rp.shape[0]

    @property
    def Pp(self):
        return np.block([[self.Qp, self.Sp], [self.Sp.T, self.Rp]])


def interconnect(plant: Plant, controller: Controller) -> ClosedLoop:
    """Build the closed loop from plant and controller block matrices."""
    _check(
        plant.m_u == controller.m_u,
        "plant.B/controller.Cc",
        f"plant expects {plant.m_u} inputs, controller produces {controller.m_u}",
    )
    _check(
        plant.p_y == controller.p_y,
        "plant.C/controller.Bc",
        f"plant produces {plant.p_y} outputs, controller expects {controller.p_y}",
    )
    A, B, B1, C = plant.A, plant.B, plant.B1, plant.C
    F1, C1, E, D1 = plant.F1, plant.C1, plant.E, plant.D1
    Ac, Bc, B2 = controller.Ac, controller.Bc, controller.B2
    Cc, Dc, F2 = controller.Cc, controller.Dc, controller.F2
    n, nc = plant.n, controller.nc
    p_z, n_zu, m_wp = plant.p_z, controller.nc, plant.m_w1 + controller.m_w2

    Acl = np.block([[A + B @ Dc @ C, B @ Cc], [Bc @ C, Ac]])
    Bp = np.block([[B1 + B @ Dc @ F1, B @ F2], [Bc @ F1, B2]])
    Bu = np.vstack([np.zeros((n, nc)), Ac])
    Cp = np.hstack([C1 + E @ Dc @ C, E @ Cc])
    Dpp = np.hstack([D1 + E @ Dc @ F1, E @ F2])
    Dpu = np.zeros((p_z, nc))
    Cu = np.hstack([np.zeros((nc, n)), np.eye(nc)])
    Dup = np.zeros((n_zu, m_wp))
    Duu = np.zeros((n_zu, nc))
    return ClosedLoop(Acl, Bp, Bu, Cp, Dpp, Dpu, Cu, Dup, Duu)


def lift(cl: ClosedLoop, T_BS: int) -> ClosedLoop:
    """Lift the closed loop over blocks of T_BS base steps.

    The performance channel widths scale by T_BS while the uncertainty
    channel keeps its base dimensions.  Matrix powers are formed by
    iterated multiplication; T_BS stays small in every supported use.
    """
    if int(T_BS) != T_BS or T_BS < 1:
        raise ValueError(f"T_BS must be a positive integer, got {T_BS}")
    T = int(T_BS)
    A, Bp, Bu = cl.Acl, cl.Bp, cl.Bu
    Cp, Dpp = cl.Cp, cl.Dpp
    p_z, m_wp = cl.p_z, cl.m_wp

    powers = [np.eye(cl.n_xi)]
    for _ in range(T):
        powers.append(A @ powers[-1])

    At = powers[T]
    But = powers[T - 1] @ Bu
    Bpt = np.hstack([powers[T - 1 - j] @ Bp for j in range(T)])
    Cpt = np.vstack([Cp @ powers[i] for i in range(T)])

    Dppt = np.zeros((T * p_z, T * m_wp))
    for i in range(T):
        Dppt[i * p_z:(i + 1) * p_z, i * m_wp:(i + 1) * m_wp] = Dpp
        for j in range(i):
            Dppt[i * p_z:(i + 1) * p_z, j * m_wp:(j + 1) * m_wp] = (
                Cp @ powers[i - j - 1] @ Bp
            )

    Dput = np.vstack([cl.Dpu] + [Cp @ powers[i] @ Bu for i in range(T - 1)])
    Dupt = np.hstack([cl.Dup] + [np.zeros((cl.n_zu, m_wp))] * (T - 1))

    return ClosedLoop(
        Acl=At,
        Bp=Bpt,
        Bu=But,
        Cp=Cpt,
        Dpp=Dppt,
        Dpu=Dput,
        Cu=cl.Cu,
        Dup=Dupt,
        Duu=cl.Duu,
    )


def lift_performance(perf: PerformanceIndex, T_BS: int) -> PerformanceIndex:
    """Lift the performance index blockwise: each block becomes I_T kron block."""
    if int(T_BS) != T_BS or T_BS < 1:
        raise ValueError(f"T_BS must be a positive integer, got {T_BS}")
    T = int(T_BS)
    eye = np.eye(T)
    return PerformanceIndex(
        Qp=np.kron(eye, perf.Qp),
        Sp=np.kron(eye, perf.Sp),
        Rp=np.kron(eye, perf.Rp),
    )


def simulate(sys, x0, w_p, w_u, steps):
    """Run the exact recursion of the closed-loop (or lifted) equations.

    Signals are arrays of shape (steps, dim); returns the state trajectory
    of shape (steps + 1, n_xi) together with the z_p and z_u trajectories.
    The input terms of all three rows are formed in one product up front,
    so each step is a single product with the stacked [Acl; Cp; Cu].
    """
    steps = int(steps)
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape[0] != sys.n_xi:
        raise ValueError(
            f"incompatible dimensions between x0 and state: {x0.shape[0]} vs {sys.n_xi}"
        )
    w_p = np.zeros((steps, sys.m_wp)) if w_p is None else np.asarray(w_p, dtype=float)
    w_u = np.zeros((steps, sys.n_wu)) if w_u is None else np.asarray(w_u, dtype=float)
    w_p = w_p.reshape(-1, sys.m_wp) if w_p.size else w_p.reshape(0, sys.m_wp)
    w_u = w_u.reshape(-1, sys.n_wu) if w_u.size else w_u.reshape(0, sys.n_wu)
    if w_p.shape[0] < steps:
        raise ValueError(f"w_p has {w_p.shape[0]} samples, need {steps}")
    if w_u.shape[0] < steps:
        raise ValueError(f"w_u has {w_u.shape[0]} samples, need {steps}")

    n, p_z = sys.n_xi, sys.p_z
    state = np.vstack([sys.Acl, sys.Cp, sys.Cu])
    drive = (w_p[:steps] @ np.vstack([sys.Bp, sys.Dpp, sys.Dup]).T
             + w_u[:steps] @ np.vstack([sys.Bu, sys.Dpu, sys.Duu]).T)
    xi = np.zeros((steps + 1, n))
    xi[0] = x0
    for t in range(steps):
        r = drive[t]
        r += state @ xi[t]
        xi[t + 1] = r[:n]
    return xi, drive[:, n:n + p_z], drive[:, n + p_z:]


_PLANT_FIELDS = ("A", "B", "B1", "C", "F1", "C1", "E", "D1")
_CONTROLLER_FIELDS = ("Ac", "Bc", "B2", "Cc", "Dc", "F2")


def system_to_json(plant: Plant, controller: Controller) -> dict:
    """Serialize plant and controller into one JSON object with named fields."""
    out = {}
    for name in _PLANT_FIELDS:
        out[name] = getattr(plant, name).tolist()
    for name in _CONTROLLER_FIELDS:
        out[name] = getattr(controller, name).tolist()
    return out


def system_from_json(data: dict):
    """Rebuild (plant, controller) from the JSON object written by system_to_json."""
    if not isinstance(data, dict):
        raise ValueError(f"system JSON must be an object, got {type(data).__name__}")
    missing = [
        k for k in _PLANT_FIELDS + _CONTROLLER_FIELDS if k not in data
    ]
    if missing:
        raise ValueError(f"system JSON is missing fields: {', '.join(missing)}")
    plant = Plant(**{k: data[k] for k in _PLANT_FIELDS})
    controller = Controller(**{k: data[k] for k in _CONTROLLER_FIELDS})
    return plant, controller


def save_system(path, plant: Plant, controller: Controller):
    with open(path, "w") as fh:
        json.dump(system_to_json(plant, controller), fh, indent=2)
        fh.write("\n")


def load_system(path):
    with open(path) as fh:
        return system_from_json(json.load(fh))
