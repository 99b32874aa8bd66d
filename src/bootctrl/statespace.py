"""State-space representations for the encrypted control loop.

Holds the plant, the dynamic output-feedback controller with its
uncertainty channel, their interconnection, and the lifted reformulation
that samples the loop every T_BS base steps.  All matrices are dense
float arrays and all types are immutable after construction.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from sys import float_info

import numpy as np

__all__ = [
    "check_count",
    "check_real",
    "check_signal",
    "check_symmetric",
    "check_object",
    "read_json",
    "write_json",
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


def check_count(value, name, low=None):
    """int(value), or ValueError naming the argument unless it is an integer
    (not a bool) and, when low is given, at least low."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if low is not None and value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")
    return value


def check_real(value, name):
    """float(value), or ValueError naming the argument unless it is a finite
    real number (not a bool).  A float skips the numbers.Real test, an ABC
    check ten times as slow, and a comparison, not math.isfinite, takes an
    int beyond 2**64 up to the float range."""
    if (type(value) is not float and (isinstance(value, bool)
                                      or not isinstance(value, numbers.Real))
            or not abs(value) <= float_info.max):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")
    return float(value)


def _text_or_bool(value):
    """The first str, bytes or bool entry of a scalar, nested sequence or
    array, else None: numpy would read "0.5" as 0.5 and True as 1.0."""
    if isinstance(value, np.ndarray):
        if value.dtype.kind != "O":
            return value.flat[0] if value.dtype.kind in "bSU" and value.size else None
        value = value.tolist()
    if isinstance(value, (str, bytes, bool, np.bool_)):
        return value
    if isinstance(value, (list, tuple)):
        for entry in value:
            if (bad := _text_or_bool(entry)) is not None:
                return bad
    return None


def _float_array(value, name, what):
    """value as a new float array, or ValueError naming it unless every
    entry is a number and not a string or a bool (as check_real)."""
    if (bad := _text_or_bool(value)) is not None:
        raise ValueError(f"{name} entries must be real numbers, got {bad!r}")
    try:
        return np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{name} is not a numeric {what}: {exc}") from None


def check_signal(value, shape, name):
    """A signal of shape (steps, width) or an initial state of shape (n,) as
    a float array: zeros if value is None, otherwise ValueError naming the
    argument unless it has exactly that shape and real, finite entries."""
    if value is None:
        return np.zeros(shape)
    arr = _float_array(value, name, "array")
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} has non-finite entries")
    return arr


def check_symmetric(M, name):
    """M, or ValueError naming it unless it is a square array with finite
    entries, symmetric to 1e-12 of max(1, its largest entry).  A stack
    (p, n, n) is checked matrix by matrix in whole-stack passes, naming its
    first bad matrix k "<name> k"; only matrices that are not exactly
    symmetric are copied, so every stack-sized temporary is boolean."""
    if M.ndim not in (2, 3) or M.shape[-2] != M.shape[-1]:
        raise ValueError(f"{name} must be square, got {M.shape}")
    stack, at = (M[None], "") if M.ndim == 2 else (M, " {}")  # at: the index suffix
    finite = np.isfinite(stack).all(axis=(1, 2))
    if not finite.all():
        raise ValueError(f"{name}{at.format(np.argmin(finite))} has non-finite entries")
    loose = np.flatnonzero((stack != stack.transpose(0, 2, 1)).any(axis=(1, 2)))
    F = stack[loose]
    asym = np.abs(F - F.transpose(0, 2, 1)).max(axis=(1, 2), initial=0.0)
    bad = loose[asym > 1e-12 * np.maximum(1.0, np.abs(F).max(axis=(1, 2), initial=0.0))]
    if len(bad):
        raise ValueError(f"{name}{at.format(bad[0])} must be symmetric")
    return M


def check_object(data, what, required):
    """data, or ValueError unless it is a JSON object holding every required key."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} JSON must be an object, got {type(data).__name__}")
    missing = [k for k in required if k not in data]
    if missing:
        raise ValueError(f"{what} JSON is missing fields: {', '.join(missing)}")
    return data


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def write_json(path, data):
    """data as JSON at path: indent 2 and a trailing newline."""
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def as_matrix(value, name="matrix"):
    """Coerce scalars / nested lists of real numbers into a 2-D float array
    (always a copy); ValueError names the argument otherwise."""
    arr = np.atleast_2d(_float_array(value, name, "matrix"))
    if arr.ndim != 2:
        raise ValueError(f"{name} must be at most 2-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


class _Matrices:
    """Base of the frozen matrix records.

    __post_init__ coerces each field with as_matrix, checks its shape
    against the record's _DIMS table of (row, column) dimension names and
    makes it read-only.  The first field that names a dimension fixes its
    size.  An empty list, which is how JSON writes a matrix with no rows,
    has no shape of its own, so it takes the table's: each dimension's
    size from the other fields, or 0 where no other field names it.
    Each dimension is a read-only property: that axis of the first field
    that names it.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        first = {}
        for name, dims in cls._DIMS.items():
            for axis, dim in enumerate(dims):
                first.setdefault(dim, (name, axis))
        for dim, (name, axis) in first.items():
            setattr(cls, dim, property(lambda self, name=name, axis=axis:
                                       getattr(self, name).shape[axis]))

    def __post_init__(self):
        sizes, arrays, unshaped = {}, {}, []
        for name, dims in self._DIMS.items():
            value = getattr(self, name)
            arr = arrays[name] = as_matrix(value, name)
            if arr.size == 0 and np.ndim(value) == 1:
                unshaped.append((name, dims))
                continue
            for dim, size, side in zip(dims, arr.shape, ("rows", "columns")):
                want = sizes.setdefault(dim, size)
                if size != want:
                    raise ValueError(f"incompatible dimensions: {name} has {size} "
                                     f"{side}, but {dim} = {want}")
        for name, dims in unshaped:
            shape = tuple(sizes.setdefault(dim, 0) for dim in dims)
            if 0 not in shape:
                raise ValueError(f"incompatible dimensions: {name} is empty, but "
                                 f"{dims[0]} = {shape[0]} and {dims[1]} = {shape[1]}")
            arrays[name] = np.zeros(shape)
        for name, arr in arrays.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class Plant(_Matrices):
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

    _DIMS = {"A": ("n", "n"), "B": ("n", "m_u"), "B1": ("n", "m_w1"),
             "C": ("p_y", "n"), "F1": ("p_y", "m_w1"), "C1": ("p_z", "n"),
             "E": ("p_z", "m_u"), "D1": ("p_z", "m_w1")}


@dataclass(frozen=True)
class Controller(_Matrices):
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

    _DIMS = {"Ac": ("nc", "nc"), "Bc": ("nc", "p_y"), "B2": ("nc", "m_w2"),
             "Cc": ("m_u", "nc"), "Dc": ("m_u", "p_y"), "F2": ("m_u", "m_w2")}


@dataclass(frozen=True)
class ClosedLoop(_Matrices):
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

    _DIMS = {"Acl": ("n_xi", "n_xi"), "Bp": ("n_xi", "m_wp"), "Bu": ("n_xi", "n_wu"),
             "Cp": ("p_z", "n_xi"), "Dpp": ("p_z", "m_wp"), "Dpu": ("p_z", "n_wu"),
             "Cu": ("n_zu", "n_xi"), "Dup": ("n_zu", "m_wp"), "Duu": ("n_zu", "n_wu")}


@dataclass(frozen=True)
class PerformanceIndex(_Matrices):
    """Quadratic performance index P_p = [[Qp, Sp], [Sp^T, Rp]].

    Rp must be positive semidefinite; this is a hypothesis of both
    analysis tests.
    """

    Qp: np.ndarray
    Sp: np.ndarray
    Rp: np.ndarray

    _DIMS = {"Qp": ("m_wp", "m_wp"), "Sp": ("m_wp", "p_z"), "Rp": ("p_z", "p_z")}

    def __post_init__(self):
        super().__post_init__()
        check_symmetric(self.Qp, "Qp")
        check_symmetric(self.Rp, "Rp")

    @property
    def Pp(self):
        return np.block([[self.Qp, self.Sp], [self.Sp.T, self.Rp]])


def interconnect(plant: Plant, controller: Controller) -> ClosedLoop:
    """Build the closed loop from plant and controller block matrices."""
    if plant.m_u != controller.m_u:
        raise ValueError(f"incompatible dimensions: plant expects {plant.m_u} "
                         f"inputs, controller produces {controller.m_u}")
    if plant.p_y != controller.p_y:
        raise ValueError(f"incompatible dimensions: plant produces {plant.p_y} "
                         f"outputs, controller expects {controller.p_y}")
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
    channel keeps its base dimensions.  Powers A^k are formed by iterated
    multiplication and each Cp A^k once, for Cpt and the blocks (Cp A^k) Bp
    of Dppt and (Cp A^k) Bu of Dput: O(T_BS) products, not O(T_BS^2).
    """
    T = check_count(T_BS, "T_BS", 1)
    A, Bp, Bu = cl.Acl, cl.Bp, cl.Bu
    Cp, Dpp = cl.Cp, cl.Dpp
    p_z, m_wp = cl.p_z, cl.m_wp

    powers = [np.eye(cl.n_xi)]
    for _ in range(T):
        powers.append(A @ powers[-1])

    At = powers[T]
    But = powers[T - 1] @ Bu
    Bpt = np.hstack([powers[T - 1 - j] @ Bp for j in range(T)])
    CpA = [Cp @ P for P in powers[:T]]  # Cp A^k, k < T
    Cpt = np.vstack(CpA)

    CpAB = [C @ Bp for C in CpA[:T - 1]]
    Dppt = np.zeros((T * p_z, T * m_wp))
    for i in range(T):
        Dppt[i * p_z:(i + 1) * p_z, i * m_wp:(i + 1) * m_wp] = Dpp
        for j in range(i):
            Dppt[i * p_z:(i + 1) * p_z, j * m_wp:(j + 1) * m_wp] = CpAB[i - j - 1]

    Dput = np.vstack([cl.Dpu] + [C @ Bu for C in CpA[:T - 1]])
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
    T = check_count(T_BS, "T_BS", 1)
    eye = np.eye(T)
    return PerformanceIndex(
        Qp=np.kron(eye, perf.Qp),
        Sp=np.kron(eye, perf.Sp),
        Rp=np.kron(eye, perf.Rp),
    )


def simulate(sys, x0, w_p, w_u, steps):
    """Run the exact recursion of the closed-loop (or lifted) equations.

    x0 (n_xi,) and the signals (steps, width) pass check_signal; returns the
    state trajectory (steps + 1, n_xi) and the z_p and z_u trajectories.
    The input terms of all three rows are formed in one product up front,
    so each step is a single product with the stacked [Acl; Cp; Cu].
    """
    steps = check_count(steps, "steps", 0)
    n, p_z = sys.n_xi, sys.p_z
    x0 = check_signal(x0, (n,), "x0")
    w_p = check_signal(w_p, (steps, sys.m_wp), "w_p")
    w_u = check_signal(w_u, (steps, sys.n_wu), "w_u")

    state = np.vstack([sys.Acl, sys.Cp, sys.Cu])
    drive = (w_p @ np.vstack([sys.Bp, sys.Dpp, sys.Dup]).T
             + w_u @ np.vstack([sys.Bu, sys.Dpu, sys.Duu]).T)
    xi = np.zeros((steps + 1, n))
    xi[0] = x0
    for t in range(steps):
        r = drive[t]
        r += state @ xi[t]
        xi[t + 1] = r[:n]
    return xi, drive[:, n:n + p_z], drive[:, n + p_z:]


def system_to_json(plant: Plant, controller: Controller) -> dict:
    """Serialize plant and controller into one JSON object with named fields."""
    return {name: getattr(rec, name).tolist()
            for rec in (plant, controller) for name in rec._DIMS}


def system_from_json(data: dict):
    """Rebuild (plant, controller) from the JSON object written by
    system_to_json; a pair that cannot be closed into one loop raises
    ValueError."""
    check_object(data, "system", [*Plant._DIMS, *Controller._DIMS])
    plant = Plant(**{k: data[k] for k in Plant._DIMS})
    controller = Controller(**{k: data[k] for k in Controller._DIMS})
    interconnect(plant, controller)
    return plant, controller


def save_system(path, plant: Plant, controller: Controller):
    write_json(path, system_to_json(plant, controller))


def load_system(path):
    return system_from_json(read_json(path))
