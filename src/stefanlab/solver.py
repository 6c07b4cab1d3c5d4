"""Finite-volume discretization and implicit time stepping.

The PDE solved is

    d_t e(u) = sum_i d_i (w_i |d_i u|^{p-2} d_i u)

with one positive weight w_i per axis.  It is the p-Laplace equation only
for p = 2 or in 1D; in 2D with p > 2 it is the orthotropic p-Laplacian,
which has the same p-growth and p-coercivity (see
`VectorField.certified_lambda`).

The conserved variable is the enthalpy e(u); each backward-Euler step is the
minimizer of the strictly convex functional

    F(u) = sum_x [E(u) - e(u_old) u] V_x + (dt/p) sum_faces m_f |du/h|^p vol_f

whose gradient is exactly the conservative residual
V_x (e(u) - e(u_old)) - dt * (flux divergence).  Two-point face fluxes
m_f |du/h|^{p-2} (du/h), all evaluated by `_Faces`, keep the scheme
monotone, which makes comparison and max principles directly testable.
Newton with a line search solves each step; the flux Jacobian is floored at
sigma inside Newton only, the residual is always evaluated unregularized.

Each Newton system (volume-weighted e'(u) plus dt times the two-point
stiffness) is the exact Jacobian of the residual, up to that floor: e' is
the slope of the enthalpy's own PCHIP table, not the analytic mollifier
the table approximates.  It is symmetric positive definite.  In 1D it is
solved directly by LAPACK's tridiagonal `gtsv`.  In 2D the 5-point system
is red-black ordered, the red nodes are eliminated, and diagonally
preconditioned conjugate gradients solve the SPD Schur complement on the
black nodes, half the unknowns and a smaller condition number (Saad,
Iterative Methods for Sparse Linear Systems, 2nd ed., SIAM 2003, sec.
4.3); the red values follow in one pass.  Dirichlet pins are decoupled,
so d = 0 there.  The 2D solves are inexact Newton-Krylov: each CG stops at
the forcing tolerance of `_forcing_term`, loose while the step residual is
large and tight only where the final polish needs it (Eisenstat & Walker,
SIAM J. Sci. Comput. 17, 1996).  CG reduces with `_dot`, whose bits do not
depend on the BLAS thread count.  The step's own acceptance test is always
made on the exact nonlinear residual.  `gtsv` is loaded on the first 1D
solve (`_gtsv`) from scipy's LAPACK extension alone, without the
`scipy.linalg` package; importing stefanlab, a 2D run and the commands
that solve nothing load no scipy at all.

Newton starts each step from `_extrapolate`: the polynomial through the
current state and up to `_PREDICTOR_ORDER` = 3 earlier accepted states,
evaluated at the new time (linear on the second step, quadratic on the
third, cubic after that).  `run_simulation` carries its divided
differences from step to step (`_differences`), so a new state costs two
array operations per order.  The start's error is O(dt^4) instead of the
O(dt) of the previous state, so a step needs about half the Newton
iterations; the minimizer it converges to is the same.  That holds on
runs whose data is smooth in time from the start.  Dirichlet pins that
jump the data at t = 0 start a transient the polynomial extrapolates, and
there the cubic takes a few percent more iterations than a quadratic (233
against 226 over the first 40 steps of the one-phase preset).

A step is accepted once its residual is at most `_STEP_RTOL` (1 +
max|e_old|) and then polished.  Once accepted, a full Newton step that
lowers neither the residual nor the energy ends the polish at once;
halving it would only polish less.  Where the accept tolerance cannot be
met because rounding alone leaves more in the flux terms, which grows with
dt/h^2, the step is accepted within `_rounding_allowance` instead, and
`StepDiag.tolerance` reports the tolerance applied.

A step evaluates nothing twice.  A scenario builds its cell volumes, faces
and pins once (`Scenario._cells`; it is frozen, so they cannot go stale),
and each step's `_StepProblem` adds only its e_old and dt.  `implicit_step`
returns e(u) of the state it accepts, the lookup its last residual made
there, which the next step takes as `e_old`; each Newton system reuses the
face gradients and |g|^{p-2} of the residual at the same iterate, and the
row and offset its e lookup found in the table, from which e' is one
polynomial sum with no second search.  Step energies F are evaluated only
on line-search trials the residual did not accept.
`StepDiag.energy_decreased` certifies F(u) <= F(u_start) + 1e-12
(1 + |F(u_start)|); by convexity it holds without evaluating F whenever
r(u).(u_start - u) >= -1e-12 (see `_energy_decreased`).

A Newton iterate costs its arithmetic and little else, every operation
kept in the order that fixes its bits.  Its residual calls
`_Faces.powers` (and `gradients`), `_Faces.fluxes` and the e lookup, which
calls its table directly; it indexes the faces with tuples `_Faces` builds
once and subtracts each node's net flux from r in place, so per axis it
allocates only the face gradients, |g|^{p-2}, the fluxes and the inner net
flux, and no divergence array.  Its Newton system calls the e' lookup on
the residual's table location and `_Faces.newton_weights`; the weights
and the tridiagonal bands are formed in place.  Sums and products
that commute are formed in place, the scalar constants of these lookups
are 0-d arrays (`graphs._scalar`), whole-array reductions call numpy's
ufunc reductions without their Python wrappers (`_all`, `_max`, `_sum`),
and a full Newton step is u - d.
"""
from __future__ import annotations

import functools
import hashlib
import importlib.machinery
import importlib.util
import json
import math
import os
import sys
from dataclasses import dataclass, field as dc_field
from typing import Callable, Literal, Sequence

import numpy as np

from .graphs import RegularizedGraph, _scalar


class SolverError(RuntimeError):
    """Base class for time-stepping failures; carries the failing time."""

    def __init__(self, message: str, time: float | None = None):
        super().__init__(message if time is None else f"{message} (t={time:.6g})")
        self.time = time


class MaxIterationsError(SolverError):
    pass


class NonfiniteValueError(SolverError):
    pass


class ShapeMismatchError(ValueError):
    pass


# ndarray.all(), .max() and .sum() of a whole array are these reductions
# behind a Python wrapper; the step calls them directly (axis None), for the
# same values.
_all = np.logical_and.reduce
_max = np.maximum.reduce
_sum = np.add.reduce


# ---------------------------------------------------------------------------
# Grid and scenario data
# ---------------------------------------------------------------------------

class ScenarioValueError(ValueError):
    """A scenario value outside its domain; `key` names the `Scenario`
    field (and config key) it belongs to."""

    def __init__(self, key: str, message: str):
        super().__init__(f"{key} {message}")
        self.key = key


# A grid has at most this many nodes, and a run at most this many steps to
# t_end (see `Scenario`).
MAX_NODES = 10**6
MAX_STEPS = 10**7


@dataclass(frozen=True)
class Grid:
    """Uniform vertex-centred grid on [0, extent]^dim, dim 1 or 2, with
    `nodes` nodes on every axis.

    Node j on an axis sits at j*h with h = extent/(nodes-1); boundary nodes
    carry half cells so that face fluxes telescope exactly.
    """

    dim: int
    nodes: int
    extent: float = 1.0

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ScenarioValueError("dim", f"must be 1 or 2, got {self.dim!r}")
        if self.nodes < 3:
            raise ScenarioValueError("nodes", "need at least 3 nodes per axis")
        if self.nodes**self.dim > MAX_NODES:
            raise ScenarioValueError("nodes", f"more than {MAX_NODES} nodes")
        # bounded so that a cell volume h^dim and a squared radius stay
        # normal floats on every grid
        if not 1e-100 <= self.extent <= 1e100:
            raise ScenarioValueError("extent", f"must be in [1e-100, 1e100], got {self.extent!r}")

    @property
    def h(self) -> float:
        return self.extent / (self.nodes - 1)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.nodes,) * self.dim

    def axes(self) -> tuple[np.ndarray, ...]:
        return (np.linspace(0.0, self.extent, self.nodes),) * self.dim

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        return tuple(np.meshgrid(*self.axes(), indexing="ij"))

    def volume_weights(self) -> np.ndarray:
        """Per-node cell volumes (half cells on boundaries, quarters at corners)."""
        w = np.ones(self.nodes)
        w[0] = w[-1] = 0.5
        return (w if self.dim == 1 else np.multiply.outer(w, w)) * self.h**self.dim


@dataclass(frozen=True)
class VectorField:
    """The flux law A(xi)_i = w_i |xi_i|^{p-2} xi_i: one positive weight per
    axis.  Unit weights give the plain degenerate flux."""

    weights: tuple[float, ...]

    def __post_init__(self):
        if not self.weights or not all(w > 0 for w in self.weights):
            raise ValueError("vector field needs positive per-axis weights")

    def certified_lambda(self, p: float) -> float:
        """Constant L with |A(xi)| <= L|xi|^{p-1} and <A(xi),xi> >= |xi|^p / L."""
        w = self.weights
        growth = max(w)
        ellipticity = len(w) ** (p / 2.0 - 1.0) / min(w)
        return max(1.0, growth, ellipticity)


@dataclass(frozen=True)
class Boundary:
    """Either zero-flux (mirrored ghosts: boundary faces carry no flux) or
    Dirichlet traces pinned per axis end, constant in time."""

    kind: Literal["zero-flux", "dirichlet"] = "zero-flux"
    values: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        if self.kind not in ("zero-flux", "dirichlet"):
            raise ValueError(f"unknown boundary kind {self.kind!r}")
        if self.kind == "dirichlet" and not self.values:
            raise ValueError("dirichlet boundary needs per-axis (low, high) values")


@dataclass(frozen=True)
class InitialData:
    name: str
    params: tuple[tuple[str, float | tuple], ...] = ()

    @staticmethod
    def of(name: str, **params) -> "InitialData":
        return InitialData(name, tuple(sorted((k, _freeze(v)) for k, v in params.items())))

    def as_dict(self) -> dict:
        return {k: v for k, v in self.params}


def _freeze(v):
    if isinstance(v, (list, tuple, np.ndarray)):
        return tuple(float(x) for x in v)
    return float(v) if isinstance(v, (int, float, np.floating)) else v


@dataclass(frozen=True)
class DtPolicy:
    """Fixed steps, or intrinsic steps safety * h^p * osc(u)^{2-p}."""

    kind: Literal["fixed", "intrinsic"] = "fixed"
    value: float = 1e-3
    safety: float = 0.5

    def __post_init__(self):
        for name in ("value", "safety"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ScenarioValueError("dt", f"{name} must be positive and finite, got {value!r}")

    def step(self, grid: Grid, p: float, u: np.ndarray, remaining: float) -> float:
        if self.kind == "fixed":
            dt = self.value
        else:
            osc = max(float(u.max() - u.min()), 1e-12)
            try:
                dt = self.safety * grid.h**p * osc ** (2.0 - p)
            except OverflowError:   # osc^(2-p) beyond the floats: the product in logs
                log_dt = math.log(self.safety) + p * math.log(grid.h) + (2.0 - p) * math.log(osc)
                dt = math.exp(log_dt) if log_dt < 709.0 else math.inf
        return min(dt, remaining)


@dataclass(frozen=True)
class Scenario:
    """Full problem statement for one run; `dataclasses.replace` makes a
    changed copy.

    A scenario that builds can run: each value outside its domain raises
    `ScenarioValueError` naming its field.  The initial field, with the
    Dirichlet pins set (`_initial_state`), must be finite and have a finite
    step energy, sum V E(u) plus the face energy sum |du/h|^p; and t_end
    takes at most `MAX_STEPS` steps of the first dt.  That bounds an
    intrinsic dt too: for p >= 2 it grows as osc(u) shrinks, and osc(u)
    never exceeds osc(u0) (max principle), so the first step is the
    shortest."""

    grid: Grid
    p: float
    graph: RegularizedGraph
    field: VectorField | None = None   # None: unit weights on every axis
    initial: InitialData = dc_field(default_factory=lambda: InitialData.of("constant", value=0.0))
    boundary: Boundary = dc_field(default_factory=Boundary)
    t_end: float = 0.1
    dt: DtPolicy = dc_field(default_factory=DtPolicy)
    store_every: int = 1
    label: str = ""

    def __post_init__(self):
        if not 2.0 <= self.p < math.inf:
            raise ScenarioValueError("p", f"must be finite and >= 2, got {self.p!r}")
        if not 0.0 <= self.t_end < math.inf:
            raise ScenarioValueError("t_end", f"must be finite and nonnegative, got {self.t_end!r}")
        if self.store_every < 1:
            raise ScenarioValueError("store_every", "must be >= 1")
        if self.field is None:
            object.__setattr__(self, "field", VectorField((1.0,) * self.grid.dim))
        elif len(self.field.weights) != self.grid.dim:
            raise ScenarioValueError("field", f"has {len(self.field.weights)} weights for a "
                                              f"{self.grid.dim}D grid; need one per axis")
        if self.boundary.kind == "dirichlet" and len(self.boundary.values) < self.grid.dim:
            raise ScenarioValueError("boundary", f"has {len(self.boundary.values)} (low, high) "
                                                 f"pairs for a {self.grid.dim}D grid")
        first = self.dt.step(self.grid, self.p, self._initial_state, math.inf)
        if self.t_end > 0.0 and not self.t_end <= MAX_STEPS * first:
            raise ScenarioValueError("dt", f"gives a first step of {first!r}, so t_end = "
                                           f"{self.t_end!r} takes more than {MAX_STEPS} steps")

    @functools.cached_property
    def _cells(self) -> tuple:
        """(cell volumes, `_Faces`, pin mask, pin values) of every step
        problem on this scenario."""
        return (self.grid.volume_weights(), _Faces(self.grid, self.p, self.field.weights),
                *_dirichlet_arrays(self))

    @functools.cached_property
    def _initial_state(self) -> np.ndarray:
        """The initial field with the Dirichlet pins set (read-only), checked
        for a finite step energy."""
        with np.errstate(all="ignore"):
            try:
                u = build_initial(self.grid, self.initial)
            except (ValueError, TypeError, ArithmeticError) as err:
                raise ScenarioValueError("initial" if self.initial.name not in INITIAL_DATA
                                         else "initial_params", str(err)) from err
            pinned = _apply_pins(self, u)
            if not self._energy_is_finite(pinned):
                key = ("initial_params" if pinned is u or not self._energy_is_finite(u)
                       else "boundary")
                raise ScenarioValueError(key, f"gives an initial field (max |u| = "
                                              f"{float(np.abs(pinned).max()):.3g}) whose step "
                                              f"energy, E(u) or |du/h|^p, is not finite")
        pinned.flags.writeable = False
        return pinned

    def _energy_is_finite(self, u: np.ndarray) -> bool:
        """Whether u and its step energy sum V E(u) + sum |du/h|^p are finite."""
        vol, faces = self._cells[:2]
        return bool(_all(np.isfinite(u), None)) and math.isfinite(
            _sum(vol * self.graph.enthalpy_primitive_of_temperature(u), None) + faces.energy(u))

    def certified_lambda(self) -> float:
        """Structure constant covering both the flux law and the beta map."""
        return max(
            self.field.certified_lambda(self.p),
            self.graph.beta.lipschitz,
        )

    def canonical_dict(self) -> dict:
        return {
            # per axis, the format every stored scenario hash was taken of
            "grid": {"extents": [self.grid.extent] * self.grid.dim,
                     "nodes": list(self.grid.shape)},
            "p": self.p,
            "graph": self.graph.params_dict(),
            "field": {"weights": list(self.field.weights)},
            "initial": {"name": self.initial.name, "params": self.initial.as_dict()},
            "boundary": {"kind": self.boundary.kind, "values": [list(v) for v in self.boundary.values]},
            "t_end": self.t_end,
            "dt": {"kind": self.dt.kind, "value": self.dt.value, "safety": self.dt.safety},
            "store_every": self.store_every,
        }

    def scenario_hash(self) -> str:
        blob = json.dumps(self.canonical_dict(), sort_keys=True, default=repr)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class StepDiag:
    """Outcome of one implicit step.  `used_fallback` is set when some Newton
    direction missed its linear-solve target: a 2D CG stopped at its
    iteration cap before its forcing tolerance, or the direction was
    replaced by the diagonal step.  `linear_iterations` sums the CG
    iterations over the step's Newton solves, each an iteration on the
    black-node Schur complement (0 in 1D); `backtracks` counts the
    line-search halvings.  `tolerance` is the accept tolerance applied,
    `_STEP_RTOL` (1 + max|e_old|), plus `_rounding_allowance` on a step that
    could not meet it otherwise.

    `energy_decreased` certifies that the step functional did not rise from
    the Newton start to the accepted state, to within 1e-12 (1 + |F|).
    Convexity settles it from the final residual alone when
    r.(u_start - u) >= -1e-12; only otherwise are the two energies
    evaluated (see `_energy_decreased`)."""

    iterations: int
    residual: float
    tolerance: float
    energy_decreased: bool
    used_fallback: bool = False
    linear_iterations: int = 0
    backtracks: int = 0


@dataclass
class Trajectory:
    """Time-indexed temperature and enthalpy fields of one run of `scenario`,
    plus solve diagnostics."""

    scenario: Scenario
    times: list[float]
    temps: list[np.ndarray]
    enthalpies: list[np.ndarray]
    diagnostics: list[StepDiag] = dc_field(default_factory=list)

    def __post_init__(self):
        if any(t1 >= t2 for t1, t2 in zip(self.times, self.times[1:])):
            raise ValueError("times must be strictly increasing")
        shape = self.grid.shape
        for u in self.temps:
            if u.shape != shape:
                raise ShapeMismatchError("field shape does not match grid")

    @property
    def grid(self) -> Grid:
        return self.scenario.grid

    @property
    def graph(self) -> RegularizedGraph:
        return self.scenario.graph

    @property
    def p(self) -> float:
        return self.scenario.p

    def ball_mask(self, center: Sequence[float], radius: float) -> np.ndarray:
        """Closed-ball membership of grid nodes (Euclidean)."""
        xs = self.grid.meshgrid()
        d2 = sum((x - c) ** 2 for x, c in zip(xs, center, strict=True))
        return d2 <= radius**2 * (1.0 + 1e-12)

    @functools.cached_property
    def w_fields(self) -> list[np.ndarray]:
        """Transformed fields beta(u); shares storage when beta is the identity."""
        if self.graph.beta.kind == "identity":
            return self.temps
        return [self.graph.beta.apply(u) for u in self.temps]

    def time_indices(self, lo: float, hi: float) -> np.ndarray:
        ts = np.asarray(self.times)
        slack = 1e-12 * max(1.0, abs(hi), abs(lo))
        return np.nonzero((ts >= lo - slack) & (ts <= hi + slack))[0]

    def nearest_time_index(self, t: float) -> int:
        return int(np.argmin(np.abs(np.asarray(self.times) - t)))

    def trajectory_hash(self) -> str:
        hsh = hashlib.sha256()
        hsh.update(np.asarray(self.times).tobytes())
        for u in self.temps:
            hsh.update(u.tobytes())
        # The bytes every hash has ended with so far: stored hashes stay valid.
        hsh.update(b"{}")
        return hsh.hexdigest()

    def resolution_label(self) -> str:
        nodes = "x".join(str(n) for n in self.grid.shape)
        return f"nodes={nodes},steps={len(self.diagnostics)}"


# ---------------------------------------------------------------------------
# Initial data builders
# ---------------------------------------------------------------------------

def _constant(grid: Grid, params: dict) -> np.ndarray:
    return np.full(grid.shape, float(params.get("value", 0.0)))


def _ramp(grid: Grid, params: dict) -> np.ndarray:
    xs = grid.meshgrid()
    lo = float(params.get("lo", 0.0))
    hi = float(params.get("hi", 1.0))
    axis = params.get("axis", 0)
    if axis not in range(grid.dim):
        raise ValueError(f"ramp axis must be an integer in [0, {grid.dim}), got {axis!r}")
    axis = int(axis)
    return lo + (hi - lo) * xs[axis] / grid.extent


def _bump(grid: Grid, params: dict) -> np.ndarray:
    xs = grid.meshgrid()
    base = float(params.get("base", 0.0))
    amp = float(params.get("amplitude", 1.0))
    width = float(params.get("width", 0.2))
    center = params.get("center", (grid.extent / 2,) * grid.dim)
    if np.ndim(center) == 0:
        center = (float(center),) * grid.dim
    if len(center) != grid.dim:
        raise ValueError(f"bump center has {len(center)} coordinates for a {grid.dim}D grid")
    d2 = sum((x - c) ** 2 for x, c in zip(xs, center))
    prof = np.maximum(1.0 - d2 / width**2, 0.0)
    return base + amp * prof**2


def _fourier(grid: Grid, params: dict) -> np.ndarray:
    xs = grid.meshgrid()
    base = float(params.get("base", 0.0))
    amps = params.get("amps", (1.0,))
    freqs = params.get("freqs", (1.0,))
    if np.ndim(amps) == 0:
        amps = (float(amps),)
    if np.ndim(freqs) == 0:
        freqs = (float(freqs),)
    if len(amps) != len(freqs):
        raise ValueError(f"fourier has {len(amps)} amps but {len(freqs)} freqs")
    out = np.full(grid.shape, base)
    for amp, freq in zip(amps, freqs):
        term = amp
        for x in xs:
            term = term * np.cos(np.pi * freq * x / grid.extent)
        out = out + term
    return out


def _two_phase_sine(grid: Grid, params: dict) -> np.ndarray:
    xs = grid.meshgrid()
    level = float(params.get("level", 0.0))
    amp = float(params.get("amplitude", 0.5))
    periods = float(params.get("periods", 2.0))
    tilt = float(params.get("tilt", 0.0))
    out = np.full(grid.shape, level)
    wave = amp
    for x in xs:
        wave = wave * np.cos(np.pi * periods * x / grid.extent)
    out = out + wave + tilt * (xs[0] / grid.extent - 0.5)
    return out


# Initial-data name -> (builder(grid, params), the parameter names it reads);
# `build_initial` and the config parser both read the names from here.
INITIAL_DATA: dict[str, tuple[Callable[[Grid, dict], np.ndarray], tuple[str, ...]]] = {
    "constant": (_constant, ("value",)),
    "ramp": (_ramp, ("lo", "hi", "axis")),
    "bump": (_bump, ("base", "amplitude", "width", "center")),
    "fourier": (_fourier, ("base", "amps", "freqs")),
    "two-phase-sine": (_two_phase_sine, ("level", "amplitude", "periods", "tilt")),
}


def build_initial(grid: Grid, spec: InitialData) -> np.ndarray:
    """Evaluate a named initial-data preset on the grid."""
    if spec.name not in INITIAL_DATA:
        raise ValueError(f"unknown initial data {spec.name!r}; known: {', '.join(INITIAL_DATA)}")
    builder, names = INITIAL_DATA[spec.name]
    unknown = sorted(set(spec.as_dict()) - set(names))
    if unknown:
        raise ValueError(f"{spec.name} reads no parameter {', '.join(unknown)}; "
                         f"known: {', '.join(names)}")
    return builder(grid, spec.as_dict())


# ---------------------------------------------------------------------------
# Discrete p-flux operator
# ---------------------------------------------------------------------------

class _Faces:
    """The two-point p-flux on the faces of one grid.

    The face between nodes j and j+1 along an axis carries the gradient
    g = (u[j+1] - u[j]) / h and the flux coef * |g|^{p-2} g, where coef is
    the axis weight times the face's dual area (transverse boundary rows
    count half in 2D; 1 in 1D).  Step residual, step energy, Newton matrix
    and the weak-form checks all evaluate the flux law here.

    `ends[ax]` indexes the high and the low node of every face along axis
    ax; each index leads with an Ellipsis, so it applies to one field and to
    a stack of fields (grid axes trailing) alike.  `nodes[ax]` indexes the
    first, the inner and the last nodes of one field along axis ax (in 1D
    the end nodes as scalars, which numpy updates fastest).
    """

    def __init__(self, grid: Grid, p: float, weights: Sequence[float]):
        self.shape = grid.shape
        self.h = _scalar(grid.h)   # h and a 1D coef are 0-d arrays (see `_scalar`)
        self.p = p
        self.coef = []
        self.ends = []
        self.nodes = []
        for ax, w in enumerate(weights):
            area = 1.0
            if grid.dim == 2:
                area = np.full(grid.nodes, grid.h)
                area[0] = area[-1] = 0.5 * grid.h
                area = area.reshape((1, -1) if ax == 0 else (-1, 1))
            self.coef.append(np.asarray(w * area, dtype=float))
            rest = (slice(None),) * (grid.dim - 1 - ax)
            self.ends.append(((..., slice(1, None), *rest), (..., slice(None, -1), *rest)))
            lead = (slice(None),) * ax
            self.nodes.append(((*lead, 0), (*lead, slice(1, -1)), (*lead, -1)))

    def gradients(self, u: np.ndarray) -> list[np.ndarray]:
        """Per-axis face gradients du/h of a field u, or of each field of a
        stack u (the grid axes trailing)."""
        if u.shape[u.ndim - len(self.shape):] != self.shape:
            raise ShapeMismatchError("field shape does not match grid")
        return [(u[hi] - u[lo]) / self.h for hi, lo in self.ends]

    def powers(self, u: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per axis, the face gradients g = du/h and |g|^{p-2}: all that
        `fluxes` and `newton_weights` need of u."""
        return [(g, np.abs(g) ** (self.p - 2.0)) for g in self.gradients(u)]

    def fluxes(self, powers) -> list[np.ndarray]:
        """Per-axis face fluxes coef * |g|^{p-2} g from `powers(u)`."""
        out = []
        for c, (g, a) in zip(self.coef, powers):
            f = a * g
            f *= c   # a product commutes bit for bit
            out.append(f)
        return out

    def energy(self, u: np.ndarray) -> float:
        """sum over faces of coef |du/h|^p / p * h; its gradient in u is
        minus the summed divergence of the fluxes."""
        total = 0.0
        for c, g in zip(self.coef, self.gradients(u)):
            total += _sum((np.abs(g) ** self.p / self.p * c) * self.h, None)
        return total

    def newton_weights(self, powers, dt: float) -> list[np.ndarray]:
        """dt times the face weights (p-1) max(|g|^{p-2}, sigma) coef / h of
        the flux Jacobian from `powers(u)`, floored at sigma =
        `_NEWTON_SIGMA` so the Newton matrix stays definite."""
        out = []
        for c, (_, a) in zip(self.coef, powers):
            w = np.maximum(a, _NEWTON_SIGMA)
            w *= self.p - 1.0
            w *= c
            w /= self.h
            w *= dt
            out.append(w)
        return out


# ---------------------------------------------------------------------------
# Implicit step: Newton on the convex step functional
# ---------------------------------------------------------------------------

@functools.cache
def _gtsv():
    """LAPACK's dgtsv, loaded on the first 1D solve from scipy's extension
    `scipy.linalg._flapack` alone: the `scipy.linalg` package around it
    costs more memory and start-up than the rest of a run.  The extension
    is registered in `sys.modules` under its own name, so a later
    `import scipy.linalg` reuses it and `scipy.linalg.lapack.dgtsv` is this
    same function."""
    name = "scipy.linalg._flapack"
    if name not in sys.modules:
        import scipy  # the top-level package only; it sets the DLL path on Windows
        spec = importlib.machinery.PathFinder.find_spec(
            name, [os.path.join(d, "linalg") for d in scipy.__path__])
        if spec is None:
            raise ImportError(f"no module named {name!r}", name=name)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name].dgtsv


class _StepProblem:
    """Gradient/Hessian/energy of one step's functional: the scenario's
    cells (`Scenario._cells`) with the step's e_old and dt."""

    def __init__(self, scenario: Scenario, e_old: np.ndarray, dt: float):
        self.sc = scenario
        self.grid = scenario.grid
        self.vol, self.faces, self.pin_mask, self.pin_values = scenario._cells
        self.e_old = e_old
        self.dt = dt
        self.linear_iterations = 0

    def energy(self, u: np.ndarray) -> float:
        g = self.sc.graph
        bulk = _sum(self.vol * (g.enthalpy_primitive_of_temperature(u) - self.e_old * u), None)
        return float(bulk + self.dt * self.faces.energy(u))

    def gradient(self, u: np.ndarray) -> tuple[np.ndarray, tuple, np.ndarray]:
        """The gradient r at u (zero at the pins), what the Newton system at
        the same u reuses of it, and the e(u) it looked up.  The reused part
        is the pair (face powers `_Faces.powers(u)`, table location of e(u)).

        r = vol (e(u) - e_old) - dt sum_ax np.diff(f_ax zero-padded at both
        ends), f_ax the face fluxes: each node loses dt times its net flux,
        f[0] at the first node, f[j] - f[j-1] inside and 0 - f[-1] at the
        last, so no flux crosses the boundary.  The net flux is subtracted
        in place, one end at a time, without the padded copy."""
        faces = self.faces
        powers = faces.powers(u)
        e, where = self.sc.graph.enthalpy_of_temperature(u, located=True)
        r = e - self.e_old
        r *= self.vol
        dt = self.dt
        for f, (hi, lo), (first, inner, last) in zip(faces.fluxes(powers), faces.ends,
                                                     faces.nodes):
            r[first] -= dt * f[first]
            net = f[hi] - f[lo]
            net *= dt
            r[inner] -= net
            r[last] -= dt * (0.0 - f[last])
        if self.pin_mask is not None:
            r[self.pin_mask] = 0.0
        return r, (powers, where), e

    def residual(self, u: np.ndarray) -> tuple[np.ndarray, float, tuple, np.ndarray]:
        """The gradient r at u, its max-norm per volume (the quantity every
        step tolerance is stated in), what the Newton system at u reuses
        and e(u)."""
        r, lin, e = self.gradient(u)
        q = r / self.vol
        return r, float(_max(np.abs(q, out=q), None)), lin, e

    def solve_newton_system(
        self, u: np.ndarray, r: np.ndarray, lin, rtol: float
    ) -> tuple[np.ndarray, bool]:
        """Newton direction d and whether the linear solve met its tolerance.

        The matrix is the exact Jacobian of the residual (its flux part
        floored at `_NEWTON_SIGMA`): `lin` is what `gradient(u)` returned to
        be reused, the face powers and the table location of e(u), from
        which e'(u) is the table's own slope.  The 2D CG stops at relative
        residual `rtol`; the direct 1D solve ignores it.  An unconverged 2D
        direction is still a descent direction (see `_solve_2d`); the flag
        lets the caller report it.  CG iterations accumulate in
        `self.linear_iterations`.
        """
        powers, where = lin
        diag = self.sc.graph.enthalpy_prime_of_temperature(u, where)
        diag *= self.vol
        coeffs = self.faces.newton_weights(powers, self.dt)
        if len(coeffs) == 1:
            return self._solve_1d(diag, coeffs[0], r), True
        return self._solve_2d(diag, coeffs, r, rtol)

    def _solve_1d(self, diag, c, r):
        """Tridiagonal solve by LAPACK gtsv (LU with partial pivoting), the
        routine scipy.linalg.solve_banded((1, 1), ...) calls; `diag` is
        overwritten.  A zero pivot (info > 0) raises LinAlgError.  The first
        call in a process loads LAPACK's extension (`_gtsv`)."""
        main = diag
        main[:-1] += c
        main[1:] += c
        lower = -c
        upper = lower.copy()
        if self.pin_mask is not None:
            pins = self.pin_mask
            main[pins] = 1.0
            upper[pins[:-1]] = 0.0   # row of pinned node i: coupling to i+1
            lower[pins[1:]] = 0.0    # row of pinned node i: coupling to i-1
            r = r.copy()
            r[pins] = 0.0
        *_, d, info = _gtsv()(lower, main, upper, r, True, True, True, False)
        if info != 0:
            raise np.linalg.LinAlgError(f"tridiagonal Newton solve failed (gtsv info={info})")
        return d

    def _solve_2d(self, diag, coeffs, r, rtol):
        """PCG on the red-black Schur complement of the SPD 5-point Newton
        system.

        The system is laid out on the flattened field with an odd row length
        N': an even row gets one extra, decoupled column (diagonal 1,
        right-hand side 0, no couplings).  Both strides, 1 and N', are then
        odd, so a node's colour is the parity of its flat index (red =
        x[0::2], black = x[1::2]) and every face joins a red node to a black
        one.  Dirichlet pins are decoupled the same way: their faces leave
        the couplings but stay on the neighbours' diagonals, so d = 0 there.

        With diagonals D_R, D_B and couplings C, the system is
        [[D_R, -C], [-C^T, D_B]] [d_R, d_B] = [b_R, b_B].  CG solves the
        black-node system S d_B = b_S, S = D_B - C^T D_R^{-1} C and
        b_S = b_B + C^T D_R^{-1} b_R, which is SPD with half the unknowns
        and a smaller condition number; d_R = D_R^{-1} (b_R + C d_B)
        follows in one pass.  The preconditioner is D_B: it bounds diag(S)
        from above, costs nothing to form, has none of the cancellation of
        D_B - diag(C^T D_R^{-1} C), and took about as many iterations as
        diag(S) (3,251 against 3,354 on the 57^2 p = 3 preset run to
        t = 0.05, 3,613 against 3,588 on the coarse 2d-p3 headline run).
        The red rows are solved exactly, so the residual of the whole
        system is that of S, and CG stops once ||b_S - S d_B|| <= rtol ||b||
        of the full right-hand side.  A capped solve is still a descent
        direction: b.d = b_R.D_R^{-1} b_R + b_S.d_B > 0, since D_R is
        positive and every CG iterate from a zero start has b_S.d_B > 0
        (d_B = 0 when b_S = 0).  `linear_iterations` counts iterations on S.
        """
        n0, n1 = self.grid.shape
        shape = (n0, n1 | 1)
        full_diag = np.ones(shape)
        full_diag[:, :n1] = diag
        b = np.zeros(shape)
        b[:, :n1] = r
        full_diag, b = full_diag.ravel(), b.ravel()
        pins = None
        if self.pin_mask is not None:
            pins = np.zeros(shape, dtype=bool)
            pins[:, :n1] = self.pin_mask
            pins = pins.ravel()
        # (red slice, black slice, coefficients): face k joins red node
        # red[k] and black node black[k].
        links = []
        for s, c in zip((shape[1], 1), coeffs):
            flat = np.zeros(shape)   # the pairs that wrap a row or touch the pad stay 0
            flat[:c.shape[0], :c.shape[1]] = c
            flat = flat.ravel()[:-s]
            full_diag[:-s] += flat
            full_diag[s:] += flat
            if pins is not None:
                flat[pins[:-s] | pins[s:]] = 0.0
            m = (s - 1) // 2
            # by the colour of the low end; contiguous copies, which CG
            # multiplies faster than strided views
            low_red, low_black = flat[0::2].copy(), flat[1::2].copy()
            links.append((slice(0, low_red.size), slice(m, m + low_red.size), low_red))
            links.append((slice(m + 1, m + 1 + low_black.size), slice(0, low_black.size),
                          low_black))
        if pins is not None:
            full_diag[pins] = 1.0
            b[pins] = 0.0
        inv_red, black_diag = 1.0 / full_diag[0::2], full_diag[1::2].copy()
        b_red, b_schur = b[0::2], b[1::2].copy()
        # C^T D_R^{-1}: each coupling over the diagonal of its red node
        scaled = [(red, black, c * inv_red[red]) for red, black, c in links]
        for red, black, c in scaled:
            b_schur[black] += c * b_red[red]

        def couple(x):
            """C x: the black vector x coupled onto the red nodes."""
            y = np.zeros(inv_red.size)
            for red, black, c in links:
                y[red] += c * x[black]
            return y

        def apply(x):
            y = couple(x)
            out = black_diag * x
            for red, black, c in scaled:
                out[black] -= c * y[red]
            return out

        d_black, converged, iterations = _pcg(apply, b_schur, 1.0 / black_diag,
                                              rtol * math.sqrt(_dot(b, b)),
                                              max_iter=b_schur.size)
        self.linear_iterations += iterations
        d = np.empty(b.size)
        d[1::2] = d_black
        d[0::2] = inv_red * (b_red + couple(d_black))
        return d.reshape(shape)[:, :n1], converged


# The tightest CG tolerance: the relative residual a Newton system is ever
# solved to.
_PCG_RTOL = 1e-14
# A step is accepted once its per-volume residual is at most
# _STEP_RTOL * (1 + max|e_old|), and keeps polishing until it is at most
# _POLISH_RTOL * (1 + max|e_old|) or stops improving; it takes at most
# _MAX_NEWTON Newton iterations of at most _MAX_BACKTRACKS line-search
# halvings each.  _NEWTON_SIGMA floors |g|^{p-2} in the Newton matrix only.
_STEP_RTOL = 1e-12
_POLISH_RTOL = 2e-15
_MAX_NEWTON = 120
_MAX_BACKTRACKS = 45
_NEWTON_SIGMA = 1e-12


def _forcing_term(res: float, scale: float, polish_tol: float) -> float:
    """Relative CG tolerance for a Newton system at step residual `res`.

    min(0.1, res / scale) shrinks with the residual, which keeps Newton
    quadratic (Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal. 19, 1982);
    0.1 * polish_tol / res stops the last solve from going below what the
    polish can use; _PCG_RTOL is the floor.
    """
    return max(_PCG_RTOL, min(0.1, res / scale), 0.1 * polish_tol / res)


# The longest vector one BLAS ddot call reduces in `_dot`.  OpenBLAS splits
# a ddot over threads above 10,000 elements, and each split adds in its own
# order; below that one thread adds in one order at every thread count.
_DOT_BLOCK = 2**13


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a.b by BLAS ddot on blocks of `_DOT_BLOCK` elements, added in index
    order: the same bits whatever the BLAS thread count."""
    if a.size <= _DOT_BLOCK:
        return a.dot(b)
    return sum(a[i:i + _DOT_BLOCK].dot(b[i:i + _DOT_BLOCK])
               for i in range(0, a.size, _DOT_BLOCK))


def _pcg(apply, b: np.ndarray, inv_diag: np.ndarray, tol: float,
         max_iter: int) -> tuple[np.ndarray, bool, int]:
    """Preconditioned conjugate gradients for SPD `apply`, started from 0.

    Stops once ||b - A x|| <= tol (recursive residual) and returns the
    iterate, whether that happened within `max_iter` iterations, and the
    iterations taken.  Every iterate is kept: from a zero start, each CG
    iterate x_k satisfies b.x_k > 0 for b != 0, so it is a descent
    direction even when the cap is hit.  Every reduction is a `_dot`, so
    reruns are bit-identical at any BLAS thread count.
    """
    x = np.zeros_like(b)
    r = b.copy()
    stop = tol * tol
    z = inv_diag * r
    p = z
    rz = _dot(r, z)
    for k in range(max_iter):
        if _dot(r, r) <= stop:
            return x, True, k
        q = apply(p)
        alpha = rz / _dot(p, q)
        x += alpha * p
        r -= alpha * q
        z = inv_diag * r
        rz, rz_old = _dot(r, z), rz
        p = z + (rz / rz_old) * p
    return x, bool(_dot(r, r) <= stop), max_iter


def _dirichlet_arrays(scenario: Scenario):
    if scenario.boundary.kind != "dirichlet":
        return None, None
    grid = scenario.grid
    mask = np.zeros(grid.shape, dtype=bool)
    values = np.zeros(grid.shape)
    for ax in range(grid.dim):
        lo, hi = scenario.boundary.values[ax]
        sl_lo = [slice(None)] * grid.dim
        sl_hi = [slice(None)] * grid.dim
        sl_lo[ax] = 0
        sl_hi[ax] = -1
        mask[tuple(sl_lo)] = True
        values[tuple(sl_lo)] = lo
        mask[tuple(sl_hi)] = True
        values[tuple(sl_hi)] = hi
    return mask, values


def _apply_pins(scenario: Scenario, u: np.ndarray) -> np.ndarray:
    """A copy of u with the scenario's Dirichlet pins set, or u itself when
    nothing is pinned."""
    _, _, mask, values = scenario._cells
    if mask is None:
        return u
    out = u.copy()
    out[mask] = values[mask]
    return out


def implicit_step(u_old: np.ndarray, dt: float, scenario: Scenario,
                  start: np.ndarray | None = None, *,
                  e_old: np.ndarray | None = None
                  ) -> tuple[np.ndarray, StepDiag, np.ndarray]:
    """One backward-Euler step solved to near machine precision: the
    accepted state u, its `StepDiag` and e(u).

    Newton starts from `start` (pins applied) or, when it is None or not
    finite, from `u_old`; the step is the same minimizer either way.  The
    iteration first meets the scale-free tolerance
    `_STEP_RTOL` * (1 + max|e_old|) on the per-volume residual, then keeps
    polishing while progress continues; the tiny extra cost buys exact-level
    enthalpy conservation over whole runs.  `e_old` is e(u_old) when the
    caller already holds it; it is looked up when None.
    """
    if not 0.0 < dt < math.inf:
        raise ValueError("dt must be positive and finite")
    if not _all(np.isfinite(u_old), None):
        raise NonfiniteValueError("non-finite state entering implicit step")
    if start is not None:
        start = np.asarray(start, dtype=float)
        if start.shape != u_old.shape:
            raise ShapeMismatchError("start iterate shape does not match the state")
    if e_old is not None:
        e_old = np.asarray(e_old)
        if e_old.shape != u_old.shape:
            raise ShapeMismatchError("e_old shape does not match the state")
    g = scenario.graph
    if e_old is None:
        e_old = g.enthalpy_of_temperature(u_old)
    prob = _StepProblem(scenario, e_old, dt)
    if start is None or not _all(np.isfinite(start), None):
        start = u_old
    u = _apply_pins(scenario, np.array(start, dtype=float))

    scale = 1.0 + float(_max(np.abs(e_old), None))
    accept_tol = _STEP_RTOL * scale
    polish_tol = _POLISH_RTOL * scale

    u_start = u
    r, res, lin, e = prob.residual(u)
    # Step energies are evaluated only where a decision needs them: trials
    # the residual did not accept, and `_energy_decreased` when convexity
    # alone does not settle the flag.
    f_start = f_val = None
    used_fallback = False
    prev_res = math.inf
    # A trial is taken on its residual only below the lowest residual taken
    # so far: a trial taken on its energy may raise the residual, and
    # measuring the next one against that raised value lets the iteration
    # cycle between the two criteria.
    best_res = res
    backtracks = 0

    it = 0
    while it < _MAX_NEWTON:
        if res <= polish_tol:
            break
        if res <= accept_tol and res >= prev_res * 0.75:
            break  # met tolerance, polish stalled
        it += 1
        prev_res = res
        try:
            d, solved = prob.solve_newton_system(u, r, lin,
                                                 _forcing_term(res, scale, polish_tol))
        except (np.linalg.LinAlgError, ValueError):
            d, solved = None, False
        used_fallback |= not solved
        if d is None or not _all(np.isfinite(d), None) or float(_sum(r * d, None)) <= 0.0:
            d = r / (prob.vol * g.enthalpy_prime_of_temperature(u, lin[1]))
            used_fallback = True
        # Try the full step on a residual-decrease criterion first; near the
        # minimum energy differences drown in rounding while the residual is
        # still informative.  Once the step is accepted, a full step that
        # lowers neither ends the polish: halving it would only polish less.
        accepted = False
        t = 1.0
        for _ in range(_MAX_BACKTRACKS):
            u_try = u - d if t == 1.0 else u - t * d
            if _all(np.isfinite(u_try), None):
                r_try, res_try, lin_try, e_try = prob.residual(u_try)
                if res_try < best_res:
                    u, r, res, lin, e, f_val = u_try, r_try, res_try, lin_try, e_try, None
                    best_res = res
                    accepted = True
                    break
                if f_val is None:
                    f_val = prob.energy(u)
                    if u is u_start:
                        f_start = f_val
                f_try = prob.energy(u_try)
                if f_try < f_val:
                    u, r, res, lin, e, f_val = u_try, r_try, res_try, lin_try, e_try, f_try
                    accepted = True
                    break
            if res <= accept_tol:
                break
            t *= 0.5
            backtracks += 1
        if not accepted:
            break

    # u is the start, checked finite, or a trial that passed the same check.
    tol = accept_tol
    if not res <= tol:
        tol += _rounding_allowance(prob, u, lin[0])
        if not res <= tol < math.inf:   # a NaN residual or allowance fails too
            raise MaxIterationsError(
                f"implicit step failed to reach tolerance ({res:.3e} > {tol:.3e})")
    diag = StepDiag(
        iterations=it,
        residual=res,
        tolerance=tol,
        energy_decreased=_energy_decreased(prob, u_start, u, r, f_start, f_val),
        used_fallback=used_fallback,
        linear_iterations=prob.linear_iterations,
        backtracks=backtracks,
    )
    return u, diag, e


# A step that misses `accept_tol` is still accepted within two unit
# roundoffs of the magnitudes its flux terms sum (see `_rounding_allowance`).
_FLUX_ROUNDING = 2 * 2.0**-53


def _rounding_allowance(prob: _StepProblem, u: np.ndarray, powers) -> float:
    """What rounding alone can leave in the per-volume residual at u:
    `_FLUX_ROUNDING` (two unit roundoffs) times the largest, over the free
    nodes, of sum over the node's faces of w (|u_hi| + |u_lo|) / vol, with
    w the face's Newton weight (dt times the flux Jacobian) from `powers`.

    A face flux moves by w times any change of its two end values, and u
    itself is only known to a unit roundoff, so a residual that is exact
    arithmetic's zero reads up to about this much.  It grows with the
    stiffness dt/h^2, which the tolerance `_STEP_RTOL` (1 + max|e_old|)
    does not: on a 9-node grid of extent 1e-3 with dt = 0.002 (dt/h^2 =
    1.3e5) the flux terms alone leave 6e-12 against a tolerance of 3e-12."""
    a = np.abs(u)
    total = np.zeros(u.shape)
    for w, (hi, lo) in zip(prob.faces.newton_weights(powers, prob.dt), prob.faces.ends):
        m = a[hi] + a[lo]
        m *= w
        total[hi] += m
        total[lo] += m
    total /= prob.vol
    if prob.pin_mask is not None:
        total[prob.pin_mask] = 0.0
    return _FLUX_ROUNDING * float(_max(total, None))


# Slack of the energy-decrease flag: F(u) may exceed F(u_start) by this much
# times 1 + |F(u_start)| and still count as a decrease.
_ENERGY_SLACK = 1e-12


def _energy_decreased(prob: _StepProblem, u_start: np.ndarray, u: np.ndarray,
                      r: np.ndarray, f_start: float | None, f_val: float | None) -> bool:
    """Whether F(u) <= F(u_start) + 1e-12 (1 + |F(u_start)|) for the step
    functional F of `prob`, with r its gradient at u.

    F is convex and r is its exact gradient (`r` is zero at the pins, where
    u_start and u agree), so F(u_start) >= F(u) + r.(u_start - u): when
    that product is at least -1e-12 the flag holds and no energy is
    evaluated.  Otherwise, or when the line search already evaluated both
    F(u_start) and F(u) (`f_start`, `f_val`, None where it did not), the
    flag is computed from the two energies.  The bound is exact for the
    primitive of e; `prob.energy` evaluates the E table, whose slope
    agrees with e to better than 1e-9 on the headline graphs.
    """
    if f_start is None or f_val is None:
        step = u_start - u
        step *= r
        if float(_sum(step, None)) >= -_ENERGY_SLACK:
            return True
        if f_start is None:
            f_start = prob.energy(u_start)
        if f_val is None:
            f_val = prob.energy(u)
    return f_val <= f_start + _ENERGY_SLACK * (1.0 + abs(f_start))


# The Newton start is the polynomial through the current state and up to
# this many earlier accepted states.
_PREDICTOR_ORDER = 3


def _extrapolate(u: np.ndarray, dt: float, past: Sequence[tuple[np.ndarray, float]]) -> np.ndarray:
    """Newton start for the step of length dt from the current state u.

    `past` holds the divided differences D1, D2, ... of the states up to u,
    order 1 first, each with its span s_k, the time from the earliest state
    it spans to u (see `_differences`).  The polynomial through those
    states is evaluated dt ahead in Horner's form,
    u + dt (D1 + (dt + s1) (D2 + (dt + s2) D3)): linear on the second step,
    quadratic on the third and cubic after that.  A constant state has zero
    differences and comes back bit for bit.
    """
    if not past:
        return u
    out = past[-1][0]
    for d, span in reversed(past[:-1]):
        out = out * (dt + span)
        out += d
    out = out * dt
    out += u
    return out


def _differences(past: Sequence[tuple[np.ndarray, float]], u_new: np.ndarray, u: np.ndarray,
                 dt: float) -> list[tuple[np.ndarray, float]]:
    """The divided differences and spans of `_extrapolate` at u_new, the
    state a step of dt took from u, given those at u (`past`).

    Order 1 is (u_new - u) / dt over the span dt; order k is the new order
    k - 1 minus the old one, over the old span of order k - 1 plus dt.  Each
    order costs two array operations, and orders above `_PREDICTOR_ORDER`
    are dropped."""
    d = u_new - u
    d /= dt
    out = [(d, dt)]
    for old, old_span in past[:_PREDICTOR_ORDER - 1]:
        span = dt + old_span
        d = d - old
        d /= span
        out.append((d, span))
    return out


def run_simulation(scenario: Scenario) -> Trajectory:
    """Drive implicit steps to t_end; deterministic for a fixed scenario."""
    grid = scenario.grid
    u = scenario._initial_state
    times = [0.0]
    temps = [u.copy()]
    # e(u) is looked up for the initial state only; each step returns e of
    # the state it accepts.  Each e is stored when its state is and is the
    # next step's e_old.
    e = np.asarray(scenario.graph.enthalpy_of_temperature(u))
    enths = [e]
    diags: list[StepDiag] = []
    past: list[tuple[np.ndarray, float]] = []   # divided differences for the Newton start
    t = 0.0
    step_index = 0
    t_final = scenario.t_end
    # implicit_step rejects non-finite trials and raises on a non-finite or
    # unconverged state, so a trial's overflow warnings add nothing.
    with np.errstate(over="ignore", invalid="ignore"):
        while t < t_final * (1.0 - 1e-12) and t_final > 0.0:
            dt = scenario.dt.step(grid, scenario.p, u, t_final - t)
            if dt <= 0.0:
                raise SolverError("time step collapsed to zero", time=t)
            try:
                u_new, diag, e = implicit_step(u, dt, scenario, _extrapolate(u, dt, past), e_old=e)
            except SolverError as err:
                raise type(err)(str(err), time=t + dt) from err
            past = _differences(past, u_new, u, dt)
            u = u_new
            t += dt
            step_index += 1
            diags.append(diag)
            # every accepted state is an array of its own
            if step_index % scenario.store_every == 0 or t >= t_final * (1.0 - 1e-12):
                times.append(t)
                temps.append(u)
                enths.append(e)
    return Trajectory(scenario=scenario, times=times, temps=temps, enthalpies=enths,
                      diagnostics=diags)


# ---------------------------------------------------------------------------
# Discrete weak-form residual
# ---------------------------------------------------------------------------

# The trajectory checks work on blocks of stored times, with at most this
# many float64 values (64 KB) in each block temporary, so their memory does
# not grow with the number of stored times.  On a 1D run with 1,441 stored
# times larger blocks were no faster and raised the peak memory (by 15 MB
# at 2**17).
BLOCK_ELEMENTS = 2**13


def _time_blocks(first: int, last: int, grid: Grid):
    """Index ranges (lo, hi) of stored times covering first..last.

    Consecutive blocks share their end index, so each pair (m - 1, m) with
    first < m <= last lies in exactly one block, and a block holds at most
    max(1, BLOCK_ELEMENTS // grid size) pairs.  The running sums of the
    checks add the per-time values of each block in time order, as one
    pass over the times would."""
    pairs = max(1, BLOCK_ELEMENTS // math.prod(grid.shape))
    for lo in range(first, last, pairs):
        yield lo, min(lo + pairs, last)


def _time_column(times, dim: int) -> np.ndarray:
    """Times as an array that broadcasts along a leading axis of fields."""
    return np.asarray(times, dtype=float).reshape((-1,) + (1,) * dim)


def _row_sums(a: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """The sum of each row (leading axis) of a, over the nodes in `mask` if
    given: per row, the same pairwise sum as np.sum of that row's values.
    (a[:, mask] is laid out column-major, so its row sums would not be.)"""
    rows = a.reshape(len(a), -1)
    if mask is not None:
        rows = np.compress(mask.ravel(), rows, axis=1)
    return rows.sum(axis=1)


def _on_rows(values, rows: int, grid: Grid) -> np.ndarray:
    """Field values of a test function at `rows` times, one row per time
    (a time-independent function returns a single field)."""
    return np.broadcast_to(values, (rows,) + grid.shape)


class SpaceTimeBump:
    """Smooth compactly supported test function: product of quartic bumps in
    space times a smooth ramp in time."""

    def __init__(self, center: Sequence[float], width: float,
                 t_center: float | None = None, t_width: float | None = None):
        self.center = tuple(center)
        self.width = width
        self.t_center = t_center
        self.t_width = t_width

    def _time_part(self, t):
        if self.t_center is None:
            return 1.0
        z = np.clip((t - self.t_center) / self.t_width, -1.0, 1.0)
        # float_power: the same libm pow whether t is one time or an array
        # of them (an array ** 2 takes a vectorized path that can differ in
        # the last bit).
        return np.float_power(1.0 - z * z, 2)

    def value(self, xs, t):
        out = self._time_part(t)
        for x, c in zip(xs, self.center):
            z = np.clip((x - c) / self.width, -1.0, 1.0)
            out = out * (1.0 - z * z) ** 2
        return out


def weak_form_residual(
    trajectory: Trajectory,
    time_fields: Sequence[np.ndarray],
    flux_fields: Sequence[np.ndarray],
    field_maps: Sequence[Callable[[np.ndarray], np.ndarray]],
    phi_fns: Sequence,
) -> list[list[tuple[float, float]]]:
    """The scheme's weak form over the whole run, for each map in
    `field_maps` and each test function phi in `phi_fns`:

        R = sum_m [ sum_x V (a_m - a_{m-1}) phi_m
                    + dt_m sum_faces F(b_m) (phi_m[j+1] - phi_m[j]) ]

    over the steps t_{m-1} -> t_m between stored times, with a_m and b_m the
    map of `time_fields[m]` and of `flux_fields[m]`, V the cell volumes and
    F the face fluxes of `_Faces`; the time term is evaluated telescoped.
    With a = e, b = u and every step stored, step m adds phi_m paired with
    its residual (`_StepProblem.gradient`) where phi_m is 0 at the pins.

    One pass over blocks of stored times: each field's fluxes and each test
    function's values and face gradients are computed once per block and
    shared by every pairing.  Each map takes a stack of fields (leading
    axis) elementwise to the fields tested; each phi(xs, t) must broadcast a
    time array of shape (rows, 1, ...).  Returns (R, scale) per field map
    and test function, scale being 1 plus the magnitudes of the terms R sums.
    """
    grid = trajectory.grid
    h = grid.h
    vol, faces = trajectory.scenario._cells[:2]
    xs = grid.meshgrid()
    times = np.asarray(trajectory.times)
    last = len(times) - 1
    pairs = [(s, k) for s in range(len(field_maps)) for k in range(len(phi_fns))]

    def block(lo, hi):
        """Each test function and each volume-weighted mapped time field on
        times lo..hi."""
        ts = _time_column(times[lo:hi + 1], grid.dim)
        phis = [_on_rows(fn(xs, ts), hi - lo + 1, grid) for fn in phi_fns]
        a = np.stack(time_fields[lo:hi + 1])
        return phis, [vol * field_map(a) for field_map in field_maps]

    # The time terms telescope to the pairings at the two ends minus the
    # pairings of each field against the next step of phi.
    ends = []
    for m in (0, last):
        phis, weighted = block(m, m)
        ends.append({(s, k): float(_row_sums(weighted[s] * phis[k])[0]) for s, k in pairs})
    # Per pairing, the time terms and then the flux terms, in the order the
    # residual adds them.
    time_terms = {sk: [] for sk in pairs}
    flux_terms = {sk: [] for sk in pairs}
    for lo, hi in _time_blocks(0, last, grid):
        phis, weighted = block(lo, hi)
        b = np.stack(flux_fields[lo + 1:hi + 1])
        flux_stacks = [field_map(b) for field_map in field_maps]
        dts = np.diff(times[lo:hi + 1])
        steps = [phi[1:] - phi[:-1] for phi in phis]
        dphis = [faces.gradients(phi[1:]) for phi in phis]
        fluxes = [faces.fluxes(faces.powers(f)) for f in flux_stacks]
        for s, k in pairs:
            time_terms[s, k] += (-_row_sums(weighted[s][:-1] * steps[k])).tolist()
            term = 0.0
            for f, dphi in zip(fluxes[s], dphis[k]):
                term = term + _row_sums(f * dphi * h)
            flux_terms[s, k] += (dts * term).tolist()

    out = [[] for _ in field_maps]
    for s, k in pairs:
        r_val = ends[1][s, k] - ends[0][s, k]
        scale = abs(r_val)
        for term in time_terms[s, k] + flux_terms[s, k]:
            r_val += term
            scale += abs(term)
        out[s].append((r_val, 1.0 + scale))
    return out


# ---------------------------------------------------------------------------
# Conservation and ordering diagnostics used by tests and the CLI
# ---------------------------------------------------------------------------

def enthalpy_totals(trajectory: Trajectory) -> np.ndarray:
    """The enthalpy integral at each stored time, summed over bounded blocks
    of times: per time, bit for bit np.sum(e * vol)."""
    grid = trajectory.grid
    vol = trajectory.scenario._cells[0]
    e_fields = trajectory.enthalpies
    return np.concatenate([_row_sums(np.stack(e_fields[lo:hi]) * vol)
                           for lo, hi in _time_blocks(0, len(e_fields), grid)])


def conservation_defect(trajectory: Trajectory) -> float:
    """Worst relative drift of the enthalpy integral over the run."""
    totals = enthalpy_totals(trajectory)
    return float(np.max(np.abs(totals - totals[0])) / (1.0 + abs(totals[0])))

