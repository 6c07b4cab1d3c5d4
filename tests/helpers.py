"""Test-only helpers: a uniform test function, the test bump with its
gradient, the O(h^2) weak-form residual they feed, the step residual and
the net face flux written the plain way, a Lyapunov sequence, the modulus
log-slope, the forwarded level fraction and the rescaled graph and
solution.  Nothing in the package calls them, so they live beside the tests
that do."""
from __future__ import annotations

from dataclasses import replace
from typing import Callable, Sequence

import numpy as np

from stefanlab.geometry import (EmptyCylinderError, ModulusParams, cylinder, cylinder_samples,
                               extrema, omega)
from stefanlab.graphs import BetaMap, RegularizedGraph
from stefanlab import solver
from stefanlab.solver import (Grid, Trajectory, _Faces, _on_rows, _row_sums, _time_blocks,
                              _time_column)


class ConstantInSpace:
    """Test function phi(t) uniform over the domain (zero-flux runs only);
    `profile` must map an array of times elementwise."""

    def __init__(self, profile: Callable[[float], float]):
        self.profile = profile

    def value(self, xs, t):
        return self.profile(t) * np.ones_like(xs[0])

    def gradient(self, xs, t):
        return [np.zeros_like(x) for x in xs]


class SpaceTimeBump(solver.SpaceTimeBump):
    """The package's test bump with its gradient in closed form, which only
    `centered_weak_form_residual` needs."""

    def gradient(self, xs, t):
        parts = []
        for x, c in zip(xs, self.center):
            z = np.clip((x - c) / self.width, -1.0, 1.0)
            parts.append((1.0 - z * z) ** 2)
        grads = []
        for ax, (x, c) in enumerate(zip(xs, self.center)):
            z = (x - c) / self.width
            inside = np.abs(z) < 1.0
            dpart = np.where(inside, -4.0 * z * (1.0 - z * z) / self.width, 0.0)
            g = self._time_part(t) * dpart
            for other_ax, part in enumerate(parts):
                if other_ax != ax:
                    g = g * part
            grads.append(g)
        return grads


def net_face_flux(f: np.ndarray, axis: int) -> np.ndarray:
    """Net flux per node from the face values f along `axis`: np.diff of f
    zero-padded at both ends, so no flux crosses the boundary."""
    pad = [(0, 0)] * f.ndim
    pad[axis] = (1, 1)
    return np.diff(np.pad(f, pad), axis=axis)


def face_fluxes(grid: Grid, p: float, weights: Sequence[float], u: np.ndarray) -> list:
    """Per-axis face fluxes w |g|^{p-2} g times the face's dual area, with
    g = np.diff(u)/h: the flux law of `_Faces` written the plain way."""
    h = grid.h
    fluxes = []
    for ax, w in enumerate(weights):
        area = 1.0
        if grid.dim == 2:
            area = np.full(grid.nodes, h)
            area[0] = area[-1] = 0.5 * h
            area = area.reshape((1, -1) if ax == 0 else (-1, 1))
        g = np.diff(u, axis=ax) / h
        fluxes.append(w * area * (np.abs(g) ** (p - 2.0) * g))
    return fluxes


def step_gradient(prob, u: np.ndarray) -> np.ndarray:
    """The gradient of a step problem's functional at u, written the plain
    way: vol (e(u) - e_old) - dt sum_ax np.diff(zero-padded flux_ax), set to
    zero at the pins.  `_StepProblem.gradient` must return these bits."""
    sc = prob.sc
    r = prob.vol * (sc.graph.enthalpy_of_temperature(u) - prob.e_old)
    for ax, f in enumerate(face_fluxes(sc.grid, sc.p, sc.field.weights, u)):
        r = r - prob.dt * net_face_flux(f, ax)
    if prob.pin_mask is not None:
        r[prob.pin_mask] = 0.0
    return r


def _centered_gradient(u: np.ndarray, grid: Grid) -> list[np.ndarray]:
    """Node gradients of each row of a stack u of fields (leading axis) by
    central differences; mirroring at the boundary makes them zero there."""
    grads = []
    for ax in range(1, grid.dim + 1):
        lead = (slice(None),) * ax
        g = np.zeros(u.shape)
        g[lead + (slice(1, -1),)] = ((u[lead + (slice(2, None),)] - u[lead + (slice(None, -2),)])
                                     / (2.0 * grid.h))
        grads.append(g)
    return grads


def _region_ring(mask: np.ndarray) -> np.ndarray:
    """Nodes of the masked region adjacent to its complement (or the grid edge)."""
    ring = np.zeros_like(mask)
    dim = mask.ndim
    for ax in range(dim):
        lo_ok = np.zeros_like(mask)
        hi_ok = np.zeros_like(mask)
        sl = [slice(None)] * dim
        sl[ax] = slice(1, None)
        lo_ok[tuple(sl)] = mask.take(range(0, mask.shape[ax] - 1), axis=ax)
        sl[ax] = slice(None, -1)
        hi_ok[tuple(sl)] = mask.take(range(1, mask.shape[ax]), axis=ax)
        ring |= mask & (~lo_ok | ~hi_ok)
    return ring


def centered_weak_form_residual(
    trajectory: Trajectory,
    test_function,
    time_window: tuple[float, float],
    region: tuple[Sequence[float], Sequence[float]] | None = None,
) -> dict:
    """Discrete value of the conservation-law identity against a test
    function, with the flux evaluated off the scheme's faces: the O(h^2)
    consistency oracle of the PDE the scheme solves.

    The enthalpy/time part telescopes exactly (differences of the test
    function between stored times), so for a space-constant test function on
    a zero-flux run the value collapses to the accumulated conservation
    defect.  The flux part re-evaluates the flux law, axis by axis
    w_i |d_i u|^{p-2} d_i u, from centred node gradients against the
    analytic test-function gradient, so for generic test functions the
    residual measures the O(h + dt) discretization defect.

    The test function is evaluated on blocks of stored times at once: its
    `value(xs, t)` and `gradient(xs, t)` must broadcast a time array of
    shape (rows, 1, ...) against the node coordinates.
    """
    grid = trajectory.grid
    xs = grid.meshgrid()
    times = np.asarray(trajectory.times)
    slack = 1e-9 * (1.0 + abs(times[-1]))
    if time_window[0] < times[0] - slack or time_window[1] > times[-1] + slack:
        raise ValueError("time window outside the stored horizon")
    m1 = trajectory.nearest_time_index(time_window[0])
    m2 = trajectory.nearest_time_index(time_window[1])
    if m2 <= m1:
        raise ValueError("time window must span at least one step")

    vol = grid.volume_weights()
    if region is None:
        mask = np.ones(grid.shape, dtype=bool)
        full_domain = True
    else:
        lo, hi = region
        mask = np.ones(grid.shape, dtype=bool)
        for ax, (l, h_) in enumerate(zip(lo, hi)):
            mask &= (xs[ax] >= l - 1e-12) & (xs[ax] <= h_ + 1e-12)
        if not np.any(mask):
            raise ValueError("region contains no grid nodes")
        full_domain = bool(np.all(mask))

    natural = full_domain and trajectory.scenario.boundary.kind == "zero-flux"
    if not natural:
        ring = mask & _region_ring(mask)
        tvals = [times[m1], times[(m1 + m2) // 2], times[m2]]
        worst = max(
            float(np.max(np.abs(np.asarray(test_function.value(xs, t))[ring])))
            if np.any(ring) else 0.0
            for t in tvals
        )
        if worst > 1e-12:
            raise ValueError("test function must vanish on the lateral boundary of the region")

    weights = trajectory.scenario.field.weights

    def masked_sums(a):
        """Per row of a, the volume-weighted sum over the region."""
        return _row_sums(a * vol, mask).tolist()

    e_fields = trajectory.enthalpies
    time_terms, flux_terms = [], []
    for lo, hi in _time_blocks(m1, m2, grid):
        ts = times[lo:hi + 1]
        phi = _on_rows(test_function.value(xs, _time_column(ts, grid.dim)), ts.size, grid)
        e = np.stack(e_fields[lo:hi])
        if lo == m1:
            first = masked_sums(e[:1] * phi[:1])[0]
        time_terms += masked_sums(e * (phi[1:] - phi[:-1]))
        grads = _centered_gradient(np.stack(trajectory.temps[lo + 1:hi + 1]), grid)
        gphi = test_function.gradient(xs, _time_column(ts[1:], grid.dim))
        dot = sum(w * (np.abs(g) ** (trajectory.p - 2.0) * g) * np.asarray(gp)
                  for w, g, gp in zip(weights, grads, gphi))
        flux_terms += [dt_m * v for dt_m, v in zip(np.diff(ts).tolist(), masked_sums(dot))]
    r_val = masked_sums(e_fields[m2] * phi[-1:])[0] - first
    for term in time_terms:
        r_val -= term
    flux_term = 0.0
    for term in flux_terms:
        flux_term += term
    r_val += flux_term
    return {"residual": r_val}


def dissipation_profile(trajectory: Trajectory) -> np.ndarray:
    """Monotone Lyapunov sequence: conjugate enthalpy energy plus the
    accumulated p-flux dissipation.  Non-increasing (to tolerance) for
    zero-flux runs."""
    sc = trajectory.scenario
    g = trajectory.graph
    vol = trajectory.grid.volume_weights()
    faces = _Faces(trajectory.grid, sc.p, sc.field.weights)

    def conjugate(u):
        e = g.enthalpy_of_temperature(u)
        ee = g.enthalpy_primitive_of_temperature(u)
        return float(np.sum(vol * (u * e - ee)))

    vals = []
    acc = 0.0
    prev_t = trajectory.times[0]
    for m, u in enumerate(trajectory.temps):
        if m > 0:
            dt = trajectory.times[m] - prev_t
            acc += dt * sc.p * faces.energy(u)
            prev_t = trajectory.times[m]
        vals.append(conjugate(u) + acc)
    return np.asarray(vals)


def omega_log_slope(params: ModulusParams, r):
    """omega'(r) * r / omega(r) = alpha / (p + ln(r0/r)), at most alpha/p."""
    r = np.asarray(r, dtype=float)
    out = params.alpha / (params.p + np.log(params.r0 / r))
    return out if out.ndim else float(out)


def forwarded_level_fraction(
    trajectory: Trajectory,
    params: ModulusParams,
    center: tuple[Sequence[float], float],
    r: float,
    t_bar: float,
    varsigma: float,
) -> dict:
    """Measured set-fraction forwarded in time by the logarithmic estimate:
    share of B_{r/16} x (t_bar, top] where v exceeds osc - varsigma *
    omega(r)^{1 + 1/alpha}.  Diagnostic only; nothing is asserted."""
    space, t0 = center
    full = cylinder(params, center, r, "full")
    w_all = trajectory.w_fields
    w_lo, w_hi = extrema(w_all, *cylinder_samples(trajectory, full))
    osc = w_hi - w_lo

    w_r = omega(params, r)
    level = osc - varsigma * w_r ** (1.0 + 1.0 / params.alpha)
    mask = trajectory.ball_mask(space, r / 16.0)
    t_idx = trajectory.time_indices(t_bar, full.time_window[1])
    if int(mask.sum()) < 1 or t_idx.size < 1:
        raise EmptyCylinderError("forwarded slab too small")
    total = int(mask.sum()) * t_idx.size
    above = sum(int(np.count_nonzero(w_all[m][mask] - w_lo >= level)) for m in t_idx)
    return {"fraction": above / total, "level": level, "oscillation": osc,
            "omega_r": w_r, "samples": total}


def rescaled_beta(beta: BetaMap, lam: float) -> BetaMap:
    """The map z -> beta(lam * z) / lam, same Lipschitz constant."""
    if beta.kind == "identity":
        return beta
    if beta.kind == "tanh":
        return BetaMap(kind="tanh", mu=beta.mu, tau=beta.tau / lam)
    return BetaMap(
        kind="piecewise",
        knots=tuple(x / lam for x in beta.knots),
        values=tuple(y / lam for y in beta.values),
    )


def rescaled_graph(graph: RegularizedGraph, lam: float) -> RegularizedGraph:
    """Graph of the solution scaled down by lam >= 1: jump, width and
    latent heat all divide by lam."""
    if lam < 1.0:
        raise ValueError("rescaling factor must be >= 1")
    return RegularizedGraph(
        a=graph.a / lam,
        latent_heat=graph.latent_heat / lam,
        eps=graph.eps / lam,
        beta=rescaled_beta(graph.beta, lam),
    )


def rescale_solution(trajectory: Trajectory, lam: float) -> Trajectory:
    """Divide the solution by lam >= 1 and stretch time by lam^{p-2}.

    The rescaled fields solve a structurally identical problem whose graph
    has jump a/lam, width eps/lam and effective latent heat lh/lam; the
    rescaled trajectory's scenario carries that graph.  lam = 1 is the
    identity.
    """
    if lam < 1.0:
        raise ValueError("lam must be >= 1")
    graph = rescaled_graph(trajectory.graph, lam) if lam != 1.0 else trajectory.graph
    factor = lam ** (trajectory.p - 2.0)
    new_temps = [u / lam for u in trajectory.temps]
    return Trajectory(
        scenario=replace(trajectory.scenario, graph=graph),
        times=[factor * t for t in trajectory.times],
        temps=new_temps,
        enthalpies=[np.asarray(graph.enthalpy_of_temperature(u)) for u in new_temps],
        diagnostics=trajectory.diagnostics,
    )
