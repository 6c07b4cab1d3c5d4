"""Test-only helpers: a uniform test function, a Lyapunov sequence, the
modulus log-slope, a ledger with measured values, the forwarded level
fraction and the rescaled graph and solution.  Nothing in the package calls
them, so they live beside the tests that do."""
from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable, Sequence

import numpy as np

from stefanlab.constants import ConstantsLedger
from stefanlab.geometry import EmptyCylinderError, ModulusParams, cylinder, omega
from stefanlab.graphs import BetaMap, RegularizedGraph
from stefanlab.solver import Trajectory, _Faces


class ConstantInSpace:
    """Test function phi(t) uniform over the domain (zero-flux runs only);
    `profile` must map an array of times elementwise."""

    def __init__(self, profile: Callable[[float], float]):
        self.profile = profile

    def value(self, xs, t):
        return self.profile(t) * np.ones_like(xs[0])

    def gradient(self, xs, t):
        return [np.zeros_like(x) for x in xs]


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


def with_measured(ledger: ConstantsLedger, **measured) -> ConstantsLedger:
    """The ledger with the given values replaced and tagged "measured"."""
    prov = dict(ledger.provenance)
    for k in measured:
        prov[k] = "measured"
    return replace(ledger, provenance=prov, **measured)


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
    w_all = trajectory.w_fields()
    mask_full = trajectory.ball_mask(full.center_space, full.ball_radius)
    t_full = trajectory.time_indices(*full.time_window)
    if int(mask_full.sum()) < 2 or t_full.size < 2:
        raise EmptyCylinderError("cylinder too small")
    w_lo = min(float(w_all[m][mask_full].min()) for m in t_full)
    osc = max(float(w_all[m][mask_full].max()) for m in t_full) - w_lo

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


def rescale_solution(trajectory: Trajectory, lam: float,
                     space_shift: Sequence[float] | None = None,
                     time_shift: float = 0.0) -> Trajectory:
    """Divide the solution by lam >= 1 and stretch time by lam^{p-2}.

    The rescaled fields solve a structurally identical problem whose graph
    has jump a/lam, width eps/lam and effective latent heat lh/lam; that
    effective value is recorded in the metadata.  lam = 1 with zero shifts is
    the identity.
    """
    if lam < 1.0:
        raise ValueError("lam must be >= 1")
    p = trajectory.p
    graph = rescaled_graph(trajectory.graph, lam) if lam != 1.0 else trajectory.graph
    factor = lam ** (p - 2.0)
    new_times = [time_shift + factor * t for t in trajectory.times]
    new_temps = [u / lam for u in trajectory.temps]
    new_enths = [np.asarray(graph.enthalpy_of_temperature(u)) for u in new_temps]
    dim = trajectory.grid.dim
    shift = tuple(space_shift) if space_shift is not None else (0.0,) * dim
    old_offset = trajectory.meta.get("space_offset", (0.0,) * dim)
    meta = dict(trajectory.meta)
    meta.pop("w_fields", None)
    meta["space_offset"] = tuple(o + s for o, s in zip(old_offset, shift))
    meta["lh_effective"] = graph.latent_heat
    if lam != 1.0 or time_shift != 0.0 or any(s != 0.0 for s in shift):
        rescales = list(meta.get("rescale", {}).get("history", []))
        rescales.append({"lambda": lam, "time_shift": time_shift,
                         "space_shift": list(shift)})
        meta["rescale"] = {"history": rescales, "lambda_total": math.prod(
            h["lambda"] for h in rescales)}
    return Trajectory(
        scenario=trajectory.scenario,
        grid=trajectory.grid,
        graph=graph,
        times=new_times,
        temps=new_temps,
        enthalpies=new_enths,
        diagnostics=trajectory.diagnostics,
        meta=meta,
    )
