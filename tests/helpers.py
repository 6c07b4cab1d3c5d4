"""Test-only helpers: a uniform test function, a Lyapunov sequence, the
modulus log-slope and a ledger with measured values.  Nothing in the
package calls them, so they live beside the tests that do."""
from __future__ import annotations

from dataclasses import replace
from typing import Callable

import numpy as np

from stefanlab.constants import ConstantsLedger
from stefanlab.geometry import ModulusParams
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
