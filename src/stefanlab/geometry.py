"""Intrinsic space-time geometry for oscillation measurement.

The modulus candidate is omega(r) = L * (p + ln(r0/r))^(-alpha) with the
exponent alpha determined by (n, p) through the Sobolev conjugate; cylinders
carry time depths that rebalance the p-degeneracy with powers of omega.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .solver import Trajectory


class EmptyCylinderError(ValueError):
    """Cylinder holds too few grid samples to measure anything."""


def alpha_kappa_of(n: int, p: float, alpha_choice_if_p_eq_n: float | None = None):
    """Oscillation exponent and Sobolev-conjugate parameter for (n, p).

    Returns (alpha, kappa) with 1/alpha = 1 + kappa/(kappa - 1) exactly
    (kappa = +inf read as kappa/(kappa-1) = 1).  For p = n the exponent is a
    free choice below 1/2, defaulting to 0.45.
    """
    if n < 1 or p < 2:
        raise ValueError("need spatial dimension >= 1 and p >= 2")
    if p < n:
        alpha = p / (n + p)
        kappa = n / (n - p)
    elif p > n:
        alpha = 0.5
        kappa = math.inf
    else:
        alpha = 0.45 if alpha_choice_if_p_eq_n is None else float(alpha_choice_if_p_eq_n)
        if not (0.0 < alpha < 0.5):
            raise ValueError("for p = n the exponent must lie in (0, 1/2)")
        kappa = (1.0 - alpha) / (1.0 - 2.0 * alpha)
    return alpha, kappa


def kappa_ratio(kappa: float) -> float:
    """kappa/(kappa - 1), with the +inf convention giving 1."""
    if math.isinf(kappa):
        return 1.0
    return kappa / (kappa - 1.0)


@dataclass(frozen=True)
class ModulusParams:
    """Parameters of the log-power modulus and its cylinders: what omega and
    the cylinder depths read."""

    p: float
    alpha: float
    L: float
    M: float
    r0: float

    def __post_init__(self):
        if not (0.0 < self.alpha <= 0.5):
            raise ValueError("alpha must lie in (0, 1/2]")
        if self.L < 1.0 or self.M < 1.0 or self.r0 <= 0.0:
            raise ValueError("need L >= 1, M >= 1, r0 > 0")


def omega(params: ModulusParams, r):
    """The modulus L * (p + ln(r0/r))^(-alpha) on (0, r0]."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0) or np.any(r > params.r0 * (1.0 + 1e-12)):
        raise ValueError("radius out of range (0, r0]")
    return omega_from_depth(params, np.log(params.r0 / r))


def omega_from_depth(params: ModulusParams, y):
    """omega evaluated at log-depth y = ln(r0/r) >= 0; immune to radius underflow."""
    y = np.asarray(y, dtype=float)
    out = params.L * (params.p + y) ** (-params.alpha)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class IntrinsicCylinder:
    """Backward space-time cylinder B x (t0 - depth, t0].

    Flavors: "tilde" has depth omega^{2-p} r^p and a quarter-radius ball,
    and "full" has depth lambda^{2-p} M omega^{(2-p)(1+1/alpha)} r^p on the
    full ball, lambda >= 1 the global-size factor (1 unless given).
    """

    center_space: tuple[float, ...]
    center_time: float
    radius: float
    depth: float
    flavor: str

    def __post_init__(self):
        if self.depth <= 0.0 or self.radius <= 0.0:
            raise ValueError("cylinder must have positive radius and depth")

    @property
    def ball_radius(self) -> float:
        return self.radius / 4.0 if self.flavor == "tilde" else self.radius

    @property
    def time_window(self) -> tuple[float, float]:
        return (self.center_time - self.depth, self.center_time)


def cylinder_depth(params: ModulusParams, r: float, flavor: str,
                   lambda_scale: float = 1.0) -> float:
    w = omega(params, r)
    if flavor == "tilde":
        return w ** (2.0 - params.p) * r**params.p
    if flavor != "full":
        raise ValueError(f"unknown cylinder flavor {flavor!r}")
    full = params.M * w ** ((2.0 - params.p) * (1.0 + 1.0 / params.alpha)) * r**params.p
    return lambda_scale ** (2.0 - params.p) * full


def cylinder(params: ModulusParams, center: tuple[Sequence[float], float], r: float,
             flavor: str = "full", lambda_scale: float = 1.0) -> IntrinsicCylinder:
    """Build the intrinsic cylinder of the requested flavor at `center`."""
    if r > params.r0 * (1.0 + 1e-12):
        raise ValueError("radius exceeds r0")
    if lambda_scale < 1.0:
        raise ValueError("lambda_scale must be >= 1")
    space, t0 = center
    space = tuple(float(c) for c in np.atleast_1d(space))
    return IntrinsicCylinder(
        center_space=space,
        center_time=float(t0),
        radius=float(r),
        depth=cylinder_depth(params, r, flavor, lambda_scale),
        flavor=flavor,
    )


# ---------------------------------------------------------------------------
# Oscillation measurement and modulus fitting
# ---------------------------------------------------------------------------

def cylinder_samples(trajectory: Trajectory,
                     cyl: IntrinsicCylinder) -> tuple[np.ndarray, np.ndarray]:
    """The grid nodes (a mask) and stored times (indices) in the cylinder:
    closed ball, inclusive time slab.  Raises EmptyCylinderError unless it
    holds at least 2 of each."""
    mask = trajectory.ball_mask(cyl.center_space, cyl.ball_radius)
    t_idx = trajectory.time_indices(*cyl.time_window)
    n_nodes = int(np.count_nonzero(mask))
    if n_nodes < 2 or t_idx.size < 2:
        raise EmptyCylinderError(
            f"cylinder holds {n_nodes} nodes x {t_idx.size} times; need >= 2 of each"
        )
    return mask, t_idx


def extrema(fields: Sequence[np.ndarray], mask: np.ndarray,
            t_idx: np.ndarray) -> tuple[float, float]:
    """min and max of `fields` over the masked nodes and the stored times t_idx."""
    lo = math.inf
    hi = -math.inf
    for m in t_idx:
        vals = fields[m][mask]
        lo = min(lo, float(vals.min()))
        hi = max(hi, float(vals.max()))
    return lo, hi


def oscillation(trajectory: Trajectory, cyl: IntrinsicCylinder) -> float:
    """max - min of the temperature over the cylinder's samples."""
    lo, hi = extrema(trajectory.temps, *cylinder_samples(trajectory, cyl))
    return hi - lo


@dataclass
class OscillationProfile:
    """Measured oscillation ladder with the fitted log-power exponent.

    Each ratio is osc / (omega * lambda_scale), lambda_scale = max{global
    oscillation, 1} the size factor of the ladder's full cylinders."""

    radii: list[float]
    depths: list[float]
    oscillations: list[float]
    omegas: list[float]
    ratios: list[float]
    lambda_scale: float
    alpha_hat: float | None = None
    c_hat: float | None = None
    fit_residual: float | None = None
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        r = np.asarray(self.radii)
        if np.any(np.diff(r) >= 0):
            raise ValueError("radii must be strictly decreasing")
        osc = np.asarray(self.oscillations)
        if np.any(osc < -1e-15):
            raise ValueError("oscillations must be nonnegative")
        if np.any(np.diff(osc) > 1e-12 * (1.0 + osc[:-1])):
            raise ValueError("oscillation must not increase as radii shrink")

    @property
    def c_star(self) -> float:
        """The smallest c with osc <= c * omega * lambda_scale on every rung."""
        return max(self.ratios)

    def rows(self):
        return list(zip(self.radii, self.depths, self.oscillations, self.omegas, self.ratios))

    def to_csv(self) -> str:
        lines = ["r,T_r,osc,omega_r,ratio"]
        for row in self.rows():
            lines.append(",".join(repr(float(v)) for v in row))
        return "\n".join(lines) + "\n"

    def fit_dict(self) -> dict:
        return {
            "alpha_hat": self.alpha_hat,
            "c_hat": self.c_hat,
            "rms_residual": self.fit_residual,
            "flags": list(self.flags),
        }


def fit_modulus(profile_points: Sequence[tuple[float, float]], p: float, r0: float):
    """Least-squares fit of ln(osc) = ln(c) - alpha_hat * ln(p + ln(r0/r)).

    Returns (alpha_hat, c_hat, rms_residual, flags).  Points with
    nonpositive oscillation are dropped; at least 4 distinct radii must
    survive.  Data decaying much faster than any log power is flagged.
    """
    pts = [(float(r), float(o)) for r, o in profile_points if o > 0.0]
    radii = sorted({r for r, _ in pts})
    if len(pts) < 4 or len(radii) < 4:
        raise ValueError("need at least 4 usable points with distinct radii")
    r = np.array([q[0] for q in pts])
    osc = np.array([q[1] for q in pts])
    x = np.log(p + np.log(r0 / r))
    design = np.column_stack([np.ones_like(x), -x])
    coef, *_ = np.linalg.lstsq(design, np.log(osc), rcond=None)
    ln_c, alpha_hat = coef
    resid = np.log(osc) - design @ coef
    rms = float(np.sqrt(np.mean(resid**2)))
    flags = []
    if alpha_hat > 1.0 and rms > 0.05:
        flags.append("faster-than-log-power")
    return float(alpha_hat), float(math.exp(ln_c)), rms, tuple(flags)
