"""Scalar nonlinearities of the phase-change problem.

Everything here is a pure function of one real variable: the smoothed step
graph obtained by mollifying a unit jump, the bi-Lipschitz temperature map
beta, and the enthalpy built from the two.  The smoothed step is a monotone
cubic (PCHIP) interpolant of a precomputed uniform table, and the convex
enthalpy energy uses the antiderivatives of such interpolants.  The time
stepper calls them millions of times, so the tables are built here in numpy
(`_pchip`, `_antiderivative`) and `_HermiteTable` evaluates them with an
arithmetic interval index on the uniform knots and one fixed-order
polynomial sum, bit for bit what scipy's `PchipInterpolator` and its
antiderivative return.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

# Resolution of the precomputed step/primitive tables on [-1, 1].
_TABLE_POINTS = 4097
_GAUSS_ORDER = 12


def _scalar(value) -> np.ndarray:
    """A float as a 0-d float64 array.  numpy converts a Python float
    operand on every operation and takes a 0-d array as it is, which saves
    about a third of an operation on a 161-node field; the values, and so
    the results, are the same bit for bit.  The lookups a time step makes
    hold their constants this way."""
    return np.array(value, dtype=float)


def bump_shape(t):
    """Unnormalized mollifier profile exp(-1/(1-t^2)) on (-1, 1), 0 outside.

    |t| is clamped to 1 before squaring (no overflow for huge t) and
    1 - t^2 floored at 1e-300, so t = +-1, |t| > 1, inf and NaN give
    exp(-1e300) = 0 exactly; inside, the values are those of the formula."""
    a = np.minimum(np.abs(np.asarray(t, dtype=float)), 1.0)
    out = np.exp(-1.0 / np.fmax(1.0 - a * a, 1e-300))
    return out if out.ndim else float(out)


def _build_step_tables():
    """Cumulative integral of the bump on a fine grid, symmetrized.

    Returns the sample grid, the normalized cumulative values (a smooth CDF
    rising from 0 to 1), and the total bump mass.
    """
    ts = np.linspace(-1.0, 1.0, _TABLE_POINTS)
    xg, wg = np.polynomial.legendre.leggauss(_GAUSS_ORDER)
    mids = 0.5 * (ts[:-1] + ts[1:])
    half = 0.5 * (ts[1:] - ts[:-1])
    samples = bump_shape(mids[:, None] + half[:, None] * xg[None, :])
    pieces = (samples * wg[None, :]).sum(axis=1) * half
    cum = np.concatenate([[0.0], np.cumsum(pieces)])
    mass = cum[-1]
    cdf = cum / mass
    # The profile is even, so the CDF must satisfy cdf(t) + cdf(-t) = 1;
    # enforce it exactly so symmetry tests hold to machine precision.
    cdf = 0.5 * (cdf + 1.0 - cdf[::-1])
    cdf[0] = 0.0
    cdf[-1] = 1.0
    return ts, cdf, float(mass)


def _pchip(x, y) -> np.ndarray:
    """Monotone cubic Hermite interpolant of samples y on knots x (n >= 3).

    Returns c with c[j] the coefficient of (t - x[i])^j on interval i.  The
    knot slopes are Fritsch and Carlson's weighted harmonic means of the
    neighbouring secants, 0 where the data is flat or turns (SIAM J. Numer.
    Anal. 17, 1980), with the one-sided three-point rule at both ends;
    every operation is the one scipy's `PchipInterpolator` and
    `CubicHermiteSpline` perform, in the same order, so the coefficients
    are theirs bit for bit.
    """
    h = np.diff(x)
    if not np.all(h > 0):
        raise ValueError("knots must be finite and strictly increasing")
    m = np.diff(y) / h
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
    d = np.zeros_like(y)
    with np.errstate(divide="ignore", invalid="ignore"):
        d[1:-1] = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
    for end, h0, h1, m0, m1 in ((0, h[0], h[1], m[0], m[1]),
                                (-1, h[-1], h[-2], m[-1], m[-2])):
        slope = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        if np.sign(slope) != np.sign(m0):
            slope = 0.0
        elif np.sign(m0) != np.sign(m1) and abs(slope) > 3.0 * abs(m0):
            slope = 3.0 * m0
        d[end] = slope
    t = (d[:-1] + d[1:] - 2 * m) / h
    return np.stack([y[:-1], d[:-1], (m - d[:-1]) / h - t, t / h])


def _antiderivative(x, c) -> tuple[np.ndarray, float]:
    """Antiderivative of the piecewise polynomial (x, c) that is 0 at x[0].

    Returns its coefficients, in the layout of `_pchip`, and its value at
    x[-1].  Each interval's constant is the previous interval's value at
    its right end, summed constant first as scipy's `PPoly` evaluates it:
    ((v + a1 h) + a2 h^2) + ...  Laid out interval after interval, these
    sums are one sequential running sum, so a cumulative sum yields every
    constant exactly as the sequential pass of `PPoly.antiderivative` does.
    """
    h = np.diff(x)
    k = c.shape[0]
    a = np.empty((k + 1, c.shape[1]))
    # terms[1:] holds a_j h^j interval after interval, after the first
    # interval's constant 0.0, so the running sum passes through every
    # interval's constant and ends at the value at x[-1]
    terms = np.zeros(1 + c.size)
    z = h
    for j in range(k):
        a[j + 1] = c[j] / (j + 1)
        terms[1 + j::k] = a[j + 1] * z
        z = z * h
    ends = np.cumsum(terms)[::k]
    a[0] = ends[:-1]
    return a, float(ends[-1])


class _HermiteTable:
    """Piecewise polynomial on uniform knots, continued past the right end.

    Holds coefficients in the layout of `_pchip` (a cubic PCHIP interpolant
    or its quartic antiderivative) plus one extra row at the last knot x1
    that continues it as `right_value + right_slope * (t - x1)`; inputs
    below the first knot x0 take the value there.  A lookup finds its row i
    without a search: the knots are uniform, so the integer part of
    (t - x0)/h - 1/2, capped at the last row, is the row or the one before
    it, and one comparison with the next knot (NaN after the last row)
    settles which.  That is `searchsorted(x, t, "right") - 1` exactly, NaN
    and infinities included, as long as no knot lies more than h/4 from its
    uniform position, which the constructor checks.  It then sets
    s = t - x[i] and sums the terms
    c_j * s^j from j = 0 up, with the powers built as s, s*s, (s*s)*s, ...:
    the order of scipy's `PPoly` evaluation, so inside [x0, x1] a lookup is
    bit-identical to scipy's.  NaN maps to NaN.  The zero high-order terms
    of the extra row overflow to NaN once t - x1 exceeds about 1e77 (a
    quartic) or 1e102 (a cubic), so a caller whose arguments can lie that
    far out looks up at most x1 and adds the continuation itself, as
    `enthalpy_jump_primitive` does.
    """

    def __init__(self, x, coeffs, right_value: float, right_slope: float):
        n = x.size
        # c[j] holds the coefficients of s^j, one per knot; 0.0 + c[0] is
        # scipy's first addition, which turns a -0.0 constant into +0.0
        c = np.zeros((coeffs.shape[0], n))
        c[:, :-1] = coeffs
        c[0, :-1] += 0.0
        c[:2, -1] = right_value, right_slope
        # The scalars of a lookup are 0-d arrays (see `_scalar`).
        self._x0 = _scalar(x[0])
        self._x = x
        self._inv_h = _scalar((n - 1) / (x[-1] - x[0]))
        if not np.abs((x - x[0]) * self._inv_h - np.arange(n)).max() <= 0.25:
            raise ValueError("table knots must be uniform")
        self._offset = _scalar(x[0] * self._inv_h + 0.5)
        self._last = _scalar(n - 1)
        self._next = np.append(x[1:], np.nan)
        # One contiguous array per power: a lookup gathers each with take(),
        # so its temporaries are all the size of the input.
        self._c = tuple(c)

    def _interval(self, t):
        """Row of each t >= x0: `searchsorted(x, t, "right") - 1`."""
        i = np.fmin(t * self._inv_h - self._offset, self._last).astype(np.intp)
        i += self._next.take(i) <= t
        return i

    def __call__(self, t):
        t = np.maximum(t, self._x0)
        i = self._interval(t)
        s = t - self._x.take(i)
        c0, c1, *higher = self._c
        # c0 + c1 s + c2 s^2 + ..., each sum and product formed in place
        # (both commute bit for bit)
        out = c1.take(i)
        out *= s
        out += c0.take(i)
        z = s
        for cj in higher:
            z = z * s
            term = cj.take(i)
            term *= z
            out += term
        return out if out.ndim else float(out)


def _primitive_table(x, y) -> _HermiteTable:
    """Antiderivative of the PCHIP interpolant of samples y on knots x from
    x[0], continued with unit slope past the last knot, where the
    interpolated step equals 1."""
    coeffs, right_value = _antiderivative(x, _pchip(x, y))
    return _HermiteTable(x, coeffs, right_value, 1.0)


_TS, _CDF, _BUMP_MASS = _build_step_tables()
# The smoothed unit step at normalized coordinate t = (s - jump)/eps, 0 for
# t <= -1 and 1 for t >= 1, and its antiderivative, 0 for t <= -1.
_step_cdf = _HermiteTable(_TS, _pchip(_TS, _CDF), 1.0, 0.0)
_step_cdf_primitive = _primitive_table(_TS, _CDF)


def mollifier_density(t):
    """Normalized mollifier value at t (unit width, unit mass)."""
    return bump_shape(t) / _BUMP_MASS


# ---------------------------------------------------------------------------
# Bi-Lipschitz temperature maps
# ---------------------------------------------------------------------------

BetaKind = Literal["identity", "piecewise", "tanh"]


@dataclass(frozen=True)
class BetaMap:
    """Monotone bi-Lipschitz map with beta(0) = 0 and certified constant.

    A closed family so the two-sided Lipschitz constant can be certified at
    construction: the identity, a piecewise-linear table through the origin
    (extended with its end slopes), or a tanh-perturbed identity
    u + mu * tau * tanh(u / tau).
    """

    kind: BetaKind = "identity"
    knots: tuple[float, ...] = ()
    values: tuple[float, ...] = ()
    mu: float = 0.0
    tau: float = 1.0

    def __post_init__(self):
        if self.kind == "piecewise":
            xs, ys = np.asarray(self.knots, dtype=float), np.asarray(self.values, dtype=float)
            if xs.size < 2 or xs.size != ys.size:
                raise ValueError("piecewise beta needs matching knots/values, >= 2 points")
            if not (np.all(np.diff(xs) > 0) and np.all(np.diff(ys) > 0)):
                raise ValueError("piecewise beta table must be strictly increasing")
            if 0.0 not in xs or ys[list(xs).index(0.0)] != 0.0:
                raise ValueError("piecewise beta table must contain the origin (0, 0)")
            # The integral of beta from the first knot to each knot, and to
            # the origin by the formula `primitive` evaluates there, so that
            # primitive(0) is exactly 0 whichever knot the origin is.
            with np.errstate(over="ignore"):
                dx = np.diff(xs)
                slopes = np.diff(ys) / dx
                knot_int = np.concatenate([[0.0], np.cumsum(0.5 * (ys[:-1] + ys[1:]) * dx)])
            if not (np.all(slopes > 0) and np.isfinite([*slopes, *knot_int]).all()):
                raise ValueError("piecewise beta needs positive finite slopes and integral")
            i = int(_piece(xs, 0.0))
            d = 0.0 - xs[i]
            origin_int = knot_int[i] + ys[i] * d + 0.5 * slopes[i] * d * d
            object.__setattr__(self, "_table", (xs, ys, slopes, knot_int, origin_int))
        elif self.kind == "tanh":
            if self.tau <= 0.0:
                raise ValueError("tanh beta needs tau > 0")
            if self.mu <= -0.9:
                raise ValueError("tanh beta needs mu > -0.9 to stay bi-Lipschitz")
        elif self.kind != "identity":
            raise ValueError(f"unknown beta kind {self.kind!r}")

    # -- evaluation ---------------------------------------------------------

    def apply(self, u):
        u = np.asarray(u, dtype=float)
        if self.kind == "identity":
            out = u.copy()
        elif self.kind == "tanh":
            out = u + self.mu * self.tau * np.tanh(u / self.tau)
        else:
            xs, ys, slopes, _, _ = self._table
            idx = _piece(xs, u)
            out = ys[idx] + slopes[idx] * (u - xs[idx])
        return out if out.ndim else float(out)

    def prime(self, u):
        u = np.asarray(u, dtype=float)
        if self.kind == "identity":
            out = np.ones_like(u)
        elif self.kind == "tanh":
            out = 1.0 + self.mu * (1.0 - np.tanh(u / self.tau) ** 2)
        else:
            xs, _, slopes, _, _ = self._table
            out = slopes[_piece(xs, u)]
        return out if out.ndim else float(out)

    def inverse(self, w):
        w = np.asarray(w, dtype=float)
        if self.kind == "identity":
            out = w.copy()
        elif self.kind == "piecewise":
            xs, ys, slopes, _, _ = self._table
            idx = _piece(ys, w)
            out = xs[idx] + (w - ys[idx]) / slopes[idx]
        else:
            # Damped Newton; beta is smooth, increasing, with slope in
            # [1 + min(mu, 0), 1 + max(mu, 0)], so this converges fast.
            out = np.array(w / (1.0 + 0.5 * self.mu), dtype=float, ndmin=1)
            target = np.atleast_1d(w)
            for _ in range(80):
                r = self.apply(out) - target
                if np.max(np.abs(r)) <= 1e-15 * (1.0 + np.max(np.abs(target))):
                    break
                out = out - r / self.prime(out)
            out = out.reshape(np.shape(w))
        return out if np.ndim(out) else float(out)

    def primitive(self, u):
        """Integral of beta from 0 to u (closed form per family)."""
        u = np.asarray(u, dtype=float)
        if self.kind == "identity":
            out = 0.5 * u * u
        elif self.kind == "tanh":
            # log cosh x = |x| + log(1 + e^{-2|x|}) - log 2, finite for every x
            x = np.abs(u / self.tau)
            out = 0.5 * u * u + self.mu * self.tau**2 * (
                x + np.log1p(np.exp(-2.0 * x)) - math.log(2.0))
        else:
            xs, ys, slopes, knot_int, origin_int = self._table
            idx = _piece(xs, u)
            d = u - xs[idx]
            out = knot_int[idx] + ys[idx] * d + 0.5 * slopes[idx] * d * d - origin_int
        return out if out.ndim else float(out)

    @property
    def lipschitz(self) -> float:
        """Certified two-sided constant: 1/L <= slope <= L everywhere."""
        if self.kind == "identity":
            return 1.0
        if self.kind == "tanh":
            hi = 1.0 + max(self.mu, 0.0)
            lo = 1.0 + min(self.mu, 0.0)
            return max(hi, 1.0 / lo)
        slopes = self._table[2]
        return float(max(np.max(slopes), 1.0 / np.min(slopes)))


def _piece(grid: np.ndarray, x) -> np.ndarray:
    """The piece of a piecewise-linear table on `grid` holding each x, end pieces extended."""
    return np.clip(np.searchsorted(grid, x, side="right") - 1, 0, grid.size - 2)


# ---------------------------------------------------------------------------
# Regularized graph and enthalpy
# ---------------------------------------------------------------------------

class GraphValueError(ValueError):
    """A graph value outside its domain; `key` names the `RegularizedGraph`
    field it belongs to."""

    def __init__(self, key: str, message: str):
        super().__init__(f"{key} {message}")
        self.key = key


@dataclass(frozen=True)
class RegularizedGraph:
    """Smoothed jump nonlinearity: location a, latent heat in (0, 1],
    mollification half-width eps, and a bi-Lipschitz temperature map.

    Precomputes the primitive of step(beta(.)) across the transition band so
    the convex step energy has closed-form values everywhere.  Frozen, so
    the table always belongs to the fields it was built from.
    """

    a: float
    latent_heat: float
    eps: float
    beta: BetaMap = field(default_factory=BetaMap)

    def __post_init__(self):
        if not (0.0 < self.latent_heat <= 1.0):
            raise GraphValueError("latent_heat", "must lie in (0, 1]")
        if not 0.0 < self.eps < math.inf:
            raise GraphValueError("eps", "must be positive and finite")
        lo, hi = self.a - self.eps, self.a + self.eps
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise GraphValueError("eps", f"gives the band a +- eps = {self.a!r} +- {self.eps!r} "
                                         f"no finite, nonzero width in floating point")
        # beta maps the band to the temperatures [s_lo, s_hi]; where no table
        # of finite coefficients on uniform knots spans them, beta is the
        # cause, or eps when beta is the identity.
        with np.errstate(all="ignore"):
            s_lo = float(self.beta.inverse(lo))
            s_hi = float(self.beta.inverse(hi))
            ss = np.linspace(s_lo, s_hi, 2049)
            data = _step_cdf((self.beta.apply(ss) - self.a) / self.eps)
            try:
                # Integral of step(beta(s)) ds from the lower band edge s_lo.
                table = _primitive_table(ss, data)
            except ValueError:   # knots not increasing, or not uniform
                table = None
        if table is None or not all(np.isfinite(c).all() for c in table._c):
            raise GraphValueError(
                "eps" if self.beta.kind == "identity" else "beta",
                f"gives the band a +- eps = {self.a!r} +- {self.eps!r} the temperatures "
                f"[{s_lo!r}, {s_hi!r}], which a table of {ss.size} uniform knots cannot hold")
        object.__setattr__(self, "_step_of_temperature_primitive", table)
        object.__setattr__(self, "_k0", table(0.0))
        object.__setattr__(self, "_a", _scalar(self.a))
        object.__setattr__(self, "_eps", _scalar(self.eps))

    # -- smoothed step in the transformed variable --------------------------

    def step(self, s):
        """Smoothed unit step centred at a with half-width eps."""
        return _step_cdf((np.asarray(s, dtype=float) - self.a) / self.eps)

    def step_prime(self, s):
        """Derivative of the smoothed step: the mollifier at s - a."""
        return mollifier_density((np.asarray(s, dtype=float) - self.a) / self.eps) / self.eps

    # -- enthalpy as a function of temperature -------------------------------
    # The identity beta is applied as u itself (no copy) and its unit slope
    # is not multiplied in.  The step and its derivative are `step` and
    # `step_prime` written out on the table and the bump, with each later
    # sum and product formed in place (they commute bit for bit): the same
    # values as the formulas, without the wrapper calls and temporaries.

    def enthalpy_of_temperature(self, u):
        w = u if self.beta.kind == "identity" else self.beta.apply(u)
        e = _step_cdf((np.asarray(w, dtype=float) - self._a) / self._eps)
        e *= self.latent_heat
        e += w
        return e

    def enthalpy_prime_of_temperature(self, u):
        identity = self.beta.kind == "identity"
        w = u if identity else self.beta.apply(u)
        de = bump_shape((np.asarray(w, dtype=float) - self._a) / self._eps)
        de /= _BUMP_MASS
        de /= self.eps
        de *= self.latent_heat
        de += 1.0
        return de if identity else self.beta.prime(u) * de

    def enthalpy_primitive_of_temperature(self, u):
        """Strictly convex primitive E with E' = enthalpy_of_temperature, E(0) = 0."""
        return (
            self.beta.primitive(u)
            + self.latent_heat * (self._step_of_temperature_primitive(u) - self._k0)
        )

    def params_dict(self) -> dict:
        d = {"a": self.a, "latent_heat": self.latent_heat, "eps": self.eps,
             "beta_kind": self.beta.kind}
        if self.beta.kind == "piecewise":
            d["beta_knots"] = list(self.beta.knots)
            d["beta_values"] = list(self.beta.values)
        elif self.beta.kind == "tanh":
            d["beta_mu"] = self.beta.mu
            d["beta_tau"] = self.beta.tau
        return d


# ---------------------------------------------------------------------------
# Free-function operations
# ---------------------------------------------------------------------------

def enthalpy_jump_primitive(g: RegularizedGraph, b: float, k, v):
    """Integral over (k, v) of step'(xi) * (xi - k)_+, nonnegative.

    Computed in closed form from the step and its primitive (integration by
    parts); zero whenever v <= k or the band (b-eps, b+eps) misses (k, v).
    It does not depend on the latent heat: callers scale it by theirs.
    """
    k = np.asarray(k, dtype=float)
    v = np.asarray(v, dtype=float)
    tv = (v - b) / g.eps
    tk = (k - b) / g.eps

    def primitive(t):
        # Looked up at most at the band edge t = 1, then continued with unit
        # slope: the table's own continuation, bit for bit, without its
        # zero high powers, which overflow far out.
        return _step_cdf_primitive(np.minimum(t, 1.0)) + np.maximum(t - 1.0, 0.0)

    step_v = _step_cdf(np.minimum(tv, 1.0))
    integral = g.eps * (primitive(tv) - primitive(tk))
    out = np.where(v > k, step_v * (v - k) - integral, 0.0)
    out = np.maximum(out, 0.0)
    return out if out.ndim else float(out)
