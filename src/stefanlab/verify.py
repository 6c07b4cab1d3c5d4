"""Inequality harness: measure both sides of the key estimates on discrete
solutions and report implied constants with margins.

None of the estimates comes with usable numeric constants, so the harness
never asserts magic numbers: it reports the smallest constant making each
inequality hold and the acceptance layer checks that those constants stay
stable (within a factor of two) under grid refinement.  All checks are pure
reads of solved trajectories and reproduce bit-for-bit for a fixed
scenario.  The weak Harnack, decay and classifier checks take the site
they measure (centre, radius, start time and constants) and work out every
level, cylinder and window they read from the trajectory.  The modulus
ladder is dyadic, r_i = r0 2^{-i}: radii stepped down by 32, as in the
proof, leave a computed run within two rungs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .constants import decay_profile
from .geometry import (EmptyCylinderError, IntrinsicCylinder, ModulusParams,
                       OscillationProfile, cylinder, cylinder_depth, cylinder_samples, extrema,
                       fit_modulus, kappa_ratio, omega, oscillation)
from .graphs import enthalpy_jump_primitive
from .solver import (SpaceTimeBump, Trajectory, _row_sums, _time_blocks, _time_column,
                     weak_form_residual)


@dataclass
class InequalityReport:
    """One measured estimate: both sides, the implied constant, and margin;
    `passed` is None when the estimate bounds nothing (no verdict)."""

    name: str
    lhs: float
    rhs_core: float
    implied_constant: float | None
    margin: float | None
    degenerate: bool
    passed: bool | None
    details: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Piecewise-linear cutoff
# ---------------------------------------------------------------------------

# The energy check's cutoff on a cylinder is a tensor pyramid: 1 on the inner
# ball of _PLATEAU_FRACTION times its radius and on the upper time slab,
# falling linearly to 0 at the lateral boundary and, over the first
# _RAMP_FRACTION of the depth, from the initial slice.  Fractions keep the
# construction covariant under time rescaling.
_PLATEAU_FRACTION = 0.5
_RAMP_FRACTION = 0.5


def _cutoff_space(trajectory: Trajectory, cyl: IntrinsicCylinder) -> np.ndarray:
    xs = trajectory.grid.meshgrid()
    d = np.sqrt(sum((x - c) ** 2 for x, c in zip(xs, cyl.center_space)))
    r_in = _PLATEAU_FRACTION * cyl.ball_radius
    r_out = cyl.ball_radius
    return np.clip((r_out - d) / (r_out - r_in), 0.0, 1.0)


def _cutoff_time(times: np.ndarray, cyl: IntrinsicCylinder) -> np.ndarray:
    t_lo, t_hi = cyl.time_window
    ramp = _RAMP_FRACTION * (t_hi - t_lo)
    times = np.asarray(times)
    if ramp == 0.0:  # a depth too small to halve: the ramp's limit, a unit step
        return (times > t_lo).astype(float)
    return np.clip((times - t_lo) / ramp, 0.0, 1.0)


def _cell_average_of_faces(face_vals: list[np.ndarray]) -> np.ndarray:
    """Average per-axis face quantities of each row of a stack (leading
    axis) back onto nodes, a missing face beyond either end counting as 0."""
    out = None
    for ax, f in enumerate(face_vals, start=1):
        lead = (slice(None),) * ax
        shape = list(f.shape)
        shape[ax] += 1
        pair_sum = np.empty(shape)
        pair_sum[lead + (0,)] = f[lead + (0,)]
        np.add(f[lead + (slice(None, -1),)], f[lead + (slice(1, None),)],
               out=pair_sum[lead + (slice(1, -1),)])
        pair_sum[lead + (-1,)] = f[lead + (-1,)]
        term = 0.5 * pair_sum
        out = term if out is None else out + term
    return out


def caccioppoli_check(
    trajectory: Trajectory,
    k: float,
    cyl: IntrinsicCylinder,
) -> InequalityReport:
    """Energy estimate for the truncation (w - k)_+ against the terms of the
    pyramid cutoff phi on `cyl`.

    Left side: the two sup-in-time terms (jump primitive and square of the
    truncation, both averaged over the ball and divided by the slab length)
    plus the mean p-energy of D[(w-k)_+ phi].  Right side: means of
    (w-k)_+^p |Dphi|^p, (w-k)_+^2 (d_t phi^p)_+ and the jump-primitive term
    against (d_t phi^p)_+.  The implied constant is lhs / rhs.
    """
    grid, graph = trajectory.grid, trajectory.graph
    p = trajectory.p
    vol, faces = trajectory.scenario._cells[:2]
    lh = graph.latent_heat
    mask, t_idx = cylinder_samples(trajectory, cyl)

    ball_vol = float(np.sum(vol[mask]))
    slab = cyl.depth

    phi_space = _cutoff_space(trajectory, cyl)
    times = np.asarray(trajectory.times)[t_idx]
    phi_time = _cutoff_time(times, cyl)
    w_all = trajectory.w_fields

    def ball_means(a):
        """Per row of a, the volume-weighted mean over the ball."""
        return (_row_sums(a * vol, mask) / ball_vol).tolist()

    sup_jump = 0.0
    sup_sq = 0.0
    grad_term_num = 0.0
    rhs_grad_num = 0.0
    rhs_time_num = 0.0
    rhs_jump_num = 0.0
    weight_total = 0.0

    for lo, hi in _time_blocks(0, t_idx.size - 1, grid):
        w = np.stack([w_all[m] for m in t_idx[lo:hi + 1]])
        phi = phi_space * _time_column(phi_time[lo:hi + 1], grid.dim)
        phi_p = phi**p
        vk = np.maximum(w - k, 0.0)
        jump = enthalpy_jump_primitive(graph, graph.a, k, w)
        new = slice(0 if lo == 0 else 1, None)  # row 0 ends the previous block
        for jump_mean, sq_mean in zip(ball_means(jump[new] * phi_p[new]),
                                      ball_means(vk[new]**2 * phi_p[new])):
            sup_jump = max(sup_jump, lh * jump_mean)
            sup_sq = max(sup_sq, sq_mean)

        # Each later row m against row m - 1.
        dts = np.diff(times[lo:hi + 1])
        phi, vk, jump = phi[1:], vk[1:], jump[1:]
        # gradient of the truncation times cutoff, via face differences
        gsq = _cell_average_of_faces([f**2 for f in faces.gradients(vk * phi)])
        # cutoff gradient on faces
        dphi_sq = _cell_average_of_faces([f**2 for f in faces.gradients(phi)])
        # dt (d_t phi^p)_+ is the increment (phi^p_m - phi^p_{m-1})_+; no
        # rate is formed, so no step is too short for it
        dphip = np.maximum(phi_p[1:] - phi_p[:-1], 0.0)
        for dt_m, grad, rhs_grad, rhs_time, rhs_jump in zip(
                dts.tolist(), ball_means(gsq ** (p / 2.0)),
                ball_means(vk**p * dphi_sq ** (p / 2.0)),
                ball_means(vk**2 * dphip), ball_means(jump * dphip)):
            weight_total += dt_m
            grad_term_num += dt_m * grad
            rhs_grad_num += dt_m * rhs_grad
            rhs_time_num += rhs_time
            rhs_jump_num += lh * rhs_jump

    span = max(weight_total, 1e-300)
    lhs = sup_jump / slab + sup_sq / slab + grad_term_num / span
    rhs = (rhs_grad_num + rhs_time_num + rhs_jump_num) / span

    if rhs <= 0.0:
        degenerate = lhs <= 1e-30
        return InequalityReport(
            name="caccioppoli", lhs=lhs, rhs_core=rhs, implied_constant=None,
            margin=None, degenerate=True, passed=degenerate,
            details={"note": "0/0: truncation inactive", "level": k},
        )
    implied = lhs / rhs
    return InequalityReport(
        name="caccioppoli", lhs=lhs, rhs_core=rhs, implied_constant=implied,
        margin=None, degenerate=False, passed=math.isfinite(implied) and implied >= 0,
        details={
            "level": k,
            "sup_jump_term": sup_jump / slab,
            "sup_square_term": sup_sq / slab,
            "gradient_term": grad_term_num / span,
            "rhs_gradient": rhs_grad_num / span,
            "rhs_time": rhs_time_num / span,
            "rhs_jump": rhs_jump_num / span,
            "cutoff_dphi_bound": 1.0 / ((1.0 - _PLATEAU_FRACTION) * cyl.ball_radius),
            # divided in turn: halving a subnormal depth would round it to 0
            "cutoff_dtphi_bound": p / _RAMP_FRACTION / cyl.depth,
        },
    )


# ---------------------------------------------------------------------------
# Truncation super/subsolution residuals
# ---------------------------------------------------------------------------

# The truncation check's test functions, and the relative residual
# allowance of its weak super/subsolution inequalities.
_TEST_FUNCTIONS = 5
_TRUNCATION_TOL = 1e-8


def _test_function_family(region_lo, region_hi, rng_seed=None):
    """_TEST_FUNCTIONS deterministic nonnegative bumps compactly inside the
    region.

    A seed draws a reproducible family of centres/widths; without one a
    fixed evenly spaced family is used.
    """
    lo = np.asarray(region_lo, dtype=float)
    hi = np.asarray(region_hi, dtype=float)
    span = hi - lo
    fams = []
    if rng_seed is None:
        offsets = np.linspace(0.35, 0.65, _TEST_FUNCTIONS)
        widths = [0.3 * float(np.min(span)) * (1.0 + 0.3 * (j % 2))
                  for j in range(_TEST_FUNCTIONS)]
    else:
        rng = np.random.default_rng(rng_seed)
        offsets = rng.uniform(0.3, 0.7, _TEST_FUNCTIONS)
        widths = list(rng.uniform(0.2, 0.45, _TEST_FUNCTIONS) * float(np.min(span)))
    for frac, width in zip(offsets, widths):
        center = lo + frac * span
        fams.append(SpaceTimeBump(center=tuple(center), width=float(width)))
    return fams


def _below_band(trajectory: Trajectory, k: float) -> None:
    """Reject a truncation level k that is not below the jump band: only
    then is min(w, k) a weak supersolution."""
    g = trajectory.graph
    if not k < g.a - g.eps:
        raise ValueError("truncation level must sit below the jump band (k < a - eps)")


def truncation_supersolution_check(
    trajectory: Trajectory,
    k: float,
    region: tuple[Sequence[float], Sequence[float]],
    rng_seed: int | None = None,
) -> InequalityReport:
    """min(k, w) must act as a weak supersolution (and (k - w)_+ as a weak
    subsolution) of the degenerate flow once k sits below the jump band.

    Evaluates the discrete weak form against a sampled family of nonnegative
    test functions; supersolution residuals must be >= -_TRUNCATION_TOL *
    scale and subsolution residuals <= _TRUNCATION_TOL * scale.
    """
    _below_band(trajectory, k)
    fams = _test_function_family(region[0], region[1], rng_seed=rng_seed)

    w_all = trajectory.w_fields
    sup, sub = weak_form_residual(
        trajectory, w_all, w_all, [lambda w: np.minimum(w, k), lambda w: np.maximum(k - w, 0.0)],
        [phi.value for phi in fams])
    worst_super = min(r / scale for r, scale in sup)
    worst_sub = max(r / scale for r, scale in sub)

    passed = worst_super >= -_TRUNCATION_TOL and worst_sub <= _TRUNCATION_TOL
    return InequalityReport(
        name="truncation-supersolution",
        lhs=worst_super,
        rhs_core=-_TRUNCATION_TOL,
        implied_constant=None,
        margin=worst_super + _TRUNCATION_TOL,
        degenerate=False,
        passed=passed,
        details={
            "level": k,
            "jump": trajectory.graph.a,
            "eps": trajectory.graph.eps,
            "worst_supersolution_residual": worst_super,
            "worst_subsolution_residual": worst_sub,
            "test_functions": len(fams),
        },
    )


# ---------------------------------------------------------------------------
# Harnack-type checks
# ---------------------------------------------------------------------------

def _ball_infimum(trajectory: Trajectory, m: int, mask: np.ndarray, k: float) -> float:
    """Infimum of the truncation min(w, k) at stored time m over the masked nodes."""
    return float(np.minimum(trajectory.w_fields[m][mask], k).min())


def weak_harnack_check(
    trajectory: Trajectory,
    k_truncation: float,
    x0: Sequence[float],
    R0: float,
    t1: float,
    c1: float,
) -> InequalityReport:
    """Average of v = min(w, k_truncation) at t1 against its waiting-time
    infimum on a larger ball, with T the last stored time.

    With tau = min{T - t1, c1 R0^p avg^{2-p}} the estimate reads
    avg <= (1/2)(c1 R0^p / (T - t1))^{1/(p-2)} + c2 inf over
    B_{2R0} x (t1 + tau/2, t1 + tau); the report carries the smallest
    admissible c2.  Only meaningful for p > 2.
    """
    p = trajectory.p
    if p <= 2.0:
        raise ValueError("waiting-time estimate needs p > 2")
    extent = trajectory.grid.extent
    if any(c - 4.0 * R0 < -1e-12 or c + 4.0 * R0 > extent + 1e-12 for c in x0):
        raise ValueError("ball of radius 4*R0 must fit inside the grid")
    T = trajectory.times[-1]
    if not trajectory.times[0] <= t1 < T:
        raise ValueError("need t1 before the last stored time")
    _below_band(trajectory, k_truncation)
    if min(min(float(w.min()) for w in trajectory.w_fields), k_truncation) < -1e-12:
        raise ValueError("supersolution must be nonnegative")

    vol = trajectory.scenario._cells[0]
    m1 = trajectory.nearest_time_index(t1)
    mask_avg = trajectory.ball_mask(x0, R0)
    v1 = np.minimum(trajectory.w_fields[m1], k_truncation)
    avg = float(np.sum((v1 * vol)[mask_avg]) / np.sum(vol[mask_avg]))

    if avg <= 0.0:
        return InequalityReport(
            name="weak-harnack", lhs=avg, rhs_core=0.0, implied_constant=None,
            margin=None, degenerate=True, passed=None,
            details={"note": "zero average: the estimate bounds nothing"},
        )

    tau = min(T - t1, c1 * R0**p * avg ** (2.0 - p))
    first_term = 0.5 * (c1 * R0**p / (T - t1)) ** (1.0 / (p - 2.0))
    t_lo = trajectory.times[m1] + tau / 2.0
    t_hi = trajectory.times[m1] + tau
    window = trajectory.time_indices(t_lo, t_hi)
    if window.size == 0 or t_hi > T + 1e-12:
        raise ValueError("waiting-time window exceeds the stored horizon")
    mask_inf = trajectory.ball_mask(x0, 2.0 * R0)
    inf_q = min(_ball_infimum(trajectory, m, mask_inf, k_truncation) for m in window)

    if inf_q <= 0.0:
        degenerate = avg <= first_term
        return InequalityReport(
            name="weak-harnack", lhs=avg, rhs_core=first_term,
            implied_constant=None, margin=first_term - avg, degenerate=True,
            passed=degenerate,
            details={"note": "zero infimum", "tau": tau, "avg": avg,
                     "first_term": first_term},
        )
    c2 = max(0.0, avg - first_term) / inf_q
    return InequalityReport(
        name="weak-harnack", lhs=avg, rhs_core=inf_q, implied_constant=c2,
        margin=None, degenerate=False, passed=math.isfinite(c2),
        details={
            "tau": tau, "avg": avg, "inf": inf_q, "first_term": first_term,
            "window": [float(t_lo), float(t_hi)], "window_samples": int(window.size),
            "c1": c1, "truncation": k_truncation,
        },
    )


def decay_of_positivity_check(
    trajectory: Trajectory,
    x0: Sequence[float],
    R0: float,
    t0: float,
    c3: float,
    k_truncation: float,
) -> InequalityReport:
    """Positivity floor for v = min(w, k_truncation) on B_{2R0}: from the
    starting level k, just under the infimum of v at the stored time
    nearest t0, the infimum at every later stored time must stay above the
    decay profile.  Reports the smallest c3 validating the whole window and
    compares it with the given `c3` (the ledger's).  No positive starting
    level: no verdict.
    """
    _below_band(trajectory, k_truncation)
    mask = trajectory.ball_mask(x0, 2.0 * R0)
    m0 = trajectory.nearest_time_index(t0)
    inf0 = _ball_infimum(trajectory, m0, mask, k_truncation)
    k = inf0 * (1.0 - 1e-12)
    if k <= 0.0:
        return InequalityReport(
            name="decay-of-positivity", lhs=inf0, rhs_core=0.0,
            implied_constant=None, margin=None, degenerate=True, passed=None,
            details={"note": "no positive starting level"},
        )

    t_list = np.arange(m0 + 1, len(trajectory.times))
    if t_list.size == 0:
        return InequalityReport(
            name="decay-of-positivity", lhs=inf0, rhs_core=k,
            implied_constant=None, margin=None, degenerate=True, passed=True,
            details={"note": "window holds no later samples"},
        )
    infs = np.array([_ball_infimum(trajectory, m, mask, k_truncation) for m in t_list])
    times = np.asarray(trajectory.times)[t_list]

    def validates(c3):
        lam = decay_profile(k, times, trajectory.times[m0], R0, c3, trajectory.p)
        return bool(np.all(lam <= infs + 1e-15))

    lo, hi = 1e-6, 1.0
    while not validates(hi):
        hi *= 2.0
        if hi > 1e12:
            return InequalityReport(
                name="decay-of-positivity", lhs=float(infs.min()), rhs_core=k,
                implied_constant=math.inf, margin=None, degenerate=False,
                passed=False,
                details={"note": "no finite c3 validates the window"},
            )
    if validates(lo):
        c3_star = lo
    else:
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if validates(mid):
                hi = mid
            else:
                lo = mid
            if hi - lo <= 1e-12 * hi:
                break
        c3_star = hi
    return InequalityReport(
        name="decay-of-positivity", lhs=float(infs.min()), rhs_core=k,
        implied_constant=c3_star, margin=c3 - c3_star, degenerate=False,
        passed=math.isfinite(c3_star),
        details={
            "smallest_c3": c3_star,
            "ledger_c3": c3,
            "validates_with_ledger_c3": validates(c3),
            "window_samples": int(t_list.size),
            "truncation": k_truncation,
        },
    )


# ---------------------------------------------------------------------------
# Measure alternatives
# ---------------------------------------------------------------------------

def alternative_classifier(
    trajectory: Trajectory,
    params: ModulusParams,
    center: tuple[Sequence[float], float],
    r: float,
    eps1: float,
    kappa: float,
) -> dict:
    """Which measure alternative holds on the short cylinder of radius r
    ending at `center`.

    Shifts w to v = w - inf over the full cylinder, then counts the fraction
    of samples with v >= osc/4 in the tilde cylinder (the quarter-radius
    ball) and compares it with eps1 * omega(r)^{1 + kappa/(kappa-1)}.
    Oscillation below omega(r) short-circuits to the trivial verdict, which
    carries no fraction.
    """
    tilde = cylinder(params, center, r, "tilde")
    full = cylinder(params, center, r, "full")
    omega_r = float(omega(params, r))
    w_all = trajectory.w_fields
    w_lo, w_hi = extrema(w_all, *cylinder_samples(trajectory, full))
    osc = w_hi - w_lo
    out = {"oscillation": osc, "threshold": eps1 * omega_r ** (1.0 + kappa_ratio(kappa))}
    if osc < omega_r:
        return {**out, "classification": "trivial"}

    mask_t, t_idx = cylinder_samples(trajectory, tilde)
    above = sum(int(np.count_nonzero(w_all[m][mask_t] - w_lo >= osc / 4.0)) for m in t_idx)
    fraction = above / (int(mask_t.sum()) * t_idx.size)
    return {**out, "fraction": fraction,
            "classification": "Alt1" if fraction > out["threshold"] else "Alt2"}


# ---------------------------------------------------------------------------
# Headline modulus measurement
# ---------------------------------------------------------------------------

def modulus_acceptance(
    trajectory: Trajectory,
    params: ModulusParams,
    center: tuple[Sequence[float], float],
    max_rungs: int | None = None,
) -> OscillationProfile:
    """Measure oscillation over the dyadic ladder r_i = r0 2^{-i} of full
    cylinders scaled by lam = max{global osc, 1} against the modulus; the
    profile's c_star is the smallest c with osc <= c * omega * lam on every
    rung.

    That constant's refinement stability is judged across runs
    (`studies.run_headline_case`); a single run passes whenever c_star is
    finite.  The ladder stops at `max_rungs` rungs or at the first cylinder
    too small to measure; with fewer than two rungs an EmptyCylinderError
    names the rung that stopped it.  Where the outermost cylinder is deeper
    than the stored times behind t0, r0 shrinks until it fits: omega(r0) =
    L p^{-alpha} does not depend on r0, so that depth scales exactly like
    r0^p and the fit is closed-form.
    """
    space, t0 = center

    lam = max(max(float(u.max()) for u in trajectory.temps)
              - min(float(u.min()) for u in trajectory.temps), 1.0)

    depth0 = cylinder_depth(params, params.r0, "full", lam)
    horizon = max(t0 - trajectory.times[0], 0.0)
    if depth0 > horizon:
        params = replace(params, r0=params.r0 * (0.999 * horizon / depth0) ** (1.0 / params.p))
    if any(c - params.r0 < -1e-9 or c + params.r0 > trajectory.grid.extent + 1e-9
           for c in np.atleast_1d(space)):
        raise ValueError("outermost cylinder must fit inside the domain")

    radii, depths, oscs, omegas, ratios = [], [], [], [], []
    i, stop = 0, ""
    while max_rungs is None or i < max_rungs:
        r_i = params.r0 * 2.0**(-i)
        try:
            cyl_i = cylinder(params, center, r_i, "full", lambda_scale=lam)
            osc_i = oscillation(trajectory, cyl_i)
        except ValueError as err:
            stop = f"; rung {i} (r = {r_i:.4g}): {err}"
            break
        radii.append(r_i)
        depths.append(cyl_i.depth)
        oscs.append(osc_i)
        w_i = omega(params, r_i)
        omegas.append(w_i)
        ratios.append(osc_i / (w_i * lam))
        i += 1

    if len(radii) < 2:
        raise EmptyCylinderError(f"fewer than two resolvable ladder rungs{stop}")

    alpha_hat = c_hat = residual = None
    flags: tuple[str, ...] = ()
    if len(radii) >= 4 and all(o > 0 for o in oscs):
        try:
            alpha_hat, c_hat, residual, flags = fit_modulus(
                list(zip(radii, oscs)), params.p, params.r0)
        except ValueError:
            pass

    return OscillationProfile(
        radii=radii, depths=depths, oscillations=oscs, omegas=omegas,
        ratios=ratios, lambda_scale=lam, alpha_hat=alpha_hat, c_hat=c_hat,
        fit_residual=residual, flags=flags,
    )


def epsilon_convergence_study(
    runs: Sequence[Trajectory],
    params: ModulusParams,
    center: tuple[Sequence[float], float],
) -> dict:
    """The modulus measurement along solved runs of a decreasing
    mollification ladder.

    Checks the ladder of the runs' scenarios is admissible (eps >= 2 h
    Lambda), measures max-norm Cauchy gaps between consecutive solutions on
    a fixed interior cylinder (radius r0/2, the full-flavor depth clipped to
    half the horizon), and fits the per-rung oscillation linearly in eps.
    """
    if len(runs) == 0:
        raise ValueError("need at least one run")
    scenarios = [run.scenario for run in runs]
    eps_ladder = [sc.graph.eps for sc in scenarios]
    if any(e2 >= e1 for e1, e2 in zip(eps_ladder, eps_ladder[1:])):
        raise ValueError("eps ladder must be strictly decreasing")
    for sc in scenarios:
        if sc.grid != scenarios[0].grid:
            raise ValueError("eps study requires a common grid")
        if sc.graph.eps < 2.0 * sc.grid.h * sc.certified_lambda():
            raise ValueError("eps below the grid-resolvable width 2*h*Lambda")

    profiles = [modulus_acceptance(tr, params, center) for tr in runs]

    out: dict = {
        "eps": eps_ladder,
        "c_star": [prof.c_star for prof in profiles],
        "alpha_hat": [prof.alpha_hat for prof in profiles],
    }
    out["degenerate"] = len(runs) == 1
    if out["degenerate"]:
        return out

    r_c = params.r0 / 2.0
    mask = runs[0].ball_mask(center[0], r_c)
    span = runs[0].times[-1] - runs[0].times[0]
    t_lo = center[1] - min(cylinder_depth(params, r_c, "full"), 0.5 * span)
    gaps = [max(float(np.max(np.abs(a.temps[m][mask]
                                    - b.temps[b.nearest_time_index(a.times[m])][mask])))
                for m in a.time_indices(t_lo, center[1]))
            for a, b in zip(runs, runs[1:])]
    out["cauchy_gaps"] = gaps
    out["cauchy_decreasing"] = all(g2 <= g1 * (1.0 + 1e-9) for g1, g2 in zip(gaps, gaps[1:]))

    # per-rung linear fit of oscillation against eps
    n_rungs = min(len(p.radii) for p in profiles)
    slopes, intercepts = [], []
    eps_arr = np.asarray(eps_ladder)
    design = np.column_stack([np.ones_like(eps_arr), eps_arr])
    for i in range(n_rungs):
        y = np.array([p.oscillations[i] for p in profiles])
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        intercepts.append(float(coef[0]))
        slopes.append(float(coef[1]))
    out["rung_radii"] = profiles[0].radii[:n_rungs]
    out["eps_slopes"] = slopes
    out["eps_intercepts"] = intercepts
    out["mean_eps_slope"] = float(np.mean(slopes))
    lam = max(prof.lambda_scale for prof in profiles)
    finest = profiles[-1].c_star
    out["intercepts_consistent"] = all(
        b <= 1.5 * finest * om * lam + 1e-9
        for b, om in zip(intercepts, profiles[0].omegas[:n_rungs])
    )
    return out
