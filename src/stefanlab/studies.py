"""Reusable experiment drivers: the check table `stefanlab run` reads, the
fixed scenario family for the inequality harness, the headline modulus
measurements, and the mollification-width study.  Shared by the CLI, the
acceptance tests and the scripts so all run exactly the same experiments.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from . import presets, verify
from .constants import ConstantsLedger, fix_constants
from .geometry import ModulusParams, NotMeasurable, cylinder, cylinder_samples
from .graphs import RegularizedGraph
from .solver import (DtPolicy, Grid, InitialData, Scenario, SpaceTimeBump, Trajectory,
                     conservation_defect, run_simulation, weak_form_residual)
from .verify import InequalityReport


def measurement_params(ledger: ConstantsLedger, r0: float) -> ModulusParams:
    """Modulus parameters used for measurement on a run with this ledger:
    its p, alpha and M.

    The prefactor is the smallest admissible one, L = Lambda * p^alpha, so
    omega(r0) = Lambda and the ladder starts right at r0.  What gets measured
    is the multiplicative constant c* of the oscillation bound.  At p = 2,
    c* L does not depend on L.  For p > 2 it does: L enters the cylinder
    depths through omega^{2-p}, so a larger L gives shallower cylinders and
    another ladder.  On the coarse 1d-p3 headline case, L times 1, 2 and 4
    gave c* times that factor of 0.1035, 0.0763 and 0.0751, over 4, 3 and 2
    rungs.
    """
    return ModulusParams(p=ledger.p, alpha=ledger.alpha,
                         L=ledger.Lambda * ledger.p**ledger.alpha, M=ledger.M, r0=r0)


def default_ledger(scenario: Scenario, **choices) -> ConstantsLedger:
    """The constants ledger of `scenario`'s n, p and certified Lambda, with
    the free constants `choices` passed to `fix_constants`."""
    return fix_constants(n=scenario.grid.dim, p=scenario.p,
                         Lambda=scenario.certified_lambda(), **choices)


# ---------------------------------------------------------------------------
# The check table: `stefanlab run` and the inequality family run these
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckSite:
    """Where the checks look on one trajectory."""

    params: ModulusParams   # r0: the energy, weak-form, classifier and top ladder radius
    ledger: ConstantsLedger
    center: tuple[float, ...]
    R0: float               # the weak Harnack and decay ball radius
    t_start: float          # and their start time
    region: tuple[tuple[float, ...], tuple[float, ...]]  # holds the truncation test functions
    seed: int | None = None  # draws them; None: a fixed evenly spaced family
    ladder_depth: int | None = None  # the most modulus rungs; None: no cap


def check_site(traj: Trajectory, params: ModulusParams, ledger: ConstantsLedger, center, *,
               R0: float | None = None, t_start: float | None = None, region=None,
               **rest) -> CheckSite:
    """The site of the checks on `traj`.  By default R0 is 0.9/8 of the
    extent, so that the weak Harnack check's ball of radius 4 R0 fits
    around the domain centre; `t_start` is the stored time a tenth of the
    way in, not the first unless it is the only one; `region` keeps 0.15 of
    the extent from every side."""
    grid, n = traj.grid, len(traj.times)
    margin = 0.15 * grid.extent
    return CheckSite(
        params, ledger, tuple(center),
        R0=grid.extent / 8.0 * 0.9 if R0 is None else R0,
        t_start=traj.times[min(max(1, n // 10), n - 1)] if t_start is None else t_start,
        region=((margin,) * grid.dim, (grid.extent - margin,) * grid.dim)
        if region is None else region, **rest)


def _truncation_level(traj: Trajectory) -> float:
    """a - 1.5 eps, below the jump band (a - eps, a + eps)."""
    return traj.graph.a - 1.5 * traj.graph.eps


def _entry(rep: InequalityReport, *fields: str) -> tuple[dict, InequalityReport]:
    """The summary entry of a report: its verdict and `fields`."""
    return {"pass": bool(rep.passed), **{f: getattr(rep, f) for f in fields}}, rep


def _conservation(traj: Trajectory, site: CheckSite):
    defect = conservation_defect(traj)
    if traj.scenario.boundary.kind != "zero-flux":  # boundary flux moves the total
        return {"gate": False, "defect": defect}, None
    return {"pass": bool(defect <= 1e-10), "defect": defect}, None


def _weakform(traj: Trajectory, site: CheckSite):
    """The scheme's weak form (e in the time term, u in the flux) against a
    space-time bump at the site.

    Step m's residual r_m = V (e_m - e_{m-1}) - dt_m div F(u_m), zero at the
    Dirichlet nodes, is at most rho_m V at each node, rho_m its
    `StepDiag.residual`.  With every step stored and phi_m zero at the
    Dirichlet nodes, summation by parts in space and time makes
    R = sum_m sum_x r_m phi_m, so |R| <= sum_m rho_m sum_x V |phi_m|, and
    sum_x V |phi_m| = |T(t_m)| sum_x V |S| for phi = T(t) S(x).
    Adding up R's 2M + 1 terms over M steps errs by at most 2M u scale (u
    the unit roundoff), so the bound adds (2M + 1) u scale.  The rounding
    inside each term and in r_m is of the size u times their summands, the
    level at which Newton stops and rho_m is measured.  With steps left
    unstored R also holds their consistency defect: a diagnostic, no
    verdict.  NotMeasurable when the run has no time interval (t_end = 0)
    or the bump is nonzero on a Dirichlet node."""
    times, diags = traj.times, traj.diagnostics
    if len(times) < 2:
        raise NotMeasurable("no time interval")
    bump = SpaceTimeBump(center=site.center, width=0.8 * site.params.r0,
                         t_center=0.5 * times[-1], t_width=0.6 * times[-1])
    space = bump.value(traj.grid.meshgrid(), bump.t_center)   # S: T(t_center) = 1
    ramp = np.abs(bump._time_part(np.asarray(times[1:])))   # |T(t_m)|, m >= 1
    vol, _, pins, _ = traj.scenario._cells
    if pins is not None and np.any(space[pins]) and np.any(ramp):
        raise NotMeasurable("test function must vanish at the Dirichlet nodes")
    space_mass = float(np.sum(np.abs(space) * vol))
    [[(res, scale)]] = weak_form_residual(traj, traj.enthalpies, traj.temps,
                                          [lambda f: f], [bump.value])
    if len(diags) != len(times) - 1:
        return {"gate": False, "residual": res}, None
    bound = (float(sum(d.residual * r for d, r in zip(diags, ramp))) * space_mass
             + (2 * len(diags) + 1) * 2.0**-53 * scale)
    return {"pass": abs(res) <= bound, "residual": res, "margin": bound - abs(res)}, None


def _caccioppoli(traj: Trajectory, site: CheckSite):
    """The energy estimate on the full intrinsic cylinder of radius r0
    ending at the last computed time, at the 30% quantile of w inside it.

    The estimate holds on any space-time cylinder, so a cylinder deeper than
    0.8 of the computed horizon is clamped to that depth rather than given a
    re-derived radius.  A run of no step has no depth to clamp to."""
    horizon = traj.times[-1] - traj.times[0]
    if horizon <= 0.0:
        raise NotMeasurable("no time interval")
    cyl = cylinder(site.params, (site.center, traj.times[-1]), site.params.r0, "full")
    cyl = replace(cyl, depth=min(cyl.depth, 0.8 * horizon))
    mask, t_idx = cylinder_samples(traj, cyl)
    ws = np.concatenate([traj.w_fields[m][mask] for m in t_idx])
    return _entry(verify.caccioppoli_check(traj, float(np.quantile(ws, 0.3)), cyl),
                  "degenerate", "implied_constant")


def _truncation(traj: Trajectory, site: CheckSite):
    return _entry(verify.truncation_supersolution_check(
        traj, _truncation_level(traj), site.region, rng_seed=site.seed), "margin")


def _weak_harnack(traj: Trajectory, site: CheckSite):
    return _entry(verify.weak_harnack_check(
        traj, _truncation_level(traj), site.center, site.R0, t1=site.t_start,
        c1=site.ledger.c1), "degenerate", "implied_constant")


def _decay(traj: Trajectory, site: CheckSite):
    return _entry(verify.decay_of_positivity_check(
        traj, site.center, site.R0, t0=site.t_start, c3=site.ledger.c3,
        k_truncation=_truncation_level(traj)), "degenerate", "implied_constant")


def _classifier(traj: Trajectory, site: CheckSite):
    # Which measure alternative holds is a finding, not a verdict.
    res = verify.alternative_classifier(traj, site.params, (site.center, traj.times[-1]),
                                        site.params.r0, site.ledger.eps1, site.ledger.kappa)
    return {"gate": False, **{k: res[k] for k in ("classification", "oscillation", "fraction")
                              if k in res}}, None


def _modulus(traj: Trajectory, site: CheckSite):
    # "profile": the measured ladder, which `stefanlab run` writes out
    profile = verify.modulus_acceptance(traj, site.params, (site.center, traj.times[-1]),
                                        max_rungs=site.ladder_depth)
    return {"pass": math.isfinite(profile.c_star), "c_star": profile.c_star,
            "alpha_hat": profile.alpha_hat, "profile": profile}, None


def solver_summary(traj: Trajectory) -> dict:
    """Deterministic totals of the per-step solver diagnostics: the
    `solver` block of `summary.json` and the numbers of the `solver` check."""
    diags = traj.diagnostics
    return {
        "steps": len(diags),
        "newton_iterations": sum(d.iterations for d in diags),
        "newton_iterations_max": max((d.iterations for d in diags), default=0),
        "linear_iterations": sum(d.linear_iterations for d in diags),
        "backtracks": sum(d.backtracks for d in diags),
        "fallbacks": sum(d.used_fallback for d in diags),
        "energy_increases": sum(not d.energy_decreased for d in diags),
        # A returned step has residual <= tolerance, so residual > 0 implies
        # tolerance > 0.
        "worst_residual_ratio": max((d.residual / d.tolerance if d.residual > 0 else 0.0
                                     for d in diags), default=0.0),
    }


def _solver(traj: Trajectory, site: CheckSite):
    # The solver must not degrade silently: a missed linear-solve target, a
    # rising step energy or a residual over its tolerance fails the run.
    s = solver_summary(traj)
    health = {k: s[k] for k in ("fallbacks", "energy_increases", "worst_residual_ratio")}
    return {"pass": not (s["fallbacks"] or s["energy_increases"])
            and s["worst_residual_ratio"] <= 1.0, **health}, None


class Check(NamedTuple):
    label: str
    # (trajectory, site) -> (summary entry, report or None), or NotMeasurable;
    # an entry with "gate": False has no "pass" and is no verdict
    run: Callable[[Trajectory, CheckSite], tuple[dict, InequalityReport | None]]


CHECKS: dict[str, Check] = {
    "conservation": Check("enthalpy integral drift under zero-flux boundaries", _conservation),
    "weakform": Check("the scheme's discrete weak form against a test bump, within the "
                      "step residuals", _weakform),
    "caccioppoli": Check("energy estimate for truncations against cutoff terms", _caccioppoli),
    "truncation": Check("truncations below the jump act as super/subsolutions", _truncation),
    "weak-harnack": Check("average at one time vs waiting-time infimum (p > 2)", _weak_harnack),
    "decay": Check("positivity floor along the decay profile", _decay),
    "classifier": Check("measure dichotomy for the level set above a quarter oscillation",
                        _classifier),
    "modulus": Check("oscillation ladder against the log-power modulus", _modulus),
    "solver": Check("no linear-solve fallback, step energy increase or residual over tolerance",
                    _solver),
}


# ---------------------------------------------------------------------------
# Fixed scenario family for the inequality harness
# ---------------------------------------------------------------------------

@dataclass
class FamilyCase:
    scenario: Scenario
    run_harnack: bool
    label: str


def refined(nodes: int, dt: float, level: int) -> tuple[int, float]:
    """Nodes per axis and step at `level` of the resolution ladder whose
    level 0 is (nodes, dt): each level halves h and dt."""
    return (nodes - 1) * 2**level + 1, dt / 2**level


def inequality_family(level: int = 0) -> list[FamilyCase]:
    """Twenty mixed 1D scenarios (p in {2,3}, varied data and latent heat)
    at `level` of the ladder from 61 nodes and dt 2.5e-4, so implied
    constants can be compared across refinements.
    """
    nodes, dt = refined(61, 2.5e-4, level)
    cases: list[FamilyCase] = []
    for p in (2.0, 3.0):
        for lh in (0.4, 1.0):
            common = dict(p=p, nodes=nodes, dt=dt, latent_heat=lh, t_end=0.05)
            ramp = Scenario(grid=Grid(1, nodes), p=p,
                            graph=RegularizedGraph(a=0.5, latent_heat=lh, eps=0.05),
                            initial=InitialData.of("ramp", lo=0.05, hi=0.95), t_end=0.05,
                            dt=DtPolicy(value=dt), label=f"ramp-p{p:g}")
            for name, scenario, run_harnack in (
                    ("bump-a", presets.positive_bump_1d(**common), p > 2.0),
                    ("bump-b", presets.positive_bump_1d(**common, base=0.3, amplitude=0.55,
                                                        width=0.3, jump=0.7), p > 2.0),
                    ("sine-a", presets.twophase_1d(**common, eps=0.04), False),
                    ("sine-b", presets.twophase_1d(**common, eps=0.06, periods=3.0, tilt=0.0,
                                                   amplitude=0.4), False),
                    ("ramp", ramp, False)):
                cases.append(FamilyCase(scenario, run_harnack, f"{name}-p{p:g}-lh{lh:g}"))
    return cases


def run_family_checks(case: FamilyCase) -> dict:
    """Solve one family case and run the energy and truncation checks, and
    the weak Harnack and decay checks where `case.run_harnack` is set; a
    check that cannot measure has no entry."""
    sc = case.scenario
    traj = run_simulation(sc)
    ledger = default_ledger(sc)
    site = check_site(traj, measurement_params(ledger, r0=0.25), ledger, (0.5,),
                      R0=0.1, t_start=0.004, region=((0.15,), (0.85,)))
    out: dict = {"label": case.label, "resolution": traj.resolution_label()}
    harnack = ("weak-harnack", "decay") if case.run_harnack else ()
    for name in ("caccioppoli", "truncation", *harnack):
        try:
            out[name] = CHECKS[name].run(traj, site)[1]
        except NotMeasurable:
            pass
    return out


def family_stability_table() -> list[dict]:
    """Run the family at two resolutions and tabulate implied constants."""
    rows = []
    for case_c, case_f in zip(inequality_family(0), inequality_family(1)):
        res_c, res_f = run_family_checks(case_c), run_family_checks(case_f)
        row = {"label": case_c.label}
        for name in ("caccioppoli", "weak-harnack", "decay"):
            if name in res_c and name in res_f:
                row[name] = (res_c[name].implied_constant, res_f[name].implied_constant)
        row["truncation_margins"] = (res_c["truncation"].margin, res_f["truncation"].margin)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Headline modulus study
# ---------------------------------------------------------------------------

class HeadlineCase(NamedTuple):
    preset: Callable[..., Scenario]
    params: dict        # the preset's keywords besides nodes and dt
    nodes: int          # per axis, at level 0
    dt: float           # at level 0
    r0: float           # the ladder's top radius


HEADLINE_CASES: dict[str, HeadlineCase] = {
    "1d-p2": HeadlineCase(presets.twophase_1d, {"p": 2.0}, 81, 2.5e-4, 0.4),
    "1d-p3": HeadlineCase(presets.twophase_1d, {"p": 3.0, "t_end": 0.22}, 81, 2.5e-4, 0.4),
    "2d-p2": HeadlineCase(presets.twophase_2d, {"p": 2.0}, 29, 1e-3, 0.35),
    "2d-p3": HeadlineCase(presets.twophase_2d, {"p": 3.0, "t_end": 0.2}, 29, 5e-4, 0.35),
}


def headline_case(name: str, level: int = 0) -> Scenario:
    """The scenario of headline case `name` at `level` of its ladder."""
    if name not in HEADLINE_CASES:
        raise ValueError(f"unknown headline case {name!r}")
    case = HEADLINE_CASES[name]
    nodes, dt = refined(case.nodes, case.dt, level)
    return case.preset(**case.params, nodes=nodes, dt=dt)


def run_headline_case(name: str) -> dict:
    """Measure the modulus constant at levels 0 and 1 (coarse and fine)."""
    scenarios = [headline_case(name, level) for level in (0, 1)]
    r0 = HEADLINE_CASES[name].r0
    profiles = []
    for sc in scenarios:
        traj = run_simulation(sc)
        params = measurement_params(default_ledger(sc), r0=r0)
        center = ((0.5,) * sc.grid.dim, traj.times[-1])
        # the fine run measures as many rungs as the coarse one
        profiles.append(verify.modulus_acceptance(
            traj, params, center, max_rungs=len(profiles[0].radii) if profiles else None))
    prof_c, prof_f = profiles
    ratio = prof_f.c_star / prof_c.c_star if prof_c.c_star > 0 else math.nan
    return {
        "name": name,
        "c_star_coarse": prof_c.c_star,
        "c_star_fine": prof_f.c_star,
        "stability_ratio": ratio,
        "stable": 0.5 <= ratio <= 2.0 if math.isfinite(ratio) else False,
        "alpha_hat_coarse": prof_c.alpha_hat,
        "alpha_hat_fine": prof_f.alpha_hat,
        "alpha_target": params.alpha,
        "profile_coarse": prof_c,
        "profile_fine": prof_f,
    }


def run_epsilon_study(eps_ladder=(0.2, 0.1, 0.05), nodes: int = 201) -> dict:
    """Mollification-width ladder for the 1D p=2 two-phase preset."""
    runs = [run_simulation(presets.twophase_1d(p=2.0, nodes=nodes, dt=2.5e-4, eps=e))
            for e in eps_ladder]
    params = measurement_params(default_ledger(runs[0].scenario), r0=0.4)
    return verify.epsilon_convergence_study(runs, params, ((0.5,), runs[0].scenario.t_end))
