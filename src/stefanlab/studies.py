"""Reusable experiment drivers: the fixed scenario family for the inequality
harness, the headline modulus measurements, and the mollification-width
study.  Shared by the acceptance tests and the scripts so both run exactly
the same experiments.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import presets, verify
from .constants import ConstantsLedger, fix_constants
from .geometry import ModulusParams, alpha_kappa_of, cylinder
from .graphs import RegularizedGraph
from .solver import DtPolicy, Grid, InitialData, Scenario, Trajectory, run_simulation
from .verify import CutoffSpec


def measurement_params(scenario: Scenario, r0: float,
                       alpha_choice_if_p_eq_n: float = 0.45) -> ModulusParams:
    """Modulus parameters used for measurement on a solved scenario.

    The prefactor is the smallest admissible one, L = Lambda * p^alpha, so
    omega(r0) = Lambda and the ladder starts right at r0; the multiplicative
    constant of the oscillation bound is what gets measured, so the gauge of
    L is immaterial.
    """
    n = scenario.grid.dim
    alpha, kappa = alpha_kappa_of(n, scenario.p, alpha_choice_if_p_eq_n)
    lam = scenario.certified_lambda()
    ledger = default_ledger(scenario)
    L = lam * scenario.p**alpha
    return ModulusParams(n=n, p=scenario.p, alpha=alpha, kappa=kappa,
                         L=L, M=ledger.M, r0=r0)


def default_ledger(scenario: Scenario) -> ConstantsLedger:
    return fix_constants(
        n=scenario.grid.dim,
        p=scenario.p,
        Lambda=scenario.certified_lambda(),
    )


def caccioppoli_at(traj: Trajectory, params: ModulusParams,
                   center_space: tuple[float, ...]) -> verify.InequalityReport:
    """The energy estimate on the full intrinsic cylinder of radius params.r0
    ending at the last computed time, at the 30% quantile of w inside it.

    The estimate holds on any space-time cylinder, so a cylinder deeper than
    0.8 of the computed horizon is clamped to that depth rather than given a
    re-derived radius.
    """
    cyl = cylinder(params, (center_space, traj.times[-1]), params.r0, "full")
    cyl = replace(cyl, depth=min(cyl.depth, 0.8 * (traj.times[-1] - traj.times[0])))
    mask = traj.ball_mask(cyl.center_space, cyl.ball_radius)
    ws = np.concatenate([traj.w_fields()[m][mask] for m in traj.time_indices(*cyl.time_window)])
    return verify.caccioppoli_check(traj, traj.graph, float(np.quantile(ws, 0.3)),
                                    CutoffSpec(), cyl)


# ---------------------------------------------------------------------------
# Fixed scenario family for the inequality harness
# ---------------------------------------------------------------------------

@dataclass
class FamilyCase:
    scenario: Scenario
    run_harnack: bool
    label: str


def inequality_family(refine: bool = False) -> list[FamilyCase]:
    """Twenty mixed 1D scenarios (p in {2,3}, varied data and latent heat).

    With refine=True every scenario is re-posed at doubled spatial and halved
    temporal resolution so implied constants can be compared across one
    refinement.
    """
    nodes = 121 if refine else 61
    dt = 1.25e-4 if refine else 2.5e-4
    cases: list[FamilyCase] = []
    for p in (2.0, 3.0):
        for lh in (0.4, 1.0):
            cases.append(FamilyCase(
                presets.positive_bump_1d(p=p, nodes=nodes, dt=dt, latent_heat=lh,
                                         t_end=0.05),
                run_harnack=(p > 2.0),
                label=f"bump-a-p{p:g}-lh{lh:g}",
            ))
            cases.append(FamilyCase(
                presets.positive_bump_1d(p=p, nodes=nodes, dt=dt, latent_heat=lh,
                                         t_end=0.05, base=0.3, amplitude=0.55,
                                         width=0.3, jump=0.7),
                run_harnack=(p > 2.0),
                label=f"bump-b-p{p:g}-lh{lh:g}",
            ))
            cases.append(FamilyCase(
                presets.twophase_1d(p=p, nodes=nodes, dt=dt, latent_heat=lh,
                                    t_end=0.05, eps=0.04),
                run_harnack=False,
                label=f"sine-a-p{p:g}-lh{lh:g}",
            ))
            cases.append(FamilyCase(
                presets.twophase_1d(p=p, nodes=nodes, dt=dt, latent_heat=lh,
                                    t_end=0.05, eps=0.06, periods=3.0, tilt=0.0,
                                    amplitude=0.4),
                run_harnack=False,
                label=f"sine-b-p{p:g}-lh{lh:g}",
            ))
            cases.append(FamilyCase(
                Scenario(
                    grid=Grid(extents=(1.0,), nodes=(nodes,)),
                    p=p,
                    graph=RegularizedGraph(a=0.5, latent_heat=lh, eps=0.05),
                    initial=InitialData.of("ramp", lo=0.05, hi=0.95),
                    t_end=0.05,
                    dt=DtPolicy(value=dt),
                    label=f"ramp-p{p:g}",
                ),
                run_harnack=False,
                label=f"ramp-p{p:g}-lh{lh:g}",
            ))
    return cases


def run_family_checks(case: FamilyCase, ledger: ConstantsLedger | None = None) -> dict:
    """Solve one family case and run every applicable inequality check."""
    sc = case.scenario
    ledger = ledger or default_ledger(sc)
    traj = run_simulation(sc)
    params = measurement_params(sc, r0=0.25)
    out: dict = {"label": case.label, "resolution": traj.resolution_label()}
    out["caccioppoli"] = caccioppoli_at(traj, params, (0.5,) * sc.grid.dim)

    g = traj.graph
    k_trunc = g.a - 1.5 * g.eps
    region = (tuple(0.15 for _ in range(sc.grid.dim)),
              tuple(0.85 for _ in range(sc.grid.dim)))
    out["truncation"] = verify.truncation_supersolution_check(
        traj, g, k_trunc, g.a, g.eps, region)

    if case.run_harnack:
        out["weak_harnack"] = verify.weak_harnack_check(
            traj, k_trunc, (0.5,), R0=0.1, t1=0.004, T=traj.times[-1],
            c1=ledger.c1)
        mask = traj.ball_mask((0.5,), 0.2)
        m0 = traj.nearest_time_index(0.004)
        v0 = np.minimum(traj.w_fields()[m0], k_trunc)
        k_start = float(v0[mask].min()) * (1.0 - 1e-12)
        if k_start > 0:
            out["decay"] = verify.decay_of_positivity_check(
                traj, k_start, (0.5,), R0=0.1, t0=0.004,
                T=traj.times[-1] - 0.004, ledger=ledger, k_truncation=k_trunc)
    return out


def family_stability_table() -> list[dict]:
    """Run the family at two resolutions and tabulate implied constants."""
    rows = []
    coarse = inequality_family(refine=False)
    fine = inequality_family(refine=True)
    for case_c, case_f in zip(coarse, fine):
        res_c = run_family_checks(case_c)
        res_f = run_family_checks(case_f)
        row = {"label": case_c.label}
        for name in ("caccioppoli", "weak_harnack", "decay"):
            if name in res_c and name in res_f:
                a = res_c[name].implied_constant
                b = res_f[name].implied_constant
                row[name] = (a, b)
        row["truncation_margins"] = (res_c["truncation"].margin,
                                     res_f["truncation"].margin)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Headline modulus study
# ---------------------------------------------------------------------------

def headline_case(name: str, refine: bool = False) -> Scenario:
    if name == "1d-p2":
        return presets.twophase_1d(p=2.0, nodes=161 if refine else 81,
                                   dt=1.25e-4 if refine else 2.5e-4)
    if name == "1d-p3":
        return presets.twophase_1d(p=3.0, nodes=161 if refine else 81,
                                   dt=1.25e-4 if refine else 2.5e-4,
                                   t_end=0.22)
    if name == "2d-p2":
        return presets.twophase_2d(p=2.0, nodes=57 if refine else 29,
                                   dt=5e-4 if refine else 1e-3)
    if name == "2d-p3":
        return presets.twophase_2d(p=3.0, nodes=57 if refine else 29,
                                   dt=2.5e-4 if refine else 5e-4, t_end=0.2)
    raise ValueError(f"unknown headline case {name!r}")


def headline_r0(name: str) -> float:
    return 0.4 if name.startswith("1d") else 0.35


def run_headline_case(name: str) -> dict:
    """Measure the modulus constant at base and refined resolution."""
    sc_c = headline_case(name, refine=False)
    sc_f = headline_case(name, refine=True)
    r0 = headline_r0(name)
    out = {"name": name}
    results = []
    rungs = None
    for sc in (sc_c, sc_f):
        traj = run_simulation(sc)
        params = measurement_params(sc, r0=r0)
        ledger = default_ledger(sc)
        center = ((0.5,) * sc.grid.dim, traj.times[-1])
        profile, verdict = verify.modulus_acceptance(
            traj, params, ledger, center, max_rungs=rungs)
        if rungs is None:
            rungs = verdict["rungs"]
        results.append((profile, verdict))
    (prof_c, verd_c), (prof_f, verd_f) = results
    ratio = verd_f["c_star"] / verd_c["c_star"] if verd_c["c_star"] > 0 else math.nan
    out.update({
        "c_star_coarse": verd_c["c_star"],
        "c_star_fine": verd_f["c_star"],
        "stability_ratio": ratio,
        "stable": 0.5 <= ratio <= 2.0 if math.isfinite(ratio) else False,
        "alpha_hat_coarse": verd_c["alpha_hat"],
        "alpha_hat_fine": verd_f["alpha_hat"],
        "alpha_target": verd_c["alpha_target"],
        "profile_coarse": prof_c,
        "profile_fine": prof_f,
    })
    return out


def run_epsilon_study(eps_ladder=(0.2, 0.1, 0.05), nodes: int = 201) -> dict:
    """Mollification-width ladder for the 1D p=2 two-phase preset."""
    scenarios = [presets.twophase_1d(p=2.0, nodes=nodes, dt=2.5e-4, eps=e)
                 for e in eps_ladder]
    sc0 = scenarios[0]
    params = measurement_params(sc0, r0=0.4)
    ledger = default_ledger(sc0)
    center = ((0.5,), sc0.t_end)
    return verify.epsilon_convergence_study(scenarios, params, ledger, center)
