"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here; nothing is deferred to later calibration.
Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from stefanlab import presets, solver, studies, verify
from stefanlab.constants import certify_all_pairs, fix_constants
from stefanlab.geometry import ModulusParams, alpha_kappa_of, cylinder_depth, kappa_ratio
from stefanlab.solver import InitialData, run_simulation
from tests.test_solver import front_position, neumann_front_factor


def _report(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# Criterion 1: exponent arithmetic
# ---------------------------------------------------------------------------

def test_criterion_1_exponent_arithmetic():
    worst = 0.0
    for n in range(2, 6):
        for p in range(2, 6):
            alpha, kappa = alpha_kappa_of(n, float(p))
            if p < n:
                assert alpha == p / (n + p)
                assert kappa == n / (n - p)
            elif p > n:
                assert alpha == 0.5 and math.isinf(kappa)
            else:
                assert 0.0 < alpha < 0.5
            rel = abs((1.0 + kappa_ratio(kappa)) * alpha - 1.0)
            worst = max(worst, rel)
    alpha, kappa = alpha_kappa_of(3, 2.0)
    assert alpha == pytest.approx(0.4, abs=0) and kappa == pytest.approx(3.0, abs=0)
    _report("criterion 1 (exponent arithmetic)", worst <= 1e-13,
            f"worst relation error {worst:.2e}")


# ---------------------------------------------------------------------------
# Criterion 2: modulus properties over 10^4 random draws
# ---------------------------------------------------------------------------

def test_criterion_2_modulus_properties():
    rng = np.random.default_rng(20260809)
    n_draws = 10_000
    alpha = rng.uniform(0.05, 0.5, n_draws)
    p = rng.uniform(2.0, 5.0, n_draws)
    Lambda = rng.uniform(1.0, 4.0, n_draws)
    theta = rng.uniform(0.002, 0.99, n_draws)
    r0 = rng.uniform(0.05, 20.0, n_draws)
    M = rng.uniform(2.0, 8.0, n_draws)
    L = np.maximum((32.0 * alpha * math.log(32.0) / theta) ** alpha,
                   2.0 * p**alpha * Lambda)

    # log-depth samples y = ln(r0/rho) on a shared ladder per draw
    y = np.linspace(0.0, 12.0, 9)[None, :]
    w = L[:, None] * (p[:, None] + y) ** (-alpha[:, None])

    violations = 0
    # omega increasing in rho means decreasing in depth y
    violations += int(np.any(np.diff(w, axis=1) >= 0.0))
    # concavity in rho via second differences on a uniform rho grid
    rho = r0[:, None] * np.linspace(0.02, 1.0, 24)[None, :]
    w_rho = L[:, None] * (p[:, None] + np.log(r0[:, None] / rho)) ** (-alpha[:, None])
    d2 = np.diff(w_rho, 2, axis=1)
    violations += int(np.any(d2 > 1e-12 * np.max(w_rho)))
    # omega(r0) >= Lambda
    violations += int(np.any(w_rho[:, -1] < Lambda * (1.0 - 1e-13)))
    # derivative bound omega' rho / omega <= alpha / p on sampled rho
    slope = alpha[:, None] / (p[:, None] + np.log(r0[:, None] / rho))
    violations += int(np.any(slope > alpha[:, None] / p[:, None] * (1.0 + 1e-12)))
    # doubling: omega(rho2)/omega(rho1) <= (rho2/rho1)^{alpha/p}
    rho1 = rho[:, :-1]
    rho2 = rho[:, 1:]
    lhs = w_rho[:, 1:] / w_rho[:, :-1]
    rhs = (rho2 / rho1) ** (alpha[:, None] / p[:, None])
    violations += int(np.any(lhs > rhs * (1.0 + 1e-12)))

    # cylinder nestedness and 32-fold depth contraction per draw
    def depth(kind, rr, i):
        pr = ModulusParams(p=float(p[i]), alpha=float(alpha[i]), L=float(L[i]),
                           M=float(M[i]), r0=float(r0[i]))
        return cylinder_depth(pr, rr, kind)

    idx = rng.integers(0, n_draws, 300)
    for i in idx:
        r_big = float(r0[i]) * float(rng.uniform(0.05, 1.0))
        r_small = r_big * float(rng.uniform(0.05, 1.0))
        for kind in ("tilde", "full"):
            if depth(kind, r_small, i) > depth(kind, r_big, i) * (1.0 + 1e-12):
                violations += 1
        if depth("full", r_big / 32.0, i) > depth("full", r_big, i) / 4.0:
            violations += 1

    _report("criterion 2 (modulus properties, 10^4 draws)", violations == 0,
            f"{violations} violations")


# ---------------------------------------------------------------------------
# Criterion 3: induction certifier over a parameter grid
# ---------------------------------------------------------------------------

def test_criterion_3_induction_certifier():
    import dataclasses

    grid_points = []
    for n in (2, 3, 4, 5):
        for p in (2.0, 2.5, 3.0, 4.0, 5.0):
            for Lambda in (1.0, 2.0):
                for theta in (0.02, 0.2, 0.8):
                    grid_points.append((n, p, Lambda, theta))
    assert len(grid_points) >= 100

    failures = []
    worst_slack = math.inf
    for n, p, Lambda, theta in grid_points:
        led = fix_constants(n=n, p=p, Lambda=Lambda, theta=theta)
        params = led.modulus_params(r0=1.0)
        agg = certify_all_pairs(params, led, j_max=30)
        worst_slack = min(worst_slack, agg["worst_product_slack"])
        if not agg["passed"]:
            failures.append((n, p, Lambda, theta))
    ok_grid = not failures

    # spot check one point in full
    led = fix_constants(n=3, p=2.0, Lambda=1.0, theta=0.01)
    rep = certify_all_pairs(led.modulus_params(r0=1.0), led, j_max=20)
    ok_spot = rep["passed"] and rep["log_bound_check"]

    # counterexample: L halved below its formula value must fail somewhere
    broken = 0
    for n, p, Lambda, theta in grid_points:
        led = fix_constants(n=n, p=p, Lambda=Lambda, theta=theta)
        params = dataclasses.replace(led.modulus_params(r0=1.0), L=led.L / 2.0)
        if not certify_all_pairs(params, led, j_max=30)["passed"]:
            broken += 1
    ok_counter = broken >= 1

    _report("criterion 3 (induction certifier)", ok_grid and ok_spot and ok_counter,
            f"{len(grid_points)} grid points, worst product slack {worst_slack:.2e}, "
            f"{broken} halved-L failures")


# ---------------------------------------------------------------------------
# Criterion 4: solver correctness
# ---------------------------------------------------------------------------

def test_criterion_4a_melting_front():
    sc = presets.melting_front_1d(nodes=400)
    traj = run_simulation(sc)
    lam = neumann_front_factor(1.0, sc.graph.a, 0.0, sc.graph.latent_heat)
    x = traj.grid.axes()[0]
    s_num = front_position(traj.temps[-1], x, sc.graph.a)
    s_exact = 2.0 * lam * math.sqrt(traj.times[-1])
    rel = abs(s_num - s_exact) / s_exact
    _report("criterion 4a (similarity-law front, 400 nodes)", rel <= 0.02,
            f"relative error {rel:.4%}")


def test_criterion_4b_enthalpy_conservation():
    worst = 0.0
    for sc in (presets.twophase_1d(nodes=81),
               presets.twophase_1d(p=3.0, nodes=81, t_end=0.22),
               presets.positive_bump_1d(p=3.0, nodes=61, t_end=0.05)):
        traj = run_simulation(sc)
        worst = max(worst, solver.conservation_defect(traj))
    _report("criterion 4b (enthalpy conservation)", worst <= 1e-10,
            f"worst relative defect {worst:.2e}")


def test_criterion_4c_comparison_principle():
    rng = np.random.default_rng(1234)
    worst = 0.0
    for trial in range(100):
        p = 2.0 if trial % 2 == 0 else 3.0
        base = float(rng.uniform(-0.3, 0.3))
        amps = tuple(rng.normal(0.0, 0.2, size=2))
        gap = float(rng.uniform(0.02, 0.5))
        lo = replace(presets.twophase_1d(p=p, nodes=31, t_end=0.004, dt=5e-4),
                     initial=InitialData.of("fourier", base=base, amps=amps, freqs=(1.0, 2.0)))
        hi = replace(presets.twophase_1d(p=p, nodes=31, t_end=0.004, dt=5e-4),
                     initial=InitialData.of("fourier", base=base + gap, amps=amps,
                                            freqs=(1.0, 2.0)))
        t_lo, t_hi = run_simulation(lo), run_simulation(hi)
        for ua, ub in zip(t_lo.temps, t_hi.temps):
            worst = max(worst, float(np.max(ua - ub)))
    _report("criterion 4c (comparison principle, 100 pairs)", worst <= 1e-9,
            f"worst violation {worst:.2e}")


def test_criterion_4d_determinism():
    sc = presets.twophase_1d(nodes=61, t_end=0.02, dt=5e-4)
    h1 = run_simulation(sc).trajectory_hash()
    h2 = run_simulation(sc).trajectory_hash()
    _report("criterion 4d (determinism)", h1 == h2, f"hash {h1[:16]}...")


# ---------------------------------------------------------------------------
# Criterion 5: inequality harness stable under refinement
# ---------------------------------------------------------------------------

def test_criterion_5_inequality_harness():
    rows = studies.family_stability_table()
    assert len(rows) == 20
    problems = []
    seen = {"caccioppoli": 0, "weak-harnack": 0, "decay": 0}
    for row in rows:
        for name in ("caccioppoli", "weak-harnack", "decay"):
            if name not in row:
                continue
            a, b = row[name]
            seen[name] += 1
            if a is None or b is None or not (math.isfinite(a) and math.isfinite(b)):
                problems.append(f"{row['label']}:{name} degenerate")
            elif not (0.5 <= b / a <= 2.0):
                problems.append(f"{row['label']}:{name} ratio {b / a:.2f}")
        ma, mb = row["truncation_margins"]
        if ma < 0.0 or mb < 0.0:
            problems.append(f"{row['label']}:truncation residual below -1e-8")
    coverage_ok = seen["caccioppoli"] == 20 and seen["weak-harnack"] >= 4 and seen["decay"] >= 4
    _report("criterion 5 (inequality harness, 20 scenarios x 2 resolutions)",
            not problems and coverage_ok,
            f"checks: {seen}; problems: {problems[:4]}")


# ---------------------------------------------------------------------------
# Criterion 6: headline modulus measurement and the eps ladder
# ---------------------------------------------------------------------------

def test_criterion_6_headline_modulus():
    problems = []
    alpha_lines = []
    for name in ("1d-p2", "1d-p3", "2d-p2", "2d-p3"):
        res = studies.run_headline_case(name)
        if not (math.isfinite(res["c_star_coarse"]) and res["c_star_coarse"] > 0):
            problems.append(f"{name}: non-finite constant")
        if not res["stable"]:
            problems.append(f"{name}: ratio {res['stability_ratio']:.2f}")
        if res["alpha_hat_coarse"] is not None:
            alpha_lines.append(f"{name}: alpha_hat={res['alpha_hat_coarse']:.2f} "
                               f"vs alpha={res['alpha_target']:.2f}")
            # informational: the analysis proves an upper bound, so the
            # measured exponent may only come out on the fast side
            if res["alpha_hat_coarse"] < res["alpha_target"] - 0.05:
                alpha_lines[-1] += " (slower than the bound!)"

    eps_res = studies.run_epsilon_study()
    if not eps_res["cauchy_decreasing"]:
        problems.append("eps ladder: gaps not decreasing")
    if not eps_res["mean_eps_slope"] > 0.0:
        problems.append("eps ladder: fitted slope not positive")
    if not eps_res["intercepts_consistent"]:
        problems.append("eps ladder: intercepts exceed the modulus bound")

    detail = (f"gaps={['%.2e' % g for g in eps_res['cauchy_gaps']]}, "
              f"slope={eps_res['mean_eps_slope']:.3f}; " + "; ".join(alpha_lines))
    _report("criterion 6 (headline modulus + eps ladder)", not problems,
            detail if not problems else f"{problems}; {detail}")
