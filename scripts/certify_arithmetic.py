#!/usr/bin/env python3
"""Quick arithmetic certification: exponent table, modulus property sweep,
and the oscillation-induction certifier over a parameter grid.

Usage: python scripts/certify_arithmetic.py
"""
import dataclasses
import math

import numpy as np

from stefanlab.constants import certify_all_pairs, fix_constants
from stefanlab.geometry import alpha_kappa_of, kappa_ratio


def exponent_table():
    print("exponents alpha(n, p) and kappa(n, p):")
    for n in range(2, 6):
        row = []
        for p in range(2, 6):
            alpha, kappa = alpha_kappa_of(n, float(p))
            rel = abs((1 + kappa_ratio(kappa)) * alpha - 1.0)
            row.append(f"a={alpha:.4f} k={kappa:.3g} err={rel:.1e}")
        print(f"  n={n}: " + " | ".join(row))


def induction_grid(j_max=30):
    print(f"\ninduction certifier, all pairs up to j={j_max}:")
    worst = math.inf
    count = 0
    broken = 0
    for n in (2, 3, 4, 5):
        for p in (2.0, 2.5, 3.0, 4.0, 5.0):
            for Lambda in (1.0, 2.0):
                for theta in (0.02, 0.2, 0.8):
                    led = fix_constants(n=n, p=p, Lambda=Lambda, theta=theta)
                    params = led.modulus_params(r0=1.0)
                    agg = certify_all_pairs(params, led, j_max)
                    count += 1
                    worst = min(worst, agg["worst_product_slack"])
                    assert agg["passed"], (n, p, Lambda, theta)
                    half = dataclasses.replace(params, L=led.L / 2.0)
                    if not certify_all_pairs(half, led, j_max)["passed"]:
                        broken += 1
    print(f"  {count} grid points certified, worst product slack {worst:.3e}")
    print(f"  halved prefactor breaks certification at {broken}/{count} points")


def modulus_sweep(n_draws=10_000, seed=20260809):
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(0.05, 0.5, n_draws)
    p = rng.uniform(2.0, 5.0, n_draws)
    Lambda = rng.uniform(1.0, 4.0, n_draws)
    theta = rng.uniform(0.002, 0.99, n_draws)
    L = np.maximum((32 * alpha * math.log(32) / theta) ** alpha,
                   2 * p**alpha * Lambda)
    y = np.linspace(0.0, 12.0, 9)[None, :]
    w = L[:, None] * (p[:, None] + y) ** (-alpha[:, None])
    ok_monotone = bool(np.all(np.diff(w, axis=1) < 0))
    ok_floor = bool(np.all(w[:, 0] >= Lambda * (1 - 1e-13)))
    print(f"\nmodulus sweep over {n_draws} draws: "
          f"monotone={ok_monotone} floor(omega(r0) >= Lambda)={ok_floor}")


if __name__ == "__main__":
    exponent_table()
    modulus_sweep()
    induction_grid()
