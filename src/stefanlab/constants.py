"""Explicit constant chains of the oscillation-reduction argument.

The ledger records each constant a formula here or a check reads, with its
provenance: "formula" entries are derived here from the structural inputs,
and "configured" entries are user choices standing in for constants the
analysis only names.  The induction certifier checks the arithmetic that
turns per-scale oscillation reduction into the log-power modulus, working
in log-radius coordinates since the dyadic-32 ladder leaves floating-point
range almost immediately.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .geometry import ModulusParams, alpha_kappa_of, omega_from_depth

LN32 = math.log(32.0)


@dataclass
class ConstantsLedger:
    """Every named constant with provenance tags."""

    n: int
    p: float
    Lambda: float
    alpha: float
    kappa: float
    c0: float
    c1: float
    c2: float
    c3: float
    eps1: float
    M: float
    theta: float
    L: float
    provenance: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "values": {f.name: getattr(self, f.name) for f in fields(self)
                       if f.name != "provenance"},
            "provenance": dict(self.provenance),
        }

    def modulus_params(self, r0: float) -> ModulusParams:
        return ModulusParams(p=self.p, alpha=self.alpha, L=self.L, M=self.M, r0=r0)


def fix_constants(
    n: int,
    p: float,
    Lambda: float,
    *,
    alpha_choice_if_p_eq_n: float | None = None,
    c0: float = 2.0,
    c1: float = 2.0,
    c2: float = 2.0,
    c3: float | None = None,
    theta: float = 0.05,
) -> ConstantsLedger:
    """Derive the formula-fixed constants from the configured inputs.

    eps1 caps the level-set fraction separating the two measure alternatives;
    M sets the cylinder depth so the waiting time fits below the top slab
    (floored at 2 so the short slab stays in the lower half); L is the
    modulus prefactor of the configured per-scale oscillation drop theta.
    """
    if min(c0, c1, c2) <= 0.0:
        raise ValueError("c0, c1, c2 must be positive")
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    if Lambda < 1.0:
        raise ValueError("Lambda must be >= 1")
    if p < 2.0:
        raise ValueError("p must be >= 2")

    alpha, kappa = alpha_kappa_of(n, p, alpha_choice_if_p_eq_n)
    prov: dict[str, str] = {k: "configured" for k in ("c0", "c1", "c2", "theta")}

    kr = 0.0 if math.isinf(kappa) else 1.0 / kappa
    first_branch = c0 ** (-((1.0 - kr) ** -2))
    if p > 2.0:
        eps1 = min(first_branch, (c1 / 16.0) ** (1.0 / (p - 2.0)))
    else:
        eps1 = first_branch  # the p-degenerate constraint is vacuous at p = 2
    prov["eps1"] = "formula"

    M = max(2.0, 1.0 + eps1 ** (2.0 - p) * c1 / 16.0)
    prov["M"] = "formula"

    L = max((32.0 * alpha * LN32 / theta) ** alpha, 2.0 * p**alpha * Lambda)
    prov["L"] = "formula"

    if c3 is None:
        c3 = max(2.0 * c2, math.log(2.0 * c2) / c1)
        prov["c3"] = "formula"
    else:
        if c3 <= 0.0:
            raise ValueError("c3 must be positive")
        prov["c3"] = "configured"

    return ConstantsLedger(
        n=n, p=p, Lambda=Lambda, alpha=alpha, kappa=kappa,
        c0=c0, c1=c1, c2=c2, c3=c3, eps1=eps1, M=M,
        theta=theta, L=L,
        provenance=prov,
    )


def decay_profile(k: float, t: float, t0: float, R0: float, c3: float, p: float):
    """Quantitative floor for how slowly a positive lower bound k may erode.

    For p > 2 the floor is (k/c3)(1 + c3 (p-2) k^{p-2} (t-t0)/R0^p)^{-1/(p-2)};
    at p = 2 the continuous-in-p limit (k/c3) exp(-c3 (t-t0)/R0^2) is used.
    Evaluated through log1p so values stay accurate as p approaches 2.
    """
    if k <= 0.0 or R0 <= 0.0 or c3 <= 0.0:
        raise ValueError("need k, R0, c3 > 0")
    if p < 2.0:
        raise ValueError("p must be >= 2")
    t = np.asarray(t, dtype=float)
    if np.any(t < t0):
        raise ValueError("t must be >= t0")
    dt = (t - t0) / R0**p
    if p == 2.0:
        out = (k / c3) * np.exp(-c3 * dt)
    else:
        out = (k / c3) * np.exp(-np.log1p(c3 * (p - 2.0) * k ** (p - 2.0) * dt) / (p - 2.0))
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# The largest radius with omega = Lambda, and the dyadic-32 ladder
# ---------------------------------------------------------------------------

def starting_log_depth(params: ModulusParams, Lambda: float) -> float:
    """Log-depth y = ln(r0 / r~0) of the largest radius r~0 where the modulus
    first reaches the structure constant.

    omega = L (p + y)^(-alpha) equals Lambda at y = (L/Lambda)^(1/alpha) - p;
    omega(r0) >= Lambda is required so the root exists in (0, r0], and y = 0
    when omega(r0) <= Lambda.  The radius r0 e^{-y} itself underflows once
    y passes about 745, so the ladder works with y alone.
    """
    if Lambda <= 0.0:
        raise ValueError("Lambda must be positive")
    w_r0 = omega_from_depth(params, 0.0)
    if w_r0 < Lambda * (1.0 - 1e-14):
        raise ValueError("omega(r0) < Lambda: no starting radius exists")
    if w_r0 <= Lambda:
        return 0.0
    return max(0.0, (params.L / Lambda) ** (1.0 / params.alpha) - params.p)


def certify_all_pairs(params: ModulusParams, ledger: ConstantsLedger,
                      j_max: int) -> dict:
    """Check the arithmetic that contracts oscillation along the 32-ladder,
    for every pair 0 <= i_star < j <= j_max.

    With r_i at log-depth starting_log_depth + i ln 32 and
    q_i = (theta/32) * omega(r_i)^{1/alpha}, the certified chain is

        prod_{i=i_star+1}^{j} (1 - q_i)  <=  omega(r_{j+1}) / omega(r_{i_star+1}),

    each factor below 1, together with the doubling step
    omega(r_i) <= 32 omega(r_{i+1}) and the combined consequence
    prod * omega(r_{i_star}) <= 32 omega(r_{j+1}).  Returns the worst slack
    of each over all pairs, in O(j_max^2) scalar work by prefix-summed logs.
    The one-index-tighter pairing omega(r_j)/omega(r_{i_star}) fails by a
    hair whenever the theta-branch of the prefactor is active, so its worst
    slack is reported but does not gate `passed`; nor does
    `log_bound_check`, ln(1 - q) <= -q on every factor multiplied.
    """
    if j_max < 1:
        raise ValueError("need j_max >= 1")
    if ledger.provenance.get("L") != "formula":
        raise ValueError("ledger L must be formula-derived for certification")
    depths = starting_log_depth(params, ledger.Lambda) + LN32 * np.arange(j_max + 2)
    omegas = omega_from_depth(params, depths)
    q = (ledger.theta / 32.0) * omegas ** (1.0 / params.alpha)
    factors_ok = bool(np.all(q < 1.0))
    logs = np.log1p(-np.clip(q, None, 1.0 - 1e-300))
    prefix = np.concatenate([[0.0], np.cumsum(logs)])  # prefix[i] = sum logs[0..i-1]

    worst_product = worst_unshifted = worst_combined = math.inf
    for j in range(1, j_max + 1):
        i_star = np.arange(0, j)
        prod = np.exp(prefix[j + 1] - prefix[i_star + 1])
        worst_product = min(worst_product,
                            float(np.min(omegas[j + 1] / omegas[i_star + 1] - prod)))
        worst_unshifted = min(worst_unshifted, float(np.min(omegas[j] / omegas[i_star] - prod)))
        worst_combined = min(worst_combined,
                             float(np.min(32.0 * omegas[j + 1] - prod * omegas[i_star])))
    doubling_slack = float(np.min(32.0 - omegas[:-1] / omegas[1:]))
    multiplied = slice(1, j_max + 1)  # the factors some pair multiplies
    return {
        "factors_below_one": factors_ok,
        "worst_factor_slack": float(np.min(1.0 - q)),
        "worst_product_slack": worst_product,
        "worst_unshifted_product_slack": worst_unshifted,
        "worst_doubling_slack": doubling_slack,
        "worst_combined_slack": worst_combined,
        "log_bound_check": bool(np.all(logs[multiplied] <= -q[multiplied] + 1e-15)),
        "passed": bool(factors_ok and worst_product >= 0.0
                       and doubling_slack >= 0.0 and worst_combined >= 0.0),
    }
