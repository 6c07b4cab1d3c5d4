"""Constant-chain tests: the derived quantities, the decay profile, the
starting log-depth of the dyadic ladder, and the induction certifier."""

import dataclasses
import math

import numpy as np
import pytest

from stefanlab.constants import (LN32, certify_all_pairs, decay_profile, fix_constants,
                                 starting_log_depth)
from stefanlab.geometry import ModulusParams, omega, omega_from_depth


class TestFixConstants:
    def test_level_fraction_and_depth_example(self):
        # kappa = 3 via p = n = 3 with exponent choice 0.4
        led = fix_constants(n=3, p=3, Lambda=1.0, alpha_choice_if_p_eq_n=0.4,
                            c0=2.0, c1=16.0)
        assert led.kappa == pytest.approx(3.0, rel=1e-12)
        assert led.eps1 == pytest.approx(min(2.0**-2.25, 1.0), rel=1e-13)
        assert led.eps1 == pytest.approx(0.21022, abs=5e-6)
        assert led.M == pytest.approx(1.0 + 1.0 / led.eps1, rel=1e-13)
        assert led.M == pytest.approx(1.0 + 2.0**2.25, rel=1e-13)
        assert led.M == pytest.approx(5.7569, abs=2e-4)

    def test_p2_branch(self):
        led = fix_constants(n=3, p=2.0, Lambda=1.0, c0=2.0, c1=2.0)
        # the p-degenerate constraint is vacuous, only the fast-convergence
        # branch remains, and the depth constant is floored at 2
        kr = 1.0 / led.kappa
        assert led.eps1 == pytest.approx(2.0 ** -((1 - kr) ** -2), rel=1e-13)
        assert led.eps1 > 0.0
        assert led.M == 2.0

    def test_eps1_keeps_depth_at_least_two(self):
        for p in (2.5, 3.0, 4.0, 5.0):
            for c1 in (0.5, 2.0, 16.0, 64.0):
                led = fix_constants(n=2, p=p, Lambda=1.0, c1=c1)
                assert led.eps1 <= (c1 / 16.0) ** (1.0 / (p - 2.0)) * (1 + 1e-13)
                assert led.M >= 2.0

    def test_prefactor_example(self):
        led = fix_constants(n=3, p=2.0, Lambda=1.0, theta=0.01)
        assert led.alpha == pytest.approx(0.4)
        expected = (32.0 * 0.4 * LN32 / 0.01) ** 0.4
        assert led.L == pytest.approx(expected, rel=1e-13)
        assert led.L == pytest.approx(28.8, abs=0.1)
        assert led.L >= 2.0 * 2.0**0.4

    def test_prefactor_floor_gives_omega_headroom(self):
        led = fix_constants(n=4, p=3.0, Lambda=2.5, theta=0.9)
        params = led.modulus_params(r0=1.0)
        assert omega(params, 1.0) >= 2.0 * led.Lambda - 1e-12

    def test_c3_formula(self):
        led = fix_constants(n=3, p=3.0, Lambda=1.0, c1=0.05, c2=2.0)
        assert led.c3 >= 2.0 * led.c2 - 1e-13
        assert led.c3 >= math.log(2.0 * led.c2) / led.c1 - 1e-13
        assert led.provenance["c3"] == "formula"
        led2 = fix_constants(n=3, p=3.0, Lambda=1.0, c3=7.0)
        assert led2.c3 == 7.0
        assert led2.provenance["c3"] == "configured"

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fix_constants(n=3, p=2.0, Lambda=1.0, c0=-1.0)
        with pytest.raises(ValueError):
            fix_constants(n=3, p=2.0, Lambda=1.0, theta=1.5)
        with pytest.raises(ValueError):
            fix_constants(n=3, p=2.0, Lambda=0.5)

    def test_provenance_tags(self):
        led = fix_constants(n=3, p=3.0, Lambda=1.0)
        assert led.provenance["eps1"] == "formula"
        assert led.provenance["M"] == "formula"
        assert led.provenance["L"] == "formula"
        assert led.provenance["c0"] == "configured"
        assert led.provenance["theta"] == "configured"


class TestDecayProfile:
    def test_initial_value(self):
        assert decay_profile(0.8, 1.0, 1.0, 2.0, 3.0, 4.0) == pytest.approx(0.8 / 3.0)

    def test_p3_closed_value(self):
        assert decay_profile(1.0, 1.0, 0.0, 1.0, 2.0, 3.0) == pytest.approx(1.0 / 6.0, rel=1e-14)

    def test_p_to_2_limit(self):
        near = decay_profile(0.7, 2.0, 0.0, 1.3, 2.0, 2.0 + 1e-6)
        limit = decay_profile(0.7, 2.0, 0.0, 1.3, 2.0, 2.0)
        assert abs(near - limit) / limit < 1e-4

    def test_monotone_and_bounded(self):
        t = np.linspace(0.0, 5.0, 200)
        lam = decay_profile(1.0, t, 0.0, 1.0, 2.5, 3.5)
        assert np.all(np.diff(lam) <= 0.0)
        assert np.all(lam <= 1.0 / 2.5 + 1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            decay_profile(0.0, 1.0, 0.0, 1.0, 2.0, 3.0)
        with pytest.raises(ValueError):
            decay_profile(1.0, -1.0, 0.0, 1.0, 2.0, 3.0)
        with pytest.raises(ValueError):
            decay_profile(1.0, 1.0, 0.0, 1.0, 2.0, 1.5)


class TestStartingRadius:
    def test_closed_form_crosscheck(self):
        L = 2.0 * 2.0**0.4
        pr = ModulusParams(p=2.0, alpha=0.4, L=L, M=2.0, r0=1.0)
        y = starting_log_depth(pr, 1.0)
        y_exact = L**2.5 - 2.0
        assert y == pytest.approx(y_exact, rel=1e-12)
        assert omega(pr, math.exp(-y)) == pytest.approx(1.0, rel=1e-10)

    def test_boundary_root(self):
        pr = ModulusParams(p=2.0, alpha=0.4, L=2.0**0.4, M=2.0, r0=1.0)
        assert starting_log_depth(pr, 1.0) == 0.0

    def test_underflowing_radius_keeps_log_form(self):
        led = fix_constants(n=3, p=2.0, Lambda=1.0, theta=0.01)
        pr = led.modulus_params(r0=1.0)
        y = starting_log_depth(pr, 1.0)
        assert y > 750.0
        assert math.exp(-y) == 0.0
        assert omega_from_depth(pr, y) == pytest.approx(1.0, rel=1e-12)

    def test_no_root_rejected(self):
        pr = ModulusParams(p=2.0, alpha=0.4, L=1.0, M=2.0, r0=1.0)
        with pytest.raises(ValueError):
            starting_log_depth(pr, 2.0)


def _grid_point(n=3, p=2.0, Lambda=1.0, theta=0.01):
    led = fix_constants(n=n, p=p, Lambda=Lambda, theta=theta)
    return led.modulus_params(r0=1.0), led


def _oracle_slacks(params, led, j_max):
    """Worst (shifted, unshifted) product slack over every pair, in plain
    Python from the closed-form ladder omega_i = L (p + y0 + i ln 32)^-alpha."""
    a, y0 = params.alpha, (params.L / led.Lambda) ** (1.0 / params.alpha) - params.p
    w = [params.L * (params.p + y0 + i * math.log(32.0)) ** -a for i in range(j_max + 2)]
    prods = {(i, j): math.prod(1.0 - led.theta / 32.0 * w[m] ** (1.0 / a)
                               for m in range(i + 1, j + 1))
             for j in range(1, j_max + 1) for i in range(j)}
    return (min(w[j + 1] / w[i + 1] - pr for (i, j), pr in prods.items()),
            min(w[j] / w[i] - pr for (i, j), pr in prods.items()))


def _assert_matches_oracle(theta, j_max):
    params, led = _grid_point(theta=theta)
    rep = certify_all_pairs(params, led, j_max)
    shifted, unshifted = _oracle_slacks(params, led, j_max)
    assert rep["worst_product_slack"] == pytest.approx(shifted, rel=1e-12, abs=1e-15)
    assert rep["worst_unshifted_product_slack"] == pytest.approx(unshifted, rel=1e-12, abs=1e-15)
    assert rep["passed"]


class TestCertifyInduction:
    def test_single_factor_reduction(self):
        # j_max = 1: the one pair (0, 1) and its one factor 1 - q_1
        _assert_matches_oracle(0.2, 1)

    def test_all_pairs_matches_per_pair(self):
        _assert_matches_oracle(0.2, 12)
        _assert_matches_oracle(0.01, 20)

    def test_acceptance_style_point(self):
        params, led = _grid_point()
        rep = certify_all_pairs(params, led, 20)
        assert rep["passed"]
        assert rep["worst_factor_slack"] > 0.0
        assert rep["worst_product_slack"] > 0.0
        assert rep["worst_doubling_slack"] > 0.0
        assert rep["worst_combined_slack"] > 0.0
        assert rep["log_bound_check"]

    def test_tighter_pairing_fails_on_theta_branch(self):
        # with the theta branch of L active the one-index-tighter product
        # bound loses by a hair; the certified (shifted) pairing keeps slack
        params, led = _grid_point()
        rep = certify_all_pairs(params, led, 20)
        assert rep["worst_unshifted_product_slack"] < 0.0
        assert rep["worst_product_slack"] > 0.0
        assert rep["passed"]

    def test_halved_prefactor_detected(self):
        params, led = _grid_point()
        bad = dataclasses.replace(params, L=params.L / 2.0)
        rep = certify_all_pairs(bad, led, 30)
        assert not rep["passed"]
        assert rep["worst_product_slack"] < 0.0

    def test_pair_validation(self):
        params, led = _grid_point()
        with pytest.raises(ValueError):
            certify_all_pairs(params, led, 0)
        led_cfg = dataclasses.replace(led, provenance={**led.provenance, "L": "configured"})
        with pytest.raises(ValueError):
            certify_all_pairs(params, led_cfg, 5)
