"""Geometry tests: exponent arithmetic, the log-power modulus and its
doubling/concavity properties, intrinsic cylinders, oscillation measurement
and the modulus fit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stefanlab import presets, verify
from stefanlab.geometry import (EmptyCylinderError, IntrinsicCylinder,
                                ModulusParams, OscillationProfile,
                                alpha_kappa_of, cylinder, cylinder_depth,
                                fit_modulus, kappa_ratio, omega,
                                oscillation)
from stefanlab.solver import Trajectory, run_simulation

from helpers import omega_log_slope, rescale_solution


class TestAlphaKappa:
    def test_subcritical(self):
        alpha, kappa = alpha_kappa_of(3, 2)
        assert alpha == pytest.approx(0.4, abs=0)
        assert kappa == pytest.approx(3.0, abs=0)

    def test_supercritical(self):
        alpha, kappa = alpha_kappa_of(2, 3)
        assert alpha == 0.5
        assert math.isinf(kappa)

    def test_relation_exact(self):
        alpha, kappa = alpha_kappa_of(3, 2)
        assert 1.0 + kappa / (kappa - 1.0) == pytest.approx(1.0 / alpha, rel=1e-15)

    def test_critical_default_and_choice(self):
        alpha, kappa = alpha_kappa_of(4, 4)
        assert alpha == 0.45
        assert 1.0 + kappa_ratio(kappa) == pytest.approx(1.0 / alpha, rel=1e-13)
        alpha2, kappa2 = alpha_kappa_of(3, 3, 0.3)
        assert alpha2 == 0.3
        assert 1.0 + kappa_ratio(kappa2) == pytest.approx(1.0 / 0.3, rel=1e-13)

    def test_invalid_choice(self):
        with pytest.raises(ValueError):
            alpha_kappa_of(3, 3, 0.6)
        with pytest.raises(ValueError):
            alpha_kappa_of(3, 1.5)


def _params(alpha=0.4, p=2.0, L=1.0, M=2.0, r0=1.0):
    return ModulusParams(p=p, alpha=alpha, L=L, M=M, r0=r0)


class TestOmega:
    def test_at_r0(self):
        pr = _params(L=2.0, p=3.0, alpha=0.5)
        assert omega(pr, 1.0) == pytest.approx(2.0 * 3.0**-0.5, rel=1e-14)

    def test_example_value(self):
        pr = _params()
        expected = math.exp(-0.4 * math.log(4.0))
        assert omega(pr, math.exp(-2.0)) == pytest.approx(expected, rel=1e-13)
        assert omega(pr, math.exp(-2.0)) == pytest.approx(0.5743, abs=5e-5)

    def test_domain(self):
        pr = _params()
        with pytest.raises(ValueError):
            omega(pr, 1.5)
        with pytest.raises(ValueError):
            omega(pr, 0.0)

    def test_increasing_and_concave(self):
        pr = _params(alpha=0.45, p=2.0)
        r = np.linspace(1e-4, 1.0, 400)
        w = omega(pr, r)
        assert np.all(np.diff(w) > 0)
        assert np.all(np.diff(w, 2) <= 1e-12)

    def test_log_slope_bound(self):
        pr = _params()
        r = np.geomspace(1e-6, 1.0, 64)
        assert np.all(omega_log_slope(pr, r) <= pr.alpha / pr.p + 1e-15)

    def test_doubling(self):
        pr = _params()
        r1 = np.geomspace(1e-6, 0.5, 32)
        r2 = 2.0 * r1
        ratio = omega(pr, r2) / omega(pr, r1)
        assert np.all(ratio <= (r2 / r1) ** (pr.alpha / pr.p) + 1e-14)
        assert np.all(omega(pr, r1) <= 32.0 * omega(pr, r1 / 32.0))


class TestCylinders:
    def test_p2_full_depth(self):
        pr = _params(M=3.0, L=1.5)
        c = cylinder(pr, ((0.0,), 0.0), 0.5, "full")
        assert c.depth == pytest.approx(3.0 * 0.25, rel=1e-14)

    def test_p2_tilde_depth_and_ball(self):
        pr = _params()
        c = cylinder(pr, ((0.0,), 0.0), 0.5, "tilde")
        assert c.depth == pytest.approx(0.25, rel=1e-14)
        assert c.ball_radius == pytest.approx(0.125)

    def test_outer_scaling(self):
        # the global-size factor scales the full depth by lambda^(2-p)
        pr = _params(p=3.0, alpha=0.5)
        full = cylinder(pr, ((0.0,), 0.0), 0.5, "full")
        outer = cylinder(pr, ((0.0,), 0.0), 0.5, "full", lambda_scale=2.0)
        assert outer.depth == pytest.approx(2.0 ** (2 - 3) * full.depth, rel=1e-14)

    def test_nestedness_example(self):
        pr = _params(p=3.0, alpha=0.5, M=4.0)
        t_half = cylinder_depth(pr, 0.25, "full")
        t_full = cylinder_depth(pr, 0.5, "full")
        assert t_half <= t_full

    @given(st.floats(0.05, 0.5), st.floats(2.0, 5.0), st.floats(1.0, 4.0),
           st.floats(0.001, 0.99), st.floats(0.1, 10.0), st.floats(0.02, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_nestedness_property(self, alpha, p, Lambda, theta, r0, frac):
        L = max((32.0 * alpha * math.log(32.0) / theta) ** alpha,
                2.0 * p**alpha * Lambda)
        pr = ModulusParams(p=p, alpha=alpha, L=L, M=2.0, r0=r0)
        r2 = r0 * max(frac, 1e-3)
        r1 = 0.37 * r2
        for flavor in ("tilde", "full"):
            assert cylinder_depth(pr, r1, flavor) <= cylinder_depth(pr, r2, flavor) * (1 + 1e-12)

    @given(st.floats(0.05, 0.5), st.floats(2.0, 5.0), st.floats(1.0, 4.0),
           st.floats(0.001, 0.99), st.floats(0.02, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_depth_contraction_by_32(self, alpha, p, Lambda, theta, frac):
        L = max((32.0 * alpha * math.log(32.0) / theta) ** alpha,
                2.0 * p**alpha * Lambda)
        pr = ModulusParams(p=p, alpha=alpha, L=L, M=2.0, r0=1.0)
        r = max(frac, 1e-3)
        assert cylinder_depth(pr, r / 32.0, "full") <= cylinder_depth(pr, r, "full") / 4.0

    def test_radius_and_scale_validation(self):
        pr = _params()
        with pytest.raises(ValueError):
            cylinder(pr, ((0.0,), 0.0), 2.0, "full")
        with pytest.raises(ValueError):
            cylinder(pr, ((0.0,), 0.0), 0.5, "full", lambda_scale=0.5)
        with pytest.raises(ValueError):
            cylinder(pr, ((0.0,), 0.0), 0.5, "sideways")


def _frozen_linear_trajectory(nodes=41, times=(0.0, 0.05, 0.1)):
    sc = presets.twophase_1d(nodes=nodes, t_end=0.0)
    grid = sc.grid
    x = grid.axes()[0]
    temps = [x.copy() for _ in times]
    enths = [np.asarray(sc.graph.enthalpy_of_temperature(u)) for u in temps]
    return Trajectory(scenario=sc, times=list(times), temps=temps, enthalpies=enths)


class TestOscillation:
    def test_constant_field(self):
        traj = run_simulation(presets.constant_preset(nodes=21, t_end=0.01))
        pr = _params(r0=0.3)
        c = cylinder(pr, ((0.5,), traj.times[-1]), 0.2, "full")
        c = IntrinsicCylinder(center_space=c.center_space, center_time=c.center_time,
                              radius=c.radius, depth=min(c.depth, 0.009), flavor="full")
        assert oscillation(traj, c) == 0.0

    def test_frozen_linear_profile(self):
        traj = _frozen_linear_trajectory(nodes=101)
        for r in (0.2, 0.1, 0.05):
            c = IntrinsicCylinder(center_space=(0.5,), center_time=0.1,
                                  radius=r, depth=0.1, flavor="full")
            measured = oscillation(traj, c)
            assert measured <= 2.0 * r + 1e-12
            assert measured >= 2.0 * r - 2.0 * traj.grid.h

    def test_nested_monotone(self):
        traj = _frozen_linear_trajectory(nodes=101)
        oscs = [oscillation(traj, IntrinsicCylinder((0.5,), 0.1, r, 0.1, "full"))
                for r in (0.3, 0.2, 0.1)]
        assert oscs[0] >= oscs[1] >= oscs[2]

    def test_empty_cylinder(self):
        # Every check that samples a cylinder needs >= 2 nodes and >= 2 times.
        traj = _frozen_linear_trajectory(nodes=11)
        for empty in (IntrinsicCylinder((0.5,), 0.1, 0.01, 0.1, "full"),   # one node
                      IntrinsicCylinder((0.5,), 0.1, 0.3, 1e-4, "full")):  # one time
            for sample in (lambda: oscillation(traj, empty),
                           lambda: verify.caccioppoli_check(traj, 0.5, empty)):
                with pytest.raises(EmptyCylinderError, match="need >= 2 of each"):
                    sample()

    @pytest.mark.parametrize("end_time, r", [
        (1.0, 0.01),   # the full (enclosing) cylinder holds one node
        (0.0, 0.48),   # ... one time
        (1.0, 0.35),   # the short (tilde) cylinder holds one node
        (1.0, 0.48),   # ... one time
    ], ids=["full-node", "full-time", "tilde-node", "tilde-time"])
    def test_classifier_empty_cylinder(self, end_time, r):
        # p = 2: the tilde depth is r^2 and the full depth M r^2; the
        # oscillation over the full ball exceeds omega(r) in the tilde cases,
        # so the classifier goes on to sample the tilde cylinder
        traj = _frozen_linear_trajectory(nodes=11, times=(0.0, 0.5, 1.0))
        params = _params(alpha=0.5, p=2.0, L=1.0, M=10.0, r0=1.0)
        with pytest.raises(EmptyCylinderError, match="need >= 2 of each"):
            verify.alternative_classifier(traj, params, ((0.5,), end_time), r, 0.1, math.inf)


class TestRescale:
    def test_identity(self):
        traj = run_simulation(presets.twophase_1d(nodes=31, t_end=0.005, dt=5e-4))
        same = rescale_solution(traj, 1.0)
        assert same.trajectory_hash() == traj.trajectory_hash()

    def test_p2_time_unchanged_values_halved(self):
        traj = run_simulation(presets.twophase_1d(nodes=31, t_end=0.005, dt=5e-4))
        doubled = rescale_solution(traj, 2.0)
        assert np.allclose(doubled.times, traj.times)
        for a, b in zip(doubled.temps, traj.temps):
            assert np.array_equal(a, b / 2.0)
        assert doubled.graph.latent_heat == pytest.approx(0.5)

    def test_p3_time_stretch(self):
        traj = run_simulation(presets.twophase_1d(p=3.0, nodes=31, t_end=0.005, dt=5e-4))
        doubled = rescale_solution(traj, 2.0)
        assert doubled.times[-1] == pytest.approx(2.0 * traj.times[-1], rel=1e-13)

    def test_lambda_below_one_rejected(self):
        traj = run_simulation(presets.twophase_1d(nodes=31, t_end=0.002, dt=5e-4))
        with pytest.raises(ValueError):
            rescale_solution(traj, 0.9)


class TestFitModulus:
    def test_exact_recovery(self):
        pr = _params()
        radii = [1.0 / 2**i for i in range(6)]
        pts = [(r, 3.0 * omega(pr, r)) for r in radii]
        alpha_hat, c_hat, resid, flags = fit_modulus(pts, 2.0, 1.0)
        assert alpha_hat == pytest.approx(0.4, abs=1e-10)
        assert c_hat == pytest.approx(3.0, rel=1e-9)
        assert resid < 1e-10
        assert flags == ()

    def test_power_law_flagged(self):
        radii = [1.0 / 32**i for i in range(6)]
        pts = [(r, r**0.3) for r in radii]
        alpha_hat, _, resid, flags = fit_modulus(pts, 2.0, 1.0)
        assert alpha_hat > 1.0
        assert resid > 0.05
        assert "faster-than-log-power" in flags

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_modulus([(1.0, 0.5), (0.5, 0.4)], 2.0, 1.0)

    def test_degenerate_radii(self):
        with pytest.raises(ValueError):
            fit_modulus([(0.5, 0.4)] * 5, 2.0, 1.0)


class TestOscillationProfile:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            OscillationProfile(radii=[0.5, 0.5], depths=[1, 1], oscillations=[1, 1],
                               omegas=[1, 1], ratios=[1, 1], lambda_scale=1.0)
        with pytest.raises(ValueError):
            OscillationProfile(radii=[0.5, 0.25], depths=[1, 1], oscillations=[0.1, 0.5],
                               omegas=[1, 1], ratios=[1, 1], lambda_scale=1.0)

    def test_csv_round_shape(self):
        prof = OscillationProfile(radii=[0.5, 0.25], depths=[0.5, 0.12],
                                  oscillations=[0.4, 0.3], omegas=[1.0, 0.9],
                                  ratios=[0.4, 1.0 / 3.0], lambda_scale=1.0)
        lines = prof.to_csv().strip().split("\n")
        assert lines[0] == "r,T_r,osc,omega_r,ratio"
        assert len(lines) == 3
