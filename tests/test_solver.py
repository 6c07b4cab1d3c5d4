"""Solver tests: operator exactness, step contracts, conservation, ordering,
and the discrete weak-form residual semantics."""

import importlib.machinery
import json
import math
import os
import subprocess
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stefanlab import presets, solver, studies
from stefanlab.graphs import BetaMap, RegularizedGraph
from stefanlab.solver import (Boundary, DtPolicy, Grid, InitialData,
                              Scenario, ShapeMismatchError,
                              Trajectory, VectorField, build_initial,
                              conservation_defect, enthalpy_totals,
                              implicit_step, run_simulation)

from helpers import (ConstantInSpace, SpaceTimeBump, centered_weak_form_residual,
                     dissipation_profile, net_face_flux, rescale_solution, step_gradient)


class TestGrid:
    def test_validation(self):
        # each error names the config key it belongs to
        for dim, nodes, extent, key in [
            (1, 2, 1.0, "nodes"),
            (3, 5, 1.0, "dim"),
            (0, 5, 1.0, "dim"),
            (2, 1001, 1.0, "nodes"),   # more than MAX_NODES
            (1, 5, 1e-101, "extent"),
            (1, 5, 1e101, "extent"),
            (1, 5, math.nan, "extent"),
            (1, 5, 0.0, "extent"),
        ]:
            with pytest.raises(solver.ScenarioValueError) as err:
                Grid(dim, nodes, extent)
            assert err.value.key == key
        assert Grid(2, 1000, 1e100).shape == (1000, 1000)
        assert Grid(1, 10**6).shape == (10**6,)

    def test_volumes_sum_to_domain(self):
        g1 = Grid(1, 41, 2.0)
        assert np.sum(g1.volume_weights()) == pytest.approx(2.0, rel=1e-13)
        g2 = Grid(2, 17)
        assert np.sum(g2.volume_weights()) == pytest.approx(1.0, rel=1e-13)

    def test_ball_mask_counts(self):
        g = Grid(1, 11)
        sc = Scenario(grid=g, p=2.0, graph=RegularizedGraph(a=0.0, latent_heat=1.0, eps=0.1))
        u = np.zeros(11)
        traj = Trajectory(scenario=sc, times=[0.0], temps=[u], enthalpies=[u])
        assert int(traj.ball_mask((0.5,), 0.25).sum()) == 5  # nodes at 0.3 ... 0.7
        assert int(traj.ball_mask((0.5,), 0.3).sum()) == 7   # boundary nodes included
        # [0.5, 1.1]: the nodes at 0.5 ... 1.0, boundary included
        assert list(np.flatnonzero(traj.ball_mask((0.8,), 0.3))) == [5, 6, 7, 8, 9, 10]
        # A centre needs one coordinate per axis; extra ones are not dropped.
        for center in ((0.5, 0.5), ()):
            with pytest.raises(ValueError):
                traj.ball_mask(center, 0.25)


class TestVectorField:
    def test_certified_bounds_by_sampling(self):
        vf = VectorField((0.5, 2.0))
        p = 3.0
        lam = vf.certified_lambda(p)
        rng = np.random.default_rng(11)
        xi = rng.normal(size=(500, 2))
        w = np.array(vf.weights)
        a_val = w * np.abs(xi) ** (p - 2.0) * xi
        norm_xi = np.linalg.norm(xi, axis=1)
        assert np.all(np.linalg.norm(a_val, axis=1) <= lam * norm_xi ** (p - 1) * (1 + 1e-12))
        assert np.all(np.sum(a_val * xi, axis=1) >= norm_xi**p / lam * (1 - 1e-12))

    def test_scenario_fills_and_checks_weights(self):
        g1 = Grid(1, 11)
        g2 = Grid(2, 11)
        graph = RegularizedGraph(a=0.0, latent_heat=1.0, eps=0.1)
        assert Scenario(grid=g1, p=3.0, graph=graph).field.weights == (1.0,)
        assert Scenario(grid=g2, p=3.0, graph=graph).field.weights == (1.0, 1.0)
        with pytest.raises(ValueError, match="weights"):
            Scenario(grid=g1, p=3.0, graph=graph, field=VectorField((1.0, 2.0)))
        for bad in ((), (1.0, 0.0), (-1.0,), (math.nan,)):
            with pytest.raises(ValueError):
                VectorField(bad)


def _nine_node_scenario(**changes) -> Scenario:
    """A 9-node 1D p = 2 scenario of five fixed steps, with `changes`."""
    base = dict(grid=Grid(1, 9), p=2.0,
                graph=RegularizedGraph(a=0.0, latent_heat=1.0, eps=0.05), t_end=0.01,
                dt=DtPolicy(value=0.002))
    return Scenario(**{**base, **changes})


class TestScenarioDomain:
    """A scenario that builds can run: every rule is checked when it is
    built, and each error names its field (and config key)."""

    @pytest.mark.parametrize("changes, key", [
        # E(u) overflows at the pinned node only
        (dict(boundary=Boundary("dirichlet", ((1e300, 0.0),))), "boundary"),
        (dict(boundary=Boundary("dirichlet", ((math.nan, 0.0),))), "boundary"),
        (dict(grid=Grid(2, 9),
              boundary=Boundary("dirichlet", ((0.0, 0.0),))), "boundary"),
        # E(u) is finite, |du/h|^8 is not
        (dict(p=8.0, initial=InitialData.of("bump", amplitude=1e60)), "initial_params"),
        # E(u) overflows everywhere, the pins included
        (dict(initial=InitialData.of("constant", value=1e300),
              boundary=Boundary("dirichlet", ((1e300, 0.0),))), "initial_params"),
        (dict(initial=InitialData.of("ramp", axis=5)), "initial_params"),
        (dict(initial=InitialData.of("bump", width=(1.0, 2.0))), "initial_params"),
        (dict(initial=InitialData.of("ramp", lo=math.nan)), "initial_params"),
        (dict(initial=InitialData.of("wave")), "initial"),
        # 6.4e8 intrinsic steps, and 2e321 fixed ones
        (dict(dt=DtPolicy(kind="intrinsic", safety=1e-9)), "dt"),
        (dict(dt=DtPolicy(value=5e-324)), "dt"),
        # h^8 underflows: the first intrinsic step is 0
        (dict(grid=Grid(1, 9, 1e-60), p=8.0,
              dt=DtPolicy(kind="intrinsic")), "dt"),
    ], ids=["huge-pin", "nan-pin", "pin-pairs", "steep-u", "huge-u", "ramp-axis",
            "bump-width-list", "ramp-nan", "unknown-initial", "tiny-safety", "tiny-dt",
            "zero-first-step"])
    def test_unrunnable_scenario_names_its_key(self, changes, key):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(solver.ScenarioValueError) as err:
                _nine_node_scenario(**changes)
        assert err.value.key == key

    def test_step_cap_admits_its_bound(self):
        first = solver.MAX_STEPS * 0.002
        assert _nine_node_scenario(t_end=first).t_end == first
        with pytest.raises(solver.ScenarioValueError):
            _nine_node_scenario(t_end=math.nextafter(first, math.inf))
        # t_end = 0 takes no step, whatever the step
        assert _nine_node_scenario(t_end=0.0, dt=DtPolicy(value=5e-324)).t_end == 0.0

    def test_intrinsic_steps_never_shrink(self):
        # The step cap bounds an intrinsic run by its first step: with p > 2
        # the step grows as osc(u) shrinks, and osc(u) never grows.
        sc = replace(presets.twophase_1d(p=3.0, nodes=21, t_end=0.02),
                     dt=DtPolicy(kind="intrinsic", safety=0.5))
        steps = np.diff(run_simulation(sc).times)[:-1]   # the last one is cut at t_end
        assert steps.size > 3
        assert np.all(steps >= steps[0] * (1.0 - 1e-9))

    def test_intrinsic_step_beyond_the_floats_is_finite_or_inf(self):
        # (1e-12)^(2-p) overflows a float at p = 300: the step is taken in logs
        grid = Grid(1, 9)
        u = np.zeros(9)
        assert DtPolicy(kind="intrinsic").step(grid, 300.0, u, math.inf) == math.inf
        dt = DtPolicy(kind="intrinsic").step(grid, 300.0, u, 0.25)
        assert dt == 0.25
        sc = _nine_node_scenario(p=300.0, dt=DtPolicy(kind="intrinsic"))
        assert run_simulation(sc).times == [0.0, sc.t_end]

    @pytest.mark.parametrize("boundary", [Boundary(),
                                          Boundary("dirichlet", ((0.3, -0.2),))])
    def test_runs_start_from_the_pinned_initial_state(self, boundary):
        sc = replace(presets.twophase_1d(nodes=21, t_end=0.004), boundary=boundary)
        u0 = sc._initial_state
        assert u0 is sc._initial_state and not u0.flags.writeable
        assert np.array_equal(u0, solver._apply_pins(sc, build_initial(sc.grid, sc.initial)))
        assert run_simulation(sc).temps[0].tobytes() == u0.tobytes()


def divergence_per_volume(u, p, grid):
    """Net face flux per unit volume, the operator the step residual uses."""
    faces = solver._Faces(grid, p, (1.0,) * grid.dim)
    div = sum(net_face_flux(f, ax) for ax, f in enumerate(faces.fluxes(faces.powers(u))))
    return div / grid.volume_weights()


class TestPLaplacianApply:
    """The face operator of the scheme: fluxes and their divergence."""

    def test_linear_gives_zero(self):
        g = Grid(1, 11)
        x = g.axes()[0]
        div = divergence_per_volume(x, 3.0, g)
        assert np.max(np.abs(div[1:-1])) < 1e-13

    def test_p2_quadratic_exact(self):
        g = Grid(1, 11)
        x = g.axes()[0]
        div = divergence_per_volume(x**2, 2.0, g)
        assert div[1:-1] == pytest.approx(np.full(9, 2.0), abs=1e-12)

    def test_p4_refinement_order(self):
        errs = []
        for n in (21, 41, 81):
            g = Grid(1, n)
            x = g.axes()[0]
            div = divergence_per_volume(x**2, 4.0, g)
            errs.append(np.max(np.abs(div[1:-1] - 24.0 * x[1:-1] ** 2)))
        order = math.log2(errs[0] / errs[1])
        assert order >= 1.0
        assert errs[2] < errs[1] < errs[0]

    def test_conservation_identity_zero_flux(self):
        g = Grid(1, 13)
        rng = np.random.default_rng(0)
        u = rng.normal(size=13)
        div = divergence_per_volume(u, 3.0, g)
        assert abs(np.sum(div * g.volume_weights())) < 1e-12

    def test_conservation_identity_2d(self):
        g = Grid(2, 9)
        rng = np.random.default_rng(1)
        u = rng.normal(size=(9, 9))
        div = divergence_per_volume(u, 2.5, g)
        assert abs(np.sum(div * g.volume_weights())) < 1e-12

    def test_2d_p2_quadratic(self):
        g = Grid(2, 9)
        X, Y = g.meshgrid()
        div = divergence_per_volume(X**2 + Y**2, 2.0, g)
        assert div[2:-2, 2:-2] == pytest.approx(np.full((5, 5), 4.0), abs=1e-12)

    def test_shape_mismatch(self):
        g = Grid(1, 11)
        with pytest.raises(ShapeMismatchError):
            divergence_per_volume(np.zeros(7), 2.0, g)

    @given(p=st.floats(2.0, 4.0),
           dim_nodes=st.one_of(st.tuples(st.just(1), st.integers(3, 30)),
                               st.tuples(st.just(2), st.integers(3, 12))),
           weights=st.lists(st.floats(0.1, 10.0), min_size=2, max_size=2),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_random_faces_conserve_and_energy_gradient(self, p, dim_nodes, weights, seed):
        (dim, nodes), h = dim_nodes, 1.0 / 8
        grid = Grid(dim, nodes, (nodes - 1) * h)
        faces = solver._Faces(grid, p, weights[:grid.dim])
        u = np.random.default_rng(seed).uniform(-1.0, 1.0, size=grid.shape)
        fluxes = faces.fluxes(faces.powers(u))
        div = sum(net_face_flux(f, ax) for ax, f in enumerate(fluxes))
        # No flux leaves the domain: the volume sum of the divergence is 0.
        scale = max(1.0, sum(float(np.sum(np.abs(f))) for f in fluxes))
        assert abs(float(np.sum(div))) <= 1e-12 * scale
        # The fluxes are minus the gradient of the p-energy.
        delta = 1e-6
        numeric = np.empty(grid.shape)
        for i in np.ndindex(grid.shape):
            up, down = u.copy(), u.copy()
            up[i] += delta
            down[i] -= delta
            numeric[i] = (faces.energy(up) - faces.energy(down)) / (2.0 * delta)
        assert np.max(np.abs(numeric + div)) <= 1e-6 * max(1.0, float(np.max(np.abs(div))))


class TestStepGradientOracle:
    """`_StepProblem.gradient` and `_Faces.gradients` (of one field and of a
    stack) against the same arithmetic written the plain way
    (`helpers.step_gradient`), bit for bit.  Both sides run on one host, so
    the comparison does not depend on it."""

    @given(dim_nodes=st.one_of(st.tuples(st.just(1), st.integers(3, 30)),
                               st.tuples(st.just(2), st.integers(3, 12))),
           p=st.one_of(st.sampled_from((2.0, 3.0, 4.0)), st.floats(2.0, 5.0)),
           weights=st.lists(st.floats(0.1, 10.0), min_size=2, max_size=2),
           dirichlet=st.booleans(), tanh_beta=st.booleans(),
           dt=st.floats(1e-6, 1.0), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_gradient_is_the_plain_formula(self, dim_nodes, p, weights, dirichlet, tanh_beta,
                                           dt, seed):
        (dim, nodes), h = dim_nodes, 1.0 / 8
        grid = Grid(dim, nodes, (nodes - 1) * h)
        beta = BetaMap("tanh", mu=0.4, tau=0.1) if tanh_beta else BetaMap()
        # unequal per axis, like the weights, so that an axis mix-up shows
        boundary = (Boundary("dirichlet", ((-0.3, 0.2), (0.25, -0.15))[:dim]) if dirichlet
                    else Boundary())
        sc = Scenario(grid=grid, p=p, field=VectorField(tuple(weights[:grid.dim])),
                      graph=RegularizedGraph(a=0.05, latent_heat=0.8, eps=0.1, beta=beta),
                      boundary=boundary)
        rng = np.random.default_rng(seed)
        u, u_old = rng.uniform(-0.4, 0.4, size=(2,) + grid.shape)
        prob = solver._StepProblem(sc, sc.graph.enthalpy_of_temperature(u_old), dt)
        r, powers, e = prob.gradient(u)
        assert np.array_equal(r, step_gradient(prob, u))
        assert np.array_equal(e, sc.graph.enthalpy_of_temperature(u))
        assert all(np.array_equal(g, np.diff(u, axis=ax) / grid.h)
                   for ax, (g, _) in enumerate(powers))
        # a stack of fields gets each field's gradients
        per_field = [prob.faces.gradients(v) for v in (u, u_old)]
        assert all(np.array_equal(g[k], per_field[k][ax]) for k in range(2)
                   for ax, g in enumerate(prob.faces.gradients(np.stack([u, u_old]))))


class TestImplicitStep:
    def test_nan_residual_is_not_accepted(self):
        # |g|^{p-2} overflows at p = 8, so a net flux is inf - inf: the
        # residual is NaN at every iterate and no step may be accepted
        sc = replace(presets.twophase_1d(nodes=9), p=8.0)
        u0 = 1e60 * np.linspace(0.0, 1.0, 9) ** 2
        with np.errstate(all="ignore"), pytest.raises(solver.MaxIterationsError, match="nan"):
            implicit_step(u0, 1e-3, sc)

    def test_zero_fixed_point(self):
        sc = presets.twophase_1d(nodes=21)
        u0 = np.zeros(21)
        u1, diag, _ = implicit_step(u0, 1e-3, sc)
        assert np.array_equal(u1, u0)
        assert diag.residual <= diag.tolerance

    def test_constant_steady_state(self):
        sc = presets.constant_preset(nodes=21, value=0.4)
        u0 = build_initial(sc.grid, sc.initial)
        u1, _, _ = implicit_step(u0, 5e-3, sc)
        assert np.max(np.abs(u1 - u0)) < 1e-12

    def test_per_step_conservation(self):
        sc = presets.twophase_1d(nodes=41)
        u = build_initial(sc.grid, sc.initial)
        vol = sc.grid.volume_weights()
        for _ in range(5):
            e_before = float(np.sum(sc.graph.enthalpy_of_temperature(u) * vol))
            u, _, _ = implicit_step(u, 5e-4, sc)
            e_after = float(np.sum(sc.graph.enthalpy_of_temperature(u) * vol))
            assert abs(e_after - e_before) <= 1e-10 * (1.0 + abs(e_before))

    def test_bad_dt(self):
        sc = presets.constant_preset()
        u0 = build_initial(sc.grid, sc.initial)
        with pytest.raises(ValueError):
            implicit_step(u0, 0.0, sc)

    def test_nonfinite_input(self):
        sc = presets.constant_preset()
        u0 = build_initial(sc.grid, sc.initial)
        u0[3] = np.nan
        with pytest.raises(solver.NonfiniteValueError):
            implicit_step(u0, 1e-3, sc)

    def test_energy_decrease_recorded(self):
        sc = presets.twophase_1d(nodes=41, t_end=0.005, dt=5e-4)
        traj = run_simulation(sc)
        assert all(d.energy_decreased for d in traj.diagnostics)


# The scenario axes the random runs draw besides the grid and the data: the
# temperature map, per-axis weights (2D) and the boundary.
BETAS = st.one_of(
    st.just(BetaMap()),
    st.builds(lambda lo, hi: BetaMap(kind="piecewise", knots=(-2.0, 0.0, 2.0),
                                     values=(-2.0 * lo, 0.0, 2.0 * hi)),
              st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
    st.builds(lambda mu, tau: BetaMap(kind="tanh", mu=mu, tau=tau),
              st.floats(-0.5, 1.0), st.floats(0.1, 1.0)))
WEIGHTS_2D = st.tuples(st.floats(0.2, 5.0), st.floats(0.2, 5.0))


def boundaries(dim):
    """Zero flux, or Dirichlet values at both ends of each axis."""
    ends = st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5))
    return st.one_of(st.just(Boundary()),
                     st.builds(lambda v: Boundary("dirichlet", v), st.tuples(*[ends] * dim)))


def assert_conserves_and_orders(traj):
    """The enthalpy total is conserved under zero flux, and every stored
    state stays within the range of the (pinned) initial state."""
    if traj.scenario.boundary.kind == "zero-flux":
        assert conservation_defect(traj) <= 1e-10
    lo, hi = float(traj.temps[0].min()), float(traj.temps[0].max())
    for u in traj.temps:
        assert float(u.max()) <= hi + 1e-9
        assert float(u.min()) >= lo - 1e-9


class TestRunSimulation:
    def test_zero_horizon(self):
        sc = presets.twophase_1d(nodes=21, t_end=0.0)
        traj = run_simulation(sc)
        assert len(traj.times) == 1 and traj.times[0] == 0.0

    def test_enthalpy_conservation_zero_flux(self):
        sc = presets.twophase_1d(nodes=61, t_end=0.02, dt=5e-4)
        traj = run_simulation(sc)
        assert conservation_defect(traj) <= 1e-10

    @pytest.mark.parametrize("block_elements", [solver.BLOCK_ELEMENTS, 64])
    @pytest.mark.parametrize("sc", [
        replace(presets.twophase_1d(nodes=21, t_end=0.05, dt=2.5e-4), store_every=1),
        replace(presets.twophase_1d(nodes=21, t_end=0.05, dt=2.5e-4), store_every=3),
        presets.twophase_2d(p=3.0, nodes=17, t_end=0.01),
    ], ids=["1d-every-1", "1d-every-3", "2d"])
    def test_enthalpy_totals_equal_per_time_sums(self, monkeypatch, sc, block_elements):
        # Blocked row sums must give each stored time's np.sum bit for bit,
        # whether the times fill one block or many.
        traj = run_simulation(sc)
        vol = traj.grid.volume_weights()
        per_time = np.array([float(np.sum(e * vol)) for e in traj.enthalpies])
        monkeypatch.setattr(solver, "BLOCK_ELEMENTS", block_elements)
        totals = enthalpy_totals(traj)
        assert totals.dtype == np.float64 and totals.shape == per_time.shape
        assert np.array_equal(totals, per_time)

    def test_step_residuals_recorded(self):
        sc = presets.twophase_1d(nodes=31, t_end=0.005, dt=5e-4)
        traj = run_simulation(sc)
        assert all(d.residual <= d.tolerance for d in traj.diagnostics)

    def test_determinism(self):
        sc = presets.twophase_1d(nodes=41, t_end=0.01, dt=5e-4)
        h1 = run_simulation(sc).trajectory_hash()
        h2 = run_simulation(sc).trajectory_hash()
        assert h1 == h2

    def test_max_principle(self):
        sc = presets.twophase_1d(nodes=41, t_end=0.02, dt=5e-4)
        traj = run_simulation(sc)
        u0 = traj.temps[0]
        lo, hi = float(u0.min()), float(u0.max())
        for u in traj.temps:
            assert float(u.max()) <= hi + 1e-9
            assert float(u.min()) >= lo - 1e-9

    def test_comparison_principle_sample(self):
        rng = np.random.default_rng(5)
        for p in (2.0, 3.0):
            base = rng.uniform(-0.2, 0.2)
            amps = tuple(rng.normal(0, 0.2, size=2))
            sc = presets.twophase_1d(p=p, nodes=31, t_end=0.004, dt=4e-4)
            scA = replace(sc, initial=InitialData.of("fourier", base=base, amps=amps,
                                                     freqs=(1.0, 2.0)))
            scB = replace(sc, initial=InitialData.of("fourier", base=base + 0.15, amps=amps,
                                                     freqs=(1.0, 2.0)))
            ta, tb = run_simulation(scA), run_simulation(scB)
            worst = max(float(np.max(ua - ub)) for ua, ub in zip(ta.temps, tb.temps))
            assert worst <= 1e-9

    def test_dissipation_profile_monotone(self):
        sc = presets.twophase_1d(nodes=41, t_end=0.02, dt=5e-4)
        traj = run_simulation(sc)
        prof = dissipation_profile(traj)
        assert np.all(np.diff(prof) <= 1e-10 * (1.0 + abs(prof[0])))

    def test_dirichlet_pinning(self):
        sc = presets.melting_front_1d(nodes=51, t_end=0.01, dt=1e-3, eps=0.05)
        traj = run_simulation(sc)
        for u in traj.temps:
            assert u[0] == pytest.approx(1.0, abs=1e-14)
            assert u[-1] == pytest.approx(0.0, abs=1e-14)

    def test_intrinsic_dt_policy(self):
        sc = replace(presets.twophase_1d(nodes=21, t_end=0.002),
                     dt=DtPolicy(kind="intrinsic", safety=0.5))
        traj = run_simulation(sc)
        assert traj.times[-1] == pytest.approx(0.002, rel=1e-9)
        assert len(traj.times) > 2

    def test_heat_reference_against_refined(self):
        coarse = run_simulation(presets.heat_smooth_1d(nodes=41, dt=1e-3))
        fine = run_simulation(presets.heat_smooth_1d(nodes=161, dt=2.5e-4))
        err = np.max(np.abs(coarse.temps[-1] - fine.temps[-1][::4]))
        assert err < 1e-3

    def test_2d_run_conserves_and_orders(self):
        sc = presets.twophase_2d(p=3.0, nodes=17, dt=1e-3, t_end=0.01)
        traj = run_simulation(sc)
        assert conservation_defect(traj) <= 1e-10
        u0 = traj.temps[0]
        for u in traj.temps:
            assert float(u.max()) <= float(u0.max()) + 1e-9
            assert float(u.min()) >= float(u0.min()) - 1e-9
        assert run_simulation(sc).trajectory_hash() == traj.trajectory_hash()

    def test_2d_dirichlet_pinning(self):
        sc = replace(presets.twophase_2d(p=3.0, nodes=17, dt=1e-3, t_end=0.01),
                     boundary=Boundary(kind="dirichlet", values=((0.4, -0.3), (0.2, -0.1))))
        traj = run_simulation(sc)
        assert len(traj.temps) == 11
        for u in traj.temps:
            # The axis-1 ends are pinned last, so they own the corners.
            assert np.max(np.abs(u[0, 1:-1] - 0.4)) <= 1e-14
            assert np.max(np.abs(u[-1, 1:-1] + 0.3)) <= 1e-14
            assert np.max(np.abs(u[:, 0] - 0.2)) <= 1e-14
            assert np.max(np.abs(u[:, -1] + 0.1)) <= 1e-14
        assert all(d.residual <= d.tolerance for d in traj.diagnostics)
        assert not any(d.used_fallback for d in traj.diagnostics)
        assert run_simulation(sc).trajectory_hash() == traj.trajectory_hash()

    @given(p=st.floats(2.0, 4.0),
           nodes=st.integers(9, 15),
           base=st.floats(-0.3, 0.3),
           modes=st.lists(st.tuples(st.floats(-0.5, 0.5), st.integers(1, 3)),
                          min_size=1, max_size=3),
           beta=BETAS, weights=WEIGHTS_2D, boundary=boundaries(2))
    @settings(max_examples=50, deadline=None)
    def test_random_2d_scenarios(self, p, nodes, base, modes, beta, weights, boundary):
        h = 1.0 / 14
        amps, freqs = zip(*modes)
        sc = Scenario(
            grid=Grid(2, nodes, (nodes - 1) * h),
            p=p,
            graph=RegularizedGraph(a=0.0, latent_heat=1.0, eps=0.1, beta=beta),
            field=VectorField(weights),
            initial=InitialData.of("fourier", base=base, amps=amps, freqs=freqs),
            boundary=boundary,
            t_end=3e-3,
            dt=DtPolicy(value=1e-3),
        )
        traj = run_simulation(sc)
        assert_conserves_and_orders(traj)
        assert run_simulation(sc).trajectory_hash() == traj.trajectory_hash()

    @given(p=st.floats(2.0, 4.0), nodes=st.integers(11, 41),
           latent_heat=st.floats(0.1, 1.0), eps=st.floats(0.02, 0.2),
           data=st.one_of(
               st.builds(lambda level, amplitude, periods, tilt: InitialData.of(
                   "two-phase-sine", level=level, amplitude=amplitude,
                   periods=periods, tilt=tilt),
                   st.floats(-0.3, 0.3), st.floats(0.05, 0.8), st.floats(0.5, 4.0),
                   st.floats(-0.5, 0.5)),
               st.builds(lambda base, modes: InitialData.of(
                   "fourier", base=base, amps=tuple(m[0] for m in modes),
                   freqs=tuple(m[1] for m in modes)),
                   st.floats(-0.3, 0.3),
                   st.lists(st.tuples(st.floats(-0.5, 0.5), st.integers(1, 4)),
                            min_size=1, max_size=3))),
           beta=BETAS, boundary=boundaries(1))
    @settings(max_examples=50, deadline=None)
    # A trial taken on its energy raised the residual, the next one taken on
    # a residual decrease against that raised value raised the energy, and
    # the line search cycled between the two until the Newton iteration cap.
    @example(p=3.5, nodes=12, latent_heat=0.5, eps=0.021484375,
             data=InitialData.of("two-phase-sine", level=0.25, amplitude=0.28125,
                                 periods=4.0, tilt=0.0), beta=BetaMap(), boundary=Boundary())
    def test_random_1d_scenarios(self, p, nodes, latent_heat, eps, data, beta, boundary):
        sc = Scenario(
            grid=Grid(1, nodes),
            p=p,
            graph=RegularizedGraph(a=0.0, latent_heat=latent_heat, eps=eps, beta=beta),
            initial=data,
            boundary=boundary,
            t_end=4e-3,
            dt=DtPolicy(value=1e-3),
        )
        traj = run_simulation(sc)
        assert_conserves_and_orders(traj)
        assert run_simulation(sc).trajectory_hash() == traj.trajectory_hash()

    @given(dim=st.sampled_from([1, 2]), p=st.floats(2.0, 4.0), base=st.floats(-0.3, 0.3),
           modes=st.lists(st.tuples(st.floats(-0.5, 0.5), st.integers(1, 3)),
                          min_size=1, max_size=3),
           beta=BETAS, weights=WEIGHTS_2D, boundary=boundaries(2), gap=st.floats(0.01, 0.5))
    @settings(max_examples=25, deadline=None)
    def test_random_comparison(self, dim, p, base, modes, beta, weights, boundary, gap):
        # Initial and Dirichlet data raised by a gap keep the solution above.
        amps, freqs = zip(*modes)
        nodes = 21 if dim == 1 else 11

        def solve(shift):
            dirichlet = tuple((lo + shift, hi + shift) for lo, hi in boundary.values[:dim])
            return run_simulation(Scenario(
                grid=Grid(dim, nodes), p=p,
                graph=RegularizedGraph(a=0.0, latent_heat=1.0, eps=0.1, beta=beta),
                field=VectorField(weights[:dim]),
                initial=InitialData.of("fourier", base=base + shift, amps=amps, freqs=freqs),
                boundary=Boundary("dirichlet", dirichlet) if dirichlet else Boundary(),
                t_end=3e-3, dt=DtPolicy(value=1e-3)))

        low, high = solve(0.0), solve(gap)
        assert np.all(low.temps[0] <= high.temps[0])
        for u_lo, u_hi in zip(low.temps, high.temps):
            assert float(np.max(u_lo - u_hi)) <= 1e-9


class TestNewtonSolve1D:
    def test_singular_system_raises(self):
        sc = presets.twophase_1d(nodes=21)
        u = build_initial(sc.grid, sc.initial)
        prob = solver._StepProblem(sc, sc.graph.enthalpy_of_temperature(u), 1e-3)
        with pytest.raises(np.linalg.LinAlgError):
            prob._solve_1d(np.zeros(21), np.zeros(20), prob.gradient(u)[0])

    def test_singular_system_takes_reported_fallback(self, monkeypatch):
        sc = presets.twophase_1d(nodes=41)
        u = build_initial(sc.grid, sc.initial)
        infos = []
        gtsv = solver._gtsv()

        def recording_gtsv(*args):
            out = gtsv(*args)
            infos.append(out[-1])
            return out

        solve_1d = solver._StepProblem._solve_1d

        def zero_first_matrix(prob, diag, c, r):
            if not infos:
                diag, c = np.zeros_like(diag), np.zeros_like(c)
            return solve_1d(prob, diag, c, r)

        monkeypatch.setattr(solver, "_gtsv", lambda: recording_gtsv)
        monkeypatch.setattr(solver._StepProblem, "_solve_1d", zero_first_matrix)
        u1, diag, _ = implicit_step(u, 5e-4, sc)
        assert infos[0] > 0 and all(info == 0 for info in infos[1:])
        assert diag.used_fallback
        assert diag.residual <= diag.tolerance
        monkeypatch.undo()
        ref, ref_diag, _ = implicit_step(u, 5e-4, sc)
        assert not ref_diag.used_fallback
        assert np.max(np.abs(u1 - ref)) <= 1e-12


_IMPORT_PROBE = """
import json, sys
{first}
import stefanlab, stefanlab.cli, stefanlab.studies, stefanlab.presets
from stefanlab import cli, presets, solver

loaded = lambda: sorted(m for m in sys.modules if m.startswith("scipy"))
before = loaded()
codes = [cli.main(["validate", sys.argv[1]]), cli.main(["presets"])]
solver.run_simulation(presets.twophase_2d(p=3.0, nodes=9, t_end=0.003))
after_2d = loaded()
traj = solver.run_simulation(presets.twophase_1d(nodes=11, t_end=0.003, dt=1e-3))
after_1d = loaded()
import scipy.linalg.lapack
print(json.dumps({{"before": before, "codes": codes, "after_2d": after_2d,
                  "flapack": "scipy.linalg._flapack" in after_1d,
                  "linalg": "scipy.linalg" in after_1d,
                  "same_dgtsv": solver._gtsv() is scipy.linalg.lapack.dgtsv,
                  "hash": traj.trajectory_hash()}}))
"""


def _import_probe(tmp_path, first=""):
    ini = tmp_path / "config.ini"
    ini.write_text("[scenario]\npreset = stefan-1d-p2-twophase\nnodes = 11\n")
    src = str(Path(solver.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE.format(first=first), str(ini)],
                         env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def test_scipy_is_imported_only_by_the_first_1d_solve(tmp_path):
    # scipy serves only the 1D gtsv: importing the package, validate,
    # presets and a 2D run must load no scipy module, and the 1D solve must
    # load only LAPACK's extension, not the scipy.linalg package.  Whichever
    # loads it first, stefanlab and scipy.linalg share one dgtsv, and the
    # trajectory is the one a process with scipy imported up front gives.
    lazy = _import_probe(tmp_path)
    assert lazy["codes"] == [0, 0]
    assert lazy["before"] == [] and lazy["after_2d"] == []
    assert lazy["flapack"] and not lazy["linalg"]
    assert lazy["same_dgtsv"]
    eager = _import_probe(tmp_path, first="import scipy.linalg.lapack")
    assert eager["before"] != [] and eager["flapack"] and eager["linalg"]
    assert eager["same_dgtsv"]
    assert lazy["hash"] == eager["hash"]


_THREADS_PROBE = """
from stefanlab import presets, solver
sc = presets.twophase_2d(p=3.0, nodes=161, dt=1.25e-4, t_end=3 * 1.25e-4)
print(solver.run_simulation(sc).trajectory_hash())
"""


def test_2d_bits_do_not_depend_on_the_blas_thread_count():
    # 161^2 puts 12,960 unknowns in each CG vector, past the length above
    # which OpenBLAS splits one ddot over threads.
    src = str(Path(solver.__file__).resolve().parents[1])
    hashes = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        out = subprocess.run([sys.executable, "-c", _THREADS_PROBE], env=env, check=True,
                             capture_output=True, text=True).stdout
        hashes.append(out.strip())
    assert hashes[0] == hashes[1]


def test_missing_lapack_extension_raises_import_error(monkeypatch):
    real = importlib.machinery.PathFinder.find_spec

    def find_spec(name, path=None, target=None):
        return None if name == "scipy.linalg._flapack" else real(name, path, target)
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec", find_spec)
    with pytest.raises(ImportError, match=r"scipy\.linalg\._flapack"):
        solver._gtsv.__wrapped__()


def newton_state_2d(p, boundary, nodes=21):
    """A nodes x nodes two-phase state, its step problem, its Newton residual
    and the face powers the residual was built from."""
    sc = replace(presets.twophase_2d(p=p, nodes=nodes), boundary=boundary)
    u = build_initial(sc.grid, sc.initial)
    prob = solver._StepProblem(sc, sc.graph.enthalpy_of_temperature(u), sc.dt.value)
    u = solver._apply_pins(sc, u)
    r, powers, _ = prob.gradient(u)
    return prob, u, r, powers


def dense_newton_matrix(prob, u):
    """The Newton matrix assembled entry by entry, pins eliminated symmetrically."""
    n = u.size
    idx = np.arange(n).reshape(u.shape)
    mat = np.diag((prob.vol * prob.sc.graph.enthalpy_prime_of_temperature(u)).ravel())
    for ax, c in enumerate(prob.faces.newton_weights(prob.faces.powers(u), prob.dt)):
        lo = np.take(idx, range(u.shape[ax] - 1), axis=ax).ravel()
        hi = np.take(idx, range(1, u.shape[ax]), axis=ax).ravel()
        for i, j, cf in zip(lo, hi, c.ravel()):
            mat[i, i] += cf
            mat[j, j] += cf
            mat[i, j] -= cf
            mat[j, i] -= cf
    if prob.pin_mask is not None:
        pins = prob.pin_mask.ravel()
        mat[pins, :] = 0.0
        mat[:, pins] = 0.0
        mat[pins, pins] = 1.0
    return mat


BOUNDARIES_2D = [Boundary(),
                 Boundary(kind="dirichlet", values=((0.4, -0.3), (0.2, -0.1)))]


class TestNewtonDirection2D:
    @pytest.mark.parametrize("p", [2.0, 3.0])
    @pytest.mark.parametrize("boundary", BOUNDARIES_2D, ids=lambda b: b.kind)
    def test_matches_dense_solve(self, p, boundary):
        # An odd row length colours the nodes by flat-index parity; an even
        # one is padded with a decoupled column first.
        for nodes in (21, 20):
            prob, u, r, powers = newton_state_2d(p, boundary, nodes)
            d, solved = prob.solve_newton_system(u, r, powers, solver._PCG_RTOL)
            rhs = r.ravel().copy()
            if prob.pin_mask is not None:
                rhs[prob.pin_mask.ravel()] = 0.0
            ref = np.linalg.solve(dense_newton_matrix(prob, u), rhs).reshape(u.shape)
            assert solved
            assert np.max(np.abs(d - ref)) <= 1e-12 * np.max(np.abs(ref))
            if prob.pin_mask is not None:
                assert np.all(d[prob.pin_mask] == 0.0)

    def test_zero_right_hand_side_gives_zero_direction(self):
        # b = 0, hence b_S = 0: CG stops before its first division
        prob, u, r, powers = newton_state_2d(3.0, Boundary(), 20)
        with np.errstate(divide="raise", invalid="raise"):
            d, solved = prob.solve_newton_system(u, np.zeros_like(r), powers, solver._PCG_RTOL)
        assert solved and not d.any() and prob.linear_iterations == 0

    def test_cg_cap_keeps_a_reported_descent_direction(self, monkeypatch):
        pcg = solver._pcg
        monkeypatch.setattr(solver, "_pcg", lambda apply, b, inv_diag, tol, max_iter:
                            pcg(apply, b, inv_diag, tol, 1))
        prob, u, r, powers = newton_state_2d(3.0, Boundary())
        d, solved = prob.solve_newton_system(u, r, powers, solver._PCG_RTOL)
        assert not solved
        assert np.all(np.isfinite(d))
        assert float(np.sum(r * d)) > 0.0
        # The step still converges on these directions and records them.
        _, diag, _ = implicit_step(u, prob.dt, prob.sc)
        assert diag.used_fallback
        assert diag.residual <= diag.tolerance


class TestInexactNewton:
    @pytest.mark.parametrize("p", [2.0, 3.0])
    @pytest.mark.parametrize("boundary", BOUNDARIES_2D, ids=lambda b: b.kind)
    def test_forcing_matches_exact_solves_with_fewer_cg_iterations(
            self, monkeypatch, p, boundary):
        sc = replace(presets.twophase_2d(p=p, nodes=21, t_end=0.01), boundary=boundary)
        traj = run_simulation(sc)
        monkeypatch.setattr(solver, "_forcing_term", lambda *args: solver._PCG_RTOL)
        ref = run_simulation(sc)
        for u, u_ref in zip(traj.temps, ref.temps):
            assert np.max(np.abs(u - u_ref)) <= 1e-12
        if boundary.kind == "zero-flux":
            assert conservation_defect(traj) <= 1e-10
        assert all(d.residual <= d.tolerance and not d.used_fallback
                   for d in traj.diagnostics)
        cg = sum(d.linear_iterations for d in traj.diagnostics)
        assert 0 < cg <= 0.6 * sum(d.linear_iterations for d in ref.diagnostics)

    @pytest.mark.parametrize("sc", [presets.twophase_1d(nodes=41),
                                    presets.twophase_2d(p=3.0, nodes=17)],
                             ids=["1d", "2d"])
    def test_energy_only_at_step_ends_when_residual_accepts(self, monkeypatch, sc):
        calls = {"energy": 0, "gradient": 0}
        for name in calls:
            real = getattr(solver._StepProblem, name)

            def counted(prob, u, real=real, name=name):
                calls[name] += 1
                return real(prob, u)

            monkeypatch.setattr(solver._StepProblem, name, counted)
        u = build_initial(sc.grid, sc.initial)
        for _ in range(3):
            calls.update(energy=0, gradient=0)
            u, diag, _ = implicit_step(u, 1e-3, sc)
            # One residual at the start plus one accepted trial per iteration;
            # convexity settles the energy-decrease flag without an energy.
            assert diag.iterations > 0 and calls["gradient"] == 1 + diag.iterations
            assert calls["energy"] == 0
            assert diag.energy_decreased

    def test_non_decreasing_residual_still_accepts_on_energy(self, monkeypatch):
        sc = presets.twophase_1d(nodes=41)
        u0 = build_initial(sc.grid, sc.initial)
        ref, _, _ = implicit_step(u0, 5e-4, sc)
        residual, energy = solver._StepProblem.residual, solver._StepProblem.energy
        seen = {"residual": 0, "energy": 0}

        def first_trial_not_lower(prob, u):
            seen["residual"] += 1
            r, res, powers, e = residual(prob, u)
            return r, (math.inf if seen["residual"] == 2 else res), powers, e

        def counted_energy(prob, u):
            seen["energy"] += 1
            return energy(prob, u)

        monkeypatch.setattr(solver._StepProblem, "residual", first_trial_not_lower)
        monkeypatch.setattr(solver._StepProblem, "energy", counted_energy)
        u1, diag, _ = implicit_step(u0, 5e-4, sc)
        # The first full step is taken on its energy decrease: the start and
        # the trial energy; convexity settles the final flag; no step is halved.
        assert seen["energy"] == 2
        assert seen["residual"] == 1 + diag.iterations
        assert diag.backtracks == 0
        assert diag.energy_decreased and diag.residual <= diag.tolerance
        assert np.max(np.abs(u1 - ref)) <= 1e-12


def identity_start(u, dt, past):
    """The reference Newton start: the previous state."""
    return u


class TestStartIterate:
    # (scenario, bound on the Newton iterations relative to the reference)
    @pytest.mark.parametrize("make, newton_ratio", [
        # the coarse 1d-p2 headline grid and step over its first 200 steps
        (lambda: presets.twophase_1d(p=2.0, nodes=81, t_end=0.05, dt=2.5e-4), 0.6),
        (lambda: presets.twophase_1d(p=3.0, nodes=41, t_end=0.02, dt=5e-4), None),
        (lambda: presets.melting_front_1d(nodes=51, t_end=0.01, dt=1e-3, eps=0.05), None),
        (lambda: replace(presets.twophase_1d(nodes=31, t_end=0.004),
                         dt=DtPolicy(kind="intrinsic", safety=0.5)), None),
        (lambda: presets.twophase_2d(p=3.0, nodes=17, t_end=0.01), None),
        (lambda: replace(presets.twophase_2d(p=3.0, nodes=17, t_end=0.01),
                         boundary=BOUNDARIES_2D[1]), None),
    ], ids=["1d-p2", "1d-p3", "1d-dirichlet", "1d-intrinsic", "2d-p3", "2d-dirichlet"])
    def test_extrapolated_start_matches_previous_state_start(
            self, monkeypatch, make, newton_ratio):
        sc = make()
        traj = run_simulation(sc)
        monkeypatch.setattr(solver, "_extrapolate", identity_start)
        ref = run_simulation(sc)
        assert traj.times == ref.times
        for u, u_ref in zip(traj.temps, ref.temps):
            assert np.max(np.abs(u - u_ref)) <= 1e-12
        if sc.boundary.kind == "zero-flux":
            assert conservation_defect(traj) <= 1e-10
        assert all(d.residual <= d.tolerance and d.energy_decreased and not d.used_fallback
                   for d in traj.diagnostics)
        if newton_ratio is not None:
            newton = sum(d.iterations for d in traj.diagnostics)
            assert newton <= newton_ratio * sum(d.iterations for d in ref.diagnostics)

    def test_identity_start_is_the_step_from_the_previous_state(self, monkeypatch):
        # With the identity start, run_simulation takes exactly the steps
        # implicit_step takes from the previous state.
        sc = presets.twophase_1d(nodes=31, t_end=0.003, dt=1e-3)
        monkeypatch.setattr(solver, "_extrapolate", identity_start)
        traj = run_simulation(sc)
        u = traj.temps[0]
        for u_next in traj.temps[1:]:
            u, _, _ = implicit_step(u, 1e-3, sc)
            assert np.array_equal(u, u_next)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_start_falls_back_to_previous_state(self, bad):
        sc = presets.twophase_1d(nodes=41)
        u0 = build_initial(sc.grid, sc.initial)
        ref, ref_diag, _ = implicit_step(u0, 5e-4, sc)
        start = u0 + 0.01
        start[7] = bad
        u1, diag, _ = implicit_step(u0, 5e-4, sc, start)
        assert np.array_equal(u1, ref)
        assert diag == ref_diag

    def test_start_shape_checked(self):
        sc = presets.twophase_1d(nodes=41)
        u0 = build_initial(sc.grid, sc.initial)
        with pytest.raises(ShapeMismatchError):
            implicit_step(u0, 5e-4, sc, np.zeros(40))

    def test_pins_applied_to_start(self):
        sc = presets.melting_front_1d(nodes=51, dt=1e-3, eps=0.05)
        u0 = build_initial(sc.grid, sc.initial)
        ref, _, _ = implicit_step(u0, 1e-3, sc)
        u1, diag, _ = implicit_step(u0, 1e-3, sc, ref + 0.05)
        assert u1[0] == 1.0 and u1[-1] == 0.0
        assert diag.residual <= diag.tolerance
        assert np.max(np.abs(u1 - ref)) <= 1e-12

    def test_converged_start_takes_no_newton_step(self):
        sc = presets.twophase_1d(nodes=41)
        u0 = build_initial(sc.grid, sc.initial)
        ref, ref_diag, _ = implicit_step(u0, 5e-4, sc)
        u1, diag, _ = implicit_step(u0, 5e-4, sc, ref)
        assert ref_diag.iterations > 0 and diag.iterations == 0
        assert np.array_equal(u1, ref)

    def test_extrapolation_exact_for_quadratics(self):
        # Variable steps: the quadratic through three states is reproduced
        # at the next time, and a constant state is returned bit for bit.
        times = [0.0, 0.3, 0.45, 0.5]
        coef = np.array([[0.7, -1.3, 2.1], [-0.2, 0.9, 0.0]])

        def state(t):
            return coef[:, 0] + coef[:, 1] * t + coef[:, 2] * t * t

        past = [(state(times[1]), times[2] - times[1]), (state(times[0]), times[1] - times[0])]
        dt = times[3] - times[2]
        start = solver._extrapolate(state(times[2]), dt, past)
        assert np.max(np.abs(start - state(times[3]))) <= 1e-14
        # one earlier state: the line through the two
        linear = solver._extrapolate(state(times[2]), dt, past[:1])
        slope = (state(times[2]) - state(times[1])) / past[0][1]
        assert np.max(np.abs(linear - (state(times[2]) + dt * slope))) <= 1e-15
        flat = np.full(5, 0.1)
        for depth in (0, 1, 2):
            assert np.array_equal(
                solver._extrapolate(flat, 0.7, [(flat.copy(), 0.2), (flat.copy(), 0.3)][:depth]),
                flat)


class TestLineSearch:
    def test_halvings_counted(self, monkeypatch):
        # The first two trials read a non-decreasing residual and an infinite
        # energy, so the step is halved twice before the third is taken.
        sc = presets.twophase_1d(nodes=41)
        u0 = build_initial(sc.grid, sc.initial)
        residual, energy = solver._StepProblem.residual, solver._StepProblem.energy
        calls = {"residual": 0, "energy": 0}

        def rejected_residual(prob, u):
            calls["residual"] += 1
            r, res, powers, e = residual(prob, u)
            return r, (math.inf if calls["residual"] in (2, 3) else res), powers, e

        def rejected_energy(prob, u):
            calls["energy"] += 1
            return math.inf if calls["energy"] in (2, 3) else energy(prob, u)

        monkeypatch.setattr(solver._StepProblem, "residual", rejected_residual)
        monkeypatch.setattr(solver._StepProblem, "energy", rejected_energy)
        u1, diag, _ = implicit_step(u0, 5e-4, sc)
        assert diag.backtracks == 2
        assert diag.residual <= diag.tolerance
        monkeypatch.undo()
        ref, ref_diag, _ = implicit_step(u0, 5e-4, sc)
        assert ref_diag.backtracks == 0
        assert np.max(np.abs(u1 - ref)) <= 1e-12


@st.composite
def step_cases(draw):
    """A small random 1D or 2D scenario, zero-flux or Dirichlet, and a step."""
    dim = draw(st.sampled_from([1, 2]))
    nodes = draw(st.integers(5, 31 if dim == 1 else 11))
    h = 1.0 / 10
    boundary = Boundary()
    if draw(st.booleans()):
        ends = st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5))
        boundary = Boundary(kind="dirichlet", values=tuple(draw(ends) for _ in range(dim)))
    modes = draw(st.lists(st.tuples(st.floats(-0.5, 0.5), st.integers(1, 3)),
                          min_size=1, max_size=3))
    sc = Scenario(
        grid=Grid(dim, nodes, (nodes - 1) * h),
        p=draw(st.floats(2.0, 4.0)),
        graph=RegularizedGraph(a=0.0, latent_heat=draw(st.floats(0.1, 1.0)),
                               eps=draw(st.floats(0.02, 0.2))),
        initial=InitialData.of("fourier", base=draw(st.floats(-0.3, 0.3)),
                               amps=tuple(m[0] for m in modes),
                               freqs=tuple(m[1] for m in modes)),
        boundary=boundary,
    )
    return sc, draw(st.floats(1e-4, 5e-3))


def two_energy_flag(prob, u_start, u):
    """The energy-decrease flag from both step energies, the reference."""
    f_start, f_end = prob.energy(u_start), prob.energy(u)
    return f_end <= f_start + 1e-12 * (1.0 + abs(f_start))


class TestEnergyFlag:
    @given(case=step_cases())
    @settings(max_examples=40, deadline=None)
    def test_flag_matches_two_energies_and_e_old_is_reused(self, case):
        sc, dt = case
        u0 = build_initial(sc.grid, sc.initial)
        u1, _, _ = implicit_step(u0, dt, sc)
        # From the previous state, then from a start close to the minimizer.
        for u_old, start in ((u0, None), (u1, solver._extrapolate(u1, dt, [(u0, dt)]))):
            e_old = sc.graph.enthalpy_of_temperature(u_old)
            u, diag, e = implicit_step(u_old, dt, sc, start, e_old=e_old)
            u_ref, diag_ref, _ = implicit_step(u_old, dt, sc, start)
            assert np.array_equal(u, u_ref) and diag == diag_ref
            # The step returns e at the state it accepted.
            assert np.array_equal(e, sc.graph.enthalpy_of_temperature(u))
            prob = solver._StepProblem(sc, e_old, dt)
            u_start = solver._apply_pins(sc, np.array(u_old if start is None else start))
            expected = two_energy_flag(prob, u_start, u)
            assert diag.energy_decreased == expected
            r, _, _ = prob.gradient(u)
            assert solver._energy_decreased(prob, u_start, u, r, None, None) == expected

    def test_end_pushed_off_the_minimizer_evaluates_both_energies(self, monkeypatch):
        sc = presets.twophase_1d(nodes=41)
        dt = 5e-4
        u0 = build_initial(sc.grid, sc.initial)
        u_min, _, _ = implicit_step(u0, dt, sc)
        prob = solver._StepProblem(sc, sc.graph.enthalpy_of_temperature(u0), dt)
        u_off = u_min + 0.05 * np.cos(3.0 * np.pi * sc.grid.axes()[0])
        r_off, _, _ = prob.gradient(u_off)
        r_min, _, _ = prob.gradient(u_min)
        # Started at the minimizer and ended off it: the convexity bound is
        # inconclusive, and F went up.
        assert float(np.sum(r_off * (u_min - u_off))) < -1e-12
        assert not two_energy_flag(prob, u_min, u_off)
        energy = solver._StepProblem.energy
        calls = []

        def counted_energy(prob, u):
            calls.append(u)
            return energy(prob, u)

        monkeypatch.setattr(solver._StepProblem, "energy", counted_energy)
        assert not solver._energy_decreased(prob, u_min, u_off, r_off, None, None)
        assert len(calls) == 2
        # Energies the line search already has are not evaluated again.
        f_min, f_off = energy(prob, u_min), energy(prob, u_off)
        assert not solver._energy_decreased(prob, u_min, u_off, r_off, f_min, None)
        assert len(calls) == 3
        assert not solver._energy_decreased(prob, u_min, u_off, r_off, f_min, f_off)
        assert len(calls) == 3
        # Ended at the minimizer: the bound settles the flag with no energy.
        assert solver._energy_decreased(prob, u_off, u_min, r_min, None, None)
        assert len(calls) == 3

    @pytest.mark.parametrize("store_every", [1, 3])
    def test_one_enthalpy_lookup_per_state(self, monkeypatch, store_every):
        sc = replace(presets.twophase_1d(nodes=21, t_end=5e-3, dt=5e-4),
                     store_every=store_every)
        lookup, gradient = RegularizedGraph.enthalpy_of_temperature, solver._StepProblem.gradient
        in_gradient, outside = [], []

        def counted_lookup(graph, u):
            if not in_gradient:
                outside.append(u)
            return lookup(graph, u)

        def marked_gradient(prob, u):
            in_gradient.append(u)
            try:
                return gradient(prob, u)
            finally:
                in_gradient.pop()

        monkeypatch.setattr(RegularizedGraph, "enthalpy_of_temperature", counted_lookup)
        monkeypatch.setattr(solver._StepProblem, "gradient", marked_gradient)
        traj = run_simulation(sc)
        # Only the initial state is looked up outside the residual: e at each
        # accepted state is the one the step's last residual looked up.
        assert len(outside) == 1
        for u, e in zip(traj.temps, traj.enthalpies):
            assert np.array_equal(e, lookup(sc.graph, u))

    def test_e_old_shape_checked(self):
        sc = presets.twophase_1d(nodes=21)
        u0 = build_initial(sc.grid, sc.initial)
        with pytest.raises(ShapeMismatchError):
            implicit_step(u0, 1e-3, sc, e_old=np.zeros(20))


def _small_scenario(dim, boundary, beta, p, store_every=1, t_end=4.5e-3):
    """A few steps of two-phase data on a small grid; t_end is not a
    multiple of dt, so the last step is cut short."""
    betas = {"identity": BetaMap(),
             "piecewise": BetaMap(kind="piecewise", knots=(-2.0, 0.0, 2.0),
                                  values=(-1.5, 0.0, 2.5)),
             "tanh": BetaMap(kind="tanh", mu=0.5, tau=0.2)}
    nodes = 21 if dim == 1 else 9
    values = ((0.3, -0.2), (0.1, -0.1))[:dim]
    return Scenario(grid=Grid(dim, nodes), p=p,
                    graph=RegularizedGraph(a=0.0, latent_heat=1.0, eps=0.1, beta=betas[beta]),
                    initial=InitialData.of("two-phase-sine", amplitude=0.5, tilt=0.1),
                    boundary=Boundary("dirichlet", values) if boundary == "dirichlet"
                    else Boundary(), t_end=t_end, dt=DtPolicy(value=1e-3),
                    store_every=store_every)


def _bits(values) -> list[bytes]:
    return [np.asarray(v, dtype=float).tobytes() for v in values]


class TestOneProblemPerRun:
    @given(dim=st.sampled_from([1, 2]), boundary=st.sampled_from(["zero-flux", "dirichlet"]),
           beta=st.sampled_from(["identity", "piecewise", "tanh"]),
           p=st.sampled_from([2.0, 3.0]), store_every=st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_run_is_a_loop_of_public_steps(self, dim, boundary, beta, p, store_every):
        # run_simulation takes each e from the step that accepted its state.
        # Public steps with public lookups, each on its own copy of the
        # scenario and so on cells of its own, give the same bits.
        sc = _small_scenario(dim, boundary, beta, p, store_every)
        traj = run_simulation(sc)
        u = solver._apply_pins(sc, build_initial(sc.grid, sc.initial))
        e = sc.graph.enthalpy_of_temperature(u)
        times, temps, enths, diags, past, t = [0.0], [u], [e], [], [], 0.0
        while t < sc.t_end * (1.0 - 1e-12):
            dt = sc.dt.step(sc.grid, p, u, sc.t_end - t)
            u_new, diag, _ = implicit_step(u, dt, replace(sc),
                                           solver._extrapolate(u, dt, past), e_old=e)
            past = [(u, dt)] + past[:1]
            u, t = u_new, t + dt
            e = sc.graph.enthalpy_of_temperature(u)
            diags.append(diag)
            if len(diags) % store_every == 0 or t >= sc.t_end * (1.0 - 1e-12):
                times.append(t)
                temps.append(u)
                enths.append(e)
        assert _bits(traj.times) == _bits(times)
        assert _bits(traj.temps) == _bits(temps)
        assert _bits(traj.enthalpies) == _bits(enths)
        assert [repr(d) for d in traj.diagnostics] == [repr(d) for d in diags]

    def test_scenario_is_frozen_and_caches_its_cells(self):
        sc = _small_scenario(1, "zero-flux", "identity", 2.0)
        with pytest.raises(FrozenInstanceError):
            sc.boundary = Boundary("dirichlet", ((0.3, -0.2),))
        assert sc._cells is sc._cells
        assert replace(sc)._cells is not sc._cells
        pinned = replace(sc, boundary=Boundary("dirichlet", ((0.3, -0.2),)))
        assert sc._cells[2] is None and pinned._cells[2] is not None

    @pytest.mark.parametrize("dim", [1, 2])
    def test_one_scenario_in_two_threads(self, dim):
        # Steps share nothing but the scenario's frozen cells, so two threads
        # running one scenario object at once give the sequential bits.
        sc = _small_scenario(dim, "dirichlet", "tanh", 3.0, t_end=0.02)
        ref = run_simulation(replace(sc)).trajectory_hash()
        barrier = threading.Barrier(2)

        def run(_):
            barrier.wait(timeout=60)
            return run_simulation(sc).trajectory_hash()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)   # switch threads as often as possible
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                hashes = list(pool.map(run, range(2), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert hashes == [ref, ref]


class TestWeakFormGate:
    @given(dim=st.sampled_from([1, 2]), boundary=st.sampled_from(["zero-flux", "dirichlet"]),
           beta=st.sampled_from(["identity", "piecewise", "tanh"]),
           p=st.sampled_from([2.0, 3.0]), store_every=st.integers(1, 3),
           weights=st.tuples(st.floats(0.2, 5.0), st.floats(0.2, 5.0)), loose=st.booleans())
    # Steps stopped at residuals near 1e-6: the residual would exceed the
    # rounding allowance alone; the step residuals bound it.
    @example(dim=1, boundary="zero-flux", beta="tanh", p=3.0, store_every=1,
             weights=(1.0, 1.0), loose=True)
    @settings(max_examples=40, deadline=None)
    def test_scheme_identity_gates_every_stored_run(self, dim, boundary, beta, p,
                                                   store_every, weights, loose):
        # With every step stored, the scheme's weak form is the steps'
        # residuals paired with the bump: it meets the bound they give.
        # With steps left unstored it is a consistency defect: no verdict.
        sc = replace(_small_scenario(dim, boundary, beta, p, store_every),
                     field=VectorField(weights[:dim]))
        with pytest.MonkeyPatch.context() as mp:
            if loose:
                mp.setattr(solver, "_STEP_RTOL", 1e-6)
                mp.setattr(solver, "_POLISH_RTOL", 1e-6)
            traj = run_simulation(sc)
        ledger = studies.default_ledger(sc)
        site = studies.check_site(traj, studies.measurement_params(ledger, r0=0.25), ledger,
                                  (0.5,) * dim)
        entry, report = studies.CHECKS["weakform"].run(traj, site)
        assert report is None
        if store_every == 1:
            assert entry["pass"] is True and entry["margin"] >= 0.0
        else:
            assert entry == {"gate": False, "residual": entry["residual"]}


def neumann_front_factor(hot, jump, cold, latent):
    """Similarity growth rate: bisection on the classical transcendental
    equation balancing the heat fluxes against the latent heat at the front."""
    from scipy.special import erf, erfc

    def f(lam):
        liquid = (hot - jump) * math.exp(-lam * lam) / erf(lam)
        solid = (jump - cold) * math.exp(-lam * lam) / erfc(lam)
        return liquid - solid - latent * lam * math.sqrt(math.pi)

    lo, hi = 1e-8, 1.0
    while f(hi) > 0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def front_position(u, x, level):
    idx = np.nonzero(u >= level)[0]
    i = int(idx[-1])
    if i + 1 >= u.size:
        return float(x[i])
    return float(x[i] + (u[i] - level) / (u[i] - u[i + 1]) * (x[i + 1] - x[i]))


class TestMeltingFront:
    def test_front_tracks_similarity_law(self):
        # eps must stay above the resolvable width 2h at this resolution
        sc = presets.melting_front_1d(nodes=200, t_end=0.15, dt=1e-3, eps=0.012)
        traj = run_simulation(sc)
        lam = neumann_front_factor(1.0, sc.graph.a, 0.0, sc.graph.latent_heat)
        x = traj.grid.axes()[0]
        m = traj.nearest_time_index(0.15)
        s_num = front_position(traj.temps[m], x, sc.graph.a)
        s_exact = 2.0 * lam * math.sqrt(traj.times[m])
        assert abs(s_num - s_exact) / s_exact < 0.03


class TestWeakFormResidual:
    def test_bump_on_a_time_column_matches_each_time(self):
        # The checks evaluate test functions on blocks of stored times; each
        # row must be what evaluating at that one time gives, bit for bit.
        # (With ** 2 in the time part, 9 of these rows differed in the
        # last bit.)
        bump = SpaceTimeBump(center=(0.5,), width=0.3, t_center=0.5, t_width=0.6)
        ts = np.linspace(0.0, 1.0, 20001)
        xs = (np.array([0.6]),)
        values = bump.value(xs, ts[:, None])[:, 0]
        grads = bump.gradient(xs, ts[:, None])[0][:, 0]
        assert np.array_equal(values, [bump.value(xs, t)[0] for t in ts])
        assert np.array_equal(grads, [bump.gradient(xs, t)[0][0] for t in ts])

    def test_zero_test_function(self):
        traj = run_simulation(presets.twophase_1d(nodes=31, t_end=0.01, dt=1e-3))
        res = centered_weak_form_residual(traj, ConstantInSpace(lambda t: 0.0),
                                          (0.0, traj.times[-1]))
        assert res["residual"] == 0.0

    def test_constant_in_space_reduces_to_conservation(self):
        traj = run_simulation(presets.twophase_1d(nodes=61, t_end=0.02, dt=5e-4))
        res = centered_weak_form_residual(traj, ConstantInSpace(lambda t: 1.0 + 3.0 * t),
                                          (0.0, traj.times[-1]))
        assert abs(res["residual"]) <= 1e-10

    def test_2d_p3_residual_converges_under_refinement(self):
        # In 2D with p > 2 the scheme solves the orthotropic equation
        # d_t e = sum_i d_i(|d_i u|^{p-2} d_i u); checked against it, the
        # residual falls as O(h^2).
        def residual(nodes):
            tr = run_simulation(presets.twophase_2d(p=3.0, nodes=nodes, t_end=0.02))
            bump = SpaceTimeBump(center=(0.4, 0.55), width=0.3, t_center=0.01, t_width=0.012)
            return abs(centered_weak_form_residual(tr, bump, (0.0, tr.times[-1]))["residual"])

        assert residual(41) <= 0.35 * residual(21)

    def test_bump_residual_halves_under_refinement(self):
        def residual(nodes, dt):
            tr = run_simulation(presets.twophase_1d(nodes=nodes, t_end=0.02, dt=dt))
            bump = SpaceTimeBump(center=(0.5,), width=0.3, t_center=0.01, t_width=0.012)
            return abs(centered_weak_form_residual(tr, bump, (0.0, tr.times[-1]))["residual"])

        r_base = residual(61, 5e-4)
        r_fine = residual(121, 2.5e-4)
        assert r_fine <= 0.6 * r_base

    def test_lateral_boundary_violation_rejected(self):
        traj = run_simulation(presets.twophase_1d(nodes=31, t_end=0.01, dt=1e-3))
        wide = SpaceTimeBump(center=(0.5,), width=2.0)  # does not vanish on the ring
        with pytest.raises(ValueError):
            centered_weak_form_residual(traj, wide, (0.0, traj.times[-1]),
                                        region=((0.2,), (0.8,)))

    def test_interior_region_accepted(self):
        traj = run_simulation(presets.twophase_1d(nodes=61, t_end=0.01, dt=1e-3))
        bump = SpaceTimeBump(center=(0.5,), width=0.2)
        res = centered_weak_form_residual(traj, bump, (0.0, traj.times[-1]),
                                          region=((0.2,), (0.8,)))
        assert math.isfinite(res["residual"])

    def test_window_out_of_bounds(self):
        traj = run_simulation(presets.twophase_1d(nodes=31, t_end=0.01, dt=1e-3))
        with pytest.raises(ValueError):
            centered_weak_form_residual(traj, ConstantInSpace(lambda t: 1.0), (0.0, 1.0))


class TestRescaledWeakForm:
    def test_rescaled_trajectory_satisfies_identity(self):
        traj = run_simulation(presets.twophase_1d(nodes=61, t_end=0.02, dt=5e-4))
        res_base = centered_weak_form_residual(traj, ConstantInSpace(lambda t: 1.0),
                                               (0.0, traj.times[-1]))
        doubled = rescale_solution(traj, 2.0)
        res_scaled = centered_weak_form_residual(doubled, ConstantInSpace(lambda t: 1.0),
                                                 (doubled.times[0], doubled.times[-1]))
        assert abs(res_base["residual"]) <= 1e-10
        assert abs(res_scaled["residual"]) <= 1e-10
