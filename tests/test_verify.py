"""Inequality-harness tests: degenerate cases from first principles, measured
constants on solved scenarios, the measure dichotomy with a recount oracle,
scale covariance of every report, and the modulus measurement."""

import math
from dataclasses import replace

import numpy as np
import pytest

from stefanlab import presets, solver, studies, verify
from stefanlab.constants import fix_constants
from stefanlab.graphs import RegularizedGraph
from stefanlab.geometry import IntrinsicCylinder, NotMeasurable, cylinder, omega
from stefanlab.solver import InitialData, Trajectory, run_simulation

from helpers import (SpaceTimeBump, centered_weak_form_residual, forwarded_level_fraction,
                     rescale_solution)


@pytest.fixture(scope="module")
def bump_run():
    sc = presets.positive_bump_1d(p=3.0, nodes=61, t_end=0.05)
    return sc, run_simulation(sc)


@pytest.fixture(scope="module")
def constant_run_p3():
    sc = presets.constant_preset(nodes=21, value=1.0, p=3.0, t_end=0.02, dt=1e-3)
    return sc, run_simulation(sc)


def _fitting_cylinder(traj, params, r, frac=0.8):
    center = ((0.5,) * traj.grid.dim, traj.times[-1])
    cyl = cylinder(params, center, r, "full")
    budget = frac * (traj.times[-1] - traj.times[0])
    if cyl.depth > budget:
        cyl = IntrinsicCylinder(center_space=cyl.center_space,
                                center_time=cyl.center_time, radius=cyl.radius,
                                depth=budget, flavor="full")
    return cyl


class TestCaccioppoli:
    def test_degenerate_constant_solution(self, constant_run_p3):
        sc, traj = constant_run_p3
        params = studies.measurement_params(studies.default_ledger(sc), r0=0.3)
        cyl = _fitting_cylinder(traj, params, 0.3)
        rep = verify.caccioppoli_check(traj, 1.0, cyl)
        assert rep.degenerate and rep.passed
        assert rep.lhs == 0.0 and rep.rhs_core == 0.0

    def test_level_above_maximum(self, bump_run):
        sc, traj = bump_run
        params = studies.measurement_params(studies.default_ledger(sc), r0=0.25)
        cyl = _fitting_cylinder(traj, params, 0.25)
        rep = verify.caccioppoli_check(traj, 10.0, cyl)
        assert rep.degenerate
        assert rep.lhs == 0.0

    def test_finite_constant_on_solved_run(self, bump_run):
        sc, traj = bump_run
        params = studies.measurement_params(studies.default_ledger(sc), r0=0.25)
        cyl = _fitting_cylinder(traj, params, 0.25)
        rep = verify.caccioppoli_check(traj, 0.5, cyl)
        assert not rep.degenerate
        assert rep.implied_constant is not None and rep.implied_constant > 0.0
        assert math.isfinite(rep.implied_constant)
        for key in ("sup_jump_term", "sup_square_term", "gradient_term"):
            assert rep.details[key] >= 0.0

    def test_jump_free_constant_independent_of_latent_heat(self):
        # with the jump far above the solution range the check must follow
        # the plain-diffusion code path exactly: bitwise-equal constants
        reps = []
        for lh in (1.0, 0.3):
            sc = presets.heat_smooth_1d(nodes=41, dt=1e-3, latent_heat=lh)
            traj = run_simulation(sc)
            params = studies.measurement_params(studies.default_ledger(sc), r0=0.25)
            cyl = _fitting_cylinder(traj, params, 0.25)
            reps.append(verify.caccioppoli_check(traj, 0.55, cyl))
        assert reps[0].implied_constant == reps[1].implied_constant
        assert reps[0].details["sup_jump_term"] == 0.0
        assert reps[0].details["rhs_jump"] == 0.0


class TestTruncation:
    def test_constant_above_level(self, constant_run_p3):
        sc, traj = constant_run_p3
        g = traj.graph
        rep = verify.truncation_supersolution_check(
            traj, g.a - 2 * g.eps, ((0.2,), (0.8,)))
        # w == 1 everywhere, min(k, w) == k: the weak form telescopes to zero
        assert abs(rep.details["worst_supersolution_residual"]) < 1e-14
        assert rep.passed

    def test_hypothesis_violation(self, bump_run):
        sc, traj = bump_run
        g = traj.graph
        with pytest.raises(ValueError):
            verify.truncation_supersolution_check(traj, g.a, ((0.2,), (0.8,)))

    def test_active_truncation_residuals(self, bump_run):
        sc, traj = bump_run
        g = traj.graph
        rep = verify.truncation_supersolution_check(
            traj, g.a - 1.5 * g.eps, ((0.15,), (0.85,)))
        assert rep.passed
        assert rep.details["worst_supersolution_residual"] >= -1e-8
        assert rep.details["worst_subsolution_residual"] <= 1e-8

    def test_seeded_family_reproducible(self, bump_run):
        sc, traj = bump_run
        g = traj.graph
        args = (traj, g.a - 1.5 * g.eps, ((0.15,), (0.85,)))
        a = verify.truncation_supersolution_check(*args, rng_seed=7)
        b = verify.truncation_supersolution_check(*args, rng_seed=7)
        c = verify.truncation_supersolution_check(*args, rng_seed=8)
        assert a.margin == b.margin
        assert a.passed and c.passed

    @pytest.mark.parametrize("dim", [1, 2])
    def test_shared_pass_matches_per_pair_loop(self, dim):
        # One pass over the stored times must give what evaluating each
        # (fields, test function) pair on its own gives: bit for bit in 1D,
        # where the arithmetic is the same, and to rounding in 2D, where the
        # dual area multiplies in another order.
        if dim == 1:
            sc = presets.twophase_1d(p=3.0, nodes=41, t_end=0.01, dt=1e-3)
        else:
            sc = presets.twophase_2d(p=3.0, nodes=13, t_end=0.005, dt=1e-3)
        traj = run_simulation(sc)
        k = sc.graph.a - 1.5 * sc.graph.eps
        field_maps, field_sets = _truncations(traj, k)
        lo, hi = (0.15,) * dim, (0.85,) * dim
        t_end = traj.times[-1]
        # Time-dependent bumps, so the time terms do not vanish.
        phis = [SpaceTimeBump(b.center, b.width, t_center=0.5 * t_end, t_width=0.6 * t_end).value
                for b in verify._test_function_family(lo, hi, rng_seed=3)]
        w = traj.w_fields
        got = solver.weak_form_residual(traj, w, w, field_maps, phis)
        for fields, row in zip(field_sets, got):
            for phi_fn, pair in zip(phis, row):
                ref = per_pair_weak_residual(traj, fields, phi_fn)
                if dim == 1:
                    assert pair == ref
                else:
                    assert pair == pytest.approx(ref, rel=1e-12, abs=1e-15)


def _truncations(traj, k):
    """The truncation check's two field maps min(w, k) and (k - w)_+, and
    the field sequences they give, one stored time at a time."""
    field_maps = [lambda w: np.minimum(w, k), lambda w: np.maximum(k - w, 0.0)]
    return field_maps, [[f(w) for w in traj.w_fields] for f in field_maps]


def per_pair_weak_residual(traj, fields, phi_fn):
    """Telescoping time term plus face fluxes against face differences of
    phi, for one field sequence and one test function, written out loop by
    loop; returns (residual, scale)."""
    grid, p, h = traj.grid, traj.p, traj.grid.h
    vol = grid.volume_weights()
    times = np.asarray(traj.times)
    phis = [np.asarray(phi_fn(traj.grid.meshgrid(), t)) for t in times]
    last = len(times) - 1
    r_val = (float(np.sum(vol * fields[last] * phis[last]))
             - float(np.sum(vol * fields[0] * phis[0])))
    scale = abs(r_val)
    for j in range(last):
        term = -float(np.sum(vol * fields[j] * (phis[j + 1] - phis[j])))
        r_val += term
        scale += abs(term)
    for j in range(1, last + 1):
        term = 0.0
        for ax in range(grid.dim):
            d = np.diff(fields[j], axis=ax) / h
            cell = np.abs(d) ** (p - 2.0) * d * (np.diff(phis[j], axis=ax) / h) * h
            if grid.dim == 2:
                area = np.full(grid.nodes, h)
                area[0] = area[-1] = 0.5 * h
                cell = cell * (area[None, :] if ax == 0 else area[:, None])
            term += float(np.sum(cell))
        term *= float(times[j] - times[j - 1])
        r_val += term
        scale += abs(term)
    return r_val, 1.0 + scale


# ---------------------------------------------------------------------------
# Blocks of stored times against one-time-at-a-time reference loops
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module", params=[(1, 13), (1, 2), (2, 10), (2, 2)],
                ids=["1d-13-times", "1d-2-times", "2d-10-times", "2d-2-times"])
def blocked_run(request):
    # 13 and 10 stored times: neither the times nor the steps between them
    # fill whole blocks of 7.
    dim, count = request.param
    dt = 1e-3
    make = presets.twophase_1d if dim == 1 else presets.twophase_2d
    sc = make(p=3.0, nodes=41 if dim == 1 else 13, t_end=(count - 1) * dt, dt=dt)
    traj = run_simulation(sc)
    assert len(traj.times) == count
    return traj


@pytest.fixture(params=[1, 7, None], ids=["rows-1", "rows-7", "rows-default"])
def block_rows(request, monkeypatch):
    """Sets the block size to this many stored-time pairs per block on a
    grid of `size` nodes (None keeps the default)."""
    def apply(size):
        if request.param is not None:
            monkeypatch.setattr(solver, "BLOCK_ELEMENTS", request.param * size)
    return apply


def _whole_run_cylinder(traj, r=0.3):
    params = studies.measurement_params(studies.default_ledger(traj.scenario), r0=r)
    cyl = cylinder(params, ((0.5,) * traj.grid.dim, traj.times[-1]), r, "full")
    return replace(cyl, depth=traj.times[-1] - traj.times[0])


def per_time_caccioppoli(traj, k, cyl):
    """The terms of `caccioppoli_check`, one stored time at a time."""
    grid, p, graph = traj.grid, traj.p, traj.graph
    faces = solver._Faces(grid, p, traj.scenario.field.weights)
    lh = graph.latent_heat
    mask = traj.ball_mask(cyl.center_space, cyl.ball_radius)
    t_idx = traj.time_indices(*cyl.time_window)
    vol = grid.volume_weights()
    ball_vol = float(np.sum(vol[mask]))
    phi_space = verify._cutoff_space(traj, cyl)
    times = np.asarray(traj.times)[t_idx]
    phi_time = verify._cutoff_time(times, cyl)

    def ball_mean(a):
        return float(np.sum((a * vol)[mask])) / ball_vol

    def node_average(face_vals):
        out = None
        for ax, f in enumerate(face_vals):
            pad = [(0, 0)] * grid.dim
            pad[ax] = (1, 1)
            fp = np.pad(f, pad)
            term = 0.5 * (np.take(fp, range(fp.shape[ax] - 1), axis=ax)
                          + np.take(fp, range(1, fp.shape[ax]), axis=ax))
            out = term if out is None else out + term
        return out

    sup_jump = sup_sq = grad = rhs_grad = rhs_time = rhs_jump = total = 0.0
    for j, m in enumerate(t_idx):
        w = traj.w_fields[m]
        phi = phi_space * phi_time[j]
        vk = np.maximum(w - k, 0.0)
        jump = verify.enthalpy_jump_primitive(graph, graph.a, k, w)
        sup_jump = max(sup_jump, lh * ball_mean(jump * phi**p))
        sup_sq = max(sup_sq, ball_mean(vk**2 * phi**p))
        if j > 0:
            dt_m = float(times[j] - times[j - 1])
            total += dt_m
            gsq = node_average([f**2 for f in faces.gradients(vk * phi)])
            grad += dt_m * ball_mean(gsq ** (p / 2.0))
            dphi_sq = node_average([f**2 for f in faces.gradients(phi)])
            rhs_grad += dt_m * ball_mean(vk**p * dphi_sq ** (p / 2.0))
            dphip = np.maximum(phi**p - phi_p_prev, 0.0)  # dt (d_t phi^p)_+
            rhs_time += ball_mean(vk**2 * dphip)
            rhs_jump += lh * ball_mean(jump * dphip)
        phi_p_prev = phi**p
    return {"sup_jump_term": sup_jump / cyl.depth, "sup_square_term": sup_sq / cyl.depth,
            "gradient_term": grad / total, "rhs_gradient": rhs_grad / total,
            "rhs_time": rhs_time / total, "rhs_jump": rhs_jump / total}


def per_time_weak_form(traj, bump):
    """`centered_weak_form_residual` over the whole run, full domain, one stored time
    at a time, with node gradients from a mirror-padded copy."""
    grid, xs = traj.grid, traj.grid.meshgrid()
    times = np.asarray(traj.times)
    vol = grid.volume_weights()
    phis = [np.asarray(bump.value(xs, t)) for t in times]
    e = traj.enthalpies
    r_val = float(np.sum(e[-1] * phis[-1] * vol)) - float(np.sum(e[0] * phis[0] * vol))
    for m in range(len(times) - 1):
        r_val -= float(np.sum(e[m] * (phis[m + 1] - phis[m]) * vol))
    flux = 0.0
    weights = traj.scenario.field.weights
    for m in range(1, len(times)):
        u = traj.temps[m]
        dot = 0
        for ax, (w, gp) in enumerate(zip(weights, bump.gradient(xs, times[m]))):
            padded = np.concatenate([np.take(u, [1], axis=ax), u, np.take(u, [-2], axis=ax)],
                                    axis=ax)
            g = (np.take(padded, range(2, u.shape[ax] + 2), axis=ax)
                 - np.take(padded, range(u.shape[ax]), axis=ax)) / (2.0 * grid.h)
            dot = dot + w * (np.abs(g) ** (traj.p - 2.0) * g) * np.asarray(gp)
        flux += (times[m] - times[m - 1]) * float(np.sum(dot * vol))
    return r_val + flux


class TestTimeBlocks:
    """Blocked checks give what one stored time at a time gives, bit for
    bit, whatever the block size."""

    def test_caccioppoli(self, blocked_run, block_rows):
        traj = blocked_run
        block_rows(math.prod(traj.grid.shape))
        cyl = _whole_run_cylinder(traj)
        ws = np.concatenate(traj.w_fields)
        k = float(np.quantile(ws, 0.3))
        rep = verify.caccioppoli_check(traj, k, cyl)
        ref = per_time_caccioppoli(traj, k, cyl)
        assert not rep.degenerate
        assert {key: rep.details[key] for key in ref} == ref

    def test_weak_form(self, blocked_run, block_rows):
        traj = blocked_run
        block_rows(math.prod(traj.grid.shape))
        t_end = traj.times[-1]
        bump = SpaceTimeBump((0.5,) * traj.grid.dim, 0.3, t_center=0.5 * t_end,
                             t_width=0.6 * t_end)
        res = centered_weak_form_residual(traj, bump, (traj.times[0], t_end))
        assert res["residual"] == per_time_weak_form(traj, bump)
        assert res["residual"] != 0.0

    def test_truncation(self, blocked_run, block_rows):
        traj = blocked_run
        dim = traj.grid.dim
        k = traj.graph.a - 1.5 * traj.graph.eps
        field_maps, field_sets = _truncations(traj, k)
        t_end = traj.times[-1]
        phis = [SpaceTimeBump(b.center, b.width, t_center=0.5 * t_end, t_width=0.6 * t_end).value
                for b in verify._test_function_family((0.15,) * dim, (0.85,) * dim,
                                                      rng_seed=3)]
        w = traj.w_fields
        default = solver.weak_form_residual(traj, w, w, field_maps, phis)
        block_rows(math.prod(traj.grid.shape))
        got = solver.weak_form_residual(traj, w, w, field_maps, phis)
        assert got == default
        for fields, row in zip(field_sets, got):
            for phi_fn, pair in zip(phis, row):
                ref = per_pair_weak_residual(traj, fields, phi_fn)
                if dim == 1:
                    assert pair == ref
                else:
                    assert pair == pytest.approx(ref, rel=1e-12, abs=1e-15)


class TestWeakHarnack:
    def test_constant_one(self, constant_run_p3):
        sc, traj = constant_run_p3
        rep = verify.weak_harnack_check(traj, 1.2, (0.5,), 0.1, t1=0.005, c1=2.0)
        assert rep.details["avg"] == pytest.approx(1.0)
        assert rep.details["inf"] == pytest.approx(1.0)
        assert rep.implied_constant <= 1.0

    def test_constant_zero_degenerate(self):
        sc = presets.constant_preset(nodes=21, value=0.0, p=3.0, t_end=0.02, dt=1e-3)
        traj = run_simulation(sc)
        # A zero average bounds nothing: no verdict.
        with pytest.raises(NotMeasurable, match="zero average"):
            verify.weak_harnack_check(traj, 1.2, (0.5,), 0.1, t1=0.005, c1=2.0)

    def test_p2_rejected(self):
        sc = presets.twophase_1d(nodes=21, t_end=0.002, dt=5e-4)
        traj = run_simulation(sc)
        with pytest.raises(NotMeasurable, match="needs p > 2"):
            verify.weak_harnack_check(traj, -0.2, (0.5,), 0.1, t1=0.001, c1=2.0)

    def test_ball_containment(self, constant_run_p3):
        sc, traj = constant_run_p3
        with pytest.raises(NotMeasurable, match="must fit inside the grid"):
            verify.weak_harnack_check(traj, 1.2, (0.5,), 0.2, t1=0.005, c1=2.0)

    def test_start_and_window_within_the_stored_times(self, constant_run_p3):
        sc, traj = constant_run_p3
        T = traj.times[-1]
        with pytest.raises(NotMeasurable, match="need t1 before the last stored time"):
            verify.weak_harnack_check(traj, 1.2, (0.5,), 0.1, t1=T, c1=2.0)
        # t1 rounds to the last stored time, so the window ends past it
        with pytest.raises(NotMeasurable, match="window exceeds the stored horizon"):
            verify.weak_harnack_check(traj, 1.2, (0.5,), 0.1, t1=T - 1e-4, c1=2.0)

    def test_negative_supersolution_rejected(self):
        sc = presets.constant_preset(nodes=21, value=-0.5, p=3.0, t_end=0.02, dt=1e-3)
        with pytest.raises(NotMeasurable, match="supersolution must be nonnegative"):
            verify.weak_harnack_check(run_simulation(sc), 1.2, (0.5,), 0.1, t1=0.005, c1=2.0)

    def test_measured_constant_stable(self):
        consts = []
        for nodes, dt in ((61, 2.5e-4), (121, 1.25e-4)):
            sc = presets.positive_bump_1d(p=3.0, nodes=nodes, dt=dt, t_end=0.05)
            traj = run_simulation(sc)
            g = traj.graph
            rep = verify.weak_harnack_check(traj, g.a - 1.5 * g.eps, (0.5,),
                                            0.1, t1=0.004, c1=2.0)
            assert not rep.degenerate
            consts.append(rep.implied_constant)
        assert 0.5 <= consts[1] / consts[0] <= 2.0


class TestDecayOfPositivity:
    def test_steady_state_needs_no_headroom(self, constant_run_p3):
        sc, traj = constant_run_p3
        rep = verify.decay_of_positivity_check(
            traj, (0.5,), 0.1, t0=0.0, c3=fix_constants(n=1, p=3.0, Lambda=1.0).c3,
            k_truncation=1.2)
        assert rep.rhs_core == 1.0 - 1e-12  # the starting level, just under the infimum
        assert rep.implied_constant <= 1.0 + 1e-9

    def test_window_without_samples_degenerate(self, constant_run_p3):
        sc, traj = constant_run_p3
        with pytest.raises(NotMeasurable, match="window holds no later samples"):
            verify.decay_of_positivity_check(
                traj, (0.5,), 0.1, t0=traj.times[-1],
                c3=fix_constants(n=1, p=3.0, Lambda=1.0).c3, k_truncation=1.2)

    def test_no_positive_start_is_no_verdict(self):
        sc = presets.constant_preset(nodes=21, value=0.0, p=3.0, t_end=0.02, dt=1e-3)
        traj = run_simulation(sc)
        with pytest.raises(NotMeasurable, match="^no positive starting level$"):
            verify.decay_of_positivity_check(
                traj, (0.5,), 0.1, t0=0.005, c3=fix_constants(n=1, p=3.0, Lambda=1.0).c3,
                k_truncation=1.2)

    def test_level_in_the_band_rejected(self, constant_run_p3):
        sc, traj = constant_run_p3
        with pytest.raises(ValueError, match="below the jump band") as err:
            verify.decay_of_positivity_check(traj, (0.5,), 0.1, t0=0.0, c3=1.0,
                                             k_truncation=traj.graph.a)
        assert type(err.value) is ValueError  # a caller's error, not a run without a verdict

    def test_collapsing_bump_constant_stable(self):
        consts = []
        for nodes, dt in ((61, 2.5e-4), (121, 1.25e-4)):
            sc = presets.positive_bump_1d(p=3.0, nodes=nodes, dt=dt, t_end=0.05)
            traj = run_simulation(sc)
            g = traj.graph
            ledger = fix_constants(n=1, p=3.0, Lambda=1.0)
            rep = verify.decay_of_positivity_check(
                traj, (0.5,), 0.1, 0.004, ledger.c3, k_truncation=g.a - 1.5 * g.eps)
            assert math.isfinite(rep.implied_constant)
            consts.append(rep.implied_constant)
        assert 0.5 <= consts[1] / consts[0] <= 2.0


def _two_level_trajectory(low_nodes, high_value=2.0, low_value=0.0, nodes=41):
    """Frozen two-valued field for the dichotomy edge cases."""
    sc = presets.twophase_1d(nodes=nodes, t_end=0.0)
    grid = sc.grid
    field = np.full(grid.shape, high_value)
    field[list(low_nodes)] = low_value
    times = [0.0, 0.1, 0.2, 0.3, 0.4]
    temps = [field.copy() for _ in times]
    enths = [np.asarray(sc.graph.enthalpy_of_temperature(u)) for u in temps]
    return Trajectory(scenario=sc, times=times, temps=temps, enthalpies=enths)


class TestAlternativeClassifier:
    def _classify(self, traj, center_time=0.4, eps1=0.5):
        ledger = studies.default_ledger(presets.twophase_1d(nodes=41))
        pr = studies.measurement_params(ledger, r0=0.4)
        return (verify.alternative_classifier(traj, pr, ((0.5,), center_time), 0.4, eps1,
                                              ledger.kappa), pr, ledger)

    # node 8 sits at x = 0.2: inside the enclosing ball B_{0.4}(0.5) so it
    # sets the oscillation, outside the short ball B_{0.1}(0.5) so it does
    # not touch the counted fraction
    def test_everything_high_is_first_alternative(self):
        res, _, _ = self._classify(_two_level_trajectory(low_nodes=(8,)))
        assert res["classification"] == "Alt1"
        assert res["fraction"] == 1.0

    def test_everything_low_is_second_alternative(self):
        res, _, _ = self._classify(
            _two_level_trajectory(low_nodes=[i for i in range(41) if i != 8]))
        assert res["classification"] == "Alt2"
        assert res["fraction"] == 0.0

    def test_small_oscillation_is_trivial(self):
        res, _, _ = self._classify(
            _two_level_trajectory(low_nodes=(8,), high_value=0.3, low_value=0.0))
        assert res["classification"] == "trivial"
        assert "fraction" not in res

    def test_threshold_formula(self):
        res, pr, led = self._classify(_two_level_trajectory(low_nodes=(8,)), eps1=0.25)
        assert res["threshold"] == pytest.approx(0.25 * omega(pr, 0.4) ** (1.0 / led.alpha))

    def _solved_classification(self, nodes, initial=None):
        sc = presets.twophase_1d(nodes=nodes, amplitude=0.9)
        if initial is not None:
            sc = replace(sc, initial=initial)
        traj = run_simulation(sc)
        led = studies.default_ledger(sc)
        pr = studies.measurement_params(led, r0=0.4)
        # window reaches the initial slice
        return verify.alternative_classifier(traj, pr, ((0.5,), 0.32), 0.4, led.eps1,
                                             led.kappa)

    def test_solved_run_with_recount_oracle(self):
        base = self._solved_classification(81)
        recount = self._solved_classification(161)
        assert base["classification"] == "Alt1"
        assert recount["classification"] == "Alt1"
        assert abs(base["fraction"] - recount["fraction"]) <= 0.1

    def test_solved_cold_slab_second_alternative(self):
        far_bump = InitialData.of("bump", base=-0.1, amplitude=3.0, width=0.1,
                                  center=0.18)
        base = self._solved_classification(81, initial=far_bump)
        recount = self._solved_classification(161, initial=far_bump)
        assert base["classification"] == "Alt2"
        assert recount["classification"] == "Alt2"
        assert abs(base["fraction"] - recount["fraction"]) <= 0.1

    def test_next_ladder_rung_is_trivial_at_desk_scale(self):
        # one dyadic-32 rung down the local oscillation sits far below the
        # modulus, so the dichotomy short-circuits; the recount must agree
        r = 0.4 / 32.0

        def classify(nodes):
            sc = presets.twophase_1d(nodes=nodes, t_end=0.02, dt=4e-5, eps=0.04)
            traj = run_simulation(sc)
            led = studies.default_ledger(sc)
            pr = studies.measurement_params(led, r0=0.4)
            res = verify.alternative_classifier(traj, pr, ((0.5,), traj.times[-1]), r,
                                                led.eps1, led.kappa)
            return res, omega(pr, r)

        (base, omega_r), (recount, _) = classify(641), classify(1281)
        assert base["classification"] == "trivial"
        assert recount["classification"] == "trivial"
        assert base["oscillation"] < omega_r


class TestForwardedLevelFraction:
    def test_fraction_in_range(self, bump_run):
        sc, traj = bump_run
        params = studies.measurement_params(studies.default_ledger(sc), r0=0.25)
        cyl = _fitting_cylinder(traj, params, 0.25)
        res = forwarded_level_fraction(
            traj, params, ((0.5,), traj.times[-1]), 0.25,
            t_bar=traj.times[-1] - 0.5 * cyl.depth, varsigma=0.25)
        assert 0.0 <= res["fraction"] <= 1.0
        assert res["oscillation"] >= 0.0


class TestScaleCovariance:
    def test_reports_invariant_under_rescaling(self, bump_run):
        sc, traj = bump_run
        lam = 2.0
        p = traj.p
        led = studies.default_ledger(sc)
        params = studies.measurement_params(led, r0=0.25)
        scaled = rescale_solution(traj, lam)

        cyl = _fitting_cylinder(traj, params, 0.2)
        cyl2 = IntrinsicCylinder(center_space=cyl.center_space,
                                 center_time=scaled.times[-1], radius=cyl.radius,
                                 depth=cyl.depth * lam ** (p - 2.0), flavor="full")
        r1 = verify.caccioppoli_check(traj, 0.5, cyl)
        r2 = verify.caccioppoli_check(scaled, 0.5 / lam, cyl2)
        assert r2.implied_constant == pytest.approx(r1.implied_constant, rel=1e-8)

        g = traj.graph
        ktr = g.a - 1.5 * g.eps
        h1 = verify.weak_harnack_check(traj, ktr, (0.5,), 0.1, t1=0.004, c1=led.c1)
        h2 = verify.weak_harnack_check(scaled, ktr / lam, (0.5,), 0.1,
                                       t1=0.004 * lam ** (p - 2.0), c1=led.c1)
        assert h2.implied_constant == pytest.approx(h1.implied_constant, rel=1e-8)

        d1 = verify.decay_of_positivity_check(traj, (0.5,), 0.1, 0.004, led.c3,
                                              k_truncation=ktr)
        d2 = verify.decay_of_positivity_check(scaled, (0.5,), 0.1, 0.004 * lam ** (p - 2.0),
                                              led.c3, k_truncation=ktr / lam)
        assert d2.rhs_core == pytest.approx(d1.rhs_core / lam, rel=1e-12)
        assert d2.implied_constant == pytest.approx(d1.implied_constant, rel=1e-8)


class TestModulusAcceptance:
    def test_constant_data_passes_with_zero_constant(self):
        sc = presets.constant_preset(nodes=81, value=0.4, t_end=0.03, dt=1e-3)
        traj = run_simulation(sc)
        params = studies.measurement_params(studies.default_ledger(sc), r0=0.1)
        profile = verify.modulus_acceptance(traj, params, ((0.5,), traj.times[-1]))
        assert profile.c_star == 0.0
        assert all(o == 0.0 for o in profile.oscillations)

    def test_jump_free_passes_with_small_constant(self):
        sc = presets.heat_smooth_1d(nodes=81, dt=1e-3, t_end=0.1)
        traj = run_simulation(sc)
        params = studies.measurement_params(studies.default_ledger(sc), r0=0.2)
        profile = verify.modulus_acceptance(traj, params, ((0.5,), traj.times[-1]))
        assert 0.0 < profile.c_star < 1.0

    def test_containment_precondition(self):
        sc = presets.twophase_1d(nodes=41, t_end=0.01, dt=1e-3)
        traj = run_simulation(sc)
        params = studies.measurement_params(studies.default_ledger(sc), r0=0.4)
        # too deep for the stored times: the top radius shrinks to fit them
        profile = verify.modulus_acceptance(traj, params, ((0.5,), traj.times[-1]))
        assert profile.radii[0] < 0.4
        assert profile.depths[0] <= traj.times[-1] - traj.times[0]
        # still wider than the room around the centre: no ladder
        with pytest.raises(NotMeasurable, match="inside the domain"):
            verify.modulus_acceptance(traj, params, ((0.05,), traj.times[-1]))
        # no stored time behind t0: no horizon to fit r0 into
        with pytest.raises(NotMeasurable, match="no stored time before t0"):
            verify.modulus_acceptance(traj, params, ((0.5,), traj.times[0]))

    def test_modulus_check_reports_the_c_star_of_the_measurement(self):
        # `stefanlab run`, the headline study and the eps ladder all reach
        # modulus_acceptance, so one horizon rule serves every c*
        sc = presets.twophase_1d(nodes=41, t_end=0.01, dt=1e-3)
        traj = run_simulation(sc)
        ledger = studies.default_ledger(sc)
        params = studies.measurement_params(ledger, r0=0.4)
        profile = verify.modulus_acceptance(traj, params, ((0.5,), traj.times[-1]))
        entry, _ = studies.CHECKS["modulus"].run(
            traj, studies.check_site(traj, params, ledger, (0.5,)))
        assert entry["c_star"] == profile.c_star

    def test_short_ladder_names_the_rung_that_stopped_it(self):
        # t_end 0.02 shrinks r0 to about 0.1, so the second rung's ball holds
        # one node (`stefanlab run` reports this as no verdict)
        sc = presets.constant_preset()
        traj = run_simulation(sc)
        params = studies.measurement_params(studies.default_ledger(sc), r0=0.25)
        with pytest.raises(NotMeasurable, match=r"ladder rungs; rung 1 \(r = 0\.0499\d\): "
                                                     r"cylinder holds 1 nodes"):
            verify.modulus_acceptance(traj, params, ((0.5,), traj.times[-1]))


class TestEpsilonStudy:
    def test_single_eps_degenerate(self):
        sc = presets.twophase_1d(nodes=61, t_end=0.1, dt=5e-4, eps=0.1)
        params = studies.measurement_params(studies.default_ledger(sc), r0=0.2)
        out = verify.epsilon_convergence_study([run_simulation(sc)], params,
                                               ((0.5,), sc.t_end))
        assert out["degenerate"]

    def test_jump_free_eps_independent(self):
        scenarios = [replace(presets.heat_smooth_1d(nodes=41, dt=1e-3, t_end=0.1),
                             graph=RegularizedGraph(a=5.0, latent_heat=0.2, eps=eps))
                     for eps in (0.2, 0.1, 0.05)]
        params = studies.measurement_params(studies.default_ledger(scenarios[0]), r0=0.2)
        out = verify.epsilon_convergence_study([run_simulation(sc) for sc in scenarios],
                                               params, ((0.5,), 0.1))
        assert all(g < 1e-8 for g in out["cauchy_gaps"])
        assert out["cauchy_decreasing"]

    def test_ladder_validation(self):
        # the ladder is read from the runs' scenarios; runs of no step suffice
        mk = lambda e: run_simulation(presets.twophase_1d(nodes=61, t_end=0.0, eps=e))
        params = studies.measurement_params(studies.default_ledger(mk(0.1).scenario), r0=0.2)
        with pytest.raises(ValueError, match="strictly decreasing"):
            verify.epsilon_convergence_study([mk(0.05), mk(0.1)], params, ((0.5,), 0.02))
        with pytest.raises(ValueError, match="grid-resolvable"):
            verify.epsilon_convergence_study([mk(0.1), mk(0.01)], params, ((0.5,), 0.02))


class TestResolutionLadders:
    def test_each_level_halves_h_and_dt(self):
        assert [studies.refined(29, 1e-3, k) for k in range(3)] == [
            (29, 1e-3), (57, 5e-4), (113, 2.5e-4)]

    def test_headline_levels(self):
        # the levels the two-level stability gate runs, and a third from the same rule
        for name, nodes, dt in (("1d-p2", (81, 161, 321), (2.5e-4, 1.25e-4, 6.25e-5)),
                                ("2d-p3", (29, 57, 113), (5e-4, 2.5e-4, 1.25e-4))):
            for level in range(3):
                sc = studies.headline_case(name, level)
                assert sc.grid.shape == (nodes[level],) * sc.grid.dim
                assert sc.dt.value == dt[level]
        assert studies.headline_case("1d-p3", 1).t_end == 0.22
        with pytest.raises(ValueError):
            studies.headline_case("3d-p2")

    def test_family_levels(self):
        coarse, fine = studies.inequality_family(0), studies.inequality_family(1)
        assert [c.label for c in coarse] == [c.label for c in fine]
        assert {(c.scenario.grid.shape, c.scenario.dt.value) for c in coarse} == {((61,), 2.5e-4)}
        assert {(c.scenario.grid.shape, c.scenario.dt.value) for c in fine} == {((121,), 1.25e-4)}
