"""Nonlinearity tests: the table-backed smoothed step against direct
adaptive quadrature of the mollifier, primitives, and the beta maps."""

import math
import os
import subprocess
import sys
import warnings
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator

from stefanlab import graphs
from stefanlab.graphs import BetaMap, RegularizedGraph

from helpers import rescaled_graph


@pytest.fixture(scope="module")
def unit_graph():
    return RegularizedGraph(a=0.0, latent_heat=1.0, eps=0.1)


def _density(g, s):
    return graphs.mollifier_density(s / g.eps) / g.eps


class TestMollifiedStep:
    def test_below_support(self, unit_graph):
        assert unit_graph.step(-0.2) == 0.0
        assert unit_graph.step(-0.1) == 0.0

    def test_above_support(self, unit_graph):
        assert unit_graph.step(0.1) == 1.0
        assert unit_graph.step(5.0) == 1.0

    def test_midpoint_is_half(self, unit_graph):
        assert unit_graph.step(0.0) == pytest.approx(0.5, abs=1e-14)

    def test_interior_value_against_quadrature(self, unit_graph):
        g = unit_graph
        v = g.step(0.05)
        assert 0.5 < v < 1.0
        oracle, err = quad(lambda s: _density(g, s), -g.eps, 0.05, limit=200)
        assert abs(v - oracle) < 1e-9

    def test_symmetry_identity(self, unit_graph):
        g = unit_graph
        for delta in np.linspace(0.0, 0.12, 25):
            s = g.step(delta) + g.step(-delta)
            assert s == pytest.approx(1.0, abs=1e-12)

    def test_derivative_normalization(self, unit_graph):
        g = unit_graph
        total, _ = quad(g.step_prime, -g.eps, g.eps, limit=200)
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_derivative_support(self, unit_graph):
        g = unit_graph
        assert g.step_prime(-0.11) == 0.0
        assert g.step_prime(0.11) == 0.0
        assert g.step_prime(0.0) > 0.0

    def test_nondecreasing(self, unit_graph):
        s = np.linspace(-0.15, 0.15, 401)
        vals = unit_graph.step(s)
        assert np.all(np.diff(vals) >= 0.0)

    @given(ts=st.lists(st.one_of(st.floats(-1.2, 1.2), st.floats()), min_size=1, max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_bump_shape_matches_masked_formula(self, ts):
        # The clamped formula against the masked one, bit for bit, on the
        # support's edges, outside it and at non-finite points, with no
        # warning from either.
        one_below, one_above = np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)
        edges = [1.0, one_below, one_above, 0.0, 1e154, 1e200, np.inf, np.nan]
        t = np.concatenate([ts, edges, np.negative(edges)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_same_bits(graphs.bump_shape(t), masked_bump(t))
            for x in (ts[0], -1.0, one_below, 1e200):
                assert type(graphs.bump_shape(x)) is float
                assert_same_bits(graphs.bump_shape(x), masked_bump(x))

    def test_eps_to_zero_pointwise_limit(self):
        for eps in (0.1, 0.01, 0.001):
            g = RegularizedGraph(a=0.0, latent_heat=1.0, eps=eps)
            assert g.step(-0.2) == 0.0
            assert g.step(0.2) == 1.0
            assert g.step(0.0) == pytest.approx(0.5, abs=1e-12)


class TestEnthalpy:
    def test_below_jump(self, unit_graph):
        assert unit_graph.enthalpy_of_temperature(-1.0) == -1.0

    def test_at_jump(self, unit_graph):
        assert unit_graph.enthalpy_of_temperature(0.0) == pytest.approx(0.5, abs=1e-14)

    def test_above_jump(self):
        g = RegularizedGraph(a=0.0, latent_heat=0.5, eps=0.1)
        assert g.enthalpy_of_temperature(2.0) == pytest.approx(2.5, abs=1e-14)

    @given(st.floats(-3.0, 3.0), st.floats(1e-4, 3.0))
    @settings(max_examples=150, deadline=None)
    def test_strictly_increasing(self, s, gap):
        g = RegularizedGraph(a=0.0, latent_heat=1.0, eps=0.1)
        lo = g.enthalpy_of_temperature(s)
        hi = g.enthalpy_of_temperature(s + gap)
        assert (hi - lo) / gap >= 1.0 - 1e-9


class TestJumpPrimitive:
    def test_level_above_band(self, unit_graph):
        assert graphs.enthalpy_jump_primitive(unit_graph, 0.0, 0.15, 2.0) == 0.0

    def test_value_below_level(self, unit_graph):
        assert graphs.enthalpy_jump_primitive(unit_graph, 0.0, 0.5, -0.5) == 0.0

    def test_full_crossing_closed_form(self, unit_graph):
        # level below the band, value above: the primitive collapses to b - k
        for k in (-0.5, -0.2, -0.11):
            j = graphs.enthalpy_jump_primitive(unit_graph, 0.0, k, 0.6)
            assert j == pytest.approx(-k, abs=1e-9)

    def test_quadrature_crosscheck(self, unit_graph):
        g = unit_graph
        for k, v in [(-0.03, 0.07), (0.0, 0.05), (-0.2, 0.02), (0.01, 0.09)]:
            closed = graphs.enthalpy_jump_primitive(g, 0.0, k, v)
            oracle, _ = quad(lambda x: _density(g, x) * (x - k), max(k, -g.eps),
                             min(v, g.eps), limit=200)
            assert closed == pytest.approx(oracle, abs=1e-9)

    def test_lh_scaling(self, unit_graph):
        # The primitive does not depend on the latent heat; callers scale it.
        half = replace(unit_graph, latent_heat=0.5)
        v = np.linspace(-0.5, 0.5, 101)
        assert np.array_equal(graphs.enthalpy_jump_primitive(half, 0.0, -0.5, v),
                              graphs.enthalpy_jump_primitive(unit_graph, 0.0, -0.5, v))

    def test_nonnegative(self, unit_graph):
        rng = np.random.default_rng(7)
        ks = rng.uniform(-0.3, 0.3, 100)
        vs = rng.uniform(-0.3, 0.3, 100)
        j = graphs.enthalpy_jump_primitive(unit_graph, 0.0, ks, vs)
        assert np.all(j >= 0.0)


@st.composite
def piecewise_tables(draw):
    """A strictly increasing table through (0, 0) on [-2, 2] or a half of
    it, so the origin is the first, the last or an interior knot."""
    n_lo = draw(st.integers(0, 3))
    n_hi = draw(st.integers(0 if n_lo else 1, 3))
    slopes = draw(st.lists(st.floats(0.25, 4.0), min_size=n_lo + n_hi,
                           max_size=n_lo + n_hi))
    xs = np.concatenate([np.linspace(-2.0, 0.0, n_lo + 1)[:-1], [0.0],
                         np.linspace(0.0, 2.0, n_hi + 1)[1:]])
    ys = [0.0]
    for x0, x1, s in zip(xs[:-1], xs[1:], slopes):
        ys.append(ys[-1] + s * (x1 - x0))
    ys = np.asarray(ys) - ys[n_lo]  # anchor the origin knot at zero
    return tuple(xs), tuple(ys)


class TestBetaMaps:
    def test_identity(self):
        b = BetaMap()
        assert b.apply(3.7) == 3.7
        assert b.lipschitz == 1.0

    def test_piecewise_origin_required(self):
        with pytest.raises(ValueError):
            BetaMap(kind="piecewise", knots=(-1.0, 1.0), values=(-0.5, 2.0))

    def test_piecewise_zero_at_origin(self):
        b = BetaMap(kind="piecewise", knots=(-1.0, 0.0, 1.0), values=(-0.5, 0.0, 2.0))
        assert b.apply(0.0) == 0.0
        assert b.lipschitz == pytest.approx(2.0)

    def test_non_monotone_rejected(self):
        with pytest.raises(ValueError):
            BetaMap(kind="piecewise", knots=(-1.0, 0.0, 1.0), values=(0.5, 0.0, 1.0))

    @given(piecewise_tables(), st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=50))
    @settings(max_examples=120, deadline=None)
    def test_piecewise_round_trip(self, table, us):
        knots, values = table
        b = BetaMap(kind="piecewise", knots=knots, values=values)
        u = np.asarray(us)
        back = b.inverse(b.apply(u))
        assert np.max(np.abs(back - u)) < 1e-12 * (1.0 + np.max(np.abs(u)))

    @given(piecewise_tables())
    @settings(max_examples=120, deadline=None)
    def test_piecewise_primitive_vanishes_at_the_origin(self, table):
        knots, values = table
        b = BetaMap(kind="piecewise", knots=knots, values=values)
        assert b.primitive(0.0) == 0.0
        # off the knots the primitive is quadratic, so its central
        # difference is beta up to rounding
        u = np.linspace(-2.5, 2.5, 41) + 1.234e-3
        h = 1e-5
        diff = (b.primitive(u + h) - b.primitive(u - h)) / (2 * h)
        assert np.max(np.abs(diff - b.apply(u))) < 1e-8

    def test_piecewise_primitive_with_the_origin_as_last_knot(self):
        b = BetaMap(kind="piecewise", knots=(-1.0, 0.0), values=(-0.5, 0.0))
        assert b.primitive(0.0) == 0.0
        assert b.primitive(-1.0) == 0.25
        g = RegularizedGraph(a=0.5, latent_heat=0.5, eps=0.05, beta=b)
        assert g.enthalpy_primitive_of_temperature(0.0) == 0.0

    @given(st.floats(-0.8, 3.0), st.floats(0.05, 2.0),
           st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=30))
    @settings(max_examples=120, deadline=None)
    def test_tanh_round_trip(self, mu, tau, us):
        b = BetaMap(kind="tanh", mu=mu, tau=tau)
        u = np.asarray(us)
        back = b.inverse(b.apply(u))
        assert np.max(np.abs(back - u)) < 1e-11 * (1.0 + np.max(np.abs(u)))

    def test_bi_lipschitz_certificate(self):
        b = BetaMap(kind="piecewise", knots=(-2.0, -0.5, 0.0, 1.0),
                    values=(-1.0, -0.25, 0.0, 2.0))
        lam = b.lipschitz
        rng = np.random.default_rng(3)
        u, v = rng.uniform(-4, 4, 200), rng.uniform(-4, 4, 200)
        du = np.abs(b.apply(u) - b.apply(v))
        assert np.all(du <= lam * np.abs(u - v) * (1 + 1e-12))
        assert np.all(du >= np.abs(u - v) / lam * (1 - 1e-12))

    def test_primitive_matches_derivative(self):
        for b in (BetaMap(),
                  BetaMap(kind="piecewise", knots=(-1.0, 0.0, 0.5, 2.0),
                          values=(-2.0, 0.0, 0.3, 1.5)),
                  BetaMap(kind="tanh", mu=0.6, tau=0.4)):
            # grid offset keeps samples away from the knots, where the
            # primitive is only C^1 and central differences lose accuracy
            u = np.linspace(-1.5, 1.8, 67) + 1.234e-4
            h = 1e-6
            diff = (b.primitive(u + h) - b.primitive(u - h)) / (2 * h)
            assert np.max(np.abs(diff - b.apply(u))) < 5e-9
            assert b.primitive(0.0) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("mu, tau", [(0.6, 0.4), (-0.5, 0.2), (2.0, 2.0)])
    def test_tanh_primitive_finite_far_out(self, mu, tau):
        b = BetaMap(kind="tanh", mu=mu, tau=tau)
        g = RegularizedGraph(a=0.1, latent_heat=0.6, eps=0.05, beta=b)
        far = np.array([-1e6, -300.0, 300.0, 1e6])
        energy = g.enthalpy_primitive_of_temperature(far)
        assert np.all(np.isfinite(energy))
        # log cosh x = |x| - log 2 + O(e^{-2|x|}) far out
        x = np.abs(far) / tau
        assert b.primitive(far) == pytest.approx(0.5 * far**2 + mu * tau**2 * (x - math.log(2.0)),
                                                 rel=1e-15)
        # Where log(cosh) does not overflow, the two forms agree to rounding.
        u = np.concatenate([np.linspace(-250.0 * tau, 250.0 * tau, 2001), [0.0, 1e-9, -1e-9]])
        old = 0.5 * u * u + mu * tau**2 * np.log(np.cosh(u / tau))
        assert np.all(np.abs(b.primitive(u) - old) <= 1e-14 * (1.0 + np.abs(old)))


class TestGraphConstruction:
    def test_latent_heat_bounds(self):
        with pytest.raises(ValueError):
            RegularizedGraph(a=0.0, latent_heat=0.0, eps=0.1)
        with pytest.raises(ValueError):
            RegularizedGraph(a=0.0, latent_heat=1.2, eps=0.1)
        with pytest.raises(ValueError):
            RegularizedGraph(a=0.0, latent_heat=0.5, eps=-0.1)

    @pytest.mark.parametrize("a, eps, beta, key", [
        (0.0, 0.05, BetaMap(kind="tanh", mu=1e308, tau=1.0), "beta"),   # subnormal band
        (0.0, 5e-324, BetaMap(), "eps"),                                 # band of 3 floats
        (0.0, 1e308, BetaMap(), "eps"),                                  # knot spacing overflows
        (1e300, 0.05, BetaMap(), "eps"),                                 # a +- eps rounds to a
    ])
    def test_band_the_table_cannot_hold_is_named(self, a, eps, beta, key):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(graphs.GraphValueError) as err:
                RegularizedGraph(a=a, latent_heat=1.0, eps=eps, beta=beta)
        assert err.value.key == key

    def test_enthalpy_primitive_derivative(self):
        g = RegularizedGraph(a=0.3, latent_heat=0.7, eps=0.05,
                             beta=BetaMap(kind="tanh", mu=0.5, tau=0.4))
        u = np.linspace(-1.0, 1.2, 81)
        h = 1e-6
        diff = (g.enthalpy_primitive_of_temperature(u + h)
                - g.enthalpy_primitive_of_temperature(u - h)) / (2 * h)
        assert np.max(np.abs(diff - g.enthalpy_of_temperature(u))) < 1e-8

    def test_enthalpy_plateaus(self):
        g = RegularizedGraph(a=0.0, latent_heat=0.8, eps=0.1)
        assert g.enthalpy_of_temperature(-0.5) == -0.5
        assert g.enthalpy_of_temperature(0.5) == pytest.approx(1.3, abs=1e-14)

    def test_rescaled_graph_matches_scaling(self):
        g = RegularizedGraph(a=0.3, latent_heat=1.0, eps=0.08,
                             beta=BetaMap(kind="tanh", mu=0.4, tau=0.5))
        lam = 2.0
        gr = rescaled_graph(g, lam)
        assert gr.latent_heat == pytest.approx(g.latent_heat / lam)
        u = np.linspace(-1.0, 1.5, 41)
        scaled = gr.enthalpy_of_temperature(u / lam)
        assert np.max(np.abs(scaled - g.enthalpy_of_temperature(u) / lam)) < 1e-13

    @pytest.mark.parametrize("name", ["a", "latent_heat", "eps", "beta"])
    def test_fields_are_frozen(self, name):
        # the E table is built from the fields once: a later assignment
        # would leave it describing another graph
        g = RegularizedGraph(a=0.0, latent_heat=1.0, eps=0.05)
        with pytest.raises(FrozenInstanceError):
            setattr(g, name, getattr(g, name))
        # a changed graph is a new object with its own table
        h, u, d = replace(g, eps=0.2), 0.1, 1e-6
        slope = (h.enthalpy_primitive_of_temperature(u + d)
                 - h.enthalpy_primitive_of_temperature(u - d)) / (2 * d)
        assert slope == pytest.approx(h.enthalpy_of_temperature(u), abs=1e-8)

    def test_rescale_below_one_rejected(self):
        g = RegularizedGraph(a=0.0, latent_heat=1.0, eps=0.1)
        with pytest.raises(ValueError):
            rescaled_graph(g, 0.5)

    def test_beta_methods_through_graph(self):
        g = RegularizedGraph(a=0.0, latent_heat=1.0, eps=0.1,
                             beta=BetaMap(kind="piecewise",
                                          knots=(-1.0, 0.0, 1.0),
                                          values=(-0.5, 0.0, 2.0)))
        assert g.beta.apply(0.0) == 0.0
        assert g.beta.inverse(g.beta.apply(0.7)) == pytest.approx(0.7, abs=1e-13)


# ---------------------------------------------------------------------------
# Table lookups against scipy's own PCHIP evaluation
# ---------------------------------------------------------------------------

_UNIT_CDF = PchipInterpolator(graphs._TS, graphs._CDF, extrapolate=False)
_UNIT_PRIMITIVE = _UNIT_CDF.antiderivative()


def oracle_cdf(t):
    """The smoothed unit step: 0 below -1, scipy's interpolant inside, 1 from 1 on."""
    t = np.asarray(t, dtype=float)
    out = np.where(t >= 1.0, 1.0, 0.0)
    inside = (t > -1.0) & (t < 1.0)
    out[inside] = _UNIT_CDF(t[inside])
    return out


def oracle_primitive(pp, t):
    """Antiderivative `pp` evaluated by scipy on its knot range, constant
    below it and continued with unit slope above it."""
    t = np.asarray(t, dtype=float)
    lo, hi = pp.x[0], pp.x[-1]
    out = np.asarray(pp(np.clip(t, lo, hi)), dtype=float)
    above = t > hi
    out[above] = float(pp(hi)) + (t[above] - hi)
    return out


def oracle_band_primitive(g):
    """scipy's antiderivative of the step of temperature across the band,
    built from the same 2049 samples the graph uses."""
    s_lo = float(g.beta.inverse(g.a - g.eps))
    s_hi = float(g.beta.inverse(g.a + g.eps))
    ss = np.linspace(s_lo, s_hi, 2049)
    data = oracle_cdf((g.beta.apply(ss) - g.a) / g.eps)
    return PchipInterpolator(ss, data, extrapolate=False).antiderivative()


def masked_bump(t):
    """The mollifier profile with a mask: 0 outside (-1, 1), the formula inside."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(-1.0 / (1.0 - ti * ti))
    return out if out.ndim else float(out)


def assert_same_bits(got, want):
    got_a = np.asarray(got, dtype=float)
    want_a = np.asarray(want, dtype=float)
    assert got_a.shape == want_a.shape
    bad = got_a.view(np.uint64) != want_a.view(np.uint64)
    assert not np.any(bad), (got_a[bad][:5], want_a[bad][:5])


def probe_points(knots, rng_values, far):
    """Every knot and its neighbours one ulp away, the given values, and far points."""
    knots = np.asarray(knots, dtype=float)
    return np.concatenate([knots, np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf),
                           np.asarray(rng_values, dtype=float), far, -far])


@st.composite
def beta_maps(draw):
    kind = draw(st.sampled_from(["identity", "tanh", "piecewise"]))
    if kind == "identity":
        return BetaMap()
    if kind == "tanh":
        return BetaMap(kind="tanh", mu=draw(st.floats(-0.5, 2.0)), tau=draw(st.floats(0.2, 2.0)))
    knots, values = draw(piecewise_tables())
    return BetaMap(kind="piecewise", knots=knots, values=values)


class TestTableLookups:
    """The lookups return exactly what evaluating scipy's PCHIP objects built
    from the same samples returns, bit for bit, in every input shape."""

    @given(a=st.floats(-0.5, 0.5), eps=st.floats(0.005, 0.2),
           latent_heat=st.floats(0.05, 1.0), beta=beta_maps(),
           us=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_enthalpy_and_primitive_match_scipy(self, a, eps, latent_heat, beta, us):
        g = RegularizedGraph(a=a, latent_heat=latent_heat, eps=eps, beta=beta)
        band = oracle_band_primitive(g)
        k0 = float(oracle_primitive(band, 0.0))

        def e_ref(u):
            w = g.beta.apply(u)
            return w + g.latent_heat * oracle_cdf((w - g.a) / g.eps)

        def E_ref(u):
            return (g.beta.primitive(u)
                    + g.latent_heat * (oracle_primitive(band, u) - k0))

        u = probe_points(band.x, us, np.array([5.0, 20.0, 100.0]))
        w_edges = g.beta.inverse(g.a + g.eps * np.array([-1.0, 1.0]))
        u = np.concatenate([u, w_edges, np.nextafter(w_edges, -np.inf),
                            np.nextafter(w_edges, np.inf)])
        assert_same_bits(g.enthalpy_of_temperature(u), e_ref(u))
        assert_same_bits(g.enthalpy_primitive_of_temperature(u), E_ref(u))
        grid = u[: (u.size // 6) * 6].reshape(6, -1)
        assert_same_bits(g.enthalpy_of_temperature(grid), e_ref(grid))
        assert_same_bits(g.enthalpy_primitive_of_temperature(grid), E_ref(grid))
        for x in (u[0], u[-1], float(us[0]), 0.0):
            got_e = g.enthalpy_of_temperature(float(x))
            got_E = g.enthalpy_primitive_of_temperature(float(x))
            assert type(got_e) is float and type(got_E) is float
            assert_same_bits(got_e, e_ref(x))
            assert_same_bits(got_E, E_ref(x))

    @given(beta=beta_maps(), us=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_enthalpy_and_slope_through_beta(self, beta, us):
        # The identity beta skips apply's copy and prime's unit factor; every
        # kind gives the bits of e = w + L step(w) and
        # e' = beta'(u) (1 + L step'(w)) with w = beta(u).
        g = RegularizedGraph(a=0.1, latent_heat=0.7, eps=0.05, beta=beta)
        for u in (np.asarray(us), float(us[0])):
            w = beta.apply(u)
            assert_same_bits(g.enthalpy_of_temperature(u), w + g.latent_heat * g.step(w))
            assert_same_bits(g.enthalpy_prime_of_temperature(u),
                             beta.prime(u) * (1.0 + g.latent_heat * g.step_prime(w)))
            assert type(g.enthalpy_prime_of_temperature(u)) is type(w)

    @given(ts=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=60))
    @settings(max_examples=30, deadline=None)
    def test_unit_step_and_primitive_match_scipy(self, ts):
        t = probe_points(graphs._TS, ts, np.array([1.5, 1e3, 1e6, 1e30]))
        t = np.concatenate([t, [-1.0, 1.0, 0.0, -0.0]])
        assert_same_bits(graphs._step_cdf(t), oracle_cdf(t))
        assert_same_bits(graphs._step_cdf_primitive(t), oracle_primitive(_UNIT_PRIMITIVE, t))
        grid = t[: (t.size // 3) * 3].reshape(3, -1)
        assert_same_bits(graphs._step_cdf_primitive(grid),
                         oracle_primitive(_UNIT_PRIMITIVE, grid))
        for x in (ts[0], -1.0, 1.0, 3.0):
            assert type(graphs._step_cdf_primitive(x)) is float
            assert_same_bits(graphs._step_cdf_primitive(x), oracle_primitive(_UNIT_PRIMITIVE, x))
            assert_same_bits(graphs._step_cdf(x), oracle_cdf(x))

    def test_nan_propagates(self):
        # A NaN temperature must not read as a frozen (step = 0) state.
        g = RegularizedGraph(a=0.1, latent_heat=0.6, eps=0.05,
                             beta=BetaMap(kind="tanh", mu=0.5, tau=0.4))
        u = np.array([-0.2, np.nan, 0.1, 0.4])
        for fn in (g.step, g.enthalpy_of_temperature, g.enthalpy_primitive_of_temperature):
            out = fn(u)
            assert np.isnan(out[1])
            assert np.all(np.isfinite(out[[0, 2, 3]]))
            assert math.isnan(fn(math.nan))
        assert math.isnan(graphs._step_cdf_primitive(math.nan))


# ---------------------------------------------------------------------------
# Table construction and interval index against scipy
# ---------------------------------------------------------------------------

@st.composite
def uniform_samples(draw):
    """Linspace knots over a random range, with data that is monotone with
    flat runs or that turns, changes sign and repeats values, so every
    interior and end rule of the PCHIP slopes runs."""
    n = draw(st.integers(3, 60))
    lo = draw(st.floats(-50.0, 50.0))
    x = np.linspace(lo, lo + draw(st.floats(1e-3, 50.0)), n)
    if draw(st.booleans()):
        rises = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
                              min_size=n - 1, max_size=n - 1))
        y = np.concatenate([[draw(st.floats(-5.0, 5.0))], rises]).cumsum()
        y = y if draw(st.booleans()) else -y
    else:
        y = np.asarray(draw(st.lists(st.one_of(st.sampled_from([-2.0, -1.0, 0.0, 1.0, 3.0]),
                                               st.floats(-5.0, 5.0)),
                                     min_size=n, max_size=n)))
    return x, y


class TestTableBuild:
    """The numpy build gives scipy's coefficients, antiderivative and
    end value bit for bit, and the arithmetic index is scipy's search."""

    # Both end rules: a one-sided slope of the wrong sign is zeroed (y[:3]),
    # one past three secants at a turn is capped (y[-3:]).
    @given(samples=uniform_samples())
    @example(samples=(np.linspace(0.0, 4.0, 5), np.array([0.0, 1.0, 5.0, 13.0, 12.0])))
    @example(samples=(np.linspace(-1.0, 1.0, 3), np.array([0.0, 0.0, 0.0])))
    @settings(max_examples=150, deadline=None)
    def test_pchip_and_antiderivative_match_scipy(self, samples):
        x, y = samples
        with np.errstate(all="ignore"):  # subnormal secants overflow 1/m
            ref = PchipInterpolator(x, y)
            coeffs = graphs._pchip(x, y)
        ref_primitive = ref.antiderivative()
        assert_same_bits(coeffs, ref.c[::-1])
        primitive, right_value = graphs._antiderivative(x, coeffs)
        assert_same_bits(primitive, ref_primitive.c[::-1])
        assert_same_bits(right_value, ref_primitive(x[-1]))

    @given(lo=st.floats(-100.0, 100.0), width=st.floats(1e-3, 100.0),
           n=st.integers(3, 5000), ts=st.lists(st.floats(-200.0, 200.0), max_size=40),
           data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_interval_is_searchsorted(self, lo, width, n, ts, data):
        x = np.linspace(lo, lo + width, n)
        table = graphs._HermiteTable(x, graphs._pchip(x, np.sin(x)), 0.0, 0.0)
        inside = data.draw(st.lists(st.floats(x[0], x[-1]), max_size=40))
        t = probe_points(x, ts + inside, np.array([1e300, np.inf]))
        t = np.concatenate([t, [np.nan, x[0], x[-1]]])
        t = np.maximum(t, x[0])
        want = np.searchsorted(x, t, "right") - 1
        assert np.array_equal(table._interval(t), want)
        grid = t[: (t.size // 2) * 2].reshape(2, -1)
        assert np.array_equal(table._interval(grid), want[: grid.size].reshape(grid.shape))
        for s in (t[0], np.nan, np.inf, x[-1]):
            assert table._interval(np.float64(s)) == np.searchsorted(x, s, "right") - 1

    def test_shipped_tables_index_every_probe(self):
        g = RegularizedGraph(a=0.1, latent_heat=0.6, eps=0.05,
                             beta=BetaMap(kind="tanh", mu=0.5, tau=0.4))
        for table in (graphs._step_cdf, graphs._step_cdf_primitive,
                      g._step_of_temperature_primitive):
            x = table._x
            t = probe_points(x, np.linspace(x[0], x[-1], 1001), np.array([1e300, np.inf]))
            t = np.maximum(np.concatenate([t, [np.nan]]), x[0])
            assert np.array_equal(table._interval(t), np.searchsorted(x, t, "right") - 1)

    def test_knots_must_be_uniform_and_increasing(self):
        x = np.array([0.0, 0.1, 0.5, 1.0])
        with pytest.raises(ValueError, match="uniform"):
            graphs._HermiteTable(x, graphs._pchip(x, x), 1.0, 1.0)
        with pytest.raises(ValueError, match="increasing"):
            graphs._pchip(np.array([0.0, 1.0, 1.0]), np.zeros(3))
        with pytest.raises(ValueError, match="increasing"):
            graphs._pchip(np.array([0.0, np.nan, 1.0]), np.zeros(3))


def test_import_leaves_scipy_interpolate_unloaded():
    # The tables are built in numpy; importing scipy.interpolate would
    # bring back about half of the package's start-up time.
    src = str(Path(graphs.__file__).resolve().parents[1])
    code = ("import sys; import stefanlab, stefanlab.cli, stefanlab.studies; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.interpolate')))")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
