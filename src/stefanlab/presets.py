"""Built-in scenarios for the laboratory runs.

Each preset returns a fully specified Scenario; keyword overrides let the
studies dial resolution, mollification width and latent heat without
touching the physics of the preset.  The CLI takes a preset's defaults and
substitutes the config keys given next to it.
"""
from __future__ import annotations

from .graphs import RegularizedGraph
from .solver import Boundary, DtPolicy, Grid, InitialData, Scenario


def constant_preset(*, nodes: int = 21, value: float = 0.3, p: float = 2.0,
                    latent_heat: float = 1.0, eps: float = 0.05,
                    t_end: float = 0.02, dt: float = 1e-3) -> Scenario:
    """Spatially constant state: every check is trivially satisfied."""
    return Scenario(
        grid=Grid(1, nodes),
        p=p,
        graph=RegularizedGraph(a=1.5, latent_heat=latent_heat, eps=eps),
        initial=InitialData.of("constant", value=value),
        t_end=t_end,
        dt=DtPolicy(value=dt),
        label="constant",
    )


def heat_smooth_1d(*, nodes: int = 41, dt: float = 1e-3, t_end: float = 0.05,
                   latent_heat: float = 0.2) -> Scenario:
    """p = 2, identity beta, smooth positive data far from the jump: the run
    is plain heat diffusion and can be checked against a refined reference."""
    return Scenario(
        grid=Grid(1, nodes),
        p=2.0,
        graph=RegularizedGraph(a=5.0, latent_heat=latent_heat, eps=0.05),
        # scalars: a config's initial_params reads a one-element list back as one
        initial=InitialData.of("fourier", base=0.5, amps=0.2, freqs=1.0),
        t_end=t_end,
        dt=DtPolicy(value=dt),
        label="heat-smooth-1d",
    )


def melting_front_1d(*, nodes: int = 400, dt: float = 5e-4, t_end: float = 0.2,
                     eps: float = 0.006, latent_heat: float = 1.0,
                     jump: float = 0.25, hot: float = 1.0, cold: float = 0.0,
                     extent: float = 1.0) -> Scenario:
    """Hot Dirichlet wall melting a cold slab; the front follows the
    classical similarity law, which the solver tests use as the oracle.
    Keep t_end small enough that the thermal layer stays clear of the far
    wall, where the half-space similarity solution stops applying."""
    return Scenario(
        grid=Grid(1, nodes, extent),
        p=2.0,
        graph=RegularizedGraph(a=jump, latent_heat=latent_heat, eps=eps),
        initial=InitialData.of("constant", value=cold),
        boundary=Boundary(kind="dirichlet", values=((hot, cold),)),
        t_end=t_end,
        dt=DtPolicy(value=dt),
        label="stefan-1d-p2-onephase",
    )


def twophase_1d(*, p: float = 2.0, nodes: int = 81, dt: float = 2.5e-4,
                t_end: float = 0.36, eps: float = 0.05, latent_heat: float = 1.0,
                amplitude: float = 0.5, periods: float = 2.0,
                tilt: float = 0.12) -> Scenario:
    """Adversarial two-phase data oscillating through the jump level."""
    return Scenario(
        grid=Grid(1, nodes),
        p=p,
        graph=RegularizedGraph(a=0.0, latent_heat=latent_heat, eps=eps),
        initial=InitialData.of("two-phase-sine", level=0.0, amplitude=amplitude,
                               periods=periods, tilt=tilt),
        t_end=t_end,
        dt=DtPolicy(value=dt),
        label=f"stefan-1d-p{p:g}-twophase",
    )


def twophase_2d(*, p: float = 2.0, nodes: int = 29, dt: float = 1e-3,
                t_end: float = 0.3, eps: float = 0.1, latent_heat: float = 1.0,
                amplitude: float = 0.5, periods: float = 1.0) -> Scenario:
    """Small 2D variant of the adversarial two-phase run."""
    return Scenario(
        grid=Grid(2, nodes),
        p=p,
        graph=RegularizedGraph(a=0.0, latent_heat=latent_heat, eps=eps),
        initial=InitialData.of("two-phase-sine", level=0.0, amplitude=amplitude,
                               periods=periods, tilt=0.1),
        t_end=t_end,
        dt=DtPolicy(value=dt),
        label=f"stefan-2d-p{p:g}-twophase",
    )


def positive_bump_1d(*, p: float = 3.0, nodes: int = 61, dt: float = 2.5e-4,
                     t_end: float = 0.05, eps: float = 0.04,
                     latent_heat: float = 0.8, base: float = 0.25,
                     amplitude: float = 0.65, width: float = 0.45,
                     jump: float = 0.75) -> Scenario:
    """Positive bump spanning the jump from below: the truncation below the
    jump band is a nonnegative supersolution, feeding the Harnack and
    positivity-decay checks."""
    return Scenario(
        grid=Grid(1, nodes),
        p=p,
        graph=RegularizedGraph(a=jump, latent_heat=latent_heat, eps=eps),
        initial=InitialData.of("bump", base=base, amplitude=amplitude,
                               width=width, center=0.5),
        t_end=t_end,
        dt=DtPolicy(value=dt),
        label=f"bump-1d-p{p:g}",
    )


# name -> (factory, the one-line summary `stefanlab presets` prints)
PRESETS = {
    "constant": (constant_preset, "spatially constant state; all checks trivial"),
    "heat-smooth-1d": (heat_smooth_1d,
                       "smooth positive data away from the jump (plain heat run)"),
    "stefan-1d-p2-onephase": (melting_front_1d,
                              "hot wall melting a cold slab; similarity-law front"),
    "stefan-1d-p2-twophase": (lambda **kw: twophase_1d(p=2.0, **kw),
                              "1D two-phase data oscillating through the jump, p=2"),
    "stefan-1d-p3-twophase": (lambda **kw: twophase_1d(p=3.0, **kw),
                              "1D two-phase data oscillating through the jump, p=3"),
    "stefan-2d-p2-twophase": (lambda **kw: twophase_2d(p=2.0, **kw),
                              "small 2D two-phase run, p=2"),
    "stefan-2d-p3-twophase": (lambda **kw: twophase_2d(p=3.0, **kw),
                              "small 2D two-phase run, p=3"),
    "bump-1d-p3": (positive_bump_1d, "positive bump for Harnack/positivity-decay measurements"),
}


def make_preset(name: str) -> Scenario:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; known: {sorted(PRESETS)}")
    return PRESETS[name][0]()


def list_presets() -> list[tuple[str, str]]:
    return [(name, summary) for name, (_, summary) in sorted(PRESETS.items())]
