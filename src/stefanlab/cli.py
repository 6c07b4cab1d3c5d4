"""Configuration ingestion, batch orchestration and report emission.

Configs are INI files (sections of key = value pairs; values are scalars,
strings, or comma-separated flat lists).  Every run writes its fully
resolved configuration next to the outputs, and re-running a config
reproduces every output file byte for byte; the summary records the hash of
each artifact.

Exit codes: 0 all requested checks pass, 1 a check failed, 2 configuration
error, 3 solver failure.
"""
from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import presets, studies, verify
from .graphs import BetaMap, RegularizedGraph
from .constants import fix_constants
from .geometry import ModulusParams, cylinder
from .solver import (INITIAL_DATA, Boundary, DtPolicy, Grid, InitialData, Scenario,
                     ScenarioValueError, SolverError, Tolerances, Trajectory,
                     VectorField, conservation_defect, run_simulation)
from .verify import CutoffSpec

ENV_OUTPUT_ROOT = "STEFANLAB_OUTPUT_ROOT"

CHECK_LABELS = {
    "conservation": "enthalpy integral drift under zero-flux boundaries",
    "weakform": "integral identity of the conservation law against a test bump",
    "caccioppoli": "energy estimate for truncations against cutoff terms",
    "truncation": "truncations below the jump act as super/subsolutions",
    "weak-harnack": "average at one time vs waiting-time infimum (p > 2)",
    "decay": "positivity floor along the decay profile",
    "classifier": "measure dichotomy for the level set above a quarter oscillation",
    "modulus": "oscillation ladder against the log-power modulus",
}

KNOWN_KEYS = {
    "scenario": {
        "preset", "dim", "nodes", "extent", "p", "latent_heat", "jump_location",
        "mollify_eps", "beta", "field", "initial", "initial_params", "boundary",
        "t_end", "dt", "store_every", "step_rtol", "label",
    },
    "modulus": {"r0", "center", "l_prefactor", "alpha_if_p_eq_n", "ladder",
                "ladder_depth"},
    "constants": {"c0", "c1", "c2", "c3", "theta1", "theta2", "varsigma",
                  "nu_star"},
    "checks": {"run", "seed"},
    "output": {"directory", "snapshot_stride"},
    "sweep": {"axis", "values"},
}


class ConfigError(ValueError):
    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field_name = field_name


@dataclass
class RunConfig:
    scenario: Scenario
    modulus_r0: float
    modulus_center: tuple[float, ...]
    modulus_L: float | None
    alpha_if_p_eq_n: float
    ladder: str
    ladder_depth: int | None
    constants_kwargs: dict
    checks: list[str]
    seed: int
    output_dir: Path
    snapshot_stride: int
    raw: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def _parse_named(field_name: str, parse, text):
    """`parse(text)`, with a failure reported as a ConfigError naming the field."""
    try:
        return parse(text)
    except (LookupError, ValueError, TypeError, OverflowError) as err:
        raise ConfigError(field_name, str(err)) from err


def _parse_kv(text: str) -> dict:
    out = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ValueError(f"expected key=value, got {item!r}")
        k, v = item.split("=", 1)
        toks = v.strip().split()
        out[k.strip()] = float(toks[0]) if len(toks) == 1 else tuple(map(float, toks))
    return out


# Scenario keys a preset takes as overrides: INI key -> (preset argument,
# parser).  store_every, label and step_rtol apply to presets and explicit
# scenarios alike.  Any other scenario key is rejected next to a preset.
PRESET_OVERRIDES = {
    "nodes": ("nodes", lambda t: int(float(t.split(",")[0]))),
    "mollify_eps": ("eps", float),
    "latent_heat": ("latent_heat", float),
    "t_end": ("t_end", float),
    "dt": ("dt", float),
}
PRESET_APPLIED = {"preset", "store_every", "label", "step_rtol", *PRESET_OVERRIDES}


def parse_config(path: str | Path) -> RunConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        read = cp.read(path)
        raw = {s: dict(cp[s]) for s in cp.sections()}
    except (configparser.Error, UnicodeDecodeError) as err:
        where = [getattr(err, a) for a in ("section", "option") if getattr(err, a, None)]
        raise ConfigError(".".join(where) or "config", str(err)) from err
    if not read:
        raise ConfigError("config", f"cannot read {path}")
    for section, keys in raw.items():
        if section not in KNOWN_KEYS:
            raise ConfigError(section, "unknown section")
        for key in keys:
            if key not in KNOWN_KEYS[section]:
                raise ConfigError(f"{section}.{key}", "unknown key")

    sc_sec = raw.get("scenario", {})

    def get(section, key, default=None, parse=None):
        """The key's text, or `parse` of it with a failure named after the key."""
        text = raw.get(section, {}).get(key, default)
        if parse is None or text is None:
            return text
        return _parse_named(f"{section}.{key}", parse, text)

    preset_name = get("scenario", "preset")
    if preset_name is not None:
        for key in sc_sec:
            if key not in PRESET_APPLIED:
                raise ConfigError(f"scenario.{key}", "not applied with a preset")
        overrides = {arg: get("scenario", key, parse=parse)
                     for key, (arg, parse) in PRESET_OVERRIDES.items() if get("scenario", key)}
    try:
        if preset_name is not None:
            scenario = presets.make_preset(preset_name, **overrides)
        else:
            scenario = _scenario_from_keys(sc_sec)
    except ConfigError:
        raise
    except ScenarioValueError as err:
        raise ConfigError(f"scenario.{err.key}", str(err)) from err
    except (LookupError, ValueError, TypeError, OverflowError) as err:
        raise ConfigError("scenario", str(err)) from err

    if get("scenario", "store_every"):
        # replace() reruns Scenario's validation (store_every >= 1)
        scenario = get("scenario", "store_every",
                       parse=lambda t: replace(scenario, store_every=int(t)))
    if get("scenario", "label"):
        scenario.label = get("scenario", "label")
    if get("scenario", "step_rtol"):
        # Tolerances rejects a step_rtol that is not positive and finite
        scenario.tolerances = get("scenario", "step_rtol",
                                  parse=lambda t: Tolerances(step_rtol=float(t)))

    r0 = get("modulus", "r0", "0.25", float)
    center = (get("modulus", "center", parse=_parse_floats)
              or tuple(e / 2 for e in scenario.grid.extents))
    if len(center) != scenario.grid.dim:
        raise ConfigError("modulus.center", f"{len(center)} coordinates for a "
                                            f"{scenario.grid.dim}D grid")
    modulus_L = get("modulus", "l_prefactor", "auto",
                    lambda t: None if t == "auto" else float(t))
    alpha_choice = get("modulus", "alpha_if_p_eq_n", "0.45", float)
    ladder = get("modulus", "ladder", "dyadic2")
    if ladder not in verify.LADDER_BASES:
        raise ConfigError("modulus.ladder",
                          f"unknown ladder {ladder!r}; use {' or '.join(verify.LADDER_BASES)}")
    ladder_depth = get("modulus", "ladder_depth", "", lambda t: int(t) if t else None)

    const_kwargs = {}
    for key in ("c0", "c1", "c2", "c3", "theta1", "theta2", "varsigma", "nu_star"):
        val = get("constants", key, parse=float)
        if val is not None:
            const_kwargs[key] = val

    checks_txt = get("checks", "run", "conservation")
    checks = [c.strip() for c in checks_txt.split(",") if c.strip()]
    for c in checks:
        if c not in CHECK_LABELS:
            raise ConfigError("checks.run", f"unknown check {c!r}")
    seed = get("checks", "seed", "1234", int)

    out_dir = get("output", "directory", "out/run")
    root = os.environ.get(ENV_OUTPUT_ROOT)
    out_path = Path(root) / out_dir if root else Path(out_dir)
    stride = get("output", "snapshot_stride", "0", int)

    return RunConfig(
        scenario=scenario,
        modulus_r0=r0,
        modulus_center=center,
        modulus_L=modulus_L,
        alpha_if_p_eq_n=alpha_choice,
        ladder=ladder,
        ladder_depth=ladder_depth,
        constants_kwargs=const_kwargs,
        checks=checks,
        seed=seed,
        output_dir=out_path,
        snapshot_stride=stride,
        raw=raw,
    )


def _scenario_from_keys(sec) -> Scenario:
    required = ("p", "nodes", "t_end", "dt")
    for key in required:
        if key not in sec:
            raise ConfigError(f"scenario.{key}", "required key missing")
    dim = _parse_named("scenario.dim", int, sec.get("dim", "1"))
    if dim not in (1, 2):
        raise ConfigError("scenario.dim", f"dim must be 1 or 2, got {dim}")
    nodes = _parse_named("scenario.nodes",
                         lambda t: tuple(int(float(v)) for v in t.split(",")), sec["nodes"])
    if len(nodes) == 1 and dim == 2:
        nodes = nodes * 2
    extent = float(sec.get("extent", "1.0"))
    grid = Grid(extents=(extent,) * dim, nodes=nodes)

    beta = _parse_named("scenario.beta", _parse_beta, sec.get("beta", "identity"))

    graph = RegularizedGraph(
        a=float(sec.get("jump_location", "0.0")),
        latent_heat=float(sec.get("latent_heat", "1.0")),
        eps=float(sec.get("mollify_eps", "0.05")),
        beta=beta,
    )

    initial_name = sec.get("initial", "constant")
    if initial_name not in INITIAL_DATA:
        raise ConfigError("scenario.initial", f"unknown initial data {initial_name!r}; "
                                              f"known: {', '.join(INITIAL_DATA)}")
    initial = InitialData.of(initial_name, **_parse_kv(sec.get("initial_params", "")))

    bdry_txt = sec.get("boundary", "zero-flux")
    if bdry_txt == "zero-flux":
        boundary = Boundary()
    elif bdry_txt.startswith("dirichlet:"):
        kv = _parse_kv(bdry_txt.split(":", 1)[1])
        vals = tuple((float(kv.get(f"lo{ax}", kv.get("left", 0.0))),
                      float(kv.get(f"hi{ax}", kv.get("right", 0.0))))
                     for ax in range(dim))
        boundary = Boundary(kind="dirichlet", values=vals)
    else:
        raise ConfigError("scenario.boundary", f"unknown boundary spec {bdry_txt!r}")

    dt_txt = sec["dt"]
    if dt_txt.startswith("intrinsic"):
        kv = _parse_kv(dt_txt.split(":", 1)[1]) if ":" in dt_txt else {}
        dt = DtPolicy(kind="intrinsic", safety=float(kv.get("safety", 0.5)))
    else:
        dt = DtPolicy(value=float(dt_txt))

    sc = Scenario(grid=grid, p=float(sec["p"]), graph=graph,
                  initial=initial, boundary=boundary,
                  t_end=float(sec["t_end"]), dt=dt)

    field_txt = sec.get("field", "p-laplacian")
    if field_txt.startswith("anisotropic:"):
        try:
            # replace() reruns Scenario's validation (one weight per axis)
            sc = replace(sc, field=VectorField(_parse_floats(field_txt.split(":", 1)[1])))
        except ValueError as err:
            raise ConfigError("scenario.field", str(err)) from err
    elif field_txt != "p-laplacian":
        raise ConfigError("scenario.field", f"unknown field spec {field_txt!r}")
    return sc


def _parse_beta(text: str) -> BetaMap:
    if text == "identity":
        return BetaMap()
    if text.startswith("tanh:"):
        mu, tau = _parse_floats(text.split(":", 1)[1])
        return BetaMap(kind="tanh", mu=mu, tau=tau)
    if text.startswith("piecewise:"):
        # format: piecewise:-1/-0.5,0/0,1/2 - knot/value pairs
        pairs = [q for q in text.split(":", 1)[1].split(",") if q.strip()]
        knots = tuple(float(q.split("/")[0]) for q in pairs)
        values = tuple(float(q.split("/")[1]) for q in pairs)
        return BetaMap(kind="piecewise", knots=knots, values=values)
    raise ValueError(f"unknown beta spec {text!r}")


# ---------------------------------------------------------------------------
# Artifact emission
# ---------------------------------------------------------------------------

def _json_dump(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=1, default=_json_default) + "\n")


def _json_default(v):
    if isinstance(v, (np.floating, np.integer)):
        return float(v)
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, Path):
        return str(v)
    return repr(v)


def _write_snapshots(outdir: Path, traj: Trajectory, stride: int) -> list[Path]:
    snap_dir = outdir / "snapshots"
    snap_dir.mkdir(parents=True, exist_ok=True)
    written = []
    indices = range(len(traj.times)) if stride <= 1 else (
        list(range(0, len(traj.times), stride)) + [len(traj.times) - 1])
    seen = set()
    for m in indices:
        if m in seen:
            continue
        seen.add(m)
        stem = snap_dir / f"step_{m:06d}"
        data = np.ascontiguousarray(traj.temps[m], dtype="<f8")
        (stem.with_suffix(".bin")).write_bytes(data.tobytes())
        _json_dump(stem.with_suffix(".json"), {
            "shape": list(data.shape),
            "dtype": "<f8",
            "order": "row-major",
            "grid": {"extents": list(traj.grid.extents),
                     "nodes": list(traj.grid.nodes)},
            "time": traj.times[m],
            "index": m,
            "scenario_hash": traj.meta.get("scenario_hash"),
        })
        written.extend([stem.with_suffix(".bin"), stem.with_suffix(".json")])
    return written


def _resolved_config_text(cfg: RunConfig) -> str:
    cp = configparser.ConfigParser()
    cp["scenario"] = {k: repr(v) for k, v in cfg.scenario.canonical_dict().items()}
    cp["modulus"] = {
        "r0": repr(cfg.modulus_r0),
        "center": ",".join(repr(c) for c in cfg.modulus_center),
        "l_prefactor": "auto" if cfg.modulus_L is None else repr(cfg.modulus_L),
        "alpha_if_p_eq_n": repr(cfg.alpha_if_p_eq_n),
        "ladder": cfg.ladder,
    }
    cp["constants"] = {k: repr(v) for k, v in sorted(cfg.constants_kwargs.items())}
    cp["checks"] = {"run": ",".join(cfg.checks), "seed": str(cfg.seed)}
    cp["output"] = {"directory": str(cfg.output_dir),
                    "snapshot_stride": str(cfg.snapshot_stride)}
    import io

    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def _run_checks(cfg: RunConfig, traj: Trajectory, ledger) -> tuple[dict, list[dict]]:
    sc = cfg.scenario
    params = studies.measurement_params(sc, r0=cfg.modulus_r0,
                                        alpha_choice_if_p_eq_n=cfg.alpha_if_p_eq_n)
    if cfg.modulus_L is not None:
        params = ModulusParams(n=params.n, p=params.p, alpha=params.alpha,
                               kappa=params.kappa, L=cfg.modulus_L, M=params.M,
                               r0=params.r0)
    center = (cfg.modulus_center, traj.times[-1])
    g = traj.graph
    reports = []
    summary = {}
    for name in cfg.checks:
        try:
            if name == "conservation":
                defect = conservation_defect(traj)
                ok = (sc.boundary.kind != "zero-flux") or defect <= 1e-10
                summary[name] = {"pass": bool(ok), "defect": defect}
            elif name == "weakform":
                from .solver import SpaceTimeBump, weak_form_residual
                bump = SpaceTimeBump(center=cfg.modulus_center,
                                     width=0.8 * cfg.modulus_r0,
                                     t_center=0.5 * traj.times[-1],
                                     t_width=0.6 * traj.times[-1])
                res = weak_form_residual(traj, bump,
                                         (traj.times[0], traj.times[-1]))
                summary[name] = {"pass": True, **{k: res[k] for k in
                                                  ("residual", "normalized_constant")}}
            elif name == "caccioppoli":
                cyl = _default_cylinder(cfg, params, traj)
                ws = np.concatenate([
                    traj.w_fields()[m][traj.ball_mask(cyl.center_space, cyl.ball_radius)]
                    for m in traj.time_indices(*cyl.time_window)])
                k_level = float(np.quantile(ws, 0.3))
                rep = verify.caccioppoli_check(traj, g, k_level, CutoffSpec(), cyl)
                reports.append(rep.to_json_dict())
                summary[name] = {"pass": bool(rep.passed),
                                 "implied_constant": rep.implied_constant,
                                 "degenerate": rep.degenerate}
            elif name == "truncation":
                k_trunc = g.a - 1.5 * g.eps
                margin = 0.15 * min(sc.grid.extents)
                region = (tuple(margin for _ in sc.grid.extents),
                          tuple(e - margin for e in sc.grid.extents))
                rep = verify.truncation_supersolution_check(traj, g, k_trunc,
                                                            g.a, g.eps, region,
                                                            rng_seed=cfg.seed)
                reports.append(rep.to_json_dict())
                summary[name] = {"pass": bool(rep.passed), "margin": rep.margin}
            elif name == "weak-harnack":
                R0 = min(sc.grid.extents) / 8.0 * 0.9
                rep = verify.weak_harnack_check(
                    traj, g.a - 1.5 * g.eps, cfg.modulus_center, R0,
                    t1=traj.times[max(1, len(traj.times) // 10)],
                    T=traj.times[-1], c1=ledger.c1)
                reports.append(rep.to_json_dict())
                summary[name] = {"pass": bool(rep.passed),
                                 "implied_constant": rep.implied_constant,
                                 "degenerate": rep.degenerate}
            elif name == "decay":
                R0 = min(sc.grid.extents) / 8.0 * 0.9
                k_trunc = g.a - 1.5 * g.eps
                m0 = max(1, len(traj.times) // 10)
                mask = traj.ball_mask(cfg.modulus_center, 2 * R0)
                v0 = np.minimum(traj.w_fields()[m0], k_trunc)
                k_start = float(v0[mask].min()) * (1 - 1e-12)
                if k_start <= 0:
                    summary[name] = {"pass": True, "degenerate": True,
                                     "note": "no positive starting level"}
                else:
                    rep = verify.decay_of_positivity_check(
                        traj, k_start, cfg.modulus_center, R0,
                        t0=traj.times[m0], T=traj.times[-1] - traj.times[m0],
                        ledger=ledger, k_truncation=k_trunc)
                    reports.append(rep.to_json_dict())
                    summary[name] = {"pass": bool(rep.passed),
                                     "implied_constant": rep.implied_constant}
            elif name == "classifier":
                r_c = cfg.modulus_r0
                center_c = (cfg.modulus_center, traj.times[-1])
                tilde = cylinder(params, center_c, r_c, "tilde")
                enclosing = cylinder(params, center_c, r_c, "full")
                res = verify.alternative_classifier(
                    traj, tilde, enclosing, float(verify.omega(params, r_c)),
                    ledger.eps1, params.kappa)
                summary[name] = {"pass": True, **{k: res[k] for k in
                                                  ("classification", "oscillation")
                                                  if k in res}}
                if "fraction" in res:
                    summary[name]["fraction"] = res["fraction"]
            elif name == "modulus":
                fit_params, shrunk = _fit_params_to_horizon(params, traj)
                profile, verdict = verify.modulus_acceptance(
                    traj, fit_params, ledger, center, ladder=cfg.ladder,
                    max_rungs=cfg.ladder_depth)
                if shrunk:
                    verdict["r0_shrunk_to_horizon"] = fit_params.r0
                summary[name] = {"pass": bool(verdict["pass"]),
                                 "c_star": verdict["c_star"],
                                 "alpha_hat": verdict["alpha_hat"]}
                summary[name]["profile_csv"] = profile.to_csv()
                summary[name]["fit"] = profile.fit_dict()
        except Exception as err:  # a failed check is a verdict, not a crash
            summary[name] = {"pass": False, "error": f"{type(err).__name__}: {err}"}
    for name in summary:
        summary[name]["label"] = CHECK_LABELS[name]
    return summary, reports


def _fit_params_to_horizon(params: ModulusParams, traj: Trajectory):
    """Shrink r0 until the outermost cylinder fits the computed horizon.

    omega(r0) = L p^{-alpha} does not depend on r0, so the outermost depth
    scales exactly like r0^p and the fit is closed-form.
    """
    horizon = traj.times[-1] - traj.times[0]
    lam = max(max(float(u.max()) for u in traj.temps)
              - min(float(u.min()) for u in traj.temps), 1.0)
    p, alpha = params.p, params.alpha
    w_r0 = params.L * p ** (-alpha)
    depth0 = (lam ** (2.0 - p) * params.M
              * w_r0 ** ((2.0 - p) * (1.0 + 1.0 / alpha)) * params.r0**p)
    if depth0 <= horizon:
        return params, False
    r0 = params.r0 * (0.999 * horizon / depth0) ** (1.0 / p)
    return ModulusParams(n=params.n, p=params.p, alpha=params.alpha,
                         kappa=params.kappa, L=params.L, M=params.M, r0=r0), True


def _default_cylinder(cfg, params, traj):
    from .geometry import IntrinsicCylinder

    center = (cfg.modulus_center, traj.times[-1])
    cyl = cylinder(params, center, cfg.modulus_r0, "full")
    budget = 0.8 * (traj.times[-1] - traj.times[0])
    if cyl.depth > budget:
        cyl = IntrinsicCylinder(center_space=cyl.center_space,
                                center_time=cyl.center_time, radius=cyl.radius,
                                depth=budget, flavor="full")
    return cyl


def run(config_path: str | Path, out_override: str | None = None) -> int:
    """Execute the solve -> geometry -> verify pipeline for one config."""
    try:
        cfg = parse_config(config_path)
    except ConfigError as err:
        _emit_config_error(config_path, err, out_override)
        return 2
    outdir = Path(out_override) if out_override else cfg.output_dir
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "resolved_config.ini").write_text(_resolved_config_text(cfg))

    try:
        traj = run_simulation(cfg.scenario)
    except SolverError as err:
        _json_dump(outdir / "error.json", {
            "code": 3, "kind": type(err).__name__, "message": str(err),
            "time": err.time,
        })
        return 3

    files = _write_snapshots(outdir, traj, cfg.snapshot_stride)
    sc = cfg.scenario
    ledger = fix_constants(n=sc.grid.dim, p=sc.p, Lambda=sc.certified_lambda(),
                           alpha_choice_if_p_eq_n=cfg.alpha_if_p_eq_n
                           if sc.p == sc.grid.dim else None,
                           **cfg.constants_kwargs)
    summary, reports = _run_checks(cfg, traj, ledger)

    checks_path = outdir / "checks.jsonl"
    with checks_path.open("w") as fh:
        for rep in reports:
            fh.write(json.dumps(rep, sort_keys=True, default=_json_default) + "\n")
    files.append(checks_path)

    if "modulus" in summary and "profile_csv" in summary["modulus"]:
        osc_path = outdir / "oscillation.csv"
        osc_path.write_text(summary["modulus"].pop("profile_csv"))
        fit_path = outdir / "fit.json"
        _json_dump(fit_path, summary["modulus"].pop("fit"))
        files.extend([osc_path, fit_path])

    ledger_path = outdir / "ledger.json"
    _json_dump(ledger_path, ledger.as_dict())
    files.append(ledger_path)
    files.append(outdir / "resolved_config.ini")

    hashes = {str(f.relative_to(outdir)): hashlib.sha256(f.read_bytes()).hexdigest()
              for f in sorted(set(files))}
    all_pass = all(entry.get("pass", False) for entry in summary.values())
    _json_dump(outdir / "summary.json", {
        "checks": summary,
        "scenario_hash": traj.meta.get("scenario_hash"),
        "trajectory_hash": traj.trajectory_hash(),
        "artifact_hashes": hashes,
        "all_pass": all_pass,
        "solver": _solver_summary(traj),
    })
    return 0 if all_pass else 1


def _solver_summary(traj: Trajectory) -> dict:
    """Deterministic totals of the per-step solver diagnostics."""
    diags = traj.diagnostics
    return {
        "steps": len(diags),
        "newton_iterations": sum(d.iterations for d in diags),
        "newton_iterations_max": max((d.iterations for d in diags), default=0),
        "linear_iterations": sum(d.linear_iterations for d in diags),
        "backtracks": sum(d.backtracks for d in diags),
        "fallbacks": sum(d.used_fallback for d in diags),
        "energy_increases": sum(not d.energy_decreased for d in diags),
        # A returned step has residual <= tolerance, so residual > 0 implies
        # tolerance > 0.
        "worst_residual_ratio": max((d.residual / d.tolerance if d.residual > 0 else 0.0
                                     for d in diags), default=0.0),
    }


def _emit_config_error(config_path, err: ConfigError, out_override) -> None:
    record = {"code": 2, "field": err.field_name, "message": str(err),
              "config": str(config_path)}
    target = Path(out_override) if out_override else Path("out")
    try:
        target.mkdir(parents=True, exist_ok=True)
        _json_dump(target / "error.json", record)
    except OSError:
        pass
    print(json.dumps(record, sort_keys=True), file=sys.stderr)


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------

SWEEP_AXES = {"p", "eps", "resolution", "latent_heat", "preset"}


def sweep(config_path: str | Path, out_override: str | None = None) -> int:
    """Cross product over the [sweep] axes; aggregates one CSV of constants."""
    try:
        cfg = parse_config(config_path)
        cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        cp.read(config_path)
        axes: list[tuple[str, list[str]]] = []
        if cp.has_section("sweep"):
            names = [a.strip() for a in cp["sweep"].get("axis", "").split(",") if a.strip()]
            value_lists = [v.strip() for v in cp["sweep"].get("values", "").split(";")
                           if v.strip()]
            if names and len(value_lists) != len(names):
                raise ConfigError("sweep.values",
                                  "need one ;-separated value list per axis")
            for name, vals in zip(names, value_lists):
                if name not in SWEEP_AXES:
                    raise ConfigError("sweep.axis", f"unknown axis {name!r}")
                axes.append((name, [v.strip() for v in vals.split(",") if v.strip()]))
    except ConfigError as err:
        _emit_config_error(config_path, err, out_override)
        return 2

    outdir = Path(out_override) if out_override else cfg.output_dir
    outdir.mkdir(parents=True, exist_ok=True)
    combos: list[list[tuple[str, str]]] = [[]]
    for name, vals in axes:
        combos = [c + [(name, v)] for c in combos for v in vals]

    rows = []
    worst = 0
    for i, combo in enumerate(combos):
        label = "_".join(f"{k}-{v}" for k, v in combo) or "single"
        sub = outdir / f"run_{i:03d}_{label}"
        sub_cfg = _apply_axes(config_path, combo, sub)
        code = run(sub_cfg, out_override=str(sub))
        worst = max(worst, code)
        summary_path = sub / "summary.json"
        row = {"run": label, "exit": code}
        if summary_path.exists():
            summary = json.loads(summary_path.read_text())
            for check, entry in summary["checks"].items():
                for key in ("implied_constant", "c_star", "alpha_hat", "defect",
                            "margin"):
                    if key in entry and entry[key] is not None:
                        row[f"{check}.{key}"] = entry[key]
                row[f"{check}.pass"] = entry.get("pass")
        rows.append(row)

    cols = sorted({k for row in rows for k in row})
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(repr(row[k]) if k in row else "" for k in cols))
    (outdir / "aggregated.csv").write_text("\n".join(lines) + "\n")
    return worst


def _apply_axes(config_path, combo, sub_dir) -> Path:
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    cp.read(config_path)
    cp.remove_section("sweep")
    if not cp.has_section("scenario"):
        cp.add_section("scenario")
    for name, value in combo:
        if name == "p":
            cp["scenario"]["p"] = value
        elif name == "eps":
            cp["scenario"]["mollify_eps"] = value
        elif name == "resolution":
            cp["scenario"]["nodes"] = value
        elif name == "latent_heat":
            cp["scenario"]["latent_heat"] = value
        elif name == "preset":
            cp["scenario"]["preset"] = value
    sub_dir.mkdir(parents=True, exist_ok=True)
    target = sub_dir / "config.ini"
    with target.open("w") as fh:
        cp.write(fh)
    return target


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="stefanlab",
        description="Solve regularized two-phase Stefan problems and measure "
                    "the oscillation-decay machinery on the results.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one config end to end")
    p_run.add_argument("config")
    p_run.add_argument("--output", help="override the output directory")

    p_sweep = sub.add_parser("sweep", help="run the cross product of the [sweep] axes")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--output", help="override the output directory")

    sub.add_parser("presets", help="list built-in scenarios")

    p_val = sub.add_parser("validate", help="check a config without running it")
    p_val.add_argument("config")

    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.config, args.output)
    if args.command == "sweep":
        return sweep(args.config, args.output)
    if args.command == "presets":
        for name, summary in presets.list_presets():
            print(f"{name:28s} {summary}")
        return 0
    if args.command == "validate":
        try:
            parse_config(args.config)
        except ConfigError as err:
            print(json.dumps({"code": 2, "field": err.field_name,
                              "message": str(err)}, sort_keys=True),
                  file=sys.stderr)
            return 2
        print("ok")
        return 0
    return 2


if __name__ == "__main__":
    sys.exit(main())
