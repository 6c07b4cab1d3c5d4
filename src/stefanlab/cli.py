"""Configuration ingestion, batch orchestration and report emission.

Configs are INI files (sections of key = value pairs; values are scalars,
strings, or comma-separated flat lists).  Every run writes its fully
resolved configuration next to the outputs, and re-running a config
reproduces every output file byte for byte except `timings.json`, the wall
times of the solve, the snapshot write and each check; the summary records
the hash of each other artifact.

Exit codes: 0 every requested check that gates passes, 1 a check failed, 2
configuration error, 3 solver failure.
"""
from __future__ import annotations

import argparse
import configparser
import hashlib
import io
import json
import math
import os
import re
import sys
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import presets, studies
from .graphs import BetaMap, GraphValueError, RegularizedGraph
from .constants import ConstantsLedger
from .geometry import ModulusParams, NotMeasurable
from .solver import (Boundary, DtPolicy, Grid, InitialData, Scenario, ScenarioValueError,
                     SolverError, Trajectory, VectorField, run_simulation)

ENV_OUTPUT_ROOT = "STEFANLAB_OUTPUT_ROOT"

class ConfigError(ValueError):
    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field_name = field_name


def _named(field_name: str, fn, *args):
    """`fn(*args)`, with a failure reported as a ConfigError naming the field."""
    try:
        return fn(*args)
    except (LookupError, ValueError, TypeError, OverflowError) as err:
        raise ConfigError(field_name, str(err)) from err


# ---------------------------------------------------------------------------
# Parsing.  Each value parser returns the parsed value or raises ValueError
# for text outside its key's domain.
# ---------------------------------------------------------------------------

def _number(convert, ok, domain: str):
    def parse(text: str):
        x = convert(text)
        if not ok(x):
            raise ValueError(f"must be {domain}, got {text!r}")
        return x
    return parse


def _one_of(choices, what: str):
    def parse(text: str) -> str:
        if text not in choices:
            raise ValueError(f"unknown {what} {text!r}; known: {', '.join(map(str, choices))}")
        return text
    return parse


def _list_of(choices, what: str):
    def parse(text: str) -> list[str]:
        return [_one_of(choices, what)(t.strip()) for t in text.split(",") if t.strip()]
    return parse


_finite = _number(float, math.isfinite, "finite")
_positive = _number(float, lambda x: 0.0 < x < math.inf, "positive and finite")


def _integer(text: str) -> int:
    """An integer, also written as an integral float such as 41.0 or 1e3."""
    x = float(text)
    if not x.is_integer():
        raise ValueError(f"must be an integer, got {text!r}")
    return int(x)


def _at_least(least: int):
    return _number(_integer, lambda n: n >= least, f"an integer >= {least}")


def _floats(text: str) -> tuple[float, ...]:
    return tuple(_finite(tok) for tok in text.replace(",", " ").split())


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
        out[k.strip()] = _finite(toks[0]) if len(toks) == 1 else tuple(map(_finite, toks))
    return out


def _beta(text: str) -> BetaMap:
    if text == "identity":
        return BetaMap()
    if text.startswith("tanh:"):
        mu, tau = _floats(text.split(":", 1)[1])
        return BetaMap(kind="tanh", mu=mu, tau=tau)
    if text.startswith("piecewise:"):
        # format: piecewise:-1/-0.5,0/0,1/2 - knot/value pairs
        pairs = [q.split("/") for q in text.split(":", 1)[1].split(",") if q.strip()]
        if any(len(q) != 2 for q in pairs):
            raise ValueError(f"expected knot/value pairs, got {text!r}")
        return BetaMap(kind="piecewise", knots=tuple(_finite(q[0]) for q in pairs),
                       values=tuple(_finite(q[1]) for q in pairs))
    raise ValueError(f"unknown beta spec {text!r}")


def _field(text: str) -> VectorField | None:
    if text == "p-laplacian":
        return None
    if text.startswith("anisotropic:"):
        return VectorField(_floats(text.split(":", 1)[1]))
    raise ValueError(f"unknown field spec {text!r}")


def _boundary(text: str) -> tuple[tuple[float, float], ...] | None:
    """None for zero-flux, else Dirichlet (low, high) values for axes 0 and 1."""
    if text == "zero-flux":
        return None
    if not text.startswith("dirichlet:"):
        raise ValueError(f"unknown boundary spec {text!r}")
    kv = _parse_kv(text.split(":", 1)[1])
    for end in kv:
        _one_of(("left", "right", "lo0", "hi0", "lo1", "hi1"), "boundary end")(end)
    return tuple((float(kv.get(f"lo{ax}", kv.get("left", 0.0))),
                  float(kv.get(f"hi{ax}", kv.get("right", 0.0)))) for ax in (0, 1))


def _dt(text: str) -> DtPolicy:
    if text != "intrinsic" and not text.startswith("intrinsic:"):
        return DtPolicy(value=float(text))
    kv = _parse_kv(text.split(":", 1)[1]) if ":" in text else {}
    for name in kv:
        _one_of(("safety",), "intrinsic dt parameter")(name)
    return DtPolicy(kind="intrinsic", safety=float(kv.get("safety", 0.5)))


class Key(NamedTuple):
    default: str | None             # text used when the key is absent; None: no default
    parse: Callable[[str], object]
    axis: str | None = None         # the [sweep] axis that varies the key


# Every config key, by section.  Next to a preset, each given key replaces
# the preset's value; a scenario key without a default is required when
# there is no preset.
KEYS: dict[str, dict[str, Key]] = {
    "scenario": {
        "preset": Key(None, presets.make_preset, axis="preset"),
        "dim": Key("1", _integer),
        "nodes": Key(None, _integer, axis="resolution"),
        "extent": Key("1.0", float),
        "p": Key(None, float, axis="p"),
        "latent_heat": Key("1.0", float, axis="latent_heat"),
        # the graph would name a NaN jump location by the band it spoils, eps
        "jump_location": Key("0.0", _finite),
        "mollify_eps": Key("0.05", float, axis="eps"),
        "beta": Key("identity", _beta),
        "field": Key("p-laplacian", _field),
        "initial": Key("constant", str),
        "initial_params": Key("", _parse_kv),
        "boundary": Key("zero-flux", _boundary),
        "t_end": Key(None, float),
        "dt": Key(None, _dt),
        "store_every": Key("1", _integer),
        "label": Key("", str),
    },
    "modulus": {
        "r0": Key("0.25", _positive),
        "center": Key(None, _floats),
        "l_prefactor": Key("auto", lambda t: None if t == "auto" else _number(
            float, lambda x: 1.0 <= x < math.inf, "finite and >= 1")(t)),
        "alpha_if_p_eq_n": Key("0.45", _number(float, lambda x: 0.0 < x < 0.5, "in (0, 1/2)")),
        # c* needs two rungs (the alpha fit four)
        "ladder_depth": Key("", lambda t: _at_least(2)(t) if t else None),
    },
    # fix_constants checks the ranges beyond positivity
    "constants": {key: Key(None, _positive) for key in
                  ("c0", "c1", "c2", "c3", "theta")},
    "checks": {
        "run": Key("conservation", _list_of(tuple(studies.CHECKS), "check")),
        "seed": Key("1234", _at_least(0)),
    },
    "output": {
        # joined to the output root where it is used (`_under_output_root`)
        "directory": Key("out/run", Path),
        "snapshot_stride": Key("0", _at_least(0)),
    },
    "sweep": {
        "axis": Key("", lambda t: _list_of(tuple(SWEEP_AXES), "axis")(t)),
        "values": Key("", lambda t: [[v.strip() for v in vals.split(",") if v.strip()]
                                     for vals in t.split(";") if vals.strip()]),
    },
}
# Sweep axis -> the [scenario] key it varies.
SWEEP_AXES = {k.axis: key for key, k in KEYS["scenario"].items() if k.axis}


@dataclass
class RunConfig:
    scenario: Scenario
    ledger: ConstantsLedger
    params: ModulusParams      # measurement parameters of the [modulus] keys
    values: dict               # section -> key -> parsed value; modulus.center filled in
    sweep: list[tuple[str, list[str]]]

    @property
    def output_dir(self) -> Path:
        return _under_output_root(self.values["output"]["directory"])


def _under_output_root(directory: Path) -> Path:
    """`directory` under `STEFANLAB_OUTPUT_ROOT` when that is set."""
    return Path(os.environ.get(ENV_OUTPUT_ROOT) or "") / directory


def parse_config(path: str | Path) -> RunConfig:
    return _config_of(_read_ini(path)[1])


def _read_ini(path) -> tuple[configparser.ConfigParser, dict[str, dict[str, str]]]:
    """The INI file and its sections as dicts of value text."""
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        read = cp.read(path)
        raw = {s: dict(cp[s]) for s in cp.sections()}
    except (configparser.Error, UnicodeDecodeError) as err:
        where = [getattr(err, a) for a in ("section", "option") if getattr(err, a, None)]
        raise ConfigError(".".join(where) or "config", str(err)) from err
    if not read:
        raise ConfigError("config", f"cannot read {path}")
    return cp, raw


def _config_of(raw: dict[str, dict[str, str]]) -> RunConfig:
    for section, keys in raw.items():
        if section not in KEYS:
            raise ConfigError(section, "unknown section")
        for key in keys:
            if key not in KEYS[section]:
                raise ConfigError(f"{section}.{key}", "unknown key")
    given = raw.get("scenario", {})
    val = {section: {key: _named(f"{section}.{key}", k.parse, text)
                     for key, k in keys.items()
                     if (text := raw.get(section, {}).get(key, k.default)) is not None}
           for section, keys in KEYS.items()}

    sc = val["scenario"]
    if "preset" in sc:
        sc = {**sc, **_keys_of(sc["preset"]), **{key: sc[key] for key in given}}
    scenario = _scenario(sc)

    mod = val["modulus"] = {key: val["modulus"].get(key) for key in KEYS["modulus"]}
    grid = scenario.grid
    mod["center"] = mod["center"] or (grid.extent / 2,) * grid.dim
    if len(mod["center"]) != grid.dim:
        raise ConfigError("modulus.center", f"{len(mod['center'])} coordinates for a "
                                            f"{grid.dim}D grid")
    if not all(0.0 <= c <= grid.extent for c in mod["center"]):
        raise ConfigError("modulus.center", f"{mod['center']} lies outside the domain, "
                                            f"[0, {grid.extent:g}] on each axis")
    ledger = _named("constants", lambda: studies.default_ledger(
        scenario, alpha_choice_if_p_eq_n=mod["alpha_if_p_eq_n"]
        if scenario.p == scenario.grid.dim else None, **val["constants"]))
    params = _named("modulus", studies.measurement_params, ledger, mod["r0"])
    if mod["l_prefactor"] is not None:
        params = replace(params, L=mod["l_prefactor"])

    axes, values = val["sweep"]["axis"], val["sweep"]["values"]
    if axes and len(values) != len(axes):
        raise ConfigError("sweep.values", "need one ;-separated value list per axis")
    return RunConfig(scenario, ledger, params, val, list(zip(axes, values)))


def _keys_of(sc: Scenario) -> dict:
    """The parsed [scenario] values that rebuild `sc`: unit weights as no
    field, which gives them on as many axes as `dim` asks for, and Dirichlet
    values 0 on an axis `sc` has none for, as for a config's missing end."""
    g, b = sc.graph, sc.boundary
    return {"dim": sc.grid.dim, "nodes": sc.grid.nodes, "extent": sc.grid.extent,
            "p": sc.p, "latent_heat": g.latent_heat, "jump_location": g.a, "mollify_eps": g.eps,
            "beta": g.beta, "field": None if set(sc.field.weights) == {1.0} else sc.field,
            "initial": sc.initial.name, "initial_params": sc.initial.as_dict(),
            "boundary": None if b.kind == "zero-flux" else (*b.values, (0.0, 0.0)),
            "t_end": sc.t_end, "dt": sc.dt, "store_every": sc.store_every, "label": sc.label}


# The config key of each `RegularizedGraph` field whose name differs from it.
_GRAPH_KEYS = {"a": "jump_location", "eps": "mollify_eps"}


def _scenario(v: dict) -> Scenario:
    """The one Scenario of the parsed [scenario] values `v`; the library
    types check every value's domain, and an error names its key."""
    for key in KEYS["scenario"]:
        if key not in v and key != "preset":
            raise ConfigError(f"scenario.{key}", "required key missing")
    dim, b = v["dim"], v["boundary"]
    try:
        return Scenario(
            grid=Grid(dim, v["nodes"], v["extent"]),
            p=v["p"],
            graph=RegularizedGraph(v["jump_location"], v["latent_heat"], v["mollify_eps"],
                                   v["beta"]),
            field=v["field"], initial=InitialData.of(v["initial"], **v["initial_params"]),
            boundary=Boundary() if b is None else Boundary(kind="dirichlet", values=b[:dim]),
            t_end=v["t_end"], dt=v["dt"], store_every=v["store_every"], label=v["label"])
    except (ScenarioValueError, GraphValueError) as err:
        raise ConfigError(f"scenario.{_GRAPH_KEYS.get(err.key, err.key)}", str(err)) from err


# ---------------------------------------------------------------------------
# Artifact emission
# ---------------------------------------------------------------------------

def _write(path: Path, text: str | bytes) -> str:
    """Write an artifact; return the sha256 of the bytes written.

    A file left by an earlier run is overwritten in place and then cut to
    the new length.  Truncating it to zero first would free its blocks only
    to allocate them again, which on a filesystem mounted with `discard`
    costs more than the write itself.
    """
    data = text.encode() if isinstance(text, str) else text
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as f:
        f.write(data)
        f.truncate()
    return hashlib.sha256(data).hexdigest()


def _json_dump(path: Path, obj) -> str:
    return _write(path, json.dumps(obj, sort_keys=True, indent=1, default=_json_default) + "\n")


def _json_default(v):
    if isinstance(v, (np.floating, np.integer)):
        return float(v)
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, Path):
        return str(v)
    return repr(v)


# A snapshot file name, of this layout (.bin) or of the older per-step sidecars.
_STEP_FILE = re.compile(r"step_\d{6}\.(bin|json)")
# Every other file a run writes.
_ARTIFACTS = ("resolved_config.ini", "checks.jsonl", "oscillation.csv", "fit.json",
              "ledger.json", "timings.json", "snapshots/index.json", "summary.json",
              "error.json")


def _remove_stale(outdir: Path, written) -> None:
    """Remove the files of `_ARTIFACTS` and the snapshot step files that an
    earlier run left in `outdir` and this one did not write (`written`, by
    path relative to `outdir`), and `snapshots/` if that empties it."""
    for name in _ARTIFACTS:
        if name not in written:
            (outdir / name).unlink(missing_ok=True)
    snapdir = outdir / "snapshots"
    if snapdir.is_dir():
        for path in snapdir.iterdir():
            if _STEP_FILE.fullmatch(path.name) and f"snapshots/{path.name}" not in written:
                path.unlink()
        if not any(snapdir.iterdir()):
            snapdir.rmdir()


def _write_snapshots(outdir: Path, traj: Trajectory, stride: int) -> dict[str, str]:
    """Write every `stride`-th stored field and the last one, and one
    `index.json` describing them.  Return the sha256 of each file written,
    by its path relative to `outdir`."""
    snapdir = outdir / "snapshots"
    snapdir.mkdir(parents=True, exist_ok=True)
    last = len(traj.times) - 1
    kept = sorted({*range(0, last + 1, max(stride, 1)), last})
    hashes = {}
    for m in kept:
        rel = f"snapshots/step_{m:06d}.bin"
        hashes[rel] = _write(outdir / rel, np.ascontiguousarray(traj.temps[m], "<f8").tobytes())
    hashes["snapshots/index.json"] = _json_dump(snapdir / "index.json", {
        "shape": list(traj.grid.shape),
        "dtype": "<f8",
        "order": "row-major",
        "grid": traj.scenario.canonical_dict()["grid"],
        "scenario_hash": traj.scenario.scenario_hash(),
        "times": [traj.times[m] for m in kept],
        "indices": kept,
    })
    return hashes


def _ini_text(cp: configparser.ConfigParser) -> str:
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def _text(value) -> str:
    """A parsed scalar or flat list as text its key's parser reads back."""
    return ",".join(map(str, value)) if isinstance(value, (tuple, list)) else str(value)


def _scenario_text(sc: Scenario) -> dict[str, str]:
    """The [scenario] keys that rebuild `sc`, as text their parsers read back."""
    def floats(xs):
        return " ".join(map(repr, xs))

    beta, b, dt = sc.graph.beta, sc.boundary, sc.dt
    specs = {
        "beta": "identity" if beta.kind == "identity" else
                f"tanh:{beta.mu!r} {beta.tau!r}" if beta.kind == "tanh" else
                "piecewise:" + ",".join(f"{x!r}/{y!r}" for x, y in zip(beta.knots, beta.values)),
        "field": "anisotropic:" + floats(sc.field.weights),
        "initial_params": ", ".join(f"{k}={floats(v) if isinstance(v, tuple) else repr(v)}"
                                    for k, v in sc.initial.params),
        "boundary": "zero-flux" if b.kind == "zero-flux" else "dirichlet:" + ",".join(
            f"lo{ax}={lo!r},hi{ax}={hi!r}" for ax, (lo, hi) in enumerate(b.values)),
        "dt": repr(dt.value) if dt.kind == "fixed" else f"intrinsic:safety={dt.safety!r}",
    }
    return {k: specs[k] if k in specs else _text(v) for k, v in _keys_of(sc).items()}


def _resolved_config_text(cfg: RunConfig) -> str:
    """Every key of the run, a preset expanded, as a config that re-runs it."""
    sections = {"scenario": _scenario_text(cfg.scenario)}
    # None as the key's default
    for section in ("modulus", "constants", "checks", "output"):
        sections[section] = {k: KEYS[section][k].default if v is None else _text(v)
                             for k, v in cfg.values[section].items()}
    cp = configparser.ConfigParser()
    # "%" starts an interpolation when the config is read
    cp.read_dict({section: {k: v.replace("%", "%%") for k, v in keys.items()}
                  for section, keys in sections.items()})
    return _ini_text(cp)


def _run_checks(cfg: RunConfig, traj: Trajectory) -> tuple[dict, list[dict], dict]:
    """Each requested check's summary entry, the records of the checks that
    make a report (stamped with the run's scenario hash and resolution), and
    each check's wall time in seconds."""
    mod, checks = cfg.values["modulus"], cfg.values["checks"]
    run_id = {"scenario_hash": traj.scenario.scenario_hash(),
              "resolution": traj.resolution_label()}
    site = studies.check_site(traj, cfg.params, cfg.ledger, mod["center"], seed=checks["seed"],
                              ladder_depth=mod["ladder_depth"])
    reports, summary, seconds = [], {}, {}
    for name in checks["run"]:
        start = time.perf_counter()
        check = studies.CHECKS[name]
        try:
            entry, rep = check.run(traj, site)
        except NotMeasurable as err:  # the run or the site lacks what the check needs
            entry, rep = {"gate": False, "degenerate": True, "note": str(err)}, None
        except ValueError as err:  # any other refusal is a failed verdict
            entry, rep = {"pass": False, "error": f"{type(err).__name__}: {err}"}, None
        if rep is not None:
            reports.append({**asdict(rep), **run_id})
        summary[name] = {**entry, "label": check.label}
        seconds[name] = time.perf_counter() - start
    return summary, reports, seconds


def run(config_path: str | Path, out_override: str | None = None) -> int:
    """Execute the solve -> geometry -> verify pipeline for one config."""
    start = time.perf_counter()
    try:
        cfg = parse_config(config_path)
    except ConfigError as err:
        _emit_config_error(config_path, err, out_override)
        return 2
    outdir = Path(out_override) if out_override else cfg.output_dir
    outdir.mkdir(parents=True, exist_ok=True)
    # artifact path relative to outdir -> sha256 of the bytes written
    hashes = {"resolved_config.ini": _write(outdir / "resolved_config.ini",
                                            _resolved_config_text(cfg))}

    solve_start = time.perf_counter()
    try:
        traj = run_simulation(cfg.scenario)
    except SolverError as err:
        _json_dump(outdir / "error.json", {"code": 3, "kind": type(err).__name__,
                                           "message": str(err), "time": err.time})
        _remove_stale(outdir, {*hashes, "error.json"})
        return 3
    snapshots_start = time.perf_counter()
    hashes.update(_write_snapshots(outdir, traj, cfg.values["output"]["snapshot_stride"]))
    snapshots_end = time.perf_counter()
    summary, reports, check_seconds = _run_checks(cfg, traj)

    hashes["checks.jsonl"] = _write(outdir / "checks.jsonl", "".join(
        json.dumps(rep, sort_keys=True, default=_json_default) + "\n" for rep in reports))
    if "profile" in summary.get("modulus", {}):
        profile = summary["modulus"].pop("profile")
        hashes["oscillation.csv"] = _write(outdir / "oscillation.csv", profile.to_csv())
        hashes["fit.json"] = _json_dump(outdir / "fit.json", profile.fit_dict())
    hashes["ledger.json"] = _json_dump(outdir / "ledger.json", cfg.ledger.as_dict())

    all_pass = all(entry.get("pass", False) for entry in summary.values()
                   if entry.get("gate", True))
    _json_dump(outdir / "summary.json", {
        "checks": summary,
        "scenario_hash": traj.scenario.scenario_hash(),
        "trajectory_hash": traj.trajectory_hash(),
        "artifact_hashes": hashes,
        "all_pass": all_pass,
        "solver": studies.solver_summary(traj),
    })
    # Wall times differ between reruns, so they stay out of artifact_hashes.
    _json_dump(outdir / "timings.json", {
        "solve_s": snapshots_start - solve_start,
        "snapshots_s": snapshots_end - snapshots_start,
        "checks_s": check_seconds,
        "total_s": time.perf_counter() - start,
    })
    _remove_stale(outdir, {*hashes, "summary.json", "timings.json"})
    return 0 if all_pass else 1


def _config_error_dir(config_path) -> Path:
    """The directory a config that does not parse would have run into: its
    `[output] directory` when the INI can be read, else the default."""
    key = KEYS["output"]["directory"]
    try:
        text = _read_ini(config_path)[1].get("output", {}).get("directory", key.default)
    except ConfigError:
        text = key.default
    return _under_output_root(key.parse(text))


def _emit_config_error(config_path, err: ConfigError, out_override) -> None:
    """Write the error record of a config that does not parse into its run
    directory, removing an earlier run's files there."""
    record = {"code": 2, "field": err.field_name, "message": str(err),
              "config": str(config_path)}
    target = Path(out_override) if out_override else _config_error_dir(config_path)
    try:
        target.mkdir(parents=True, exist_ok=True)
        _json_dump(target / "error.json", record)
        _remove_stale(target, {"error.json"})
    except OSError:
        pass
    print(json.dumps(record, sort_keys=True), file=sys.stderr)


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------

def sweep(config_path: str | Path, out_override: str | None = None) -> int:
    """Cross product over the [sweep] axes; aggregates one CSV of constants."""
    try:
        cp, raw = _read_ini(config_path)
        cfg = _config_of(raw)
    except ConfigError as err:
        _emit_config_error(config_path, err, out_override)
        return 2

    outdir = Path(out_override) if out_override else cfg.output_dir
    outdir.mkdir(parents=True, exist_ok=True)
    combos: list[list[tuple[str, str]]] = [[]]
    for name, vals in cfg.sweep:
        combos = [c + [(name, v)] for c in combos for v in vals]
    # Each run's config is the swept one without [sweep]; every combination
    # sets every axis, so one parser serves them all.
    cp.remove_section("sweep")
    if not cp.has_section("scenario"):
        cp.add_section("scenario")

    rows = []
    worst = 0
    for i, combo in enumerate(combos):
        label = "_".join(f"{k}-{v}" for k, v in combo) or "single"
        sub = outdir / f"run_{i:03d}_{label}"
        sub.mkdir(parents=True, exist_ok=True)
        for name, value in combo:
            cp["scenario"][SWEEP_AXES[name]] = value
        _write(sub / "config.ini", _ini_text(cp))
        code = run(sub / "config.ini", out_override=str(sub))
        worst = max(worst, code)
        row = {"run": label, "exit": code}
        if code in (0, 1):  # only a run that checked has verdicts to report
            summary = json.loads((sub / "summary.json").read_text())
            for check, entry in summary["checks"].items():
                for key in ("implied_constant", "c_star", "alpha_hat", "defect",
                            "margin"):
                    if key in entry and entry[key] is not None:
                        row[f"{check}.{key}"] = entry[key]
                if "pass" in entry:
                    row[f"{check}.pass"] = entry["pass"]
            row.update({f"solver.{key}": value for key, value in summary["solver"].items()})
        rows.append(row)

    cols = sorted({k for row in rows for k in row})
    lines = [",".join(cols)] + [",".join(repr(row[k]) if k in row else "" for k in cols)
                                for row in rows]
    _write(outdir / "aggregated.csv", "\n".join(lines) + "\n")
    return worst


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

    for verb, text in (("run", "execute one config end to end"),
                       ("sweep", "run the cross product of the [sweep] axes")):
        p_verb = sub.add_parser(verb, help=text)
        p_verb.add_argument("config")
        p_verb.add_argument("--output", help="override the output directory")

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
            print(json.dumps({"code": 2, "field": err.field_name, "message": str(err)},
                             sort_keys=True), file=sys.stderr)
            return 2
        print("ok")
        return 0
    return 2


if __name__ == "__main__":
    sys.exit(main())
