"""Spans at the module boundaries of stefanlab, recorded from outside.

A ``Tracer`` replaces each traced function or method, at every place it is
looked up, with a wrapper that records one span: name, start, end, parent
span and operation id.  Spans go into flat arrays in memory; ``layer_metrics``
reduces one operation's spans to per-layer counts and times, and
``write_csv`` writes them all out when the run ends.  ``uninstall`` puts the
original objects back, so code outside the traced region runs unwrapped.
"""
from __future__ import annotations

import importlib
import sys
import time
from array import array

import numpy as np

# (span name, "module:attribute" or "module:Class.method").  A module-level
# function is replaced in its own module and in every stefanlab module that
# imported it by name, so each lookup site sees the wrapper.
SITES = (
    ("graphs.e", "stefanlab.graphs:RegularizedGraph.enthalpy_of_temperature"),
    ("graphs.de", "stefanlab.graphs:RegularizedGraph.enthalpy_prime_of_temperature"),
    ("graphs.E_prim", "stefanlab.graphs:RegularizedGraph.enthalpy_primitive_of_temperature"),
    ("graphs.build", "stefanlab.graphs:RegularizedGraph.__post_init__"),
    ("solver.step", "stefanlab.solver:implicit_step"),
    ("solver.energy", "stefanlab.solver:_StepProblem.energy"),
    ("solver.gradient", "stefanlab.solver:_StepProblem.gradient"),
    ("solver.newton_solve", "stefanlab.solver:_StepProblem.solve_newton_system"),
    ("linalg.solve_banded", "scipy.linalg:solve_banded"),
    ("linalg.spsolve", "scipy.sparse.linalg:spsolve"),
    # One span per [checks] entry, around the function that check calls.
    ("verify.conservation", "stefanlab.solver:conservation_defect"),
    ("verify.weakform", "stefanlab.solver:weak_form_residual"),
    ("verify.caccioppoli", "stefanlab.verify:caccioppoli_check"),
    ("verify.truncation", "stefanlab.verify:truncation_supersolution_check"),
    ("verify.classifier", "stefanlab.verify:alternative_classifier"),
    ("verify.modulus", "stefanlab.verify:modulus_acceptance"),
    ("geometry.oscillation", "stefanlab.geometry:oscillation"),
    ("geometry.fit_modulus", "stefanlab.geometry:fit_modulus"),
    ("geometry.cylinder", "stefanlab.geometry:cylinder"),
    ("constants.fix_constants", "stefanlab.constants:fix_constants"),
    ("cli.parse_config", "stefanlab.cli:parse_config"),
    ("cli.snapshots", "stefanlab.cli:_write_snapshots"),
)

STEP = "solver.step"
SETUP_OP = -1


def lookup_sites(target: str) -> list[tuple[object, str]]:
    """Every (owner, attribute) through which stefanlab reaches ``target``."""
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    *cls_path, attr = qualname.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    sites = [(owner, attr)]
    if not cls_path:
        original = getattr(owner, attr)
        for name, mod in sorted(sys.modules.items()):
            if (mod is not owner and (name == "stefanlab" or name.startswith("stefanlab."))
                    and getattr(mod, attr, None) is original):
                sites.append((mod, attr))
    return sites


class Tracer:
    """In-memory span recorder; ``op`` tags new spans with an operation id."""

    def __init__(self):
        self.names = [name for name, _ in SITES]
        self._targets = [target for _, target in SITES]
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op_of = array("i")
        self.op = SETUP_OP
        # (operation id, grid shape, StepDiag) for every implicit step.
        self.steps: list[tuple[int, tuple, object]] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for name_id, target in enumerate(self._targets):
            sites = lookup_sites(target)
            original = getattr(*sites[0])
            wrapper = self._wrap(name_id, original, record_step=self.names[name_id] == STEP)
            for owner, attr in sites:
                self._patches.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, name_id: int, fn, record_step: bool):
        start, end, names, parents, ops = (self.start, self.end, self.name,
                                           self.parent, self.op_of)
        stack, steps, clock = self._stack, self.steps, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(start)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if record_step:
                steps.append((tracer.op, args[0].shape, result[1]))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    # -- reduction -----------------------------------------------------------

    def _arrays(self):
        start = np.array(self.start, dtype=float)
        dur = np.array(self.end, dtype=float) - start
        name = np.array(self.name, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        op = np.array(self.op_of, dtype=np.int64)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=dur.size)
        return dur, dur - child_time, name, parent, op

    def layer_metrics(self, op: int) -> dict[str, float]:
        """Per-layer counts and times of one operation's spans."""
        dur, self_time, name, parent, ops = self._arrays()
        mine = ops == op
        out: dict[str, float] = {}
        for name_id, label in enumerate(self.names):
            sel = mine & (name == name_id)
            out[f"{label}.calls"] = int(sel.sum())
            out[f"{label}.s"] = float(dur[sel].sum())
            out[f"{label}.self_s"] = float(self_time[sel].sum())
        step_id = self.names.index(STEP)
        step_ms = dur[mine & (name == step_id)] * 1e3
        out[f"{STEP}.ms.p50"] = float(np.percentile(step_ms, 50)) if step_ms.size else 0.0
        out[f"{STEP}.ms.p95"] = float(np.percentile(step_ms, 95)) if step_ms.size else 0.0
        # Energy evaluations made directly by a step: one at its start plus one
        # per line-search trial.
        energy = mine & (name == self.names.index("solver.energy"))
        energy_in_step = energy & (parent >= 0)
        energy_in_step[energy_in_step] = name[parent[energy_in_step]] == step_id
        out["linesearch.trials"] = int(energy_in_step.sum()) - int(step_ms.size)
        out["spans"] = int(mine.sum())
        return out

    def step_records(self, op: int) -> list[tuple[tuple, object]]:
        return [(shape, diag) for o, shape, diag in self.steps if o == op]

    def write_csv(self, path) -> None:
        dur, self_time, name, parent, op = self._arrays()
        start = np.array(self.start, dtype=float)
        t0 = float(start.min()) if start.size else 0.0
        lines = ["op,name,parent,start_s,end_s,self_s"]
        lines.extend(
            f"{o},{self.names[n]},{p},{s - t0:.9f},{s - t0 + d:.9f},{st:.9f}"
            for o, n, p, s, d, st in zip(op.tolist(), name.tolist(), parent.tolist(),
                                         start.tolist(), dur.tolist(), self_time.tolist()))
        path.write_text("\n".join(lines) + "\n")
