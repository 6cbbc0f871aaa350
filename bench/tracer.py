"""Outside-in span tracer for designkit.

``Tracer.installed()`` replaces the public functions and methods listed
in ``TARGETS`` with wrappers that record one span per call, and puts
the originals back on exit.  Nothing in ``src/`` changes, and untraced
runs never install the wrappers.  Calls between the wrapped functions go
through module and class attributes, so nested calls nest their spans.

A span is ``(name, start, end, parent, pass_id, error, attrs)``: times
from ``time.perf_counter``, ``parent`` the index of the enclosing span
(or -1), ``error`` the name of the exception the call raised (or None)
and ``attrs`` a few counts read from the arguments or the result.
"""

import contextlib
import functools
import gzip
import json
import time

import numpy as np

from designkit import airfoil, bemt, cli, explorer, flightsim, powertrain, wing


def _cl_cd_attrs(args, kwargs, result):
    polar, alpha = args[0], np.asarray(args[1] if len(args) > 1 else kwargs["alpha"])
    off = np.count_nonzero((alpha < polar.alpha[0]) | (alpha > polar.alpha[-1]))
    return {"elems": int(alpha.size), "offtable": int(off)}


def _evaluate_rotor_attrs(args, kwargs, result):
    op = args[1] if len(args) > 1 else kwargs["op"]
    return {"cruise": op.v_inf > 0.0}


def _thrust_curve_attrs(args, kwargs, result):
    v_inf = args[4] if len(args) > 4 else kwargs.get("v_inf", 0.0)
    attrs = {"cruise": v_inf > 0.0}
    if result is not None:
        attrs["rows"] = len(result.rows)
        attrs["failed_rows"] = sum(row is None for row in result.rows)
    return attrs


def _run_sweep_attrs(args, kwargs, result):
    return {} if result is None else {"rows": len(result.rows),
                                      "gaps": len(result.gaps)}


def _optimize_attrs(args, kwargs, result):
    return {} if result is None else {"cells": int(result.feasible.size),
                                      "feasible": int(result.feasible.sum())}


# (owner, attribute, span name, attrs(args, kwargs, result) or None)
TARGETS = (
    (airfoil.AirfoilPolar, "cl_cd", "airfoil.cl_cd", _cl_cd_attrs),
    (airfoil.AirfoilPolar, "bundled", "airfoil.bundled", None),
    (bemt, "evaluate_rotor", "bemt.evaluate_rotor", _evaluate_rotor_attrs),
    (bemt, "thrust_curve", "bemt.thrust_curve", _thrust_curve_attrs),
    (explorer, "optimize", "explorer.optimize", _optimize_attrs),
    (explorer, "trim_collective", "explorer.trim_collective", None),
    (explorer, "run_sweep", "explorer.run_sweep", _run_sweep_attrs),
    (powertrain, "design_budget", "powertrain.design_budget", None),
    (wing, "power_vs_wing_loading", "wing.power_vs_wing_loading", None),
    (flightsim, "run_mission", "flightsim.run_mission", None),
    (flightsim, "step_dynamics", "flightsim.step_dynamics", None),
    (flightsim, "allocate", "flightsim.allocate", None),
    (flightsim.PositionController, "update", "flightsim.PositionController.update", None),
    (flightsim.AttitudeController, "update", "flightsim.AttitudeController.update", None),
    (flightsim.PitchMap, "pitch", "flightsim.PitchMap.pitch", None),
    (flightsim.PitchMap, "from_rotor", "flightsim.PitchMap.from_rotor", None),
    (flightsim.MissionLog, "csv_lines", "flightsim.MissionLog.csv_lines", None),
    (cli, "main", "cli.main", None),
)

SOLVES = ("bemt.evaluate_rotor", "bemt.thrust_curve")
CONTROLLERS = ("flightsim.PositionController.update",
               "flightsim.AttitudeController.update", "flightsim.allocate")


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.spans = []
        self.pass_id = None
        self._stack = []

    def _wrap(self, name, fn, attrs_of):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                attrs = attrs_of(args, kwargs, result) if attrs_of else None
                spans[index] = (name, start, end, parent, self.pass_id,
                                error, attrs)
        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, attrs_of in TARGETS:
                original = vars(owner)[attr]
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(name, original.__func__, attrs_of))
                else:
                    wrapped = self._wrap(name, original, attrs_of)
                saved.append((owner, attr, original))
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path):
        """All spans, one JSON array per line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write('["name","start","end","parent","pass","error","attrs"]\n')
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, passes):
    """Per-layer counts, times and ratios of the spans in ``passes``."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, pass_id, error, attrs in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def has_ancestor(index, name):
        parent = spans[index][3]
        while parent >= 0:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    calls, total, own, attr_sum = {}, {}, {}, {}
    solves = {"hover_s": 0.0, "cruise_s": 0.0, "n": 0, "optimize": 0, "trim": 0}
    cl_cd_in_solves = noroot = 0
    for index, (name, start, end, parent, pass_id, error, attrs) in enumerate(spans):
        if pass_id not in passes:
            continue
        took = end - start
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + took
        own[name] = own.get(name, 0.0) + took - child_time[index]
        for key, value in (attrs or {}).items():
            attr_sum[(name, key)] = attr_sum.get((name, key), 0) + value
        if name in SOLVES:
            solves["n"] += 1
            solves["cruise_s" if attrs["cruise"] else "hover_s"] += took
            solves["optimize"] += has_ancestor(index, "explorer.optimize")
            solves["trim"] += has_ancestor(index, "explorer.trim_collective")
            noroot += error == "NoRootError"
        elif name == "airfoil.cl_cd" and parent >= 0 and spans[parent][0] in SOLVES:
            cl_cd_in_solves += 1

    def n(name):
        return calls.get(name, 0)

    def attr(name, key):
        return attr_sum.get((name, key), 0)

    cells = attr("explorer.optimize", "cells")
    points = attr("explorer.run_sweep", "rows") + attr("explorer.run_sweep", "gaps")
    steps = n("flightsim.step_dynamics")
    return {
        "airfoil.cl_cd.calls": (n("airfoil.cl_cd"), "count"),
        "airfoil.cl_cd.elems": (attr("airfoil.cl_cd", "elems"), "count"),
        "airfoil.cl_cd.self_s": (own.get("airfoil.cl_cd", 0.0), "s"),
        "airfoil.cl_cd.offtable_frac": (
            _ratio(attr("airfoil.cl_cd", "offtable"), attr("airfoil.cl_cd", "elems")), "frac"),
        "airfoil.bundled.ms": (
            1e3 * _ratio(total.get("airfoil.bundled", 0.0), n("airfoil.bundled")), "ms"),
        "bemt.evaluate_rotor.calls": (n("bemt.evaluate_rotor"), "count"),
        "bemt.evaluate_rotor.self_s": (own.get("bemt.evaluate_rotor", 0.0), "s"),
        "bemt.evaluate_rotor.noroot": (noroot, "count"),
        "bemt.thrust_curve.calls": (n("bemt.thrust_curve"), "count"),
        "bemt.thrust_curve.self_s": (own.get("bemt.thrust_curve", 0.0), "s"),
        "bemt.thrust_curve.rows": (attr("bemt.thrust_curve", "rows"), "count"),
        "bemt.thrust_curve.failed_rows": (attr("bemt.thrust_curve", "failed_rows"), "count"),
        "bemt.solve_hover_s": (solves["hover_s"], "s"),
        "bemt.solve_cruise_s": (solves["cruise_s"], "s"),
        "bemt.cl_cd_per_solve": (_ratio(cl_cd_in_solves, solves["n"]), "calls/solve"),
        "explorer.optimize.self_s": (own.get("explorer.optimize", 0.0), "s"),
        "explorer.optimize.cells": (cells, "count"),
        "explorer.optimize.feasible_frac": (
            _ratio(attr("explorer.optimize", "feasible"), cells), "frac"),
        "explorer.optimize.solves_per_cell": (_ratio(solves["optimize"], cells), "solves/cell"),
        "explorer.trim_collective.calls": (n("explorer.trim_collective"), "count"),
        "explorer.trim_collective.total_s": (total.get("explorer.trim_collective", 0.0), "s"),
        "explorer.trim_collective.evals_per_call": (
            _ratio(solves["trim"], n("explorer.trim_collective")), "solves/call"),
        "explorer.run_sweep.total_s": (total.get("explorer.run_sweep", 0.0), "s"),
        "explorer.run_sweep.points": (points, "count"),
        "explorer.run_sweep.gap_frac": (
            _ratio(attr("explorer.run_sweep", "gaps"), points), "frac"),
        "powertrain.design_budget.total_s": (total.get("powertrain.design_budget", 0.0), "s"),
        "powertrain.design_budget.self_s": (own.get("powertrain.design_budget", 0.0), "s"),
        "wing.power_vs_wing_loading.total_s": (
            total.get("wing.power_vs_wing_loading", 0.0), "s"),
        "flightsim.step_dynamics.calls": (steps, "count"),
        "flightsim.step_dynamics.self_s": (own.get("flightsim.step_dynamics", 0.0), "s"),
        "flightsim.controllers.us_per_step": (
            1e6 * _ratio(sum(total.get(c, 0.0) for c in CONTROLLERS), steps), "us"),
        "flightsim.PitchMap.pitch.calls": (n("flightsim.PitchMap.pitch"), "count"),
        "flightsim.PitchMap.pitch.self_s": (own.get("flightsim.PitchMap.pitch", 0.0), "s"),
        "flightsim.PitchMap.from_rotor.ms": (
            1e3 * _ratio(total.get("flightsim.PitchMap.from_rotor", 0.0),
                         n("flightsim.PitchMap.from_rotor")), "ms"),
        "flightsim.run_mission.self_s": (own.get("flightsim.run_mission", 0.0), "s"),
        "flightsim.MissionLog.csv_lines.s": (
            total.get("flightsim.MissionLog.csv_lines", 0.0), "s"),
        "cli.main.calls": (n("cli.main"), "count"),
        "cli.main.self_s": (own.get("cli.main", 0.0), "s"),
    }
