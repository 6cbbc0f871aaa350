"""Layer microbenchmarks, run untraced inside the traced run.

Each case repeats one public call for a short time budget and reports
the median time per call (or per element), so that a change to one
layer shows up here even when the workloads hide it.
"""

import math
import statistics
import time

import numpy as np

from designkit import bemt, flightsim, powertrain, presets

BUDGET_S = 0.3      # time per case
MIN_REPS = 5
ELEMS = 100_000
OFFTABLE_SHARE = 0.42   # share of off-table angles in a hover solve


def _median_time(call):
    times = []
    deadline = time.perf_counter() + BUDGET_S
    while len(times) < MIN_REPS or time.perf_counter() < deadline:
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run(seed):
    """Micro metrics as {name: (value, unit)}."""
    rng = np.random.default_rng(seed)
    polar = presets.proprotor_polar()
    rotor = presets.final_rotor()
    lo, hi = polar.alpha_min, polar.alpha_max

    inside = rng.uniform(lo, hi, ELEMS)
    n_off = int(OFFTABLE_SHARE * ELEMS)
    beyond = rng.uniform(0.0, math.radians(60.0), n_off)
    mixed = np.concatenate([
        rng.uniform(lo, hi, ELEMS - n_off),
        np.where(rng.random(n_off) < 0.5, hi + beyond, lo - beyond)])
    rng.shuffle(mixed)

    hover = presets.hover_op(collective=math.radians(8.0))
    cruise = presets.cruise_op(collective=math.radians(16.0))
    collectives_41 = np.radians(np.arange(0.0, 20.01, 0.5))
    params = flightsim.default_params()
    state = flightsim.VehicleState(position=np.array([0.0, 0.0, -2.0]))
    cts = np.full(4, params.ct_hover)

    per_elem_ns = 1e9 / ELEMS
    return {
        "airfoil.cl_cd.ns_per_elem": (
            per_elem_ns * _median_time(lambda: polar.cl_cd(inside)), "ns"),
        "airfoil.cl_cd_offtable.ns_per_elem": (
            per_elem_ns * _median_time(lambda: polar.cl_cd(mixed)), "ns"),
        "bemt.solve_station.ms": (1e3 * _median_time(
            lambda: bemt.solve_station(rotor, hover, polar, 0.75)), "ms"),
        "bemt.evaluate_rotor_hover.ms": (1e3 * _median_time(
            lambda: bemt.evaluate_rotor(rotor, hover, polar)), "ms"),
        "bemt.evaluate_rotor_cruise.ms": (1e3 * _median_time(
            lambda: bemt.evaluate_rotor(rotor, cruise, polar)), "ms"),
        "bemt.thrust_curve_41.ms": (1e3 * _median_time(
            lambda: bemt.thrust_curve(rotor, polar, presets.HOVER_RPM,
                                      collectives_41)), "ms"),
        "flightsim.step_dynamics.us": (1e6 * _median_time(
            lambda: flightsim.step_dynamics(state, cts, params, presets.MISSION_DT)), "us"),
        "powertrain.iterate_gross_weight.us": (1e6 * _median_time(
            powertrain.iterate_gross_weight), "us"),
    }
