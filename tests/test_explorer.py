"""Sweeps, trim, and the radius x twist search.

Sweep rows are checked against direct solver calls, trim against the
thrust it claims to hit, and the grid search for exact agreement
between its serial and multiprocess paths, for agreement with per-cell
solves, and for internal consistency of the reported optimum.
"""

import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from designkit import bemt, cli, explorer, presets
from designkit.airfoil import AirfoilPolar
from designkit.errors import ConfigError, NoRootError, TrimError
from designkit.explorer import (OptimizationSpec, SweepSpec, apply_parameter,
                                optimize, run_sweep, trim_collective)

FIGURES = Path(__file__).resolve().parent.parent / "figures"


def hover_op(collective_deg=8.0, rpm=3200.0, rho=1.225):
    return bemt.OperatingPoint.from_rpm(rpm, rho=rho,
                                        collective=math.radians(collective_deg))


def sweep_curve(table, value):
    """(x, y) arrays of a sweep table's rows for one swept value."""
    rows = [r for r in table.rows if math.isclose(r[0], value, rel_tol=1e-9)]
    return np.array([r[1] for r in rows]), np.array([r[2] for r in rows])


# ---------------------------------------------------------------------------
# parameter application

def test_apply_aspect_ratio_rebuild(baseline_rotor):
    geom, op = apply_parameter(baseline_rotor, hover_op(), "aspect_ratio", 14.0)
    assert geom.aspect_ratio == pytest.approx(14.0, rel=1e-12)
    assert geom.radius == baseline_rotor.radius
    assert geom.taper_ratio == pytest.approx(baseline_rotor.taper_ratio, rel=1e-12)
    assert geom.twist == baseline_rotor.twist
    assert geom.n_blades == baseline_rotor.n_blades
    assert geom.mean_chord == pytest.approx(0.42 / 14.0, rel=1e-12)
    assert op is not None and op.collective == hover_op().collective


def test_apply_twist_coupling(rpm_study_rotor):
    v = math.radians(-30.0)
    coupled, _ = apply_parameter(rpm_study_rotor, hover_op(), "twist", v)
    assert coupled.twist == v
    assert coupled.preset == -v                      # tip pitch held
    assert coupled.pitch(1.0, 0.0) == pytest.approx(0.0, abs=1e-12)
    frozen, _ = apply_parameter(rpm_study_rotor, hover_op(), "twist", v,
                                couple_preset=False)
    assert frozen.twist == v
    assert frozen.preset == rpm_study_rotor.preset


def test_apply_operating_parameters(baseline_rotor):
    base = hover_op(rho=1.167)
    geom, op = apply_parameter(baseline_rotor, base, "rpm", 2600.0)
    assert geom is baseline_rotor
    assert op.rpm == pytest.approx(2600.0, rel=1e-12)
    assert op.rho == base.rho and op.collective == base.collective
    _, op2 = apply_parameter(baseline_rotor, base, "collective",
                             math.radians(12.0))
    assert op2.collective == math.radians(12.0)
    with pytest.raises(ConfigError):
        apply_parameter(baseline_rotor, base, "chord", 0.05)


TABLED_BLADES = {
    "pitch_table": bemt.BladeGeometry(
        radius=0.38, root_chord=0.04, tip_chord=0.024,
        pitch_table=[[0.1, math.radians(20.0)], [1.0, math.radians(5.0)]]),
    "chord_table": bemt.BladeGeometry(
        radius=0.38, chord_table=[[0.1, 0.04], [1.0, 0.024]]),
}


@pytest.mark.parametrize("table", sorted(TABLED_BLADES))
def test_geometry_parameters_refuse_tabled_blades(table):
    """Rebuilding from linear laws would silently drop the table."""
    blade = TABLED_BLADES[table]
    for parameter, value in (("radius", 0.40), ("aspect_ratio", 10.0),
                             ("taper_ratio", 1.5), ("twist", math.radians(-20.0))):
        with pytest.raises(ConfigError, match=parameter):
            apply_parameter(blade, hover_op(), parameter, value)
    geom, op = apply_parameter(blade, hover_op(), "rpm", 2600.0)
    assert geom is blade and op.rpm == pytest.approx(2600.0, rel=1e-12)
    geom, op = apply_parameter(blade, hover_op(), "collective", 0.1)
    assert geom is blade and op.collective == 0.1


def test_sweep_spec_validation(baseline_rotor):
    ok = dict(base_geometry=baseline_rotor, base_op=hover_op(),
              parameter="rpm", values=(3200.0,))
    SweepSpec(**ok)
    with pytest.raises(ConfigError):
        SweepSpec(**{**ok, "parameter": "chord"})
    with pytest.raises(ConfigError):
        SweepSpec(**{**ok, "response": "lift"})
    with pytest.raises(ConfigError):
        SweepSpec(**{**ok, "values": ()})
    with pytest.raises(ConfigError):
        SweepSpec(**{**ok, "collectives": ()})


# ---------------------------------------------------------------------------
# sweeps

def test_thrust_sweep_matches_direct_calls(baseline_rotor, naca0012, rpm_study_rotor, sc1095):
    collectives = (math.radians(4.0), math.radians(8.0))
    spec = SweepSpec(base_geometry=baseline_rotor, base_op=hover_op(),
                     parameter="rpm", values=(3200.0,), response="thrust",
                     polar_name="naca0012", collectives=collectives)
    table = run_sweep(spec)
    assert len(table.rows) == 2 and not table.gaps
    for (value, x_deg, thrust), theta in zip(table.rows, collectives):
        direct = bemt.evaluate_rotor(
            baseline_rotor,
            bemt.OperatingPoint.from_rpm(3200.0, rho=1.225, collective=theta),
            naca0012)
        assert value == 3200.0
        assert x_deg == pytest.approx(math.degrees(theta), rel=1e-12)
        # rpm round-trips through omega inside the sweep: last-ulp only
        assert thrust == pytest.approx(direct.thrust, rel=1e-13)

    # a collective with no inflow root is a gap holding str(NoRootError),
    # the text evaluate_rotor raises, for every thrust-type response
    stalled = bemt.OperatingPoint.from_rpm(3200.0, v_inf=240.0, rho=1.167)
    with pytest.raises(NoRootError) as info:
        bemt.evaluate_rotor(rpm_study_rotor, replace(stalled, collective=math.radians(75.0)),
                            sc1095)
    assert str(info.value).startswith("inflow solve failed at 3 station(s): r = ")
    for response in ("PL_vs_T", "thrust", "power"):
        spec = SweepSpec(base_geometry=rpm_study_rotor, base_op=stalled,
                         parameter="rpm", values=(3200.0,), response=response,
                         collectives=(math.radians(75.0),))
        assert run_sweep(spec).gaps == ((3200.0, 75.0, str(info.value)),)


def test_power_sweep_points_are_thrust_curve_powers(baseline_rotor, naca0012):
    """Each point of a "power" sweep is (collective, power) of the
    thrust_curve at its swept rpm, bit for bit."""
    collectives = tuple(np.radians([2.0, 6.0, 10.0]))
    spec = SweepSpec(base_geometry=baseline_rotor, base_op=hover_op(),
                     parameter="rpm", values=(2600.0, 3200.0), response="power",
                     polar_name="naca0012", collectives=collectives)
    table = run_sweep(spec)
    assert not table.gaps and len(table.rows) == 6
    for value in spec.values:
        _, op = apply_parameter(baseline_rotor, spec.base_op, "rpm", value)
        curve = bemt.thrust_curve(baseline_rotor, naca0012, op.rpm, collectives, rho=op.rho)
        assert [(x, y) for v, x, y in table.rows if v == value] == [
            (math.degrees(theta), power)
            for theta, power in zip(collectives, curve.column("power").tolist())]


def test_power_loading_sweep_structure(baseline_rotor):
    spec = SweepSpec(base_geometry=baseline_rotor, base_op=hover_op(),
                     parameter="aspect_ratio", values=(8.0, 12.0), polar_name="naca0012",
                     collectives=tuple(np.radians([2.0, 5.0, 8.0, 11.0])))
    table = run_sweep(spec)
    assert len(table.rows) + len(table.gaps) == 2 * 4
    for ar in (8.0, 12.0):
        thrust, loading = sweep_curve(table, ar)
        assert thrust.size >= 3
        assert np.all(np.diff(thrust) > 0.0)         # rising collective branch
        assert np.all(loading > 0.0)
    lines = table.csv_lines()
    assert lines[0] == "param_name,param_value,x,y"
    assert all(len(line.split(",")) == 4 for line in lines[1:])
    assert all(line.startswith("aspect_ratio,") for line in lines[1:])


def test_efficiency_sweep_rpm_ordering(rpm_study_rotor):
    """Slowing from 3200 to 2000 RPM at fixed pitch raises cruise
    efficiency at the design speed."""
    spec = SweepSpec(
        base_geometry=rpm_study_rotor,
        base_op=bemt.OperatingPoint.from_rpm(3200.0, rho=1.167,
                                             collective=math.radians(16.0)),
        parameter="rpm", values=(2000.0, 3200.0), response="eta_vs_V",
        speeds=(20.0,))
    table = run_sweep(spec)
    _, eta_slow = sweep_curve(table, 2000.0)
    _, eta_fast = sweep_curve(table, 3200.0)
    assert eta_slow[0] > eta_fast[0]
    assert 0.5 < eta_fast[0] < eta_slow[0] < 0.95


def test_efficiency_sweep_gaps_windmill(baseline_rotor):
    """Fast and flat enough the rotor stops pulling: those points drop
    out as gaps instead of reporting a meaningless efficiency."""
    spec = SweepSpec(
        base_geometry=baseline_rotor,
        base_op=bemt.OperatingPoint.from_rpm(3200.0, rho=1.167,
                                             collective=math.radians(2.0)),
        parameter="rpm", values=(3200.0,), response="eta_vs_V",
        speeds=(5.0, 30.0))
    table = run_sweep(spec)
    assert len(table.rows) + len(table.gaps) == 2
    assert any(reason == "non-propulsive" for _, _, reason in table.gaps)
    for _, _, eta in table.rows:
        assert 0.0 < eta < 1.0


def per_speed_sweep(spec, polar):
    """An efficiency sweep as one evaluate_rotor call per speed."""
    rows, gaps = [], []
    for value in spec.values:
        geometry, op = apply_parameter(spec.base_geometry, spec.base_op,
                                       spec.parameter, value,
                                       couple_preset=spec.couple_preset)
        for v in spec.speeds:
            try:
                perf = bemt.evaluate_rotor(geometry, replace(op, v_inf=v), polar)
            except NoRootError as exc:
                gaps.append((value, v, str(exc)))
                continue
            if perf.thrust <= 0.0 or perf.power <= 0.0:
                gaps.append((value, v, "non-propulsive"))
            else:
                rows.append((value, v, perf.eta_p))
    return tuple(rows), tuple(gaps)


@pytest.mark.parametrize("polar_name", ["sc1095", "naca0012"])
@pytest.mark.parametrize("figure", ["fig10b", "fig11"])
def test_batched_efficiency_sweep_equals_per_speed_solves(figure, polar_name):
    """The one-solve-per-curve sweep gives the rows and gaps, ==, of one
    solve per speed: the figure's speeds plus hover (eta = 0) and a
    windmilling speed at its own collective, and at 75 deg collective a
    speed where stations have no root (gap text = str(NoRootError))."""
    polar = AirfoilPolar.bundled(polar_name)
    data = cli._load_json(FIGURES / f"{figure}.json", [f"polar={polar_name}"])
    data["speeds"] = [0.0] + data["speeds"] + [60.0]
    specs = [cli._sweep_spec_from_json(data)]
    data["op"]["collective_deg"] = 75.0
    data["speeds"] = [0.0, 30.0, 240.0]
    specs.append(cli._sweep_spec_from_json(data))

    tables = [run_sweep(spec) for spec in specs]
    for spec, table in zip(specs, tables):
        assert (table.rows, table.gaps) == per_speed_sweep(spec, polar)
    (rows, gaps), (_, stalled_gaps) = [(t.rows, t.gaps) for t in tables]
    assert any(v == 0.0 and eta == 0.0 for _, v, eta in rows)
    assert any(v == 60.0 and reason == "non-propulsive" for _, v, reason in gaps)
    assert any(v == 240.0 and reason.startswith("inflow solve failed")
               for _, v, reason in stalled_gaps)


def per_value_sweep(spec, polar):
    """A sweep as one solve per swept value: its ``thrust_curve``, or its
    speed rows (one row per speed at the value's collective) in one
    ``_curves`` call.  Its points are mapped to rows and
    gaps as before points with non-finite loads became gaps; the two
    mappings agree wherever loads are finite."""
    rows, gaps = [], []
    for value in spec.values:
        geometry, op = apply_parameter(spec.base_geometry, spec.base_op,
                                       spec.parameter, value,
                                       couple_preset=spec.couple_preset)
        if spec.response == "eta_vs_V":
            curve = bemt._curves([(geometry, replace(op, v_inf=v)) for v in spec.speeds],
                                 polar, bemt.N_STATIONS)
            ops, solved = curve.ops, zip(curve.rows, curve.errors)
        else:
            curve = bemt.thrust_curve(geometry, polar, op.rpm, spec.collectives,
                                      v_inf=op.v_inf, rho=op.rho)
            ops, solved = curve.ops, zip(curve.rows, curve.errors)
        for point, (perf, err) in zip(ops, solved):
            x = point.v_inf if spec.response == "eta_vs_V" else math.degrees(point.collective)
            if perf is None:
                gaps.append((value, x, str(err)))
            elif spec.response == "thrust":
                rows.append((value, x, perf.thrust))
            elif spec.response == "power":
                rows.append((value, x, perf.power))
            elif spec.response == "PL_vs_T":
                if perf.power > 0.0:
                    rows.append((value, perf.thrust, perf.power_loading))
                else:
                    gaps.append((value, x, "non-positive power"))
            elif perf.thrust <= 0.0 or perf.power <= 0.0:
                gaps.append((value, x, "non-propulsive"))
            else:
                rows.append((value, x, perf.eta_p))
    return tuple(rows), tuple(gaps)


SHIPPED_SWEEPS = ("fig07", "fig08", "fig09", "fig10a", "fig10b", "fig10c", "fig11")


@pytest.mark.parametrize("jitter", [0, 17])
@pytest.mark.parametrize("polar_name", ["sc1095", "naca0012"])
@pytest.mark.parametrize("figure", SHIPPED_SWEEPS)
def test_sweep_solved_together_equals_per_value_curves(figure, polar_name, jitter):
    """``run_sweep`` solves the points of all its values together, in
    chunks of whole rows; its rows and gaps are, ==, those of one curve
    per value, on every shipped figure with either bundled polar, on the
    shipped grids and on speed and collective grids shifted off them."""
    polar = AirfoilPolar.bundled(polar_name)
    data = cli._load_json(FIGURES / f"{figure}.json", [f"polar={polar_name}"])
    if jitter:
        rng = np.random.default_rng(jitter)
        if data.get("response") == "eta_vs_V":
            data["speeds"] = (np.array(data["speeds"]) + rng.uniform(-0.5, 0.5)).tolist()
        else:
            grid = data.get("collectives_deg", np.degrees(explorer.DEFAULT_COLLECTIVES))
            data["collectives_deg"] = (np.array(grid) + rng.uniform(-0.25, 0.25)).tolist()
    spec = cli._sweep_spec_from_json(data)
    table = run_sweep(spec)
    assert (table.rows, table.gaps) == per_value_sweep(spec, polar)
    n_points = len(spec.speeds if spec.response == "eta_vs_V" else spec.collectives)
    assert len(table.rows) + len(table.gaps) == len(spec.values) * n_points
    assert len(table.rows) > 0


@pytest.mark.parametrize("response", ["thrust", "PL_vs_T", "eta_vs_V"])
def test_stalled_sweep_solved_together_carries_no_root_gaps(rpm_study_rotor, sc1095,
                                                            response):
    """Stations with no inflow root fail only their own point, whose gap
    holds str(NoRootError), the same when all values are solved together
    as one curve per value."""
    spec = SweepSpec(base_geometry=rpm_study_rotor,
                     base_op=bemt.OperatingPoint.from_rpm(3200.0, v_inf=240.0, rho=1.167,
                                                          collective=math.radians(75.0)),
                     parameter="twist", values=tuple(np.radians([-30.0, -10.0, 0.0])),
                     response=response, collectives=tuple(np.radians([10.0, 75.0, 85.0])),
                     speeds=(0.0, 30.0, 240.0))
    table = run_sweep(spec)
    assert (table.rows, table.gaps) == per_value_sweep(spec, sc1095)
    assert any(reason.startswith("inflow solve failed at ") for *_, reason in table.gaps)


def test_sweep_memory_does_not_grow_with_its_values():
    """The rows of a sweep are built and solved a chunk at a time, so 64
    taper ratios peak within 1.5x of the memory of 2."""
    def peak(n):
        data = cli._load_json(FIGURES / "fig09.json",
                              [f"values={np.linspace(1.0, 2.0, n).tolist()}"])
        spec = cli._sweep_spec_from_json(data)
        tracemalloc.start()
        try:
            table = run_sweep(spec)
            return tracemalloc.get_traced_memory()[1], table
        finally:
            tracemalloc.stop()

    small, _ = peak(2)
    large, table = peak(64)
    assert len(table.rows) + len(table.gaps) == 64 * len(explorer.DEFAULT_COLLECTIVES)
    assert large <= 1.5 * small


def test_twist_raises_peak_efficiency(rpm_study_rotor):
    """More negative twist moves the efficiency peak up and to higher
    speed at fixed pitch input."""
    spec = SweepSpec(
        base_geometry=rpm_study_rotor,
        base_op=bemt.OperatingPoint.from_rpm(3200.0, rho=1.167,
                                             collective=math.radians(10.0)),
        parameter="twist",
        values=(0.0, math.radians(-45.0)), response="eta_vs_V",
        speeds=tuple(np.arange(4.0, 30.01, 2.0)))
    table = run_sweep(spec)
    v_flat, eta_flat = sweep_curve(table, 0.0)
    v_twist, eta_twist = sweep_curve(table, math.radians(-45.0))
    assert np.max(eta_twist) > np.max(eta_flat)
    assert v_twist[np.argmax(eta_twist)] > v_flat[np.argmax(eta_flat)]


# ---------------------------------------------------------------------------
# trim

def test_trim_hits_target(baseline_rotor, naca0012):
    op = hover_op(0.0)
    theta = trim_collective(baseline_rotor, op, naca0012, 50.0)
    assert 7.0 < math.degrees(theta) < 9.0
    perf = bemt.evaluate_rotor(
        baseline_rotor,
        bemt.OperatingPoint.from_rpm(3200.0, rho=1.225, collective=theta),
        naca0012)
    assert abs(perf.thrust - 50.0) <= 0.1


def test_trim_zero_target_exact(baseline_rotor, naca0012):
    """Symmetric untwisted blade: zero thrust sits exactly at zero
    collective, and the coarse grid hits it without bisecting."""
    theta = trim_collective(baseline_rotor, hover_op(0.0), naca0012, 0.0)
    assert theta == 0.0


@pytest.mark.parametrize("target", [0.0, -50.0])
def test_trim_below_the_rising_branch(final_rotor, sc1095, target):
    """The final rotor makes 10.85 N at the lowest collective, -4 deg; a
    smaller target is as infeasible as one above the peak."""
    with pytest.raises(TrimError, match=r"below the 10\.85 N made at -4\.0 deg"):
        trim_collective(final_rotor, hover_op(0.0), sc1095, target)


def test_trim_unreachable(baseline_rotor, naca0012):
    with pytest.raises(TrimError) as info:
        trim_collective(baseline_rotor, hover_op(0.0), naca0012, 600.0)
    assert info.value.t_max == pytest.approx(130.8, abs=2.0)


def test_trim_with_no_solved_collective(sc1095):
    """A blade pitched past 80 deg at 1000 m/s has no inflow root at some
    station on every coarse collective, so no thrust curve is left to
    bracket: the TrimError says so, with a NaN t_max."""
    blade = bemt.BladeGeometry.from_aspect_ratio(0.42, 12.0, taper_ratio=5.0 / 3.0,
                                                 twist=math.radians(-20.0),
                                                 preset=math.radians(100.0))
    op = bemt.OperatingPoint.from_rpm(3200.0, v_inf=1000.0, rho=1.167)
    coarse = np.linspace(*explorer.TRIM_COLLECTIVES, 29)
    curve = bemt.thrust_curve(blade, sc1095, 3200.0, coarse, v_inf=1000.0, rho=1.167)
    assert all(row is None for row in curve.rows)
    with pytest.raises(TrimError, match="failed across the collective range") as info:
        trim_collective(blade, op, sc1095, 50.0)
    assert math.isnan(info.value.t_max)


def sequential_trim(geometry, op, polar, target_thrust, solved=None):
    """``trim_collective`` as one solve per bisection step, then
    ``evaluate_rotor`` at the collective it returns: (collective,
    performance).  Every collective it hands ``evaluate_rotor`` is
    appended to ``solved``."""
    def evaluate(theta):
        if solved is not None:
            solved.append(theta)
        return bemt.evaluate_rotor(geometry, replace(op, collective=theta), polar)

    coarse = np.linspace(*explorer.TRIM_COLLECTIVES, 29)
    thrusts = bemt.thrust_curve(geometry, polar, op.rpm, coarse, v_inf=op.v_inf,
                                rho=op.rho).column("thrust")
    branch = bemt.rising_branch(thrusts)
    if branch.size == 0:
        raise TrimError("rotor solution failed across the collective range", t_max=math.nan)
    t_max = float(thrusts[branch[-1]])
    if not target_thrust <= t_max:
        raise TrimError(f"target {target_thrust:.1f} N exceeds the achievable "
                        f"{t_max:.1f} N at this condition", t_max=t_max)
    for idx in branch:
        if abs(thrusts[idx] - target_thrust) < 1e-9:
            return float(coarse[idx]), evaluate(float(coarse[idx]))
        if thrusts[idx] >= target_thrust:
            break
    if idx == branch[0]:
        raise TrimError(f"target {target_thrust:.1f} N lies below the {thrusts[idx]:.2f} N "
                        f"made at {math.degrees(coarse[idx]):.1f} deg, the lowest collective "
                        "of the rising branch", t_max=t_max)
    a, b = float(coarse[idx - 1]), float(coarse[idx])
    for _ in range(48):
        mid = 0.5 * (a + b)
        perf = evaluate(mid)
        if perf.thrust < target_thrust:
            a = mid
        else:
            b = mid
        if abs(perf.thrust - target_thrust) < 0.5 * explorer.TRIM_TOLERANCE:
            return mid, evaluate(mid)
    return 0.5 * (a + b), evaluate(0.5 * (a + b))


def sequential_trims(geometry, polar, targets):
    """Each trim of ``targets`` in turn; the first error is raised."""
    return [sequential_trim(geometry, op, polar, target) for op, target in targets]


def assert_same_trims(got, expected):
    assert [theta for theta, _ in got] == [theta for theta, _ in expected]
    for (_, perf), (_, reference) in zip(got, expected):
        np.testing.assert_equal(vars(perf), vars(reference))


def cruise_op(collective_deg=0.0):
    return bemt.OperatingPoint.from_rpm(2000.0, v_inf=20.0, rho=1.167,
                                        collective=math.radians(collective_deg))


@pytest.mark.parametrize("rotor, polar_name, hover_n, cruise_n", [
    ("final", "sc1095", 45.38, 4.31),      # design_budget's targets, rounded
    ("final", "sc1095", 30.0, 9.0),
    ("final", "sc1095", 61.7, 1.2),
    ("rpm-study", "sc1095", 52.0, 6.5),
    ("baseline", "naca0012", 50.0, 3.0),
])
def test_trims_solved_together_equal_sequential_trims(rotor, polar_name, hover_n, cruise_n):
    """A hover and a cruise trim solved together take the collectives
    that one solve per bisection step takes, and return, field for field,
    ``evaluate_rotor`` there; ``trim_collective`` is the one-trim case."""
    geometry = presets.ROTORS[rotor]()
    polar = AirfoilPolar.bundled(polar_name)
    targets = [(hover_op(0.0), hover_n), (cruise_op(), cruise_n)]
    expected = sequential_trims(geometry, polar, targets)
    assert_same_trims(explorer._trim(geometry, polar, targets), expected)
    for (op, target), (theta, _) in zip(targets, expected):
        assert trim_collective(geometry, op, polar, target) == theta


def test_trim_exact_hit_solved_together(baseline_rotor, naca0012):
    """An exact hit on the coarse grid returns that collective, with
    ``evaluate_rotor`` there, beside a trim that bisects."""
    targets = [(hover_op(0.0), 0.0), (cruise_op(), 3.0)]
    got = explorer._trim(baseline_rotor, naca0012, targets)
    assert got[0][0] == 0.0
    assert_same_trims(got, sequential_trims(baseline_rotor, naca0012, targets))


def trim_error(geometry, polar, targets, trim):
    with pytest.raises(TrimError) as info:
        trim(geometry, polar, targets)
    return str(info.value), info.value.t_max


@pytest.mark.parametrize("hover_n, cruise_n, failing", [
    (600.0, 4.31, "hover"),       # above the hover branch
    (0.0, 4.31, "hover"),         # below it
    (45.38, 600.0, "cruise"),
    (45.38, -50.0, "cruise"),
    (600.0, -50.0, "hover"),      # both fail: hover's error is raised first
    (0.0, 600.0, "hover"),
])
def test_trim_errors_solved_together(final_rotor, sc1095, hover_n, cruise_n, failing):
    """Each TrimError of trims solved together carries the text and t_max
    of the sequential trims' error, and the first trim's error wins."""
    targets = [(hover_op(0.0), hover_n), (cruise_op(), cruise_n)]
    text, t_max = trim_error(final_rotor, sc1095, targets, explorer._trim)
    assert (text, t_max) == trim_error(final_rotor, sc1095, targets, sequential_trims)
    alone = dict(zip(("hover", "cruise"), targets))[failing]
    assert (text, t_max) == trim_error(final_rotor, sc1095, [alone], sequential_trims)


def fail_rows_at(monkeypatch, fails):
    """Make every row that ``fails(collective)`` picks fail with one
    NoRootError; returns it and the list of collectives failed."""
    solve = bemt._curves
    error, failed = bemt._no_root(np.array([0.5])), []

    def curves(rows, polar, n_stations):
        curve = solve(rows, polar, n_stations)
        for i, op in enumerate(curve.ops):
            if fails(op.collective):
                failed.append(op.collective)
                curve.rows[i], curve.errors[i] = None, error
        return curve
    monkeypatch.setattr(bemt, "_curves", curves)
    return error, failed


def test_trim_ignores_rows_no_sequential_trim_solves(final_rotor, sc1095, monkeypatch):
    """A failed row the sequential trims never solve (a midpoint not
    taken) changes nothing; a failed midpoint that they take raises its
    error, as ``evaluate_rotor`` would raise it there."""
    targets = [(hover_op(0.0), 45.38), (cruise_op(), 4.31)]
    taken = []
    expected = [sequential_trim(final_rotor, op, sc1095, target, taken)
                for op, target in targets]
    coarse = np.linspace(*explorer.TRIM_COLLECTIVES, 29).tolist()
    assert len(set(taken)) >= 4
    _, failed = fail_rows_at(monkeypatch,
                             lambda theta: theta not in taken and theta not in coarse)
    assert_same_trims(explorer._trim(final_rotor, sc1095, targets), expected)
    assert failed

    error, _ = fail_rows_at(monkeypatch, lambda theta: theta == taken[1])
    with pytest.raises(NoRootError) as info:
        explorer._trim(final_rotor, sc1095, targets)
    assert info.value is error


# ---------------------------------------------------------------------------
# radius x twist search

def tiny_spec(weights=(0.3, 0.7)):
    return OptimizationSpec(
        radius_grid=(0.37, 0.39, 0.01),
        twist_grid=(math.radians(-27.0), math.radians(-25.0), math.radians(1.0)),
        weights=weights,
        n_stations=60)


@pytest.fixture(scope="module")
def tiny_result():
    return optimize(tiny_spec(), workers=1)


@pytest.mark.parametrize("weights", [(math.nan, 0.7), (0.3, math.nan)], ids=["w_fm", "w_eta"])
def test_nan_weight_is_refused_before_any_solve(weights, monkeypatch):
    """NaN passed a check written ``w < 0.0``; optimize then solved the
    whole grid and failed on an empty ``min``."""
    def no_solve(*args):
        raise AssertionError("a solve ran")
    monkeypatch.setattr(bemt, "_curves", no_solve)
    with pytest.raises(ConfigError, match="weights must be non-negative and sum to 1"):
        optimize(OptimizationSpec(weights=weights))


def test_optimization_spec_validation():
    with pytest.raises(ConfigError):
        OptimizationSpec(weights=(0.5, 0.6))
    with pytest.raises(ConfigError):
        OptimizationSpec(weights=(-0.1, 1.1))
    with pytest.raises(ConfigError):
        OptimizationSpec(radius_grid=(0.5, 0.4, 0.01))
    with pytest.raises(ConfigError):
        OptimizationSpec(twist_grid=(-0.5, -0.1, 0.0))
    with pytest.raises(ConfigError, match="radius_grid"):
        OptimizationSpec(radius_grid=(0.3,))
    # at most MAX_GRID_POINTS finite points per grid: one point more, an
    # infinite or NaN bound or step, or an overflowing count is refused
    cap = explorer.MAX_GRID_POINTS
    assert OptimizationSpec(radius_grid=(0.2, 1.199, 0.001)).radii().size == cap
    for name in ("radius_grid", "twist_grid"):
        OptimizationSpec(**{name: (0.0, cap - 1.0, 1.0)})
        for grid in ((0.0, float(cap), 1.0), (0.0, 1.0, math.inf), (0.0, math.inf, 1.0),
                     (-math.inf, 0.0, 1.0), (0.0, 1.0, math.nan), (math.nan, 1.0, 0.1),
                     (0.3, 1e300, 1e-300)):
            with pytest.raises(ConfigError, match=name):
                OptimizationSpec(**{name: grid})
    # at most MAX_GRID_CELLS radius x twist cells, each axis under its cap
    cells = explorer.MAX_GRID_CELLS
    radius_grid = (0.0, 199.0, 1.0)
    spec = OptimizationSpec(radius_grid=radius_grid, twist_grid=(0.0, cells / 200 - 1.0, 1.0))
    assert spec.radii().size * spec.twists().size == cells
    with pytest.raises(ConfigError, match=f"200 x 501 = 100200 cells; the cap is {cells}"):
        OptimizationSpec(radius_grid=radius_grid, twist_grid=(0.0, cells / 200, 1.0))


def test_default_grids():
    spec = OptimizationSpec()
    radii, twists = spec.radii(), spec.twists()
    assert radii.size == 28
    assert radii[0] == pytest.approx(0.26, abs=1e-12)
    assert radii[-1] == pytest.approx(0.53, abs=1e-12)
    assert twists.size == 38
    assert math.degrees(twists[0]) == pytest.approx(-45.0, abs=1e-9)
    assert math.degrees(twists[-1]) == pytest.approx(-8.0, abs=1e-9)


def test_grid_search_internal_consistency(tiny_result):
    res = tiny_result
    assert res.fm.shape == res.eta.shape == res.cost.shape == (3, 3)
    assert res.feasible.all()                        # benign corner of the space
    assert np.all((res.fm > 0.0) & (res.fm <= 1.0))
    assert np.all((res.eta > 0.0) & (res.eta <= 1.0))
    expect = 0.3 * res.fm + 0.7 * res.eta
    assert np.array_equal(res.cost, np.where(res.feasible, expect, -np.inf))
    i, j = res.index
    assert res.radii[i] == res.r_star
    assert res.twists[j] == res.twist_star
    assert res.cost[i, j] == res.cost_star
    assert res.cost_star == res.cost.max()
    s = res.summary_dict()
    assert s["R_star_m"] == res.r_star
    assert s["twist_star_deg"] == pytest.approx(math.degrees(res.twist_star),
                                                rel=1e-12)


def test_grid_search_multiprocess_identical(tiny_result):
    parallel = optimize(tiny_spec(), workers=2)
    for name in ("fm", "eta", "cost", "feasible",
                 "hover_collective", "cruise_collective"):
        assert np.array_equal(getattr(parallel, name), getattr(tiny_result, name))
    assert parallel.index == tiny_result.index
    assert parallel.cost_star == tiny_result.cost_star


def test_grid_search_matches_per_cell_solves(sc1095, tiny_result):
    """Batching oracle: each cell solved on its own geometry, with
    ``evaluate_rotor`` at the trimmed collective and a cruise scan."""
    spec, res = tiny_spec(), tiny_result
    lo, hi, step = explorer.CRUISE_SCAN
    scan = np.arange(lo, hi + 0.5 * step, step)
    for i, radius in enumerate(res.radii):
        for j, twist in enumerate(res.twists):
            geom = bemt.BladeGeometry.from_aspect_ratio(
                radius, spec.aspect_ratio, taper_ratio=spec.taper_ratio,
                twist=twist, preset=-twist)
            hover = bemt.evaluate_rotor(
                geom, bemt.OperatingPoint.from_rpm(
                    spec.hover_rpm, rho=spec.hover_rho,
                    collective=res.hover_collective[i, j]),
                sc1095, n_stations=spec.n_stations)
            cruise = bemt.thrust_curve(
                geom, sc1095, spec.cruise_rpm, scan, v_inf=spec.cruise_speed,
                rho=spec.cruise_rho, n_stations=spec.n_stations)
            etas = [p.eta_p for p in cruise.rows
                    if p is not None and p.thrust > 0.0 and p.power > 0.0]
            assert res.feasible[i, j] == (math.isfinite(hover.figure_of_merit)
                                          and len(etas) > 0)
            assert abs(res.fm[i, j] - hover.figure_of_merit) < 1e-12
            assert abs(res.eta[i, j] - max(etas)) < 1e-12


def test_cruise_scan_per_twist_is_thrust_curve_per_radius(sc1095, monkeypatch):
    """A twist takes two solves: the hover reference curve, then the
    figures of merit and cruise scans of every trimmed radius together.
    Each radius's cruise rows give what its own ``thrust_curve`` gives, bit
    for bit in thrust, power and eta_p; a radius that cannot hover (0.33 m
    at -26 deg) is left out of the solve and stays infeasible."""
    twist = math.radians(-26.0)
    spec = OptimizationSpec(radius_grid=(0.33, 0.37, 0.02),
                            twist_grid=(twist, twist, math.radians(1.0)))
    solves = []
    batched = bemt._curves

    def record(blade_rows, *args):
        solved = batched(blade_rows, *args)
        solves.append((blade_rows, solved))
        return solved

    monkeypatch.setattr(bemt, "_curves", record)
    fm, eta, _, theta_c = explorer._evaluate_twist((spec, twist, sc1095))
    assert math.isnan(fm[0]) and math.isnan(eta[0]) and np.all(np.isfinite(eta[1:]))
    assert len(solves) == 2           # hover reference curve; trimmed hover and cruise
    blade_rows, solved = solves[-1]
    hover, cruise = blade_rows[:2], blade_rows[2:]
    assert all(op.v_inf == 0.0 and blade.radius == 0.38 for blade, op in hover)
    assert fm[1:].tolist() == [perf.figure_of_merit for perf in solved.rows[:2]]
    scan = np.array([op.collective for _, op in cruise[:len(cruise) // 2]])
    for i, first in zip((1, 2), (0, scan.size)):
        geometry = cruise[first][0]
        assert geometry.radius == spec.radii()[i]
        alone = bemt.thrust_curve(geometry, sc1095, spec.cruise_rpm, scan,
                                  v_inf=spec.cruise_speed, rho=spec.cruise_rho,
                                  n_stations=spec.n_stations)
        rows = solved.rows[2 + first:2 + first + scan.size]
        for name in ("thrust", "power", "eta_p"):
            np.testing.assert_array_equal(
                [math.nan if p is None else getattr(p, name) for p in rows], alone.column(name))
        thrust, power, eta_p = (alone.column(n) for n in ("thrust", "power", "eta_p"))
        propulsive = (thrust > 0.0) & (power > 0.0)
        assert eta[i] == np.max(eta_p[propulsive])
        assert theta_c[i] == scan[np.argmax(np.where(propulsive, eta_p, -np.inf))]


def test_grid_trim_takes_first_crossing_of_wavy_branch(naca0012):
    """On the naca0012 stall plateau the hover curve is not monotone
    below its peak; the grid trims where the target is first reached,
    as ``trim_collective`` does on the same blade."""
    twist = math.radians(-45.0)
    spec = OptimizationSpec(
        radius_grid=(0.38, 0.38, 0.01),
        twist_grid=(twist, twist, math.radians(1.0)),
        polar_name="naca0012", thrust_constraint=56.633)
    res = optimize(spec, workers=1)
    geom = bemt.BladeGeometry.from_aspect_ratio(
        0.38, spec.aspect_ratio, taper_ratio=spec.taper_ratio,
        twist=twist, preset=-twist)
    trimmed = trim_collective(
        geom, bemt.OperatingPoint.from_rpm(spec.hover_rpm, rho=spec.hover_rho),
        naca0012, spec.thrust_constraint)
    assert abs(math.degrees(res.hover_collective[0, 0] - trimmed)) < 0.5


def test_pure_hover_weighting_selects_fm(tiny_result):
    res = optimize(tiny_spec(weights=(1.0, 0.0)), workers=1)
    masked = np.where(res.feasible, res.fm, -np.inf)
    assert res.index == np.unravel_index(int(np.argmax(masked)), masked.shape)
    assert np.array_equal(res.fm, tiny_result.fm)    # weights only re-rank


def test_surface_csv(tiny_result):
    lines = tiny_result.surface_csv_lines("cost")
    assert len(lines) == 4
    assert lines[0].startswith("radius_m\\twist_deg,")
    assert all(len(line.split(",")) == 4 for line in lines)
    with pytest.raises(AttributeError):
        tiny_result.surface_csv_lines("bogus")
