"""Rotor solver: geometry laws, inflow roots, and integrated loads.

The solver's correctness rests on four independent oracles:

* a from-scratch residual + fine-grid bisection written here, compared
  station by station against the package root;
* the classical closed-form hover inflow
  lam = (sigma a / 16) (sqrt(1 + 32 theta r / (sigma a)) - 1),
  recovered in the many-blade, zero-drag, small-angle limit;
* the annulus momentum integral CT = int 4 F lam^2 r dr, which must
  match the blade-side integration in the same limit;
* a standard BEMT in Ning's induction-factor form (a, a' with Prandtl F
  on both momentum equations), compared on cruise efficiency.

Everything else is exact identities (nondimensional invariance,
recovery relations) or validation of the public contracts.
"""

import json
import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from designkit import bemt
from designkit.bemt import BladeGeometry, OperatingPoint
from designkit.errors import ConfigError, GeometryError, NoRootError
from designkit.wing import WingDesignInputs

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def hover_op(collective_deg, rpm=3200.0):
    return OperatingPoint.from_rpm(rpm, collective=math.radians(collective_deg))


@pytest.fixture(scope="module")
def ideal_case(linear_polar):
    """Many blades (F ~ 1), linear zero-drag polar, small collective:
    the regime where classical momentum results are exact."""
    n_blades, radius = 40, 0.5
    chord = 0.1 * math.pi * radius / n_blades     # solidity 0.1
    rotor = BladeGeometry(radius=radius, n_blades=n_blades, root_cutout=0.2,
                          root_chord=chord, tip_chord=chord)
    op = OperatingPoint.from_rpm(2400.0, collective=math.radians(3.0))
    return rotor, op, linear_polar, 5.7            # linear_polar's slope


# ---------------------------------------------------------------------------
# geometry

def test_linear_chord_and_pitch_laws():
    rotor = BladeGeometry(radius=0.4, root_chord=0.06, tip_chord=0.03,
                          twist=math.radians(-20.0), preset=math.radians(20.0))
    assert rotor.chord(0.0) == 0.06
    assert rotor.chord(1.0) == 0.03
    assert rotor.chord(0.5) == pytest.approx(0.045, abs=1e-15)
    theta0 = math.radians(5.0)
    # theta(r) = theta0 + preset + twist r: tip pitch equals the collective
    assert rotor.pitch(1.0, theta0) == pytest.approx(theta0, abs=1e-15)
    assert rotor.pitch(0.0, theta0) == pytest.approx(
        theta0 + math.radians(20.0), abs=1e-15)


def test_scalar_descriptors():
    rotor = BladeGeometry(radius=0.4, n_blades=2, root_chord=0.05, tip_chord=0.03)
    assert rotor.mean_chord == pytest.approx(0.04, abs=1e-15)
    assert rotor.aspect_ratio == pytest.approx(10.0, abs=1e-12)
    assert rotor.taper_ratio == pytest.approx(5.0 / 3.0, abs=1e-12)
    assert rotor.disc_area == pytest.approx(math.pi * 0.16, abs=1e-15)
    assert rotor.local_solidity(0.0) == pytest.approx(
        2 * 0.05 / (math.pi * 0.4), abs=1e-15)


def test_from_aspect_ratio_round_trip():
    rotor = BladeGeometry.from_aspect_ratio(0.38, 12.0, taper_ratio=5.0 / 3.0)
    assert rotor.aspect_ratio == pytest.approx(12.0, abs=1e-12)
    assert rotor.taper_ratio == pytest.approx(5.0 / 3.0, abs=1e-12)
    assert rotor.mean_chord == pytest.approx(0.38 / 12.0, abs=1e-15)


def test_geometry_validation():
    with pytest.raises(GeometryError):
        BladeGeometry(radius=-0.1, root_chord=0.05)
    with pytest.raises(GeometryError):
        BladeGeometry(radius=0.4, n_blades=0, root_chord=0.05)
    with pytest.raises(GeometryError):
        BladeGeometry(radius=0.4, root_cutout=1.2, root_chord=0.05)
    with pytest.raises(GeometryError):
        BladeGeometry(radius=0.4)                    # no chord law at all
    with pytest.raises(GeometryError):
        BladeGeometry(radius=0.4, root_chord=-0.05)
    with pytest.raises(GeometryError):
        BladeGeometry(radius=0.4, chord_table=[[0.1, 0.05]])
    with pytest.raises(GeometryError):
        BladeGeometry(radius=0.4, chord_table=[[0.5, 0.05], [0.2, 0.04]])
    with pytest.raises(GeometryError):
        BladeGeometry(radius=0.4, chord_table=[[0.1, 0.05], [1.0, -0.01]])
    with pytest.raises(GeometryError):
        BladeGeometry(radius=0.4, root_chord=0.05,
                      pitch_table=[[0.1, 0.3], [0.1, 0.2]])
    with pytest.raises(GeometryError, match="pitch_table must be"):
        BladeGeometry(radius=0.4, root_chord=0.05, pitch_table=[[0.1, 0.3]])
    assert bemt.station_grid(0.1, bemt.MAX_STATIONS)[0].size == bemt.MAX_STATIONS
    for n_stations in (15, bemt.MAX_STATIONS + 1, 10 ** 12):
        with pytest.raises(GeometryError, match="stations"):
            bemt.station_grid(0.1, n_stations)


NAN = math.nan
WING_POSITIVE = ("gross_weight", "cruise_speed", "stall_speed", "rho",
                 "cd0", "oswald", "cl_max", "aspect_ratio")


@pytest.mark.parametrize("make, error, message", [
    pytest.param(make, error, message, id=name) for name, make, error, message in [
        ("omega", lambda: OperatingPoint(omega=NAN), GeometryError, "omega must be positive"),
        ("v_inf", lambda: OperatingPoint(omega=100.0, v_inf=NAN), GeometryError,
         "v_inf must be >= 0"),
        ("rho", lambda: OperatingPoint(omega=100.0, rho=NAN), GeometryError,
         "rho must be positive"),
        ("collective", lambda: OperatingPoint.from_rpm(3200.0, collective=NAN), GeometryError,
         "collective must be finite, got nan"),
        ("n_blades", lambda: BladeGeometry(radius=0.4, root_chord=0.03, n_blades=NAN),
         GeometryError, "need at least one blade, got nan"),
        ("radius", lambda: BladeGeometry(radius=NAN, root_chord=0.03), GeometryError,
         "radius must be positive"),
        ("from_aspect_ratio-radius", lambda: BladeGeometry.from_aspect_ratio(NAN, 12.0),
         GeometryError, "radius must be positive, got nan"),
        ("root_chord", lambda: BladeGeometry(radius=0.4, root_chord=NAN), GeometryError,
         "^chords must be positive$"),
        ("tip_chord", lambda: BladeGeometry(radius=0.4, root_chord=0.03, tip_chord=NAN),
         GeometryError, "^chords must be positive$"),
        ("from_aspect_ratio-aspect_ratio", lambda: BladeGeometry.from_aspect_ratio(0.38, NAN),
         GeometryError, "aspect_ratio and taper_ratio must be positive"),
        ("chord_table-chord",
         lambda: BladeGeometry(radius=0.4, chord_table=[[0.1, NAN], [1.0, 0.02]]),
         GeometryError, "chord_table chords must be positive"),
        ("chord_table-r",
         lambda: BladeGeometry(radius=0.4, chord_table=[[NAN, 0.04], [1.0, 0.02]]),
         GeometryError, "chord_table r column must be strictly increasing"),
        ("pitch_table-r", lambda: BladeGeometry(radius=0.4, root_chord=0.03,
                                                pitch_table=[[0.1, 0.2], [NAN, 0.1]]),
         GeometryError, "pitch_table r column must be strictly increasing"),
        ("pitch_table-theta", lambda: BladeGeometry(radius=0.4, root_chord=0.03,
                                                    pitch_table=[[0.1, NAN], [1.0, 0.1]]),
         GeometryError, "pitch_table theta must be finite"),
        ("twist", lambda: BladeGeometry(radius=0.4, root_chord=0.03, twist=NAN),
         GeometryError, "twist must be finite"),
        ("preset", lambda: BladeGeometry(radius=0.4, root_chord=0.03, preset=NAN),
         GeometryError, "preset must be finite"),
        ("from_aspect_ratio-twist",
         lambda: BladeGeometry.from_aspect_ratio(0.38, 12.0, twist=NAN),
         GeometryError, "twist must be finite, got nan"),
        *[(f"wing-{name}", lambda name=name: WingDesignInputs(**{name: NAN}), ConfigError,
           f"^{name} must be positive$") for name in WING_POSITIVE],
    ]])
def test_records_refuse_nan(make, error, message):
    """A NaN fails each range check of the public records with the
    check's own message, as a value out of range does."""
    with pytest.raises(error, match=message):
        make()


def test_table_blade_has_no_linear_law_mean_chord():
    rotor = BladeGeometry(radius=0.4, chord_table=[[0.1, 0.04], [1.0, 0.02]])
    for name in ("mean_chord", "aspect_ratio"):
        with pytest.raises(GeometryError, match="chord_table"):
            getattr(rotor, name)


angles = st.floats(-10.0, 10.0)


@settings(max_examples=300, deadline=None)
@given(collective=angles, preset=angles, twist=angles,
       thetas=st.lists(angles, min_size=2, max_size=6), table=st.booleans(),
       r=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=16))
def test_pitch_is_collective_plus_built_in_pitch(collective, preset, twist, thetas, table, r):
    """The one pitch law: the collective is added to the zero-collective
    pitch, on linear and table blades, so a batched solve that adds each
    row's collective to one built-in pitch gives the blade's own pitch
    (equal as floats; only the sign of a zero may differ)."""
    pitch_table = np.column_stack([np.linspace(0.1, 1.0, len(thetas)), thetas])
    blade = BladeGeometry(radius=0.4, root_chord=0.03, twist=twist, preset=preset,
                          pitch_table=pitch_table if table else None)
    r = np.array(r)
    assert np.array_equal(blade.pitch(r, collective), collective + blade.pitch(r, 0.0))
    assert blade.pitch(r[0], collective) == collective + blade.pitch(r[0], 0.0)


def test_table_distributions_interpolate():
    rotor = BladeGeometry(
        radius=0.4,
        chord_table=[[0.1, 0.06], [1.0, 0.03]],
        pitch_table=[[0.1, math.radians(20.0)], [1.0, math.radians(2.0)]])
    assert rotor.chord(0.55) == pytest.approx(0.045, abs=1e-15)
    assert rotor.pitch(0.55, 0.0) == pytest.approx(math.radians(11.0), abs=1e-12)
    # collective shifts a tabulated law uniformly
    assert rotor.pitch(0.55, 0.1) == pytest.approx(
        rotor.pitch(0.55, 0.0) + 0.1, abs=1e-15)


def test_dict_round_trip_linear(baseline_rotor):
    """``configs/baseline.json`` is the baseline preset written out as a
    rotor description, and reads back as that preset."""
    clone = BladeGeometry.from_dict(json.loads((CONFIGS / "baseline.json").read_text()))
    r = np.linspace(0.1, 1.0, 7)
    assert np.allclose(clone.chord(r), baseline_rotor.chord(r), atol=1e-15)
    assert np.allclose(clone.pitch(r, 0.1), baseline_rotor.pitch(r, 0.1), atol=1e-12)
    assert clone.n_blades == baseline_rotor.n_blades
    assert clone.name == baseline_rotor.name


def test_dict_round_trip_tables():
    """A rotor description's tables, pitch in degrees, read back as the
    blade built from the same tables in radians."""
    rotor = BladeGeometry(
        radius=0.3, chord_table=[[0.1, 0.04], [0.6, 0.05], [1.0, 0.02]],
        pitch_table=[[0.1, math.radians(25.0)], [1.0, math.radians(5.0)]])
    clone = BladeGeometry.from_dict({
        "radius_m": 0.3, "chord_table": [[0.1, 0.04], [0.6, 0.05], [1.0, 0.02]],
        "pitch_table": [[0.1, 25.0], [1.0, 5.0]]})
    r = np.linspace(0.1, 1.0, 9)
    assert np.allclose(clone.chord(r), rotor.chord(r), atol=1e-15)
    assert np.allclose(clone.pitch(r, 0.0), rotor.pitch(r, 0.0), atol=1e-12)


def test_from_dict_missing_field():
    with pytest.raises(GeometryError):
        BladeGeometry.from_dict({"n_blades": 2})


# ---------------------------------------------------------------------------
# operating point

def test_operating_point_validation():
    with pytest.raises(GeometryError):
        OperatingPoint(omega=0.0)
    with pytest.raises(GeometryError):
        OperatingPoint(omega=100.0, v_inf=-1.0)
    with pytest.raises(GeometryError):
        OperatingPoint(omega=100.0, rho=0.0)


def test_operating_point_conversions():
    op = OperatingPoint.from_rpm(3200.0, v_inf=20.0)
    assert op.rpm == pytest.approx(3200.0, abs=1e-10)
    assert op.omega == pytest.approx(3200.0 * math.pi / 30.0, abs=1e-10)
    assert op.tip_speed(0.42) == pytest.approx(op.omega * 0.42, abs=1e-12)
    assert op.advance_ratio(0.42) == pytest.approx(20.0 / (op.omega * 0.42), abs=1e-15)


# ---------------------------------------------------------------------------
# station solutions and recovery identities

def test_station_grid_midpoints():
    r, dr = bemt.station_grid(0.1, 30)
    assert dr == pytest.approx(0.9 / 30, abs=1e-15)
    assert r[0] == pytest.approx(0.1 + dr / 2, abs=1e-15)
    assert r[-1] == pytest.approx(1.0 - dr / 2, abs=1e-15)
    assert np.allclose(np.diff(r), dr, atol=1e-15)
    with pytest.raises(GeometryError):
        bemt.station_grid(0.1, 8)


def test_solve_station_bounds(baseline_rotor, naca0012, rpm_study_rotor, sc1095):
    with pytest.raises(GeometryError):
        bemt.solve_station(baseline_rotor, hover_op(8.0), naca0012, 1.5)
    # a root station far past stall at 240 m/s has no inflow root on either side
    stalled = OperatingPoint.from_rpm(3200.0, v_inf=240.0, rho=1.167,
                                      collective=math.radians(75.0))
    with pytest.raises(NoRootError, match="r=0.1135") as info:
        bemt.solve_station(rpm_study_rotor, stalled, sc1095, 0.1135)
    assert list(info.value.stations) == [0.1135]


def test_station_recovery_identities(baseline_rotor, naca0012):
    """alpha = pitch - phi; (lam, xi) lie along the inflow direction;
    the residual vanishes at the root."""
    op = hover_op(8.5)
    for r in (0.2, 0.5, 0.8, 0.97):
        st = bemt.solve_station(baseline_rotor, op, naca0012, r)
        pitch = float(baseline_rotor.pitch(r, op.collective))
        assert st.alpha == pytest.approx(pitch - st.phi, abs=1e-14)
        # lam = u sin(phi), xi = u cos(phi) for a single resultant speed u
        assert st.lam * math.cos(st.phi) - st.xi * math.sin(st.phi) == \
            pytest.approx(0.0, abs=1e-14)
        assert st.lam_i == pytest.approx(st.lam, abs=1e-15)   # hover: v_inf = 0
        assert st.xi_i == pytest.approx(r - st.xi, abs=1e-15)
        assert abs(st.residual) < 1e-10
        assert 0.0 < st.tip_loss <= 1.0


def test_solve_station_is_a_station_of_evaluate_rotor(rpm_study_rotor, sc1095):
    """solve_station solves through evaluate_rotor's core: at a station of
    its grid it gives, bit for bit, that station's InflowSolution."""
    op = OperatingPoint.from_rpm(2000.0, v_inf=20.0, rho=1.167,
                                 collective=math.radians(16.0))
    _, inflow = bemt.evaluate_rotor(rpm_study_rotor, op, sc1095, return_inflow=True)
    for i in (0, 37, 99):
        st = bemt.solve_station(rpm_study_rotor, op, sc1095, float(inflow.r[i]))
        for f in fields(bemt.InflowSolution):
            assert getattr(st, f.name) == getattr(inflow, f.name)[i], (i, f.name)


def _oracle_phi(r, pitch, sigma, mu, n_blades, polar, n=4001):
    """Independent root of the station residual: fresh transcription of
    the balance equation, fine scan, 90 bisection rounds."""
    def g(phi):
        s, c = math.sin(phi), math.cos(phi)
        cl, cd = polar.cl_cd(np.array([pitch - phi]))
        cl, cd = float(cl[0]), float(cd[0])
        f = 0.5 * n_blades * (1.0 - r) / max(r * abs(s), 1e-300)
        tip = (2.0 / math.pi) * math.acos(math.exp(-min(f, 700.0)))
        k_t = 1.0 - (1.0 - tip) * c
        k_p = 1.0 - (1.0 - tip) * s
        blade = sigma / (8.0 * r) * (mu * (cl * s + cd * c) / k_p
                                     + r * (cl * c - cd * s) / k_t)
        return (r * s - mu * c) * s - math.copysign(1.0, phi) * blade

    for lo0, hi0 in ((1e-6, math.pi / 2 - 1e-6), (-math.pi / 2 + 1e-6, -1e-6)):
        grid = np.linspace(lo0, hi0, n)
        g_prev = g(grid[0])
        for k in range(1, n):
            g_next = g(grid[k])
            if g_prev * g_next <= 0.0:
                lo, hi, g_lo = grid[k - 1], grid[k], g_prev
                for _ in range(90):
                    mid = 0.5 * (lo + hi)
                    g_mid = g(mid)
                    if g_mid * g_lo > 0.0:
                        lo, g_lo = mid, g_mid
                    else:
                        hi = mid
                return 0.5 * (lo + hi)
            g_prev = g_next
    raise AssertionError("oracle found no root")


def test_inflow_angle_against_independent_solver_hover(baseline_rotor, naca0012):
    op = hover_op(8.5)
    for r in (0.15, 0.3, 0.5, 0.7, 0.85, 0.95):
        st = bemt.solve_station(baseline_rotor, op, naca0012, r)
        phi_ref = _oracle_phi(r, float(baseline_rotor.pitch(r, op.collective)),
                              float(baseline_rotor.local_solidity(r)),
                              0.0, baseline_rotor.n_blades, naca0012)
        assert st.phi == pytest.approx(phi_ref, abs=1e-10)


def test_inflow_angle_against_independent_solver_cruise(rpm_study_rotor, sc1095):
    op = OperatingPoint.from_rpm(2000.0, v_inf=20.0, rho=1.167,
                                 collective=math.radians(16.0))
    mu = op.advance_ratio(rpm_study_rotor.radius)
    for r in (0.15, 0.4, 0.6, 0.8, 0.95):
        st = bemt.solve_station(rpm_study_rotor, op, sc1095, r)
        phi_ref = _oracle_phi(r, float(rpm_study_rotor.pitch(r, op.collective)),
                              float(rpm_study_rotor.local_solidity(r)),
                              mu, rpm_study_rotor.n_blades, sc1095)
        assert st.phi == pytest.approx(phi_ref, abs=1e-10)


def test_hover_inflow_matches_classical_closed_form(ideal_case):
    """Many-blade, zero-drag, small-angle limit: the converged axial
    inflow reproduces lam = (sigma a/16)(sqrt(1 + 32 theta r/(sigma a)) - 1)."""
    rotor, op, polar, cl_alpha = ideal_case
    theta = op.collective
    for r in (0.3, 0.5, 0.7, 0.9):
        st = bemt.solve_station(rotor, op, polar, r)
        sigma = float(rotor.local_solidity(r))
        lam_ref = sigma * cl_alpha / 16.0 * (
            math.sqrt(1.0 + 32.0 * theta * r / (sigma * cl_alpha)) - 1.0)
        assert st.lam == pytest.approx(lam_ref, rel=5e-3)
        assert st.tip_loss > 0.999


def test_thrust_matches_momentum_integral(ideal_case):
    """Blade-side CT equals the annulus momentum integral 4 F lam^2 r dr
    in the ideal limit; the two sides share only the converged inflow."""
    rotor, op, polar, _ = ideal_case
    perf, inflow = bemt.evaluate_rotor(rotor, op, polar, n_stations=200,
                                       return_inflow=True)
    dr = (1.0 - rotor.root_cutout) / 200
    ct_momentum = float(np.sum(4.0 * inflow.tip_loss * inflow.lam ** 2
                               * inflow.r) * dr)
    assert perf.ct == pytest.approx(ct_momentum, rel=1e-4)


def _ning_cruise_eta(rotor, polar, op, tip_loss=True, n=100, n_scan=400):
    """Propulsive efficiency from a standard induction-factor BEMT.

    Propeller form of Ning's residual (Wind Energy 17(9), 2014), with
    W sin(phi) = V (1 + a) and W cos(phi) = Omega y (1 - a'):

        R(phi) = sin(phi) / (1 + a) - V / (Omega y) cos(phi) / (1 - a')
        a / (1 + a) = kappa  = s' cn / (4 F sin^2 phi)
        a' / (1 - a') = kappa' = s' ct / (4 F sin phi cos phi)

    with s' = Nb c / (2 pi y), cn = cl cos - cd sin, ct = cl sin + cd cos,
    and Prandtl F on both momentum equations (F = 1 without tip loss).
    The root is the first crossing on a scan of (0, pi/2), bisected; the
    loads are the blade-element ones at W^2 = (V(1+a))^2 + (Omega y(1-a'))^2,
    summed over ``n`` midpoint cells.  Only the chord/pitch parameters and
    the polar lookup are shared with the package, so it checks the BEMT
    solution for a given pitch law and polar, not the input conventions
    (such as the blade station the collective refers to).
    """
    radius, nb = rotor.radius, rotor.n_blades
    dr = (1.0 - rotor.root_cutout) / n
    r = rotor.root_cutout + dr * (np.arange(n) + 0.5)
    y = r * radius
    chord = rotor.root_chord + (rotor.tip_chord - rotor.root_chord) * r
    theta = op.collective + rotor.preset + rotor.twist * r
    solidity = nb * chord / (2.0 * math.pi * y)
    inflow_ratio = op.v_inf / (op.omega * y)

    def factors(phi):
        s, c = np.sin(phi), np.cos(phi)
        cl, cd = polar.cl_cd(theta - phi)
        cn, ct = cl * c - cd * s, cl * s + cd * c
        if tip_loss:
            f = 0.5 * nb * (1.0 - r) / (r * s)
            tip = (2.0 / math.pi) * np.arccos(np.exp(-f))
        else:
            tip = 1.0
        kappa = solidity * cn / (4.0 * tip * s * s)
        kappa_p = solidity * ct / (4.0 * tip * s * c)
        return cn, ct, kappa, kappa_p

    def residual(phi):
        # R(phi) with 1/(1 + a) = 1 - kappa and 1/(1 - a') = 1 + kappa'
        _, _, kappa, kappa_p = factors(phi)
        return (np.sin(phi) * (1.0 - kappa)
                - inflow_ratio * np.cos(phi) * (1.0 + kappa_p))

    grid = np.linspace(1e-6, 0.5 * math.pi - 1e-6, n_scan + 1)
    g = np.array([residual(np.full(n, x)) for x in grid])
    crossing = g[:-1] * g[1:] <= 0.0
    assert np.all(crossing.any(axis=0)), "oracle found no root"
    first = np.argmax(crossing, axis=0)
    lo, hi, g_lo = grid[first], grid[first + 1], g[first, np.arange(n)]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        g_mid = residual(mid)
        keep_hi = g_mid * g_lo > 0.0
        lo = np.where(keep_hi, mid, lo)
        g_lo = np.where(keep_hi, g_mid, g_lo)
        hi = np.where(keep_hi, hi, mid)
    cn, ct, kappa, kappa_p = factors(0.5 * (lo + hi))
    a = kappa / (1.0 - kappa)
    a_p = kappa_p / (1.0 + kappa_p)
    w2 = (op.v_inf * (1.0 + a)) ** 2 + (op.omega * y * (1.0 - a_p)) ** 2
    thrust = np.sum(0.5 * op.rho * nb * w2 * chord * cn) * dr * radius
    torque = np.sum(0.5 * op.rho * nb * w2 * chord * ct * y) * dr * radius
    return float(thrust * op.v_inf / (torque * op.omega))


def test_cruise_efficiency_against_induction_factor_bemt(rpm_study_rotor, sc1095):
    """The Fig. 11 rotor at 20 m/s over RPM x collective: the package's
    eta matches the induction-factor oracle within 0.005 (largest gap
    ~0.003).  Dropping tip loss from the oracle moves it by more than that
    at every point, so the tolerance does see the momentum model."""
    tol = 0.005
    for rpm in (2000.0, 2600.0, 3200.0):
        for collective_deg in (12.0, 14.0, 16.0, 18.0, 20.0):
            op = OperatingPoint.from_rpm(rpm, v_inf=20.0, rho=1.167,
                                         collective=math.radians(collective_deg))
            eta = bemt.evaluate_rotor(rpm_study_rotor, op, sc1095).eta_p
            ref = _ning_cruise_eta(rpm_study_rotor, sc1095, op)
            no_f = _ning_cruise_eta(rpm_study_rotor, sc1095, op, tip_loss=False)
            assert eta == pytest.approx(ref, abs=tol), (rpm, collective_deg)
            assert abs(eta - no_f) > tol, (rpm, collective_deg)


# ---------------------------------------------------------------------------
# nondimensional structure

def test_hover_ct_cp_independent_of_rpm(baseline_rotor, naca0012):
    p1 = bemt.evaluate_rotor(baseline_rotor, hover_op(8.0, rpm=2000.0), naca0012)
    p2 = bemt.evaluate_rotor(baseline_rotor, hover_op(8.0, rpm=3200.0), naca0012)
    assert p1.ct == p2.ct
    assert p1.cp == p2.cp
    # dimensional thrust then scales exactly with tip speed squared
    assert p2.thrust / p1.thrust == pytest.approx((3200.0 / 2000.0) ** 2, rel=1e-13)


def test_matched_advance_ratio_matches(rpm_study_rotor, sc1095):
    """Same mu, same nondimensional problem: (CT, CP) answer only to
    (theta0, mu), not to RPM and speed separately."""
    p1 = bemt.evaluate_rotor(
        rpm_study_rotor,
        OperatingPoint.from_rpm(2000.0, v_inf=10.0, collective=math.radians(12.0)),
        sc1095)
    p2 = bemt.evaluate_rotor(
        rpm_study_rotor,
        OperatingPoint.from_rpm(3200.0, v_inf=16.0, collective=math.radians(12.0)),
        sc1095)
    assert p1.advance_ratio == pytest.approx(p2.advance_ratio, rel=1e-15)
    assert p1.ct == pytest.approx(p2.ct, rel=1e-12)
    assert p1.cp == pytest.approx(p2.cp, rel=1e-12)


def test_grid_refinement_converged(baseline_rotor, naca0012):
    op = hover_op(8.5)
    ct = {n: bemt.evaluate_rotor(baseline_rotor, op, naca0012, n_stations=n).ct
          for n in (128, 256)}
    assert abs(ct[128] - ct[256]) < 1e-5


def test_zero_lift_hover_pins_phi(baseline_rotor, naca0012):
    """Symmetric section at zero pitch produces exactly nothing."""
    perf, inflow = bemt.evaluate_rotor(baseline_rotor, hover_op(0.0), naca0012,
                                       return_inflow=True)
    assert np.all(inflow.phi == 0.0)
    assert perf.ct == 0.0 and perf.thrust == 0.0
    assert math.isnan(perf.figure_of_merit)      # no defined hover efficiency


def test_tip_loss_and_deficit_factors_bounded(rpm_study_rotor, sc1095):
    op = OperatingPoint.from_rpm(2000.0, v_inf=20.0, collective=math.radians(16.0))
    _, inflow = bemt.evaluate_rotor(rpm_study_rotor, op, sc1095, return_inflow=True)
    for arr in (inflow.tip_loss, inflow.k_t, inflow.k_p):
        assert np.all(arr > 0.0) and np.all(arr <= 1.0)
    assert np.all(np.abs(inflow.residual) < 1e-10)
    # F falls toward the tip, where the loss concentrates
    assert inflow.tip_loss[-1] < inflow.tip_loss[inflow.tip_loss.size // 2]


def test_solve_calls_hold_at_most_one_block(rpm_study_rotor, sc1095, monkeypatch):
    """Every kernel call of a solve over more than two blocks holds at
    most BLOCK elements, also when more than a block of stations misses
    the end bracket of (0, pi/2) and goes on to the scan and the negative
    side; and the solve is the solve of its thirds, bit for bit."""
    rotor = rpm_study_rotor
    r, _ = bemt.station_grid(rotor.root_cutout, 128)
    collective = np.radians([-75.0, -40.0, -35.0, -30.0, -25.0, -20.0, 45.0, 75.0])
    mu = np.linspace(0.5, 2.0, 18)[:, None, None]
    pitch = rotor.pitch(r, collective[:, None])
    r, pitch, sigma, mu = (np.broadcast_to(x, (mu.size, collective.size, r.size)).ravel()
                           for x in (r, pitch, rotor.local_solidity(r), mu))
    args = (rotor.n_blades, sc1095)
    ends = bemt._sign_change(
        *(bemt._residual(phi, r, pitch, sigma, mu, *args)
          for phi in (bemt.SCAN_EPS, 0.5 * math.pi - bemt.SCAN_EPS)))
    assert r.size > 2 * bemt.BLOCK and np.sum(~ends) > bemt.BLOCK

    sizes = []

    def record(method):
        def wrapper(self, *call):
            sizes.append(call[-1].size)
            return method(self, *call)
        return wrapper

    for name in ("__call__", "uncertified"):
        monkeypatch.setattr(bemt._Residual, name, record(getattr(bemt._Residual, name)))
    phi, found, res = bemt._solve_phi_grid(r, pitch, sigma, mu, *args)
    assert sizes and max(sizes) <= bemt.BLOCK
    assert np.any(found & (phi < 0.0)) and not np.all(found)

    thirds = [bemt._solve_phi_grid(r[s], pitch[s], sigma[s], mu[s], *args)
              for s in np.array_split(np.arange(r.size), 3)]
    for got, part in zip((phi, found, res), zip(*thirds)):
        assert np.array_equal(got, np.concatenate(part), equal_nan=True)


# ---------------------------------------------------------------------------
# integrated performance

def test_baseline_thrust_regression(baseline_rotor, naca0012):
    """Pinned to the shipped polar tables; the design point sits inside
    the 42.5-57.5 N window with margin."""
    perf = bemt.evaluate_rotor(baseline_rotor, hover_op(8.5), naca0012)
    assert perf.thrust == pytest.approx(55.92, abs=0.05)
    assert 42.5 <= perf.thrust <= 57.5


def test_figure_of_merit_and_eta_definitions(final_rotor, sc1095):
    hover = bemt.evaluate_rotor(final_rotor, hover_op(6.0), sc1095)
    assert 0.0 < hover.figure_of_merit <= 1.0
    assert hover.eta_p == 0.0
    assert hover.figure_of_merit == pytest.approx(
        hover.ct ** 1.5 / (math.sqrt(2.0) * hover.cp), rel=1e-12)
    cruise = bemt.evaluate_rotor(
        final_rotor,
        OperatingPoint.from_rpm(2000.0, v_inf=20.0, collective=math.radians(10.0)),
        sc1095)
    assert math.isnan(cruise.figure_of_merit)
    # eta = T V / P, two routes to the same number
    assert cruise.eta_p == pytest.approx(
        cruise.thrust * 20.0 / cruise.power, rel=1e-12)
    assert cruise.power_loading == pytest.approx(
        cruise.thrust / cruise.power, rel=1e-15)


def test_thrust_curve_matches_pointwise(baseline_rotor, naca0012, rpm_study_rotor, sc1095):
    """Rows match evaluate_rotor at each collective; a collective with no
    root carries the error evaluate_rotor raises there and reads nan."""
    collectives = np.radians([2.0, 5.0, 8.0, 11.0])
    curve = bemt.thrust_curve(baseline_rotor, naca0012, 3200.0, collectives)
    assert curve.errors == [None] * 4
    assert [op.collective for op in curve.ops] == collectives.tolist()
    for theta0, row in zip(collectives, curve.rows):
        single = bemt.evaluate_rotor(
            baseline_rotor,
            OperatingPoint.from_rpm(3200.0, collective=float(theta0)),
            naca0012)
        assert row.ct == single.ct
        assert row.cp == single.cp
    assert np.all(np.diff(curve.column("thrust")) > 0.0)   # below stall: monotone

    collectives = np.radians([10.0, 75.0, 85.0])
    curve = bemt.thrust_curve(rpm_study_rotor, sc1095, 3200.0, collectives,
                              v_inf=240.0, rho=1.167)
    assert curve.rows[0] is not None and curve.errors[0] is None
    for i in (1, 2):
        with pytest.raises(NoRootError) as info:
            bemt.evaluate_rotor(rpm_study_rotor, curve.ops[i], sc1095)
        err, exc = curve.errors[i], info.value
        assert curve.rows[i] is None and type(err) is NoRootError
        assert (str(err), err.stations, err.bracket) == (str(exc), exc.stations, exc.bracket)
    r, _ = bemt.station_grid(rpm_study_rotor.root_cutout, 100)
    err, expected = curve.errors[1], bemt._no_root(r[:3])
    assert (str(err), err.stations, err.bracket) == \
        (str(expected), expected.stations, expected.bracket)
    np.testing.assert_equal(curve.column("ct"), [curve.rows[0].ct, math.nan, math.nan])


def _span_solve(geometry, polar, rpm, v_inf, pitch, n_stations=100):
    """One inflow solve over the stations, recovered and integrated by
    hand: ``pitch(r)`` is a station row or a (collective x station) grid."""
    r, dr = bemt.station_grid(geometry.root_cutout, n_stations)
    pitch = pitch(r)
    mu = OperatingPoint.from_rpm(rpm, v_inf=v_inf).advance_ratio(geometry.radius)
    sigma = geometry.local_solidity(r)
    phi, found, res = bemt._solve_phi_grid(r, pitch, sigma, mu, geometry.n_blades, polar)
    state = bemt._recover(phi, r, pitch, sigma, mu, geometry.n_blades, polar)
    ct = np.sum(state["dct_dr"], axis=-1) * dr
    cp = np.sum(state["dcp_dr"], axis=-1) * dr
    return ct, cp, phi, res, state


@pytest.mark.parametrize("v_inf, collective_deg", [(0.0, 8.0), (20.0, 16.0)])
def test_shared_core_keeps_evaluate_rotor_and_thrust_curve(rpm_study_rotor, sc1095,
                                                          v_inf, collective_deg):
    """evaluate_rotor and thrust_curve give, bit for bit, what a
    single-row solve and a (collective x station) solve give: the pitch
    law at the collective for the one, collective plus zero-collective
    pitch for the other (the one pitch law makes the two the same)."""
    theta = math.radians(collective_deg)
    op = OperatingPoint.from_rpm(2600.0, v_inf=v_inf, collective=theta)
    perf, inflow = bemt.evaluate_rotor(rpm_study_rotor, op, sc1095, return_inflow=True)
    ct, cp, phi, res, state = _span_solve(
        rpm_study_rotor, sc1095, 2600.0, v_inf, lambda r: rpm_study_rotor.pitch(r, theta))
    assert (perf.ct, perf.cp) == (float(ct), float(cp))
    assert np.array_equal(inflow.phi, phi) and np.array_equal(inflow.residual, res)
    for key, value in state.items():
        assert np.array_equal(getattr(inflow, key), value), key

    collectives = np.radians([2.0, collective_deg, 14.0])
    curve = bemt.thrust_curve(rpm_study_rotor, sc1095, 2600.0, collectives, v_inf=v_inf)
    ct, cp, *_ = _span_solve(
        rpm_study_rotor, sc1095, 2600.0, v_inf,
        lambda r: collectives[:, None] + rpm_study_rotor.pitch(r, 0.0)[None, :])
    assert [(row.ct, row.cp) for row in curve.rows] == list(zip(ct.tolist(), cp.tolist()))


@pytest.mark.parametrize("v_inf", [0.0, 20.0, 240.0])
@pytest.mark.parametrize("rotor", ["final_rotor", "rpm_study_rotor"])
def test_thrust_curve_rows_are_evaluate_rotor(request, sc1095, rotor, v_inf):
    """Each row of a thrust curve is, field for field, what
    ``evaluate_rotor`` gives at its operating point, and each failed row
    carries the text of the NoRootError that it raises there; collectives
    off the 0.5 deg grid, on twisted blades."""
    geometry = request.getfixturevalue(rotor)
    collectives = np.radians([-3.3, 1.7, 6.2, 9.9, 13.1, 17.3, 77.7])
    curve = bemt.thrust_curve(geometry, sc1095, 3200.0, collectives, v_inf=v_inf, rho=1.167)
    for op, row, err in zip(curve.ops, curve.rows, curve.errors, strict=True):
        try:
            perf = bemt.evaluate_rotor(geometry, op, sc1095)
        except NoRootError as exc:
            assert row is None and str(err) == str(exc)
        else:
            assert err is None
            np.testing.assert_equal(vars(row), vars(perf))
    assert any(row is None for row in curve.rows) == (v_inf == 240.0)


@pytest.mark.parametrize("other", [{"root_cutout": 0.15}, {"n_blades": 3}])
def test_curves_refuse_rows_off_one_station_grid(final_rotor, sc1095, other):
    """The rows of one solve share a root cutout and a blade count; no
    rows make an empty curve."""
    op = OperatingPoint.from_rpm(3200.0, collective=0.1)
    rows = [(final_rotor, op), (replace(final_rotor, **other), op)]
    with pytest.raises(GeometryError, match="one root cutout and blade count"):
        bemt._curves(rows, sc1095, 100)
    assert bemt._curves([], sc1095, 100) == bemt.RotorCurve([], [], [])


def test_thrust_curves_are_thrust_curve_per_blade(sc1095):
    """One ``_curves`` solve over the collective rows of several blades
    gives each blade its own thrust curve, field for field; rows with no
    root carry the same error.  The radii differ, so each row needs its
    blade's advance ratio and solidity (local_solidity differs across
    radii in the last bit)."""
    twist = math.radians(-20.0)
    blades = [BladeGeometry.from_aspect_ratio(radius, 12.0, taper_ratio=5.0 / 3.0,
                                              twist=twist, preset=-twist)
              for radius in (0.27, 0.38, 0.51)]
    r, _ = bemt.station_grid(blades[0].root_cutout, 100)
    assert not np.array_equal(blades[0].local_solidity(r), blades[1].local_solidity(r))
    collectives = np.radians([2.0, 9.0, 16.0, 75.0])
    n = collectives.size
    for v_inf in (0.0, 20.0, 240.0):
        op = OperatingPoint.from_rpm(2000.0, v_inf=v_inf, rho=1.167)
        rows = [row for blade in blades
                for row in bemt._collective_rows(blade, op, collectives)]
        solved = bemt._curves(rows, sc1095, 100)
        for i, blade in enumerate(blades):
            alone = bemt.thrust_curve(blade, sc1095, 2000.0, collectives, v_inf=v_inf,
                                      rho=1.167)
            assert [point for _, point in rows[i * n:(i + 1) * n]] == alone.ops
            for row, err, single, error in zip(solved.rows[i * n:(i + 1) * n],
                                               solved.errors[i * n:(i + 1) * n], alone.rows,
                                               alone.errors, strict=True):
                assert (row is None) == (single is None)
                if row is not None:
                    np.testing.assert_equal(vars(row), vars(single))
                assert str(err) == str(error)
    assert any(row is None for row in solved.rows[:n])     # 240 m/s has failed rows


@pytest.mark.parametrize("values, expected", [
    ([math.nan, math.nan, 1.0, 2.0, 3.0, 2.5], [2, 3, 4]),   # leading NaNs
    ([1.0, math.nan, 3.0, 3.0, 2.0], [0, 2]),                # tie: first peak
    ([math.nan, math.nan], []),                              # nothing finite
    ([3.0, 2.0, 1.0], [0]),                                  # falling curve
])
def test_rising_branch(values, expected):
    branch = bemt.rising_branch(values)
    assert branch.dtype.kind == "i"
    assert branch.tolist() == expected


def test_csv_row_blank_fm_in_axial_flight(rpm_study_rotor, sc1095):
    perf = bemt.evaluate_rotor(
        rpm_study_rotor,
        OperatingPoint.from_rpm(2000.0, v_inf=20.0, collective=math.radians(16.0)),
        sc1095)
    fields = perf.csv_row().split(",")
    assert fields[7] == ""                        # FM column empty
    assert float(fields[9]) == pytest.approx(perf.eta_p, abs=1e-6)


def test_no_root_error_carries_context():
    err = NoRootError("no crossing", stations=[0.5], bracket=(-1.5, 1.5))
    assert err.stations == (0.5,)
    assert err.bracket == (-1.5, 1.5)
