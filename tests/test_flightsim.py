"""Quadrotor simulator: mixing algebra, controllers, dynamics, missions.

The allocation is checked as an exact inverse of the forward mixing,
the controllers against hand-evaluated PID arithmetic, the integrator
against closed-form free fall and torque-free momentum conservation,
and missions for determinism and terminal accuracy.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from designkit import flightsim, presets
from designkit.constants import G
from designkit.errors import ConfigError, MissionTimeout, SimulationAbort
from designkit.flightsim import (ATT_D, ATT_I, ATT_INTEGRATOR_LIMIT, ATT_P,
                                 HOLD_TIME, MAX_WAYPOINT_STEPS, POS_D,
                                 AttitudeController, ControlCommand,
                                 MissionLog, PitchMap, PositionController,
                                 VehicleParams, VehicleState, allocate,
                                 default_params, mixing_forward, run_mission,
                                 step_dynamics)


@pytest.fixture(scope="module")
def params():
    return default_params()


@pytest.fixture(scope="module")
def pitch_map(final_rotor, sc1095):
    return PitchMap.from_rotor(final_rotor, sc1095)


# ---------------------------------------------------------------------------
# parameters

def test_default_params_consistency(params):
    tip = 3200.0 * math.pi / 30.0 * 0.38
    assert params.k_f == pytest.approx(1.225 * math.pi * 0.38 ** 2 * tip ** 2,
                                       rel=1e-12)
    assert params.hover_thrust == pytest.approx(18.507 * G, rel=1e-15)
    assert params.ct_hover == pytest.approx(
        params.hover_thrust / (4.0 * params.k_f), rel=1e-12)
    assert params.yaw_gain == pytest.approx(
        params.k_f * 0.38 * math.sqrt(params.ct_hover / 2.0), rel=1e-12)


def test_params_validation(params):
    with pytest.raises(ConfigError):
        VehicleParams(mass=-1.0, inertia=(2.4, 1.7, 4.1), arm_length=0.5,
                      k_f=1.0, rotor_radius=0.38)
    with pytest.raises(ConfigError):
        VehicleParams(mass=18.5, inertia=(2.4, 1.7, 4.1), arm_length=0.5,
                      k_f=0.0, rotor_radius=0.38)
    # the hover trim is derived, in the order the old field was filled
    assert params.ct_hover == params.mass * G / (4.0 * params.k_f)


@pytest.mark.parametrize("field, value", [
    ("mass", math.nan), ("k_f", math.nan), ("inertia", (math.nan, 1.7, 4.1)),
], ids=["mass", "k_f", "inertia"])
def test_params_refuse_nan(params, field, value):
    """A NaN fails the positivity check of each value on its own, so the
    vehicle is refused before a mission can blame its control command."""
    with pytest.raises(ConfigError, match="vehicle parameters must be positive"):
        replace(params, **{field: value})


@pytest.mark.parametrize("inertia", [
    (1.0, 1.0), (1.0, 1.0, 1.0, 1.0), 1.0, ("a", "b", "c"),
], ids=["two", "four", "scalar", "text"])
def test_params_refuse_an_inertia_that_is_not_3_numbers(params, inertia):
    """A short or long inertia once reached the first dynamics step as a
    bare TypeError from the derivative, and a scalar failed the positivity
    check with one; it is refused where it is given."""
    with pytest.raises(ConfigError, match="VehicleParams inertia must be 3 numbers"):
        replace(params, inertia=inertia)


def test_params_store_the_inertia_as_3_floats(params):
    vehicle = replace(params, inertia=np.array([2.4, 1.7, 4.1]))
    assert vehicle.inertia == (2.4, 1.7, 4.1)
    assert all(type(v) is float for v in vehicle.inertia)


def test_state_pack_round_trip():
    state = VehicleState(np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0]),
                        np.array([0.1, 0.2, 0.3]), np.array([7.0, 8.0, 9.0]))
    clone = VehicleState.unpack(state.pack())
    assert np.array_equal(clone.position, state.position)
    assert np.array_equal(clone.rates, state.rates)


@pytest.mark.parametrize("part, value", [
    ("position", [1.0, 2.0]), ("velocity", np.zeros(4)), ("euler", 0.5),
    ("rates", [0.0] * 4), ("rates", ["p", "q", "r"]),
], ids=["position-2", "velocity-4", "euler-scalar", "rates-4", "rates-text"])
def test_state_refuses_a_part_that_is_not_3_numbers(part, value):
    """A short or long part once reached step_dynamics as a bare
    ValueError about unpacking; it is refused where it is given."""
    with pytest.raises(ConfigError, match=f"VehicleState {part} must be 3 numbers"):
        VehicleState(**{part: value})


@pytest.mark.parametrize("size", [11, 13])
def test_unpack_refuses_a_vector_that_is_not_12_numbers(size):
    with pytest.raises(ConfigError, match="VehicleState.unpack vector must be 12 numbers"):
        VehicleState.unpack(np.zeros(size))


# ---------------------------------------------------------------------------
# controllers

def test_attitude_pid_arithmetic():
    state = VehicleState(euler=np.array([0.1, -0.05, 0.2]))
    dt = 0.005
    moments = AttitudeController().update(state, np.zeros(3), dt)
    expected = -(np.asarray(ATT_P) * state.euler
                 + np.asarray(ATT_I) * (state.euler * dt))
    assert np.allclose(moments, expected, rtol=1e-14, atol=0.0)


def test_attitude_pid_damps_rates():
    state = VehicleState(rates=np.array([0.3, -0.2, 0.1]))
    moments = AttitudeController().update(state, np.zeros(3), 0.005)
    # at zero attitude the rate map is the identity: pure -Kd * omega
    assert np.allclose(moments, -np.asarray(ATT_D) * state.rates,
                       rtol=1e-14, atol=0.0)


def test_attitude_integrator_clamps():
    ctrl = AttitudeController()
    state = VehicleState(euler=np.array([2.0, 0.0, 0.0]))
    for _ in range(1000):
        ctrl.update(state, np.zeros(3), 0.005)
    assert ctrl.integral[0] == ATT_INTEGRATOR_LIMIT
    # every controller carries its own integrator
    assert AttitudeController().integral == [0.0, 0.0, 0.0]


def test_position_hover_at_target(params):
    thrust, phi_d, theta_d = PositionController(params=params).update(
        VehicleState(), np.zeros(3), 0.0, 0.005)
    assert thrust == params.hover_thrust
    assert phi_d == 0.0 and theta_d == 0.0


def test_position_tilt_signs(params):
    # offset toward +y: roll negative (left-wing-down is negative phi in
    # NED, which accelerates -y); no pitch demand
    state = VehicleState(position=np.array([0.0, 1.0, 0.0]))
    _, phi_d, theta_d = PositionController(params=params).update(
        state, np.zeros(3), 0.0, 0.005)
    assert phi_d < 0.0 and theta_d == 0.0
    # offset toward +x: pitch positive (nose up decelerates +x travel)
    state = VehicleState(position=np.array([1.0, 0.0, 0.0]))
    _, phi_d, theta_d = PositionController(params=params).update(
        state, np.zeros(3), 0.0, 0.005)
    assert theta_d > 0.0 and phi_d == 0.0


def test_position_thrust_clamp(params):
    """Climbing through the target at G / Kd, the damping term asks for
    exactly 1 g downward, which zeroes the demanded specific force; the
    controller falls back to hover thrust and says so."""
    ctrl = PositionController(params=params)
    climbing = VehicleState(velocity=np.array([0.0, 0.0, -G / POS_D[2]]))
    thrust, phi_d, theta_d = ctrl.update(climbing, np.zeros(3), 0.0, 0.005)
    assert ctrl.thrust_clamped
    assert thrust == params.hover_thrust
    assert phi_d == 0.0 and theta_d == 0.0
    assert not ctrl.tilt_limited


def test_position_tilt_clamps_keep_asin_in_domain(params):
    """Add 1 m/s of horizontal speed to that climb and the demanded
    specific force is horizontal, so rounding can put |s_phi| or |s_theta|
    one ulp above 1.  Each clamp sets the flag and commands 90 deg, where
    math.asin alone would raise."""
    def update(heading, yaw):
        moving = VehicleState(velocity=np.array(
            [math.cos(heading), math.sin(heading), -G / POS_D[2]]))
        ctrl = PositionController(params=params)
        _, phi_d, theta_d = ctrl.update(moving, np.zeros(3), yaw, 0.005)
        return ctrl.tilt_limited, abs(phi_d), abs(theta_d)

    # along x, s_theta is -1.0000000000000002 at yaw -2.98326 rad
    yaws = np.linspace(-math.pi, math.pi, 2000, endpoint=False).tolist()
    limited = [update(0.0, yaw) for yaw in yaws + [-2.9832563838488677]]
    limited = [theta_d for flag, _, theta_d in limited if flag]
    assert len(limited) > 1
    assert all(t == math.pi / 2 for t in limited)
    # s_phi is -1.0000000000000002 on this heading at this yaw
    assert update(2.659838524324996, 1.0890421975300202) == (True, math.pi / 2, math.pi / 2)


# ---------------------------------------------------------------------------
# allocation

def test_allocation_round_trip(params):
    rng = np.random.default_rng(11)
    for _ in range(20):
        cmd = ControlCommand(float(rng.uniform(30.0, 300.0)),
                             tuple(rng.uniform(-20.0, 20.0, 3)))
        cts = allocate(cmd, params)
        thrust, l, m, n = mixing_forward(cts, params)
        assert thrust == pytest.approx(cmd.thrust, rel=1e-12)
        assert (l, m, n) == pytest.approx(cmd.moments, rel=1e-10, abs=1e-12)


def test_allocation_pure_thrust(params):
    cts = allocate(ControlCommand(120.0, (0.0, 0.0, 0.0)), params)
    assert np.all(cts == cts[0])
    assert cts[0] == 0.25 * (120.0 / params.k_f)


def test_allocation_hover_trim(params):
    cts = allocate(ControlCommand(params.hover_thrust, (0.0, 0.0, 0.0)), params)
    assert np.all(cts == params.ct_hover)


def test_yaw_linearization_factor(params):
    """The 3/2-power reaction torque makes the hover-linearized yaw row
    conservative: the realized torque runs ~1.5x the commanded one."""
    def factor(n_cmd):
        cts = allocate(ControlCommand(params.hover_thrust, (0.0, 0.0, n_cmd)),
                       params)
        *_, n_linear = mixing_forward(cts, params)
        *_, n_exact = mixing_forward(cts, params, exact_yaw=True)
        assert n_linear == pytest.approx(n_cmd, rel=1e-12)
        return n_exact / n_linear

    assert factor(1.0) == pytest.approx(1.4947, abs=1e-3)
    # curvature of the 3/2 law trims the slope below exactly 1.5, less
    # so as the command shrinks
    assert factor(1.0) < factor(0.1) < 1.5


def test_command_validation():
    with pytest.raises(ConfigError):
        ControlCommand(math.nan, (0.0, 0.0, 0.0))
    with pytest.raises(ConfigError):
        ControlCommand(100.0, (0.0, math.inf, 0.0))


# ---------------------------------------------------------------------------
# pitch map

def test_pitch_map_range_and_trim(params, pitch_map):
    lo, hi = pitch_map.ct_range
    assert lo == pytest.approx(0.00120, abs=5e-5)
    assert hi == pytest.approx(0.00802, abs=5e-5)
    assert lo < params.ct_hover < hi
    collective, saturated = pitch_map.pitch(params.ct_hover)
    assert not saturated
    assert math.degrees(collective) == pytest.approx(4.02, abs=0.1)


def test_pitch_map_node_round_trip(pitch_map):
    for theta, ct in zip(pitch_map.collectives, pitch_map.cts):
        back, saturated = pitch_map.pitch(ct)
        assert not saturated
        assert back == pytest.approx(theta, abs=1e-12)


def test_pitch_map_saturation(pitch_map):
    lo_theta, saturated_lo = pitch_map.pitch(0.0)
    hi_theta, saturated_hi = pitch_map.pitch(0.02)
    assert saturated_lo and saturated_hi
    assert lo_theta == pitch_map.collectives[0]
    assert hi_theta == pitch_map.collectives[-1]


def test_pitch_map_validation():
    with pytest.raises(ConfigError):
        PitchMap([0.0, 0.1], [0.001, 0.002])
    with pytest.raises(ConfigError):
        PitchMap([0.0, 0.1, 0.2], [0.001, 0.0009, 0.002])
    # leading stalled points are dropped, the rising branch survives
    pm = PitchMap([0.0, 0.1, 0.2, 0.3],
                  [math.nan, 0.001, 0.002, 0.003])
    assert pm.cts.size == 3


@pytest.mark.parametrize("collectives, match", [
    ([0.0, 0.1, 0.2], "one C_T per collective"),
    ([0.0, 0.1, 0.2, 0.3, 0.4], "one C_T per collective"),
    ([0.0, math.nan, 0.2, 0.3], "collectives must be finite"),
], ids=["shorter", "longer", "nan"])
def test_pitch_map_refuses_tables_it_cannot_interpolate(collectives, match):
    """Fewer collectives than C_T would fail on indexing and more would be
    dropped in silence; a NaN collective would be interpolated into the log."""
    with pytest.raises(ConfigError, match=match):
        PitchMap(collectives, [0.001, 0.002, 0.003, 0.004])


# ---------------------------------------------------------------------------
# dynamics

def test_step_validation(params):
    state = VehicleState()
    for dt in (0.0, -0.001, 0.011):
        with pytest.raises(ConfigError):
            step_dynamics(state, np.zeros(4), params, dt)


def test_free_fall_closed_form(params):
    state = VehicleState()
    dt, n = 0.005, 100
    for _ in range(n):
        state = step_dynamics(state, np.zeros(4), params, dt)
    t = n * dt
    assert state.position[2] == pytest.approx(0.5 * G * t * t, rel=1e-12)
    assert state.velocity[2] == pytest.approx(G * t, rel=1e-12)
    assert np.array_equal(state.euler, np.zeros(3))
    assert np.array_equal(state.rates, np.zeros(3))


def test_hover_equilibrium(params):
    state = VehicleState()
    cts = np.full(4, params.ct_hover)
    for _ in range(1000):
        state = step_dynamics(state, cts, params, 0.005)
    assert np.all(np.abs(state.position) < 1e-9)
    assert np.array_equal(state.euler, np.zeros(3))
    assert np.array_equal(state.rates, np.zeros(3))


def test_torque_free_momentum_conservation(params):
    """Zero applied moments: RK4 holds |I omega| and rotational energy
    through the gyroscopic coupling."""
    inertia = np.asarray(params.inertia)
    state = VehicleState(euler=np.array([0.0, 0.2, 0.0]),
                         rates=np.array([0.2, 0.15, 0.1]))
    h0 = np.linalg.norm(inertia * state.rates)
    e0 = float(np.sum(inertia * state.rates ** 2))
    for _ in range(400):
        state = step_dynamics(state, np.zeros(4), params, 0.005)
    assert np.linalg.norm(inertia * state.rates) == pytest.approx(h0, rel=1e-9)
    assert float(np.sum(inertia * state.rates ** 2)) == pytest.approx(e0, rel=1e-9)


def test_pitch_singularity_abort(params):
    state = VehicleState(euler=np.array([0.0, 1.47, 0.0]),
                         rates=np.array([0.0, 5.0, 0.0]))
    with pytest.raises(SimulationAbort):
        for _ in range(5):
            state = step_dynamics(state, np.zeros(4), params, 0.01)



def test_mission_abort_carries_time(params, pitch_map):
    """A diagonal 21 m leg with a 0.5 rad yaw turn saturates the map and
    tips the vehicle past the Euler limit on step 633."""
    with pytest.raises(SimulationAbort) as info:
        run_mission([(15.0, 15.0, 0.0, 0.5)], params, pitch_map, dt=0.005)
    assert info.value.t == pytest.approx(633 * 0.005, abs=1e-9)


# ---------------------------------------------------------------------------
# missions

def test_mission_immediate_capture_and_settle(params, pitch_map):
    log = run_mission([(0.0, 0.0, 0.0, 0.0)], params, pitch_map, dt=0.005)
    assert len(log.capture_times) == 1
    assert log.capture_times[0] == pytest.approx(0.005, abs=1e-12)
    assert log.time.size == pytest.approx(HOLD_TIME / 0.005 + 1, abs=2)
    assert np.array_equal(log.final_position, log.position[-1])
    assert np.all(np.abs(log.final_position) < 1e-3)


def test_mission_climb_regression(params, pitch_map):
    log = run_mission([(0.0, 0.0, -2.0, 0.0)], params, pitch_map, dt=0.005)
    assert abs(log.final_position[2] + 2.0) < 0.1
    assert np.all(np.abs(log.final_position[:2]) < 0.01)
    assert len(log.capture_times) == 1


def test_mission_deterministic(params, pitch_map):
    a = run_mission([(0.0, 0.0, -2.0, 0.0)], params, pitch_map, dt=0.005)
    b = run_mission([(0.0, 0.0, -2.0, 0.0)], params, pitch_map, dt=0.005)
    assert np.array_equal(a.position, b.position)
    assert np.array_equal(a.cts, b.cts)
    assert np.array_equal(a.thrust, b.thrust)


def test_mission_timeout(params, pitch_map):
    with pytest.raises(MissionTimeout) as info:
        run_mission([(50.0, 0.0, 0.0, 0.0)], params, pitch_map, dt=0.005, timeout=0.5)
    assert info.value.waypoint_index == 0
    assert info.value.remaining_m > 40.0


def test_mission_validation(params, pitch_map):
    with pytest.raises(ConfigError):
        run_mission([], params, pitch_map)
    for dt in (0.0, -0.001, 0.011):
        with pytest.raises(ConfigError, match="dt must lie"):
            run_mission([(0.0, 0.0, 0.0, 0.0)], params, pitch_map, dt=dt)


@pytest.mark.parametrize("spans, match", [
    ({"timeout": 0.005 * (MAX_WAYPOINT_STEPS + 1)}, "timeout / dt = .* cap of"),
    # the hold alone passes the cap: HOLD_TIME / dt steps
    ({"timeout": 0.5 * HOLD_TIME, "dt": 0.9 * HOLD_TIME / MAX_WAYPOINT_STEPS},
     "hold_time / dt = .* cap of"),
    # the quotient overflows to inf
    ({"timeout": 1e308, "dt": 1e-9}, "timeout / dt = .* cap of"),
    ({"timeout": math.inf}, "timeout / dt = .* cap of"),
    ({"timeout": math.nan}, "timeout / dt = .* cap of"),
    # once flew one step and then timed out "after -5 s"
    ({"timeout": -5.0}, "timeout must be positive, got -5.0"),
    ({"timeout": 0.0}, "timeout must be positive, got 0.0"),
], ids=["timeout", "hold", "overflow", "inf", "nan", "negative", "zero"])
def test_mission_step_cap(params, pitch_map, spans, match):
    """A span past the per-waypoint step cap, or a timeout that is not
    positive, is refused before the first step, so the mission never
    starts."""
    with pytest.raises(ConfigError, match=match):
        run_mission([(1e9, 0.0, 0.0, 0.0)], params, pitch_map, **spans)


@pytest.mark.parametrize("waypoint", [
    (0.0, 0.0, -2.0),
    (0.0, 0.0, -2.0, math.inf),
    (math.nan, 0.0, 0.0, 0.0),
    (math.inf, 0.0, 0.0, 0.0),
    (0.0, 0.0, -2.0, math.nan),
    (0.0, 0.0, -2.0, 0.0, 9.0),
], ids=["short", "inf-yaw", "nan-x", "inf-x", "nan-yaw", "long"])
def test_mission_refuses_malformed_waypoints(params, pitch_map, waypoint):
    """Each waypoint must be 4 finite numbers, as the CLI's schema asks; the
    refusal names the waypoint before the first step, instead of an
    IndexError, a math domain error, a blamed control command or a dropped
    entry."""
    waypoints = [(0.0, 0.0, -1.0, 0.0), waypoint]
    with pytest.raises(ConfigError, match=r"waypoint 1 must be 4 finite numbers"
                       r" \(x, y, z, yaw\), got \("):
        run_mission(waypoints, params, pitch_map)


def test_mission_far_finite_waypoint_times_out(params, pitch_map):
    """A huge but finite waypoint is flown, and is not captured in time."""
    with pytest.raises(MissionTimeout):
        run_mission([(1e300, 0.0, 0.0, 0.0)], params, pitch_map, timeout=0.5)


def test_mission_with_pitch_map(params, pitch_map):
    log = run_mission([(0.0, 0.0, 0.0, 0.0)], params, pitch_map, dt=0.005)
    lo, hi = pitch_map.ct_range
    assert np.all(log.cts >= lo - 1e-15)
    assert np.all(log.cts <= hi + 1e-15)
    assert np.all(np.isfinite(log.pitches))
    assert np.all(log.pitches >= pitch_map.collectives[0] - 1e-12)
    assert np.all(log.pitches <= pitch_map.collectives[-1] + 1e-12)


def test_mission_log_csv(params, pitch_map):
    log = run_mission([(0.0, 0.0, 0.0, 0.0)], params, pitch_map, dt=0.005)
    lines = log.csv_lines()
    assert lines[0] == MissionLog.CSV_HEADER
    assert len(lines) == log.time.size + 1
    assert all(len(line.split(",")) == 19 for line in lines)


def test_mission_calls_each_public_step_function_once_per_step(params, pitch_map,
                                                               monkeypatch):
    """The benchmark's tracer counts the simulator's work by replacing these
    four attributes with wrappers, so a mission that stepped around them
    would read zero calls there.  The reference square logs 3,398 steps."""
    calls = {}
    for owner, name in ((flightsim, "step_dynamics"), (flightsim, "allocate"),
                        (PositionController, "update"),
                        (AttitudeController, "update")):
        key = f"{owner.__name__}.{name}"
        calls[key] = 0

        def wrapper(*args, _original=getattr(owner, name), _key=key, **kwargs):
            calls[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)
    square = [(x, y, z, math.radians(yaw))
              for x, y, z, yaw in presets.MISSION_WAYPOINTS]
    log = run_mission(square, params, pitch_map)
    assert log.time.size == 3398
    assert calls == dict.fromkeys(calls, 3398)
