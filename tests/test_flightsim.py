"""Quadrotor simulator: mixing algebra, controllers, dynamics, missions.

The allocation is checked as an exact inverse of the forward mixing,
the controllers against hand-evaluated PID arithmetic, the integrator
against closed-form free fall and torque-free momentum conservation,
and missions for determinism and terminal accuracy.
"""

import math

import numpy as np
import pytest

from designkit.constants import G
from designkit.errors import ConfigError, MissionTimeout, SimulationAbort
from designkit.flightsim import (DEFAULT_GAINS, MAX_WAYPOINT_STEPS,
                                 AttitudeController, ControlCommand, GainSet,
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
        default_params(mass=-1.0)
    with pytest.raises(ConfigError):
        VehicleParams(mass=18.5, inertia=(2.4, 1.7, 4.1), arm_length=0.5,
                      k_f=0.0, rotor_radius=0.38)
    # the hover trim is derived, in the order the old field was filled
    assert params.ct_hover == params.mass * params.gravity / (4.0 * params.k_f)


def test_state_pack_round_trip():
    state = VehicleState(np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0]),
                        np.array([0.1, 0.2, 0.3]), np.array([7.0, 8.0, 9.0]))
    clone = VehicleState.unpack(state.pack())
    assert np.array_equal(clone.position, state.position)
    assert np.array_equal(clone.rates, state.rates)
    copy = state.copy()
    copy.position[0] = -1.0
    assert state.position[0] == 1.0                  # deep enough copy


# ---------------------------------------------------------------------------
# controllers

def test_attitude_pid_arithmetic():
    state = VehicleState(euler=np.array([0.1, -0.05, 0.2]))
    dt = 0.005
    moments = AttitudeController().update(state, np.zeros(3), dt)
    g = DEFAULT_GAINS
    expected = -(np.asarray(g.att_p) * state.euler
                 + np.asarray(g.att_i) * (state.euler * dt))
    assert np.allclose(moments, expected, rtol=1e-14, atol=0.0)


def test_attitude_pid_damps_rates():
    state = VehicleState(rates=np.array([0.3, -0.2, 0.1]))
    moments = AttitudeController().update(state, np.zeros(3), 0.005)
    # at zero attitude the rate map is the identity: pure -Kd * omega
    assert np.allclose(moments, -np.asarray(DEFAULT_GAINS.att_d) * state.rates,
                       rtol=1e-14, atol=0.0)


def test_attitude_integrator_clamps():
    ctrl = AttitudeController()
    state = VehicleState(euler=np.array([2.0, 0.0, 0.0]))
    for _ in range(1000):
        ctrl.update(state, np.zeros(3), 0.005)
    assert ctrl.integral[0] == DEFAULT_GAINS.att_integrator_limit
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
    """A feedforward that cancels gravity zeroes the demanded specific
    force; the controller falls back to hover thrust and says so."""
    ctrl = PositionController(params=params)
    thrust, phi_d, theta_d = ctrl.update(
        VehicleState(), np.zeros(3), 0.0, 0.005,
        accel_feedforward=(0.0, 0.0, params.gravity))
    assert ctrl.thrust_clamped
    assert thrust == params.hover_thrust
    assert phi_d == 0.0 and theta_d == 0.0
    assert not ctrl.tilt_limited


def test_gain_validation():
    with pytest.raises(ConfigError):
        GainSet(att_p=(86.0, -1.0, 37.0))
    with pytest.raises(ConfigError):
        GainSet(pos_integrator_limit=0.0)


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
    assert state.position[2] == pytest.approx(0.5 * params.gravity * t * t,
                                              rel=1e-12)
    assert state.velocity[2] == pytest.approx(params.gravity * t, rel=1e-12)
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



def test_mission_abort_carries_time():
    initial = VehicleState(euler=np.array([0.0, 1.47, 0.0]),
                           rates=np.array([0.0, 5.0, 0.0]))
    with pytest.raises(SimulationAbort) as info:
        run_mission([(0.0, 0.0, 0.0, 0.0)], dt=0.005, initial_state=initial)
    assert info.value.t == pytest.approx(0.005, abs=1e-12)


# ---------------------------------------------------------------------------
# missions

def test_mission_immediate_capture_and_settle():
    log = run_mission([(0.0, 0.0, 0.0, 0.0)], dt=0.005, hold_time=1.0)
    assert len(log.capture_times) == 1
    assert log.capture_times[0] == pytest.approx(0.005, abs=1e-12)
    assert log.time.size == pytest.approx(201, abs=2)
    assert np.array_equal(log.final_position, log.position[-1])
    assert np.all(np.abs(log.final_position) < 1e-3)


def test_mission_climb_regression():
    log = run_mission([(0.0, 0.0, -2.0, 0.0)], dt=0.005)
    assert abs(log.final_position[2] + 2.0) < 0.1
    assert np.all(np.abs(log.final_position[:2]) < 0.01)
    assert len(log.capture_times) == 1


def test_mission_deterministic():
    a = run_mission([(0.0, 0.0, -2.0, 0.0)], dt=0.005)
    b = run_mission([(0.0, 0.0, -2.0, 0.0)], dt=0.005)
    assert np.array_equal(a.position, b.position)
    assert np.array_equal(a.cts, b.cts)
    assert np.array_equal(a.thrust, b.thrust)


def test_mission_timeout():
    with pytest.raises(MissionTimeout) as info:
        run_mission([(50.0, 0.0, 0.0, 0.0)], dt=0.005, timeout=0.5)
    assert info.value.waypoint_index == 0
    assert info.value.remaining_m > 40.0


def test_mission_validation():
    with pytest.raises(ConfigError):
        run_mission([])
    for dt in (0.0, -0.001, 0.011):
        with pytest.raises(ConfigError, match="dt must lie"):
            run_mission([(0.0, 0.0, 0.0, 0.0)], dt=dt)


@pytest.mark.parametrize("spans", [
    {"timeout": 0.005 * (MAX_WAYPOINT_STEPS + 1)},
    {"hold_time": 0.005 * (MAX_WAYPOINT_STEPS + 1)},
    {"timeout": 1e308, "dt": 1e-9},      # the quotient overflows to inf
    {"timeout": math.inf},
    {"hold_time": math.nan},
], ids=["timeout", "hold", "overflow", "inf", "nan"])
def test_mission_step_cap(spans):
    """A span past the per-waypoint step cap is refused before the first
    step, so the mission never starts."""
    with pytest.raises(ConfigError, match="cap of"):
        run_mission([(1e9, 0.0, 0.0, 0.0)], **spans)


def test_mission_initial_state_untouched():
    initial = VehicleState(position=np.array([0.05, 0.0, 0.0]))
    run_mission([(0.0, 0.0, 0.0, 0.0)], initial_state=initial, dt=0.005)
    assert np.array_equal(initial.position, np.array([0.05, 0.0, 0.0]))


def test_mission_with_pitch_map(pitch_map):
    log = run_mission([(0.0, 0.0, 0.0, 0.0)], dt=0.005, pitch_map=pitch_map)
    lo, hi = pitch_map.ct_range
    assert np.all(log.cts >= lo - 1e-15)
    assert np.all(log.cts <= hi + 1e-15)
    assert np.all(np.isfinite(log.pitches))
    assert np.all(log.pitches >= pitch_map.collectives[0] - 1e-12)
    assert np.all(log.pitches <= pitch_map.collectives[-1] + 1e-12)


def test_mission_log_csv():
    log = run_mission([(0.0, 0.0, 0.0, 0.0)], dt=0.005)
    lines = log.csv_lines()
    assert lines[0] == MissionLog.CSV_HEADER
    assert len(lines) == log.time.size + 1
    assert all(len(line.split(",")) == 19 for line in lines)
