"""The float simulator against the NumPy one it replaced.

``flightsim`` steps the rigid body, the PID loops and the mixing in
plain Python floats.  The NumPy versions below, the ZYX rotation and
Euler-rate matrices included, are kept verbatim as the oracle; the two
matrices are checked on their own first.  One ``step_dynamics`` must
match to 1e-12 per state component
(relative, absolute near zero), the gimbal abort must fire on the same
inputs, and missions must take the same steps and capture times with
position, attitude, C_T, thrust and pitch within 1e-12.

The float step and mission loop as they stood while the state was three
arrays per step are kept verbatim too, as a second oracle: every array of
a mission log, and its capture times, must match it bit for bit.
"""

import math
import random
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from designkit import flightsim, presets
from designkit.constants import G
from designkit.errors import SimulationAbort
from designkit.flightsim import (GIMBAL_LIMIT, HOLD_TIME,
                                 AttitudeController, ControlCommand,
                                 MissionLog, PitchMap, PositionController,
                                 VehicleState, _check_dt,
                                 allocate, default_params, mixing_forward,
                                 run_mission, step_dynamics)

TOL = 1e-12
SPIN = np.array([-1.0, 1.0, -1.0, 1.0])


# ---------------------------------------------------------------------------
# the NumPy reference, as it stood before the float rewrite

def rotation_matrix(euler):
    """Body-to-world rotation for ZYX Euler angles."""
    phi, theta, psi = euler
    cph, sph = math.cos(phi), math.sin(phi)
    cth, sth = math.cos(theta), math.sin(theta)
    cps, sps = math.cos(psi), math.sin(psi)
    return np.array([
        [cth * cps, sph * sth * cps - cph * sps, cph * sth * cps + sph * sps],
        [cth * sps, sph * sth * sps + cph * cps, cph * sth * sps - sph * cps],
        [-sth, sph * cth, cph * cth],
    ])


def euler_rate_matrix(euler):
    """Maps body rates to Euler-angle rates; singular at |theta| = 90 deg."""
    phi, theta, _ = euler
    cph, sph = math.cos(phi), math.sin(phi)
    cth, tth = math.cos(theta), math.tan(theta)
    return np.array([
        [1.0, sph * tth, cph * tth],
        [0.0, cph, -sph],
        [0.0, sph / cth, cph / cth],
    ])


def reference_mixing_forward(cts, params, exact_yaw=False):
    """(T, l, m, n) produced by the given thrust coefficients."""
    p = params
    cts = np.asarray(cts, dtype=float)
    thrust = p.k_f * cts.sum()
    l = p.k_f * p.arm_length * (-cts[0] - cts[1] + cts[2] + cts[3])
    m = p.k_f * p.arm_length * (cts[0] - cts[1] - cts[2] + cts[3])
    if exact_yaw:
        n = p.k_f * p.rotor_radius / math.sqrt(2.0) * float(
            np.sum(SPIN * np.sign(cts) * np.abs(cts) ** 1.5))
    else:
        n = p.yaw_gain * float(np.sum(SPIN * cts))
    return thrust, l, m, n


def _derivatives(vec, cts, params):
    p = params
    state = VehicleState.unpack(vec)
    thrust, l, m, n = mixing_forward(cts, p, exact_yaw=True)
    r_bw = rotation_matrix(state.euler)
    accel = np.array([0.0, 0.0, G]) \
        - (thrust / p.mass) * r_bw[:, 2]
    inertia = np.asarray(p.inertia)
    omega = state.rates
    moments = np.array([l, m, n])
    omega_dot = (moments - np.cross(omega, inertia * omega)) / inertia
    euler_dot = euler_rate_matrix(state.euler) @ omega
    return np.concatenate([state.velocity, accel, euler_dot, omega_dot])


def reference_step(state, cts, params, dt):
    cts = np.asarray(cts, dtype=float)
    vec = state.pack()
    k1 = _derivatives(vec, cts, params)
    k2 = _derivatives(vec + 0.5 * dt * k1, cts, params)
    k3 = _derivatives(vec + 0.5 * dt * k2, cts, params)
    k4 = _derivatives(vec + dt * k3, cts, params)
    new = vec + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    out = VehicleState.unpack(new)
    if abs(out.euler[1]) > GIMBAL_LIMIT:
        raise SimulationAbort(
            f"pitch {math.degrees(out.euler[1]):.1f} deg beyond the "
            f"{math.degrees(GIMBAL_LIMIT):.0f} deg Euler limit")
    return out


class ReferenceAttitude(AttitudeController):
    def __init__(self):
        super().__init__()
        self.integral = np.zeros(3)

    def update(self, state, euler_desired, dt):
        error = state.euler - np.asarray(euler_desired, dtype=float)
        self.integral += error * dt
        np.clip(self.integral, -flightsim.ATT_INTEGRATOR_LIMIT,
                flightsim.ATT_INTEGRATOR_LIMIT, out=self.integral)
        euler_rates = euler_rate_matrix(state.euler) @ state.rates
        moments = (-np.asarray(flightsim.ATT_P) * error
                   - np.asarray(flightsim.ATT_I) * self.integral
                   - np.asarray(flightsim.ATT_D) * euler_rates)
        return moments


class ReferencePosition(PositionController):
    def __init__(self, params):
        super().__init__(params)
        self.integral = np.zeros(3)

    def update(self, state, position_desired, yaw_desired, dt):
        p = self.params
        error = state.position - np.asarray(position_desired, dtype=float)
        self.integral += error * dt
        np.clip(self.integral, -flightsim.POS_INTEGRATOR_LIMIT,
                flightsim.POS_INTEGRATOR_LIMIT, out=self.integral)
        accel_fb = (-np.asarray(flightsim.POS_P) * error
                    - np.asarray(flightsim.POS_I) * self.integral
                    - np.asarray(flightsim.POS_D) * state.velocity)
        # demanded specific force: desired accel minus gravity (z down)
        accel = np.zeros(3) + accel_fb - np.array([0.0, 0.0, G])
        thrust = p.mass * float(np.linalg.norm(accel))
        self.thrust_clamped = False
        if thrust <= 0.0:
            thrust = p.hover_thrust
            self.thrust_clamped = True
            u = np.array([0.0, 0.0, 1.0])
        else:
            u = -p.mass * accel / thrust

        cps, sps = math.cos(yaw_desired), math.sin(yaw_desired)
        self.tilt_limited = False
        s_phi = u[0] * sps - u[1] * cps
        if abs(s_phi) > 1.0:
            s_phi = math.copysign(1.0, s_phi)
            self.tilt_limited = True
        phi_d = math.asin(s_phi)
        s_theta = (u[0] * cps + u[1] * sps) / math.cos(phi_d)
        if abs(s_theta) > 1.0:
            s_theta = math.copysign(1.0, s_theta)
            self.tilt_limited = True
        theta_d = math.asin(s_theta)
        return thrust, phi_d, theta_d


def reference_mission(waypoints, params, pitch_map, dt=0.005,
                      capture_radius=0.1, hold_time=1.0):
    """The old ``run_mission`` loop (no timeout) on the reference parts."""
    state = VehicleState()
    att = ReferenceAttitude()
    pos = ReferencePosition(params=params)
    ct_lo, ct_hi = pitch_map.ct_range
    rows = {k: [] for k in ("pos", "eul", "T", "ct", "th")}
    capture_times = []
    t = 0.0
    wp_index = 0
    settle = None
    while True:
        target = waypoints[wp_index]
        thrust, phi_d, theta_d = pos.update(state, target[:3], target[3], dt)
        euler_d = np.array([phi_d, theta_d, target[3]])
        moments = att.update(state, euler_d, dt)
        cts = allocate(ControlCommand(thrust, tuple(moments)), params)
        cts = np.clip(cts, max(ct_lo, 0.0), ct_hi)
        pitches = np.array([pitch_map.pitch(c)[0] for c in cts])
        rows["pos"].append(state.position.copy())
        rows["eul"].append(state.euler.copy())
        rows["T"].append(thrust)
        rows["ct"].append(cts.copy())
        rows["th"].append(pitches)
        state = reference_step(state, cts, params, dt)
        t += dt
        distance = float(np.linalg.norm(state.position - np.array(target[:3])))
        if settle is None:
            if distance <= capture_radius:
                capture_times.append(t)
                if wp_index + 1 < len(waypoints):
                    wp_index += 1
                else:
                    settle = hold_time
        else:
            settle -= dt
            if settle <= 0.0:
                break
    return {k: np.array(v) for k, v in rows.items()}, tuple(capture_times)


def reference_csv_lines(log):
    lines = [log.CSV_HEADER]
    for i in range(log.time.size):
        row = [f"{log.time[i]:.4f}"]
        row += [f"{v:.6g}" for v in log.position[i]]
        row += [f"{v:.6g}" for v in log.euler[i]]
        row.append(f"{log.thrust[i]:.6g}")
        row += [f"{v:.6g}" for v in log.moments[i]]
        row += [f"{v:.6g}" for v in log.cts[i]]
        row += [f"{v:.6g}" for v in log.pitches[i]]
        lines.append(",".join(row))
    return lines


# ---------------------------------------------------------------------------
# the float step and loop, as they stood while the state was arrays

def _euler_rates(phi, theta, p, q, r):
    """Euler-angle rates (phi, theta, psi) from the body rates (p, q, r);
    singular at |theta| = 90 deg."""
    cph, sph = math.cos(phi), math.sin(phi)
    cth, tth = math.cos(theta), math.tan(theta)
    return (p + sph * tth * q + cph * tth * r,
            cph * q - sph * r,
            sph / cth * q + cph / cth * r)


def _pid(integral, errors, rates, gains_p, gains_i, gains_d, limit, dt):
    """Per-axis -(P e + I int(e) + D rate) in floats.  ``integral`` is
    advanced in place and clamped to +-limit."""
    out = []
    for axis, (error, rate) in enumerate(zip(errors, rates)):
        total = min(max(integral[axis] + error * dt, -limit), limit)
        integral[axis] = total
        out.append(-gains_p[axis] * error - gains_i[axis] * total
                   - gains_d[axis] * rate)
    return out


@dataclass
class ArrayState:
    position: np.ndarray = field(default_factory=lambda: np.zeros(3))
    velocity: np.ndarray = field(default_factory=lambda: np.zeros(3))
    euler: np.ndarray = field(default_factory=lambda: np.zeros(3))
    rates: np.ndarray = field(default_factory=lambda: np.zeros(3))  # body

    def pack(self):
        return np.concatenate([self.position, self.velocity,
                               self.euler, self.rates])

    @classmethod
    def unpack(cls, vec):
        return cls(vec[0:3].copy(), vec[3:6].copy(),
                   vec[6:9].copy(), vec[9:12].copy())


class ArrayAttitude(AttitudeController):
    def update(self, state, euler_desired, dt):
        euler = state.euler.tolist()
        error = [a - float(d) for a, d in zip(euler, euler_desired)]
        euler_rates = _euler_rates(euler[0], euler[1], *state.rates.tolist())
        return np.array(_pid(self.integral, error, euler_rates, flightsim.ATT_P,
                             flightsim.ATT_I, flightsim.ATT_D,
                             flightsim.ATT_INTEGRATOR_LIMIT, dt))


class ArrayPosition(PositionController):
    def update(self, state, position_desired, yaw_desired, dt):
        p = self.params
        error = [x - float(d)
                 for x, d in zip(state.position.tolist(), position_desired)]
        # 0.0 + turns the PID's -0.0 at rest into +0.0, the sign of zero
        # that the tilt commands, and so the logged trajectory, carry
        accel = [0.0 + a for a in _pid(self.integral, error, state.velocity.tolist(),
                                       flightsim.POS_P, flightsim.POS_I, flightsim.POS_D,
                                       flightsim.POS_INTEGRATOR_LIMIT, dt)]
        # demanded specific force: desired accel minus gravity (z down)
        accel[2] -= G
        thrust = p.mass * math.hypot(*accel)
        self.thrust_clamped = False
        if thrust <= 0.0:
            thrust = p.hover_thrust
            self.thrust_clamped = True
            u = (0.0, 0.0, 1.0)
        else:
            u = [-p.mass * a / thrust for a in accel]

        cps, sps = math.cos(yaw_desired), math.sin(yaw_desired)
        self.tilt_limited = False
        s_phi = u[0] * sps - u[1] * cps
        if abs(s_phi) > 1.0:
            s_phi = math.copysign(1.0, s_phi)
            self.tilt_limited = True
        phi_d = math.asin(s_phi)
        s_theta = (u[0] * cps + u[1] * sps) / math.cos(phi_d)
        if abs(s_theta) > 1.0:
            s_theta = math.copysign(1.0, s_theta)
            self.tilt_limited = True
        theta_d = math.asin(s_theta)
        return thrust, phi_d, theta_d


def array_allocate(command, params):
    p = params
    l, m, n = command.moments
    a = command.thrust / p.k_f
    b = l / (p.k_f * p.arm_length)
    c = m / (p.k_f * p.arm_length)
    d = n / p.yaw_gain
    return 0.25 * np.array([
        a - b + c - d,
        a - b - c + d,
        a + b - c - d,
        a + b + c + d,
    ])


def array_mixing_forward(cts, params, exact_yaw=False):
    p = params
    cts = np.asarray(cts, dtype=float)
    c1, c2, c3, c4 = cts.tolist()
    thrust = p.k_f * (c1 + c2 + c3 + c4)
    l = p.k_f * p.arm_length * (-c1 - c2 + c3 + c4)
    m = p.k_f * p.arm_length * (c1 - c2 - c3 + c4)
    if exact_yaw:
        t1, t2, t3, t4 = (np.sign(cts) * np.abs(cts) ** 1.5).tolist()
        n = p.k_f * p.rotor_radius / math.sqrt(2.0) * (-t1 + t2 - t3 + t4)
    else:
        n = p.yaw_gain * (-c1 + c2 - c3 + c4)
    return thrust, l, m, n


def array_derivatives(x, wrench, params):
    p = params
    thrust, l, m, n = wrench
    phi, theta, psi, wx, wy, wz = x[6:]
    cph, sph = math.cos(phi), math.sin(phi)
    cth, sth = math.cos(theta), math.sin(theta)
    cps, sps = math.cos(psi), math.sin(psi)
    f = thrust / p.mass
    ix, iy, iz = p.inertia
    hx, hy, hz = ix * wx, iy * wy, iz * wz
    return (x[3], x[4], x[5],
            # gravity minus thrust along body z, the third column of the
            # ZYX body-to-world rotation
            0.0 - f * (cph * sth * cps + sph * sps),
            0.0 - f * (cph * sth * sps - sph * cps),
            G - f * (cph * cth),
            *_euler_rates(phi, theta, wx, wy, wz),
            # Euler's equations, (M - omega x I omega) / I
            (l - (wy * hz - wz * hy)) / ix,
            (m - (wz * hx - wx * hz)) / iy,
            (n - (wx * hy - wy * hx)) / iz)


def array_step(state, cts, params, dt):
    _check_dt(dt)
    wrench = array_mixing_forward(cts, params, exact_yaw=True)
    x = state.pack().tolist()
    half = 0.5 * dt
    k1 = array_derivatives(x, wrench, params)
    k2 = array_derivatives([a + half * b for a, b in zip(x, k1)], wrench, params)
    k3 = array_derivatives([a + half * b for a, b in zip(x, k2)], wrench, params)
    k4 = array_derivatives([a + dt * b for a, b in zip(x, k3)], wrench, params)
    sixth = dt / 6.0
    new = [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
           for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]
    if abs(new[7]) > GIMBAL_LIMIT:
        raise SimulationAbort(
            f"pitch {math.degrees(new[7]):.1f} deg beyond the "
            f"{math.degrees(GIMBAL_LIMIT):.0f} deg Euler limit")
    return ArrayState.unpack(np.array(new))


def array_mission(waypoints, params, pitch_map, dt=presets.MISSION_DT,
                  capture_radius=presets.MISSION_CAPTURE_RADIUS,
                  timeout=presets.MISSION_TIMEOUT):
    """The old ``run_mission`` loop on the array state; its up-front
    refusals are left out."""
    waypoints = [tuple(map(float, w)) for w in waypoints]
    state = ArrayState()

    att = ArrayAttitude()
    pos = ArrayPosition(params)
    ct_lo, ct_hi = pitch_map.ct_range

    rows = {k: [] for k in ("time", "position", "euler", "euler_desired", "thrust",
                            "moments", "cts", "pitches")}
    capture_times = []
    t = 0.0
    wp_index = 0
    wp_clock = 0.0
    settle = None
    while True:
        target = waypoints[wp_index]
        thrust, phi_d, theta_d = pos.update(state, target[:3], target[3], dt)
        euler_d = (phi_d, theta_d, target[3])
        moments = att.update(state, euler_d, dt)
        cts = array_allocate(ControlCommand(thrust, tuple(moments.tolist())), params)
        cts = np.clip(cts, max(ct_lo, 0.0), ct_hi)
        # PitchMap.pitch of all four: cts already lie in ct_range
        pitches = np.interp(cts, pitch_map.cts, pitch_map.collectives)

        # step_dynamics returns fresh arrays, so the log needs no copies
        rows["time"].append(t)
        rows["position"].append(state.position)
        rows["euler"].append(state.euler)
        rows["euler_desired"].append(euler_d)
        rows["thrust"].append(thrust)
        rows["moments"].append(moments)
        rows["cts"].append(cts)
        rows["pitches"].append(pitches)

        try:
            state = array_step(state, cts, params, dt)
        except SimulationAbort as exc:
            exc.t = t + dt
            raise
        t += dt
        wp_clock += dt

        distance = math.dist(state.position, target[:3])
        if settle is None:
            if distance <= capture_radius:
                capture_times.append(t)
                if wp_index + 1 < len(waypoints):
                    wp_index += 1
                    wp_clock = 0.0
                else:
                    settle = HOLD_TIME
            elif wp_clock > timeout:
                raise AssertionError(f"waypoint {wp_index} not captured")
        else:
            settle -= dt
            if settle <= 0.0:
                break

    return MissionLog(**{k: np.array(v) for k, v in rows.items()},
                      capture_times=tuple(capture_times))


# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def params():
    return default_params()


@pytest.fixture(scope="module")
def pitch_map(final_rotor, sc1095):
    return PitchMap.from_rotor(final_rotor, sc1095)


def assert_close(got, want, tol=TOL):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert np.all(np.abs(got - want) <= tol * np.maximum(np.abs(want), 1.0))


def span(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def triple(lo, hi):
    return st.tuples(span(lo, hi), span(lo, hi), span(lo, hi))


quad_cts = st.tuples(*[span(-0.01, 0.03)] * 4)
time_steps = st.floats(0.0, 0.01, exclude_min=True)
LEVEL = math.radians(80.0)


def test_rotation_matrix_orthonormal():
    rng = np.random.default_rng(7)
    for _ in range(10):
        r = rotation_matrix(rng.uniform(-1.2, 1.2, 3))
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-14)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(rotation_matrix(np.zeros(3)), np.eye(3), atol=1e-15)
    # pure yaw of 90 degrees carries body-x onto world-y
    r = rotation_matrix(np.array([0.0, 0.0, math.pi / 2]))
    assert np.allclose(r @ [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], atol=1e-12)
    # positive pitch tilts body-z forward in world-x
    r = rotation_matrix(np.array([0.0, 0.3, 0.0]))
    assert np.allclose(r @ [0.0, 0.0, 1.0],
                       [math.sin(0.3), 0.0, math.cos(0.3)], atol=1e-14)


def test_euler_rate_matrix():
    assert np.array_equal(euler_rate_matrix(np.zeros(3)), np.eye(3))
    euler = np.array([0.3, 0.4, 0.0])
    w = euler_rate_matrix(euler)
    assert w[0, 1] == pytest.approx(math.sin(0.3) * math.tan(0.4), rel=1e-15)
    assert w[2, 2] == pytest.approx(math.cos(0.3) / math.cos(0.4), rel=1e-15)


@settings(max_examples=300, deadline=None)
@given(position=triple(-100.0, 100.0), velocity=triple(-20.0, 20.0),
       phi=span(-math.pi, math.pi), theta=span(-LEVEL, LEVEL),
       psi=span(-math.pi, math.pi), rates=triple(-5.0, 5.0),
       cts=quad_cts, dt=time_steps)
def test_step_matches_numpy_reference(params, position, velocity, phi, theta,
                                      psi, rates, cts, dt):
    state = VehicleState(np.array(position), np.array(velocity),
                         np.array([phi, theta, psi]), np.array(rates))
    got = step_dynamics(state, np.array(cts), params, dt)
    want = reference_step(state, np.array(cts), params, dt)
    assert_close(got.pack(), want.pack())


@settings(max_examples=200, deadline=None)
@given(theta=span(1.35, 1.5), rates=triple(-5.0, 5.0), cts=quad_cts,
       dt=time_steps)
@example(theta=1.47, rates=(0.0, 5.0, 0.0), cts=(0.0,) * 4, dt=0.01)
@example(theta=1.40, rates=(0.0, 0.0, 0.0), cts=(0.0,) * 4, dt=0.01)
def test_gimbal_abort_matches_reference(params, theta, rates, cts, dt):
    state = VehicleState(euler=np.array([0.1, theta, -0.2]),
                         rates=np.array(rates))

    def outcome(step):
        try:
            return "step", step(state, np.array(cts), params, dt).pack()
        except SimulationAbort as exc:
            return "abort", str(exc)

    (kind, got), (want_kind, want) = outcome(step_dynamics), \
        outcome(reference_step)
    assert kind == want_kind
    if kind == "abort":
        assert got == want
    else:
        assert_close(got, want)


def test_mixing_forward_is_bit_identical(params):
    rng = np.random.default_rng(5)
    cases = list(rng.uniform(-0.01, 0.03, (500, 4)))
    cases += [np.zeros(4), np.array([0.0, -0.0, 1e-300, -1e-300])]
    for cts in cases:
        for exact_yaw in (False, True):
            got = mixing_forward(cts, params, exact_yaw=exact_yaw)
            want = reference_mixing_forward(cts, params, exact_yaw=exact_yaw)
            assert got == tuple(map(float, want))


def test_controllers_match_reference(params):
    """Five updates in a row (integrators carried, some clamped) from
    random states toward random targets."""
    rng = np.random.default_rng(9)
    for _ in range(200):
        att, ref_att = AttitudeController(), ReferenceAttitude()
        pos, ref_pos = (PositionController(params=params),
                        ReferencePosition(params=params))
        target = rng.uniform(-50.0, 50.0, 3)
        yaw = rng.uniform(-math.pi, math.pi)
        for _ in range(5):
            state = VehicleState(rng.uniform(-50.0, 50.0, 3),
                                 rng.uniform(-10.0, 10.0, 3),
                                 rng.uniform(-1.2, 1.2, 3),
                                 rng.uniform(-5.0, 5.0, 3))
            dt = rng.uniform(0.001, 0.5)
            got = pos.update(state, target, yaw, dt)
            want = ref_pos.update(state, target, yaw, dt)
            assert_close(got, want)
            assert (pos.tilt_limited, pos.thrust_clamped) == \
                (ref_pos.tilt_limited, ref_pos.thrust_clamped)
            euler_d = (got[1], got[2], yaw)
            assert_close(att.update(state, euler_d, dt),
                         ref_att.update(state, euler_d, dt))
            assert_close(pos.integral, ref_pos.integral)
            assert_close(att.integral, ref_att.integral)


@pytest.mark.parametrize("waypoints", [
    [(0.0, 0.0, -2.0, 0.0)],
    # a climb, then a sidestep with a yaw turn: four different C_T per step
    [(0.0, 0.0, -1.0, 0.0), (0.5, -0.5, -1.0, 0.3)],
], ids=["climb", "sidestep"])
def test_mission_matches_reference(params, pitch_map, waypoints):
    log = run_mission(waypoints, params=params, pitch_map=pitch_map)
    rows, capture_times = reference_mission(waypoints, params, pitch_map)
    assert log.time.size == rows["T"].size
    assert log.capture_times == capture_times
    for got, want in ((log.position, rows["pos"]), (log.euler, rows["eul"]),
                      (log.cts, rows["ct"]), (log.thrust, rows["T"]),
                      (log.pitches, rows["th"])):
        assert np.max(np.abs(got - want)) <= TOL
    assert log.csv_lines() == reference_csv_lines(log)


def turned(waypoints, seed):
    """The waypoints turned about the start point, as the benchmark's
    ``mission`` workload turns them for a seed."""
    turn = math.radians(random.Random(seed).uniform(-180.0, 180.0))
    c, s = math.cos(turn), math.sin(turn)
    return [(round(c * x - s * y, 9), round(s * x + c * y, 9), z, yaw)
            for x, y, z, yaw in waypoints]


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


SQUARE = [(x, y, z, math.radians(yaw)) for x, y, z, yaw in presets.MISSION_WAYPOINTS]


@pytest.mark.parametrize("waypoints", [
    SQUARE,
    # reaches both ends of the pitch map
    [(0.0, 0.0, -1.0, 0.0), (0.5, -0.5, -1.0, 0.3)],
    turned(SQUARE, 17),
], ids=["square", "sidestep", "square-turned-17"])
def test_mission_bits_match_array_loop(params, pitch_map, waypoints):
    """The float-state loop logs the very bits of the array-state loop, and
    each collective is ``PitchMap.pitch`` of its logged C_T."""
    log = run_mission(waypoints, params=params, pitch_map=pitch_map)
    want = array_mission(waypoints, params, pitch_map)
    for name in ("time", "position", "euler", "euler_desired", "thrust",
                 "moments", "cts", "pitches"):
        assert same_bits(getattr(log, name), getattr(want, name)), name
    assert log.capture_times == want.capture_times
    pitches = [[pitch_map.pitch(c)[0] for c in row] for row in log.cts.tolist()]
    assert same_bits(log.pitches, pitches)
