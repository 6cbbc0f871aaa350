"""Hover-regime simulator for the variable-pitch quadrotor.

World frame is north-east-down (z positive down); attitude is ZYX Euler
(yaw-pitch-roll).  Rotors sit at the corners of a square of half-side
``arm_length``:

    1: (+l, +l)   2: (-l, +l)   3: (-l, -l)   4: (+l, -l)

with spin directions (-, +, -, +) so adjacent rotors counter-rotate.
Thrust per rotor is K_F * C_T; reaction torque follows the 3/2-power
law in C_T.  Control allocation linearizes that law about hover, and
every mission flies the blade-pitch map the rotor solver builds.
A mission steps one list of 12 plain floats (``VehicleState.x``) from
the first step to the log: the PID loops, the C_T clip and the RK4
rigid-body step read and write floats, and the collectives of every
logged C_T come from one ``np.interp`` after the loop.  Each PID runs
its three axes inline, and each RK4 stage passes ``_derivatives`` only
the nine components it reads (velocity, Euler angles, body rates), which
also forms the Euler rates from its own trig.  Every step still calls
``step_dynamics``, both controllers' ``update`` and ``allocate``.
``tests/test_sim_reference.py`` keeps the NumPy matrix form as their
oracle, and the step and loop that still used arrays per step as a
second one that the logs must match bit for bit.  A mission refuses,
before its first step, a malformed or non-finite waypoint, a timeout
that is not positive, a timeout or hold longer than
``MAX_WAYPOINT_STEPS`` steps, and a capture radius that is not positive
and finite.  The PID gains and the final hold are module constants.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import bemt, presets
from .constants import G, RHO_SL
from .errors import ConfigError, MissionTimeout, SimulationAbort

GIMBAL_LIMIT = math.radians(85.0)
MAX_DT = 0.01   # [s]
# A waypoint may take timeout / dt steps and the final hold HOLD_TIME / dt,
# each logged in full (~1 kB a step).  The default mission takes 4,000 per
# waypoint; the cap turns a tiny dt or a huge timeout into a ConfigError
# up front instead of hours of stepping and gigabytes of log.
MAX_WAYPOINT_STEPS = 100_000
HOLD_TIME = 1.0   # [s] position hold after the last capture

# PID gains per axis: attitude (roll, pitch, yaw), position (x, y, z)
ATT_P = (86.0, 61.0, 37.0)
ATT_I = (2.0, 2.0, 1.0)
ATT_D = (23.0, 16.0, 20.0)
POS_P = (1.44, 1.44, 1.44)
POS_I = (0.05, 0.05, 0.05)
POS_D = (2.16, 2.16, 2.16)
ATT_INTEGRATOR_LIMIT = 0.5
POS_INTEGRATOR_LIMIT = 1.0


# ---------------------------------------------------------------------------
# parameters, state

@dataclass(frozen=True)
class VehicleParams:
    mass: float                      # [kg]
    inertia: tuple                   # (Ixx, Iyy, Izz) [kg m^2]
    arm_length: float                # [m] rotor offset, both axes
    k_f: float                       # [N] thrust per unit C_T
    rotor_radius: float              # [m]

    def __post_init__(self):
        # 3 floats, unpacked as they are by every dynamics step
        inertia = tuple(_floats(self.inertia, 3, "VehicleParams inertia"))
        object.__setattr__(self, "inertia", inertia)
        # each value on its own, so that a NaN fails too
        if not all(v > 0.0 for v in (self.mass, self.arm_length, self.k_f,
                                     self.rotor_radius, *inertia)):
            raise ConfigError("vehicle parameters must be positive")

    @property
    def hover_thrust(self):
        return self.mass * G

    @property
    def ct_hover(self):
        """Per-rotor thrust coefficient that holds the vehicle in hover."""
        return self.hover_thrust / (4.0 * self.k_f)

    @property
    def yaw_gain(self):
        """Moment per unit C_T in the hover-linearized yaw row [N m]."""
        return self.k_f * self.rotor_radius * math.sqrt(self.ct_hover / 2.0)


def default_params(rotor_radius=presets.FINAL_RADIUS):
    """Parameters for the reference vehicle at ``presets.GROSS_MASS``.

    K_F is the thrust nondimensionalization at the sea-level hover tip
    speed, so C_T here is the same coefficient the rotor solver reports.
    Arm length and inertias come from ``presets``.
    """
    tip_speed = presets.HOVER_RPM * math.pi / 30.0 * rotor_radius
    k_f = RHO_SL * math.pi * rotor_radius ** 2 * tip_speed ** 2
    return VehicleParams(mass=presets.GROSS_MASS, inertia=presets.INERTIA,
                         arm_length=presets.ARM_LENGTH, k_f=k_f,
                         rotor_radius=rotor_radius)


class VehicleState:
    """Position and velocity (world, NED), ZYX Euler angles and body rates.

    The state is one list ``x`` of 12 plain floats in that order, which
    ``step_dynamics`` and the controllers read and write without NumPy.
    Each of the four attributes returns a new array, so a write into one
    (``state.position[0] = ...``) is lost: build a new state instead.
    The constructor refuses a part that is not 3 numbers, and
    :meth:`unpack` a vector that is not 12, with a ConfigError.
    """

    __slots__ = ("x",)

    def __init__(self, position=(0.0,) * 3, velocity=(0.0,) * 3,
                 euler=(0.0,) * 3, rates=(0.0,) * 3):
        self.x = []
        for name, part in (("position", position), ("velocity", velocity),
                           ("euler", euler), ("rates", rates)):
            self.x += _floats(part, 3, f"VehicleState {name}")

    @classmethod
    def _of(cls, x):
        """The state held by the 12-float list ``x``, not copied."""
        state = cls.__new__(cls)
        state.x = x
        return state

    position = property(lambda self: np.array(self.x[0:3]))
    velocity = property(lambda self: np.array(self.x[3:6]))
    euler = property(lambda self: np.array(self.x[6:9]))
    rates = property(lambda self: np.array(self.x[9:12]))   # body

    def pack(self):
        return np.array(self.x)

    @classmethod
    def unpack(cls, vec):
        return cls._of(_floats(vec, 12, "VehicleState.unpack vector"))


def _floats(values, n, what):
    """``values`` as a list of ``n`` floats; a ConfigError naming ``what``
    if it is not ``n`` numbers."""
    try:
        out = [float(v) for v in values]
    except (TypeError, ValueError):
        out = None
    if out is None or len(out) != n:
        raise ConfigError(f"{what} must be {n} numbers, got {values!r}")
    return out


@dataclass(frozen=True)
class ControlCommand:
    thrust: float                    # [N]
    moments: tuple                   # (l, m, n) [N m]

    def __post_init__(self):
        if not all(map(math.isfinite, (self.thrust, *self.moments))):
            raise ConfigError("control command must be finite")


# ---------------------------------------------------------------------------
# kinematics

def _euler_rates(phi, theta, p, q, r):
    """Euler-angle rates (phi, theta, psi) from the body rates (p, q, r);
    singular at |theta| = 90 deg."""
    cph, sph = math.cos(phi), math.sin(phi)
    cth, tth = math.cos(theta), math.tan(theta)
    return (p + sph * tth * q + cph * tth * r,
            cph * q - sph * r,
            sph / cth * q + cph / cth * r)


# ---------------------------------------------------------------------------
# controllers

class AttitudeController:
    """PID on Euler-angle error; moments oppose the error."""

    def __init__(self):
        self.integral = [0.0, 0.0, 0.0]

    def update(self, state, euler_desired, dt):
        """Moments (l, m, n) [N m] as a tuple of floats."""
        _, _, _, _, _, _, phi, theta, psi, p, q, r = state.x
        phi_d, theta_d, psi_d = euler_desired
        e_phi, e_theta, e_psi = (phi - float(phi_d), theta - float(theta_d),
                                 psi - float(psi_d))
        rate_phi, rate_theta, rate_psi = _euler_rates(phi, theta, p, q, r)
        i, lim = self.integral, ATT_INTEGRATOR_LIMIT
        i[0] = i_phi = min(max(i[0] + e_phi * dt, -lim), lim)
        i[1] = i_theta = min(max(i[1] + e_theta * dt, -lim), lim)
        i[2] = i_psi = min(max(i[2] + e_psi * dt, -lim), lim)
        return (-ATT_P[0] * e_phi - ATT_I[0] * i_phi - ATT_D[0] * rate_phi,
                -ATT_P[1] * e_theta - ATT_I[1] * i_theta - ATT_D[1] * rate_theta,
                -ATT_P[2] * e_psi - ATT_I[2] * i_psi - ATT_D[2] * rate_psi)


class PositionController:
    """PID position loop producing total thrust and tilt commands."""

    def __init__(self, params):
        self.params = params
        self.integral = [0.0, 0.0, 0.0]
        self.tilt_limited = False
        self.thrust_clamped = False

    def update(self, state, position_desired, yaw_desired, dt):
        p = self.params
        x, y, z, vx, vy, vz = state.x[0:6]
        x_d, y_d, z_d = position_desired
        e_x, e_y, e_z = x - float(x_d), y - float(y_d), z - float(z_d)
        i, lim = self.integral, POS_INTEGRATOR_LIMIT
        i[0] = i_x = min(max(i[0] + e_x * dt, -lim), lim)
        i[1] = i_y = min(max(i[1] + e_y * dt, -lim), lim)
        i[2] = i_z = min(max(i[2] + e_z * dt, -lim), lim)
        # 0.0 + turns the PID's -0.0 at rest into +0.0, the sign of zero
        # that the tilt commands, and so the logged trajectory, carry
        a_x = 0.0 + (-POS_P[0] * e_x - POS_I[0] * i_x - POS_D[0] * vx)
        a_y = 0.0 + (-POS_P[1] * e_y - POS_I[1] * i_y - POS_D[1] * vy)
        # demanded specific force: desired accel minus gravity (z down)
        a_z = 0.0 + (-POS_P[2] * e_z - POS_I[2] * i_z - POS_D[2] * vz) - G
        thrust = p.mass * math.hypot(a_x, a_y, a_z)
        self.thrust_clamped = False
        if thrust <= 0.0:
            thrust = p.hover_thrust
            self.thrust_clamped = True
            u_x = u_y = 0.0
        else:
            # the unit thrust direction; its z part is not needed
            u_x, u_y = -p.mass * a_x / thrust, -p.mass * a_y / thrust

        cps, sps = math.cos(yaw_desired), math.sin(yaw_desired)
        self.tilt_limited = False
        s_phi = u_x * sps - u_y * cps
        if abs(s_phi) > 1.0:
            s_phi = math.copysign(1.0, s_phi)
            self.tilt_limited = True
        phi_d = math.asin(s_phi)
        s_theta = (u_x * cps + u_y * sps) / math.cos(phi_d)
        if abs(s_theta) > 1.0:
            s_theta = math.copysign(1.0, s_theta)
            self.tilt_limited = True
        theta_d = math.asin(s_theta)
        return thrust, phi_d, theta_d


# ---------------------------------------------------------------------------
# allocation

def allocate(command, params):
    """Thrust coefficients (C_T1..4) realizing the commanded wrench.

    Inverts the hover-linearized mixing

        T = K_F (C1 + C2 + C3 + C4)
        l = K_F l_a (-C1 - C2 + C3 + C4)
        m = K_F l_a ( C1 - C2 - C3 + C4)
        n = K_F R sqrt(C_Th/2) (-C1 + C2 - C3 + C4)

    which is orthogonal, so the solution is the quarter-sum pattern
    below.  The exact reaction torque follows C_T^(3/2); the linearized
    row overpredicts how much differential is needed by a factor that
    the yaw loop absorbs.
    """
    p = params
    l, m, n = command.moments
    a = command.thrust / p.k_f
    b = l / (p.k_f * p.arm_length)
    c = m / (p.k_f * p.arm_length)
    d = n / p.yaw_gain
    return np.array([
        0.25 * (a - b + c - d),
        0.25 * (a - b - c + d),
        0.25 * (a + b - c - d),
        0.25 * (a + b + c + d),
    ])


def mixing_forward(cts, params, exact_yaw=False):
    """(T, l, m, n) produced by the given thrust coefficients."""
    p = params
    c1, c2, c3, c4 = cts = [float(c) for c in cts]
    thrust = p.k_f * (c1 + c2 + c3 + c4)
    l = p.k_f * p.arm_length * (-c1 - c2 + c3 + c4)
    m = p.k_f * p.arm_length * (c1 - c2 - c3 + c4)
    if exact_yaw:
        # NumPy's array power, not the float **: on an AVX-512 build NumPy's
        # SIMD pow and libm's differ in the last bit for ~5% of C_T in
        # [0, 0.01], and every logged trajectory carries NumPy's.  The sign
        # is np.sign(c) * |c|^(3/2) written in floats (+0.0 for c = -0.0)
        w1, w2, w3, w4 = (np.abs(cts) ** 1.5).tolist()
        t1 = w1 if c1 >= 0.0 else -w1
        t2 = w2 if c2 >= 0.0 else -w2
        t3 = w3 if c3 >= 0.0 else -w3
        t4 = w4 if c4 >= 0.0 else -w4
        n = p.k_f * p.rotor_radius / math.sqrt(2.0) * (-t1 + t2 - t3 + t4)
    else:
        n = p.yaw_gain * (-c1 + c2 - c3 + c4)
    return thrust, l, m, n


# ---------------------------------------------------------------------------
# pitch map

class PitchMap:
    """Monotone collective <-> thrust-coefficient map for one rotor.

    Built from the rotor solver at the hover operating point and
    restricted to the rising pre-stall branch so the inverse is
    single-valued.  Queries outside the achievable range clamp and
    raise the ``saturated`` flag.
    """

    def __init__(self, collectives, cts):
        collectives = np.asarray(collectives, dtype=float)
        cts = np.asarray(cts, dtype=float)
        if collectives.ndim != 1 or collectives.shape != cts.shape:
            raise ConfigError(f"pitch map needs one C_T per collective, got "
                              f"{collectives.size} collectives and {cts.size} C_T")
        if not np.all(np.isfinite(collectives)):
            raise ConfigError("pitch map collectives must be finite")
        # NaN C_T (unsolved rows) may stay: rising_branch drops them
        if np.count_nonzero(np.isfinite(cts)) < 3:
            raise ConfigError("pitch map needs at least three valid points")
        branch = bemt.rising_branch(cts)
        self.collectives = collectives[branch]
        self.cts = cts[branch]
        if self.cts.size < 3 or np.any(np.diff(self.cts) <= 0.0):
            raise ConfigError("pitch map is not monotone below the peak")

    @classmethod
    def from_rotor(cls, geometry, polar):
        """Map of the hover thrust curve over -4..20 deg of collective."""
        collectives = np.radians(np.arange(-4.0, 20.01, 0.5))
        curve = bemt.thrust_curve(geometry, polar, presets.HOVER_RPM, collectives)
        return cls(collectives, curve.column("ct"))

    @property
    def ct_range(self):
        return float(self.cts[0]), float(self.cts[-1])

    def pitch(self, ct):
        """(collective [rad], saturated) for a requested C_T."""
        lo, hi = self.ct_range
        saturated = ct < lo or ct > hi
        clamped = min(max(ct, lo), hi)
        return float(np.interp(clamped, self.cts, self.collectives)), saturated


# ---------------------------------------------------------------------------
# rigid-body dynamics

def _derivatives(vx, vy, vz, phi, theta, psi, wx, wy, wz, f, l, m, n, ix, iy, iz):
    """Rate of the 12 state components (position, velocity, euler, body
    rates) at the velocity, Euler angles and body rates given (no rate
    reads the position), under the specific thrust ``f`` = T / mass and
    the body moments (l, m, n), with the principal inertias (ix, iy, iz),
    in floats."""
    cph, sph = math.cos(phi), math.sin(phi)
    cth, sth = math.cos(theta), math.sin(theta)
    cps, sps = math.cos(psi), math.sin(psi)
    tth = math.tan(theta)
    hx, hy, hz = ix * wx, iy * wy, iz * wz
    return (vx, vy, vz,
            # gravity minus thrust along body z, the third column of the
            # ZYX body-to-world rotation
            0.0 - f * (cph * sth * cps + sph * sps),
            0.0 - f * (cph * sth * sps - sph * cps),
            G - f * (cph * cth),
            # Euler-angle rates in _euler_rates' operation order, so with its bits
            wx + sph * tth * wy + cph * tth * wz,
            cph * wy - sph * wz,
            sph / cth * wy + cph / cth * wz,
            # Euler's equations, (M - omega x I omega) / I
            (l - (wy * hz - wz * hy)) / ix,
            (m - (wz * hx - wx * hz)) / iy,
            (n - (wx * hy - wy * hx)) / iz)


def _check_dt(dt):
    if not 0.0 < dt <= MAX_DT:
        raise ConfigError(f"dt must lie in (0, {MAX_DT}] s")


def step_dynamics(state, cts, params, dt):
    """Advance one fixed RK4 step under constant thrust coefficients.

    Forces and moments follow the quadrotor mixing with the exact
    3/2-power reaction torque.  Aborts near the Euler pitch singularity.
    """
    _check_dt(dt)
    thrust, l, m, n = mixing_forward(cts, params, exact_yaw=True)
    # f, the moments and the inertias hold for all four stages
    f = thrust / params.mass
    ix, iy, iz = params.inertia
    x = state.x
    _, _, _, vx, vy, vz, phi, theta, psi, wx, wy, wz = x
    k1 = _derivatives(vx, vy, vz, phi, theta, psi, wx, wy, wz, f, l, m, n, ix, iy, iz)
    # the later stages at x + h k, formed only where _derivatives reads
    half = 0.5 * dt
    _, _, _, dvx, dvy, dvz, dphi, dtheta, dpsi, dwx, dwy, dwz = k1
    k2 = _derivatives(vx + half * dvx, vy + half * dvy, vz + half * dvz,
                      phi + half * dphi, theta + half * dtheta, psi + half * dpsi,
                      wx + half * dwx, wy + half * dwy, wz + half * dwz,
                      f, l, m, n, ix, iy, iz)
    _, _, _, dvx, dvy, dvz, dphi, dtheta, dpsi, dwx, dwy, dwz = k2
    k3 = _derivatives(vx + half * dvx, vy + half * dvy, vz + half * dvz,
                      phi + half * dphi, theta + half * dtheta, psi + half * dpsi,
                      wx + half * dwx, wy + half * dwy, wz + half * dwz,
                      f, l, m, n, ix, iy, iz)
    _, _, _, dvx, dvy, dvz, dphi, dtheta, dpsi, dwx, dwy, dwz = k3
    k4 = _derivatives(vx + dt * dvx, vy + dt * dvy, vz + dt * dvz,
                      phi + dt * dphi, theta + dt * dtheta, psi + dt * dpsi,
                      wx + dt * dwx, wy + dt * dwy, wz + dt * dwz,
                      f, l, m, n, ix, iy, iz)
    sixth = dt / 6.0
    new = [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
           for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]
    if abs(new[7]) > GIMBAL_LIMIT:
        raise SimulationAbort(
            f"pitch {math.degrees(new[7]):.1f} deg beyond the "
            f"{math.degrees(GIMBAL_LIMIT):.0f} deg Euler limit")
    return VehicleState._of(new)


# ---------------------------------------------------------------------------
# missions

@dataclass(frozen=True)
class MissionLog:
    time: np.ndarray = field(repr=False)
    position: np.ndarray = field(repr=False)       # [N, 3]
    euler: np.ndarray = field(repr=False)          # [N, 3]
    euler_desired: np.ndarray = field(repr=False)  # [N, 3]
    thrust: np.ndarray = field(repr=False)
    moments: np.ndarray = field(repr=False)        # [N, 3]
    cts: np.ndarray = field(repr=False)            # [N, 4]
    pitches: np.ndarray = field(repr=False)        # [N, 4] collective [rad]
    capture_times: tuple
    CSV_HEADER = ("t,x,y,z,phi,theta,psi,T,l,m,n,"
                  "ct1,ct2,ct3,ct4,theta01,theta02,theta03,theta04")
    CSV_ROW = "%.4f" + ",%.6g" * 18

    @property
    def final_position(self):
        return self.position[-1]

    def csv_lines(self):
        table = np.column_stack([self.time, self.position, self.euler,
                                 self.thrust, self.moments, self.cts,
                                 self.pitches])
        return [self.CSV_HEADER] + [self.CSV_ROW % tuple(row.tolist())
                                    for row in table]


def run_mission(waypoints, params, pitch_map, dt=presets.MISSION_DT,
                capture_radius=presets.MISSION_CAPTURE_RADIUS,
                timeout=presets.MISSION_TIMEOUT):
    """Fly the waypoint list with the vehicle ``params`` and log every step.

    Each step clips the allocated C_T to ``pitch_map.ct_range``, floored at
    0, and logs the map's collectives for them.  Each waypoint is (x, y, z,
    yaw); the next one engages once the vehicle is inside ``capture_radius``.
    The vehicle starts at rest at the origin; after the last capture the
    controller holds position for ``HOLD_TIME`` to settle.  A waypoint that
    stays uncaptured past ``timeout`` raises a mission timeout carrying the
    distance still to go.  ``timeout`` must be positive, either span may
    cover at most ``MAX_WAYPOINT_STEPS`` steps, ``capture_radius`` must be
    positive and finite (at zero or below a waypoint is practically never
    captured), and every waypoint must hold 4 finite numbers.
    """
    waypoints = [tuple(map(float, w)) for w in waypoints]
    for index, w in enumerate(waypoints):
        if len(w) != 4 or not all(map(math.isfinite, w)):
            raise ConfigError(f"waypoint {index} must be 4 finite numbers "
                              f"(x, y, z, yaw), got {w}")
    if not waypoints:
        raise ConfigError("mission needs at least one waypoint")
    _check_dt(dt)
    if not 0.0 < capture_radius < math.inf:
        raise ConfigError(f"capture_radius must be positive and finite, "
                          f"got {capture_radius}")
    # a NaN timeout is refused by the step cap below
    if timeout <= 0.0:
        raise ConfigError(f"timeout must be positive, got {timeout}")
    for name, span in (("timeout", timeout), ("hold_time", HOLD_TIME)):
        # "not <=" also refuses the inf of an overflowing quotient and NaN
        if not span / dt <= MAX_WAYPOINT_STEPS:
            raise ConfigError(
                f"{name} / dt = {span / dt:.3g} steps exceeds the "
                f"cap of {MAX_WAYPOINT_STEPS} per waypoint")
    state = VehicleState()

    att = AttitudeController()
    pos = PositionController(params)
    ct_lo, ct_hi = pitch_map.ct_range
    ct_floor = max(ct_lo, 0.0)

    rows = {k: [] for k in ("time", "position", "euler", "euler_desired", "thrust",
                            "moments", "cts")}
    (log_time, log_position, log_euler, log_euler_desired, log_thrust,
     log_moments, log_cts) = [column.append for column in rows.values()]
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
        c1, c2, c3, c4 = allocate(ControlCommand(thrust, moments), params).tolist()
        cts = [min(max(c1, ct_floor), ct_hi), min(max(c2, ct_floor), ct_hi),
               min(max(c3, ct_floor), ct_hi), min(max(c4, ct_floor), ct_hi)]

        log_time(t)
        log_position(state.x[0:3])
        log_euler(state.x[6:9])
        log_euler_desired(euler_d)
        log_thrust(thrust)
        log_moments(moments)
        log_cts(cts)

        try:
            state = step_dynamics(state, cts, params, dt)
        except SimulationAbort as exc:
            exc.t = t + dt
            raise
        t += dt
        wp_clock += dt

        distance = math.dist(state.x[0:3], target[:3])
        if settle is None:
            if distance <= capture_radius:
                capture_times.append(t)
                if wp_index + 1 < len(waypoints):
                    wp_index += 1
                    wp_clock = 0.0
                else:
                    settle = HOLD_TIME
            elif wp_clock > timeout:
                raise MissionTimeout(
                    f"waypoint {wp_index} not captured after {timeout:.0f} s",
                    remaining_m=distance, waypoint_index=wp_index)
        else:
            settle -= dt
            if settle <= 0.0:
                break

    log = {k: np.array(v) for k, v in rows.items()}
    # PitchMap.pitch of every logged C_T at once: they lie in ct_range
    pitches = np.interp(log["cts"], pitch_map.cts, pitch_map.collectives)
    return MissionLog(**log, pitches=pitches, capture_times=tuple(capture_times))
