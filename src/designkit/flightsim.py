"""Hover-regime simulator for the variable-pitch quadrotor.

World frame is north-east-down (z positive down); attitude is ZYX Euler
(yaw-pitch-roll).  Rotors sit at the corners of a square of half-side
``arm_length``:

    1: (+l, +l)   2: (-l, +l)   3: (-l, -l)   4: (+l, -l)

with spin directions (-, +, -, +) so adjacent rotors counter-rotate.
Thrust per rotor is K_F * C_T; reaction torque follows the 3/2-power
law in C_T.  Control allocation linearizes that law about hover, and
the blade-pitch map comes from the rotor solver rather than bench data.
The PID loops and the RK4 rigid-body step run in plain Python floats;
``tests/test_sim_reference.py`` keeps the NumPy matrix form as their
oracle.  A mission refuses, before its first step, a timeout or hold
longer than ``MAX_WAYPOINT_STEPS`` steps, and a capture radius that is
not positive and finite.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import bemt, presets
from .constants import G, RHO_SL
from .errors import ConfigError, MissionTimeout, SimulationAbort

GIMBAL_LIMIT = math.radians(85.0)
MAX_DT = 0.01   # [s]
# A waypoint may take timeout / dt steps and the final hold hold_time / dt,
# each logged in full (~1 kB a step).  The default mission takes 4,000 per
# waypoint; the cap turns a tiny dt or a huge timeout into a ConfigError
# up front instead of hours of stepping and gigabytes of log.
MAX_WAYPOINT_STEPS = 100_000


# ---------------------------------------------------------------------------
# parameters, state

@dataclass(frozen=True)
class VehicleParams:
    mass: float                      # [kg]
    inertia: tuple                   # (Ixx, Iyy, Izz) [kg m^2]
    arm_length: float                # [m] rotor offset, both axes
    k_f: float                       # [N] thrust per unit C_T
    rotor_radius: float              # [m]
    gravity: float = G

    def __post_init__(self):
        if min(self.mass, self.arm_length, self.k_f, self.rotor_radius,
               self.gravity, *self.inertia) <= 0.0:
            raise ConfigError("vehicle parameters must be positive")

    @property
    def hover_thrust(self):
        return self.mass * self.gravity

    @property
    def ct_hover(self):
        """Per-rotor thrust coefficient that holds the vehicle in hover."""
        return self.hover_thrust / (4.0 * self.k_f)

    @property
    def yaw_gain(self):
        """Moment per unit C_T in the hover-linearized yaw row [N m]."""
        return self.k_f * self.rotor_radius * math.sqrt(self.ct_hover / 2.0)


def default_params(mass=presets.GROSS_MASS, rotor_radius=presets.FINAL_RADIUS,
                   rpm=presets.HOVER_RPM, rho=RHO_SL,
                   arm_length=presets.ARM_LENGTH, inertia=(2.4, 1.7, 4.1)):
    """Parameters for the reference vehicle.

    K_F is the thrust nondimensionalization at the hover tip speed, so
    C_T here is the same coefficient the rotor solver reports.  Inertias
    are ledger-based estimates (point rotors at the corners, wings as
    spanwise rods), overridable per config.
    """
    tip_speed = rpm * math.pi / 30.0 * rotor_radius
    k_f = rho * math.pi * rotor_radius ** 2 * tip_speed ** 2
    return VehicleParams(mass=mass, inertia=inertia, arm_length=arm_length,
                         k_f=k_f, rotor_radius=rotor_radius)


@dataclass
class VehicleState:
    position: np.ndarray = field(default_factory=lambda: np.zeros(3))
    velocity: np.ndarray = field(default_factory=lambda: np.zeros(3))
    euler: np.ndarray = field(default_factory=lambda: np.zeros(3))
    rates: np.ndarray = field(default_factory=lambda: np.zeros(3))  # body

    def copy(self):
        return VehicleState(self.position.copy(), self.velocity.copy(),
                            self.euler.copy(), self.rates.copy())

    def pack(self):
        return np.concatenate([self.position, self.velocity,
                               self.euler, self.rates])

    @classmethod
    def unpack(cls, vec):
        return cls(vec[0:3].copy(), vec[3:6].copy(),
                   vec[6:9].copy(), vec[9:12].copy())


@dataclass(frozen=True)
class ControlCommand:
    thrust: float                    # [N]
    moments: tuple                   # (l, m, n) [N m]

    def __post_init__(self):
        values = (self.thrust, *self.moments)
        if not all(math.isfinite(v) for v in values):
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

@dataclass(frozen=True)
class GainSet:
    """Per-axis PID gains; attitude axes (roll, pitch, yaw), position (x, y, z)."""

    att_p: tuple = (86.0, 61.0, 37.0)
    att_i: tuple = (2.0, 2.0, 1.0)
    att_d: tuple = (23.0, 16.0, 20.0)
    pos_p: tuple = (1.44, 1.44, 1.44)
    pos_i: tuple = (0.05, 0.05, 0.05)
    pos_d: tuple = (2.16, 2.16, 2.16)
    att_integrator_limit: float = 0.5
    pos_integrator_limit: float = 1.0

    def __post_init__(self):
        gains = (self.att_p + self.att_i + self.att_d
                 + self.pos_p + self.pos_i + self.pos_d)
        if min(gains) < 0.0:
            raise ConfigError("PID gains must be non-negative")
        if self.att_integrator_limit <= 0.0 or self.pos_integrator_limit <= 0.0:
            raise ConfigError("integrator limits must be positive")


DEFAULT_GAINS = GainSet()


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


class AttitudeController:
    """PID on Euler-angle error; moments oppose the error."""

    def __init__(self, gains=DEFAULT_GAINS):
        self.gains = gains
        self.integral = [0.0, 0.0, 0.0]

    def update(self, state, euler_desired, dt):
        g = self.gains
        euler = state.euler.tolist()
        error = [a - float(d) for a, d in zip(euler, euler_desired)]
        euler_rates = _euler_rates(euler[0], euler[1], *state.rates.tolist())
        return np.array(_pid(self.integral, error, euler_rates, g.att_p,
                             g.att_i, g.att_d, g.att_integrator_limit, dt))


class PositionController:
    """PID position loop producing total thrust and tilt commands."""

    def __init__(self, gains=DEFAULT_GAINS, params=None):
        self.gains = gains
        self.params = default_params() if params is None else params
        self.integral = [0.0, 0.0, 0.0]
        self.tilt_limited = False
        self.thrust_clamped = False

    def update(self, state, position_desired, yaw_desired, dt,
               accel_feedforward=(0.0, 0.0, 0.0)):
        g = self.gains
        p = self.params
        error = [x - float(d)
                 for x, d in zip(state.position.tolist(), position_desired)]
        accel_fb = _pid(self.integral, error, state.velocity.tolist(),
                        g.pos_p, g.pos_i, g.pos_d, g.pos_integrator_limit, dt)
        accel = [float(ff) + a for ff, a in zip(accel_feedforward, accel_fb)]
        # demanded specific force: desired accel minus gravity (z down)
        accel[2] -= p.gravity
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
    if p.k_f <= 0.0 or p.arm_length <= 0.0:
        raise ConfigError("allocation needs positive k_f and arm length")
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


def mixing_forward(cts, params, exact_yaw=False):
    """(T, l, m, n) produced by the given thrust coefficients."""
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

def _derivatives(x, wrench, params):
    """Rate of the 12 state components (position, velocity, euler, body
    rates) under the body wrench (T, l, m, n), in floats."""
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
            p.gravity - f * (cph * cth),
            *_euler_rates(phi, theta, wx, wy, wz),
            # Euler's equations, (M - omega x I omega) / I
            (l - (wy * hz - wz * hy)) / ix,
            (m - (wz * hx - wx * hz)) / iy,
            (n - (wx * hy - wy * hx)) / iz)


def step_dynamics(state, cts, params, dt):
    """Advance one fixed RK4 step under constant thrust coefficients.

    Forces and moments follow the quadrotor mixing with the exact
    3/2-power reaction torque.  Aborts near the Euler pitch singularity.
    """
    if not 0.0 < dt <= MAX_DT:
        raise ConfigError(f"dt must lie in (0, {MAX_DT}] s")
    wrench = mixing_forward(cts, params, exact_yaw=True)
    x = state.pack().tolist()
    half = 0.5 * dt
    k1 = _derivatives(x, wrench, params)
    k2 = _derivatives([a + half * b for a, b in zip(x, k1)], wrench, params)
    k3 = _derivatives([a + half * b for a, b in zip(x, k2)], wrench, params)
    k4 = _derivatives([a + dt * b for a, b in zip(x, k3)], wrench, params)
    sixth = dt / 6.0
    new = [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
           for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]
    if abs(new[7]) > GIMBAL_LIMIT:
        raise SimulationAbort(
            f"pitch {math.degrees(new[7]):.1f} deg beyond the "
            f"{math.degrees(GIMBAL_LIMIT):.0f} deg Euler limit")
    return VehicleState.unpack(np.array(new))


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
    capture_times: tuple = ()
    CSV_HEADER = ("t,x,y,z,phi,theta,psi,T,l,m,n,"
                  "ct1,ct2,ct3,ct4,theta01,theta02,theta03,theta04")
    CSV_ROW = "{:.4f}" + ",{:.6g}" * 18

    @property
    def final_position(self):
        return self.position[-1]

    def csv_lines(self):
        table = np.column_stack([self.time, self.position, self.euler,
                                 self.thrust, self.moments, self.cts,
                                 self.pitches])
        return [self.CSV_HEADER] + [self.CSV_ROW.format(*row.tolist())
                                    for row in table]


def run_mission(waypoints, params=None, gains=DEFAULT_GAINS, dt=presets.MISSION_DT,
                capture_radius=presets.MISSION_CAPTURE_RADIUS,
                timeout=presets.MISSION_TIMEOUT, pitch_map=None, initial_state=None,
                hold_time=1.0):
    """Fly the waypoint list and log every step.

    Each waypoint is (x, y, z, yaw); the next one engages once the
    vehicle is inside ``capture_radius``.  After the last capture the
    controller holds position for ``hold_time`` to settle.  A waypoint
    that stays uncaptured past ``timeout`` raises a mission timeout
    carrying the distance still to go.  Either span may cover at most
    ``MAX_WAYPOINT_STEPS`` steps, and ``capture_radius`` must be positive
    and finite: at zero or below a waypoint is practically never captured.
    """
    waypoints = [tuple(map(float, w)) for w in waypoints]
    if not waypoints:
        raise ConfigError("mission needs at least one waypoint")
    if not 0.0 < dt <= MAX_DT:
        raise ConfigError(f"dt must lie in (0, {MAX_DT}] s")
    if not 0.0 < capture_radius < math.inf:
        raise ConfigError(f"capture_radius must be positive and finite, "
                          f"got {capture_radius}")
    for name, span in (("timeout", timeout), ("hold_time", hold_time)):
        # "not <=" also refuses the inf of an overflowing quotient and NaN
        if not span / dt <= MAX_WAYPOINT_STEPS:
            raise ConfigError(
                f"{name} / dt = {span / dt:.3g} steps exceeds the "
                f"cap of {MAX_WAYPOINT_STEPS} per waypoint")
    params = default_params() if params is None else params
    state = VehicleState() if initial_state is None else initial_state.copy()

    att = AttitudeController(gains)
    pos = PositionController(gains, params)
    ct_lo, ct_hi = (0.0, math.inf) if pitch_map is None else pitch_map.ct_range

    rows = {k: [] for k in ("t", "pos", "eul", "eud", "T", "M", "ct", "th")}
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
        cts = allocate(ControlCommand(thrust, tuple(moments.tolist())), params)
        cts = np.clip(cts, max(ct_lo, 0.0), ct_hi)
        if pitch_map is None:
            pitches = (math.nan,) * 4
        else:
            # PitchMap.pitch of all four: cts already lie in ct_range
            pitches = np.interp(cts, pitch_map.cts, pitch_map.collectives)

        # step_dynamics returns fresh arrays, so the log needs no copies
        rows["t"].append(t)
        rows["pos"].append(state.position)
        rows["eul"].append(state.euler)
        rows["eud"].append(euler_d)
        rows["T"].append(thrust)
        rows["M"].append(moments)
        rows["ct"].append(cts)
        rows["th"].append(pitches)

        try:
            state = step_dynamics(state, cts, params, dt)
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
                    settle = hold_time
            elif wp_clock > timeout:
                raise MissionTimeout(
                    f"waypoint {wp_index} not captured after {timeout:.0f} s",
                    remaining_m=distance, waypoint_index=wp_index)
        else:
            settle -= dt
            if settle <= 0.0:
                break

    return MissionLog(
        time=np.array(rows["t"]),
        position=np.array(rows["pos"]),
        euler=np.array(rows["eul"]),
        euler_desired=np.array(rows["eud"]),
        thrust=np.array(rows["T"]),
        moments=np.array(rows["M"]),
        cts=np.array(rows["ct"]),
        pitches=np.array(rows["th"]),
        capture_times=tuple(capture_times))
