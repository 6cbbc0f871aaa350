"""Named configurations for the reference vehicle.

Everything downstream (CLI defaults, validation suite, simulator) pulls
from here so the numbers live in exactly one place.  Angles are stored in
radians; helper constructors take degrees where that is the natural unit.
The rotor and operating-point builders import the solver when called, so
a command that reads only numbers here loads no solver.
"""

import math

from .airfoil import AirfoilPolar
from .constants import RHO_CRUISE, RHO_SL

# operating regime
HOVER_RPM = 3200.0
CRUISE_RPM = 2000.0
CRUISE_SPEED = 20.0         # [m/s]
DESIGN_THRUST_PER_ROTOR = 50.0   # [N] sizing requirement per rotor
N_ROTORS = 4                 # rotors of the quadrotor, all driven by one engine

# converged vehicle
GROSS_MASS = 18.507          # [kg] output of the weight loop
GROSS_MASS_START = 16.0      # [kg] the weight loop's first guess
PAYLOAD_MASS = 4.257         # [kg]
WING_LOADING = 130.0         # [N/m^2] wing sizing point
ARM_LENGTH = 0.5             # [m] rotor offset from centerline, both axes
# (Ixx, Iyy, Izz) [kg m^2], ledger-based estimates: point rotors at the
# corners, wings as spanwise rods
INERTIA = (2.4, 1.7, 4.1)
ROTOR_SEPARATION = 1.0       # [m] lateral spacing, also the biplane gap

# proprotor planform and section
FINAL_RADIUS = 0.38          # [m] selected by the radius x twist search
ROTOR_ASPECT_RATIO = 12.0    # R / mean chord
ROTOR_TAPER_RATIO = 5.0 / 3.0   # root / tip chord
PROPROTOR_SECTION = "sc1095"    # bundled polar of the blade and wing section


def baseline_rotor():
    """Untwisted symmetric-section rotor used for solver checkout."""
    from .bemt import BladeGeometry
    return BladeGeometry.from_aspect_ratio(
        0.42, 10.0, taper_ratio=1.0, twist=0.0, preset=0.0, name="baseline")


def rpm_study_rotor():
    """Twisted rotor used for the RPM/efficiency study."""
    from .bemt import BladeGeometry
    return BladeGeometry.from_aspect_ratio(
        0.42, ROTOR_ASPECT_RATIO, taper_ratio=ROTOR_TAPER_RATIO,
        twist=math.radians(-30.0), preset=math.radians(30.0),
        name="rpm-study")


def final_rotor():
    """Selected proprotor: R = 0.38 m, AR 12, taper 5:3, -24 deg twist."""
    from .bemt import BladeGeometry
    return BladeGeometry.from_aspect_ratio(
        FINAL_RADIUS, ROTOR_ASPECT_RATIO, taper_ratio=ROTOR_TAPER_RATIO,
        twist=math.radians(-24.0), preset=math.radians(24.0),
        name="final")


#: rotor presets by the names ``--rotor`` and ``rotor_preset`` accept
ROTORS = {
    "final": final_rotor,
    "baseline": baseline_rotor,
    "rpm-study": rpm_study_rotor,
}


def proprotor_polar():
    return AirfoilPolar.bundled(PROPROTOR_SECTION)


def symmetric_polar():
    return AirfoilPolar.bundled("naca0012")


def hover_op(collective=0.0, rpm=HOVER_RPM):
    from .bemt import OperatingPoint
    return OperatingPoint.from_rpm(rpm, v_inf=0.0, rho=RHO_SL, collective=collective)


def cruise_op(collective=0.0, rpm=CRUISE_RPM):
    from .bemt import OperatingPoint
    return OperatingPoint.from_rpm(rpm, v_inf=CRUISE_SPEED, rho=RHO_CRUISE,
                                   collective=collective)


# mission flown by the simulator acceptance case: climb to 2 m, trace a
# 2 m square, finish over (0, 2).  z is positive down.
MISSION_WAYPOINTS = (
    (0.0, 0.0, -2.0, 0.0),
    (2.0, 0.0, -2.0, 0.0),
    (2.0, 0.0, 0.0, 0.0),
    (2.0, 2.0, 0.0, 0.0),
    (0.0, 2.0, 0.0, 0.0),
)
MISSION_CAPTURE_RADIUS = 0.1   # [m]
MISSION_DT = 0.005             # [s] simulator and controller step
MISSION_TIMEOUT = 20.0         # [s] per waypoint
