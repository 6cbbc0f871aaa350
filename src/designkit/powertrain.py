"""Powerplant sizing: hover/cruise budget, gearbox checks, weight loop.

The transmission is a single engine driving four rotors through a
two-stage 4:1 spur reduction plus 1:1 bevel sets at the wing stations.
Gear strength uses the Lewis/AGMA bending form in metric units
(N, mm, MPa).  The power budget counts ``presets.N_ROTORS`` rotors that
each draw one rotor record's power.  The gross-weight loop iterates the
component buildup to a fixed point, scaling the ``SCALABLE_MASSES`` in
proportion to the gross mass from their unit masses at
``presets.GROSS_MASS``.  The engine rating is a set of module constants.
"""

import math
from dataclasses import dataclass, replace

from . import presets
from .constants import G, HP_TO_W, RPM_TO_RAD_S
from .errors import ConfigError, DivergenceError, EngineCapacityError

SPUR_PRESSURE_ANGLE = math.radians(20.0)
# AGMA bending factors: dynamic, overload, load distribution, fillet
# stress concentration; and the allowable bending stress [MPa]
K_V, K_O, K_M, K_F = 1.4, 1.25, 1.3, 1.1
SIGMA_ALLOW = 200.0
MAX_ITERATIONS = 50   # passes of the gross-weight loop


# ---------------------------------------------------------------------------
# engine

# rating of a small single-cylinder helicopter engine
ENGINE_RATED_POWER = 3.75 * HP_TO_W   # [W]
ENGINE_RATED_RPM = 15000.0
ENGINE_MASS = 0.596                   # [kg]
ENGINE_IDLE_RPM = 2000.0
ENGINE_MAX_RPM = 16500.0


def power_available(rpm):
    """Engine shaft power [W] at the given speed.

    No curve is published for this class of engine, so available
    power ramps linearly from zero at idle to the rating at rated
    speed and holds flat up to the redline.
    """
    if rpm <= ENGINE_IDLE_RPM or rpm > ENGINE_MAX_RPM:
        return 0.0
    if rpm >= ENGINE_RATED_RPM:
        return ENGINE_RATED_POWER
    frac = (rpm - ENGINE_IDLE_RPM) / (ENGINE_RATED_RPM - ENGINE_IDLE_RPM)
    return ENGINE_RATED_POWER * frac


# ---------------------------------------------------------------------------
# power budget

@dataclass(frozen=True)
class PowerBudget:
    hover_power: float              # [W] all rotors
    cruise_power: float             # [W] all rotors
    margin_fraction: float
    required_installed_power: float  # [W] hover * (1 + margin)
    reduction_fraction: float        # 1 - cruise/hover
    engine_rpm: float
    engine_available_power: float    # [W] at engine_rpm

    def to_dict(self):
        return {
            "hover_power_w": self.hover_power,
            "cruise_power_w": self.cruise_power,
            "hover_power_hp": self.hover_power / HP_TO_W,
            "cruise_power_hp": self.cruise_power / HP_TO_W,
            "margin_fraction": self.margin_fraction,
            "required_installed_power_w": self.required_installed_power,
            "required_installed_power_hp": self.required_installed_power / HP_TO_W,
            "reduction_fraction": self.reduction_fraction,
            "engine_rpm": self.engine_rpm,
            "engine_available_power_w": self.engine_available_power,
        }


def _check_margin(margin):
    if not math.isfinite(margin):
        raise ConfigError(f"margin must be finite, got {margin}")


def power_budget(hover_perf, cruise_perf, margin=0.10):
    """Total shaft-power budget across the rotor set with install margin.

    ``hover_perf`` and ``cruise_perf`` are the performance records of one
    rotor at the two design points; each of the ``presets.N_ROTORS``
    rotors draws that power.  The installed requirement is hover power
    grown by ``margin``, which must be finite, and it must fit under the
    engine's :func:`power_available` at the hover speed times
    ``train_reduction()``.
    """
    _check_margin(margin)
    p_hover = presets.N_ROTORS * hover_perf.power
    p_cruise = presets.N_ROTORS * cruise_perf.power
    if p_hover <= 0.0:
        raise ConfigError("hover power must be positive")
    required = p_hover * (1.0 + margin)
    engine_rpm = hover_perf.rpm * train_reduction()
    available = power_available(engine_rpm)
    if required > available:
        raise EngineCapacityError(
            f"installed requirement {required:.0f} W exceeds engine "
            f"capability {available:.0f} W at {engine_rpm:.0f} RPM",
            required_w=required, available_w=available)
    return PowerBudget(
        hover_power=p_hover,
        cruise_power=p_cruise,
        margin_fraction=margin,
        required_installed_power=required,
        reduction_fraction=1.0 - p_cruise / p_hover,
        engine_rpm=engine_rpm,
        engine_available_power=available,
    )


# ---------------------------------------------------------------------------
# gears

@dataclass(frozen=True)
class GearSpec:
    """One gear of the transmission.

    ``pitch_diameter`` is teeth times module; ``catalog_diameter`` keeps
    the vendor-sheet value, which for the spur set is rounded to whole
    centimetres.  Dedendum is in multiples of module; every gear has a
    one-module addendum and the 20 deg spur pressure angle.
    """

    role: str                 # E, M1, M2, S1, S2, B
    teeth: int
    module: float             # [mm]
    face_width: float         # [mm]
    catalog_diameter: float   # [mm]
    kind: str
    dedendum: float = 1.25

    def __post_init__(self):
        if not (self.teeth >= 4 and self.module > 0.0 and self.face_width > 0.0):
            raise ConfigError(f"gear {self.role}: bad teeth/module/width")

    @property
    def pitch_diameter(self):
        """[mm]"""
        return self.teeth * self.module

    def to_dict(self):
        return {
            "role": self.role,
            "kind": self.kind,
            "teeth": self.teeth,
            "module_mm": self.module,
            "pitch_diameter_mm": self.pitch_diameter,
            "catalog_diameter_mm": self.catalog_diameter,
            "face_width_mm": self.face_width,
            "addendum": 1.0,
            "dedendum": self.dedendum,
            "pressure_angle_deg": math.degrees(SPUR_PRESSURE_ANGLE),
        }


def min_pinion_teeth(gear_ratio):
    """Smallest pinion tooth count that avoids involute interference.

    With G the pinion/gear tooth ratio (1/gear_ratio), full-depth teeth
    (addendum one module) and the spur pressure angle phi, the bound is

        T1 >= 2 G / (sqrt(1 + G (G + 2) sin^2 phi) - 1),

    which tightens as the mating gear grows (G -> 0) and relaxes with
    pressure angle.
    """
    if gear_ratio < 1.0:
        raise ConfigError("gear_ratio must be >= 1 (gear at least pinion-size)")
    g = 1.0 / gear_ratio
    s2 = math.sin(SPUR_PRESSURE_ANGLE) ** 2
    bound = 2.0 * g / (math.sqrt(1.0 + g * (g + 2.0) * s2) - 1.0)
    return math.ceil(bound - 1e-12)


def agma_face_width(tangential_force, module, lewis_factor):
    """Face width [mm] from the AGMA bending-stress form.

    Metric evaluation of b = F_t P_d K / (sigma Y) with the diametral
    pitch expressed as 1/module: force in N, module in mm, allowable in
    MPa.  The result is rounded up to the next 0.1 mm.
    """
    if min(tangential_force, module, lewis_factor) <= 0.0:
        raise ConfigError("all face-width inputs must be positive")
    width = (tangential_force / module) * K_V * K_O * K_M * K_F \
        / (SIGMA_ALLOW * lewis_factor)
    return math.ceil(width * 10.0 - 1e-9) / 10.0


def tangential_force(power, rpm, pitch_diameter):
    """Tooth load F_t [N] from shaft power [W], speed, and diameter [mm]."""
    omega = rpm * RPM_TO_RAD_S
    torque = power / omega
    return 2.0 * torque / (pitch_diameter * 1e-3)


def build_gear_train():
    """The reference transmission: E:M = 1:2, M:S = 1:2, bevels 1:1.

    The engine pinion E drives two intermediate gears M1/M2, each of
    which drives a wing-shaft gear S1/S2, for an overall 4:1 reduction;
    identical bevel pairs B turn the drive up the wing posts.  Numbers
    follow the build sheet: the spur diameters there are rounded to
    whole centimetres and the bevel dedendum is carried as printed.
    """
    spur = dict(module=1.2, face_width=36.0, kind="spur")
    bevel_dedendum = 4.1 / 1.8   # vendor sheet value, nonstandard
    return (
        GearSpec(role="E", teeth=17, catalog_diameter=20.0, **spur),
        GearSpec(role="M1", teeth=34, catalog_diameter=40.0, **spur),
        GearSpec(role="M2", teeth=34, catalog_diameter=40.0, **spur),
        GearSpec(role="S1", teeth=68, catalog_diameter=80.0, **spur),
        GearSpec(role="S2", teeth=68, catalog_diameter=80.0, **spur),
        GearSpec(role="B", teeth=20, module=1.8, face_width=36.0,
                 catalog_diameter=36.0, kind="bevel",
                 dedendum=bevel_dedendum),
    )


def train_reduction():
    """Overall speed ratio engine:rotor of :func:`build_gear_train` as an
    exact integer ratio."""
    by_role = {g.role: g for g in build_gear_train()}
    stage1 = by_role["M1"].teeth / by_role["E"].teeth
    stage2 = by_role["S1"].teeth / by_role["M1"].teeth
    bevel = 1.0   # identical pair
    return stage1 * stage2 * bevel


# ---------------------------------------------------------------------------
# weight buildup

@dataclass(frozen=True)
class MassEntry:
    name: str
    unit_mass: float            # [kg]
    quantity: int = 1

    def __post_init__(self):
        if not (0.0 <= self.unit_mass < math.inf and self.quantity >= 0):
            raise ConfigError(f"mass entry {self.name}: negative or non-finite value")

    @property
    def total(self):
        return self.unit_mass * self.quantity


@dataclass(frozen=True)
class WeightLedger:
    entries: tuple
    history: tuple = ()          # gross-mass iterates [kg]
    CSV_HEADER = "component,unit_kg,qty,total_kg"

    @property
    def gross_mass(self):
        return sum(e.total for e in self.entries)

    def csv_lines(self):
        lines = [self.CSV_HEADER]
        for e in self.entries:
            lines.append(f"{e.name},{e.unit_mass:.4f},{e.quantity},{e.total:.4f}")
        lines.append(f"total,,,{self.gross_mass:.4f}")
        return lines


def default_fixed_masses(payload=presets.PAYLOAD_MASS):
    """Component buildup that does not scale with gross mass [kg]."""
    return WeightLedger(entries=(
        MassEntry("engine", ENGINE_MASS),
        MassEntry("transmission", 0.850),
        MassEntry("fuel system", 1.400),
        MassEntry("avionics", 0.750),
        MassEntry("fuselage", 2.900),
        MassEntry("landing gear", 0.520),
        MassEntry("pitch mechanism", 0.310, quantity=4),
        MassEntry("servo", 0.055, quantity=8),
        MassEntry("payload", payload),
    ))


#: components whose unit mass grows linearly with the gross mass, as
#: entries at the calibration point: the converged vehicle of
#: presets.GROSS_MASS, rotor radius 0.38 m, wing loading 130 N/m^2 at
#: 500 m density altitude
SCALABLE_MASSES = (
    # blade set + hub: R ~ sqrt(m) at fixed disc loading, blade mass ~ R^2
    MassEntry("rotor assembly", 0.396, quantity=presets.N_ROTORS),
    # one wing: wing mass ~ area, and area ~ m at fixed wing loading
    MassEntry("wing", 1.985, quantity=2),
)


def iterate_gross_weight(fixed=None, tolerance=0.01, start=presets.GROSS_MASS_START):
    """Converge the gross mass by cycling sizing and the mass buildup.

    Each pass resizes the ``SCALABLE_MASSES`` at the current gross mass
    and re-sums the ledger; convergence is declared when successive
    gross masses agree within ``tolerance`` kg, and a loop that has not
    converged after ``MAX_ITERATIONS`` passes is a divergence.
    ``tolerance`` and ``start`` must be positive and finite.
    """
    fixed = default_fixed_masses() if fixed is None else fixed
    for name, value in (("tolerance", tolerance), ("start", start)):
        if not 0.0 < value < math.inf:   # NaN fails here too
            raise ConfigError(f"{name} must be positive and finite, got {value}")

    gross = start
    history = [gross]
    for _ in range(MAX_ITERATIONS):
        entries = fixed.entries + tuple(
            replace(s, unit_mass=s.unit_mass * (gross / presets.GROSS_MASS))
            for s in SCALABLE_MASSES)
        new_gross = sum(e.total for e in entries)
        history.append(new_gross)
        if abs(new_gross - gross) < tolerance:
            return WeightLedger(entries=entries, history=tuple(history))
        gross = new_gross
    raise DivergenceError(
        f"gross-mass loop did not settle within {MAX_ITERATIONS} passes",
        history=tuple(history))


# ---------------------------------------------------------------------------
# sized-vehicle budget

def design_budget(margin=0.10):
    """Power budget of the converged design at both operating points.

    Runs the weight loop, trims the selected proprotor to the hover
    weight share at sea level and to the per-rotor cruise thrust from the
    level-flight drag buildup (both trims solved together, each returning
    its performance at the trimmed collective), and folds both into the
    budget.  A ``margin`` that is not finite is refused before any of it
    runs.  Returns (budget, ledger, details).
    """
    from . import explorer, wing   # the weight loop alone needs neither
    _check_margin(margin)
    ledger = iterate_gross_weight()
    gross = ledger.gross_mass
    rotor = presets.final_rotor()
    polar = presets.proprotor_polar()

    inputs = wing.WingDesignInputs(gross_weight=gross * G)
    drag, drag_parts = wing.cruise_drag(inputs, presets.WING_LOADING)
    (theta_h, perf_h), (theta_c, perf_c) = explorer._trim(
        rotor, polar, [(presets.hover_op(), gross * G / presets.N_ROTORS),
                       (presets.cruise_op(), drag / presets.N_ROTORS)])

    budget = power_budget(perf_h, perf_c, margin=margin)
    details = {
        "gross_mass_kg": gross,
        "hover_collective_deg": math.degrees(theta_h),
        "cruise_collective_deg": math.degrees(theta_c),
        "hover_thrust_per_rotor_n": perf_h.thrust,
        "cruise_thrust_per_rotor_n": perf_c.thrust,
        "cruise_drag_n": drag,
        **drag_parts,
    }
    return budget, ledger, details
