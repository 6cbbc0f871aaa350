"""Biplane wing sizing.

Induced-power comparison against an equal-area monoplane, cruise power
as a function of wing loading, the stall-side wing-loading limit, and
planform dimensioning with a rectangular inboard bay out to the rotor
station and a straight taper outboard.

Conventions: wing loading is referred to the *total* lifting area (both
wings); per-wing quantities are labelled as such.  SI units throughout.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import presets
from .constants import RHO_CRUISE, RHO_SL
from .errors import ConfigError, StallLimitError
from .schema import NUMBER, Key, read

#: lift retained by each wing of the pair relative to an isolated wing,
#: reported alongside sizing results; not fed back into the areas.
BIPLANE_LIFT_FACTOR = 0.9

MIN_GAP_CHORD_RATIO = 1.5


@dataclass(frozen=True)
class WingDesignInputs:
    """Requirements and aero constants driving the wing sizing."""

    gross_weight: float = 196.2       # [N]
    cruise_speed: float = presets.CRUISE_SPEED   # [m/s]
    stall_speed: float = 12.0         # [m/s]
    rho: float = RHO_CRUISE           # [kg/m^3]
    cd0: float = 0.025
    oswald: float = 0.8
    cl_max: float = 1.5
    aspect_ratio: float = 6.9         # per wing
    taper: float = 0.45
    span_ratio: float = 0.8           # biplane span / monoplane span

    def __post_init__(self):
        for name in ("gross_weight", "cruise_speed", "stall_speed", "rho",
                     "cd0", "oswald", "cl_max", "aspect_ratio"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"{name} must be positive")
        if not 0.0 < self.span_ratio <= 1.0:
            raise ConfigError("span_ratio must lie in (0, 1]")
        if not 0.0 < self.taper <= 1.0:
            raise ConfigError("taper must lie in (0, 1]")

    @property
    def induced_factor(self):
        """K in the induced-drag model CD = CD0 + K*CL^2."""
        return 1.0 / (math.pi * self.aspect_ratio * self.oswald)

    @property
    def dynamic_pressure(self):
        """Cruise dynamic pressure 0.5 rho V^2 [Pa]."""
        return 0.5 * self.rho * self.cruise_speed ** 2

    def to_dict(self):
        return {key: getattr(self, entry.field) for key, entry in INPUT_KEYS.items()}

    @classmethod
    def from_dict(cls, data):
        return cls(**read(INPUT_KEYS, data))


#: JSON keys of :class:`WingDesignInputs`
INPUT_KEYS = {
    "gross_weight_n": Key("gross_weight", NUMBER),
    "cruise_speed_m_s": Key("cruise_speed", NUMBER),
    "stall_speed_m_s": Key("stall_speed", NUMBER),
    "rho_kg_m3": Key("rho", NUMBER),
    "cd0": Key("cd0", NUMBER),
    "oswald": Key("oswald", NUMBER),
    "cl_max": Key("cl_max", NUMBER),
    "aspect_ratio": Key("aspect_ratio", NUMBER),
    "taper": Key("taper", NUMBER),
    "span_ratio": Key("span_ratio", NUMBER),
}


@dataclass(frozen=True)
class WingPlanform:
    """Geometry of a single wing of the pair."""

    area: float          # [m^2]
    span: float          # [m]
    root_chord: float    # [m]
    tip_chord: float     # [m]
    aspect_ratio: float
    root_bay: float      # [m] rectangular section half-span
    airfoil: str = presets.PROPROTOR_SECTION

    @property
    def mean_chord(self):
        return self.area / self.span

    @property
    def taper(self):
        return self.tip_chord / self.root_chord

    def to_dict(self):
        return {
            "area_m2": self.area,
            "span_m": self.span,
            "root_chord_m": self.root_chord,
            "tip_chord_m": self.tip_chord,
            "aspect_ratio": self.aspect_ratio,
            "root_bay_m": self.root_bay,
            "airfoil": self.airfoil,
        }


@dataclass(frozen=True)
class GapCheck:
    """Vertical-separation rule: gap at least 1.5 chords."""

    gap: float           # [m]
    chord: float         # [m] reference (root) chord
    ratio: float
    passes: bool


@dataclass(frozen=True)
class BiplaneSizing:
    wing: WingPlanform           # one wing of the identical pair
    gap_check: GapCheck
    total_area: float            # [m^2] both wings
    wing_loading: float          # [N/m^2] on total area
    monoplane_span: float        # [m] equal-area single wing
    power_ratio: float           # biplane/monoplane induced power
    lift_factor: float = BIPLANE_LIFT_FACTOR

    def to_dict(self):
        return {
            "wing": self.wing.to_dict(),
            "gap_m": self.gap_check.gap,
            "gap_chord_ratio": self.gap_check.ratio,
            "gap_check_passes": self.gap_check.passes,
            "total_area_m2": self.total_area,
            "wing_loading_n_m2": self.wing_loading,
            "monoplane_span_m": self.monoplane_span,
            "induced_power_ratio": self.power_ratio,
            "lift_interference_factor": self.lift_factor,
        }


@dataclass(frozen=True)
class WingLoadingStudy:
    """Cruise power over a wing-loading grid, with the analytic optimum."""

    wing_loading: np.ndarray = field(repr=False)   # [N/m^2]
    power: np.ndarray = field(repr=False)          # [W]
    parasite: np.ndarray = field(repr=False)       # [W]
    induced: np.ndarray = field(repr=False)        # [W]
    optimum_wing_loading: float
    optimum_power: float


def biplane_power_ratio(beta):
    """Induced-power ratio of a biplane to an equal-area monoplane.

    Each wing carries half the lift on half the area at span
    ``beta`` times the monoplane span, and the wings are treated as
    independent, so the ratio is 1/(2 beta^2): 0.5 at beta = 1, unity
    at beta = 1/sqrt(2).
    """
    beta = np.asarray(beta, dtype=float)
    if np.any(beta <= 0.0):
        raise ConfigError("span ratio must be positive")
    out = 1.0 / (2.0 * beta ** 2)
    return float(out) if out.ndim == 0 else out


def _power_terms(inputs, wl):
    """Parasite and induced cruise power [W] at wing loadings wl [N/m^2]."""
    parasite = (inputs.dynamic_pressure * inputs.cruise_speed * inputs.cd0
                * inputs.gross_weight / wl)
    induced = (2.0 * inputs.induced_factor * inputs.gross_weight * wl
               / (inputs.rho * inputs.cruise_speed))
    return parasite, induced


def cruise_power(inputs, wing_loading):
    """Total cruise drag power [W] at the given wing loading [N/m^2]."""
    parasite, induced = _power_terms(inputs, np.asarray(wing_loading, dtype=float))
    return parasite + induced


def power_vs_wing_loading(inputs, wing_loading):
    """Evaluate the cruise-power curve and its analytic minimum.

    Power splits into a parasite term falling as 1/(W/S) and an induced
    term rising linearly, so the optimum sits at
    (W/S)* = (rho V^2 / 2) sqrt(CD0/K).
    """
    wl = np.atleast_1d(np.asarray(wing_loading, dtype=float))
    if np.any(wl <= 0.0):
        raise ConfigError("wing loading grid must be positive")
    parasite, induced = _power_terms(inputs, wl)
    wl_opt = inputs.dynamic_pressure * math.sqrt(inputs.cd0 / inputs.induced_factor)
    return WingLoadingStudy(
        wing_loading=wl,
        power=parasite + induced,
        parasite=parasite,
        induced=induced,
        optimum_wing_loading=wl_opt,
        optimum_power=float(cruise_power(inputs, wl_opt)),
    )


def stall_wing_loading(inputs, rho=None):
    """Highest wing loading [N/m^2] that still meets the stall speed at
    density ``rho`` (the inputs' cruise density when omitted)."""
    rho = inputs.rho if rho is None else rho
    return 0.5 * rho * inputs.stall_speed ** 2 * inputs.cl_max


def cruise_drag(inputs, wing_loading, extra_cd0=0.010):
    """Trim drag [N] in level cruise at the chosen wing loading.

    ``extra_cd0`` carries everything the clean-wing CD0 does not:
    fuselage, hubs and pylons, and biplane interference, referred to
    the wing area.  Returns the total and its breakdown.
    """
    if wing_loading <= 0.0:
        raise ConfigError("wing loading must be positive")
    q = inputs.dynamic_pressure
    area = inputs.gross_weight / wing_loading
    cl = wing_loading / q
    cd_parasite = inputs.cd0 + extra_cd0
    cd_induced = inputs.induced_factor * cl ** 2
    parasite = q * area * cd_parasite
    induced = q * area * cd_induced
    return parasite + induced, {
        "cl_cruise": cl,
        "parasite_n": parasite,
        "induced_n": induced,
        "cd_parasite": cd_parasite,
        "cd_induced": cd_induced,
    }


def size_biplane(inputs, wing_loading, gap=presets.ROTOR_SEPARATION,
                 root_bay=presets.ARM_LENGTH, stall_rho=RHO_SL):
    """Dimension the identical wing pair at the chosen wing loading.

    The total area follows from W/(W/S) and splits equally; each wing's
    span comes from its aspect ratio.  The planform is rectangular from
    the centerline out to ``root_bay`` (the rotor station) and tapers
    linearly to the tip, and the chords are solved so that shape closes
    the required area.  The gap defaults to the rotor separation and
    the bay to the rotor arm.

    The stall gate is evaluated at ``stall_rho`` (sea level by default):
    the slow end of the envelope is the near-ground transition, not
    cruise altitude, which is why a loading above the cruise-altitude
    stall value can still be accepted here.
    """
    limit = stall_wing_loading(inputs, stall_rho)
    if wing_loading > limit:
        raise StallLimitError(
            f"wing loading {wing_loading:.1f} N/m^2 exceeds the stall "
            f"limit {limit:.1f} N/m^2")
    if wing_loading <= 0.0:
        raise ConfigError("wing loading must be positive")

    total_area = inputs.gross_weight / wing_loading
    area = 0.5 * total_area                        # per wing
    span = math.sqrt(inputs.aspect_ratio * area)
    half = 0.5 * span
    if not 0.0 <= root_bay < half:
        raise ConfigError(
            f"root bay {root_bay} m must lie inside the half-span {half:.3f} m")

    # half-wing area = c_r*bay + (half - bay)*c_r*(1 + taper)/2
    shape = root_bay + (half - root_bay) * 0.5 * (1.0 + inputs.taper)
    root_chord = 0.5 * area / shape
    tip_chord = inputs.taper * root_chord

    planform = WingPlanform(
        area=area, span=span, root_chord=root_chord, tip_chord=tip_chord,
        aspect_ratio=span ** 2 / area, root_bay=root_bay)
    ratio = gap / root_chord
    check = GapCheck(gap=gap, chord=root_chord, ratio=ratio,
                     passes=ratio >= MIN_GAP_CHORD_RATIO)
    return BiplaneSizing(
        wing=planform,
        gap_check=check,
        total_area=total_area,
        wing_loading=inputs.gross_weight / total_area,
        monoplane_span=span / inputs.span_ratio,
        power_ratio=biplane_power_ratio(inputs.span_ratio),
    )
