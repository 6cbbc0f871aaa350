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
from .schema import NUMBER, Key

#: lift retained by each wing of the pair relative to an isolated wing,
#: reported alongside sizing results; not fed back into the areas.
BIPLANE_LIFT_FACTOR = 0.9

MIN_GAP_CHORD_RATIO = 1.5

#: parasite drag coefficient, referred to the wing area, of everything the
#: clean-wing CD0 does not carry: fuselage, hubs and pylons, and biplane
#: interference
EXTRA_CD0 = 0.010


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
            if not getattr(self, name) > 0.0:      # NaN fails it too
                raise ConfigError(f"{name} must be positive")
        if not 0.0 < self.span_ratio <= 1.0:
            raise ConfigError("span_ratio must lie in (0, 1]")
        if not 0.0 < self.taper <= 1.0:
            raise ConfigError("taper must lie in (0, 1]")
        # the stall loading rises with density, so it is checked at the
        # larger of the two densities the sizing evaluates it at
        for what, names, output in (
                ("cruise dynamic pressure 0.5 rho cruise_speed^2", ("rho", "cruise_speed"),
                 lambda: self.dynamic_pressure),
                ("stall wing loading 0.5 rho stall_speed^2 cl_max",
                 ("rho", "stall_speed", "cl_max"),
                 lambda: stall_wing_loading(self, max(self.rho, RHO_SL)))):
            try:
                finite = math.isfinite(output())
            except OverflowError:   # a float ** raises where a product goes to inf
                finite = False
            if not finite:
                raise ConfigError(f"the {what} overflows with " + ", ".join(
                    f"{name} {getattr(self, name):g}" for name in names))

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

#: JSON keys of the ``wing`` command's spec: the inputs and the sizing point
WING_KEYS = {
    **INPUT_KEYS,
    "wing_loading_n_m2": Key("wing_loading", NUMBER, presets.WING_LOADING),
    "gap_m": Key("gap", NUMBER, presets.ROTOR_SEPARATION),
}


@dataclass(frozen=True)
class WingPlanform:
    """Geometry of a single wing of the pair, in the proprotor section."""

    area: float          # [m^2]
    span: float          # [m]
    root_chord: float    # [m]
    tip_chord: float     # [m]
    aspect_ratio: float
    root_bay: float      # [m] rectangular section half-span

    def to_dict(self):
        return {
            "area_m2": self.area,
            "span_m": self.span,
            "root_chord_m": self.root_chord,
            "tip_chord_m": self.tip_chord,
            "aspect_ratio": self.aspect_ratio,
            "root_bay_m": self.root_bay,
            "airfoil": presets.PROPROTOR_SECTION,
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
            "lift_interference_factor": BIPLANE_LIFT_FACTOR,
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
    at beta = 1/sqrt(2).  A ratio that overflows is refused.
    """
    beta = np.asarray(beta, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        out = 1.0 / (2.0 * beta ** 2)
    if np.any(beta <= 0.0) or not np.all(np.isfinite(out)):
        raise ConfigError(f"span_ratio {np.min(beta):g} must be positive, 1/(2 beta^2) finite")
    return float(out) if out.ndim == 0 else out


def _power_terms(inputs, wl):
    """Parasite and induced cruise power [W] at wing loadings wl [N/m^2]."""
    with np.errstate(over="ignore"):
        parasite = (inputs.dynamic_pressure * inputs.cruise_speed * inputs.cd0
                    * inputs.gross_weight / wl)
        induced = (2.0 * inputs.induced_factor * inputs.gross_weight * wl
                   / (inputs.rho * inputs.cruise_speed))
    if not (np.all(np.isfinite(parasite)) and np.all(np.isfinite(induced))):
        raise ConfigError(f"cruise power overflows with the wing inputs {inputs.to_dict()}")
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


def cruise_drag(inputs, wing_loading):
    """Trim drag [N] in level cruise at the chosen wing loading, with
    ``EXTRA_CD0`` added to the clean-wing CD0.  Returns the total and its
    breakdown.
    """
    if wing_loading <= 0.0:
        raise ConfigError("wing loading must be positive")
    q = inputs.dynamic_pressure
    area = inputs.gross_weight / wing_loading
    cl = wing_loading / q
    cd_parasite = inputs.cd0 + EXTRA_CD0
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


def size_biplane(inputs, wing_loading, gap=presets.ROTOR_SEPARATION):
    """Dimension the identical wing pair at the chosen wing loading.

    The total area follows from W/(W/S) and splits equally; each wing's
    span comes from its aspect ratio.  The planform is rectangular from
    the centerline out to the rotor arm ``presets.ARM_LENGTH`` (the rotor
    station) and tapers linearly to the tip, and the chords are solved so
    that shape closes the required area.  The gap defaults to the rotor
    separation.

    The stall gate is evaluated at sea level: the slow end of the
    envelope is the near-ground transition, not cruise altitude, which
    is why a loading above the cruise-altitude stall value can still be
    accepted here.
    """
    root_bay = presets.ARM_LENGTH
    limit = stall_wing_loading(inputs, RHO_SL)
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
    if not root_bay < half:
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
