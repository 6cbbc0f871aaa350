"""Design-space studies built on the rotor solver.

One-dimensional parameter sweeps (power loading versus thrust,
propulsive efficiency versus speed), collective trimming to a thrust
target, and the weighted radius x twist grid search that selects the
proprotor.  Sweep output is a long-format table
(``param_name,param_value,x,y``) so every curve family serializes the
same way.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import bemt, presets
from .constants import RHO_CRUISE, RHO_SL
from .errors import ConfigError, TrimError

SWEEP_PARAMETERS = ("aspect_ratio", "taper_ratio", "twist", "rpm",
                    "radius", "collective")
SWEEP_RESPONSES = ("PL_vs_T", "eta_vs_V", "thrust", "power")

#: default collective grid for thrust-type responses [rad]
DEFAULT_COLLECTIVES = tuple(np.radians(np.arange(0.0, 20.01, 0.5)))
#: default airspeed grid for efficiency curves [m/s]
DEFAULT_SPEEDS = tuple(np.arange(2.0, 30.01, 1.0))
#: trim_collective's coarse collective range [rad] and thrust tolerance [N]
TRIM_COLLECTIVES = (math.radians(-4.0), math.radians(24.0))
TRIM_TOLERANCE = 0.1
#: points per optimization grid axis; the default grid's largest has 38
MAX_GRID_POINTS = 1000
#: radius x twist cells per optimization grid; the default grid has 1,064
MAX_GRID_CELLS = 100_000


# ---------------------------------------------------------------------------
# sweeps

@dataclass(frozen=True)
class SweepSpec:
    """One swept parameter, evaluated into response curves.

    For ``twist`` sweeps the preset angle follows the coupling rule
    theta_pre = -theta_tw (tip pitch held while twist changes) unless
    ``couple_preset`` is disabled.
    """

    base_geometry: bemt.BladeGeometry
    base_op: bemt.OperatingPoint
    parameter: str
    values: tuple
    response: str = "PL_vs_T"
    polar_name: str = presets.PROPROTOR_SECTION
    collectives: tuple = DEFAULT_COLLECTIVES
    speeds: tuple = DEFAULT_SPEEDS
    couple_preset: bool = True
    n_stations: int = 100

    def __post_init__(self):
        if self.parameter not in SWEEP_PARAMETERS:
            raise ConfigError(f"unknown sweep parameter {self.parameter!r}")
        if self.response not in SWEEP_RESPONSES:
            raise ConfigError(f"unknown sweep response {self.response!r}")
        if len(self.values) == 0:
            raise ConfigError("sweep needs at least one value")
        if len(self.collectives) == 0 or len(self.speeds) == 0:
            raise ConfigError("collective and speed grids must be non-empty")


def apply_parameter(geometry, op, parameter, value, couple_preset=True):
    """Return (geometry, op) with one parameter replaced.

    Geometry parameters rebuild the blade from its aspect/taper
    description so chord distributions stay consistent.  A blade with a
    pitch or chord table has no such description, so they raise.
    """
    if parameter == "rpm":
        return geometry, replace(op, omega=value * math.pi / 30.0)
    if parameter == "collective":
        return geometry, replace(op, collective=value)
    if parameter not in SWEEP_PARAMETERS:
        raise ConfigError(f"unknown sweep parameter {parameter!r}")
    if geometry.pitch_table is not None or geometry.chord_table is not None:
        raise ConfigError(f"a {parameter} sweep rebuilds the blade from linear "
                          "laws and would drop its pitch/chord table")
    laws = dict(radius=geometry.radius, aspect_ratio=geometry.aspect_ratio,
                taper_ratio=geometry.taper_ratio, twist=geometry.twist,
                preset=geometry.preset, n_blades=geometry.n_blades,
                root_cutout=geometry.root_cutout, name=geometry.name)
    laws[parameter] = value
    if parameter == "twist" and couple_preset:
        laws["preset"] = -value
    return bemt.BladeGeometry.from_aspect_ratio(**laws), op


@dataclass(frozen=True)
class SweepTable:
    parameter: str
    response: str
    rows: tuple          # (param_value, x, y)
    gaps: tuple          # (param_value, x, reason)
    CSV_HEADER = "param_name,param_value,x,y"

    def csv_lines(self):
        lines = [self.CSV_HEADER]
        for value, x, y in self.rows:
            lines.append(f"{self.parameter},{value:.9g},{x:.9g},{y:.9g}")
        return lines


def _curve_rows(spec, value, geometry, op, polar):
    """Rows and gaps for a single swept value."""
    if spec.response == "eta_vs_V":
        curve = bemt.speed_curve(geometry, polar, op, spec.speeds,
                                 n_stations=spec.n_stations)
    else:
        curve = bemt.thrust_curve(
            geometry, polar, op.rpm, spec.collectives,
            v_inf=op.v_inf, rho=op.rho, n_stations=spec.n_stations)
    rows, gaps = [], []
    for point, perf, err in zip(curve.ops, curve.rows, curve.errors):
        x = point.v_inf if spec.response == "eta_vs_V" else math.degrees(point.collective)
        if perf is None:
            gaps.append((value, x, str(err)))
        elif spec.response == "thrust":
            rows.append((value, x, perf.thrust))
        elif spec.response == "power":
            rows.append((value, x, perf.power))
        elif spec.response == "PL_vs_T":
            if perf.power > 0.0:
                rows.append((value, perf.thrust, perf.power_loading))
            else:
                gaps.append((value, x, "non-positive power"))
        elif perf.thrust <= 0.0 or perf.power <= 0.0:
            gaps.append((value, x, "non-propulsive"))
        else:
            rows.append((value, x, perf.eta_p))
    return rows, gaps


def run_sweep(spec, polar=None):
    """Evaluate the sweep into a long-format table.

    Solver failures become gaps rather than aborting the sweep, so a
    partially stalled configuration still reports its feasible branch.
    """
    from .airfoil import AirfoilPolar
    polar = AirfoilPolar.bundled(spec.polar_name) if polar is None else polar
    rows, gaps = [], []
    for value in spec.values:
        geometry, op = apply_parameter(
            spec.base_geometry, spec.base_op, spec.parameter, value,
            couple_preset=spec.couple_preset)
        r, g = _curve_rows(spec, value, geometry, op, polar)
        rows.extend(r)
        gaps.extend(g)
    return SweepTable(parameter=spec.parameter, response=spec.response,
                      rows=tuple(rows), gaps=tuple(gaps))


# ---------------------------------------------------------------------------
# trim

def trim_collective(geometry, op, polar, target_thrust, n_stations=100):
    """Collective [rad] that meets ``target_thrust`` [N] at this condition.

    Brackets the target on the rising pre-stall branch of a coarse
    thrust curve over TRIM_COLLECTIVES, then bisects until the thrust is
    within TRIM_TOLERANCE / 2 of the target.  Raises a trim error
    carrying the achievable maximum when the target lies above the
    branch, or below the thrust at its lowest collective.
    """
    coarse = np.linspace(*TRIM_COLLECTIVES, 29)
    curve = bemt.thrust_curve(geometry, polar, op.rpm, coarse,
                              v_inf=op.v_inf, rho=op.rho,
                              n_stations=n_stations)
    thrusts = curve.column("thrust")   # NaN where the solver failed
    branch = bemt.rising_branch(thrusts)
    if branch.size == 0:
        raise TrimError("rotor solution failed across the collective range",
                        t_max=float("nan"))
    t_max = float(thrusts[branch[-1]])
    if not target_thrust <= t_max:   # a NaN target fails here too
        raise TrimError(
            f"target {target_thrust:.1f} N exceeds the achievable "
            f"{t_max:.1f} N at this condition", t_max=t_max)

    # first grid point at or above the target on the rising branch;
    # an exact hit (e.g. zero thrust at zero pitch on a symmetric
    # untwisted blade) returns that collective directly
    for idx in branch:
        if abs(thrusts[idx] - target_thrust) < 1e-9:
            return float(coarse[idx])
        if thrusts[idx] >= target_thrust:
            break
    if idx == branch[0]:
        raise TrimError(
            f"target {target_thrust:.1f} N lies below the {thrusts[idx]:.2f} N "
            f"made at {math.degrees(coarse[idx]):.1f} deg, the lowest collective "
            "of the rising branch", t_max=t_max)

    a, b = float(coarse[idx - 1]), float(coarse[idx])
    for _ in range(48):
        mid = 0.5 * (a + b)
        perf = bemt.evaluate_rotor(geometry, replace(op, collective=mid),
                                   polar, n_stations=n_stations)
        if perf.thrust < target_thrust:
            a = mid
        else:
            b = mid
        if abs(perf.thrust - target_thrust) < 0.5 * TRIM_TOLERANCE:
            return mid
    return 0.5 * (a + b)


# ---------------------------------------------------------------------------
# radius x twist optimization

@dataclass(frozen=True)
class OptimizationSpec:
    """Grid search over radius and twist with a weighted two-point cost.

    Each cell is trimmed to the hover thrust target for its figure of
    merit and scanned over collective for its best cruise efficiency:
    cost = w_fm * FM + w_eta * eta_p.
    """

    radius_grid: tuple = (0.26, 0.53, 0.01)       # min, max, step [m]
    twist_grid: tuple = (math.radians(-45.0), math.radians(-8.0),
                         math.radians(1.0))       # min, max, step [rad]
    weights: tuple = (0.3, 0.7)                    # (w_fm, w_eta)
    hover_rpm: float = presets.HOVER_RPM
    hover_rho: float = RHO_SL
    cruise_rpm: float = presets.CRUISE_RPM
    cruise_speed: float = presets.CRUISE_SPEED
    cruise_rho: float = RHO_CRUISE
    thrust_constraint: float = presets.DESIGN_THRUST_PER_ROTOR   # [N] per rotor in hover
    aspect_ratio: float = presets.ROTOR_ASPECT_RATIO
    taper_ratio: float = presets.ROTOR_TAPER_RATIO
    polar_name: str = presets.PROPROTOR_SECTION
    cruise_scan: tuple = (math.radians(2.0), math.radians(24.0),
                          math.radians(1.0))       # collective scan [rad]
    n_stations: int = 100

    def __post_init__(self):
        for name, size in (("weights", 2), ("radius_grid", 3),
                           ("twist_grid", 3), ("cruise_scan", 3)):
            if len(getattr(self, name)) != size:
                raise ConfigError(f"{name} needs {size} values, "
                                  f"got {getattr(self, name)!r}")
        w_fm, w_eta = self.weights
        if w_fm < 0.0 or w_eta < 0.0 or abs(w_fm + w_eta - 1.0) > 1e-9:
            raise ConfigError("weights must be non-negative and sum to 1")
        for name in ("radius_grid", "twist_grid", "cruise_scan"):
            lo, hi, step = getattr(self, name)
            if not (0.0 < step < math.inf and lo <= hi):
                raise ConfigError(f"{name} must have min <= max and a finite step > 0")
            steps = (hi - lo) / step         # a grid has round(steps) + 1 points
            if not steps < MAX_GRID_POINTS - 0.5:   # an infinite span or nan fails here too
                raise ConfigError(f"{name} spans {steps + 1.0:.6g} points; "
                                  f"the cap is {MAX_GRID_POINTS}")
        n_r, n_tw = self.radii().size, self.twists().size
        if n_r * n_tw > MAX_GRID_CELLS:
            raise ConfigError(f"radius_grid x twist_grid is {n_r} x {n_tw} = {n_r * n_tw} "
                              f"cells; the cap is {MAX_GRID_CELLS}")

    def radii(self):
        return _grid(*self.radius_grid)

    def twists(self):
        return _grid(*self.twist_grid)


def _grid(lo, hi, step):
    n = int(round((hi - lo) / step)) + 1
    values = lo + step * np.arange(n)
    return values[values <= hi + 1e-9 * max(1.0, abs(hi))]


@dataclass(frozen=True)
class OptimizationResult:
    radii: np.ndarray = field(repr=False)
    twists: np.ndarray = field(repr=False)
    fm: np.ndarray = field(repr=False)             # [n_r, n_tw]
    eta: np.ndarray = field(repr=False)
    cost: np.ndarray = field(repr=False)
    feasible: np.ndarray = field(repr=False)
    hover_collective: np.ndarray = field(repr=False)
    cruise_collective: np.ndarray = field(repr=False)
    r_star: float = 0.0
    twist_star: float = 0.0
    cost_star: float = 0.0
    index: tuple = (0, 0)

    def summary_dict(self):
        return {
            "R_star_m": self.r_star,
            "twist_star_deg": math.degrees(self.twist_star),
            "cost_star": self.cost_star,
        }

    def surface_csv_lines(self, which="cost"):
        """Matrix CSV: rows = radius, columns = twist [deg]."""
        surface = getattr(self, which)
        header = "radius_m\\twist_deg," + ",".join(
            f"{math.degrees(t):.6g}" for t in self.twists)
        lines = [header]
        for i, r in enumerate(self.radii):
            cells = ",".join(f"{surface[i, j]:.9g}" for j in range(len(self.twists)))
            lines.append(f"{r:.6g},{cells}")
        return lines


def _blade(spec, radius, twist):
    """Grid blade: the spec's planform, preset coupled to the twist."""
    return bemt.BladeGeometry.from_aspect_ratio(
        radius, spec.aspect_ratio, taper_ratio=spec.taper_ratio,
        twist=twist, preset=-twist)


def _first_crossing(target, values, thetas):
    """Linear interpolant of ``thetas`` where ``values`` first reaches
    ``target``; nan if ``values`` starts above it or never reaches it."""
    above = np.flatnonzero(values >= target)
    if above.size == 0 or values[0] > target:
        return math.nan
    k = above[0]
    lo = max(k - 1, 0)
    return float(np.interp(target, values[lo:k + 1], thetas[lo:k + 1]))


def _evaluate_twist(args):
    """Every radius at one twist; returns (fm, eta, theta_h, theta_c).

    At fixed aspect ratio, taper and twist the hover CT and CP do not
    depend on the radius, so one dense hover curve on a reference blade
    trims every radius, and one batched solve at the trimmed collectives
    gives every figure of merit.  One more solve scans the cruise
    collectives of every radius that hovers, each on its own blade.
    """
    spec, twist, polar = args
    radii = spec.radii()
    fm, eta, theta_h, theta_c = (np.full(radii.size, math.nan) for _ in range(4))

    reference = _blade(spec, 0.38, twist)
    # negative collectives included: with a high preset the thrust
    # target can sit below zero collective on large radii
    thetas = np.radians(np.arange(-12.0, 24.01, 0.25))
    ct_ref = bemt.thrust_curve(reference, polar, spec.hover_rpm, thetas,
                               v_inf=0.0, rho=spec.hover_rho,
                               n_stations=spec.n_stations).column("ct")
    omega = spec.hover_rpm * math.pi / 30.0
    for i, radius in enumerate(radii):
        disc_area = math.pi * radius ** 2
        thrust = ct_ref * (spec.hover_rho * disc_area * (omega * radius) ** 2)
        branch = bemt.rising_branch(thrust)
        theta_h[i] = _first_crossing(spec.thrust_constraint,
                                     thrust[branch], thetas[branch])

    trimmed = np.flatnonzero(np.isfinite(theta_h))
    hover = bemt.thrust_curve(reference, polar, spec.hover_rpm,
                              theta_h[trimmed], v_inf=0.0,
                              rho=spec.hover_rho, n_stations=spec.n_stations)
    fm[trimmed] = hover.column("figure_of_merit")

    scan_lo, scan_hi, scan_step = spec.cruise_scan
    scan = np.arange(scan_lo, scan_hi + 0.5 * scan_step, scan_step)
    hovering = np.flatnonzero(np.isfinite(fm))
    cruises = bemt.thrust_curves(
        [_blade(spec, float(radii[i]), twist) for i in hovering], polar, spec.cruise_rpm,
        scan, v_inf=spec.cruise_speed, rho=spec.cruise_rho, n_stations=spec.n_stations)
    for i, cruise in zip(hovering, cruises):
        etas = np.where((cruise.column("power") > 0.0) & (cruise.column("thrust") > 0.0),
                        cruise.column("eta_p"), -math.inf)
        k = int(np.argmax(etas))
        if etas[k] > -math.inf:
            eta[i], theta_c[i] = etas[k], scan[k]
    return fm, eta, theta_h, theta_c


def optimize(spec=None, polar=None, workers=1):
    """Fill the radius x twist surfaces and locate the best cell.

    Infeasible cells (hover target unreachable or no cruise solution)
    carry cost -inf.  Ties resolve toward the smaller radius, then the
    smaller twist magnitude.
    """
    from .airfoil import AirfoilPolar
    spec = OptimizationSpec() if spec is None else spec
    polar = AirfoilPolar.bundled(spec.polar_name) if polar is None else polar

    radii = spec.radii()
    twists = spec.twists()

    jobs = [(spec, float(tw), polar) for tw in twists]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            columns = list(pool.map(_evaluate_twist, jobs))
    else:
        columns = [_evaluate_twist(job) for job in jobs]
    fm, eta, theta_h, theta_c = (np.stack(c, axis=1) for c in zip(*columns))
    feasible = np.isfinite(eta)

    w_fm, w_eta = spec.weights
    cost = np.where(feasible, w_fm * fm + w_eta * eta, -math.inf)
    if not feasible.any():
        raise TrimError("every cell of the optimization grid is infeasible",
                        t_max=float("nan"))

    # argmax with ties toward smaller radius, then smaller |twist|
    best = min(map(tuple, np.argwhere(cost == cost.max()).tolist()),
               key=lambda ij: (radii[ij[0]], abs(twists[ij[1]])))
    best_cost = float(cost[best])

    return OptimizationResult(
        radii=radii, twists=twists, fm=fm, eta=eta, cost=cost,
        feasible=feasible, hover_collective=theta_h, cruise_collective=theta_c,
        r_star=float(radii[best[0]]), twist_star=float(twists[best[1]]),
        cost_star=best_cost, index=best)
