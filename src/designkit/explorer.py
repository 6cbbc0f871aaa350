"""Design-space studies built on the rotor solver.

One-dimensional parameter sweeps (power loading versus thrust,
propulsive efficiency versus speed), collective trimming to a thrust
target, and the weighted radius x twist grid search that selects the
proprotor.  Sweep output is a long-format table
(``param_name,param_value,x,y``) so every curve family serializes the
same way.

A sweep solves the points of all its values together, a design
budget's trims and each twist's grid cells share solves, as (blade,
operating point) rows of the solver's batched solve (``bemt._curves``),
which builds the station grid and pitches itself: a sweep in chunks of
whole rows, which keep its memory flat in its number of values.
"""

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import airfoil, bemt, presets
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
#: collectives (min, max, step) [rad] of each grid cell's cruise scan
CRUISE_SCAN = (math.radians(2.0), math.radians(24.0), math.radians(1.0))
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


def _curve_op(op):
    """The operating point :func:`bemt.thrust_curve` builds from ``op``'s
    rpm, speed and density, so that rows at it are that curve's rows."""
    return bemt.OperatingPoint.from_rpm(op.rpm, v_inf=op.v_inf, rho=op.rho)


def _sweep_points(spec):
    """(value, x, (blade, op)) of every point of the sweep, value by
    value, built as they are read: an efficiency point is
    :func:`bemt.evaluate_rotor`'s row at its speed, a thrust-type point
    :func:`bemt.thrust_curve`'s row at its collective."""
    for value in spec.values:
        geometry, op = apply_parameter(spec.base_geometry, spec.base_op, spec.parameter,
                                       value, couple_preset=spec.couple_preset)
        if spec.response == "eta_vs_V":
            for v in spec.speeds:
                yield value, v, (geometry, replace(op, v_inf=v))
        else:
            for row in bemt._collective_rows(geometry, _curve_op(op), spec.collectives):
                yield value, math.degrees(row[1].collective), row


def _sweep_point(response, perf, x):
    """Written (x, y) of a solved point, or the reason it is a gap."""
    if response == "PL_vs_T" and not perf.power > 0.0:
        return "non-positive power"
    if response == "eta_vs_V" and not perf.propulsive:
        return "non-propulsive"
    if response == "thrust":
        point = (x, perf.thrust)
    elif response == "power":
        point = (x, perf.power)
    elif response == "PL_vs_T":
        point = (perf.thrust, perf.power_loading)
    else:
        point = (x, perf.eta_p)
    if not all(map(math.isfinite, (perf.thrust, perf.power, *point))):
        return "non-finite load"
    return point


def run_sweep(spec):
    """Evaluate the sweep into a long-format table.

    The points of all values are solved together, in chunks of whole
    rows of at most BLOCK stations built one at a time, so the sweep's
    memory does not grow with its number of values.  Solver failures
    become gaps rather than aborting the sweep, so a partially stalled
    configuration still reports its feasible branch.  So do points with
    no positive power (PL_vs_T), no positive thrust and power
    (eta_vs_V), or a thrust, power, x or y that is not finite
    ("non-finite load").
    """
    polar = airfoil.AirfoilPolar.bundled(spec.polar_name)
    points = _sweep_points(spec)
    rows, gaps = [], []
    while chunk := list(itertools.islice(points, bemt.BLOCK // bemt.N_STATIONS)):
        values, xs, blade_rows = zip(*chunk)
        curve = bemt._curves(blade_rows, polar, bemt.N_STATIONS)
        for value, x, perf, err in zip(values, xs, curve.rows, curve.errors):
            point = str(err) if perf is None else _sweep_point(spec.response, perf, x)
            if isinstance(point, str):
                gaps.append((value, x, point))
            else:
                rows.append((value, *point))
    return SweepTable(parameter=spec.parameter, response=spec.response,
                      rows=tuple(rows), gaps=tuple(gaps))


# ---------------------------------------------------------------------------
# trim

def trim_collective(geometry, op, polar, target_thrust):
    """Collective [rad] that meets ``target_thrust`` [N] at this condition.

    Brackets the target on the rising pre-stall branch of a coarse
    thrust curve over TRIM_COLLECTIVES, then bisects until the thrust is
    within TRIM_TOLERANCE / 2 of the target.  Raises a trim error
    carrying the achievable maximum when the target lies above the
    branch, or below the thrust at its lowest collective.  The one-trim
    case of :func:`_trim`.
    """
    return _trim(geometry, polar, [(op, target_thrust)])[0][0]


def _trim(geometry, polar, targets):
    """(collective, performance) of each (op, target_thrust) of
    ``targets``: the collective :func:`trim_collective` takes, and
    :func:`bemt.evaluate_rotor` there, with all trims solved together.

    One solve holds every coarse curve.  The bisections then run in
    lockstep, two steps per solve: a live trim puts in its next midpoint
    and both midpoints that can follow it, so each trim takes exactly the
    midpoints a one-step loop takes.  Its result is its midpoint within
    tolerance, or after 48 steps the midpoint of what is left, solved as
    one more row; an exact hit on the coarse grid is a bracket [c, c]
    with no steps left.  A trim fails with the TrimError of its
    coarse curve, or with the NoRootError of a midpoint it takes or of
    its result's row; a midpoint it does not take cannot fail it.  Errors
    are raised in the order of ``targets``.
    """
    coarse = np.linspace(*TRIM_COLLECTIVES, 29)
    coarse_rows = [row for op, _ in targets
                   for row in bemt._collective_rows(geometry, _curve_op(op), coarse)]
    thrusts = bemt._curves(coarse_rows, polar, bemt.N_STATIONS).column("thrust")
    results = [None] * len(targets)   # (collective, performance) or the error
    live = {}                         # trim -> [a, b, steps left]
    for i, ((_, target), curve) in enumerate(zip(targets, thrusts.reshape(-1, coarse.size))):
        try:
            live[i] = _bracket(curve, coarse, target)
        except TrimError as exc:
            results[i] = exc

    while live:
        cands = {}
        for i, (a, b, left) in live.items():
            mid = 0.5 * (a + b)
            cands[i] = [mid, 0.5 * (a + mid), 0.5 * (mid + b)] if left else [mid]
        curve = bemt._curves([(geometry, replace(targets[i][0], collective=theta))
                              for i, thetas in cands.items() for theta in thetas],
                             polar, bemt.N_STATIONS)
        solved = zip(curve.rows, curve.errors)
        for i, thetas in cands.items():
            rows = list(itertools.islice(solved, len(thetas)))
            state = _bisect(*live.pop(i), *rows[0], targets[i][1])
            if isinstance(state, list):       # its next midpoint is in this solve
                state = _bisect(*state, *rows[thetas.index(0.5 * (state[0] + state[1]))],
                                targets[i][1])
            if isinstance(state, list):
                live[i] = state
            else:
                results[i] = state
    for result in results:
        if isinstance(result, Exception):
            raise result
    return results


def _bisect(a, b, left, perf, err, target_thrust):
    """One step of a trim at the midpoint of [a, b], solved there as
    (perf, err): the next [a, b, steps left], or the trim's result: the
    (collective, performance) within tolerance or with no steps left, or
    the solver's error."""
    mid = 0.5 * (a + b)
    if err is not None:
        return err
    if not left or abs(perf.thrust - target_thrust) < 0.5 * TRIM_TOLERANCE:
        return mid, perf
    return [mid, b, left - 1] if perf.thrust < target_thrust else [a, mid, left - 1]


def _bracket(thrusts, coarse, target_thrust):
    """[a, b, steps left] that trims a coarse thrust curve to the target
    (:func:`trim_collective`'s rule), or the TrimError that says why none
    does."""
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
    # untwisted blade) is that collective, with no bisection
    for idx in branch:
        if abs(thrusts[idx] - target_thrust) < 1e-9:
            return [float(coarse[idx]), float(coarse[idx]), 0]
        if thrusts[idx] >= target_thrust:
            break
    if idx == branch[0]:
        raise TrimError(
            f"target {target_thrust:.1f} N lies below the {thrusts[idx]:.2f} N "
            f"made at {math.degrees(coarse[idx]):.1f} deg, the lowest collective "
            "of the rising branch", t_max=t_max)
    return [float(coarse[idx - 1]), float(coarse[idx]), 48]   # at most 48 bisection steps


# ---------------------------------------------------------------------------
# radius x twist optimization

@dataclass(frozen=True)
class OptimizationSpec:
    """Grid search over radius and twist with a weighted two-point cost.

    Each cell is trimmed to the hover thrust target for its figure of
    merit and scanned over the ``CRUISE_SCAN`` collectives for its best
    cruise efficiency:
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
    n_stations: int = bemt.N_STATIONS

    def __post_init__(self):
        for name, size in (("weights", 2), ("radius_grid", 3), ("twist_grid", 3)):
            if len(getattr(self, name)) != size:
                raise ConfigError(f"{name} needs {size} values, "
                                  f"got {getattr(self, name)!r}")
        w_fm, w_eta = self.weights
        if not w_fm >= 0.0 or not w_eta >= 0.0 or abs(w_fm + w_eta - 1.0) > 1e-9:   # NaN fails
            raise ConfigError("weights must be non-negative and sum to 1")
        for name in ("radius_grid", "twist_grid"):
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
        # the trim scales CT to thrust by hover_thrust_scale, largest at the
        # largest radius.  An rpm whose omega is already infinite makes every
        # thrust infinite, and the trim finds no crossing.
        radius = np.max(np.abs(self.radii()))
        with np.errstate(over="ignore"):
            scale = self.hover_thrust_scale(radius)
        if math.isfinite(self.hover_omega) and not math.isfinite(scale):
            raise ConfigError(f"hover_rpm {self.hover_rpm:g} and hover_rho {self.hover_rho:g} "
                              f"overflow the hover thrust scale rho A (omega R)^2 "
                              f"at radius {radius:g} m")

    @property
    def hover_omega(self):
        """Hover rotor speed [rad/s]."""
        return self.hover_rpm * math.pi / 30.0

    def hover_thrust_scale(self, radius):
        """rho A (omega R)^2 [N]: hover thrust per unit CT at ``radius``."""
        return self.hover_rho * (math.pi * radius ** 2) * (self.hover_omega * radius) ** 2

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
    r_star: float
    twist_star: float
    cost_star: float
    index: tuple

    def summary_dict(self):
        return {
            "R_star_m": self.r_star,
            "twist_star_deg": math.degrees(self.twist_star),
            "cost_star": self.cost_star,
        }

    def surface_csv_lines(self, which):
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
    trims every radius.  One more solve gives every trimmed radius its
    figure of merit (the reference blade at its trimmed collective) and
    its cruise collective scan (on its own blade); a radius whose figure
    of merit is not finite keeps eta = nan.
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
    for i, radius in enumerate(radii):
        thrust = ct_ref * spec.hover_thrust_scale(radius)
        branch = bemt.rising_branch(thrust)
        theta_h[i] = _first_crossing(spec.thrust_constraint,
                                     thrust[branch], thetas[branch])

    trimmed = np.flatnonzero(np.isfinite(theta_h))
    scan_lo, scan_hi, scan_step = CRUISE_SCAN
    scan = np.arange(scan_lo, scan_hi + 0.5 * scan_step, scan_step)
    hover = bemt.OperatingPoint.from_rpm(spec.hover_rpm, rho=spec.hover_rho)
    cruise = bemt.OperatingPoint.from_rpm(spec.cruise_rpm, v_inf=spec.cruise_speed,
                                          rho=spec.cruise_rho)
    rows = bemt._collective_rows(reference, hover, theta_h[trimmed])
    for i in trimmed:
        rows += bemt._collective_rows(_blade(spec, float(radii[i]), twist), cruise, scan)
    solved = iter(bemt._curves(rows, polar, spec.n_stations).rows)
    fm[trimmed] = [math.nan if p is None else p.figure_of_merit
                   for p in itertools.islice(solved, trimmed.size)]
    for i in trimmed:
        etas = np.array([p.eta_p if p is not None and p.propulsive else -math.inf
                         for p in itertools.islice(solved, scan.size)])
        k = int(np.argmax(etas))
        if etas[k] > -math.inf and math.isfinite(fm[i]):
            eta[i], theta_c[i] = etas[k], scan[k]
    return fm, eta, theta_h, theta_c


def optimize(spec=None, workers=1):
    """Fill the radius x twist surfaces and locate the best cell.

    Infeasible cells (hover target unreachable or no cruise solution)
    carry cost -inf.  Ties resolve toward the smaller radius, then the
    smaller twist magnitude.
    """
    spec = OptimizationSpec() if spec is None else spec
    polar = airfoil.AirfoilPolar.bundled(spec.polar_name)

    radii = spec.radii()
    twists = spec.twists()

    jobs = [(spec, float(tw), polar) for tw in twists]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor   # only a pool needs its import
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
