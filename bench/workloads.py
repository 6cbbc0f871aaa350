"""Workload inputs and output checks for the designkit benchmark.

Every workload is a list of CLI commands (operations) that one caller
runs back to back.  Seed 0 runs the shipped inputs, and every output is
compared with the reference outputs in ``reference/``, which were
recorded by ``record_reference.py`` before any solver change.  Other seeds
jitter the inputs (grid origin, sweep speeds and collectives, waypoint
square), and their outputs are checked with invariants instead.
Commands whose inputs no seed changes are compared with the reference
on every seed.
"""

import json
import math
import random
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"
WORKLOADS = ("design_grid", "studies", "mission")
ITEM_NAMES = {"design_grid": "cells_per_s", "studies": "points_per_s",
              "mission": "sim_steps_per_s"}

G = 9.81            # designkit.constants.G
TRIM_TOL_N = 0.1    # trim_collective's default thrust tolerance
REL_TOL = 1e-9      # reference agreement, relative to max(1, |ref|)


@dataclass
class Op:
    """One CLI command, the directory it writes to and how to check it."""

    name: str
    argv: list
    out: Path
    checks: list = field(default_factory=list)   # callables(out) -> [str]
    items: int = 0                               # work items it completes

    def problems(self):
        found = []
        for check in self.checks:
            try:
                found += check(self.out)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                found.append(f"{self.name}: unreadable output ({exc!r})")
        return found


# ---------------------------------------------------------------------------
# comparison with the recorded reference

def _close(value, ref, places=None):
    if math.isnan(ref) or math.isnan(value):
        return math.isnan(ref) and math.isnan(value)
    if math.isinf(ref) or math.isinf(value):
        return value == ref
    tol = REL_TOL * max(1.0, abs(ref))
    if places is not None:
        tol += 10.0 ** places   # one unit in the last printed digit
    return abs(value - ref) <= tol


def _last_place(token):
    try:
        exponent = Decimal(token).as_tuple().exponent
    except InvalidOperation:
        return None
    return exponent if isinstance(exponent, int) else None


def _number(token):
    if token == "":
        return math.nan
    try:
        return float(token)
    except ValueError:
        return None


def compare_csv(path, ref_path):
    """Cell-by-cell agreement: numbers to 1e-9 up to the printed rounding
    (NaN and infinities must match exactly), text exactly."""
    got = Path(path).read_text().splitlines()
    ref = Path(ref_path).read_text().splitlines()
    if len(got) != len(ref):
        return [f"{path}: {len(got)} lines, reference has {len(ref)}"]
    for lineno, (g_line, r_line) in enumerate(zip(got, ref), start=1):
        g_cells, r_cells = g_line.split(","), r_line.split(",")
        if len(g_cells) != len(r_cells):
            return [f"{path}:{lineno}: column count differs from reference"]
        for g, r in zip(g_cells, r_cells):
            r_num, g_num = _number(r), _number(g)
            if r_num is None or g_num is None:
                ok = g == r
            else:
                ok = _close(g_num, r_num, _last_place(r))
            if not ok:
                return [f"{path}:{lineno}: {g!r} != reference {r!r}"]
    return []


def _compare_tree(got, ref, where):
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return [f"{where}: keys differ from reference"]
        return [p for k in sorted(ref)
                for p in _compare_tree(got[k], ref[k], f"{where}.{k}")]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{where}: length differs from reference"]
        return [p for i, (g, r) in enumerate(zip(got, ref))
                for p in _compare_tree(g, r, f"{where}[{i}]")]
    if isinstance(ref, bool) or not isinstance(ref, (int, float)):
        return [] if got == ref else [f"{where}: {got!r} != reference {ref!r}"]
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        return [f"{where}: {got!r} is not a number"]
    return [] if _close(float(got), float(ref)) else \
        [f"{where}: {got!r} != reference {ref!r}"]


def compare_json(path, ref_path):
    return _compare_tree(json.loads(Path(path).read_text()),
                         json.loads(Path(ref_path).read_text()), str(path))


def matches_reference(workload, op_name, *files):
    """Check that compares each named artifact with its reference copy."""
    def check(out):
        problems = []
        for name in files:
            ref = REFERENCE / workload / op_name / name
            compare = compare_json if name.endswith(".json") else compare_csv
            problems += compare(out / name, ref)
        return problems
    return check


# ---------------------------------------------------------------------------
# invariants

def _read_rows(path):
    lines = Path(path).read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _surface(path):
    header, rows = _read_rows(path)
    return [[_number(c) for c in row[1:]] for row in rows], header, rows


def optimize_invariants(weights):
    """FM in (0, 1], eta in (0, 1), cost = w.(FM, eta) on feasible cells,
    cost = -inf elsewhere, and the reported optimum is the best cell."""
    w_fm, w_eta = weights

    def check(out):
        cost, header, rows = _surface(out / "surface_cost.csv")
        fm, _, _ = _surface(out / "surface_fm.csv")
        eta, _, _ = _surface(out / "surface_eta.csv")
        summary = json.loads((out / "optimization.json").read_text())
        problems, best = [], None
        for i, row in enumerate(cost):
            for j, c in enumerate(row):
                if c == -math.inf:
                    continue
                if not (0.0 < fm[i][j] <= 1.0 and 0.0 < eta[i][j] < 1.0):
                    problems.append(f"optimize: cell ({i}, {j}) has FM "
                                    f"{fm[i][j]} / eta {eta[i][j]} out of range")
                elif abs(c - (w_fm * fm[i][j] + w_eta * eta[i][j])) > 1e-7:
                    problems.append(f"optimize: cell ({i}, {j}) cost {c} "
                                    "is not the weighted FM and eta")
                if best is None or c > best:
                    best = c
        if best is None:
            return problems + ["optimize: no feasible cell"]
        # the reported optimum is a cell whose cost is the best cost
        i = min(range(len(rows)),
                key=lambda k: abs(float(rows[k][0]) - summary["R_star_m"]))
        j = min(range(len(header) - 1),
                key=lambda k: abs(float(header[k + 1]) - summary["twist_star_deg"]))
        if not (abs(summary["cost_star"] - best) <= 1e-7
                and abs(cost[i][j] - best) <= 1e-7):
            problems.append(f"optimize: reported optimum {summary} is not "
                            f"a best cell (best cost {best})")
        return problems
    return check


def sweep_invariants(response, n_points):
    """Every row finite; efficiencies in (0, 1); no more rows than points."""
    def check(out):
        _, rows = _read_rows(out / "sweep.csv")
        problems = []
        if not 0 < len(rows) <= n_points:
            problems.append(f"sweep: {len(rows)} rows for {n_points} points")
        for row in rows:
            x, y = float(row[2]), float(row[3])
            if not (math.isfinite(x) and math.isfinite(y)):
                problems.append(f"sweep: non-finite row {row}")
            elif response == "eta_vs_V" and not 0.0 < y < 1.0:
                problems.append(f"sweep: eta {y} outside (0, 1) at {row}")
        return problems[:5]
    return check


def analyze_invariants(hover):
    def check(out):
        header, rows = _read_rows(out / "performance.csv")
        perf = dict(zip(header, rows[0]))
        if hover:
            fm = _number(perf["FM"])
            ok = 0.0 < fm <= 1.0 and float(perf["T_N"]) > 0.0
            return [] if ok else [f"analyze: hover FM {fm} outside (0, 1]"]
        eta = float(perf["eta_p"])
        return [] if 0.0 < eta < 1.0 else [f"analyze: cruise eta {eta} outside (0, 1)"]
    return check


def budget_trims(out):
    """Both trimmed points meet their thrust targets within tolerance."""
    details = json.loads((out / "budget.json").read_text())["details"]
    problems = []
    hover_target = details["gross_mass_kg"] * G / 4.0
    if abs(details["hover_thrust_per_rotor_n"] - hover_target) > TRIM_TOL_N:
        problems.append(f"budget: hover trim {details['hover_thrust_per_rotor_n']} "
                        f"N misses {hover_target} N")
    cruise_target = details["cruise_drag_n"] / 4.0
    if abs(details["cruise_thrust_per_rotor_n"] - cruise_target) > TRIM_TOL_N:
        problems.append(f"budget: cruise trim {details['cruise_thrust_per_rotor_n']} "
                        f"N misses {cruise_target} N")
    return problems


# ---------------------------------------------------------------------------
# workloads

def _load_spec(path):
    return json.loads(Path(path).read_text())


def _grid_size(lo, hi, step):
    return int(round((hi - lo) / step)) + 1


def _fmt(values):
    return json.dumps([round(v, 12) for v in values])


def design_grid(seed, work):
    """``optimize`` on a 9 x 5 slice of the fig12 grid (45 cells)."""
    radius = [0.30, 0.46, 0.02]
    twist = [-40.0, -8.0, 8.0]
    if seed:
        rng = random.Random(seed)
        dr = rng.uniform(-0.5, 0.5) * radius[2]
        dt = rng.uniform(-0.5, 0.5) * twist[2]
        radius = [radius[0] + dr, radius[1] + dr, radius[2]]
        twist = [twist[0] + dt, twist[1] + dt, twist[2]]
    spec = _load_spec("figures/fig12.json")
    out = work / "optimize"
    op = Op("optimize",
            ["optimize", "--spec", "figures/fig12.json",
             "--set", f"radius_grid_m={_fmt(radius)}",
             "--set", f"twist_grid_deg={_fmt(twist)}", "--out", str(out)],
            out, items=_grid_size(*radius) * _grid_size(*twist))
    op.checks.append(optimize_invariants(spec["weights"]))
    if not seed:
        op.checks.append(matches_reference(
            "design_grid", "optimize", "optimization.json",
            "surface_cost.csv", "surface_fm.csv", "surface_eta.csv"))
    return [op]


def studies(seed, work):
    """A designer's batch: three sweeps, budget, two analyze points, wing,
    gears and weights."""
    rng = random.Random(seed)
    ops = []

    def add(name, argv, checks, items=0, jitter=()):
        out = work / name
        op = Op(name, argv + list(jitter if seed else ()) + ["--out", str(out)],
                out, list(checks), items)
        ops.append(op)
        return op

    for fig, key in (("fig10b", "speeds"), ("fig09", "collectives_deg"),
                     ("fig11", "speeds")):
        path = f"figures/{fig}.json"
        spec = _load_spec(path)
        if key == "speeds":
            base, shift = spec["speeds"], rng.uniform(-0.5, 0.5)
        else:   # explorer.DEFAULT_COLLECTIVES, in degrees
            base, shift = [0.5 * k for k in range(41)], rng.uniform(-0.25, 0.25)
        jitter = ("--set", f"{key}={_fmt([v + shift for v in base])}")
        n_points = len(spec["values"]) * len(base)
        op = add(f"sweep_{fig}", ["sweep", "--spec", path],
                 [sweep_invariants(spec["response"], n_points)],
                 items=n_points, jitter=jitter)
        if not seed:
            op.checks.append(matches_reference("studies", op.name, "sweep.csv"))

    # trimmed points: design_budget trims hover and cruise, for budget
    # and again for gears
    add("budget", ["budget"],
        [budget_trims, matches_reference("studies", "budget", "budget.json")],
        items=2)
    for name, argv, hover in (
            ("analyze_hover", ["analyze", "--collective"], True),
            ("analyze_cruise", ["analyze", "--rpm", "2000", "--v-inf", "20",
                                "--rho", "1.167", "--collective"], False)):
        collective = 8.0 if hover else 16.0
        if seed:
            collective += rng.uniform(-1.0, 1.0)
        op = add(name, argv + [repr(collective)], [analyze_invariants(hover)])
        if not seed:
            op.checks.append(matches_reference("studies", name, "performance.csv"))
    add("wing", ["wing", "--spec", "configs/wing.json"],
        [matches_reference("studies", "wing", "wing.json", "wing_loading.csv")])
    add("gears", ["gears"],
        [matches_reference("studies", "gears", "gears.json")], items=2)
    add("weights", ["weights"],
        [matches_reference("studies", "weights", "weights.csv", "weights.json")])
    return ops


def mission_inputs(seed):
    """Mission spec as the CLI reads it.  Other seeds turn the waypoint
    square about the start point, which keeps every leg's length (and so
    the amount of simulation) about the same."""
    spec = _load_spec("configs/mission.json")
    spec = {k: v for k, v in spec.items() if not k.startswith("_")}
    if seed:
        turn = math.radians(random.Random(seed).uniform(-180.0, 180.0))
        c, s = math.cos(turn), math.sin(turn)
        spec["waypoints"] = [[round(c * x - s * y, 9), round(s * x + c * y, 9),
                              z, yaw]
                             for x, y, z, yaw in spec["waypoints"]]
    return spec


def mission(seed, work):
    """``simulate`` over the (jittered) five-waypoint square.  The check
    is that the CLI trajectory equals the one the public API produces for
    the same inputs, and that this API run passes ``check_mission_log``."""
    text, log, spec = mission_reference_run(seed)
    api_problems = check_mission_log(seed, log, spec)
    out = work / "simulate"
    argv = ["simulate", "--mission", "configs/mission.json", "--out", str(out)]
    if seed:
        argv[3:3] = ["--set", f"waypoints={json.dumps(spec['waypoints'])}"]

    def same_as_api(out):
        same = (out / "trajectory.csv").read_text() == text
        return api_problems + ([] if same else
                               ["simulate: trajectory differs from run_mission"])
    return [Op("simulate", argv, out, [same_as_api], items=int(log.time.size))]


def mission_reference_run(seed):
    """Fly the mission through the public API; returns (csv_text, log, spec)."""
    from designkit import flightsim, presets
    from designkit.airfoil import AirfoilPolar

    spec = mission_inputs(seed)
    pitch_map = flightsim.PitchMap.from_rotor(
        presets.final_rotor(), AirfoilPolar.bundled("sc1095"))
    log = flightsim.run_mission(
        [(x, y, z, math.radians(yaw)) for x, y, z, yaw in spec["waypoints"]],
        params=flightsim.default_params(), dt=spec["dt_s"],
        capture_radius=spec["capture_radius_m"], timeout=spec["timeout_s"],
        pitch_map=pitch_map)
    return "\n".join(log.csv_lines()) + "\n", log, spec


def mission_summary(log):
    return {"capture_times_s": [float(t) for t in log.capture_times],
            "final_position_m": [float(v) for v in log.final_position],
            "steps": int(log.time.size)}


def check_mission_log(seed, log, spec):
    """Every waypoint captured and the run ends inside the capture radius;
    seed 0 also matches the recorded capture times and final position."""
    problems = []
    waypoints = spec["waypoints"]
    if len(log.capture_times) != len(waypoints):
        problems.append(f"mission: {len(log.capture_times)} of "
                        f"{len(waypoints)} waypoints captured")
    miss = math.dist(log.final_position, waypoints[-1][:3])
    if miss > spec["capture_radius_m"]:
        problems.append(f"mission: ends {miss:.3f} m from the last waypoint")
    if not seed:
        ref = json.loads((REFERENCE / "mission" / "mission.json").read_text())
        problems += _compare_tree(mission_summary(log), ref, "mission")
    return problems


def build(workload, seed, work):
    """Operations of one pass of ``workload`` for ``seed``."""
    builders = {"design_grid": design_grid, "studies": studies,
                "mission": mission}
    return builders[workload](seed, Path(work) / workload)
