"""End-to-end validation checks for the shipped configuration.

Each check exercises one published behavior of the toolkit at its
stated tolerance and reports a single pass/fail with the measured
numbers.  The CLI ``validate`` command and the test suite both run
these, so the gate lives in one place.
"""

import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import airfoil, bemt, explorer, powertrain, presets, wing
from .constants import G, HP_TO_W


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed: float


def _result(name, start, subchecks):
    """Combine (label, ok, text) subchecks into one line.  ``ok`` is None
    for a subcheck whose input data is absent: it is reported as skipped
    and does not fail the check."""
    passed = all(ok is None or ok for _, ok, _ in subchecks)
    parts = [f"{label} {'skipped' if ok is None else 'ok' if ok else 'FAIL'}"
             f" ({text})" for label, ok, text in subchecks]
    return CheckResult(name=name, passed=passed, detail="; ".join(parts),
                       elapsed=time.perf_counter() - start)


def check_baseline_thrust():
    """Untwisted rotor near the design collective hits the 50 N class."""
    start = time.perf_counter()
    perf = bemt.evaluate_rotor(
        presets.baseline_rotor(),
        presets.hover_op(collective=math.radians(8.5)),
        presets.symmetric_polar())
    elapsed = time.perf_counter() - start
    return _result("baseline-thrust", start, [
        ("thrust 50N +/-15%", 42.5 <= perf.thrust <= 57.5,
         f"T={perf.thrust:.2f} N"),
        ("runtime < 1 s", elapsed < 1.0, f"{elapsed:.3f} s"),
    ])


def ideal_propulsive_efficiency(perf):
    """Froude actuator-disk efficiency at the rotor's own thrust,
    2 / (1 + sqrt(1 + 2T / (rho A V^2))); nan unless T > 0 and V > 0."""
    if not (perf.thrust > 0.0 and perf.v_inf > 0.0):
        return math.nan
    area = math.pi * perf.radius ** 2
    load = 2.0 * perf.thrust / (perf.rho * area * perf.v_inf ** 2)
    return 2.0 / (1.0 + math.sqrt(1.0 + load))


def cruise_rpm_subchecks(slow, fast):
    """The cruise-RPM claim on two cruise points at one speed: both
    propulsive (T > 0 and P > 0), each below the actuator-disk ideal at its
    own thrust, and the slow rotor ahead by at least 0.10 in efficiency."""
    subchecks = []
    for perf in (slow, fast):
        rpm = f"{perf.rpm:.0f}"
        ideal = ideal_propulsive_efficiency(perf)
        subchecks.append((f"T, P > 0 at {rpm}",
                          perf.thrust > 0.0 and perf.power > 0.0,
                          f"T={perf.thrust:.2f} N, P={perf.power:.1f} W"))
        subchecks.append((f"eta({rpm}) < ideal", perf.eta_p < ideal,
                          f"{perf.eta_p:.4f} < {ideal:.4f}"))
    diff = slow.eta_p - fast.eta_p
    subchecks.append(("difference >= 0.10", diff >= 0.10, f"{diff:.4f}"))
    return subchecks


# The paper's own section polar for the Fig. 11 rotor (CSV: alpha_deg, cl,
# cd).  The repository does not hold it yet; the bundled sc1095 table is an
# assembled stand-in.  The Fig. 11 efficiency bands run once this file exists.
PAPER_POLAR_PATH = Path(__file__).parent / "data" / "sc1095_paper.csv"

# Fig. 11 levels at 20 m/s (about 0.77 and 0.61), +/-10%
FIG11_ETA_BANDS = ((2000.0, 0.69, 0.85), (3200.0, 0.53, 0.69))


def check_efficiency_bands(paper_polar=PAPER_POLAR_PATH):
    """Propulsive efficiency at the Fig. 11 point (20 m/s, 16 deg collective).

    Both RPMs propulsive and below the actuator-disk ideal, 2000 RPM ahead
    of 3200 RPM by at least 0.10, and each efficiency inside its Fig. 11
    band.  The bands are gated only with the paper's section polar at
    ``paper_polar``; without that file the bundled ``sc1095`` stand-in is
    used and the bands are reported as skipped.
    """
    start = time.perf_counter()
    paper_polar = Path(paper_polar)
    have_paper = paper_polar.is_file()
    rotor = presets.rpm_study_rotor()
    polar = (airfoil.AirfoilPolar.from_csv(paper_polar) if have_paper
             else presets.proprotor_polar())
    slow, fast = (
        bemt.evaluate_rotor(rotor, presets.cruise_op(
            collective=math.radians(16.0), rpm=rpm), polar)
        for rpm, _, _ in FIG11_ETA_BANDS)
    elapsed = time.perf_counter() - start
    bands = []
    for perf, (rpm, lo, hi) in zip((slow, fast), FIG11_ETA_BANDS):
        label = f"eta({rpm:.0f}) in [{lo:.2f}, {hi:.2f}]"
        if have_paper:
            bands.append((label, lo <= perf.eta_p <= hi, f"{perf.eta_p:.4f}"))
        else:
            bands.append((label, None, f"no paper polar {paper_polar.name}"))
    return _result("efficiency-bands", start, [
        *bands,
        *cruise_rpm_subchecks(slow, fast),
        ("runtime < 5 s", elapsed < 5.0, f"{elapsed:.3f} s"),
    ])


def check_grid_optimization():
    """Weighted radius x twist search lands in the published neighborhood."""
    start = time.perf_counter()
    result = explorer.optimize()
    elapsed = time.perf_counter() - start
    tw_deg = math.degrees(result.twist_star)
    masked_fm = np.where(result.feasible, result.fm, -np.inf)
    masked_eta = np.where(result.feasible, result.eta, -np.inf)
    i_fm = np.unravel_index(np.argmax(masked_fm), masked_fm.shape)
    i_eta = np.unravel_index(np.argmax(masked_eta), masked_eta.shape)
    fm_tw = abs(math.degrees(result.twists[i_fm[1]]))
    eta_tw = abs(math.degrees(result.twists[i_eta[1]]))
    return _result("grid-optimization", start, [
        ("R* in [0.34, 0.42] m", 0.34 <= result.r_star <= 0.42,
         f"{result.r_star:.2f} m"),
        ("twist* in [-30, -18] deg", -30.0 <= tw_deg <= -18.0,
         f"{tw_deg:.0f} deg"),
        ("FM-only argmax |twist| < 20 deg", fm_tw < 20.0, f"{fm_tw:.0f} deg"),
        ("eta-only argmax |twist| > 30 deg", eta_tw > 30.0, f"{eta_tw:.0f} deg"),
        ("runtime < 40 s", elapsed < 40.0, f"{elapsed:.1f} s"),
    ])


def check_biplane_sizing():
    """Induced-power ratios exact; planform matches the build table."""
    start = time.perf_counter()
    ratios = [
        ("ratio(1) = 0.5", abs(wing.biplane_power_ratio(1.0) - 0.5) < 1e-12),
        ("ratio(1/sqrt2) = 1", abs(wing.biplane_power_ratio(2 ** -0.5) - 1.0) < 1e-12),
        ("ratio(0.8) = 0.78125", abs(wing.biplane_power_ratio(0.8) - 0.78125) < 1e-12),
    ]
    inputs = wing.WingDesignInputs()
    sized = wing.size_biplane(inputs, presets.WING_LOADING).wing
    targets = (("area", sized.area, 0.754), ("span", sized.span, 2.29),
               ("root chord", sized.root_chord, 0.39),
               ("tip chord", sized.tip_chord, 0.176))
    planform_ok = all(abs(got / want - 1.0) <= 0.05 for _, got, want in targets)
    planform_txt = ", ".join(f"{n}={got:.3f}" for n, got, _ in targets)
    return _result("biplane-sizing", start, [
        *[(label, ok, "1e-12") for label, ok in ratios],
        ("planform within 5%", planform_ok, planform_txt),
    ])


def check_stall_loading():
    start = time.perf_counter()
    value = wing.stall_wing_loading(wing.WingDesignInputs())
    return _result("stall-loading", start, [
        ("126 +/- 12 N/m^2", abs(value - 126.0) <= 12.0, f"{value:.1f}"),
    ])


def check_power_budget():
    start = time.perf_counter()
    budget, _, _ = powertrain.design_budget()
    hover_hp = budget.hover_power / HP_TO_W
    cruise_hp = budget.cruise_power / HP_TO_W
    exact = budget.required_installed_power == budget.hover_power * 1.1
    return _result("power-budget", start, [
        ("hover 1.93 hp +/-15%", 1.6405 <= hover_hp <= 2.2195,
         f"{hover_hp:.3f} hp"),
        ("cruise 0.7 hp +/-20%", 0.56 <= cruise_hp <= 0.84,
         f"{cruise_hp:.3f} hp"),
        ("reduction >= 60%", budget.reduction_fraction >= 0.60,
         f"{budget.reduction_fraction * 100:.1f}%"),
        ("margin identity exact", exact,
         f"{budget.required_installed_power / HP_TO_W:.4f} hp"),
    ])


def check_gear_train():
    start = time.perf_counter()
    train = powertrain.build_gear_train()
    by_role = {g.role: g for g in train}
    reduction = powertrain.train_reduction(train)
    teeth_ok = [(by_role["E"].teeth, 17), (by_role["M1"].teeth, 34),
                (by_role["S1"].teeth, 68), (by_role["B"].teeth, 20)]
    diam_ok = [(by_role["E"].catalog_diameter, 20.0),
               (by_role["M1"].catalog_diameter, 40.0),
               (by_role["S1"].catalog_diameter, 80.0),
               (by_role["B"].catalog_diameter, 36.0)]
    minimum = powertrain.min_pinion_teeth(2.0)
    return _result("gear-train", start, [
        ("overall ratio exactly 4", reduction == 4.0, f"{reduction}"),
        ("catalog teeth", all(a == b for a, b in teeth_ok),
         "/".join(str(a) for a, _ in teeth_ok)),
        ("catalog diameters", all(a == b for a, b in diam_ok),
         "/".join(f"{a:.0f}" for a, _ in diam_ok)),
        ("interference minimum 15 <= 17", minimum == 15 and minimum <= 17,
         f"min={minimum}"),
    ])


def check_weight_convergence():
    start = time.perf_counter()
    subchecks = []
    for s0 in (12.0, 18.0, 25.0):
        ledger = powertrain.iterate_gross_weight(start=s0)
        iters = len(ledger.history) - 1
        ok = abs(ledger.gross_mass - 18.5) <= 0.5 and iters <= 20
        subchecks.append((f"from {s0:.0f} kg", ok,
                          f"{ledger.gross_mass:.3f} kg in {iters} iters"))
    return _result("weight-convergence", start, subchecks)


def check_simulation():
    start = time.perf_counter()
    from . import flightsim

    params = flightsim.default_params()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        cmd = flightsim.ControlCommand(
            float(rng.uniform(50.0, 400.0)), tuple(rng.uniform(-5.0, 5.0, 3)))
        cts = flightsim.allocate(cmd, params)
        got = flightsim.mixing_forward(cts, params)
        worst = max(worst, *(abs(a - b) for a, b in
                             zip(got, (cmd.thrust, *cmd.moments))))

    state = flightsim.VehicleState()
    trim = np.full(4, params.ct_hover)
    for _ in range(1000):
        state = flightsim.step_dynamics(state, trim, params, presets.MISSION_DT)
    drift = float(np.max(np.abs(state.pack())))

    pitch_map = flightsim.PitchMap.from_rotor(
        presets.final_rotor(), presets.proprotor_polar())
    log = flightsim.run_mission(presets.MISSION_WAYPOINTS, params=params,
                                pitch_map=pitch_map)
    final_error = float(np.linalg.norm(
        log.final_position - np.array([0.0, 2.0, 0.0])))
    # attitude tracking outside 1.5 s transients after each command step
    mask = np.ones(log.time.size, dtype=bool)
    for switch in (0.0, *log.capture_times[:-1]):
        mask &= ~((log.time >= switch) & (log.time < switch + 1.5))
    att_err = float(np.max(np.degrees(np.abs(
        log.euler - log.euler_desired))[mask, :2]))
    elapsed = time.perf_counter() - start
    return _result("simulation", start, [
        ("allocation round-trip < 1e-12", worst < 1e-12, f"{worst:.1e}"),
        ("hover drift < 1e-9 over 1000 steps", drift < 1e-9, f"{drift:.1e}"),
        ("final within 0.1 m of (0,2,0)", final_error <= 0.1,
         f"{final_error:.3f} m"),
        ("attitude error < 5 deg settled", att_err < 5.0, f"{att_err:.2f} deg"),
        ("runtime < 5 s", elapsed < 5.0, f"{elapsed:.1f} s"),
    ])


def check_solver_validity():
    """Internal consistency of the rotor solver on the design case."""
    start = time.perf_counter()
    rotor = presets.final_rotor()
    polar = presets.proprotor_polar()
    op = presets.hover_op(collective=math.radians(6.0))
    _, inflow = bemt.evaluate_rotor(rotor, op, polar, return_inflow=True)
    residual = float(np.max(np.abs(inflow.residual)))
    f_ok = bool(np.all((inflow.tip_loss > 0.0) & (inflow.tip_loss <= 1.0)))
    perf = bemt.evaluate_rotor(rotor, op, polar)
    fm_ok = 0.0 < perf.figure_of_merit <= 1.0
    ct_128 = bemt.evaluate_rotor(rotor, op, polar, n_stations=128).ct
    ct_256 = bemt.evaluate_rotor(rotor, op, polar, n_stations=256).ct
    grid_err = abs(ct_128 - ct_256)
    ct_a = bemt.evaluate_rotor(rotor, presets.hover_op(
        collective=math.radians(6.0), rpm=2000.0), polar).ct
    omega_err = abs(ct_a - perf.ct)
    return _result("solver-validity", start, [
        ("residual < 1e-10", residual < 1e-10, f"{residual:.1e}"),
        ("tip loss in (0, 1]", f_ok, "all stations"),
        ("FM in (0, 1]", fm_ok, f"{perf.figure_of_merit:.4f}"),
        ("grid refinement |dCT| < 1e-3", grid_err < 1e-3, f"{grid_err:.1e}"),
        ("hover CT independent of RPM", omega_err < 1e-12, f"{omega_err:.1e}"),
    ])


ALL_CHECKS = (
    check_baseline_thrust,
    check_efficiency_bands,
    check_grid_optimization,
    check_biplane_sizing,
    check_stall_loading,
    check_power_budget,
    check_gear_train,
    check_weight_convergence,
    check_simulation,
    check_solver_validity,
)


def run_all(fast=False):
    results = []
    for check in ALL_CHECKS:
        if fast and check is check_grid_optimization:
            continue
        results.append(check())
    return results
