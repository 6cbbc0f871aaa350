"""Command-line wiring: artifacts, overrides, and error serialization.

Every invocation goes through ``main(argv)`` so the tests cover exactly
what a shell user gets: CSV/JSON on stdout or in ``--out``, exit status
1 with a machine-readable JSON error on stderr for domain failures, and
exit status 2 for usage errors.
"""

import importlib
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from designkit import acceptance, bemt, cli, explorer, powertrain, presets, schema, wing
from designkit.cli import main
from designkit import errors
from designkit.errors import DesignError, NoRootError, SimulationAbort

REPO = Path(__file__).resolve().parent.parent
FIGURES = REPO / "figures"
CONFIGS = REPO / "configs"
DATA = Path(__file__).resolve().parent / "data"


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.mark.parametrize("command", [
    "analyze", "sweep", "optimize", "wing", "gears", "budget", "weights",
    "simulate", "validate"])
def test_help_exits_clean(command, capsys):
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    assert command in capsys.readouterr().out


def run_python(*args, timeout=60):
    """``python *args`` in a fresh interpreter that finds designkit under
    ``src``; a run that outlasts ``timeout`` seconds fails the test instead
    of hanging it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=timeout)


def run_module(*argv, timeout=60):
    """``python -m designkit`` in a fresh interpreter."""
    return run_python("-m", "designkit", *argv, timeout=timeout)


def designkit_modules(code):
    """The designkit modules a fresh interpreter has loaded after ``code``."""
    done = run_python("-c", code + "\nimport json, sys\nprint(json.dumps("
                      "[m for m in sys.modules if m.startswith('designkit')]))")
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


# what ``import designkit.cli`` loads: the parser and the key tables
# need no solver and no study
CLI_MODULES = {"designkit", "designkit.cli", "designkit.airfoil", "designkit.constants",
               "designkit.errors", "designkit.presets", "designkit.schema"}


def test_cli_start_loads_no_solver():
    assert designkit_modules(
        "import designkit.cli\n"
        "from designkit.airfoil import AirfoilPolar\n"
        "AirfoilPolar.bundled('sc1095')\n"
        "AirfoilPolar.bundled('naca0012')") == CLI_MODULES | {"designkit.data"}


@pytest.mark.parametrize("argv, extra", [
    (["analyze"], {"bemt", "data"}),
    (["optimize", "--set", "bogus=1"], {"bemt", "explorer"}),
    (["wing"], {"wing"}),
    (["weights"], {"powertrain"}),
    (["budget"], {"powertrain", "explorer", "bemt", "wing", "data"}),
    (["simulate", "--set", "bogus=1"], {"bemt", "flightsim"}),
], ids=["analyze", "optimize", "wing", "weights", "budget", "simulate"])
def test_command_loads_only_what_it_runs(argv, extra):
    """Each command, in a fresh interpreter, loads the CLI's own modules
    and the ones it executes, no more (``data`` where it reads a bundled
    polar)."""
    assert designkit_modules(f"from designkit.cli import main\nmain({argv!r})") == \
        CLI_MODULES | {f"designkit.{name}" for name in extra}


def test_python_dash_m_entry_point():
    done = run_module("gears")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)


def test_no_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def column(header, row, name):
    return float(row.split(",")[header.split(",").index(name)])


def test_analyze_stdout(capsys):
    rc, out, err = run(capsys, "analyze", "--rotor", "baseline",
                       "--polar", "naca0012", "--collective", "8.5")
    assert rc == 0 and err == ""
    header, row, _ = out.split("\n")
    assert header == bemt.RotorPerformance.CSV_HEADER
    assert column(header, row, "T_N") == pytest.approx(55.92, abs=0.05)


@pytest.mark.parametrize("v_inf, collective", [("60", "2"), ("1e6", "0")])
def test_analyze_leaves_eta_blank_when_windmilling(capsys, v_inf, collective):
    """A windmilling rotor (T < 0, P < 0) has CT mu / CP > 0, even above
    1, but no propulsive efficiency: the eta_p field stays empty."""
    rc, out, _ = run(capsys, "analyze", "--v-inf", v_inf, "--collective", collective)
    assert rc == 0
    header, row, _ = out.split("\n")
    fields = dict(zip(header.split(","), row.split(",")))
    assert float(fields["T_N"]) < 0.0 and float(fields["P_W"]) < 0.0
    assert fields["eta_p"] == "" and fields["FM"] == ""


def test_analyze_rotor_file(capsys):
    rc, out, _ = run(capsys, "analyze", "--rotor", str(CONFIGS / "baseline.json"),
                     "--polar", "naca0012", "--collective", "8.5")
    assert rc == 0
    header, row, _ = out.split("\n")
    assert column(header, row, "T_N") == pytest.approx(55.92, abs=0.05)


def test_analyze_unknown_rotor(capsys):
    rc, out, err = run(capsys, "analyze", "--rotor", "missing.json")
    assert rc == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "ConfigError"
    assert "preset" in payload["message"]


def test_sweep_recipe_artifact(tmp_path, capsys):
    rc, out, _ = run(capsys, "sweep", "--spec", str(FIGURES / "fig07.json"),
                     "--out", str(tmp_path))
    assert rc == 0
    target = tmp_path / "sweep.csv"
    assert out.strip() == str(target)
    lines = target.read_text().strip().split("\n")
    assert lines[0] == "param_name,param_value,x,y"
    assert len(lines) == 1 + 25                      # 0..12 deg by 0.5
    at_design = [line for line in lines[1:]
                 if abs(float(line.split(",")[2]) - 8.5) < 1e-9]
    assert len(at_design) == 1
    assert float(at_design[0].split(",")[3]) == pytest.approx(55.92, abs=0.05)


def test_sweep_set_override(capsys):
    rc, out, _ = run(capsys, "sweep", "--spec", str(FIGURES / "fig07.json"),
                     "--set", "collectives_deg=[4, 8]")
    assert rc == 0
    lines = out.strip().split("\n")
    assert len(lines) == 1 + 2
    assert [float(line.split(",")[2]) for line in lines[1:]] == [4.0, 8.0]


@pytest.mark.parametrize("figure", ["fig07", "fig11"])
def test_sweep_writes_no_non_finite_rows(figure, capsys):
    """An rpm whose omega overflows makes infinite or nan loads; those
    points become gaps ("non-finite load"), and the finite value's rows
    are written as before."""
    rc, out, err = run(capsys, "sweep", "--spec", str(FIGURES / f"{figure}.json"),
                       "--set", "values=[3200, 1e308]")
    assert (rc, err) == (0, "")
    lines = out.strip().split("\n")
    assert len(lines) > 1 and all(line.startswith("rpm,3200,") for line in lines[1:])
    assert all(math.isfinite(float(x)) for line in lines[1:] for x in line.split(",")[1:])
    spec = cli._sweep_spec_from_json(cli._load_json(FIGURES / f"{figure}.json",
                                                    ["values=[1e308]"]))
    table = explorer.run_sweep(spec)
    assert table.rows == () and {gap[2] for gap in table.gaps} == {"non-finite load"}


# the commands of one seed-0 pass of the benchmark's studies workload
STUDIES = (
    ["sweep", "--spec", str(FIGURES / "fig10b.json")],
    ["sweep", "--spec", str(FIGURES / "fig09.json")],
    ["sweep", "--spec", str(FIGURES / "fig11.json")],
    ["budget"],
    ["analyze", "--collective", "8.0"],
    ["analyze", "--rpm", "2000", "--v-inf", "20", "--rho", "1.167", "--collective", "16.0"],
    ["wing", "--spec", str(CONFIGS / "wing.json")],
    ["gears"],
    ["weights"],
)


def test_studies_make_few_inflow_solves(tmp_path, capsys, monkeypatch):
    """A sweep solves the rows of all its values together, in chunks of at
    most BLOCK stations, and a design budget solves its hover and cruise
    trims together, two bisection steps a solve: the studies take at most
    17 inflow solves (38 with one solve per curve and per step)."""
    solves = []
    solve = bemt._solve_phi_grid

    def count(*args):
        solves.append(args)
        return solve(*args)
    monkeypatch.setattr(bemt, "_solve_phi_grid", count)
    for i, argv in enumerate(STUDIES):
        assert main(argv + ["--out", str(tmp_path / str(i))]) == 0
    capsys.readouterr()
    assert len(solves) <= 17


# the command of one seed-0 pass of the benchmark's design_grid workload
DESIGN_GRID = ["optimize", "--spec", str(FIGURES / "fig12.json"),
               "--set", "radius_grid_m=[0.3, 0.46, 0.02]", "--set", "twist_grid_deg=[-40, -8, 8]"]


def test_design_grid_makes_two_inflow_solves_per_twist(tmp_path, capsys, monkeypatch):
    """Each twist of the grid solves its hover reference curve, then the
    figures of merit and cruise scans of its trimmed radii together: the
    five twists take at most 10 inflow solves (15 with the figures of
    merit solved apart from the cruise scans)."""
    solves = []
    solve = bemt._solve_phi_grid

    def count(*args):
        solves.append(args)
        return solve(*args)
    monkeypatch.setattr(bemt, "_solve_phi_grid", count)
    assert main(DESIGN_GRID + ["--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert len(solves) <= 10


def test_sweep_unknown_preset(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(
        {"rotor_preset": "bogus", "parameter": "rpm", "values": [3200]}))
    rc, _, err = run(capsys, "sweep", "--spec", str(spec))
    assert rc == 1
    payload = json.loads(err)
    assert payload["error"] == "ConfigError"
    assert "rotor_preset" in payload["message"]


def test_malformed_override(capsys):
    rc, _, err = run(capsys, "sweep", "--spec", str(FIGURES / "fig07.json"),
                     "--set", "novalue")
    assert rc == 1
    assert json.loads(err)["error"] == "ConfigError"


@pytest.mark.parametrize("command", ["analyze", "gears", "budget", "weights", "validate"])
def test_set_only_where_a_spec_is_read(command, capsys):
    """Commands that read no spec have no --set to drop silently."""
    with pytest.raises(SystemExit) as info:
        main([command, "--set", "bogus=1"])
    assert info.value.code == 2
    assert "--set" in capsys.readouterr().err


def test_wing_artifacts_idempotent(tmp_path, capsys):
    args = ("wing", "--spec", str(CONFIGS / "wing.json"))
    rc, out, _ = run(capsys, *args)
    assert rc == 0
    payload = json.loads(out)
    assert payload["sizing"]["wing"]["root_chord_m"] == pytest.approx(
        0.3911, abs=5e-4)
    assert payload["stall_wing_loading_n_m2"] == pytest.approx(126.036, abs=1e-3)

    a, b = tmp_path / "a", tmp_path / "b"
    for out_dir in (a, b):
        rc, _, _ = run(capsys, *args, "--out", str(out_dir))
        assert rc == 0
    for name in ("wing.json", "wing_loading.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_gears_payload(capsys):
    rc, out, _ = run(capsys, "gears")
    assert rc == 0
    payload = json.loads(out)
    assert payload["overall_reduction"] == 4.0
    assert payload["min_pinion_teeth_ratio_2"] == 15
    assert payload["pinion_required_face_width_mm"] == pytest.approx(4.4,
                                                                     abs=0.05)
    assert len(payload["gears"]) == 6
    assert {g["role"] for g in payload["gears"]} == \
        {"E", "M1", "M2", "S1", "S2", "B"}


def test_budget_payload(capsys):
    rc, out, _ = run(capsys, "budget")
    assert rc == 0
    payload = json.loads(out)
    assert payload["budget"]["reduction_fraction"] == pytest.approx(0.7085,
                                                                    abs=1e-3)
    assert payload["budget"]["hover_power_hp"] == pytest.approx(2.103, abs=2e-3)
    assert payload["details"]["cruise_collective_deg"] == pytest.approx(
        15.5, abs=0.1)


def test_weights_artifacts(tmp_path, capsys):
    rc, out, _ = run(capsys, "weights", "--out", str(tmp_path))
    assert rc == 0
    csv = (tmp_path / "weights.csv").read_text().strip().split("\n")
    assert csv[0] == "component,unit_kg,qty,total_kg"
    assert csv[-1].startswith("total,,,18.50")
    payload = json.loads((tmp_path / "weights.json").read_text())
    assert payload["gross_mass_kg"] == pytest.approx(18.505, abs=0.01)
    assert payload["iterations"] <= 20
    assert payload["history_kg"][0] == 16.0


@pytest.mark.parametrize("flag, value", [
    ("--tolerance", "nan"), ("--tolerance", "inf"), ("--start", "inf"),
    ("--start", "-inf"), ("--start", "nan"), ("--payload", "nan"), ("--payload", "inf")])
def test_weights_refuses_non_finite_flags(capsys, flag, value):
    """A NaN or infinite flag is a ConfigError naming it, not 50 passes
    that end in a DivergenceError with a null history."""
    rc, _, err = run(capsys, "weights", f"{flag}={value}")
    assert_config_error(rc, err, flag.removeprefix("--"))


def test_weights_far_start_diverges(capsys):
    rc, _, err = run(capsys, "weights", "--start", "1e308")
    assert rc == 1
    payload = strict_json(err)
    assert payload["error"] == "DivergenceError"
    assert len(payload["history"]) == 51


@pytest.mark.parametrize("margin", ["nan", "inf", "-inf"])
def test_budget_refuses_non_finite_margin(capsys, margin):
    rc, _, err = run(capsys, "budget", f"--margin={margin}")
    assert_config_error(rc, err, "margin")


def test_budget_refuses_a_bad_margin_before_it_solves(capsys, monkeypatch):
    """The margin is checked before the weight loop and the trims run."""
    def no_solve(*args):
        raise AssertionError("budget solved before refusing its margin")
    monkeypatch.setattr(bemt, "_curves", no_solve)
    monkeypatch.setattr(powertrain, "iterate_gross_weight", no_solve)
    rc, _, err = run(capsys, "budget", "--margin=nan")
    assert_config_error(rc, err, "margin")


def test_budget_negative_margin_is_an_answer(capsys):
    rc, out, _ = run(capsys, "budget", "--margin", "-0.5")
    assert rc == 0
    budget = strict_json(out)["budget"]
    assert budget["margin_fraction"] == -0.5
    assert budget["required_installed_power_w"] == 0.5 * budget["hover_power_w"]


def test_optimize_refuses_non_positive_aspect_ratio(capsys):
    """OptimizationSpec takes any aspect ratio; the grid's first blade
    refuses a negative one with a GeometryError."""
    rc, _, err = run(capsys, "optimize", "--set", "aspect_ratio=-1",
                     "--set", "radius_grid_m=[0.38, 0.38, 0.01]",
                     "--set", "twist_grid_deg=[-26, -26, 1]")
    assert rc == 1
    payload = strict_json(err)
    assert payload["error"] == "GeometryError"
    assert "aspect_ratio and taper_ratio must be positive" in payload["message"]


def test_optimize_via_overrides(tmp_path, capsys):
    rc, out, _ = run(capsys, "optimize", "--workers", "1",
                     "--set", "radius_grid_m=[0.37, 0.38, 0.01]",
                     "--set", "twist_grid_deg=[-27, -25, 1]",
                     "--set", "n_stations=60",
                     "--out", str(tmp_path))
    assert rc == 0
    payload = json.loads((tmp_path / "optimization.json").read_text())
    assert set(payload) == {"R_star_m", "twist_star_deg", "cost_star"}
    assert 0.37 <= payload["R_star_m"] <= 0.38
    assert -27.0 <= payload["twist_star_deg"] <= -25.0
    for name in ("cost", "fm", "eta"):
        surface = (tmp_path / f"surface_{name}.csv").read_text().strip()
        lines = surface.split("\n")
        assert len(lines) == 1 + 2                   # header + two radii
        assert len(lines[1].split(",")) == 1 + 3     # radius + three twists


def test_simulate_mission_config(capsys):
    rc, out, _ = run(capsys, "simulate",
                     "--mission", str(CONFIGS / "mission.json"))
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("t,x,y,z,")
    assert len(lines) > 1000
    final = lines[-1].split(",")
    x, y, z = float(final[1]), float(final[2]), float(final[3])
    assert abs(x) < 0.1 and abs(y - 2.0) < 0.1 and abs(z) < 0.1


@pytest.mark.parametrize("rotor", ["final", "baseline"])
def test_simulate_sizes_thrust_on_the_chosen_rotor(capsys, rotor):
    """Once the climb settles, the logged collective makes a quarter of
    the logged thrust on the rotor the pitch map was built from."""
    rc, out, _ = run(capsys, "simulate", "--rotor", rotor,
                     "--set", "waypoints=[[0, 0, -1, 0]]")
    assert rc == 0
    header, *_, last = out.strip().split("\n")
    op = presets.hover_op(collective=column(header, last, "theta01"))
    perf = bemt.evaluate_rotor(presets.ROTORS[rotor](), op,
                               presets.proprotor_polar())
    assert perf.thrust == pytest.approx(column(header, last, "T") / 4.0, rel=0.01)


def test_simulate_timeout_error(capsys):
    rc, _, err = run(capsys, "simulate",
                     "--set", "waypoints=[[50, 0, 0, 0]]",
                     "--set", "timeout_s=0.5")
    assert rc == 1
    payload = json.loads(err)
    assert payload["error"] == "MissionTimeout"
    assert payload["waypoint_index"] == 0
    assert payload["remaining_m"] > 40.0


def test_validate_formatting(capsys, monkeypatch):
    seen = {}

    def fake_run_all(fast=False):
        seen["fast"] = fast
        return [acceptance.CheckResult("alpha", True, "fine", 0.1),
                acceptance.CheckResult("beta", False, "broken", 0.2)]

    monkeypatch.setattr(acceptance, "run_all", fake_run_all)
    rc, out, _ = run(capsys, "validate", "--fast")
    assert rc == 1
    assert seen["fast"] is True
    lines = out.strip().split("\n")
    assert lines[0].startswith("alpha") and "PASS" in lines[0]
    assert lines[1].startswith("beta") and "FAIL" in lines[1]
    assert lines[-1] == "1 failing / 2 checks"


# ---------------------------------------------------------------------------
# config mistakes and error payloads

def strict_json(text):
    """Parse JSON that must not hold NaN or Infinity."""
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)


def assert_config_error(rc, err, *names):
    assert rc == 1
    payload = strict_json(err)
    assert payload["error"] == "ConfigError"
    for name in names:
        assert name in payload["message"]


@pytest.mark.parametrize("overrides", [
    ("dt_s=1e-9", "waypoints=[[0,0,-1,0]]"),
    ("timeout_s=1e300", "waypoints=[[1e9,0,-1,0]]"),
], ids=["tiny-dt", "huge-timeout"])
def test_simulate_refuses_unbounded_missions(overrides):
    """Spans of billions of steps per waypoint are refused before the
    first step, in a fresh interpreter well inside the time limit."""
    argv = ["simulate"] + [a for o in overrides for a in ("--set", o)]
    done = run_module(*argv, timeout=10)
    assert_config_error(done.returncode, done.stderr, "timeout / dt", "cap of")


@pytest.mark.parametrize("argv, error, words", [
    (["optimize", "--set", "radius_grid_m=[0.3,1e300,1e-300]"], "ConfigError",
     ("radius_grid", "cap is")),
    (["optimize", "--set", "twist_grid_deg=[-40,-8,1e-9]"], "ConfigError",
     ("twist_grid", "cap is")),
    (["analyze", "--n-stations", "1000000000000"], "GeometryError",
     ("stations", "1000000000000")),
    (["optimize", "--set", "n_stations=1000000000000"], "GeometryError",
     ("stations", "1000000000000")),
    (["optimize", "--set", "radius_grid_m=[0.2,1.199,0.001]",
      "--set", "twist_grid_deg=[-45,-8,0.05]"], "ConfigError",
     ("1000 x 741", "741000 cells", "cap is 100000")),
], ids=["radius-grid", "twist-grid", "analyze-stations", "optimize-stations",
        "grid-cells"])
def test_refuses_unbounded_sizes(argv, error, words):
    """Grids and station counts past their caps are refused before any
    array is sized by them, in a fresh interpreter well inside the time
    limit."""
    done = run_module(*argv, timeout=10)
    assert done.returncode == 1 and done.stdout == ""
    payload = strict_json(done.stderr)
    assert payload["error"] == error
    for word in words:
        assert word in payload["message"]


@pytest.mark.parametrize("argv, error, words", [
    (["analyze", "--rpm", "1e308"], "ConfigError", ("rpm 1e+308", "overflow")),
    (["optimize", "--set", "hover_rpm=1e308", "--set", "radius_grid_m=[0.3, 0.31, 0.01]",
      "--set", "twist_grid_deg=[-20, -20, 1]"], "TrimError", ("infeasible",)),
    (["wing", "--spec", str(CONFIGS / "wing.json"), "--set", "gross_weight_n=1e308"],
     "ConfigError", ("'gross_weight_n': 1e+308", "overflow")),
    (["wing", "--spec", str(CONFIGS / "wing.json"), "--set", "span_ratio=1e-300"],
     "ConfigError", ("span_ratio", "1e-300")),
    (["wing", "--spec", str(CONFIGS / "wing.json"), "--set", "cruise_speed_m_s=1e200"],
     "ConfigError", ("cruise_speed 1e+200", "overflows")),
    (["wing", "--spec", str(CONFIGS / "wing.json"), "--set", "stall_speed_m_s=1e200"],
     "ConfigError", ("stall_speed 1e+200", "overflows")),
    (["optimize", "--set", "hover_rpm=1e200"], "ConfigError",
     ("hover_rpm 1e+200", "overflow")),
], ids=["analyze-rpm", "optimize-hover-rpm", "wing-gross-weight", "wing-span-ratio",
        "wing-cruise-speed", "wing-stall-speed", "optimize-hover-rpm-square"])
def test_refuses_inputs_whose_outputs_overflow(capsys, argv, error, words):
    """An input that makes an output overflow exits 1 with one strict-JSON
    error that names it, and writes nothing else: no traceback, and no
    NumPy warning (pytest makes a RuntimeWarning an error)."""
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (1, "")
    payload = strict_json(err)
    assert payload["error"] == error
    for word in words:
        assert word in payload["message"]


@pytest.mark.parametrize("argv", [
    ["analyze", "--v-inf", "1e300"],
    ["sweep", "--spec", str(FIGURES / "fig11.json"), "--set", "speeds=[1e300]"],
    ["sweep", "--spec", str(FIGURES / "fig08.json"), "--set", "values=[1e-300]"],
], ids=["analyze-v-inf", "sweep-speed", "sweep-aspect-ratio"])
def test_residuals_past_the_float_range_leak_no_warning(capsys, argv):
    """Inputs whose station residuals are so large that the product of
    two overflows: that product keeps its sign, so the run is an answer
    with finite numbers or one strict-JSON DesignError, and prints no
    NumPy warning (pytest makes a RuntimeWarning an error)."""
    rc, out, err = run(capsys, *argv)
    if rc == 1:
        assert out == "" and issubclass(getattr(errors, strict_json(err)["error"]), DesignError)
        return
    assert (rc, err) == (0, "")
    for line in out.strip().split("\n")[1:]:
        cells = line.split(",")
        if argv[0] == "sweep":
            cells = cells[1:]                # a sweep row starts with the parameter's name
        assert all(math.isfinite(float(x)) for x in cells if x)


def test_sweep_whose_tip_speed_overflows_writes_only_gaps(capsys):
    """A sweep at an rpm whose tip speed overflows when squared makes its
    points non-finite-load gaps and writes the header only."""
    rc, out, err = run(capsys, "sweep", "--spec", str(FIGURES / "fig10b.json"),
                       "--set", "op.rpm=1e308")
    assert (rc, out, err) == (0, explorer.SweepTable.CSV_HEADER + "\n", "")
    spec = cli._sweep_spec_from_json(cli._load_json(FIGURES / "fig10b.json",
                                                    ["op.rpm=1e308"]))
    assert {gap[2] for gap in explorer.run_sweep(spec).gaps} == {"non-finite load"}


def test_readme_names_resolve():
    """Every `module.name` the README puts in backticks, for a designkit
    module, names something that module has."""
    import designkit
    modules = {m.name for m in pkgutil.iter_modules(designkit.__path__)}
    named = [(m, n) for m, n in re.findall(r"`(\w+)\.(\w+)`", (REPO / "README.md").read_text())
             if m in modules]
    assert len(named) >= 10
    assert [f"{m}.{n}" for m, n in named
            if not hasattr(importlib.import_module(f"designkit.{m}"), n)] == []


def test_optimize_missing_spec_file(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    rc, _, err = run(capsys, "optimize", "--spec", str(missing))
    assert_config_error(rc, err, str(missing))


def test_geometry_sweep_of_tabled_rotor(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "rotor": {"radius_m": 0.38, "root_chord_m": 0.04, "tip_chord_m": 0.024,
                  "pitch_table": [[0.1, 20.0], [1.0, 5.0]]},
        "parameter": "radius", "values": [0.36, 0.40]}))
    rc, _, err = run(capsys, "sweep", "--spec", str(spec))
    assert_config_error(rc, err, "radius", "table")


def test_sweep_spec_without_values(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"parameter": "rpm"}))
    rc, _, err = run(capsys, "sweep", "--spec", str(spec))
    assert_config_error(rc, err, "values")


def test_override_bad_list_index(capsys):
    rc, _, err = run(capsys, "sweep", "--spec", str(FIGURES / "fig07.json"),
                     "--set", "collectives_deg.x=1")
    assert_config_error(rc, err, "collectives_deg.x")


# The explicit ids keep the text pytest generated for these cases by
# position, so inserting a case renames no other test; a new case takes an
# id named after its key.
@pytest.mark.parametrize("argv, key", [
    (["optimize", "--set", "radius_grid_m=0.3"], "radius_grid_m"),
    (["optimize", "--set", "twist_grid_deg=-20"], "twist_grid_deg"),
    (["optimize", "--set", "weights=0.5"], "weights"),
    (["sweep", "--spec", str(FIGURES / "fig07.json"), "--set", "values=3"],
     "values"),
    (["sweep", "--spec", str(FIGURES / "fig07.json"),
      "--set", "collectives_deg=2"], "collectives_deg"),
    (["sweep", "--spec", str(FIGURES / "fig10b.json"),
      "--set", 'speeds=["fast"]'], "speeds"),
], ids=["argv0-radius_grid_m", "argv1-twist_grid_deg", "argv2-weights",
        "argv3-values", "argv4-collectives_deg", "argv5-speeds"])
def test_scalar_where_list_expected(capsys, argv, key):
    rc, _, err = run(capsys, *argv)
    assert_config_error(rc, err, key)


# explicit ids, kept as pytest generated them (see above)
@pytest.mark.parametrize("argv, key", [
    (["optimize", "--set", "n_stations=[3]"], "n_stations"),
    (["optimize", "--set", 'hover_rpm="x"'], "hover_rpm"),
    (["sweep", "--spec", str(FIGURES / "fig07.json"), "--set", "op.rpm=[1]"],
     "op.rpm"),
    (["simulate", "--set", 'dt_s="x"'], "dt_s"),
    (["simulate", "--set", "waypoints=3"], "waypoints"),
    (["sweep", "--spec", str(FIGURES / "fig07.json"), "--set", "op=3"], "op"),
    (["sweep", "--spec", str(FIGURES / "fig07.json"), "--set", "polar=3"],
     "polar"),
    (["optimize", "--set", "polar=3"], "polar"),
    (["sweep", "--spec", str(FIGURES / "fig07.json"), "--set", "rotor=3"],
     "rotor"),
    (["sweep", "--spec", str(FIGURES / "fig07.json"), "--set",
      'rotor={"radius_m": 0.4, "root_chord_m": 0.03, "pitch_table": [1, 2]}'],
     "rotor.pitch_table"),
    (["sweep", "--spec", str(FIGURES / "fig07.json"), "--set",
      'rotor={"radius_m": 0.4, "root_chord_m": 0.03, "n_blades": 2.7}'],
     "rotor.n_blades"),
    (["sweep", "--spec", str(FIGURES / "fig10a.json"),
      "--set", 'couple_preset="no"'], "couple_preset"),
    (["sweep", "--spec", str(FIGURES / "fig08.json"),
      "--set", "op.rpm=Infinity"], "op.rpm"),
    (["optimize", "--set", "hover_rpm=1" + "0" * 400], "hover_rpm"),
    (["analyze", "--rotor", str(REPO / "README.md")], "README.md"),
    (["analyze", "--rotor", str(DATA / "not_an_object.json")],
     "not_an_object.json"),
    (["analyze", "--polar", str(REPO / "no" / "such.csv")], "such.csv"),
    (["analyze", "--collective", "inf"], "collective_deg"),
    (["analyze", "--rpm", "nan"], "rpm"),
    (["analyze", "--v-inf", "nan"], "v_inf"),
    (["analyze", "--rho", "inf"], "rho"),
    # in type but out of range: no waypoint is captured within -1 m
    (["simulate", "--set", "capture_radius_m=-1"], "capture_radius"),
    # once flew one step and then timed out "after -5 s"
    (["simulate", "--set", "timeout_s=-5"], "timeout must be positive"),
], ids=["argv0-n_stations", "argv1-hover_rpm", "argv2-op.rpm", "argv3-dt_s",
        "argv4-waypoints", "argv5-op", "argv6-polar", "argv7-polar", "argv8-rotor",
        "argv9-rotor.pitch_table", "argv10-rotor.n_blades", "argv11-couple_preset",
        "argv12-op.rpm", "argv13-hover_rpm", "argv14-README.md",
        "argv15-not_an_object.json", "argv16-such.csv", "argv17-collective_deg",
        "argv18-rpm", "argv19-v_inf", "argv20-rho", "argv21-capture_radius",
        "argv22-timeout"])
def test_config_value_of_wrong_json_type(capsys, argv, key):
    rc, _, err = run(capsys, *argv)
    assert_config_error(rc, err, key)


# every table a command reads: the argv that reads it, and the dotted
# prefix of its keys in the spec
SPEC_TABLES = [
    (["sweep", "--spec", str(FIGURES / "fig09.json")], "", cli.SWEEP_KEYS),
    (["sweep", "--spec", str(FIGURES / "fig09.json")], "op.", cli.OP_KEYS),
    (["sweep", "--spec", str(FIGURES / "fig09.json")], "rotor.",
     bemt.ROTOR_KEYS),
    (["optimize"], "", cli.OPTIMIZE_KEYS),
    (["wing"], "", wing.WING_KEYS),
    (["simulate"], "", cli.SIMULATE_KEYS),
]


def fits(kind, value):
    """Whether ``value`` has the JSON type ``kind`` asks for, written out
    apart from designkit.schema."""
    def number(v):
        return type(v) in (int, float) and math.isfinite(v)

    def rows(n):
        return type(value) is list and all(
            type(row) is list and len(row) == n and all(map(number, row))
            for row in value)

    return {
        schema.NUMBER: number(value),
        schema.INTEGER: type(value) is int,
        schema.BOOLEAN: type(value) is bool,
        schema.STRING: type(value) is str,
        schema.OBJECT: type(value) is dict,
        schema.NUMBERS: type(value) is list and all(map(number, value)),
        schema.rows(2): rows(2),
        schema.rows(4): rows(4),
    }[kind]


SCALARS = st.one_of(
    st.integers(-10 ** 6, 10 ** 6), st.floats(),
    st.text(max_size=6), st.booleans(), st.none())

# every JSON type; NaN and +-Infinity, lists of numbers and lists of
# number rows get strategies of their own
JSON_TYPES = [
    st.integers(-10 ** 6, 10 ** 6),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.text(max_size=6),
    st.booleans(),
    st.none(),
    st.lists(st.one_of(SCALARS, st.lists(SCALARS, max_size=5)), max_size=4),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1),
    st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                      max_size=5), min_size=1, max_size=3),
    st.dictionaries(st.text(max_size=4), SCALARS, max_size=3),
]


@pytest.mark.parametrize("argv, key, kind", [
    pytest.param(argv, prefix + key, entry.kind, id=f"{argv[0]}:{prefix}{key}")
    for argv, prefix, table in SPEC_TABLES for key, entry in table.items()])
@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_spec_key_rejects_every_wrong_json_type(capsys, argv, key, kind,
                                                      data):
    for json_type in JSON_TYPES:
        value = data.draw(json_type)
        if fits(kind, value):
            continue
        rc, _, err = run(capsys, *argv, "--set", f"{key}={json.dumps(value)}")
        assert rc == 1
        payload = strict_json(err)
        assert payload["error"] == "ConfigError"
        assert payload["message"].startswith(f"{key} must be ")


@pytest.mark.parametrize("argv, prefix", [
    (argv, prefix) for argv, prefix, _ in SPEC_TABLES])
def test_unknown_spec_key(capsys, argv, prefix):
    rc, _, err = run(capsys, *argv, "--set", f"{prefix}bogus=1")
    assert_config_error(rc, err, f"unknown key {prefix}bogus")


SHIPPED_SPECS = {
    "baseline.json": "rotor", "table1.json": "rotor",
    "mission.json": "simulate", "wing.json": "wing", "fig12.json": "optimize",
    **{f"fig{n}.json": "sweep"
       for n in ("07", "08", "09", "10a", "10b", "10c", "11")},
}


@pytest.mark.parametrize("path", sorted(
    [*CONFIGS.glob("*.json"), *FIGURES.glob("*.json")]),
    ids=lambda path: f"{path.parent.name}/{path.name}")
def test_every_shipped_spec_parses(path):
    data = cli._load_json(path, None)
    command = SHIPPED_SPECS[path.name]
    if command == "rotor":
        bemt.BladeGeometry.from_dict(data)
    elif command == "sweep":
        cli._sweep_spec_from_json(data)
    else:
        schema.read({"optimize": cli.OPTIMIZE_KEYS, "wing": wing.WING_KEYS,
                     "simulate": cli.SIMULATE_KEYS}[command], data)


def test_override_short_grid(capsys):
    rc, _, err = run(capsys, "optimize", "--set", "radius_grid_m=[0.3]")
    assert_config_error(rc, err, "radius_grid")


@pytest.mark.parametrize("command, error", [
    ("cmd_analyze", NoRootError("no root", stations=[0.5],
                                bracket=(-1.5, 1.5))),
    ("cmd_simulate", SimulationAbort("tipped over", t=1.25)),
])
def test_error_payload_carries_every_attribute(monkeypatch, capsys,
                                               command, error):
    def fail(args):
        raise error

    monkeypatch.setattr(cli, command, fail)
    rc, _, err = run(capsys, command.removeprefix("cmd_"))
    assert rc == 1
    payload = strict_json(err)
    assert payload["error"] == type(error).__name__
    assert payload["message"] == str(error)
    for name, value in vars(error).items():
        assert payload[name] == (list(value) if isinstance(value, tuple)
                                 else value)


def test_infeasible_grid_payload_is_strict_json(capsys):
    rc, _, err = run(capsys, "optimize",
                     "--set", "radius_grid_m=[0.3, 0.3, 0.01]",
                     "--set", "twist_grid_deg=[-20, -20, 1]",
                     "--set", "n_stations=20",
                     "--set", "thrust_n=1e6")
    assert rc == 1
    payload = strict_json(err)
    assert payload["error"] == "TrimError"
    assert payload["t_max"] is None
