"""Command-line front end.

Each subcommand wires JSON configs into one module and emits CSV/JSON
artifacts, either to stdout or into ``--out``.  Failures serialize as a
machine-readable error JSON on stderr with exit status 1; usage errors
exit 2.  On the commands that read a spec (``sweep``, ``optimize``,
``wing``, ``simulate``), ``--set key=value`` applies dotted-path
overrides to it before anything runs.
"""

import argparse
import json
import math
import sys
from functools import cache
from pathlib import Path

import numpy as np

from . import bemt, explorer, powertrain, presets, wing
from .airfoil import AirfoilPolar
from .constants import HP_TO_W, RHO_SL
from .errors import ConfigError, DesignError
from .schema import BOOLEAN, INTEGER, NUMBER, NUMBERS, OBJECT, REQUIRED, STRING, Key, read, rows


def _load_polar(name_or_path):
    if name_or_path is None:
        return presets.proprotor_polar()
    path = Path(name_or_path)
    if path.suffix.lower() == ".csv" or path.exists():
        try:
            return AirfoilPolar.from_csv(path)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read polar {path}: {exc}") from exc
    return AirfoilPolar.bundled(str(name_or_path))


def _load_rotor(spec):
    if spec in presets.ROTORS:
        return presets.ROTORS[spec]()
    if not Path(spec).exists():
        raise ConfigError(
            f"rotor {spec!r} is neither a preset "
            f"({', '.join(sorted(presets.ROTORS))}) nor a file")
    return bemt.BladeGeometry.from_dict(_load_json(spec, None))


def _apply_overrides(data, overrides):
    for raw in overrides or ():
        if "=" not in raw:
            raise ConfigError(f"--set expects key=value, got {raw!r}")
        key, value = raw.split("=", 1)
        try:
            value = json.loads(value)
        except json.JSONDecodeError:
            pass   # a bare word is a string
        *parents, last = key.split(".")
        try:
            node = data
            for part in parents:
                node = node[int(part)] if isinstance(node, list) \
                    else node.setdefault(part, {})
            node[int(last) if isinstance(node, list) else last] = value
        except (AttributeError, IndexError, TypeError, ValueError) as exc:
            raise ConfigError(f"--set {key}: no such place in the spec "
                              f"({exc})") from exc
    return data


def _load_json(path, overrides):
    """The JSON object in file ``path`` (empty if None) with the --set overrides applied."""
    if path is None:
        return _apply_overrides({}, overrides)
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read spec {path}: {exc.strerror}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"spec {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"spec {path} must hold a JSON object")
    return _apply_overrides(data, overrides)


def _json_safe(value):
    """Strict JSON: lists for tuples, null for non-finite floats."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    return value


def _emit(args, filename, text):
    """Write one artifact; stdout when no --out directory was given."""
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        target = out_dir / filename
        target.write_text(text, encoding="utf-8")
        print(target)
    else:
        sys.stdout.write(text)


def _emit_json(args, filename, payload):
    _emit(args, filename,
          json.dumps(_json_safe(payload), indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# subcommands

def cmd_analyze(args):
    geometry = _load_rotor(args.rotor)
    polar = _load_polar(args.polar)
    # the flags go through the sweep spec's op table, so non-finite values are ConfigErrors
    op = bemt.OperatingPoint.from_rpm(**read(OP_KEYS, {k: getattr(args, k) for k in OP_KEYS}))
    perf = bemt.evaluate_rotor(geometry, op, polar, n_stations=args.n_stations)
    text = perf.CSV_HEADER + "\n" + perf.csv_row() + "\n"
    _emit(args, "performance.csv", text)
    return 0


OP_KEYS = {
    "rpm": Key("rpm", NUMBER, presets.HOVER_RPM),
    "v_inf": Key("v_inf", NUMBER),
    "rho": Key("rho", NUMBER),
    "collective_deg": Key("collective", NUMBER, deg=True),
}

SWEEP_KEYS = {
    "rotor": Key("rotor", OBJECT),
    "rotor_preset": Key("rotor_preset", STRING, "final"),
    "op": Key("op", OBJECT, {}),
    "parameter": Key("parameter", STRING, REQUIRED),
    "values": Key("values", NUMBERS, REQUIRED),
    "response": Key("response", STRING),
    "collectives_deg": Key("collectives", NUMBERS, deg=True),
    "speeds": Key("speeds", NUMBERS),
    "couple_preset": Key("couple_preset", BOOLEAN),
    "polar": Key("polar_name", STRING),
}


def _sweep_spec_from_json(data):
    fields = read(SWEEP_KEYS, data)
    op = bemt.OperatingPoint.from_rpm(**read(OP_KEYS, fields.pop("op"), "op."))
    preset = fields.pop("rotor_preset")
    if "rotor" in fields:
        geometry = bemt.BladeGeometry.from_dict(fields.pop("rotor"), "rotor.")
    elif preset in presets.ROTORS:
        geometry = presets.ROTORS[preset]()
    else:
        raise ConfigError(f"unknown rotor_preset {preset!r}; "
                          f"expected one of {', '.join(sorted(presets.ROTORS))}")
    if fields["parameter"] in ("twist", "collective"):
        fields["values"] = tuple(map(math.radians, fields["values"]))
    return explorer.SweepSpec(base_geometry=geometry, base_op=op, **fields)


def cmd_sweep(args):
    data = _load_json(args.spec, args.set)
    spec = _sweep_spec_from_json(data)
    table = explorer.run_sweep(spec)
    _emit(args, "sweep.csv", "\n".join(table.csv_lines()) + "\n")
    return 0


OPTIMIZE_KEYS = {
    "radius_grid_m": Key("radius_grid", NUMBERS),
    "twist_grid_deg": Key("twist_grid", NUMBERS, deg=True),
    "weights": Key("weights", NUMBERS),
    "hover_rpm": Key("hover_rpm", NUMBER),
    "hover_rho": Key("hover_rho", NUMBER),
    "cruise_rpm": Key("cruise_rpm", NUMBER),
    "cruise_speed": Key("cruise_speed", NUMBER),
    "cruise_rho": Key("cruise_rho", NUMBER),
    "aspect_ratio": Key("aspect_ratio", NUMBER),
    "taper_ratio": Key("taper_ratio", NUMBER),
    "n_stations": Key("n_stations", INTEGER),
    "thrust_n": Key("thrust_constraint", NUMBER),
    "polar": Key("polar_name", STRING),
}


def cmd_optimize(args):
    data = _load_json(args.spec, args.set)
    spec = explorer.OptimizationSpec(**read(OPTIMIZE_KEYS, data))
    result = explorer.optimize(spec, workers=args.workers)
    _emit_json(args, "optimization.json", result.summary_dict())
    if args.out:
        for name in ("cost", "fm", "eta"):
            _emit(args, f"surface_{name}.csv",
                  "\n".join(result.surface_csv_lines(name)) + "\n")
    return 0


WING_KEYS = {
    **wing.INPUT_KEYS,
    "wing_loading_n_m2": Key("wing_loading", NUMBER, presets.WING_LOADING),
    "gap_m": Key("gap", NUMBER, presets.ROTOR_SEPARATION),
}


def cmd_wing(args):
    data = _load_json(args.spec, args.set)
    fields = read(WING_KEYS, data)
    loading, gap = fields.pop("wing_loading"), fields.pop("gap")
    inputs = wing.WingDesignInputs(**fields)
    sizing = wing.size_biplane(inputs, loading, gap=gap)
    study = wing.power_vs_wing_loading(
        inputs, np.arange(60.0, 150.01, 2.0))
    payload = {
        "inputs": inputs.to_dict(),
        "sizing": sizing.to_dict(),
        "stall_wing_loading_n_m2": wing.stall_wing_loading(inputs),
        "optimum_wing_loading_n_m2": study.optimum_wing_loading,
    }
    _emit_json(args, "wing.json", payload)
    if args.out:
        lines = ["wing_loading_n_m2,power_w,parasite_w,induced_w"]
        for i in range(study.wing_loading.size):
            lines.append(f"{study.wing_loading[i]:.6g},{study.power[i]:.6g},"
                         f"{study.parasite[i]:.6g},{study.induced[i]:.6g}")
        _emit(args, "wing_loading.csv", "\n".join(lines) + "\n")
    return 0


def cmd_gears(args):
    train = powertrain.build_gear_train()
    budget, _, details = powertrain.design_budget()
    pinion = next(g for g in train if g.role == "E")
    engine_power = budget.required_installed_power
    f_t = powertrain.tangential_force(
        engine_power, budget.engine_rpm, pinion.pitch_diameter)
    width = powertrain.agma_face_width(f_t, pinion.module, 0.303)
    payload = {
        "gears": [g.to_dict() for g in train],
        "overall_reduction": powertrain.train_reduction(train),
        "min_pinion_teeth_ratio_2": powertrain.min_pinion_teeth(2.0),
        "pinion_tangential_force_n": f_t,
        "pinion_required_face_width_mm": width,
        "design_torque_source_hp": engine_power / HP_TO_W,
    }
    _emit_json(args, "gears.json", payload)
    return 0


def cmd_budget(args):
    budget, ledger, details = powertrain.design_budget(margin=args.margin)
    payload = {"budget": budget.to_dict(), "details": details}
    _emit_json(args, "budget.json", payload)
    return 0


def cmd_weights(args):
    ledger = powertrain.iterate_gross_weight(
        fixed=powertrain.default_fixed_masses(payload=args.payload),
        tolerance=args.tolerance, start=args.start)
    _emit(args, "weights.csv", "\n".join(ledger.csv_lines()) + "\n")
    if args.out:
        _emit_json(args, "weights.json", {
            "gross_mass_kg": ledger.gross_mass,
            "iterations": len(ledger.history) - 1,
            "history_kg": list(ledger.history),
        })
    return 0


SIMULATE_KEYS = {
    "waypoints": Key("waypoints", rows(4), presets.MISSION_WAYPOINTS, deg=True),
    "dt_s": Key("dt", NUMBER, presets.MISSION_DT),
    "capture_radius_m": Key("capture_radius", NUMBER, presets.MISSION_CAPTURE_RADIUS),
    "timeout_s": Key("timeout", NUMBER, presets.MISSION_TIMEOUT),
}


def cmd_simulate(args):
    from . import flightsim
    data = _load_json(args.mission, args.set)
    fields = read(SIMULATE_KEYS, data)
    rotor = _load_rotor(args.rotor)
    pitch_map = flightsim.PitchMap.from_rotor(rotor, _load_polar(args.polar))
    params = flightsim.default_params(rotor_radius=rotor.radius)
    log = flightsim.run_mission(params=params, pitch_map=pitch_map, **fields)
    _emit(args, "trajectory.csv", "\n".join(log.csv_lines()) + "\n")
    return 0


def cmd_validate(args):
    from . import acceptance
    results = acceptance.run_all(fast=args.fast)
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failures += 0 if r.passed else 1
        print(f"{r.name:<{width}}  {status}  {r.detail}")
    print(f"{failures} failing / {len(results)} checks")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# argument wiring

@cache
def build_parser():
    """The argument parser, built once; ``main`` finds ``cmd_<command>`` by name."""
    parser = argparse.ArgumentParser(
        prog="designkit",
        description="Conceptual design toolkit for a quad-rotor biplane "
                    "tail-sitter: rotor analysis, design-space studies, "
                    "wing and powertrain sizing, hover simulation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, spec=False):
        p.add_argument("--out", help="artifact directory (default: stdout)")
        if spec:
            p.add_argument("--set", action="append", metavar="KEY=VALUE",
                           help="dotted-path spec override, repeatable")

    p = sub.add_parser("analyze", help="single-point rotor performance")
    p.add_argument("--rotor", default="final", help="rotor JSON or preset "
                   f"({', '.join(presets.ROTORS)})")
    p.add_argument("--polar", help="bundled polar name or CSV path")
    p.add_argument("--rpm", type=float, default=presets.HOVER_RPM)
    p.add_argument("--collective", dest="collective_deg", type=float, default=0.0,
                   help="deg")
    p.add_argument("--v-inf", type=float, default=0.0, help="m/s")
    p.add_argument("--rho", type=float, default=RHO_SL, help="kg/m^3")
    p.add_argument("--n-stations", type=int, default=100)
    common(p)

    p = sub.add_parser("sweep", help="parameter sweep from a spec file")
    p.add_argument("--spec", required=True, help="sweep JSON")
    common(p, spec=True)

    p = sub.add_parser("optimize", help="radius x twist grid search")
    p.add_argument("--spec", help="grid JSON (defaults to the design grid)")
    p.add_argument("--workers", type=int, default=None,
                   help="parallel workers (default DESIGNKIT_THREADS or 1)")
    common(p, spec=True)

    p = sub.add_parser("wing", help="biplane wing sizing")
    p.add_argument("--spec", help="wing inputs JSON")
    common(p, spec=True)

    p = sub.add_parser("gears", help="transmission table and checks")
    common(p)

    p = sub.add_parser("budget", help="sized-vehicle power budget")
    p.add_argument("--margin", type=float, default=0.10)
    common(p)

    p = sub.add_parser("weights", help="gross-weight convergence")
    p.add_argument("--start", type=float, default=presets.GROSS_MASS_START, help="kg")
    p.add_argument("--tolerance", type=float, default=0.01, help="kg")
    p.add_argument("--payload", type=float, default=presets.PAYLOAD_MASS, help="kg")
    common(p)

    p = sub.add_parser("simulate", help="waypoint mission")
    p.add_argument("--mission", help="mission JSON (defaults to the "
                   "reference square)")
    p.add_argument("--rotor", default="final", help="rotor JSON or preset")
    p.add_argument("--polar", help="bundled polar name or CSV path")
    common(p, spec=True)

    p = sub.add_parser("validate", help="run the acceptance checks")
    p.add_argument("--fast", action="store_true",
                   help="skip the long grid-search check")
    common(p)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except DesignError as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        payload.update((k, v) for k, v in vars(exc).items()
                       if not k.startswith("_"))
        json.dump(_json_safe(payload), sys.stderr, indent=2, default=str)
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
