"""Powerplant: engine curve, budget arithmetic, gear checks, weight loop.

Gear results are checked against a from-scratch evaluation of the
interference bound and the bending-stress width, the budget against
exact arithmetic on stand-in performance records, and the weight loop
against the analytic fixed point of its linear scaling model.
"""

import math
from types import SimpleNamespace

import pytest

from designkit import powertrain as pt
from designkit.constants import HP_TO_W
from designkit.errors import ConfigError, DivergenceError, EngineCapacityError
from designkit.powertrain import (DEFAULT_ENGINE, EngineSpec, GearSpec,
                                  MassEntry, ScalableMass, WeightLedger,
                                  agma_face_width, build_gear_train,
                                  design_budget, iterate_gross_weight,
                                  min_pinion_teeth, power_budget,
                                  tangential_force, train_reduction)


def perf(power, rpm=3200.0):
    return SimpleNamespace(power=power, rpm=rpm)


# ---------------------------------------------------------------------------
# engine

def test_engine_curve_landmarks():
    e = DEFAULT_ENGINE
    assert e.power_available(1000.0) == 0.0
    assert e.power_available(2000.0) == 0.0          # at idle: nothing yet
    mid = e.power_available(12800.0)
    assert mid == pytest.approx(3.75 * HP_TO_W * 10800.0 / 13000.0, rel=1e-12)
    assert e.power_available(15000.0) == pytest.approx(3.75 * HP_TO_W, rel=1e-15)
    assert e.power_available(16500.0) == pytest.approx(3.75 * HP_TO_W, rel=1e-15)
    assert e.power_available(16501.0) == 0.0         # past redline


def test_engine_validation():
    with pytest.raises(ConfigError):
        EngineSpec(idle_rpm=16000.0)                 # idle above rated
    with pytest.raises(ConfigError):
        EngineSpec(max_rpm=14000.0)                  # redline below rated
    with pytest.raises(ConfigError):
        EngineSpec(mass=0.0)


# ---------------------------------------------------------------------------
# budget arithmetic

def test_power_budget_exact_arithmetic():
    budget = power_budget([perf(350.0)] * 4, [perf(100.0)] * 4)
    assert budget.hover_power == pytest.approx(1400.0, rel=1e-15)
    assert budget.cruise_power == pytest.approx(400.0, rel=1e-15)
    assert budget.required_installed_power == pytest.approx(
        1400.0 * 1.1, rel=1e-15)
    assert budget.reduction_fraction == pytest.approx(1.0 - 400.0 / 1400.0,
                                                      rel=1e-15)
    assert budget.engine_rpm == pytest.approx(3200.0 * 4, rel=1e-15)
    assert budget.engine_available_power == pytest.approx(
        DEFAULT_ENGINE.power_available(12800.0), rel=1e-15)


def test_power_budget_capacity_gate():
    with pytest.raises(EngineCapacityError) as info:
        power_budget([perf(600.0)] * 4, [perf(100.0)] * 4)
    assert info.value.required_w == pytest.approx(2640.0, rel=1e-12)
    assert info.value.available_w == pytest.approx(
        DEFAULT_ENGINE.power_available(12800.0), rel=1e-12)


def test_power_budget_validation():
    with pytest.raises(ConfigError):
        power_budget([], [perf(100.0)])
    with pytest.raises(ConfigError):
        power_budget([perf(0.0)] * 4, [perf(100.0)] * 4)


def test_budget_dict_units():
    d = power_budget([perf(350.0)] * 4, [perf(100.0)] * 4).to_dict()
    assert d["hover_power_hp"] == pytest.approx(1400.0 / HP_TO_W, rel=1e-15)
    assert d["required_installed_power_hp"] == pytest.approx(
        1540.0 / HP_TO_W, rel=1e-15)


# ---------------------------------------------------------------------------
# interference bound

def oracle_min_teeth(ratio, phi, a=1.0):
    g = 1.0 / ratio
    s2 = math.sin(phi) ** 2
    return 2.0 * a * g / (math.sqrt(1.0 + g * (g + 2.0) * s2) - 1.0)


def test_min_pinion_teeth_landmarks():
    phi = math.radians(20.0)
    assert min_pinion_teeth(1.0) == 13
    assert min_pinion_teeth(2.0) == 15
    assert min_pinion_teeth(1e9) == 18               # rack limit 2a/sin^2
    assert math.ceil(2.0 / math.sin(phi) ** 2 - 1e-9) == 18


@pytest.mark.parametrize("ratio", [1.0, 1.5, 2.0, 3.0, 5.0, 10.0, 100.0])
def test_min_pinion_teeth_matches_oracle(ratio):
    phi = math.radians(20.0)
    assert min_pinion_teeth(ratio) == math.ceil(
        oracle_min_teeth(ratio, phi) - 1e-12)


def test_min_pinion_teeth_trends():
    counts = [min_pinion_teeth(r) for r in (1.0, 1.5, 2.0, 3.0, 10.0, 1e6)]
    assert counts == sorted(counts)                  # bigger wheel, more teeth
    by_angle = [min_pinion_teeth(2.0, pressure_angle=math.radians(a))
                for a in (14.5, 20.0, 25.0)]
    assert by_angle[0] > by_angle[1] > by_angle[2]   # steeper flank relaxes it
    with pytest.raises(ConfigError):
        min_pinion_teeth(0.5)


# ---------------------------------------------------------------------------
# bending width

def test_tangential_force_arithmetic():
    rpm = 100.0 * 30.0 / math.pi                     # omega = 100 rad/s
    assert tangential_force(1000.0, rpm, 50.0) == pytest.approx(400.0, rel=1e-12)


def test_face_width_at_the_design_load():
    """Engine pinion at the installed requirement: the sized width is a
    small fraction of the 36 mm stock gears carry."""
    f_t = tangential_force(1725.272, 12800.0, 17 * 1.2)
    assert f_t == pytest.approx(126.19, abs=0.01)
    width = agma_face_width(f_t, 1.2, 0.303)
    assert width == pytest.approx(4.4, abs=1e-12)
    assert width <= 36.0


@pytest.mark.parametrize("force", [30.0, 126.19, 252.38, 900.0])
def test_face_width_matches_unrounded_form(force):
    raw = (force / 1.2) * 1.4 * 1.25 * 1.3 * 1.1 / (200.0 * 0.303)
    assert agma_face_width(force, 1.2, 0.303) == math.ceil(raw * 10 - 1e-9) / 10


def test_face_width_validation():
    with pytest.raises(ConfigError):
        agma_face_width(0.0, 1.2, 0.303)
    with pytest.raises(ConfigError):
        agma_face_width(100.0, 1.2, -0.3)


# ---------------------------------------------------------------------------
# reference train

def test_train_reduction_exact():
    assert train_reduction() == 4.0


def test_train_build_sheet():
    by_role = {g.role: g for g in build_gear_train()}
    assert set(by_role) == {"E", "M1", "M2", "S1", "S2", "B"}
    e, m, s, b = by_role["E"], by_role["M1"], by_role["S1"], by_role["B"]
    assert (e.teeth, m.teeth, s.teeth) == (17, 34, 68)
    assert e.module == m.module == s.module == 1.2
    assert e.pitch_diameter == pytest.approx(20.4, rel=1e-12)
    assert s.pitch_diameter == pytest.approx(81.6, rel=1e-12)
    # vendor sheet rounds spur diameters to whole centimetres
    assert (e.catalog_diameter, m.catalog_diameter, s.catalog_diameter) == \
        (20.0, 40.0, 80.0)
    assert b.kind == "bevel" and b.teeth == 20 and b.module == 1.8
    assert b.pitch_diameter == pytest.approx(36.0, rel=1e-12)
    assert b.catalog_diameter == 36.0
    assert b.dedendum == pytest.approx(4.1 / 1.8, rel=1e-12)
    for g in (e, m, s):
        assert g.addendum == 1.0 and g.dedendum == 1.25
        assert math.degrees(g.pressure_angle) == pytest.approx(20.0, abs=1e-12)
    # first mesh runs 2:1, and the pinion clears interference: 17 >= 15
    assert m.teeth / e.teeth == 2.0
    assert e.teeth >= min_pinion_teeth(m.teeth / e.teeth)


def test_gear_spec_validation_and_dict():
    with pytest.raises(ConfigError):
        GearSpec(role="X", teeth=3, module=1.2, face_width=10.0,
                 catalog_diameter=5.0)
    d = build_gear_train()[0].to_dict()
    assert d["pitch_diameter_mm"] == pytest.approx(20.4, rel=1e-12)
    assert d["pressure_angle_deg"] == pytest.approx(20.0, abs=1e-12)


# ---------------------------------------------------------------------------
# weight buildup

def test_ledger_sums_and_cg():
    ledger = WeightLedger(entries=(
        MassEntry("fore", 2.0),
        MassEntry("aft", 1.0, quantity=2),
        MassEntry("unplaced", 3.0),
    ))
    assert ledger.gross_mass == pytest.approx(7.0, rel=1e-15)
    lines = ledger.csv_lines()
    assert lines[0] == WeightLedger.CSV_HEADER
    assert len(lines) == 5
    assert lines[-1] == "total,,,7.0000"


def test_mass_entry_validation():
    with pytest.raises(ConfigError):
        MassEntry("bad", -0.1)
    with pytest.raises(ConfigError):
        MassEntry("bad", 0.1, quantity=-1)


def analytic_fixed_point():
    fixed = pt.default_fixed_masses().gross_mass
    slope = (4 * pt.ROTOR_UNIT_MASS + 2 * pt.WING_UNIT_MASS) / pt.CALIBRATION_GROSS
    return fixed / (1.0 - slope)


def test_weight_loop_converges():
    ledger = iterate_gross_weight()
    assert ledger.gross_mass == pytest.approx(18.5, abs=0.5)
    assert ledger.history[0] == 16.0
    assert len(ledger.history) <= 21                 # start + 20 passes
    # the scaling model is linear, so the loop contracts monotonically
    # onto its closed-form fixed point
    m_star = analytic_fixed_point()
    assert abs(ledger.gross_mass - m_star) < 0.05
    gaps = [abs(h - m_star) for h in ledger.history]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


@pytest.mark.parametrize("start", [12.0, 18.0, 25.0])
def test_weight_loop_start_independent(start):
    ledger = iterate_gross_weight(start=start)
    assert ledger.gross_mass == pytest.approx(analytic_fixed_point(), abs=0.03)


def test_weight_loop_payload_monotone():
    gross = [iterate_gross_weight(fixed=pt.default_fixed_masses(payload=p)
                                  ).gross_mass for p in (0.0, 4.257, 6.0)]
    assert gross[0] < gross[1] < gross[2]


def test_weight_loop_divergence():
    runaway = (ScalableMass("runaway", lambda g: 1.05 * g),)
    with pytest.raises(DivergenceError) as info:
        iterate_gross_weight(scalables=runaway, max_iterations=10)
    assert len(info.value.history) == 11
    assert info.value.history[-1] > info.value.history[1]


def test_weight_loop_validation():
    with pytest.raises(ConfigError):
        iterate_gross_weight(tolerance=0.0)
    with pytest.raises(ConfigError):
        iterate_gross_weight(start=-2.0)


# ---------------------------------------------------------------------------
# converged-vehicle budget

def test_design_budget_headline_numbers():
    budget, ledger, details = design_budget()
    assert budget.hover_power / HP_TO_W == pytest.approx(2.103, abs=2e-3)
    assert budget.cruise_power / HP_TO_W == pytest.approx(0.613, abs=2e-3)
    assert budget.reduction_fraction == pytest.approx(0.7085, abs=1e-3)
    assert budget.required_installed_power == pytest.approx(
        budget.hover_power * 1.1, rel=1e-15)
    assert budget.required_installed_power <= budget.engine_available_power
    assert details["cruise_collective_deg"] == pytest.approx(15.5, abs=0.1)
    assert details["hover_collective_deg"] == pytest.approx(4.0, abs=0.1)
    assert details["cruise_drag_n"] == pytest.approx(17.24, abs=0.01)
    # hover thrust per rotor carries a quarter of the converged weight
    assert details["hover_thrust_per_rotor_n"] == pytest.approx(
        ledger.gross_mass * 9.81 / 4.0, abs=0.1)
