"""Wing sizing: induced-power comparison, loading trade, planform closure.

The analytic structure is simple enough to check in closed form: the
biplane/monoplane induced-power ratio is 1/(2 beta^2) exactly, the
cruise-power curve is a convex sum of a 1/x parasite term and a linear
induced term with its minimum at q sqrt(CD0/K), and the planform chords
must integrate back to the requested area.
"""

import math

import numpy as np
import pytest

from designkit import wing
from designkit.constants import RHO_CRUISE, RHO_SL
from designkit.errors import ConfigError, StallLimitError
from designkit.schema import read
from designkit.wing import (WingDesignInputs, biplane_power_ratio, cruise_drag,
                            power_vs_wing_loading, size_biplane,
                            stall_wing_loading)


@pytest.fixture(scope="module")
def inputs():
    return WingDesignInputs()


# ---------------------------------------------------------------------------
# induced-power ratio

def test_power_ratio_landmarks():
    assert biplane_power_ratio(1.0) == pytest.approx(0.5, abs=1e-12)
    assert biplane_power_ratio(1.0 / math.sqrt(2.0)) == pytest.approx(1.0, abs=1e-12)
    assert biplane_power_ratio(0.8) == pytest.approx(0.78125, abs=1e-12)


def test_power_ratio_shape():
    beta = np.linspace(0.5, 1.2, 40)
    ratio = biplane_power_ratio(beta)
    assert np.all(np.diff(ratio) < 0.0)            # more span always helps
    assert np.all(np.diff(ratio, 2) > 0.0)         # with diminishing returns
    with pytest.raises(ConfigError):
        biplane_power_ratio(0.0)
    with pytest.raises(ConfigError):
        biplane_power_ratio([0.8, -0.1])


# ---------------------------------------------------------------------------
# wing-loading trade

def test_power_curve_decomposition(inputs):
    study = power_vs_wing_loading(inputs, np.arange(60.0, 261.0, 5.0))
    assert np.allclose(study.power, study.parasite + study.induced, atol=1e-12)
    # parasite ~ 1/(W/S), induced ~ (W/S): both products/quotients constant
    assert np.ptp(study.parasite * study.wing_loading) < 1e-8
    assert np.ptp(study.induced / study.wing_loading) < 1e-12


def test_power_curve_convex_with_interior_minimum(inputs):
    study = power_vs_wing_loading(inputs, np.arange(60.0, 261.0, 5.0))
    assert np.all(np.diff(study.power, 2) > 0.0)
    k = int(np.argmin(study.power))
    assert 0 < k < study.power.size - 1
    assert abs(study.wing_loading[k] - study.optimum_wing_loading) <= 5.0
    assert np.all(study.power >= study.optimum_power - 1e-9)


def test_optimum_wing_loading_analytic(inputs):
    study = power_vs_wing_loading(inputs, [100.0])
    q = 0.5 * inputs.rho * inputs.cruise_speed ** 2
    assert study.optimum_wing_loading == pytest.approx(
        q * math.sqrt(inputs.cd0 / inputs.induced_factor), rel=1e-12)
    # stationary point: centred difference vanishes
    h = 1e-3
    lo = float(wing.cruise_power(inputs, study.optimum_wing_loading - h))
    hi = float(wing.cruise_power(inputs, study.optimum_wing_loading + h))
    assert abs(hi - lo) / (2 * h) < 1e-4


def test_optimum_loading_rises_with_aspect_ratio():
    opts = [power_vs_wing_loading(WingDesignInputs(aspect_ratio=ar),
                                  [100.0]).optimum_wing_loading
            for ar in (4.0, 6.9, 8.0)]
    assert opts[0] < opts[1] < opts[2]


def test_cruise_power_linear_in_weight(inputs):
    heavy = WingDesignInputs(gross_weight=2.0 * inputs.gross_weight)
    assert float(wing.cruise_power(heavy, 130.0)) == pytest.approx(
        2.0 * float(wing.cruise_power(inputs, 130.0)), rel=1e-15)


def test_power_curve_rejects_nonpositive_grid(inputs):
    with pytest.raises(ConfigError):
        power_vs_wing_loading(inputs, [100.0, 0.0])


# ---------------------------------------------------------------------------
# stall limit

def test_stall_wing_loading_values(inputs):
    assert stall_wing_loading(inputs) == pytest.approx(
        0.5 * RHO_CRUISE * 144.0 * 1.5, rel=1e-12)
    assert stall_wing_loading(inputs) == pytest.approx(126.036, abs=1e-9)
    sea_level = WingDesignInputs(rho=RHO_SL)
    assert stall_wing_loading(sea_level) == pytest.approx(132.3, abs=1e-9)


# ---------------------------------------------------------------------------
# cruise drag at the design loading

def test_cruise_drag_breakdown(inputs):
    total, parts = cruise_drag(inputs, 130.0)
    q = 0.5 * inputs.rho * inputs.cruise_speed ** 2
    assert inputs.dynamic_pressure == q
    assert total == pytest.approx(parts["parasite_n"] + parts["induced_n"],
                                  rel=1e-15)
    assert parts["cl_cruise"] == pytest.approx(130.0 / q, rel=1e-12)
    assert parts["cd_induced"] == pytest.approx(
        inputs.induced_factor * parts["cl_cruise"] ** 2, rel=1e-12)
    assert total == pytest.approx(18.63, abs=0.01)
    # at fixed W/S both CL and the drag coefficients are fixed, so the
    # force scales linearly with weight
    half, _ = cruise_drag(WingDesignInputs(gross_weight=98.1), 130.0)
    assert total == pytest.approx(2.0 * half, rel=1e-12)


def test_cruise_drag_extra_cd0_accounting(inputs):
    _, parts = cruise_drag(inputs, 130.0)
    q = 0.5 * inputs.rho * inputs.cruise_speed ** 2
    area = inputs.gross_weight / 130.0
    assert parts["cd_parasite"] == inputs.cd0 + wing.EXTRA_CD0
    assert parts["parasite_n"] - q * area * inputs.cd0 == pytest.approx(
        q * area * 0.010, rel=1e-9)
    with pytest.raises(ConfigError):
        cruise_drag(inputs, 0.0)


# ---------------------------------------------------------------------------
# planform sizing

def test_sizing_dimensions(inputs):
    sizing = size_biplane(inputs, 130.0)
    w = sizing.wing
    assert w.area == pytest.approx(0.7546, abs=5e-4)
    assert w.span == pytest.approx(2.2819, abs=5e-4)
    assert w.root_chord == pytest.approx(0.3911, abs=5e-4)
    assert w.tip_chord == pytest.approx(0.1760, abs=5e-4)
    assert sizing.gap_check.ratio == pytest.approx(2.557, abs=2e-3)
    assert sizing.gap_check.passes
    assert sizing.total_area == pytest.approx(2.0 * w.area, rel=1e-15)
    assert sizing.wing_loading == pytest.approx(130.0, rel=1e-12)
    assert sizing.monoplane_span == pytest.approx(w.span / 0.8, rel=1e-15)
    assert sizing.power_ratio == pytest.approx(0.78125, abs=1e-12)
    assert sizing.to_dict()["lift_interference_factor"] == 0.9


def test_sizing_internal_consistency(inputs):
    w = size_biplane(inputs, 130.0).wing
    assert w.span ** 2 / w.area == pytest.approx(inputs.aspect_ratio, rel=1e-12)
    assert w.tip_chord / w.root_chord == pytest.approx(inputs.taper, rel=1e-12)
    # chord law closes the area: rectangular bay + trapezoidal outboard
    half = 0.5 * w.span
    closed = 2.0 * (w.root_chord * w.root_bay
                    + (half - w.root_bay) * 0.5 * (w.root_chord + w.tip_chord))
    assert closed == pytest.approx(w.area, rel=1e-12)


def test_stall_gate_is_sea_level(inputs):
    """130 N/m^2 exceeds the cruise-altitude stall loading but clears
    the sea-level gate that actually binds the slow transition."""
    assert stall_wing_loading(inputs) < 130.0 < 132.3 + 1e-9
    size_biplane(inputs, 130.0)                    # accepted
    with pytest.raises(StallLimitError):
        size_biplane(inputs, 140.0)


def test_stall_gate_boundary(inputs):
    limit = stall_wing_loading(inputs, RHO_SL)
    assert limit == stall_wing_loading(WingDesignInputs(rho=RHO_SL))
    size_biplane(inputs, limit)                    # accepted at the limit
    with pytest.raises(StallLimitError):
        size_biplane(inputs, np.nextafter(limit, math.inf))


def test_sizing_validation(inputs):
    with pytest.raises(ConfigError):
        size_biplane(inputs, -5.0)
    # a span short enough puts the rotor-arm bay outside the half-span
    with pytest.raises(ConfigError, match="root bay"):
        size_biplane(WingDesignInputs(aspect_ratio=1.0), 130.0)


def test_gap_rule_boundary(inputs):
    rc = size_biplane(inputs, 130.0).wing.root_chord
    at_limit = size_biplane(inputs, 130.0, gap=1.5 * rc)
    below = size_biplane(inputs, 130.0, gap=1.5 * rc - 1e-6)
    assert at_limit.gap_check.passes
    assert not below.gap_check.passes


# ---------------------------------------------------------------------------
# configuration plumbing

def test_inputs_round_trip(inputs):
    """The inputs block of ``wing.json`` reads back as a wing spec."""
    clone = WingDesignInputs(**read(wing.INPUT_KEYS, inputs.to_dict()))
    assert clone == inputs


def test_inputs_rejects_unknown_and_invalid():
    with pytest.raises(ConfigError):
        read(wing.INPUT_KEYS, {"gross_weight_n": 196.2, "colour": "red"})
    with pytest.raises(ConfigError):
        WingDesignInputs(gross_weight=-1.0)
    with pytest.raises(ConfigError):
        WingDesignInputs(span_ratio=0.0)
    with pytest.raises(ConfigError):
        WingDesignInputs(taper=1.2)
