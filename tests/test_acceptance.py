"""Acceptance gate: every published behavior at its stated tolerance.

Each case delegates to one check in ``designkit.acceptance`` and prints
the measured numbers alongside its pass/fail line, so this file is the
single place to see the toolkit's claims verified end to end.

``efficiency-bands`` evaluates the Fig. 11 point (20 m/s, 16 deg
collective).  At 2000 and 3200 RPM the rotor must be propulsive (T > 0
and P > 0) and below the actuator-disk ideal at its own thrust, and the
slow rotor must lead by at least 0.10.  The paper's absolute levels
(about 0.77 and 0.61, gated as +/-10% bands) run only with the paper's
section polar at ``acceptance.PAPER_POLAR_PATH``.  The repository does
not hold that file, so the bands are reported as skipped; they run as
soon as it lands.  With the bundled ``sc1095`` stand-in the solver gives
0.861/0.732, outside both bands.  Why the stand-in misses the paper's
levels is not established: the section data and the collective
convention (which blade station "16 deg" refers to) are both open.  The
induction-factor oracle in ``test_bemt.py`` shows only that 0.861/0.732
is the right BEMT answer for the stand-in polar and this pitch law.
"""

import dataclasses
import math
import shutil

import numpy as np
import pytest

from designkit import acceptance, bemt, presets


def _ident(check):
    return check.__name__.removeprefix("check_").replace("_", "-")


@pytest.mark.parametrize("check", acceptance.ALL_CHECKS, ids=_ident)
def test_acceptance(check):
    result = check()
    status = "PASS" if result.passed else "FAIL"
    print(f"{result.name}: {status} [{result.elapsed:.1f} s] {result.detail}")
    assert result.passed, result.detail


def _cruise(collective_deg, rpm):
    return bemt.evaluate_rotor(
        presets.rpm_study_rotor(),
        presets.cruise_op(collective=math.radians(collective_deg), rpm=rpm),
        presets.proprotor_polar())


def _failed(subchecks):
    return [label for label, ok, _ in subchecks if not ok]


def test_ideal_efficiency_closed_form():
    perf = _cruise(16.0, 2000.0)
    area = math.pi * perf.radius ** 2
    # 2T / (rho A V^2) = 8: the far wake leaves at 3V, so eta = 2 / (1 + 3)
    loaded = dataclasses.replace(
        perf, thrust=4.0 * perf.rho * area * perf.v_inf ** 2)
    assert acceptance.ideal_propulsive_efficiency(loaded) == pytest.approx(0.5)
    assert math.isnan(acceptance.ideal_propulsive_efficiency(
        dataclasses.replace(perf, thrust=-1.0)))


def test_cruise_rpm_subchecks_reject_windmilling():
    """At 6 deg the 2000 RPM rotor windmills: T < 0 and P < 0, so
    eta_p = CT mu / CP reads above 1 and must not count as propulsive."""
    slow, fast = _cruise(6.0, 2000.0), _cruise(16.0, 3200.0)
    assert slow.thrust < 0.0 and slow.power < 0.0 and slow.eta_p > 1.0
    assert _failed(acceptance.cruise_rpm_subchecks(slow, fast)) == [
        "T, P > 0 at 2000", "eta(2000) < ideal"]


def test_cruise_rpm_subchecks_reject_efficiency_above_ideal():
    slow, fast = _cruise(16.0, 2000.0), _cruise(16.0, 3200.0)
    ideal = acceptance.ideal_propulsive_efficiency(slow)
    slow = dataclasses.replace(slow, eta_p=ideal + 1e-3)
    assert _failed(acceptance.cruise_rpm_subchecks(slow, fast)) == [
        "eta(2000) < ideal"]


def test_cruise_rpm_subchecks_reject_small_separation():
    slow, fast = _cruise(16.0, 2000.0), _cruise(16.0, 2600.0)
    assert slow.eta_p - fast.eta_p < 0.10
    assert _failed(acceptance.cruise_rpm_subchecks(slow, fast)) == [
        "difference >= 0.10"]


def test_efficiency_bands_skipped_without_paper_polar(tmp_path, monkeypatch):
    monkeypatch.setattr(acceptance, "PAPER_POLAR_PATH", tmp_path / "absent.csv")
    result = acceptance.check_efficiency_bands()
    assert result.passed
    assert "eta(2000) in [0.69, 0.85] skipped" in result.detail
    assert "eta(3200) in [0.53, 0.69] skipped" in result.detail


def test_efficiency_bands_gate_levels_with_paper_polar(tmp_path, monkeypatch):
    """With a polar file present the bands are live.  The stand-in table
    lands above both (0.861/0.732); the same table with twice the drag
    lands inside them (0.800/0.669).  The doubled drag only exercises the
    passing path: it is no candidate for the paper's polar, since it
    raises the design hover power to 2.55 hp, outside power-budget."""
    standin = tmp_path / "standin.csv"
    shutil.copy(acceptance.PAPER_POLAR_PATH.with_name("sc1095.csv"), standin)
    monkeypatch.setattr(acceptance, "PAPER_POLAR_PATH", standin)
    result = acceptance.check_efficiency_bands()
    assert not result.passed
    assert "eta(2000) in [0.69, 0.85] FAIL (0.8608)" in result.detail
    assert "eta(3200) in [0.53, 0.69] FAIL (0.7320)" in result.detail
    assert "skipped" not in result.detail

    polar = presets.proprotor_polar()
    draggy = tmp_path / "draggy.csv"
    rows = zip(np.degrees(polar.alpha), polar.cl, 2.0 * polar.cd)
    draggy.write_text("alpha_deg,cl,cd\n" + "".join(
        f"{a:.17g},{cl:.17g},{cd:.17g}\n" for a, cl, cd in rows))
    monkeypatch.setattr(acceptance, "PAPER_POLAR_PATH", draggy)
    result = acceptance.check_efficiency_bands()
    assert result.passed, result.detail
    assert "eta(2000) in [0.69, 0.85] ok (0.8005)" in result.detail
    assert "eta(3200) in [0.53, 0.69] ok (0.6691)" in result.detail
