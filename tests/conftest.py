"""Shared fixtures: bundled polars and the reference rotors.

Session-scoped because polar loading hits the filesystem and the
geometry constructors validate on every call; everything here is
immutable from the tests' point of view.
"""

import math

import numpy as np
import pytest

from designkit import presets
from designkit.airfoil import BLEND_WIDTH, AirfoilPolar


@pytest.fixture(scope="session")
def sc1095():
    return AirfoilPolar.bundled("sc1095")


@pytest.fixture(scope="session")
def naca0012():
    return AirfoilPolar.bundled("naca0012")


@pytest.fixture(scope="session")
def baseline_rotor():
    return presets.baseline_rotor()


@pytest.fixture(scope="session")
def rpm_study_rotor():
    return presets.rpm_study_rotor()


@pytest.fixture(scope="session")
def final_rotor():
    return presets.final_rotor()


@pytest.fixture(scope="session")
def linear_polar():
    """Clean analytic polar for closed-form oracles: linear lift of slope
    5.7 per rad capped at +/-2, no drag, on 201 angles reaching 10 deg
    past a 0.5 rad stall angle (at least +/-25 deg)."""
    span = max(0.5 + BLEND_WIDTH, math.radians(25.0))
    a = np.linspace(-span, span, 201)
    return AirfoilPolar(a, np.clip(5.7 * a, -2.0, 2.0), np.zeros_like(a),
                        name="linear")
