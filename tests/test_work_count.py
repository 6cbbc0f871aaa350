"""Work per station of the grid search's inflow solves.

The first-crossing search certifies runs of scan slices once per box of
rows that differ only by collective, and evaluates points only where no
enclosure rules a crossing out.  The counts below are deterministic, so
a change that silently drops the boxes, or makes the search evaluate
more points, fails here on every platform without timing anything.
They are read by wrapping ``bemt._Residual``'s kernel calls.
"""

import math

from designkit import bemt, explorer
from designkit.airfoil import AirfoilPolar

# the benchmark's design_grid slice; one twist of it, the paper's
SPEC = explorer.OptimizationSpec(radius_grid=(0.30, 0.46, 0.02),
                                 twist_grid=(math.radians(-40.0), math.radians(-8.0),
                                             math.radians(8.0)))
TWIST = math.radians(-24.0)
MAX_CELLS = 2.0       # enclosed cells per station (3.71 without boxes)
MAX_POINTS = 20.5     # residual points per station (19.42 without boxes)


def test_enclosures_and_points_per_station(monkeypatch):
    counts = dict.fromkeys(("stations", "points", "cells"), 0)

    def count(name, key, size):
        method = getattr(bemt._Residual, name)

        def counted(self, *args):
            counts[key] += size(*args)
            return method(self, *args)
        monkeypatch.setattr(bemt._Residual, name, counted)

    count("__init__", "stations", lambda r, *rest: r.size)
    count("__call__", "points", lambda phi, k: k.size)
    count("uncertified", "cells", lambda lo, hi, k: k.size)
    count("box_uncertified", "cells", lambda lo, hi, k, pitch_lo, pitch_hi: k.size)
    explorer._evaluate_twist((SPEC, TWIST, AirfoilPolar.bundled(SPEC.polar_name)))

    # a 145-row hover curve and 144 trim and cruise rows of 100 stations
    assert counts["stations"] == 28900
    cells = counts["cells"] / counts["stations"]
    points = counts["points"] / counts["stations"]
    assert cells <= MAX_CELLS, f"{cells:.3f} enclosed cells per station"
    assert points <= MAX_POINTS, f"{points:.3f} residual points per station"
