"""Root identity of the inflow solve.

The station residual can change sign several times on (0, pi/2), so
"the root" is defined by the original solver: the first sign change on
a scan of SCAN_SLICES slices (then of (-pi/2, 0)), bisected to float
resolution.  That solver is kept here verbatim as the reference; the
package solver must pick the same root at a fraction of the cost.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from designkit import bemt
from designkit.airfoil import AirfoilPolar
from designkit.bemt import SCAN_EPS, SCAN_SLICES, ZERO_LIFT_CL, _residual

BISECT_ITERS = 60
POLARS = {name: AirfoilPolar.bundled(name) for name in ("sc1095", "naca0012")}


# ---------------------------------------------------------------------------
# reference: full 200-slice scan plus 60-step bisection

def _scan_bracket(r, pitch, sigma, mu, n_blades, polar, lo_arr, hi_arr, g_lo_arr,
                  found, phi_lo, phi_hi):
    """Scan [phi_lo, phi_hi] in SCAN_SLICES slices; record the first sign
    change per element into (lo_arr, hi_arr, g_lo_arr).  Mutates in place."""
    grid = np.linspace(phi_lo, phi_hi, SCAN_SLICES + 1)
    g_prev = _residual(grid[0], r, pitch, sigma, mu, n_blades, polar)
    for k in range(1, grid.size):
        g_new = _residual(grid[k], r, pitch, sigma, mu, n_blades, polar)
        cross = (~found) & (g_prev * g_new <= 0.0) & np.isfinite(g_prev) & np.isfinite(g_new)
        if np.any(cross):
            lo_arr[cross] = grid[k - 1]
            hi_arr[cross] = grid[k]
            g_lo_arr[cross] = g_prev[cross]
            found |= cross
        g_prev = g_new
    return found


def reference_solve(r, pitch, sigma, mu, n_blades, polar):
    """Inflow angle phi for every element of a broadcast (pitch, r) grid.

    Returns (phi, solved, residual).  Elements with no bracket anywhere
    come back with solved = False and phi = nan; callers decide whether
    that is fatal.
    """
    shape = np.broadcast_shapes(np.shape(r), np.shape(pitch))
    r_b = np.broadcast_to(np.asarray(r, dtype=float), shape)
    pitch_b = np.broadcast_to(np.asarray(pitch, dtype=float), shape)
    sigma_b = np.broadcast_to(np.asarray(sigma, dtype=float), shape)

    lo = np.full(shape, np.nan)
    hi = np.full(shape, np.nan)
    g_lo = np.full(shape, np.nan)
    found = np.zeros(shape, dtype=bool)

    # hover fixed point: zero section lift at phi = 0 is the exact solution
    pinned = np.zeros(shape, dtype=bool)
    if mu == 0.0:
        cl0, _ = polar.cl_cd(pitch_b)
        pinned = np.abs(cl0) < ZERO_LIFT_CL
        found |= pinned

    _scan_bracket(r_b, pitch_b, sigma_b, mu, n_blades, polar, lo, hi, g_lo,
                  found, SCAN_EPS, 0.5 * math.pi - SCAN_EPS)
    if not np.all(found):
        _scan_bracket(r_b, pitch_b, sigma_b, mu, n_blades, polar, lo, hi, g_lo,
                      found, -0.5 * math.pi + SCAN_EPS, -SCAN_EPS)

    solve = found & ~pinned
    if np.any(solve):
        # bisection, vectorised; unbracketed elements carry nan through
        work_lo = np.where(solve, lo, 0.25)
        work_hi = np.where(solve, hi, 0.5)
        work_gl = np.where(solve, g_lo, 1.0)
        for _ in range(BISECT_ITERS):
            mid = 0.5 * (work_lo + work_hi)
            g_mid = _residual(mid, r_b, pitch_b, sigma_b, mu, n_blades, polar)
            same = g_mid * work_gl > 0.0
            work_lo = np.where(same, mid, work_lo)
            work_gl = np.where(same, g_mid, work_gl)
            work_hi = np.where(same, work_hi, mid)
        phi = np.where(solve, 0.5 * (work_lo + work_hi), np.nan)
    else:
        phi = np.full(shape, np.nan)
    phi = np.where(pinned, 0.0, phi)

    res = np.where(found, _residual(phi, r_b, pitch_b, sigma_b, mu, n_blades, polar), np.nan)
    res = np.where(pinned, 0.0, res)
    return phi, found, res


def assert_same_root(r, pitch, sigma, mu, n_blades, polar):
    phi, found, res = bemt._solve_phi_grid(r, pitch, sigma, mu, n_blades, polar)
    phi_ref, found_ref, _ = reference_solve(r, pitch, sigma, mu, n_blades, polar)
    assert np.array_equal(found, found_ref)
    assert np.all(np.isnan(phi[~found])) and np.all(np.isnan(res[~found]))
    assert np.max(np.abs(phi - phi_ref)[found], initial=0.0) <= 1e-12
    return phi, found, res


# ---------------------------------------------------------------------------
# same root as the reference

@settings(max_examples=100, deadline=None)
@given(
    polar_name=st.sampled_from(sorted(POLARS)),
    n_blades=st.integers(2, 5),
    mu=st.one_of(st.just(0.0), st.floats(0.0, 1.5)),
    stations=st.lists(
        st.tuples(st.floats(0.05, 0.995), st.floats(-40.0, 70.0), st.floats(0.01, 0.4)),
        min_size=1, max_size=48),
)
def test_same_root_as_full_scan(polar_name, n_blades, mu, stations):
    r, pitch_deg, sigma = (np.array(col) for col in zip(*stations))
    assert_same_root(r, np.radians(pitch_deg), sigma, mu, n_blades, POLARS[polar_name])


@pytest.mark.parametrize("polar_name", sorted(POLARS))
def test_same_root_on_random_batches(polar_name):
    """Large random batches.  In 20 of these 24,000 stations the residual
    changes sign more than once on (0, pi/2) and a polish of the endpoint
    bracket alone would land on a later root."""
    rng = np.random.default_rng(2014)
    polar = POLARS[polar_name]
    for n_blades in (2, 3, 4, 5):
        for mu in (0.0, *rng.uniform(0.0, 1.5, 2)):
            n = 1000
            r = rng.uniform(0.05, 0.995, n)
            pitch = np.radians(rng.uniform(-40.0, 70.0, n))
            sigma = rng.uniform(0.01, 0.4, n)
            assert_same_root(r, pitch, sigma, mu, n_blades, polar)


def test_multi_root_station_takes_the_first_crossing():
    """Here the residual changes sign three times on (0, pi/2): polishing
    the endpoint bracket alone lands on a later root, 1.27 rad away."""
    polar = POLARS["sc1095"]
    r, pitch, sigma, mu, n_blades = (np.array([0.055157]), np.radians([-2.074635]),
                                     np.array([0.353587]), 0.8, 4)

    def g(phi, k):
        return _residual(phi, r[k], pitch[k], sigma[k], mu, n_blades, polar)

    k = np.array([0])
    lo, hi = np.array([SCAN_EPS]), np.array([0.5 * math.pi - SCAN_EPS])
    g_lo, g_hi = g(lo, k), g(hi, k)
    assert g_lo[0] * g_hi[0] < 0.0
    endpoint_root, _ = bemt._polish(lo, hi, g_lo, g_hi, k, g)

    phi, found, res = assert_same_root(r, pitch, sigma, mu, n_blades, polar)
    assert found[0]
    assert phi[0] == pytest.approx(0.1326, abs=1e-3)
    assert endpoint_root[0] - phi[0] > 1.0
    assert abs(res[0]) < 1e-12


def test_unbracketed_and_negative_side_stations():
    """Negative pitch: roots on (-pi/2, 0), and positive roots between two
    sign changes that the (0, pi/2) endpoints do not bracket."""
    polar = POLARS["naca0012"]
    rng = np.random.default_rng(3)
    r = rng.uniform(0.1, 0.95, 400)
    pitch = np.radians(rng.uniform(-35.0, 0.0, 400))
    sigma = rng.uniform(0.02, 0.3, 400)
    for mu in (0.0, 0.2, 1.2):
        phi, found, _ = assert_same_root(r, pitch, sigma, mu, 3, polar)
        assert np.all(found) and np.any(phi < 0.0)
        ends = [_residual(x, r, pitch, sigma, mu, 3, polar)
                for x in (SCAN_EPS, 0.5 * math.pi - SCAN_EPS)]
        assert np.any((phi > 0.0) & (ends[0] * ends[1] > 0.0)) == (mu > 0.0)


def test_pinned_zero_lift_hover_station():
    polar = POLARS["naca0012"]
    r, pitch, sigma = np.array([0.5, 0.5]), np.array([0.0, 0.05]), np.array([0.1, 0.1])
    phi, found, res = assert_same_root(r, pitch, sigma, 0.0, 2, polar)
    assert phi[0] == 0.0 and res[0] == 0.0 and phi[1] > 0.0
    assert np.all(found)


def test_empty_grid():
    phi, found, res = bemt._solve_phi_grid(np.empty((0, 5)), np.empty((0, 5)), 0.1, 0.0,
                                           2, POLARS["sc1095"])
    assert phi.shape == found.shape == res.shape == (0, 5)


# ---------------------------------------------------------------------------
# array advance ratio

def test_stacked_mu_grid_equals_separate_solves(final_rotor):
    """One solve over a (mu x station) grid gives, bit for bit, what one
    solve per advance ratio gives; mu = 0 rows still pin zero-lift
    stations and the others do not."""
    polar = POLARS["naca0012"]
    r, _ = bemt.station_grid(final_rotor.root_cutout, 60)
    # a pitch law with a zero-lift station in the middle of the span
    pitch = final_rotor.pitch(r, 0.0) - final_rotor.pitch(r[30], 0.0)
    sigma = final_rotor.local_solidity(r)
    mus = np.array([0.0, 0.05, 0.0, 0.4, 1.1])
    phi, found, res = bemt._solve_phi_grid(r, pitch, sigma, mus[:, None],
                                           final_rotor.n_blades, polar)
    assert phi.shape == (mus.size, r.size)
    for i, mu in enumerate(mus):
        phi_i, found_i, res_i = bemt._solve_phi_grid(r, pitch, sigma, float(mu),
                                                     final_rotor.n_blades, polar)
        assert np.array_equal(phi[i], phi_i, equal_nan=True)
        assert np.array_equal(found[i], found_i)
        assert np.array_equal(res[i], res_i, equal_nan=True)
    assert phi[0, 30] == 0.0 and res[0, 30] == 0.0
    assert phi[1, 30] != 0.0
