"""Interval enclosure of the inflow residual and the first-crossing search.

The solver skips runs of scan slices whose enclosure of g excludes zero,
so the enclosure must hold every residual the point evaluation computes
in a cell, and the search must give what a dense evaluation of every
scan node gives.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from designkit import bemt
from designkit.airfoil import BLEND_WIDTH, AirfoilPolar, flat_plate, flat_plate_bounds
from designkit.bemt import SCAN_EPS, SCAN_SLICES, _enclose, _residual

POLARS = {name: AirfoilPolar.bundled(name) for name in ("sc1095", "naca0012")}
GRIDS = {1: np.linspace(SCAN_EPS, 0.5 * math.pi - SCAN_EPS, SCAN_SLICES + 1),
         -1: np.linspace(-0.5 * math.pi + SCAN_EPS, -SCAN_EPS, SCAN_SLICES + 1)}

polars = st.sampled_from(sorted(POLARS)).map(POLARS.get)
advance_ratios = st.one_of(st.just(0.0), st.floats(1e-6, 1.5))
stations = st.tuples(st.floats(0.05, 0.995), st.floats(0.01, 0.4), st.integers(2, 5))


@st.composite
def cells(draw):
    """A run of 1-39 scan slices on one side of 0, with the pitch placed
    so that its angles of attack sit inside the table, straddle an edge
    or lie in the blend band past it."""
    polar = draw(polars)
    grid = GRIDS[draw(st.sampled_from(sorted(GRIDS)))]
    i0 = draw(st.integers(0, SCAN_SLICES - 1))
    i1 = min(i0 + draw(st.integers(1, 39)), SCAN_SLICES)
    lo, hi = grid[i0], grid[i1]
    span = hi - lo
    upper = draw(st.booleans())
    edge = polar.alpha_max if upper else polar.alpha_min
    t = draw(st.floats(0.0, 1.0))
    where = draw(st.sampled_from(["inside", "edge", "blend"]))
    if where == "inside":
        alpha_lo = polar.alpha_min + t * (polar.alpha_max - polar.alpha_min - span)
    elif where == "edge":
        alpha_lo = edge - t * span
    else:
        past = t * max(BLEND_WIDTH - span, 0.0)
        alpha_lo = edge + past if upper else edge - span - past
    r, sigma, n_blades = draw(stations)
    mu = draw(advance_ratios)
    pitch = alpha_lo + hi          # angles of attack [pitch - hi, pitch - lo]
    return grid[i0:i1 + 1], (r, pitch, sigma, mu, n_blades, polar)


def _bounds(nodes, station):
    lower, upper = _enclose(np.array([nodes[0]]), np.array([nodes[-1]]), *station)
    return lower[0], upper[0]


@settings(max_examples=400, deadline=None)
@given(cell=cells(), t=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=16))
def test_residual_lies_inside_enclosure(cell, t):
    nodes, station = cell
    lower, upper = _bounds(nodes, station)
    points = np.concatenate([nodes, nodes[0] + np.array(t) * (nodes[-1] - nodes[0])])
    g = _residual(points, *station)
    assert np.all((lower <= g) & (g <= upper))


@settings(max_examples=400, deadline=None)
@given(cell=cells())
def test_certified_cell_nodes_carry_its_sign(cell):
    nodes, station = cell
    lower, upper = _bounds(nodes, station)
    g = _residual(nodes, *station)
    if lower > 0.0:
        assert np.all(g > 0.0)
    if upper < 0.0:
        assert np.all(g < 0.0)


@pytest.mark.parametrize("name", sorted(POLARS))
def test_no_certified_cell_at_a_root(name):
    """At a polished root g is a rounding error away from 0, so a
    one-point cell there may only be certified with the sign that the
    point evaluation itself computes."""
    polar = POLARS[name]
    rng = np.random.default_rng(1966)
    for n_blades, mu in ((2, 0.0), (3, 0.3), (4, 1.2)):
        r = rng.uniform(0.05, 0.995, 2000)
        pitch = np.radians(rng.uniform(-40.0, 70.0, r.size))
        sigma = rng.uniform(0.01, 0.4, r.size)
        phi, found, _ = bemt._solve_phi_grid(r, pitch, sigma, mu, n_blades, polar)
        ok = found & (phi != 0.0)
        args = (r[ok], pitch[ok], sigma[ok], mu, n_blades, polar)
        lower, upper = _enclose(phi[ok], phi[ok], *args)
        g = _residual(phi[ok], *args)
        assert np.all((lower <= g) & (g <= upper))
        assert not np.any((lower > 0.0) & (g <= 0.0))
        assert not np.any((upper < 0.0) & (g >= 0.0))


# ---------------------------------------------------------------------------
# the first-crossing search against a dense evaluation of every node

def dense_first_change(k, stop, grid, g):
    """(slice, g at both ends) of the first sign change in 1..stop, from
    the residual at every node of the grid."""
    values = np.stack([g(np.full(k.size, x), k) for x in grid], axis=1)
    change = bemt._sign_change(values[:, :-1], values[:, 1:])
    change &= np.arange(1, grid.size) <= np.reshape(stop, (-1, 1))
    slice_ = np.where(change.any(axis=1), change.argmax(axis=1) + 1, 0)
    rows = np.arange(k.size)
    g_lo = np.where(slice_ > 0, values[rows, slice_ - 1], np.nan)
    g_hi = np.where(slice_ > 0, values[rows, slice_], np.nan)
    return values[:, 0], (slice_, g_lo, g_hi)


def assert_matches_dense(r, pitch, sigma, mu, n_blades, polar, stop, side):
    grid = GRIDS[side]
    g = bemt._Residual(*(np.broadcast_to(np.asarray(x, dtype=float), np.shape(r)).copy()
                         for x in (r, pitch, sigma, mu)), n_blades, polar)
    k = np.arange(np.size(r))
    g_start, expected = dense_first_change(k, stop, grid, g)
    got = bemt._first_change(k, stop, g_start, grid, g)
    assert np.array_equal(got[0], expected[0])
    for a, b in zip(got[1:], expected[1:]):
        assert np.array_equal(a, b, equal_nan=True)
    return got


@settings(max_examples=150, deadline=None)
@given(polar=polars, mu=advance_ratios, side=st.sampled_from(sorted(GRIDS)),
       n_blades=st.integers(2, 5), data=st.data(),
       batch=st.lists(st.tuples(st.floats(0.05, 0.995), st.floats(-40.0, 70.0),
                                st.floats(0.01, 0.4)), min_size=1, max_size=48))
def test_first_change_equals_dense_scan(polar, mu, side, n_blades, data, batch):
    r, pitch_deg, sigma = (np.array(col) for col in zip(*batch))
    stop = np.array(data.draw(st.lists(
        st.one_of(st.just(1), st.integers(2, 31), st.integers(1, SCAN_SLICES),
                  st.just(SCAN_SLICES)), min_size=r.size, max_size=r.size)))
    assert_matches_dense(r, np.radians(pitch_deg), sigma, mu, n_blades, polar, stop, side)


@pytest.mark.parametrize("stop", [1, 5, 32, 33, 200])
@pytest.mark.parametrize("side", sorted(GRIDS))
def test_first_change_on_a_large_batch(stop, side):
    """More cells and nodes than one residual call takes, so each stage
    runs in several batches and elements straddle their seams."""
    rng = np.random.default_rng(17)
    n = 3000
    r = rng.uniform(0.05, 0.995, n)
    pitch = np.radians(rng.uniform(-40.0, 70.0, n))
    sigma = rng.uniform(0.01, 0.4, n)
    mu = np.where(rng.uniform(size=n) < 0.3, 0.0, rng.uniform(0.0, 1.5, n))
    polar = POLARS["sc1095"]
    slice_, _, _ = assert_matches_dense(r, pitch, sigma, mu, 3, polar, stop, side)
    assert np.any(slice_ > 0) and np.any(slice_ == 0)


def test_first_change_finds_the_first_of_three_crossings():
    """The pinned station whose residual changes sign three times on
    (0, pi/2) (see test_inflow_root)."""
    polar = POLARS["sc1095"]
    args = (np.array([0.055157]), np.radians([-2.074635]), np.array([0.353587]), 0.8, 4,
            polar)
    slice_, g_lo, g_hi = assert_matches_dense(*args, stop=SCAN_SLICES, side=1)
    assert GRIDS[1][slice_[0] - 1] <= 0.1326 <= GRIDS[1][slice_[0]]
    assert g_lo[0] * g_hi[0] <= 0.0
    assert_matches_dense(*args, stop=slice_[0] - 1, side=1)


# ---------------------------------------------------------------------------
# polar ranges

def test_flat_plate_range_is_exact_at_critical_angles():
    q = 0.25 * math.pi
    eps = 1e-3
    for angle, (cl_min, cl_max, cd_min, cd_max) in (
            (q, (None, 1.1, None, None)), (-3 * q, (None, 1.1, None, None)),
            (-q, (-1.1, None, None, None)), (3 * q, (-1.1, None, None, None)),
            (0.0, (None, None, 0.0, None)), (2 * q, (None, None, None, 1.7)),
            (-2 * q, (None, None, None, 1.7))):
        got = flat_plate_bounds(np.array([angle - eps]), np.array([angle + eps]))
        for want, have in zip((cl_min, cl_max, cd_min, cd_max), got):
            if want is not None:
                assert have[0] == want
    # at +/-pi the interval can only end there
    assert flat_plate_bounds(np.array([math.pi - eps]), np.array([math.pi]))[2][0] == 0.0
    assert flat_plate_bounds(np.array([-math.pi]), np.array([-math.pi + eps]))[2][0] == 0.0
    # between critical angles, the end values
    lo, hi = np.array([0.1, -2.0]), np.array([0.7, -1.7])
    cl_lo, cd_lo = flat_plate(lo)
    cl_hi, cd_hi = flat_plate(hi)
    got = flat_plate_bounds(lo, hi)
    for have, want in zip(got, (np.minimum(cl_lo, cl_hi), np.maximum(cl_lo, cl_hi),
                                np.minimum(cd_lo, cd_hi), np.maximum(cd_lo, cd_hi))):
        assert np.array_equal(have, want)


def test_flat_plate_range_outside_pi_is_global():
    lo = np.array([-math.pi - 1e-9, 3.0, -4.0])
    hi = np.array([-3.0, math.pi + 1e-9, 4.0])
    for have, want in zip(flat_plate_bounds(lo, hi), (-1.1, 1.1, 0.0, 1.7)):
        assert np.all(have == want)


@settings(max_examples=300, deadline=None)
@given(polar=polars, a=st.floats(-3.0, 3.0), width=st.floats(0.0, 0.6),
       t=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=16))
def test_polar_bounds_hold_every_lookup(polar, a, width, t):
    lo, hi = np.array([a]), np.array([a + width])
    cl_min, cl_max, cd_min, cd_max = polar.cl_cd_bounds(lo, hi)
    inside = polar.alpha[(polar.alpha >= a) & (polar.alpha <= a + width)]
    alpha = np.concatenate([[a, a + width], a + width * np.array(t), inside])
    cl, cd = polar.cl_cd(alpha)
    assert np.all((cl_min <= cl) & (cl <= cl_max) & (cd_min <= cd) & (cd <= cd_max))
    if polar.alpha_min <= a and a + width < polar.alpha_max:
        # on the table the bounds are the rows of the segments the
        # interval touches (at least one)
        first = np.searchsorted(polar.alpha, a, side="right") - 1
        rows = slice(first, max(np.searchsorted(polar.alpha, a + width), first + 1) + 1)
        assert (cl_min[0], cl_max[0]) == (polar.cl[rows].min(), polar.cl[rows].max())
        assert (cd_min[0], cd_max[0]) == (polar.cd[rows].min(), polar.cd[rows].max())
