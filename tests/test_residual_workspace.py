"""The inflow kernels on a reused workspace against their allocating form.

``bemt._residual`` writes every step into scratch rows that ``_Residual``
keeps for a whole solve.  The oracle below computes the residual with a
new array per operation; the workspace must give its bits exactly, on
calls of up to BLOCK elements (the most a solve makes), at the polar's
table nodes and ends, in the flat-plate blend band and on both sides of
phi = 0.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from designkit import bemt
from designkit.airfoil import BLEND_WIDTH, AirfoilPolar

POLARS = {name: AirfoilPolar.bundled(name) for name in ("sc1095", "naca0012")}


def oracle_tip_loss(phi_sin, phi_cos, abs_sin, r, n_blades):
    f = 0.5 * n_blades * (1.0 - r) / np.maximum(r * abs_sin, bemt._TINY)
    F = (2.0 / math.pi) * np.arccos(np.exp(-np.minimum(f, 700.0)))
    one_minus_f = 1.0 - F
    k_t = 1.0 - one_minus_f * phi_cos
    k_p = 1.0 - one_minus_f * phi_sin
    return F, k_t, k_p


def oracle_residual(phi, r, pitch, sigma, mu, n_blades, polar):
    """g(phi) with a new array for every operation."""
    s = np.sin(phi)
    c = np.cos(phi)
    abs_s = np.abs(s)
    cl, cd = polar.cl_cd(pitch - phi)
    _, k_t, k_p = oracle_tip_loss(s, c, abs_s, r, n_blades)
    blade = (sigma / (8.0 * r)) * (mu * (cl * s + cd * c) / k_p
                                   + r * (cl * c - cd * s) / k_t)
    return (r * s - mu * c) * s - np.sign(phi) * blade


@st.composite
def batches(draw):
    """Stations and inflow angles whose angles of attack land on table
    nodes, on the table ends, in the blend band past them and anywhere
    else, with mu = 0 and mu > 0 mixed and phi on both sides of 0."""
    polar = POLARS[draw(st.sampled_from(sorted(POLARS)))]
    # the longest call below takes n + 3 elements, at most BLOCK
    n = draw(st.sampled_from([1, 37, bemt.BLOCK - 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    phi = rng.uniform(-0.5 * math.pi, 0.5 * math.pi, n)
    phi[rng.uniform(size=n) < 0.05] = 0.0
    blend = np.concatenate([polar.alpha_min - BLEND_WIDTH * rng.uniform(size=n),
                            polar.alpha_max + BLEND_WIDTH * rng.uniform(size=n)])
    alpha = np.select(
        [rng.uniform(size=n) < p for p in (0.25, 0.4, 0.6)],
        [rng.choice(polar.alpha, n), rng.choice(polar.alpha[[0, -1]], n),
         rng.choice(blend, n)],
        rng.uniform(-0.5 * math.pi, 0.5 * math.pi, n))
    mu_share = draw(st.sampled_from([0.0, 0.5, 1.0]))
    mu = np.where(rng.uniform(size=n) < mu_share, 0.0, rng.uniform(1e-6, 1.5, n))
    return (polar, phi, rng.uniform(0.05, 0.995, n), alpha + phi,
            rng.uniform(0.01, 0.4, n), mu, draw(st.integers(2, 5)), rng)


@settings(max_examples=60, deadline=None)
@given(batch=batches())
def test_workspace_residual_is_the_allocating_residual(batch):
    polar, phi, r, pitch, sigma, mu, n_blades, rng = batch
    g = bemt._Residual(r, pitch, sigma, mu, n_blades, polar)
    # calls in any order, repeated elements, more than one call per workspace
    k = rng.integers(0, r.size, r.size + 3)
    for idx in (k, np.arange(r.size), k[::-1]):
        expected = oracle_residual(phi[idx], r[idx], pitch[idx], sigma[idx], mu[idx],
                                   n_blades, polar)
        assert np.array_equal(g(phi[idx], idx), expected, equal_nan=True)


@settings(max_examples=40, deadline=None)
@given(batch=batches())
def test_allocating_residual_broadcasts_like_the_oracle(batch):
    polar, phi, r, pitch, sigma, mu, n_blades, _ = batch
    for args in ((phi, r, pitch, sigma, mu),
                 (phi, r, pitch, sigma, float(mu[0])),
                 (float(phi[0]), r, pitch, sigma, mu),
                 (phi[:, None], r[None, :8], pitch[None, :8], sigma[None, :8], 0.0)):
        got = bemt._residual(*args, n_blades, polar)
        expected = oracle_residual(*args, n_blades, polar)
        assert np.shape(got) == np.shape(expected)
        assert np.array_equal(got, expected, equal_nan=True)
    scalar = [float(x[0]) for x in (phi, r, pitch, sigma, mu)]
    got = bemt._residual(*scalar, n_blades, polar)
    assert type(got) is np.float64
    assert np.array_equal(got, oracle_residual(*scalar, n_blades, polar), equal_nan=True)


@settings(max_examples=40, deadline=None)
@given(batch=batches(), width=st.floats(0.0, 0.3))
def test_workspace_enclosure_is_the_allocating_enclosure(batch, width):
    """The certification a solve reads off its workspace is the one a
    fresh enclosure gives."""
    polar, phi, r, pitch, sigma, mu, n_blades, rng = batch
    lo = np.clip(phi - width * rng.uniform(size=phi.size), -0.5 * math.pi, 0.5 * math.pi)
    g = bemt._Residual(r, pitch, sigma, mu, n_blades, polar)
    k = np.arange(r.size)
    lower, upper = bemt._enclose(lo, phi, r, pitch, sigma, mu, n_blades, polar)
    assert np.array_equal(g.uncertified(lo, phi, k), ~((lower > 0.0) | (upper < 0.0)))
    assert np.all(np.isnan(lower) | (lower <= upper))
