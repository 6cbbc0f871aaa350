"""Polar tables: parsing, interpolation and the flat-plate blend."""

import math

import numpy as np
import pytest

from designkit.airfoil import (
    AirfoilPolar,
    BLEND_WIDTH,
    flat_plate,
)
from designkit.errors import PolarDataError, PolarFormatError


def simple_polar():
    """Three-point table: cl = alpha [rad-linear], cd = 0.01 + alpha^2."""
    a = np.radians([-10.0, 0.0, 10.0])
    return AirfoilPolar(a, a.copy(), 0.01 + a ** 2)


# ---------------------------------------------------------------------------
# construction and validation

def test_too_few_samples_rejected():
    with pytest.raises(PolarDataError):
        AirfoilPolar([0.0, 0.1], [0.0, 0.5], [0.01, 0.01])


def test_non_monotone_alpha_rejected():
    with pytest.raises(PolarDataError):
        AirfoilPolar([0.0, 0.2, 0.1], [0.0, 0.5, 0.6], [0.01, 0.01, 0.01])


def test_negative_cd_rejected():
    with pytest.raises(PolarDataError):
        AirfoilPolar([0.0, 0.1, 0.2], [0.0, 0.5, 0.6], [0.01, -0.01, 0.01])


def test_shape_mismatch_rejected():
    with pytest.raises(PolarDataError):
        AirfoilPolar([0.0, 0.1, 0.2], [0.0, 0.5], [0.01, 0.01, 0.01])


def test_nonfinite_samples_rejected():
    with pytest.raises(PolarDataError):
        AirfoilPolar([0.0, 0.1, 0.2], [0.0, math.nan, 0.6], [0.01, 0.01, 0.01])


# ---------------------------------------------------------------------------
# lookup semantics

def test_lookup_exact_at_breakpoints():
    polar = simple_polar()
    for a in polar.alpha:
        cl, cd = polar.cl_cd(float(a))
        assert cl == pytest.approx(a, abs=1e-15)
        assert cd == pytest.approx(0.01 + a ** 2, abs=1e-15)


def test_lookup_linear_between_breakpoints():
    polar = simple_polar()
    mid = 0.5 * (polar.alpha[1] + polar.alpha[2])
    cl, cd = polar.cl_cd(float(mid))
    assert cl == pytest.approx(0.5 * (polar.cl[1] + polar.cl[2]), abs=1e-15)
    assert cd == pytest.approx(0.5 * (polar.cd[1] + polar.cd[2]), abs=1e-15)


def test_lookup_scalar_and_array_agree():
    polar = simple_polar()
    grid = np.radians(np.linspace(-25.0, 25.0, 23))
    cl_arr, cd_arr = polar.cl_cd(grid)
    for i, a in enumerate(grid):
        cl, cd = polar.cl_cd(float(a))
        assert cl == cl_arr[i] and cd == cd_arr[i]
    assert cl_arr.shape == grid.shape
    # a 0-d angle gives numpy.float64 wherever it falls: on the table, in
    # the blend band or far off the table, as a float or a 0-d array
    for deg in (3.0, -15.0, 80.0):
        a = math.radians(deg)
        want = polar.cl_cd(np.array([a]))
        for x in (a, np.float64(a), np.array(a)):
            for got, ref in zip(polar.cl_cd(x), want):
                assert type(got) is np.float64 and got == ref[0]


def _whole_array_cl_cd(polar, alpha):
    """The blend evaluated on every angle, as ``cl_cd`` once did: the
    reference that the off-table-only evaluation must reproduce bit for
    bit."""
    a = np.asarray(alpha, dtype=float)
    cl = np.interp(a, polar.alpha, polar.cl)
    cd = np.interp(a, polar.alpha, polar.cd)
    below = a < polar.alpha_min
    above = a > polar.alpha_max
    if np.any(below) or np.any(above):
        cl_fp, cd_fp = flat_plate(a)
        over = np.where(above, a - polar.alpha_max,
                        np.where(below, polar.alpha_min - a, 0.0))
        w = np.clip(over / BLEND_WIDTH, 0.0, 1.0)
        cl = (1.0 - w) * cl + w * cl_fp
        cd = (1.0 - w) * cd + w * cd_fp
    return cl, cd


def _assert_bit_identical(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("alpha", [
    np.radians(np.linspace(-90.0, 90.0, 361)),                      # mixed
    np.radians(np.linspace(-90.0, 90.0, 60)).reshape(3, 4, 5),      # mixed, 3-d
    np.radians([[-70.0, -30.0], [5.0, 40.0]]),                      # all off-table
    np.radians([-20.0, 0.0, 23.9]),                                 # all in-table
    np.radians([-60.0, math.nan, 3.0, 31.0, math.nan]),             # NaN mixed in
    np.float64(math.radians(50.0)),                                 # 0-d, off-table
    np.float64(math.radians(4.0)),                                  # 0-d, in-table
    np.float64(math.nan),                                           # 0-d NaN
], ids=["mixed", "mixed-3d", "off", "in", "nan", "0d-off", "0d-in", "0d-nan"])
def test_cl_cd_blends_off_table_subset_bit_identically(sc1095, alpha):
    cl, cd = sc1095.cl_cd(alpha)
    cl_ref, cd_ref = _whole_array_cl_cd(sc1095, alpha)
    _assert_bit_identical(cl, cl_ref)
    _assert_bit_identical(cd, cd_ref)


def test_cl_cd_leaves_input_untouched(sc1095):
    alpha = np.radians(np.linspace(-60.0, 60.0, 25))
    before = alpha.copy()
    sc1095.cl_cd(alpha)
    assert np.array_equal(alpha, before)


def test_blend_model_reaches_flat_plate():
    polar = simple_polar()
    # one blend width past the table edge the flat-plate laws apply exactly
    a = polar.alpha_max + BLEND_WIDTH
    cl_fp, cd_fp = flat_plate(a)
    cl, cd = polar.cl_cd(float(a))
    assert cl == pytest.approx(float(cl_fp), abs=1e-15)
    assert cd == pytest.approx(float(cd_fp), abs=1e-15)


def test_blend_model_halfway_mix():
    polar = simple_polar()
    a = polar.alpha_max + 0.5 * BLEND_WIDTH
    cl_fp, cd_fp = flat_plate(a)
    cl, cd = polar.cl_cd(float(a))
    # table-side contribution clamps at the edge row
    assert cl == pytest.approx(0.5 * polar.cl[-1] + 0.5 * float(cl_fp), abs=1e-15)
    assert cd == pytest.approx(0.5 * polar.cd[-1] + 0.5 * float(cd_fp), abs=1e-15)


def test_flat_plate_laws():
    a = np.radians([0.0, 45.0, 90.0])
    cl, cd = flat_plate(a)
    assert cl == pytest.approx([0.0, 1.1, 0.0], abs=1e-12)
    assert cd == pytest.approx([0.0, 0.85, 1.7], abs=1e-12)


# ---------------------------------------------------------------------------
# CSV loading

CSV_GOOD = """# comment line
alpha_deg,cl,cd
-5.0,-0.55,0.012

0.0,0.0,0.008   # trailing comment
5.0,0.55,0.012
"""


def test_from_csv_parses_comments_header_blanks(tmp_path):
    path = tmp_path / "polar.csv"
    path.write_text(CSV_GOOD)
    polar = AirfoilPolar.from_csv(path)
    assert polar.alpha.size == 3
    assert polar.alpha[0] == pytest.approx(math.radians(-5.0))
    cl, cd = polar.cl_cd(0.0)
    assert cl == 0.0 and cd == 0.008


def test_from_csv_accepts_tabs(tmp_path):
    path = tmp_path / "polar.tsv"
    path.write_text("-4\t-0.4\t0.01\n0\t0\t0.008\n4\t0.4\t0.01\n")
    polar = AirfoilPolar.from_csv(path)
    assert polar.alpha.size == 3


def test_from_csv_wrong_column_count(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("alpha_deg,cl,cd\n0.0,0.1\n1.0,0.2,0.01\n2.0,0.3,0.01\n")
    with pytest.raises(PolarFormatError) as err:
        AirfoilPolar.from_csv(path)
    assert err.value.line == 2


def test_from_csv_unparseable_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,0,0.01\nx,y,z\n2,0.2,0.01\n")
    with pytest.raises(PolarFormatError):
        AirfoilPolar.from_csv(path)


def test_from_csv_too_short(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("alpha_deg,cl,cd\n0,0,0.01\n1,0.1,0.01\n")
    with pytest.raises(PolarDataError):
        AirfoilPolar.from_csv(path)


# ---------------------------------------------------------------------------
# bundled tables

def test_bundled_unknown_name():
    with pytest.raises(PolarDataError):
        AirfoilPolar.bundled("clark-y")


def test_bundled_cover_recommended_range(sc1095, naca0012):
    for polar in (sc1095, naca0012):
        assert polar.alpha_min <= math.radians(-20.0)
        assert polar.alpha_max >= math.radians(20.0)
    assert sc1095.alpha_min == pytest.approx(math.radians(-24.0))
    assert sc1095.alpha_max == pytest.approx(math.radians(24.0))


def test_bundled_name_normalisation(naca0012):
    polar = AirfoilPolar.bundled("NACA-0012")
    assert np.array_equal(polar.alpha, naca0012.alpha)


def test_naca0012_table_is_symmetric(naca0012):
    """Symmetric section: cl odd and cd even in alpha, row for row."""
    grid = naca0012.alpha
    cl_pos, cd_pos = naca0012.cl_cd(grid)
    cl_neg, cd_neg = naca0012.cl_cd(-grid)
    assert np.allclose(cl_pos, -cl_neg, atol=1e-12)
    assert np.allclose(cd_pos, cd_neg, atol=1e-12)


def test_sc1095_is_cambered_and_lifting(sc1095):
    cl0, _ = sc1095.cl_cd(0.0)
    assert cl0 > 0.0                       # negative zero-lift angle
    cl8, cd8 = sc1095.cl_cd(math.radians(8.0))
    assert 0.6 < cl8 < 1.1 and 0.005 < cd8 < 0.03
