"""Sectional aerodynamics: airfoil polars and angle-of-attack lookups.

A polar is a table of (alpha, cl, cd) samples.  Lookups inside the sampled
range use linear interpolation.  Past each table edge the edge row fades
linearly, over a 10 deg band, into the flat-plate laws
cl = 1.1 sin(2a), cd = 1.7 sin^2(a), which hold at any angle.  This is
what deep-stall root sections see when a highly twisted blade hovers.

Tables can come from a CSV file or from the two bundled rotor airfoils
("sc1095" cambered, "naca0012" symmetric).  Bundled tables are assembled
from published low-Mach section characteristics and are replaceable data,
not calibrated truth.
"""

from __future__ import annotations

import math
from importlib import resources

import numpy as np

from .errors import PolarDataError, PolarFormatError

# Blend width between table-edge values and the flat-plate laws [rad]
BLEND_WIDTH = math.radians(10.0)

# Off-table segment width over which cl_cd_bounds holds flat-plate ranges [rad]
BOUNDS_STEP = math.radians(1.0)


def flat_plate(alpha):
    """Flat-plate section coefficients, valid at any angle of attack.

    cl = 1.1 sin(2a), cd = 1.7 sin^2(a).
    """
    a = np.asarray(alpha, dtype=float)
    return 1.1 * np.sin(2.0 * a), 1.7 * np.sin(a) ** 2


def flat_plate_bounds(lo, hi):
    """Bounds (cl_min, cl_max, cd_min, cd_max) of the flat-plate laws over
    the angles [lo, hi] (arrays, lo <= hi).

    The end values, widened to each extreme the interval holds: sin(2a)
    peaks at +/-45 and +/-135 deg, sin^2(a) at 0, +/-90 and +/-180 deg.
    Where the interval leaves [-pi, pi], the global range.
    """
    cl_lo, cd_lo = flat_plate(lo)
    cl_hi, cd_hi = flat_plate(hi)

    def holds(*angles):
        return np.logical_or.reduce([(lo <= a) & (a <= hi) for a in angles])

    wide = (lo < -math.pi) | (hi > math.pi)
    q = 0.25 * math.pi
    return (np.where(wide | holds(-q, 3.0 * q), -1.1, np.minimum(cl_lo, cl_hi)),
            np.where(wide | holds(q, -3.0 * q), 1.1, np.maximum(cl_lo, cl_hi)),
            np.where(wide | holds(0.0, -math.pi, math.pi), 0.0, np.minimum(cd_lo, cd_hi)),
            np.where(wide | holds(-2.0 * q, 2.0 * q), 1.7, np.maximum(cd_lo, cd_hi)))


def _range_minima(values):
    """Sparse table of running minima of each column of ``values`` (n, m):
    row c of the result holds, at l * n + i, the minimum of
    ``values[i : i + 2**l, c]`` wherever that window fits."""
    levels = [values]
    width = 1
    while 2 * width <= len(values):
        level = levels[-1].copy()
        level[:-width] = np.minimum(level[:-width], level[width:])
        levels.append(level)
        width *= 2
    return np.ascontiguousarray(np.concatenate(levels).T)


class AirfoilPolar:
    """Tabulated (alpha, cl, cd) with interpolation and the flat-plate blend
    past the table edges.

    Parameters
    ----------
    alpha : array_like
        Angles of attack [rad], strictly increasing, at least 3 samples.
    cl, cd : array_like
        Lift and drag coefficients at ``alpha``; cd must be >= 0.
    name : str
        Label carried through outputs.
    """

    def __init__(self, alpha, cl, cd, name="polar"):
        alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
        cl = np.atleast_1d(np.asarray(cl, dtype=float))
        cd = np.atleast_1d(np.asarray(cd, dtype=float))
        if not (alpha.shape == cl.shape == cd.shape) or alpha.ndim != 1:
            raise PolarDataError("alpha, cl, cd must be 1-D arrays of equal length")
        if alpha.size < 3:
            raise PolarDataError(f"need at least 3 samples, got {alpha.size}")
        if not np.all(np.isfinite(alpha)) or not np.all(np.isfinite(cl)) or not np.all(np.isfinite(cd)):
            raise PolarDataError("polar samples must be finite")
        if np.any(np.diff(alpha) <= 0.0):
            raise PolarDataError("alpha samples must be strictly increasing")
        if np.any(cd < 0.0):
            raise PolarDataError("cd must be non-negative")
        self.alpha = alpha
        self.cl = cl
        self.cd = cd
        self.name = name
        self._bounds = None     # segment bounds table, built by cl_cd_bounds

    # -- properties ------------------------------------------------------

    @property
    def alpha_min(self):
        return float(self.alpha[0])

    @property
    def alpha_max(self):
        return float(self.alpha[-1])

    # -- lookup ----------------------------------------------------------

    def cl_cd(self, alpha):
        """Interpolate (cl, cd) at angle(s) of attack [rad], each of the
        input's shape."""
        a = np.asarray(alpha, dtype=float)
        cl = np.interp(a, self.alpha, self.cl)   # clamps at the ends
        cd = np.interp(a, self.alpha, self.cd)
        # blend only the off-table angles (flat indices); the rest
        # keep their table values
        off = np.flatnonzero((a < self.alpha_min) | (a > self.alpha_max))
        if off.size:
            a_off = np.take(a, off)
            cl_fp, cd_fp = flat_plate(a_off)
            # distance past the nearer table edge
            over = np.where(a_off > self.alpha_max, a_off - self.alpha_max,
                            self.alpha_min - a_off)
            w = np.clip(over / BLEND_WIDTH, 0.0, 1.0)
            cl, cd = np.asarray(cl), np.asarray(cd)   # 0-d input gives scalars
            np.put(cl, off, (1.0 - w) * np.take(cl, off) + w * cl_fp)
            np.put(cd, off, (1.0 - w) * np.take(cd, off) + w * cd_fp)
            cl, cd = cl[()], cd[()]                   # and scalars for 0-d input again
        return cl, cd

    def cl_cd_bounds(self, lo, hi):
        """Bounds (cl_min, cl_max, cd_min, cd_max) on what :meth:`cl_cd`
        gives at any angle in [lo, hi] (arrays, lo <= hi).

        The extremes over the segments of the angle line that the interval
        touches, from a range-minimum table built on first use.  Linear
        interpolation stays between its two nodes, so a table segment holds
        the range of its two rows.  Off the table the blend mixes the edge
        row with the flat-plate laws, so each BOUNDS_STEP segment out to
        +/-pi holds the hull of the edge row and the flat-plate range over
        it, and beyond that the global range.
        """
        if self._bounds is None:
            self._bounds = self._segment_bounds()
        edges, minima = self._bounds
        n_seg = edges.size - 1                      # segment i: edges[i]..edges[i + 1]
        i = np.minimum(np.searchsorted(edges, lo, side="right") - 1, n_seg - 1)
        j = np.clip(np.searchsorted(edges, hi, side="left") - 1, i, n_seg - 1)
        # two windows of 2**level segments cover i..j: one from each end
        level = np.frexp(j - i + 1)[1] - 1          # floor(log2(segments touched))
        row = level * n_seg
        first, last = row + i, row + j + 1 - np.left_shift(1, level)
        cl_min, cd_min, cl_max, cd_max = (np.minimum(m[first], m[last]) for m in minima)
        return cl_min, -cl_max, cd_min, -cd_max

    def _segment_bounds(self):
        """Edges of segments that cover the whole angle line, and the
        range-minimum table of each segment's (cl_min, cd_min, -cl_max,
        -cd_max)."""
        a, cl, cd = self.alpha, self.cl, self.cd

        def extremes(cl_min, cl_max, cd_min, cd_max):
            return np.stack(np.broadcast_arrays(cl_min, cd_min, -cl_max, -cd_max), axis=-1)

        first = extremes(cl[0], cl[0], cd[0], cd[0])[None]
        last = extremes(cl[-1], cl[-1], cd[-1], cd[-1])[None]
        table = extremes(np.minimum(cl[:-1], cl[1:]), np.maximum(cl[:-1], cl[1:]),
                         np.minimum(cd[:-1], cd[1:]), np.maximum(cd[:-1], cd[1:]))

        def plate(x0, x1):
            n = max(int(math.ceil((x1 - x0) / BOUNDS_STEP)), 0)
            x = np.linspace(x0, x1, n + 1)
            return x, extremes(*flat_plate_bounds(x[:-1], x[1:]))

        everything = extremes(-1.1, 1.1, 0.0, 1.7)[None]
        x_lo, below = plate(min(-math.pi, a[0]), a[0])
        x_hi, above = plate(a[-1], max(math.pi, a[-1]))
        edges = np.concatenate([[-np.inf], x_lo[:-1], a, x_hi[1:], [np.inf]])
        segments = np.concatenate([np.minimum(everything, first), np.minimum(below, first),
                                   table,
                                   np.minimum(above, last), np.minimum(everything, last)])
        return edges, _range_minima(segments)

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_csv(cls, path, name=None):
        """Load a ``alpha_deg,cl,cd`` CSV.  '#' starts a comment; blank
        lines are skipped; a header row is optional."""
        rows = []
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                parts = [p.strip() for p in line.replace("\t", ",").split(",") if p.strip()]
                try:
                    vals = [float(p) for p in parts]
                except ValueError:
                    # tolerate a header row of column names before the data
                    if not rows and any(ch.isalpha() for ch in line):
                        continue
                    raise PolarFormatError(f"unparseable row {line!r}", line=lineno)
                if len(vals) != 3:
                    raise PolarFormatError(
                        f"expected 3 columns (alpha_deg, cl, cd), got {len(vals)}", line=lineno)
                rows.append(vals)
        if len(rows) < 3:
            raise PolarDataError(f"{path}: need at least 3 data rows, got {len(rows)}")
        arr = np.asarray(rows, dtype=float)
        if name is None:
            name = str(path)
        return cls(np.radians(arr[:, 0]), arr[:, 1], arr[:, 2], name=name)

    @classmethod
    def bundled(cls, name):
        """Load one of the packaged polars ("sc1095" or "naca0012")."""
        key = name.lower().replace("-", "").replace(" ", "")
        files = {"sc1095": "sc1095.csv", "naca0012": "naca0012.csv"}
        if key not in files:
            raise PolarDataError(f"no bundled polar {name!r}; available: {sorted(files)}")
        ref = resources.files("designkit.data").joinpath(files[key])
        with resources.as_file(ref) as path:
            polar = cls.from_csv(path, name=key)
        return polar

    def __repr__(self):
        return (f"AirfoilPolar({self.name!r}, {self.alpha.size} samples, "
                f"[{math.degrees(self.alpha_min):+.1f}, {math.degrees(self.alpha_max):+.1f}] deg)")

