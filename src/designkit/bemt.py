"""Blade element momentum theory for proprotors in hover and axial flight.

The classical small-angle BEMT breaks down on proprotors that see large
inflow angles (slow tip speed, high axial speed, big collective).  This
module keeps the full trigonometry: at each radial station the sectional
thrust/torque from blade element theory is balanced against momentum
theory with swirl and a Prandtl-style tip loss evaluated at the actual
inflow angle.  Everything reduces to one transcendental equation per
station in the inflow angle phi,

    g(phi) = (r sin(phi) - mu cos(phi)) sin(phi)
             - sign(phi) * sigma/(8 r) * [ mu (cl sin(phi) + cd cos(phi)) / K_P
                                         + r  (cl cos(phi) - cd sin(phi)) / K_T ]

written here nondimensionally (speeds divided by tip speed, so mu is the
axial advance ratio and r the station position).  K_T and K_P are the
momentum deficit factors built from the tip-loss function

    F = (2/pi) arccos(exp(-f)),   f = (Nb/2) (1 - r) / (r |sin(phi)|)
    K_T = 1 - (1 - F) cos(phi),   K_P = 1 - (1 - F) sin(phi)

g has at least one sign change on (0, pi/2) for any lifting condition
(and on (-pi/2, 0) for descending/negative-lift states), and can have
several.  The root taken is the first crossing on a 200-slice scan of
(0, pi/2), then of (-pi/2, 0).  Each block of BLOCK stations is solved
before the next.  Where g changes sign between the ends of (0, pi/2)
the solver polishes that bracket by Illinois iterations (Ning's
bracketed approach, Wind Energy 17(9), 2014) and keeps the root if no
earlier slice changes sign; the block's other stations are searched for
their first crossing over all 200 slices, then over (-pi/2, 0).  That
search proves runs of slices free of crossings instead of
evaluating their points: an interval enclosure of g over a cell of
slices (Moore, Interval Analysis, 1966) that excludes zero by a margin
above rounding shows every point value in the cell has one sign.  Cells
of 32 slices are enclosed, the uncertified ones cut into 8-slice cells
and enclosed again, and only the nodes of cells still uncertified are
evaluated, which gives the same slice and end residuals as evaluating
every node.  All of it is vectorised over stations, collectives and
advance ratios at once.

Rows that differ only by collective are certified together.  Consecutive
rows with equal r, sigma and mu whose pitches span at most BOX_SPAN form
a box, and the solve orders its elements so that a box's elements at one
station sit next to each other.  A search encloses each box's 32-slice
cells once, over the least to the greatest of its members' pitches, then
the 8-slice cells inside the first open one; each member goes on alone
from the first cell the box leaves open.  Every step of the enclosure is
monotone in the angle-of-attack range, so a box certifies a cell only
where each member's own enclosure would.  On the benchmark's grid slice
this takes the enclosed cells from 4.0 to 1.2 per station, while the
residual points rise from 19.6 to 20.2.

The point and cell kernels (:func:`_residual`, :func:`_enclose`) write
each step into a row of a workspace with ``out=`` ufuncs, in the order
of the formula, so they give the bits a new array per operation gives.
A solve keeps one workspace for all its kernel calls (:class:`_Residual`),
min(BLOCK, stations) elements long.  A new array per operation cost
about 40 k minor page faults per optimize of the benchmark's grid slice;
the workspace keeps that under 3 k.  BLOCK bounds every kernel call (a
block of stations, a batch of the search), and the workspace is now
the whole working set: 8192 elements keep it near 1.3 MB, where 16384
ran faster still but raised the grid's peak memory by 10%, and 1024 or
2048 paid more per-call overhead than they saved.

Once phi is known the resultant section speed follows from the torque
balance, U/(Omega R) = r / B2(phi), and all loads are recovered in closed
form.  Integrating the per-station loads over the span (midpoint rule)
gives CT, CP and the dimensional performance numbers.

Every batched evaluation is a list of (blade, operating point) rows
solved together on one station grid (:func:`_curves`); the solve is per
element, so each row is, bit for bit, :func:`evaluate_rotor` at its
operating point.  Thrust curves, the explorer's sweeps (in chunks of
whole rows of at most BLOCK stations), its trims (hover and cruise
together) and its grid search (figures of merit and cruise scans
together) all take this path, and one station (:func:`solve_station`)
is a one-element case of it.  Its converged state is an
:class:`InflowSolution`: of floats at one station, of arrays over a
blade's span.  Where residuals are so large that the product of two
overflows, the sign tests read the sign of the infinite product.

Conventions: radial positions are nondimensional (r = y/R in [0, 1)),
angles in radians, SI units throughout.  CT = T / (rho A (Omega R)^2),
CP = P / (rho A (Omega R)^3) with A = pi R^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import N_STATIONS, RHO_SL, RPM_TO_RAD_S
from .errors import GeometryError, NoRootError
from .schema import INTEGER, NUMBER, STRING, Key, read, rows

# per-station root find: the root is the first sign change on a scan of
# (0, pi/2) in SCAN_SLICES slices; Illinois polishes it to POLISH_TOL
SCAN_SLICES = 200         # slices over (0, pi/2) that define which root is taken
SCAN_EPS = 1.0e-6         # keep phi = 0 (a spurious fixed point) out of the scan
SCAN_BRACKET = (-0.5 * math.pi + SCAN_EPS, 0.5 * math.pi - SCAN_EPS)   # both scans' span
POLISH_TOL = 1.0e-14      # bracket width [rad] at which a polish stops
POLISH_ITERS = 100        # cap; 2e5 random stations needed at most 22
BLOCK = 8192              # elements per kernel call: sizes the solve's workspace
CELLS = (32, 8)           # slices per enclosed cell: coarse cells, then their cuts
BOX_SPAN = math.radians(3.0) + 1.0e-12   # pitch range [rad] of a box of rows, + rounding
CERT_MARGIN = 1.0e-12     # relative margin by which a certified enclosure clears 0
CERT_FLOOR = 1.0e-150     # absolute margin: products of certified residuals stay normal
ZERO_LIFT_CL = 1.0e-12    # |cl| below this in hover pins phi = 0 exactly
MAX_STATIONS = 4096       # stations per blade; 16x the finest in-repo use
_TINY = 1.0e-15


# ---------------------------------------------------------------------------
# geometry and operating point
# ---------------------------------------------------------------------------

@dataclass
class BladeGeometry:
    """Proprotor blade description.

    Chord and built-in pitch can be linear laws (root/tip chord, linear
    twist plus preset) or explicit tables over nondimensional radius.
    The collective pitch law adds the collective to the built-in pitch,

        theta(r) = collective + (preset + twist * r)

    so ``pitch(r, c)`` is ``c + pitch(r, 0.0)``; with preset = -twist the
    tip sits at the collective.  Tables give the built-in distribution at
    zero collective and override the linear law.

    Parameters
    ----------
    radius : float
        Rotor radius R [m].
    n_blades : int
        Blade count Nb.
    root_cutout : float
        Nondimensional start of the lifting span [-], in (0, 1).
    root_chord, tip_chord : float
        Chord [m] at r = 0 and r = 1 for the linear law.
    twist : float
        Linear twist rate [rad] over r in [0, 1] (negative washout).
    preset : float
        Root pitch offset [rad].
    pitch_table : (N, 2) array, optional
        Columns (r, theta [rad]); built-in pitch at zero collective.
    chord_table : (N, 2) array, optional
        Columns (r, chord [m]).
    """

    radius: float
    n_blades: int = 2
    root_cutout: float = 0.10
    root_chord: float | None = None
    tip_chord: float | None = None
    twist: float = 0.0
    preset: float = 0.0
    pitch_table: np.ndarray | None = None
    chord_table: np.ndarray | None = None
    name: str = ""

    def __post_init__(self):
        if self.radius is None or not self.radius > 0.0:    # each check fails on NaN
            raise GeometryError(f"radius must be positive, got {self.radius}")
        if not self.n_blades >= 1:
            raise GeometryError(f"need at least one blade, got {self.n_blades}")
        if not 0.0 < self.root_cutout < 1.0:
            raise GeometryError(f"root cutout must lie in (0, 1), got {self.root_cutout}")
        if self.chord_table is not None:
            self.chord_table = _table(self.chord_table, "chord_table", "chord_m")
            if not np.all(self.chord_table[:, 1] > 0.0):
                raise GeometryError("chord_table chords must be positive")
        elif self.root_chord is None:
            raise GeometryError("provide root_chord/tip_chord or a chord_table")
        else:
            if self.tip_chord is None:
                self.tip_chord = self.root_chord
            if not (self.root_chord > 0.0 and self.tip_chord > 0.0):
                raise GeometryError("chords must be positive")
        for name in ("twist", "preset"):
            if not math.isfinite(getattr(self, name)):
                raise GeometryError(f"{name} must be finite, got {getattr(self, name)}")
        if self.pitch_table is not None:
            self.pitch_table = _table(self.pitch_table, "pitch_table", "theta_rad")
            if not np.all(np.isfinite(self.pitch_table[:, 1])):
                raise GeometryError("pitch_table theta must be finite")

    # -- distributions ---------------------------------------------------

    def chord(self, r):
        """Chord [m] at nondimensional radius r (scalar or array)."""
        r = np.asarray(r, dtype=float)
        if self.chord_table is not None:
            return np.interp(r, self.chord_table[:, 0], self.chord_table[:, 1])
        return self.root_chord + (self.tip_chord - self.root_chord) * r

    def pitch(self, r, collective=0.0):
        """Local blade pitch theta [rad] at radius r for a collective."""
        r = np.asarray(r, dtype=float)
        if self.pitch_table is not None:
            return collective + np.interp(r, self.pitch_table[:, 0], self.pitch_table[:, 1])
        return collective + (self.preset + self.twist * r)

    def local_solidity(self, r):
        """sigma(r) = Nb c(r) / (pi R)."""
        return self.n_blades * self.chord(r) / (math.pi * self.radius)

    # -- scalar descriptors ---------------------------------------------

    @property
    def mean_chord(self):
        """Span-mean chord [m] of the linear law (sweeps rebuild only
        blades without tables); a chord table has none."""
        if self.chord_table is not None:
            raise GeometryError("a blade with a chord_table has no linear-law mean chord "
                                "or aspect ratio")
        return 0.5 * (self.root_chord + self.tip_chord)

    @property
    def aspect_ratio(self):
        """Blade aspect ratio AR = R / mean chord."""
        return self.radius / self.mean_chord

    @property
    def taper_ratio(self):
        """Root over tip chord."""
        return float(self.chord(0.0) / self.chord(1.0))

    @property
    def disc_area(self):
        """Disc area pi R^2 [m^2]."""
        return math.pi * self.radius ** 2

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_aspect_ratio(cls, radius, aspect_ratio, taper_ratio=1.0, twist=0.0,
                          preset=0.0, n_blades=2, root_cutout=0.10, name=""):
        """Build a linearly tapered blade from AR = R/c_mean and
        taper = c_root/c_tip, holding the mean chord."""
        if not (aspect_ratio > 0.0 and taper_ratio > 0.0):
            raise GeometryError("aspect_ratio and taper_ratio must be positive")
        c_mean = radius / aspect_ratio
        c_root = 2.0 * c_mean * taper_ratio / (1.0 + taper_ratio)
        c_tip = 2.0 * c_mean / (1.0 + taper_ratio)
        return cls(radius=radius, n_blades=n_blades, root_cutout=root_cutout,
                   root_chord=c_root, tip_chord=c_tip, twist=twist, preset=preset,
                   name=name)

    @classmethod
    def from_dict(cls, d, prefix=""):
        """Read a rotor description by :data:`ROTOR_KEYS`; ``prefix`` is
        its dotted path in an enclosing spec."""
        return cls(**read(ROTOR_KEYS, d, prefix))


def _table(tab, name, column):
    """A blade table as an (N >= 2, 2) float array of columns (r,
    ``column``) whose r column strictly increases."""
    tab = np.asarray(tab, dtype=float)
    if tab.ndim != 2 or tab.shape[1] != 2 or tab.shape[0] < 2:
        raise GeometryError(f"{name} must be (N>=2, 2): columns (r, {column})")
    if not np.all(np.diff(tab[:, 0]) > 0.0):
        raise GeometryError(f"{name} r column must be strictly increasing")
    return tab


#: JSON keys of a rotor description.  A missing radius_m reaches __post_init__ as
#: None, which makes it a GeometryError like any other unusable radius.
ROTOR_KEYS = {
    "radius_m": Key("radius", NUMBER, None),
    "n_blades": Key("n_blades", INTEGER),
    "root_cutout": Key("root_cutout", NUMBER),
    "name": Key("name", STRING),
    "root_chord_m": Key("root_chord", NUMBER),
    "tip_chord_m": Key("tip_chord", NUMBER),
    "twist_deg": Key("twist", NUMBER, deg=True),
    "preset_deg": Key("preset", NUMBER, deg=True),
    "chord_table": Key("chord_table", rows(2)),
    "pitch_table": Key("pitch_table", rows(2), deg=True),
}


@dataclass
class OperatingPoint:
    """Rotor operating condition.

    omega [rad/s], axial freestream v_inf [m/s] (>= 0), density rho
    [kg/m^3], collective pitch [rad].
    """

    omega: float
    v_inf: float = 0.0
    rho: float = RHO_SL
    collective: float = 0.0

    def __post_init__(self):
        if not self.omega > 0.0:          # written so that NaN fails each check
            raise GeometryError(f"omega must be positive, got {self.omega}")
        if not self.v_inf >= 0.0:
            raise GeometryError(f"v_inf must be >= 0, got {self.v_inf}")
        if not self.rho > 0.0:
            raise GeometryError(f"rho must be positive, got {self.rho}")
        if not math.isfinite(self.collective):
            raise GeometryError(f"collective must be finite, got {self.collective}")

    @classmethod
    def from_rpm(cls, rpm, v_inf=0.0, rho=RHO_SL, collective=0.0):
        return cls(omega=rpm * RPM_TO_RAD_S, v_inf=v_inf, rho=rho, collective=collective)

    @property
    def rpm(self):
        return self.omega / RPM_TO_RAD_S

    def tip_speed(self, radius):
        """Omega R [m/s]."""
        return self.omega * radius

    def advance_ratio(self, radius):
        """mu = v_inf / (Omega R)."""
        return self.v_inf / self.tip_speed(radius)


# ---------------------------------------------------------------------------
# per-station residual and vectorised root find
# ---------------------------------------------------------------------------

def _scratch(work, rows, *operands):
    """``rows`` scratch arrays for a kernel: the first rows of the stack
    ``work`` where given, else new memory of the operands' broadcast
    shape (0-d arrays for scalars)."""
    if work is None:
        shape = np.broadcast_shapes(*(np.shape(x) for x in operands))
        work = np.empty((rows,) + shape)
        if not shape:
            return [work[i, ...] for i in range(rows)]
    return list(work[:rows])


def _tip_loss_factor(abs_sin, r, n_blades, out, tmp):
    """Prandtl tip-loss F, written into ``out`` (which may be
    ``abs_sin``) with ``tmp`` as scratch; it falls as |sin(phi)| grows."""
    np.maximum(np.multiply(r, abs_sin, out=out), _TINY, out=out)
    np.multiply(0.5 * n_blades, np.subtract(1.0, r, out=tmp), out=tmp)
    np.divide(tmp, out, out=out)          # f = Nb (1 - r) / (2 r |sin(phi)|)
    np.negative(np.minimum(out, 700.0, out=out), out=out)
    np.arccos(np.exp(out, out=out), out=out)
    return np.multiply(2.0 / math.pi, out, out=out)


def _tip_loss(phi_sin, phi_cos, abs_sin, r, n_blades, out=None):
    """Tip-loss F and momentum factors (K_T, K_P) at inflow angle phi,
    into the three arrays ``out`` (new where None)."""
    F, k_t, k_p = _scratch(None, 3, abs_sin, r) if out is None else out
    one_minus_f = np.subtract(1.0, _tip_loss_factor(abs_sin, r, n_blades, F, k_t), out=k_p)
    np.subtract(1.0, np.multiply(one_minus_f, phi_cos, out=k_t), out=k_t)
    np.subtract(1.0, np.multiply(one_minus_f, phi_sin, out=k_p), out=k_p)
    return F, k_t, k_p


_RESIDUAL_ROWS = 6


def _residual(phi, r, pitch, sigma, mu, n_blades, polar, work=None):
    """Nondimensional station residual g(phi); arrays broadcast.

    Every step writes into one of _RESIDUAL_ROWS scratch rows
    (:func:`_scratch`), in the operation order of the formula, so a
    reused workspace gives the bits that new memory does.  The result is
    one of those rows.
    """
    s, c, x, y, k_t, k_p = _scratch(work, _RESIDUAL_ROWS, phi, r, pitch, sigma, mu)
    np.sin(phi, out=s)
    np.cos(phi, out=c)
    cl, cd = polar.cl_cd(np.subtract(pitch, phi, out=y))
    _tip_loss(s, c, np.abs(s, out=x), r, n_blades, (y, k_t, k_p))
    # cl, cd resolved along/normal to the local velocity:
    #   C_R cos(phi+gamma) = cl cos(phi) - cd sin(phi)
    #   C_R sin(phi+gamma) = cl sin(phi) + cd cos(phi)
    # blade = sigma / (8 r) (mu (cl s + cd c) / K_P + r (cl c - cd s) / K_T)
    np.multiply(cl, s, out=x)
    np.add(x, np.multiply(cd, c, out=y), out=x)
    np.multiply(x, mu, out=x)
    np.divide(x, k_p, out=x)
    np.multiply(cl, c, out=y)
    np.subtract(y, np.multiply(cd, s, out=k_p), out=y)
    np.multiply(y, r, out=y)
    np.divide(y, k_t, out=y)
    np.add(x, y, out=x)
    np.multiply(x, np.divide(sigma, np.multiply(8.0, r, out=y), out=y), out=x)
    # g = (r sin(phi) - mu cos(phi)) sin(phi) - sign(phi) blade
    np.multiply(r, s, out=y)
    np.subtract(y, np.multiply(mu, c, out=k_t), out=y)
    np.multiply(y, s, out=y)
    np.subtract(y, np.multiply(np.sign(phi, out=k_t), x, out=k_t), out=y)
    return y[()]


def _polish(lo, hi, g_lo, g_hi, k, g):
    """Illinois iterations (regula falsi with halving of the stale end) on
    the brackets [lo, hi] with g_lo * g_hi <= 0, one per element index k.

    ``g(phi, k)`` is the residual at angles phi of elements k.  A secant
    step shorter than POLISH_TOL/2 is lengthened to that, so the stale end
    is passed as soon as the iterates settle; a point outside the open
    bracket is replaced by the midpoint.  Each element stops on its own
    once its bracket is at most POLISH_TOL wide or its residual is exactly
    zero.  Returns the last iterate and the residual there.  The live
    brackets are compacted, and their elements re-taken, only after an
    iteration in which some element stops, so ``g`` sees one index array
    until then.
    """
    root = np.where(g_lo == 0.0, lo, hi)
    g_root = np.where(g_lo == 0.0, g_lo, g_hi)
    live = np.flatnonzero((g_lo != 0.0) & (g_hi != 0.0))
    a, b, fa, fb, k_live = lo[live], hi[live], g_lo[live], g_hi[live], k[live]
    for _ in range(POLISH_ITERS):
        if live.size == 0:
            break
        c = b - fb * (b - a) / (fb - fa)
        c = np.where(np.abs(c - b) < 0.5 * POLISH_TOL,
                     b + np.copysign(0.5 * POLISH_TOL, a - b), c)
        c = np.where((c - a) * (c - b) < 0.0, c, 0.5 * (a + b))
        fc = g(c, k_live)
        with np.errstate(over="ignore"):      # an overflowing product keeps its sign
            flip = fc * fb < 0.0
        a = np.where(flip, b, a)
        fa = np.where(flip, fb, 0.5 * fa)
        b, fb = c, fc
        done = (fc == 0.0) | (np.abs(b - a) <= POLISH_TOL)
        if done.any():
            root[live[done]] = b[done]
            g_root[live[done]] = fc[done]
            keep = ~done
            a, b, fa, fb, live = a[keep], b[keep], fa[keep], fb[keep], live[keep]
            k_live = k[live]
    root[live] = b
    g_root[live] = fb
    return root, g_root


def _sign_change(g_prev, g_next):
    """Slices whose end residuals change sign (or touch zero); both finite."""
    with np.errstate(over="ignore"):          # an overflowing product keeps its sign
        change = g_prev * g_next <= 0.0
    return change & np.isfinite(g_prev) & np.isfinite(g_next)


def _hull(a, b, lo, hi):
    """Interval spanned by two values, into lo and hi."""
    return np.minimum(a, b, out=lo), np.maximum(a, b, out=hi)


def _mul(a_lo, a_hi, b_lo, b_hi, lo, hi, tmp):
    """Interval product, into lo and hi; no output aliases an operand."""
    np.multiply(a_lo, b_lo, out=lo)
    np.multiply(a_lo, b_hi, out=tmp)
    np.maximum(lo, tmp, out=hi)
    np.minimum(lo, tmp, out=lo)
    for b in (b_lo, b_hi):
        np.multiply(a_hi, b, out=tmp)
        np.minimum(lo, tmp, out=lo)
        np.maximum(hi, tmp, out=hi)
    return lo, hi


def _mul_pos(a_lo, a_hi, b_lo, b_hi, lo, hi, tmp):
    """Interval product where a >= 0, into lo and hi; ``hi`` may be
    ``a_lo``, which is read before it is written."""
    np.minimum(np.multiply(a_lo, b_lo, out=lo), np.multiply(a_hi, b_lo, out=tmp), out=lo)
    np.maximum(np.multiply(a_lo, b_hi, out=hi), np.multiply(a_hi, b_hi, out=tmp), out=hi)
    return lo, hi


_ENCLOSE_ROWS = 16


def _enclose(lo, hi, r, pitch, sigma, mu, n_blades, polar, work=None):
    """Bounds (lower, upper) on every value :func:`_residual` computes at
    angles in [lo, hi], per element: :func:`_enclose_box` at one pitch."""
    return _enclose_box(lo, hi, r, pitch, pitch, sigma, mu, n_blades, polar, work)


def _enclose_box(lo, hi, r, pitch, pitch_hi, sigma, mu, n_blades, polar, work):
    """Bounds (lower, upper) on every value :func:`_residual` computes at
    angles in [lo, hi] and pitches in [pitch, pitch_hi], per element; lo
    <= hi on one side of 0.

    Plain interval arithmetic over the terms of g: sin and cos are
    monotone on each side of 0, F falls as |sin(phi)| grows, K_T and K_P
    follow from F, sin and cos, and cl, cd are bounded by the polar over
    [pitch - hi, pitch_hi - lo] (never through ``polar.cl_cd``).  Both
    bounds are widened by CERT_MARGIN times the sum of the bounds on g's
    terms (plus CERT_FLOOR), which covers the rounding of this and of the
    point evaluation: where they exclude 0, every computed residual in the
    cell has that sign.  Every step is monotone in the angle-of-attack
    range, so a pitch range gives bounds that hold each pitch's own.
    Elements off that domain (mu < 0, a cell touching 0 or leaving
    [-pi/2, pi/2], non-finite data) get (-inf, inf).  Works in
    _ENCLOSE_ROWS scratch rows (:func:`_scratch`, new memory where
    ``work`` is None) and returns two of them.
    """
    (s_lo, s_hi, c_lo, c_hi, a_lo, a_hi, f_lo, kt_hi, kt_lo, kp_hi,
     x_lo, x_hi, y_lo, y_hi, spare, tmp) = _scratch(work, _ENCLOSE_ROWS, lo, hi, r, pitch,
                                                   pitch_hi, sigma, mu)
    np.sin(lo, out=s_lo)                                 # sin rises on (-pi/2, pi/2)
    np.sin(hi, out=s_hi)
    _hull(np.cos(lo, out=x_lo), np.cos(hi, out=x_hi), c_lo, c_hi)
    _hull(np.abs(s_lo, out=x_lo), np.abs(s_hi, out=x_hi), a_lo, a_hi)
    # 1 - F rises with |sin(phi)|; K_T = 1 - (1 - F) cos, K_P = 1 - (1 - F) sin
    np.subtract(1.0, _tip_loss_factor(a_lo, r, n_blades, f_lo, tmp), out=f_lo)
    f_hi = np.subtract(1.0, _tip_loss_factor(a_hi, r, n_blades, a_lo, tmp), out=a_lo)
    np.subtract(1.0, np.multiply(f_hi, c_hi, out=kt_lo), out=kt_lo)
    np.subtract(1.0, np.multiply(f_lo, c_lo, out=kt_hi), out=kt_hi)
    fs_lo, fs_hi = _mul_pos(f_lo, f_hi, s_lo, s_hi, kp_hi, f_lo, tmp)
    kp_lo = np.subtract(1.0, fs_hi, out=fs_hi)
    np.subtract(1.0, fs_lo, out=kp_hi)
    ok = kt_lo > 0.0
    np.logical_and(ok, kp_lo > 0.0, out=ok)
    np.logical_and(ok, np.multiply(lo, hi, out=tmp) > 0.0, out=ok)
    np.logical_and(ok, mu >= 0.0, out=ok)
    np.logical_and(ok, np.maximum(np.negative(lo, out=tmp), hi, out=tmp) <= 0.5 * math.pi, out=ok)
    tmp = np.add(pitch, sigma, out=tmp)
    np.add(tmp, r, out=tmp)
    np.add(tmp, mu, out=tmp)
    np.logical_and(ok, np.isfinite(tmp), out=ok)
    np.logical_and(ok, np.isfinite(pitch_hi), out=ok)

    # blade = sigma / (8 r) (mu (cl s + cd c) / K_P + r (cl c - cd s) / K_T)
    cl_lo, cl_hi, cd_lo, cd_hi = polar.cl_cd_bounds(np.subtract(pitch, hi, out=x_lo),
                                                    np.subtract(pitch_hi, lo, out=x_hi))
    _mul(cl_lo, cl_hi, s_lo, s_hi, x_lo, x_hi, tmp)      # cl s + cd c
    np.add(x_lo, np.multiply(cd_lo, c_lo, out=tmp), out=x_lo)
    np.add(x_hi, np.multiply(cd_hi, c_hi, out=tmp), out=x_hi)
    _mul_pos(c_lo, c_hi, cl_lo, cl_hi, y_lo, y_hi, tmp)  # cl c - cd s
    ds_lo, ds_hi = _mul_pos(cd_lo, cd_hi, s_lo, s_hi, a_lo, spare, tmp)
    np.subtract(y_lo, ds_hi, out=y_lo)
    np.subtract(y_hi, ds_lo, out=y_hi)
    q_lo, q_hi = np.divide(mu, kp_hi, out=kp_hi), np.divide(mu, kp_lo, out=kp_lo)
    w_lo, w_hi = np.divide(r, kt_hi, out=kt_hi), np.divide(r, kt_lo, out=kt_lo)
    bl_lo, bl_hi = _mul_pos(q_lo, q_hi, x_lo, x_hi, a_lo, spare, tmp)
    t_lo, t_hi = _mul_pos(w_lo, w_hi, y_lo, y_hi, x_lo, x_hi, tmp)
    scale = np.divide(sigma, np.multiply(8.0, r, out=y_lo), out=y_lo)
    np.add(bl_lo, t_lo, out=bl_lo)
    np.multiply(bl_lo, scale, out=bl_lo)
    np.add(bl_hi, t_hi, out=bl_hi)
    np.multiply(bl_hi, scale, out=bl_hi)

    # g = (r sin(phi) - mu cos(phi)) sin(phi) - sign(phi) blade
    e_lo, e_hi = np.multiply(r, s_lo, out=x_lo), np.multiply(r, s_hi, out=x_hi)
    np.subtract(e_lo, np.multiply(mu, c_hi, out=tmp), out=e_lo)
    np.subtract(e_hi, np.multiply(mu, c_lo, out=tmp), out=e_hi)
    lower, upper = _mul(e_lo, e_hi, s_lo, s_hi, y_hi, kt_hi, tmp)
    neg = hi < 0.0
    np.negative(bl_hi, out=tmp)
    np.copyto(tmp, bl_lo, where=neg)
    np.add(lower, tmp, out=lower)
    np.negative(bl_lo, out=tmp)
    np.copyto(tmp, bl_hi, where=neg)
    np.add(upper, tmp, out=upper)
    # the margin scales with the bounds on the size of every term of g
    cl_m = np.maximum(np.abs(cl_lo, out=x_lo), np.abs(cl_hi, out=x_hi), out=x_lo)
    size = np.multiply(r, a_hi, out=x_hi)
    np.add(size, np.multiply(mu, c_hi, out=tmp), out=size)
    np.multiply(size, a_hi, out=size)
    lift = np.multiply(cl_m, a_hi, out=tmp)
    np.add(lift, np.multiply(cd_hi, c_hi, out=bl_lo), out=lift)
    np.multiply(lift, q_hi, out=lift)
    drag = np.multiply(cl_m, c_hi, out=bl_lo)
    np.add(drag, np.multiply(cd_hi, a_hi, out=bl_hi), out=drag)
    np.multiply(drag, w_hi, out=drag)
    np.add(lift, drag, out=lift)
    np.multiply(lift, scale, out=lift)
    np.add(size, lift, out=size)
    pad = np.add(np.multiply(CERT_MARGIN, size, out=size), CERT_FLOOR, out=size)
    np.subtract(lower, pad, out=lower)
    np.add(upper, pad, out=upper)
    off = ~ok
    np.copyto(lower, -np.inf, where=off)
    np.copyto(upper, np.inf, where=off)
    return lower, upper


class _Residual:
    """g over flat station arrays, one kernel call of at most BLOCK
    elements each: at angles phi of elements k (``g(phi, k)``), and as a
    test of the cells [lo, hi] of elements k whose enclosure does not rule
    out a zero.

    One workspace serves every call of a solve: the station data of a
    call's elements gathered into four rows, then the kernel's scratch
    rows, each of the call's length.  It holds min(BLOCK, stations)
    elements, and doubles, up to BLOCK, for a call of more cells than
    that.  A call with the index array of the call before (the same
    object, unchanged) reuses the station rows gathered for it.

    ``group`` is None, or the solve's (box, station) group of every
    element (:func:`_boxes`), which :func:`_first_change` certifies
    once per group."""

    ROWS = 4 + max(_RESIDUAL_ROWS, _ENCLOSE_ROWS)

    def __init__(self, r, pitch, sigma, mu, n_blades, polar):
        self.stations = (r, pitch, sigma, mu)
        self.n_blades = n_blades
        self.polar = polar
        self.group = None
        self.work = np.empty(self.ROWS * min(BLOCK, r.size))
        self.gathered = None                 # the index array the station rows hold

    def _gather(self, k, rows):
        """Station rows of elements k (at most BLOCK), and ``rows``
        scratch rows."""
        if self.work.size < self.ROWS * k.size:
            self.work = np.empty(self.ROWS * min(BLOCK, max(k.size, 2 * self.work.size
                                                            // self.ROWS)))
            self.gathered = None
        work = self.work[:(4 + rows) * k.size].reshape(4 + rows, k.size)
        if k is not self.gathered:
            for x, row in zip(self.stations, work):
                x.take(k, out=row, mode="clip")     # "raise" would buffer the output
            self.gathered = k
        return work[:4], work[4:]

    def __call__(self, phi, k):
        args, work = self._gather(k, _RESIDUAL_ROWS)
        return _residual(phi, *args, self.n_blades, self.polar, work).copy()

    def uncertified(self, lo, hi, k):
        """False where every residual on [lo, hi] is certified to share
        one sign."""
        args, work = self._gather(k, _ENCLOSE_ROWS)
        lower, upper = _enclose(lo, hi, *args, self.n_blades, self.polar, work)
        return ~((lower > 0.0) | (upper < 0.0))

    def box_uncertified(self, lo, hi, k, pitch_lo, pitch_hi):
        """:meth:`uncertified` at the stations of elements k under every
        pitch in [pitch_lo, pitch_hi]."""
        (r, _, sigma, mu), work = self._gather(k, _ENCLOSE_ROWS)
        lower, upper = _enclose_box(lo, hi, r, pitch_lo, pitch_hi, sigma, mu,
                                    self.n_blades, self.polar, work)
        return ~((lower > 0.0) | (upper < 0.0))


def _runs(sizes, block):
    """(first, last) of consecutive runs of items holding about ``block``
    of ``sizes`` in all; an item larger than that is a run on its own."""
    end = np.cumsum(sizes)
    first = 0
    while first < sizes.size:
        last = max(first + 1, int(np.searchsorted(end, end[first] - sizes[first] + block,
                                                  side="right")))
        yield first, last
        first = last


def _n_cells(j0, j1, width):
    """Cells of ``width`` slices, the last one shorter, that cover each
    range of slices [j0, j1]."""
    return -(-(j1 - j0) // width)


def _cut(j0, j1, width):
    """Cut each range of slices [j0, j1] into its :func:`_n_cells` cells.
    Returns (range index, first node) of every cell, in order."""
    n = _n_cells(j0, j1, width)
    run = np.repeat(np.arange(n.size), n)
    return run, j0[run] + width * (np.arange(run.size) - (np.cumsum(n) - n)[run])


def _starts(x):
    """Where each run of equal values in ``x`` starts."""
    return np.flatnonzero(np.concatenate(([x.size > 0], x[1:] != x[:-1])))


def _open_cells(owner, j0, j1, width, grid, uncertified):
    """Cut the cells [j0, j1] of owners ``owner`` into cells of ``width``
    slices; returns (owner, first node) of those g may vanish in, by
    ``uncertified(lo, hi, owner)``.

    A cell no wider than ``width`` stays open without a new enclosure: it
    is an open cell of the stage before, or a range that short."""
    kept = [(owner[:0], j0[:0])]
    for first, last in _runs(_n_cells(j0, j1, width), BLOCK // 2):
        run, lo = _cut(j0[first:last], j1[first:last], width)
        own = owner[first:last][run]
        open_ = np.ones(run.size, dtype=bool)
        cut = np.flatnonzero((j1[first:last] - j0[first:last] > width)[run])
        hi = np.minimum(lo[cut] + width, j1[first:last][run[cut]])
        open_[cut] = uncertified(grid[lo[cut]], grid[hi], own[cut])
        kept.append((own[open_], lo[open_]))
    return tuple(np.concatenate(col) for col in zip(*kept))


def _box_prefix(k, stop, grid, g):
    """Node J per element k up to which no slice of ``grid`` changes
    sign, certified once per (box, station) group that the element
    shares with other elements of k (J = 0 where it shares none).

    A group's box is its elements' common station under every pitch from
    the least to the greatest of theirs, up to the least of their
    ``stop``.  The box's cells of CELLS[0] slices are enclosed, then the
    cells of CELLS[1] slices inside its first open one; J is the first
    node of the first cell still open (the end of the last cell enclosed
    where none is).  A box bounds each member's own enclosure, so the
    certified run of cells holds for every member."""
    prefix = np.zeros(k.size, dtype=int)
    if g.group is None:
        return prefix
    first = _starts(g.group[k])
    size = np.diff(np.append(first, k.size))
    box = np.flatnonzero(size > 1)
    if box.size == 0:
        return prefix
    pitch = g.stations[1][k]
    p_lo = np.minimum.reduceat(pitch, first)[box]
    p_hi = np.maximum.reduceat(pitch, first)[box]
    box_stop = np.minimum.reduceat(stop, first)[box]
    station = k[first[box]]

    def uncertified(lo, hi, own):
        return g.box_uncertified(lo, hi, station[own], p_lo[own], p_hi[own])

    certified = box_stop.copy()
    owner = np.arange(box.size)
    j0 = np.zeros(box.size, dtype=int)
    j1 = box_stop
    for width in CELLS:
        certified[owner] = j1
        owner, j0 = _open_cells(owner, j0, j1, width, grid, uncertified)
        at = _starts(owner)                  # each box's first open cell
        owner, j0 = owner[at], j0[at]
        certified[owner] = j0
        j1 = np.minimum(j0 + width, box_stop[owner])
    per_group = np.zeros(first.size, dtype=int)
    per_group[box] = certified
    return np.repeat(per_group, size)


def _first_change(k, stop, g_start, grid, g):
    """First slice j in 1..stop of ``grid`` whose end residuals change
    sign (under :func:`_sign_change`'s rule), per element k, given the
    residual ``g_start`` at grid[0].

    Returns (slice, residual at both slice ends); slice is 0 and the
    residuals nan where no slice up to ``stop`` changes sign.  Elements
    of one box start after the run of slices their box certifies
    (:func:`_box_prefix`).  From there, cells of CELLS[0] slices whose
    enclosure excludes 0 are skipped; the others are cut into cells of
    CELLS[1] slices and enclosed again, and only the nodes of the cells
    still uncertified are evaluated, as ragged batches.  A range or cell
    no wider than the next cell width goes on without a new enclosure.
    A certified cell's nodes share one sign and neighbouring cells share
    their end node, so every sign change lies in a cell whose nodes were
    evaluated.  Each stage runs in batches of about BLOCK nodes, or
    BLOCK / 2 cells: an enclosure works through more scratch rows than a
    point evaluation.
    """
    stop = np.broadcast_to(stop, k.shape)
    slice_ = np.zeros(k.size, dtype=int)
    g_lo = np.full(k.size, np.nan)
    g_hi = np.full(k.size, np.nan)

    def uncertified(lo, hi, own):
        return g.uncertified(lo, hi, k[own])

    # open cells [j0, j1] of elements k[owner], in order
    owner = np.arange(k.size)
    j0 = _box_prefix(k, stop, grid, g)
    j1 = stop
    for width in CELLS:
        owner, j0 = _open_cells(owner, j0, j1, width, grid, uncertified)
        j1 = np.minimum(j0 + width, stop[owner])

    for first, last in _runs(j1 - j0 + 1, BLOCK):
        cell, j = _cut(j0[first:last], j1[first:last] + 1, 1)
        own = owner[first:last][cell]
        g_next = g(grid[j], k[own])
        at0 = np.flatnonzero(j == 0)
        g_next[at0] = g_start[own[at0]]
        g_prev = np.empty_like(g_next)
        g_prev[1:] = g_next[:-1]
        inner = np.zeros(j.size, dtype=bool)     # slice [j - 1, j] inside one cell
        inner[1:] = cell[1:] == cell[:-1]
        hit = np.flatnonzero(inner & _sign_change(g_prev, g_next))
        hit_owner, at = np.unique(own[hit], return_index=True)
        new = slice_[hit_owner] == 0             # an element's first hit comes first
        hit, hit_owner = hit[at][new], hit_owner[new]
        slice_[hit_owner] = j[hit]
        g_lo[hit_owner] = g_prev[hit]
        g_hi[hit_owner] = g_next[hit]
    return slice_, g_lo, g_hi


def _boxes(shape, r, pitch, sigma, mu):
    """Boxes of the rows of a (row x station) grid of ``shape``, from its
    flat station arrays: the order of the flat elements that puts each
    box's elements at one station next to each other, and the (box,
    station) group of each element in that order; (None, None) where no
    box holds two rows.

    A box is a run of consecutive rows with equal r, sigma and mu rows
    whose pitches at the first and at the last station each span at most
    BOX_SPAN: rows that differ only by collective, or pitch laws that
    differ linearly along the span.  Where a box is not that, its
    enclosures certify less, but no less soundly."""
    n = shape[-1] if len(shape) > 1 else 0
    rows = r.size // n if n else 0
    if rows < 2:
        return None, None
    same = np.ones(rows - 1, dtype=bool)
    for x in (r, sigma, mu):
        x = x.reshape(rows, n)
        np.logical_and(same, np.all(x[1:] == x[:-1], axis=1), out=same)
    same = same.tolist()
    ends = pitch.reshape(rows, n)[:, [0, -1]].T.tolist()
    start = [0]
    lo_0, lo_1 = hi_0, hi_1 = ends[0][0], ends[1][0]
    for i, (p_0, p_1) in enumerate(zip(*ends)):
        lo_0, hi_0, lo_1, hi_1 = min(lo_0, p_0), max(hi_0, p_0), min(lo_1, p_1), max(hi_1, p_1)
        if i and (not same[i - 1] or hi_0 - lo_0 > BOX_SPAN or hi_1 - lo_1 > BOX_SPAN):
            start.append(i)
            lo_0, lo_1 = hi_0, hi_1 = p_0, p_1
    if len(start) == rows:
        return None, None
    start = np.array(start)
    size = np.diff(np.append(start, rows))
    box = np.repeat(np.arange(start.size), size)           # box of each row
    # element (row, station) goes to (box start) * n + station * (box size) + (row - box start)
    first = start[box]
    at = (first * n + np.arange(rows) - first)[:, None] + np.arange(n) * size[box][:, None]
    order = np.empty(rows * n, dtype=np.intp)
    order[at.ravel()] = np.arange(rows * n)
    return order, np.repeat(np.arange(start.size * n), np.repeat(size, n))


def _solve_phi_grid(r, pitch, sigma, mu, n_blades, polar):
    """Inflow angle phi for every element of a broadcast (pitch, r, sigma,
    mu) grid.

    The root is the one a scan of (0, pi/2) in SCAN_SLICES slices would
    bracket first (then of (-pi/2, 0)), polished to POLISH_TOL, in one
    pass over blocks of BLOCK stations.  Stations whose residual changes
    sign between the ends of (0, pi/2) are polished on that bracket
    directly; the root is accepted once no slice of the scan grid before
    its own changes sign and its own slice does.  The block's other
    stations (unbracketed, or with an earlier crossing) are searched for
    their first sign change over all SCAN_SLICES slices, then over
    (-pi/2, 0), and polished on it (:func:`_first_change` both times).

    The last axis holds a row's stations.  Rows that differ only by
    collective form boxes (:func:`_boxes`), solved in an order that puts
    each box's elements at one station next to each other.

    Returns (phi, solved, residual).  Elements with no bracket anywhere
    come back with solved = False and phi = nan; callers decide whether
    that is fatal.
    """
    shape = np.broadcast_shapes(np.shape(r), np.shape(pitch), np.shape(sigma), np.shape(mu))
    r_f, pitch_f, sigma_f, mu_f = (np.broadcast_to(np.asarray(x, dtype=float), shape).ravel()
                                   for x in (r, pitch, sigma, mu))
    order, group = _boxes(shape, r_f, pitch_f, sigma_f, mu_f)
    if order is not None:
        r_f, pitch_f, sigma_f, mu_f = (x[order] for x in (r_f, pitch_f, sigma_f, mu_f))
    g = _Residual(r_f, pitch_f, sigma_f, mu_f, n_blades, polar)
    g.group = group

    phi = np.full(r_f.size, np.nan)
    res = np.full(r_f.size, np.nan)
    found = np.zeros(r_f.size, dtype=bool)

    # hover fixed point: zero section lift at phi = 0 is the exact solution
    hover = np.flatnonzero(mu_f == 0.0)
    if hover.size:
        cl0, _ = polar.cl_cd(pitch_f[hover])
        pinned = hover[np.abs(cl0) < ZERO_LIFT_CL]
        phi[pinned] = 0.0
        res[pinned] = 0.0
        found[pinned] = True

    def accept(k, root, g_root):
        phi[k] = root
        res[k] = g_root
        found[k] = True

    def scan(k, g_start, grid):
        j, g_lo, g_hi = _first_change(k, SCAN_SLICES, g_start, grid, g)
        hit = j > 0
        k, j = k[hit], j[hit]
        accept(k, *_polish(grid[j - 1], grid[j], g_lo[hit], g_hi[hit], k, g))

    pos = np.linspace(SCAN_EPS, SCAN_BRACKET[1], SCAN_SLICES + 1)
    neg = np.linspace(SCAN_BRACKET[0], -SCAN_EPS, SCAN_SLICES + 1)
    todo = np.flatnonzero(~found)
    for s in range(0, todo.size, BLOCK):
        k = todo[s:s + BLOCK]
        g_a = g(np.full(k.size, pos[0]), k)
        g_b = g(np.full(k.size, pos[-1]), k)
        ends = np.flatnonzero(_sign_change(g_a, g_b))
        root, g_root = _polish(np.full(ends.size, pos[0]), np.full(ends.size, pos[-1]),
                               g_a[ends], g_b[ends], k[ends], g)
        # no enclosure can rule out the root's own slice: search the slices
        # before it, then test that slice at its two ends
        root_slice = np.minimum(np.searchsorted(pos, root, side="right"), SCAN_SLICES)
        j, _, _ = _first_change(k[ends], root_slice - 1, g_a[ends], pos, g)
        same = np.flatnonzero(j == 0)
        at, kk = root_slice[same], k[ends[same]]
        same = same[_sign_change(g(pos[at - 1], kk), g(pos[at], kk))]
        accept(k[ends[same]], root[same], g_root[same])
        left = np.flatnonzero(~found[k])
        if left.size:
            scan(k[left], g_a[left], pos)
            k = k[~found[k]]
            if k.size:
                scan(k, g(np.full(k.size, neg[0]), k), neg)

    if order is not None:                    # back to the grid's order
        phi[order], found[order], res[order] = phi.copy(), found.copy(), res.copy()
    return phi.reshape(shape), found.reshape(shape), res.reshape(shape)


def _recover(phi, r, pitch, sigma, mu, n_blades, polar):
    """Flow state and per-station loads once phi is known.

    The section resultant speed comes from the torque-side balance,
    U/(Omega R) = r / B2(phi); at the residual root the thrust-side
    balance gives the identical value, so both momentum equations hold.
    """
    s = np.sin(phi)
    c = np.cos(phi)
    abs_s = np.abs(s)
    alpha = pitch - phi
    cl, cd = polar.cl_cd(alpha)
    F, k_t, k_p = _tip_loss(s, c, abs_s, r, n_blades)

    cr_sin = cl * s + cd * c          # C_R sin(phi + gamma)
    cr_cos = cl * c - cd * s          # C_R cos(phi + gamma)
    b2 = c + sigma * cr_sin / (8.0 * k_p * np.maximum(abs_s, _TINY) * r)
    u = np.where(np.abs(s) < _TINY, r, r / b2)   # phi = 0: no induced flow

    lam = u * s
    xi = u * c
    lam_i = lam - mu
    xi_i = r - xi
    dct_dr = 0.5 * sigma * u * u * cr_cos
    dcp_dr = 0.5 * sigma * u * u * cr_sin * r
    return {
        "alpha": alpha, "cl": cl, "cd": cd, "tip_loss": F,
        "k_t": k_t, "k_p": k_p, "lam": lam, "xi": xi,
        "lam_i": lam_i, "xi_i": xi_i, "dct_dr": dct_dr, "dcp_dr": dcp_dr,
    }


# ---------------------------------------------------------------------------
# results containers
# ---------------------------------------------------------------------------

@dataclass
class InflowSolution:
    """Converged inflow state at radial stations (nondimensional speeds
    are fractions of tip speed): floats at one station from
    :func:`solve_station`, arrays over the blade span from
    :func:`evaluate_rotor` with ``return_inflow=True``."""

    r: float
    phi: float            # inflow angle [rad]
    alpha: float          # section angle of attack [rad]
    cl: float
    cd: float
    tip_loss: float       # Prandtl F [-]
    k_t: float
    k_p: float
    lam: float            # axial flow ratio (v_inf + w_i)/(Omega R)
    xi: float             # swirl flow ratio (Omega y - u_i)/(Omega R)
    lam_i: float          # induced axial ratio
    xi_i: float           # induced swirl ratio
    dct_dr: float
    dcp_dr: float
    residual: float


@dataclass
class RotorPerformance:
    """Integrated rotor performance at one operating point."""

    ct: float             # thrust coefficient [-]
    cp: float             # power coefficient [-]
    thrust: float         # [N]
    power: float          # [W]
    figure_of_merit: float  # hover only; nan in axial flight
    power_loading: float  # T/P [N/W]
    eta_p: float          # propulsive efficiency CT mu / CP; 0 in hover
    advance_ratio: float  # mu [-]
    collective: float     # theta0 [rad]
    v_inf: float          # [m/s]
    rpm: float
    rho: float
    radius: float

    CSV_HEADER = "theta0_deg,v_inf,rpm,CT,CP,T_N,P_W,FM,PL,eta_p"

    @property
    def propulsive(self):
        """T > 0 and P > 0: only then is eta_p a propulsive efficiency
        (CT mu / CP also reads positive, even above 1, on a windmilling
        rotor)."""
        return self.thrust > 0.0 and self.power > 0.0

    def csv_row(self):
        """One CSV line; FM is blank outside hover, and eta_p unless the
        rotor is :attr:`propulsive`."""
        fm = "" if math.isnan(self.figure_of_merit) else f"{self.figure_of_merit:.6f}"
        eta = f"{self.eta_p:.6f}" if self.propulsive else ""
        return (f"{math.degrees(self.collective):.4f},{self.v_inf:.4f},{self.rpm:.2f},"
                f"{self.ct:.8e},{self.cp:.8e},{self.thrust:.6f},{self.power:.6f},"
                f"{fm},{self.power_loading:.8f},{eta}")


# ---------------------------------------------------------------------------
# public solver entry points
# ---------------------------------------------------------------------------

def station_grid(root_cutout, n_stations):
    """Midpoint stations and weight: n cells spanning [cutout, 1]."""
    if not 16 <= n_stations <= MAX_STATIONS:
        raise GeometryError(f"need 16 to {MAX_STATIONS} stations, got {n_stations}")
    dr = (1.0 - root_cutout) / n_stations
    r = root_cutout + dr * (np.arange(n_stations) + 0.5)
    return r, dr


def solve_station(geometry, op, polar, r):
    """Converged :class:`InflowSolution` (floats) at a single
    nondimensional station r; a one-station solve of the core of
    :func:`evaluate_rotor`.

    Raises :class:`NoRootError` if the residual has no sign change on
    (-pi/2, pi/2).
    """
    if not 0.0 < r < 1.0:
        raise GeometryError(f"station must lie in (0, 1), got {r}")
    mu = op.advance_ratio(geometry.radius)
    pitch = float(geometry.pitch(r, op.collective))
    sigma = float(geometry.local_solidity(r))
    # one station has no cell width; its unit-width ct and cp go unused
    _, _, found, state = _solve_rows(np.array([r]), 1.0, np.array([pitch]),
                                     np.array([sigma]), mu, geometry.n_blades, polar)
    if not found[0]:
        raise NoRootError(
            f"no inflow-angle root at r={r:.4f} (pitch {math.degrees(pitch):.2f} deg, "
            f"mu {mu:.4f})", stations=[r], bracket=SCAN_BRACKET)
    return InflowSolution(r=float(r), **{k: float(v[0]) for k, v in state.items()})


def _solve_rows(r, dr, pitch, sigma, mu, n_blades, polar):
    """CT and CP of every row of a (row x station) grid, in one inflow solve.

    Row i is a blade at stations ``r`` with pitches ``pitch[i]``, local
    solidities ``sigma[i]`` and advance ratio ``mu[i]``; the three
    broadcast to (..., stations), so a row can differ from the next in
    collective, speed, blade or all of them.  Returns (ct, cp, found,
    state): ct and cp per row (nan on a row where a station has no
    root), found and state per element, ``state`` the
    :class:`InflowSolution` fields but ``r``.
    """
    phi, found, res = _solve_phi_grid(r, pitch, sigma, mu, n_blades, polar)
    state = _recover(phi, r, pitch, sigma, mu, n_blades, polar)
    ct = np.sum(state["dct_dr"], axis=-1) * dr
    cp = np.sum(state["dcp_dr"], axis=-1) * dr
    return ct, cp, found, {"phi": phi, "residual": res, **state}


def _no_root(bad):
    """The error for a solve whose stations ``bad`` found no root."""
    return NoRootError(
        f"inflow solve failed at {bad.size} station(s): r = "
        + ", ".join(f"{x:.4f}" for x in bad[:8]),
        stations=bad.tolist(), bracket=SCAN_BRACKET)


def _performance(ct, cp, geometry, op):
    mu = op.advance_ratio(geometry.radius)
    v_tip = op.tip_speed(geometry.radius)
    area = geometry.disc_area
    try:
        v2, v3 = v_tip ** 2, v_tip ** 3
    except OverflowError:       # a float power raises where the product gives inf
        v2, v3 = v_tip * v_tip, v_tip * v_tip * v_tip
    thrust = ct * op.rho * area * v2
    power = cp * op.rho * area * v3
    if mu == 0.0:
        eta_p = 0.0
        fm = ct ** 1.5 / (math.sqrt(2.0) * cp) if ct > 0.0 and cp > 0.0 else math.nan
    else:
        eta_p = ct * mu / cp if cp != 0.0 else math.nan
        fm = math.nan
    pl = thrust / power if power != 0.0 else math.inf
    return RotorPerformance(
        ct=ct, cp=cp, thrust=thrust, power=power, figure_of_merit=fm,
        power_loading=pl, eta_p=eta_p, advance_ratio=mu,
        collective=op.collective, v_inf=op.v_inf, rpm=op.rpm, rho=op.rho,
        radius=geometry.radius)


def evaluate_rotor(geometry, op, polar, n_stations=N_STATIONS, return_inflow=False):
    """Integrated CT, CP and dimensional performance at one operating point.

    Midpoint rule over ``n_stations`` equal cells on [root_cutout, 1]; a
    one-row solve of the same core as :func:`thrust_curve`.  Raises
    :class:`NoRootError` naming the failed stations if any station does
    not converge.
    """
    r, dr = station_grid(geometry.root_cutout, n_stations)
    ct, cp, found, state = _solve_rows(
        r, dr, geometry.pitch(r, op.collective)[None, :], geometry.local_solidity(r),
        op.advance_ratio(geometry.radius), geometry.n_blades, polar)
    if not found.all():
        raise _no_root(r[~found[0]])
    perf = _performance(float(ct[0]), float(cp[0]), geometry, op)
    if return_inflow:
        return perf, InflowSolution(r=r, **{k: v[0] for k, v in state.items()})
    return perf


@dataclass
class RotorCurve:
    """Performance over a batch of operating points, from one inflow solve.

    ``rows[i]`` is the :class:`RotorPerformance` at ``ops[i]``, or None
    with, in ``errors[i]``, the :class:`NoRootError` that
    :func:`evaluate_rotor` raises there.
    """

    ops: list
    rows: list
    errors: list

    def column(self, attr):
        """One :class:`RotorPerformance` field per row; nan on failed rows."""
        return np.array([math.nan if p is None else getattr(p, attr) for p in self.rows])


def _curves(rows, polar, n_stations):
    """The :class:`RotorCurve` of (blade, op) ``rows`` solved together on
    :func:`evaluate_rotor`'s grid of ``n_stations`` cells, each row what
    that gives or raises there.  The blades must share a root cutout and
    a blade count (else a GeometryError); each blade's solidity and
    zero-collective pitch are read once, and a row's collective added."""
    if not rows:
        return RotorCurve([], [], [])
    blades, ops = zip(*rows)
    distinct = {id(g): g for g in blades}
    shared = {(g.root_cutout, g.n_blades) for g in distinct.values()}
    if len(shared) > 1:
        raise GeometryError("the rows of one solve need one root cutout and blade count, "
                            f"got (root_cutout, n_blades) {sorted(shared)}")
    (root_cutout, n_blades), = shared
    r, dr = station_grid(root_cutout, n_stations)
    laws = {k: (g.local_solidity(r), g.pitch(r, 0.0)) for k, g in distinct.items()}
    sigma, built_in = (np.stack(law) for law in zip(*(laws[id(g)] for g in blades)))
    pitch = np.array([[op.collective] for op in ops]) + built_in   # each blade.pitch(r, c)
    mu = np.array([[op.advance_ratio(g.radius)] for g, op in rows])
    ct, cp, found, _ = _solve_rows(r, dr, pitch, sigma, mu, n_blades, polar)
    solved = [(_performance(float(ct[i]), float(cp[i]), g, op), None) if found[i].all()
              else (None, _no_root(r[~found[i]])) for i, (g, op) in enumerate(rows)]
    return RotorCurve(list(ops), *map(list, zip(*solved)))


def _collective_rows(blade, op, collectives):
    """:func:`_curves` rows of ``blade`` at ``op`` at each of ``collectives``."""
    return [(blade, replace(op, collective=float(theta0)))
            for theta0 in np.atleast_1d(np.asarray(collectives, dtype=float))]


def thrust_curve(geometry, polar, rpm, collectives, v_inf=0.0, rho=RHO_SL,
                 n_stations=N_STATIONS):
    """Sweep collective at fixed RPM and axial speed; one batched solve.

    One :func:`_curves` row per collective, so each row is what
    :func:`evaluate_rotor` gives at it.  Stations that fail to converge
    invalidate only their own row.
    """
    op = OperatingPoint.from_rpm(rpm, v_inf=v_inf, rho=rho)
    return _curves(_collective_rows(geometry, op, collectives), polar, n_stations)


def rising_branch(values):
    """Indices of the finite samples up to the first maximum: the
    pre-stall branch of a thrust curve sampled in rising collective."""
    values = np.asarray(values, dtype=float)
    finite = np.isfinite(values)
    if not finite.any():
        return np.empty(0, dtype=int)
    peak = int(np.argmax(np.where(finite, values, -np.inf)))
    return np.flatnonzero(finite[:peak + 1])
