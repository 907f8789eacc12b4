"""Positive finite Borel measures on the closed unit disk, Carleson windows,
and the window-mass statistics behind the reverse embedding conditions.

A Carleson window S(I, h) = {1 - h <= |z| <= 1, z/|z| in I} is passed as
its arc I (an ``Arc``) and its depth h in (0, 1]; the standard window of I
has depth min(|I|, 1).

A measure is the sum of three parts, each stored exactly:

  * atoms: point masses anywhere in the closed disk,
  * a piecewise-constant boundary density with respect to arclength
    d(theta) (plain radians, no 2*pi normalization),
  * a piecewise-constant density with respect to area measure dA on a
    polar partition of the open disk.

Window masses are computed in closed form (piecewise integrals and
annular-sector areas), so scans are exact up to float rounding.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DomainError, EvaluationError
from .numerics import TWO_PI, _wrap_angles as _wrap, ensure_point, wrap_angle

_BOUNDARY_ATOM_TOL = 1e-12


class Arc:
    """Boundary arc given by center angle and length; wraps modulo 2*pi."""

    __slots__ = ("center", "length")

    def __init__(self, center: float, length: float):
        if not (math.isfinite(center) and math.isfinite(length)):
            raise DomainError("arc parameters must be finite")
        if not 0.0 < length <= TWO_PI + 1e-12:
            raise DomainError(f"arc length must lie in (0, 2*pi], got {length}")
        self.center, self.length = wrap_angle(center), min(float(length), TWO_PI)

    @property
    def start(self) -> float:
        return wrap_angle(self.center - 0.5 * self.length)


class BoundaryDensity:
    """Piecewise-constant density with respect to arclength d(theta).

    Piece i covers [breakpoints[i], breakpoints[i+1]) with the last piece
    wrapping around to breakpoints[0] + 2*pi.
    """

    __slots__ = ("breakpoints", "values")

    def __init__(self, breakpoints, values):
        bp = np.asarray(breakpoints, dtype=float)
        v = np.asarray(values, dtype=float)
        if bp.ndim != 1 or bp.size == 0 or v.shape != bp.shape:
            raise DomainError("breakpoints and values must be matching 1-d arrays")
        if not np.all((bp >= 0.0) & (bp < TWO_PI)) or np.any(np.diff(bp) <= 0.0):  # NaN fails too
            raise DomainError("breakpoints must be strictly increasing within [0, 2*pi)")
        if np.any(v < 0.0) or not np.all(np.isfinite(v)):
            raise DomainError("density values must be finite and nonnegative")
        self.breakpoints, self.values = bp, v

    @classmethod
    def zero(cls) -> "BoundaryDensity":
        return cls(np.array([0.0]), np.array([0.0]))

    @classmethod
    def constant(cls, value: float) -> "BoundaryDensity":
        return cls(np.array([0.0]), np.array([float(value)]))

    def _extended(self):
        bp = self.breakpoints
        return np.concatenate([bp, [bp[0] + TWO_PI]])

    def value_at(self, thetas: np.ndarray) -> np.ndarray:
        bp = self.breakpoints
        t = np.mod(np.asarray(thetas, dtype=float) - bp[0], TWO_PI) + bp[0]
        idx = np.searchsorted(self._extended(), t, side="right") - 1
        idx = np.clip(idx, 0, self.values.size - 1)
        return self.values[idx]

    def integrals(self, starts: np.ndarray, length: float) -> np.ndarray:
        """Exact integrals of the density over the arcs [start, start+length],
        0 < length <= 2*pi."""
        edges = self._extended()
        v = self.values
        # head[j] integrates the pieces below piece j
        head = np.array([float(np.dot(np.diff(edges[: j + 1]), v[:j])) if j > 0 else 0.0 for j in range(v.size)])

        def cumulative(x):  # integral from breakpoints[0] to x in [bp0, bp0 + 2*pi]
            j = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, v.size - 1)
            return head[j] + v[j] * (x - edges[j])

        bp0 = float(self.breakpoints[0])
        a = _wrap(starts - bp0) + bp0
        b = a + length
        cum_a = cumulative(a)
        return np.where(b > bp0 + TWO_PI, self.total() - cum_a + cumulative(b - TWO_PI), cumulative(b) - cum_a)

    def total(self) -> float:
        edges = self._extended()
        return float(np.dot(np.diff(edges), self.values))

    def min_value(self) -> float:
        """Essential infimum: the best lower bound of the absolutely continuous part."""
        return float(np.min(self.values))


class AreaDensity:
    """Piecewise-constant density with respect to area measure dA on a polar
    partition: cells [radial_breaks[i], radial_breaks[i+1]] x
    [angular_breaks[j], angular_breaks[j+1]]."""

    __slots__ = ("radial_breaks", "angular_breaks", "values")

    def __init__(self, radial_breaks, angular_breaks, values):
        rb = np.asarray(radial_breaks, dtype=float)
        ab = np.asarray(angular_breaks, dtype=float)
        v = np.asarray(values, dtype=float)
        if rb.ndim != 1 or rb.size < 2 or not np.all(np.diff(rb) > 0):
            raise DomainError("radial_breaks must be increasing with >= 2 entries")
        if rb[0] < 0.0 or rb[-1] > 1.0 + 1e-12:
            raise DomainError("radial_breaks must lie within [0, 1]")
        if ab.ndim != 1 or ab.size < 2 or not np.all(np.diff(ab) > 0):
            raise DomainError("angular_breaks must be increasing with >= 2 entries")
        if ab[-1] - ab[0] > TWO_PI + 1e-12:
            raise DomainError("angular_breaks must span at most 2*pi")
        if v.shape != (rb.size - 1, ab.size - 1):
            raise DomainError("values must have shape (radial cells, angular cells)")
        if np.any(v < 0.0) or not np.all(np.isfinite(v)):
            raise DomainError("density values must be finite and nonnegative")
        self.radial_breaks, self.angular_breaks, self.values = rb, ab, v

    @classmethod
    def constant(cls, value: float) -> "AreaDensity":
        return cls(np.array([0.0, 1.0]), np.array([0.0, TWO_PI]), np.array([[float(value)]]))

    def cells(self):
        rb, ab, v = self.radial_breaks, self.angular_breaks, self.values
        for i in range(v.shape[0]):
            for j in range(v.shape[1]):
                if v[i, j] > 0.0:
                    yield float(rb[i]), float(rb[i + 1]), float(ab[j]), float(ab[j + 1]), float(v[i, j])

    def sector_masses(self, r_lo: np.ndarray, starts: np.ndarray, length: float) -> np.ndarray:
        """Exact masses of {r_lo <= |z| <= 1, arg z in [start, start+length]}
        (r_lo and starts of one shape)."""
        total = np.zeros(starts.shape)
        for c_rlo, c_rhi, c_alo, c_ahi, val in self.cells():
            lo = np.maximum(r_lo, c_rlo)
            hi = min(1.0, c_rhi)
            # overlap of each arc with the fixed interval [c_alo, c_ahi]
            w = c_ahi - c_alo
            d0 = _wrap(starts - c_alo)
            ang = np.maximum(0.0, np.minimum(d0 + length, w) - d0)
            d1 = d0 - TWO_PI
            ang += np.maximum(0.0, np.minimum(d1 + length, w) - np.maximum(d1, 0.0))
            np.add(total, val * 0.5 * (hi * hi - lo * lo) * ang, out=total, where=(hi > lo) & (ang > 0.0))
        return total


class Measure:
    """Positive finite Borel measure on the closed unit disk; the boundary density defaults to zero."""

    __slots__ = ("atoms", "boundary", "area")

    def __init__(self, atoms=(), boundary: BoundaryDensity | None = None, area: AreaDensity | None = None):
        checked = []
        for z, mass in atoms:
            z = ensure_point(z)
            mass = float(mass)
            if mass <= 0.0 or not math.isfinite(mass):
                raise DomainError(f"atom mass must be positive and finite, got {mass}")
            if abs(z) > 1.0 + 1e-12:
                raise DomainError(f"atom at {z} lies outside the closed disk")
            checked.append((z, mass))
        self.atoms, self.area = tuple(checked), area
        self.boundary = BoundaryDensity.zero() if boundary is None else boundary

    def has_boundary_atoms(self) -> bool:
        """Whether an atom sits on the circle: singular mass, which never raises ``boundary.min_value()``."""
        return any(abs(z) >= 1.0 - _BOUNDARY_ATOM_TOL for z, _ in self.atoms)


def window_masses(mu: Measure, centers, length: float, depths) -> np.ndarray:
    """mu(S_{I,h}) for the arcs I of one length around each centre, at one
    depth or one depth per centre: atoms in the closed window, plus the
    boundary-density integral over I, plus the area-density mass of the
    annular sector.

    Additivity over a partition of I holds exactly provided no atom sits
    on a shared subarc endpoint (the windows are closed sets).
    """
    centers, depths = np.broadcast_arrays(np.asarray(centers, dtype=float), np.asarray(depths, dtype=float))
    if not 0.0 < length <= TWO_PI + 1e-12 or not np.all(np.isfinite(centers) & (depths > 0.0) & (depths <= 1.0)):
        raise DomainError("windows need finite centres, length in (0, 2*pi] and depths in (0, 1]")
    length = min(float(length), TWO_PI)
    centers = _wrap(centers)
    starts = _wrap(centers - 0.5 * length)
    r_lo = 1.0 - depths
    total = mu.boundary.integrals(starts, length)
    for z, mass in mu.atoms:
        az = abs(z)
        if az == 0.0:
            # z/|z| is undefined at the origin; it belongs to the window
            # only when the window is the whole closed disk
            inside = (r_lo <= 0.0) & (length >= TWO_PI - 1e-15)
        else:
            dist = np.abs(_wrap(math.atan2(z.imag, z.real) - centers + math.pi) - math.pi)
            inside = (az >= r_lo) & (dist <= 0.5 * length)
        np.add(total, mass, out=total, where=inside)
    if mu.area is not None:
        total = total + mu.area.sector_masses(r_lo, starts, length)
    return total


def window_mass(mu: Measure, arc: Arc, depth: float) -> float:
    """mu(S_{I,h}) of the window over one arc at one depth (see ``window_masses``)."""
    return float(window_masses(mu, [arc.center], arc.length, depth)[0])


class WindowScan(NamedTuple):
    ratio: float
    witness: Arc
    table: tuple  # per-generation rows (generation, min_ratio, witness)


@np.errstate(over="ignore", invalid="ignore")  # an inf or nan ratio raises EvaluationError below
def window_infimum_scan(mu: Measure, max_depth: int) -> WindowScan:
    """Minimum of mu(S_I)/|I| over dyadic arcs of generations 1..max_depth.

    Each generation g scans the 2^g dyadic arcs of length 2*pi*2^-g plus
    their half-shifted copies; any arc contains a scanned arc of comparable
    length, so the result estimates the true infimum up to a factor <= 2.
    """
    if max_depth < 1:
        raise DomainError("max_depth must be >= 1")
    best = math.inf
    witness = None
    table = []
    for g in range(1, max_depth + 1):
        length = TWO_PI * 2.0**-g
        centers = 0.5 * length * (1.0 + np.arange(2 ** (g + 1)))
        ratios = window_masses(mu, centers, length, min(length, 1.0)) / length
        if not np.all(np.isfinite(ratios)):
            raise EvaluationError(f"window masses overflow at generation {g}")
        i = int(np.argmin(ratios))  # the first minimum, as a strict-< loop finds it
        gen_best, gen_witness = float(ratios[i]), Arc(float(centers[i]), length)
        table.append((g, gen_best, gen_witness))
        if gen_best < best:
            best = gen_best
            witness = gen_witness
    return WindowScan(best, witness, tuple(table))


def refine_window_to_arc(mu: Measure, arc: Arc, depths: Sequence[float]) -> np.ndarray:
    """Window masses mu(S_{I,h}) along a decreasing depth list; the last
    entry approximates the mass of the closed arc itself."""
    d = np.asarray(depths, dtype=float)
    if d.ndim != 1 or d.size == 0:
        raise DomainError("depths must be a nonempty sequence")
    if np.any(np.diff(d) >= 0.0) and d.size > 1:
        raise DomainError("depths must be strictly decreasing")
    if np.any(d <= 0.0) or np.any(d > 1.0):
        raise DomainError("depths must lie in (0, 1]")
    if d[-1] < 2.0**-24:
        raise DomainError("depths below 2^-24 exceed the supported resolution")
    return window_masses(mu, [arc.center], arc.length, d)


# ---------------------------------------------------------------------------
# standard measures used throughout the tests and the CLI
# ---------------------------------------------------------------------------


def normalized_arclength(scale: float = 1.0) -> Measure:
    """scale * d(theta)/(2*pi): the probability measure on the circle."""
    return Measure(boundary=BoundaryDensity.constant(scale / TWO_PI))


def arclength(scale: float = 1.0) -> Measure:
    """scale * d(theta) in plain radians."""
    return Measure(boundary=BoundaryDensity.constant(scale))


def upper_half_arclength(scale: float = 1.0) -> Measure:
    """scale * d(theta)/(2*pi) restricted to the upper half-circle."""
    return Measure(
        boundary=BoundaryDensity(
            np.array([0.0, math.pi]), np.array([scale / TWO_PI, 0.0])
        )
    )
