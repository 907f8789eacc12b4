"""Positive finite Borel measures on the closed unit disk, Carleson windows,
and the window-mass statistics behind the reverse embedding conditions.

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
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DomainError
from .numerics import TWO_PI, ensure_point, wrap_angle

_BOUNDARY_ATOM_TOL = 1e-12


@dataclass(frozen=True)
class Arc:
    """Boundary arc given by center angle and length; wraps modulo 2*pi."""

    center: float
    length: float

    def __post_init__(self):
        if not (math.isfinite(self.center) and math.isfinite(self.length)):
            raise DomainError("arc parameters must be finite")
        if not 0.0 < self.length <= TWO_PI + 1e-12:
            raise DomainError(f"arc length must lie in (0, 2*pi], got {self.length}")
        object.__setattr__(self, "center", wrap_angle(self.center))
        object.__setattr__(self, "length", min(float(self.length), TWO_PI))

    @property
    def start(self) -> float:
        return wrap_angle(self.center - 0.5 * self.length)

    @property
    def end(self) -> float:
        return wrap_angle(self.center + 0.5 * self.length)

    def contains(self, angle: float) -> bool:
        """Closed-arc membership of the angle."""
        d = abs(wrap_angle(angle - self.center + math.pi) - math.pi)
        return d <= 0.5 * self.length


@dataclass(frozen=True)
class CarlesonWindow:
    """The set {1 - h <= |z| <= 1, z/|z| in I} over the arc I."""

    arc: Arc
    depth: float

    def __post_init__(self):
        if not 0.0 < self.depth <= 1.0:
            raise DomainError(f"window depth must lie in (0, 1], got {self.depth}")


def carleson_window(arc: Arc) -> CarlesonWindow:
    """The standard window of the arc: depth |I| clamped to the unit radius."""
    return CarlesonWindow(arc, min(arc.length, 1.0))


def _overlap_on_circle(start: float, length: float, a: float, b: float) -> float:
    """Length of the intersection of the arc [start, start+length] with the
    fixed (non-wrapped) angular interval [a, b]."""
    w = b - a
    d0 = wrap_angle(start - a)
    total = max(0.0, min(d0 + length, w) - d0)
    d1 = d0 - TWO_PI
    total += max(0.0, min(d1 + length, w) - max(d1, 0.0))
    return total


@dataclass(frozen=True)
class BoundaryDensity:
    """Piecewise-constant density with respect to arclength d(theta).

    Piece i covers [breakpoints[i], breakpoints[i+1]) with the last piece
    wrapping around to breakpoints[0] + 2*pi.
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if bp.ndim != 1 or bp.size == 0 or v.shape != bp.shape:
            raise DomainError("breakpoints and values must be matching 1-d arrays")
        if np.any(bp < 0.0) or np.any(bp >= TWO_PI) or np.any(np.diff(bp) <= 0.0):
            raise DomainError("breakpoints must be strictly increasing within [0, 2*pi)")
        if np.any(v < 0.0) or not np.all(np.isfinite(v)):
            raise DomainError("density values must be finite and nonnegative")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", v)

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

    def _cumulative(self, x: float) -> float:
        """Integral from breakpoints[0] to x, with x in [bp0, bp0 + 2*pi]."""
        edges = self._extended()
        j = int(np.searchsorted(edges, x, side="right")) - 1
        j = min(max(j, 0), self.values.size - 1)
        widths = np.diff(edges[: j + 1]) if j > 0 else np.array([])
        head = float(np.dot(widths, self.values[:j])) if j > 0 else 0.0
        return head + float(self.values[j]) * (x - float(edges[j]))

    def integral(self, start: float, length: float) -> float:
        """Exact integral of the density over the arc [start, start+length]."""
        if length <= 0.0:
            return 0.0
        length = min(length, TWO_PI)
        bp0 = float(self.breakpoints[0])
        a = wrap_angle(start - bp0) + bp0
        b = a + length
        hi = bp0 + TWO_PI
        if b <= hi:
            return self._cumulative(b) - self._cumulative(a)
        return self.total() - self._cumulative(a) + self._cumulative(b - TWO_PI)

    def total(self) -> float:
        edges = self._extended()
        return float(np.dot(np.diff(edges), self.values))

    def min_value(self) -> float:
        return float(np.min(self.values))


@dataclass(frozen=True)
class AreaDensity:
    """Piecewise-constant density with respect to area measure dA on a polar
    partition: cells [radial_breaks[i], radial_breaks[i+1]] x
    [angular_breaks[j], angular_breaks[j+1]]."""

    radial_breaks: np.ndarray
    angular_breaks: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        rb = np.asarray(self.radial_breaks, dtype=float)
        ab = np.asarray(self.angular_breaks, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if rb.ndim != 1 or rb.size < 2 or np.any(np.diff(rb) <= 0):
            raise DomainError("radial_breaks must be increasing with >= 2 entries")
        if rb[0] < 0.0 or rb[-1] > 1.0 + 1e-12:
            raise DomainError("radial_breaks must lie within [0, 1]")
        if ab.ndim != 1 or ab.size < 2 or np.any(np.diff(ab) <= 0):
            raise DomainError("angular_breaks must be increasing with >= 2 entries")
        if ab[-1] - ab[0] > TWO_PI + 1e-12:
            raise DomainError("angular_breaks must span at most 2*pi")
        if v.shape != (rb.size - 1, ab.size - 1):
            raise DomainError("values must have shape (radial cells, angular cells)")
        if np.any(v < 0.0) or not np.all(np.isfinite(v)):
            raise DomainError("density values must be finite and nonnegative")
        object.__setattr__(self, "radial_breaks", rb)
        object.__setattr__(self, "angular_breaks", ab)
        object.__setattr__(self, "values", v)

    @classmethod
    def constant(cls, value: float) -> "AreaDensity":
        return cls(np.array([0.0, 1.0]), np.array([0.0, TWO_PI]), np.array([[float(value)]]))

    def cells(self):
        rb, ab, v = self.radial_breaks, self.angular_breaks, self.values
        for i in range(v.shape[0]):
            for j in range(v.shape[1]):
                if v[i, j] > 0.0:
                    yield float(rb[i]), float(rb[i + 1]), float(ab[j]), float(ab[j + 1]), float(v[i, j])

    def sector_mass(self, r_lo: float, r_hi: float, arc: Arc) -> float:
        """Exact mass of {r_lo <= |z| <= r_hi, arg z in arc}."""
        total = 0.0
        for c_rlo, c_rhi, c_alo, c_ahi, val in self.cells():
            lo = max(r_lo, c_rlo)
            hi = min(r_hi, c_rhi)
            if hi <= lo:
                continue
            ang = _overlap_on_circle(arc.start, arc.length, c_alo, c_ahi)
            if ang <= 0.0:
                continue
            total += val * 0.5 * (hi * hi - lo * lo) * ang
        return total


@dataclass(frozen=True)
class Measure:
    """Positive finite Borel measure on the closed unit disk."""

    atoms: tuple = ()
    boundary: BoundaryDensity = field(default_factory=BoundaryDensity.zero)
    area: AreaDensity | None = None

    def __post_init__(self):
        checked = []
        for z, mass in self.atoms:
            z = ensure_point(z)
            mass = float(mass)
            if mass <= 0.0 or not math.isfinite(mass):
                raise DomainError(f"atom mass must be positive and finite, got {mass}")
            if abs(z) > 1.0 + 1e-12:
                raise DomainError(f"atom at {z} lies outside the closed disk")
            checked.append((z, mass))
        object.__setattr__(self, "atoms", tuple(checked))

    def has_boundary_atoms(self) -> bool:
        return any(abs(z) >= 1.0 - _BOUNDARY_ATOM_TOL for z, _ in self.atoms)


def window_mass(mu: Measure, w: CarlesonWindow) -> float:
    """mu(S_{I,h}): atoms in the closed window, plus the boundary-density
    integral over I, plus the area-density mass of the annular sector.

    Additivity over a partition of I holds exactly provided no atom sits
    on a shared subarc endpoint (the windows are closed sets).
    """
    r_lo = 1.0 - w.depth
    total = mu.boundary.integral(w.arc.start, w.arc.length)
    for z, mass in mu.atoms:
        az = abs(z)
        if az == 0.0:
            # z/|z| is undefined at the origin; it belongs to the window
            # only when the window is the whole closed disk
            if r_lo <= 0.0 and w.arc.length >= TWO_PI - 1e-15:
                total += mass
            continue
        if az >= r_lo and w.arc.contains(math.atan2(z.imag, z.real)):
            total += mass
    if mu.area is not None:
        total += mu.area.sector_mass(r_lo, 1.0, w.arc)
    return total


class WindowScan(NamedTuple):
    ratio: float
    witness: Arc
    table: tuple  # per-generation rows (generation, min_ratio, witness)


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
        gen_best = math.inf
        gen_witness = None
        for c in centers:
            arc = Arc(float(c), length)
            ratio = window_mass(mu, carleson_window(arc)) / length
            if ratio < gen_best:
                gen_best = ratio
                gen_witness = arc
        table.append((g, gen_best, gen_witness))
        if gen_best < best:
            best = gen_best
            witness = gen_witness
    return WindowScan(best, witness, tuple(table))


class RNLowerBound(NamedTuple):
    value: float
    boundary_atoms_present: bool


def boundary_rn_lower_bound(mu: Measure) -> RNLowerBound:
    """Essential infimum of the stored boundary density (the best lower
    bound for the absolutely continuous boundary part).

    Atoms on the boundary are flagged: they carry singular mass that never
    raises this bound.
    """
    return RNLowerBound(mu.boundary.min_value(), mu.has_boundary_atoms())


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
    return np.array([window_mass(mu, CarlesonWindow(arc, float(h))) for h in d])


# ---------------------------------------------------------------------------
# JSON serialization (public schema)
# ---------------------------------------------------------------------------


def measure_to_dict(mu: Measure) -> dict:
    doc: dict = {
        "atoms": [{"re": z.real, "im": z.imag, "mass": m} for z, m in mu.atoms],
        "boundary_density": {
            "breakpoints": [float(b) for b in mu.boundary.breakpoints],
            "values": [float(v) for v in mu.boundary.values],
        },
    }
    if mu.area is not None:
        doc["area_density"] = {
            "radial_breaks": [float(r) for r in mu.area.radial_breaks],
            "angular_breaks": [float(a) for a in mu.area.angular_breaks],
            "values": [[float(x) for x in row] for row in mu.area.values],
        }
    return doc


def measure_from_dict(doc: dict) -> Measure:
    atoms = tuple(
        (complex(float(a["re"]), float(a["im"])), float(a["mass"]))
        for a in doc.get("atoms", [])
    )
    bd = doc.get("boundary_density")
    boundary = (
        BoundaryDensity(np.asarray(bd["breakpoints"], float), np.asarray(bd["values"], float))
        if bd
        else BoundaryDensity.zero()
    )
    ad = doc.get("area_density")
    area = (
        AreaDensity(
            np.asarray(ad["radial_breaks"], float),
            np.asarray(ad["angular_breaks"], float),
            np.asarray(ad["values"], float),
        )
        if ad
        else None
    )
    return Measure(atoms=atoms, boundary=boundary, area=area)


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
