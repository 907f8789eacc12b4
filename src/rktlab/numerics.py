"""Shared numerical machinery: circle quadrature, disk grids, small dense
Hermitian eigenproblems, and null vectors of evaluation systems.

Conventions: angles are radians, the unit circle is parametrized by
theta in [0, 2*pi), and all routines are pure functions of immutable
inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from . import _kernels
from .errors import DegenerateSystemError, DomainError, EvaluationError

TWO_PI = 2.0 * math.pi

#: Grids never approach the boundary closer than this radius.
RADIAL_CAP = 1.0 - 2.0**-20


def ensure_point(z: complex) -> complex:
    """Validate that a complex point has finite components."""
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"non-finite complex point {z!r}")
    return z


def wrap_angle(theta: float) -> float:
    """Reduce an angle to [0, 2*pi)."""
    t = math.fmod(float(theta), TWO_PI)
    return t + TWO_PI if t < 0.0 else t


@lru_cache(maxsize=64)
def _leggauss(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_legendre_panel(lo: float, hi: float, n: int):
    """Gauss-Legendre nodes and weights on [lo, hi]."""
    x, w = _leggauss(n)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


# ---------------------------------------------------------------------------
# circle quadrature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CircleQuadrature:
    """Composite Gauss-Legendre rule over a panel partition of [0, 2*pi).

    Panels are dyadically graded toward requested peak angles, so the
    rule stays accurate for integrands such as |1 - conj(lam) e^{i t}|^{-p}
    that spike near arg(lam) when |lam| -> 1.
    """

    nodes: np.ndarray
    weights: np.ndarray
    panel_edges: np.ndarray
    nodes_per_panel: int
    target_tol: float = 1e-10

    def __post_init__(self):
        if np.any(self.weights <= 0.0):
            raise DomainError("quadrature weights must be positive")

    def with_nodes_per_panel(self, n: int) -> "CircleQuadrature":
        """Same panels, different per-panel node count (refinement checks)."""
        return _from_edges(self.panel_edges, n, self.target_tol)


def _from_edges(edges: np.ndarray, nodes_per_panel: int, target_tol: float) -> CircleQuadrature:
    nodes = []
    weights = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        x, w = gauss_legendre_panel(float(lo), float(hi), nodes_per_panel)
        nodes.append(x)
        weights.append(w)
    return CircleQuadrature(
        nodes=np.concatenate(nodes),
        weights=np.concatenate(weights),
        panel_edges=np.asarray(edges, dtype=float),
        nodes_per_panel=nodes_per_panel,
        target_tol=target_tol,
    )


def _interval_peak_dist(lo: float, hi: float, angle: float) -> float:
    """Circular distance from the panel [lo, hi] to an angle (0 if inside)."""
    width = hi - lo
    off = wrap_angle(angle - lo)
    if off <= width:
        return 0.0
    return min(off - width, TWO_PI - off)


def circle_quadrature(
    breakpoints: Sequence[float] = (),
    peaks: Sequence[tuple[float, float]] = (),
    base_panels: int = 16,
    nodes_per_panel: int = 12,
    min_width: float = 2.0**-26,
    target_tol: float = 1e-10,
) -> CircleQuadrature:
    """Build a circle rule.

    ``breakpoints`` are angles the panels must not cross (piecewise
    integrands); ``peaks`` are (angle, scale) pairs toward which panels
    are graded dyadically until the local panel width is at most
    max(scale, distance-to-peak, min_width).
    """
    if base_panels < 1 or nodes_per_panel < 2:
        raise DomainError("base_panels >= 1 and nodes_per_panel >= 2 required")
    edges = {wrap_angle(k * TWO_PI / base_panels) for k in range(base_panels)}
    edges.update(wrap_angle(b) for b in breakpoints)
    peak_list = [(wrap_angle(a), max(float(s), min_width)) for a, s in peaks]
    edges.update(a for a, _ in peak_list)
    sorted_edges = sorted(edges)
    # collapse near-duplicates
    cleaned = [sorted_edges[0]]
    for e in sorted_edges[1:]:
        if e - cleaned[-1] > 1e-14:
            cleaned.append(e)
    panels = list(zip(cleaned, cleaned[1:] + [cleaned[0] + TWO_PI]))

    def allowed(lo: float, hi: float) -> float:
        cap = TWO_PI / base_panels
        for angle, scale in peak_list:
            d = _interval_peak_dist(lo, hi, angle)
            cap = min(cap, max(scale, d, min_width))
        return cap

    out = []
    stack = list(reversed(panels))
    while stack:
        lo, hi = stack.pop()
        if hi - lo > allowed(lo, hi) * (1.0 + 1e-12) and hi - lo > 2.0 * min_width:
            mid = 0.5 * (lo + hi)
            stack.append((mid, hi))
            stack.append((lo, mid))
        else:
            out.append((lo, hi))
    out.sort()
    edges_arr = np.array([p[0] for p in out] + [out[-1][1]])
    return _from_edges(edges_arr, nodes_per_panel, target_tol)


def integrate_circle(f: Callable[[np.ndarray], np.ndarray], quad: CircleQuadrature) -> float:
    """Integrate f(theta) over [0, 2*pi) with the given rule.

    Raises EvaluationError naming the offending node if f is non-finite
    anywhere on the rule.
    """
    vals = f(quad.nodes)
    vals = np.asarray(vals, dtype=float)
    if vals.shape != quad.nodes.shape:
        vals = np.array([float(f(t)) for t in quad.nodes])
    bad = ~np.isfinite(vals)
    if bad.any():
        i = int(np.argmax(bad))
        raise EvaluationError(
            f"non-finite integrand value {vals[i]!r} at node theta={quad.nodes[i]!r}"
        )
    return float(np.dot(quad.weights, vals))


# ---------------------------------------------------------------------------
# disk grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiskGrid:
    """Polar scan grid: rings accumulating geometrically at the boundary.

    Ring angles are offset by half a step so grid points avoid the
    angular breakpoints of piecewise measures.
    """

    radii: np.ndarray
    angles_per_ring: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.radii, dtype=float)
        m = np.asarray(self.angles_per_ring, dtype=int)
        if r.ndim != 1 or r.size == 0 or m.shape != r.shape:
            raise DomainError("radii and angles_per_ring must be matching 1-d arrays")
        if np.any(np.diff(r) <= 0.0):
            raise DomainError("radii must be strictly increasing")
        if r[0] <= 0.0 or r[-1] > RADIAL_CAP + 1e-12:
            raise DomainError(f"radii must lie in (0, {RADIAL_CAP}]")
        if np.any(m < 1):
            raise DomainError("angles_per_ring must be positive")
        object.__setattr__(self, "radii", r)
        object.__setattr__(self, "angles_per_ring", m)

    @classmethod
    def dyadic(cls, levels: int, angles_per_ring: int = 64) -> "DiskGrid":
        """Rings at 1 - 2^-j, j = 1..levels (gap halves each level)."""
        if not 1 <= levels <= 20:
            raise DomainError("levels must be in 1..20")
        radii = 1.0 - 2.0 ** (-np.arange(1, levels + 1, dtype=float))
        return cls(radii, np.full(levels, angles_per_ring))

    @classmethod
    def geometric(cls, rings: int, angles_per_ring: int = 512, min_gap: float = 2.0**-20) -> "DiskGrid":
        """Rings with 1 - r in geometric progression down to min_gap."""
        if rings < 1:
            raise DomainError("rings must be positive")
        if not 0.0 < min_gap <= 0.5:
            raise DomainError("min_gap must lie in (0, 0.5]")
        min_gap = max(min_gap, 1.0 - RADIAL_CAP)
        gaps = min_gap ** (np.arange(1, rings + 1, dtype=float) / rings)
        return cls(1.0 - gaps, np.full(rings, angles_per_ring))

    def ring_angles(self, j: int) -> np.ndarray:
        m = int(self.angles_per_ring[j])
        return (np.arange(m) + 0.5) * (TWO_PI / m)

    def iter_rings(self):
        for j, r in enumerate(self.radii):
            yield float(r), self.ring_angles(j)

    def points(self) -> np.ndarray:
        """All grid points as a flat complex array."""
        parts = [r * np.exp(1j * th) for r, th in self.iter_rings()]
        return np.concatenate(parts)


# ---------------------------------------------------------------------------
# dense Hermitian eigenproblems and null vectors
# ---------------------------------------------------------------------------


def hermitian_part(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=np.complex128)
    return 0.5 * (m + m.conj().T)


def eigen_hermitian(m: np.ndarray):
    """Eigen-decomposition of a Hermitian matrix (LAPACK ``eigh``).

    The input is checked for shape, finite entries and Hermitian symmetry
    to 1e-12 relative, then symmetrized.  Returns (eigenvalues ascending,
    eigenvector columns).
    """
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise DomainError("expected a square matrix of dimension >= 1")
    if not np.all(np.isfinite(a.view(float))):
        raise DomainError("matrix entries must be finite")
    scale = float(np.linalg.norm(a))
    if scale > 0.0 and float(np.linalg.norm(a - a.conj().T)) > 1e-12 * scale:
        raise DomainError("matrix is not Hermitian")
    a = hermitian_part(a)
    return _kernels.jacobi_eigh(a)


def null_vector(rows: np.ndarray) -> np.ndarray:
    """Unit vector annihilated by n-1 independent linear functionals on C^n.

    The phase is fixed so the largest-magnitude component is real positive.
    """
    a = np.asarray(rows, dtype=np.complex128)
    if a.ndim != 2:
        raise DomainError("rows must form a 2-d array")
    m, n = a.shape
    if m != n - 1:
        raise DomainError(f"expected {n - 1} rows for dimension {n}, got {m}")
    _, s, vh = np.linalg.svd(a)
    if s[0] == 0.0 or s[-1] <= 1e-10 * s[0]:
        raise DegenerateSystemError("rows are not linearly independent")
    v = vh[-1].conj()
    resid = float(np.linalg.norm(a @ v))
    if resid > 1e-10 * max(s[0], 1.0):
        raise DegenerateSystemError(f"null vector residual {resid:.3e} too large")
    i = int(np.argmax(np.abs(v)))
    phase = v[i] / abs(v[i])
    v = v / phase
    return v / np.linalg.norm(v)
