"""H^p reproducing kernels, norms, and the embedding-constant testers.

Conventions (stated wherever constants are reported):

  * ||f||_p uses the normalized measure d(theta)/(2*pi) on the circle;
  * measures and arc lengths |I| are in plain radians.

Hence for a measure with boundary density c (radians convention) the
reverse-embedding ratio is bounded below by 2*pi*c, while window ratios
mu(S_I)/|I| are bounded below by c with no extra factor.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import _kernels
from .errors import DomainError, EvaluationError, PrecisionWarning
from .measures import Arc, Measure
from .numerics import (
    RADIAL_CAP,
    TWO_PI,
    CircleQuadrature,
    DiskGrid,
    circle_quadrature,
    ensure_point,
    gauss_legendre_panel,
    wrap_angle,
)

DEFAULT_SEED = 0xC0FFEE

#: Window depths below this are outside the supported resolution.
MIN_WINDOW_DEPTH = 2.0**-16

#: Panels and Gauss nodes per panel of every H^p circle rule.
BASE_PANELS = 64
NODES_PER_PANEL = 16


@dataclass(frozen=True)
class HardyConfig:
    """Exponent and the uniform circle rule for one H^p session."""

    p: float
    quadrature: CircleQuadrature

    def __post_init__(self):
        if not 1.0 < self.p < math.inf:
            raise DomainError(f"p must lie in (1, inf), got {self.p}")


def hardy_config(p: float) -> HardyConfig:
    quad = circle_quadrature(base_panels=BASE_PANELS, nodes_per_panel=NODES_PER_PANEL)
    return HardyConfig(p=float(p), quadrature=quad)


@dataclass(frozen=True)
class HardyFunction:
    """Polynomial in the monomial basis (ascending coefficients)."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=np.complex128))
        if c.ndim != 1 or not np.all(np.isfinite(c)):
            raise DomainError("coefficients must be a finite 1-d array")
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return int(self.coeffs.size - 1)

    def __call__(self, z):
        return np.polyval(self.coeffs[::-1], z)

    def is_zero(self) -> bool:
        return bool(np.all(self.coeffs == 0.0))


def random_polynomials(count: int, max_degree: int = 32, seed: int = DEFAULT_SEED):
    """Seeded family of random polynomials with complex Gaussian coefficients."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        c = (rng.standard_normal(max_degree + 1) + 1j * rng.standard_normal(max_degree + 1))
        out.append(HardyFunction(c / math.sqrt(2.0)))
    return out


def hp_norm(f: HardyFunction, cfg: HardyConfig) -> float:
    """(integral of |f|^p d(theta)/(2*pi))^(1/p) over the boundary circle."""
    vals = np.abs(f(np.exp(1j * cfg.quadrature.nodes))) ** cfg.p
    mean = float(np.dot(cfg.quadrature.weights, vals)) / TWO_PI
    return mean ** (1.0 / cfg.p)


def _kernel_rule(lam: complex, breakpoints=()) -> CircleQuadrature:
    r = abs(lam)
    scale = max(0.5 * (1.0 - r), 2.0**-24)
    phi = math.atan2(lam.imag, lam.real)
    return circle_quadrature(
        breakpoints=breakpoints,
        peaks=[(phi, scale)],
        base_panels=BASE_PANELS,
        nodes_per_panel=NODES_PER_PANEL,
    )


def _kernel_pth_mean(rule: CircleQuadrature, r: float, phi: float, p: float) -> float:
    """integral of |k_lam|^p d(theta)/(2*pi) by a peak-refined rule of lam."""
    return _kernels.kernel_pow_circle_sum(rule.nodes, rule.weights, r, phi, p) / TWO_PI


def kernel_norm(lam: complex, cfg: HardyConfig) -> float:
    """||k_lam||_p by quadrature; for p = 2 this matches (1-|lam|^2)^(-1/2)."""
    lam = ensure_point(lam)
    r = abs(lam)
    if r >= 1.0:
        raise DomainError(f"kernel point must lie in the open disk, got |lam|={r}")
    if 1.0 - r < (1.0 - RADIAL_CAP) * (1.0 - 1e-9):
        warnings.warn(
            f"1-|lam|={1.0 - r:.3e} is beyond the grid cap {1.0 - RADIAL_CAP:.3e}; "
            "the quadrature is reported at reduced confidence",
            PrecisionWarning,
        )
    phi = math.atan2(lam.imag, lam.real)
    return _kernel_pth_mean(_kernel_rule(lam), r, phi, cfg.p) ** (1.0 / cfg.p)


def _nearest_on_arc(angle: float, lo: float, hi: float) -> float:
    """The point of the arc [lo, hi] nearest the angle (lifted into [lo, hi])."""
    off = wrap_angle(angle - lo)
    width = hi - lo
    if off <= width:
        return lo + off
    return hi if (off - width) < (TWO_PI - off) else lo


def _polar_cell_nodes(r0, r1, a0, a1, peak_angle, scale, nodes=8):
    """Product Gauss-Legendre nodes on the polar cell [r0,r1] x [a0,a1],
    graded angularly toward peak_angle and radially toward the outer edge."""
    r_edges = _graded_edges(r0, r1, r1, max(scale, (r1 - r0) / 32.0))
    attract = _nearest_on_arc(peak_angle, a0, a1)
    a_edges = _graded_edges(a0, a1, attract, max(scale, min(a1 - a0, math.pi / 16)))
    rs, wr = gauss_legendre_panel(r_edges[:-1], r_edges[1:], nodes)
    ts, wt = gauss_legendre_panel(a_edges[:-1], a_edges[1:], nodes)
    rho = np.repeat(rs, ts.size)
    ang = np.tile(ts, rs.size)
    wts = np.repeat(wr * rs, ts.size) * np.tile(wt, rs.size)  # dA = r dr dtheta
    return rho, ang, wts


def _graded_edges(lo: float, hi: float, attract: float, scale: float) -> np.ndarray:
    """1-d edges on [lo, hi], dyadically graded toward the attract point."""
    width = hi - lo
    if width <= scale:
        return np.array([lo, hi])
    a = min(max(attract, lo), hi)
    edges = {lo, hi, a}
    d = width
    while d > scale:
        for e in (a - d, a + d):
            if lo < e < hi:
                edges.add(e)
        d *= 0.5
    for e in (a - d, a + d):
        if lo < e < hi:
            edges.add(e)
    return np.array(sorted(edges))


def rkt_functional(mu: Measure, lam: complex, cfg: HardyConfig) -> float:
    """integral of |K_lam|^p d(mu) for the normalized kernel K_lam; one rule through
    the density's breakpoints gives the boundary integral and ||k_lam||_p^p."""
    lam = ensure_point(lam)
    r = abs(lam)
    if r >= 1.0:
        raise DomainError(f"kernel point must lie in the open disk, got |lam|={r}")
    phi = math.atan2(lam.imag, lam.real)
    p = cfg.p
    rule = _kernel_rule(lam, mu.boundary.breakpoints)
    num = 0.0
    if mu.atoms:
        zs, masses = (np.array(part) for part in zip(*mu.atoms))
        # an atom at the origin has angle 0 and radius 0, hence d^2 = 1
        num += _kernels.kernel_pow_disk_sum(np.abs(zs), np.angle(zs), masses, r, phi, p)
    if mu.boundary.total() > 0.0:
        dens = mu.boundary.value_at(rule.nodes)
        num += _kernels.kernel_pow_circle_sum(rule.nodes, rule.weights * dens, r, phi, p)
    if mu.area is not None:
        scale = max(0.5 * (1.0 - r), 2.0**-24)
        for r0, r1, a0, a1, val in mu.area.cells():
            rho, ang, wts = _polar_cell_nodes(r0, r1, a0, a1, phi, scale)
            num += val * _kernels.kernel_pow_disk_sum(rho, ang, wts, r, phi, p)
    norm = _kernel_pth_mean(rule, r, phi, p)
    if not (math.isfinite(num) and math.isfinite(norm)):
        raise EvaluationError(f"|k_lam|^p overflows at |lam| = {r!r}, p = {p!r}")
    return num / norm


class RktScan(NamedTuple):
    value: float
    witness: complex
    rows: np.ndarray  # columns (re_lambda, im_lambda, rkt_value)


def rkt_infimum_scan(mu: Measure, cfg: HardyConfig, grid: DiskGrid) -> RktScan:
    """Minimum of the kernel functional over the origin and the grid;
    estimates the best uniform lower constant over all kernel points."""
    lams = np.concatenate([[0.0 + 0.0j], grid.points()])
    vals = np.array([rkt_functional(mu, lam, cfg) for lam in lams])
    i = int(np.argmin(vals))  # the first minimum, as a strict-< loop finds it
    return RktScan(float(vals[i]), complex(lams[i]), np.column_stack([lams.real, lams.imag, vals]))


def _measure_pth_integral_poly(mu: Measure, f: HardyFunction, cfg: HardyConfig) -> float:
    p = cfg.p
    total = 0.0
    if mu.atoms:
        zs, masses = (np.array(part) for part in zip(*mu.atoms))
        total += float(np.dot(masses, np.abs(f(zs)) ** p))
    if mu.boundary.total() > 0.0:
        rule = circle_quadrature(
            breakpoints=mu.boundary.breakpoints,
            base_panels=BASE_PANELS,
            nodes_per_panel=NODES_PER_PANEL,
        )
        dens = mu.boundary.value_at(rule.nodes)
        vals = np.abs(f(np.exp(1j * rule.nodes))) ** p
        total += float(np.dot(rule.weights * dens, vals))
    if mu.area is not None:
        for r0, r1, a0, a1, val in mu.area.cells():
            rho, ang, wts = _polar_cell_nodes(r0, r1, a0, a1, 0.0, scale=(r1 - r0) / 8.0, nodes=12)
            vals = np.abs(f(rho * np.exp(1j * ang))) ** p
            total += val * float(np.dot(wts, vals))
    return total


def reverse_embedding_ratio(mu: Measure, f: HardyFunction, cfg: HardyConfig) -> float:
    """integral |f|^p d(mu) divided by ||f||_p^p."""
    if f.is_zero():
        raise DomainError("reverse embedding ratio is undefined for the zero function")
    norm_p = hp_norm(f, cfg) ** cfg.p
    if norm_p == 0.0:
        raise DomainError("function has zero H^p norm")
    num = _measure_pth_integral_poly(mu, f, cfg)
    if not (math.isfinite(num) and math.isfinite(norm_p)):
        raise EvaluationError(f"|f|^p overflows at p = {cfg.p!r}: integral {num!r}, ||f||_p^p {norm_p!r}")
    return num / norm_p


# ---------------------------------------------------------------------------
# the window averages phi_h and their limit profile
# ---------------------------------------------------------------------------


def phi_h(z: complex, arc: Arc, h: float, cfg: HardyConfig, nodes: int = 8) -> float:
    """Window average (1/h) * integral over S_{I,h} of
    (1-|lam|^2)^(p-1) / |1 - conj(lam) z|^p dA(lam)."""
    z = ensure_point(z)
    rho = abs(z)
    if rho > 1.0 + 1e-12:
        raise DomainError("z must lie in the closed disk")
    rho = min(rho, 1.0)
    h = float(h)
    if not MIN_WINDOW_DEPTH * (1.0 - 1e-12) <= h <= min(arc.length, 1.0) * (1.0 + 1e-12):
        raise DomainError(f"depth h={h} must lie in [2^-16, min(|I|, 1)]")
    psi = math.atan2(z.imag, z.real) if rho > 0.0 else 0.0
    t_edges = _graded_edges(0.0, h, 0.0, max(h * 2.0**-20, 2.0**-30))
    start = arc.start
    end = start + arc.length
    ang_scale = max(0.25 * (1.0 - rho), 2.0**-26)
    a_edges = _graded_edges(start, end, _nearest_on_arc(psi, start, end), ang_scale)
    ts, wts = gauss_legendre_panel(t_edges[:-1], t_edges[1:], nodes)
    angs, wangs = gauss_legendre_panel(a_edges[:-1], a_edges[1:], nodes)
    return _kernels.phi_h_window_sum(ts, wts, angs, wangs, rho, psi, cfg.p) / h


class PhiHRecord(NamedTuple):
    z: complex
    kind: str  # "interior" | "off_arc" | "endpoint"
    values: np.ndarray
    exponent: float | None
    bracket: tuple | None


def classify_against_arc(z: complex, arc: Arc, angle_tol: float = 1e-9) -> str:
    """Locate z relative to the closed arc: on its interior, at an endpoint,
    or off the closed arc (which includes every interior point of the disk)."""
    if abs(z) < 1.0 - 1e-9:
        return "off_arc"
    theta = math.atan2(z.imag, z.real)
    d = abs(wrap_angle(theta - arc.center + math.pi) - math.pi)
    half = 0.5 * arc.length
    if abs(d - half) <= angle_tol:
        return "endpoint"
    return "interior" if d < half else "off_arc"


def phi_h_limit_profile(arc: Arc, hs: Sequence[float], zs: Sequence[complex], cfg: HardyConfig):
    """Evaluate phi_h along a decreasing depth sequence and classify each z.

    Off the closed arc the values decay like h^(p-1) (the fitted exponent is
    reported); on the open arc they stabilize in a bracket; arc endpoints are
    flagged indeterminate and carry no fit.
    """
    hs = np.asarray(hs, dtype=float)
    if hs.ndim != 1 or hs.size < 2 or np.any(np.diff(hs) >= 0.0):
        raise DomainError("hs must be a strictly decreasing sequence of depths")
    records = []
    for z in zs:
        z = ensure_point(z)
        kind = classify_against_arc(z, arc)
        if kind == "endpoint":
            records.append(PhiHRecord(z, kind, np.array([]), None, None))
            continue
        vals = np.array([phi_h(z, arc, float(h), cfg) for h in hs])
        exponent = None
        bracket = None
        if kind == "off_arc":
            if np.all(vals > 0.0):
                exponent = float(np.polyfit(np.log(hs), np.log(vals), 1)[0])
            else:
                exponent = math.inf
        else:
            bracket = (float(vals.min()), float(vals.max()))
        records.append(PhiHRecord(z, kind, vals, exponent, bracket))
    return records

