"""H^p reproducing kernels, norms, and the embedding-constant testers.

Conventions (stated wherever constants are reported):

  * ||f||_p uses the normalized measure d(theta)/(2*pi) on the circle;
  * measures and arc lengths |I| are in plain radians.

Hence for a measure with boundary density c (radians convention) the
reverse-embedding ratio is bounded below by 2*pi*c, while window ratios
mu(S_I)/|I| are bounded below by c with no extra factor.

A polynomial f is its array of ascending coefficients, and a family of them
is a 2-d array with one polynomial per row.

The scans batch their work with bit-identical values: the kernel points of
a ray (one angle float) share one ``circle_panels`` tree, whose distinct
panels are mapped and take their sines once; ``_kernels.kernel_pow_circle_sum``
sums blocks of whole rules on gathered copies, and the atoms and each area
cell's product rule, built once per ray, go in array passes over a ray's points;
from 256 points, the rays' two halves go to the two processes of
``numerics.map_on_two_cpus``.  ``rkt_functional`` is that path on one
point, and ``kernel_norms`` its circle sums on the zero measure.  A polynomial family is
evaluated on a measure's nodes built once, and its ||f||_p^p and boundary
integral come from one circle rule through the breakpoints, as the kernels' do.
A phi_h depth sequence takes one kernel matrix per z on the union of its
depths' radial panels, which dyadic depths share.
"""

from __future__ import annotations

import itertools
import math
import random
import warnings
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from . import _kernels
from .errors import DomainError, EvaluationError, PrecisionWarning
from .measures import Arc, BoundaryDensity, Measure
from .numerics import (
    BASE_PANELS,
    NODES_PER_PANEL,
    RADIAL_CAP,
    TWO_PI,
    DiskGrid,
    circle_panels,
    circle_quadrature,
    ensure_point,
    gauss_legendre_panel,
    map_on_two_cpus,
    wrap_angle,
)

DEFAULT_SEED = 0xC0FFEE

#: Window depths below this are outside the supported resolution.
MIN_WINDOW_DEPTH = 2.0**-16

#: Circle nodes per block of whole rules in a scan, and values per Vandermonde block.
BATCH_NODES = 2**14


class HardyConfig:
    """Exponent of one H^p session."""

    __slots__ = ("p",)

    def __init__(self, p: float):
        if not 1.0 < p < math.inf:
            raise DomainError(f"p must lie in (1, inf), got {p}")
        self.p = p


def hardy_config(p: float) -> HardyConfig:
    return HardyConfig(p=float(p))


def random_polynomials(count: int, max_degree: int = 32, seed: int = DEFAULT_SEED) -> np.ndarray:
    """Seeded family of random polynomials with standard complex Gaussian coefficients
    (E|c|^2 = 1): row k holds polynomial k's max_degree + 1 ascending coefficients,
    each c = sqrt(-log(1 - u)) e^(2 pi i v) from the next two uniforms u, v."""
    rng = random.Random(seed)
    u = np.reshape([rng.random() for _ in range(2 * count * (max_degree + 1))], (count, max_degree + 1, 2))
    return np.sqrt(-np.log1p(-u[..., 0])) * np.exp(1j * TWO_PI * u[..., 1])


def _abs_pow_sums(zs: np.ndarray, weights: Sequence[np.ndarray], coeffs: np.ndarray, p: float) -> list[np.ndarray]:
    """w @ |f(zs)|^p for every weight vector w of ``weights`` and every column f of
    ``coeffs``: Vandermonde products in node and column blocks of about BATCH_NODES
    values, each block's |f|^p taken once for all the weight vectors."""
    rows = max(1, BATCH_NODES // coeffs.shape[0])
    cols = max(1, BATCH_NODES // min(rows, zs.size))
    sums = [np.zeros(coeffs.shape[1]) for _ in weights]
    for i in range(0, zs.size, rows):
        powers = np.vander(zs[i : i + rows], coeffs.shape[0], increasing=True)
        for j in range(0, coeffs.shape[1], cols):
            vals = np.abs(powers @ coeffs[:, j : j + cols])
            vals **= p
            for total, w in zip(sums, weights):
                total[j : j + cols] += w[i : i + rows] @ vals
    return sums


def kernel_norms(lams, cfg: HardyConfig) -> list[float]:
    """||k_lam||_p by quadrature at each point, from one ``_circle_sums`` call;
    for p = 2 these match (1-|lam|^2)^(-1/2)."""
    pts = _kernel_points(lams)
    for r in pts[:, 0].tolist():
        if 1.0 - r < (1.0 - RADIAL_CAP) * (1.0 - 1e-9):
            warnings.warn(
                f"1-|lam|={1.0 - r:.3e} is beyond the grid cap {1.0 - RADIAL_CAP:.3e}; "
                "the quadrature is reported at reduced confidence",
                PrecisionWarning,
            )
    return [(x / TWO_PI) ** (1.0 / cfg.p) for x in _circle_sums(Measure(), pts, cfg.p)[0].tolist()]


def _nearest_on_arc(angle: float, lo: float, hi: float) -> float:
    """The point of the arc [lo, hi] nearest the angle (lifted into [lo, hi])."""
    off = wrap_angle(angle - lo)
    width = hi - lo
    if off <= width:
        return lo + off
    return hi if (off - width) < (TWO_PI - off) else lo


def _peak_attractors(angle: float, lo: float, hi: float, finest: float) -> tuple:
    """The (point, finest panel) pairs toward which a rule on the arc [lo, hi]
    grades for a 2*pi-periodic peak at angle: the arc point nearest the peak,
    down to finest, and each end that the peak's lift just outside it reaches,
    down to half that lift's distance.  The lift reaches the end when it lies
    nearer to it than the first point does, as the graded panels at the end
    are about as wide as their distance to that point (only on arcs longer
    than 2*pi/3)."""
    near = _nearest_on_arc(angle, lo, hi)
    ends = ((lo, wrap_angle(lo - angle)), (hi, wrap_angle(angle - hi)))
    return ((near, finest), *((e, max(finest, 0.5 * out)) for e, out in ends if out < abs(e - near)))


def _cell_axes(r0, r1, a0, a1, peak_angle, scale, nodes=8):
    """The product of the radial and angular Gauss-Legendre rules of the polar cell
    [r0,r1] x [a0,a1], graded radially toward the outer edge and angularly toward
    peak_angle: a column of radii, a row of angles and their weights (dA = r dr dtheta).
    Each axis's finest panel is the larger of scale and the cell's own cap, (r1 - r0)/32
    radially and min(a1 - a0, pi/16) angularly; scale is 0 in the C2 scan, so a ray's
    points share one rule, and (r1 - r0)/8 for C1."""
    rs, wr = _graded_rule(r0, r1, ((r1, max(scale, (r1 - r0) / 32.0)),), nodes)
    ts, wt = _graded_rule(a0, a1, ((_nearest_on_arc(peak_angle, a0, a1), max(scale, min(a1 - a0, math.pi / 16))),), nodes)
    return rs[:, None], ts, (wr * rs)[:, None] * wt


@lru_cache(maxsize=64)
def _graded_rule(lo: float, hi: float, attracts: tuple, nodes: int):
    """Gauss-Legendre rule on the panels of ``_graded_edges`` (shared, read-only)."""
    edges = _graded_edges(lo, hi, attracts)
    rule = gauss_legendre_panel(edges[:-1], edges[1:], nodes)
    rule[0].flags.writeable = rule[1].flags.writeable = False
    return rule


def _graded_edges(lo: float, hi: float, attracts: tuple) -> np.ndarray:
    """1-d edges on [lo, hi], dyadically graded toward each (point, finest)
    pair of attracts whose finest panel is narrower than the interval."""
    width = hi - lo
    edges = {lo, hi}
    for a, finest in attracts:
        if width <= finest:
            continue
        a, d = min(max(a, lo), hi), width
        edges.add(a)
        while True:  # a +- d for d = width, width/2, ... down to the first d <= finest
            edges.update(e for e in (a - d, a + d) if lo < e < hi)
            if d <= finest:
                break
            d *= 0.5
    return np.array(sorted(edges))


def _panel_density(density: BoundaryDensity, nodes: np.ndarray) -> np.ndarray:
    """The density at every node of circle rules whose panels cross no
    breakpoint: one lookup per panel, repeated.  The lookup is at the first
    node, as the right end of a panel only ulps wide is where its later nodes
    round to, and that end may be the next piece's breakpoint or 2*pi."""
    return np.repeat(density.value_at(nodes[::NODES_PER_PANEL]), NODES_PER_PANEL)


def _kernel_points(lams) -> np.ndarray:
    """Rows (r, phi, peak scale) of kernel points."""
    pts = np.empty((len(lams), 3))
    for k, lam in enumerate(lams):
        lam = ensure_point(lam)
        r = abs(lam)
        if r >= 1.0:
            raise DomainError(f"kernel point must lie in the open disk, got |lam|={r}")
        pts[k] = r, math.atan2(lam.imag, lam.real), max(0.5 * (1.0 - r), 2.0**-24)
    return pts


def _spans(offsets, size: int):
    """(i, j) pairs covering the groups offsets[i]:offsets[i + 1] in order: whole
    groups of at most size items together, a larger group on its own."""
    ends = [0]
    while ends[-1] < len(offsets) - 1:
        ends.append(max(ends[-1] + 1, int(np.searchsorted(offsets, offsets[ends[-1]] + size, side="right")) - 1))
    return zip(ends, ends[1:])


def _disk_sums(out: np.ndarray, factor: float, pts: np.ndarray, rule, p: float) -> int:
    """Adds factor times ``kernel_pow_disk_sum`` at each kernel point into out, over the
    disk nodes (rhos, thetas, weights) = rule(phi) of its run of equal angles phi in
    pts[:, 1] (a ray): a run is one call, in parts of at most BATCH_NODES values.
    Returns the number of nodes evaluated, over all the points."""
    sums, nodes = [], 0
    for phi, run in itertools.groupby(pts[:, 1].tolist()):
        i, n = len(sums), len(list(run))
        rhos, thetas, weights = rule(phi)
        nodes += n * weights.size
        step = max(1, BATCH_NODES // weights.size)
        for k in range(i, i + n, step):
            sums += _kernels.kernel_pow_disk_sum(rhos, thetas, weights, pts[k : min(k + step, i + n), 0], phi, p)
    out += factor * np.array(sums)
    return nodes


def _circle_sums(mu: Measure, pts: np.ndarray, p: float):
    """2 pi ||k_lam||_p^p and the boundary integral of |k_lam|^p at the kernel points
    of whole rays, the nodes of their rules and those of their distinct panels, at
    which nodes, weights, density and sin((theta - phi)/2) are taken once."""
    lo, hi, index, offsets = circle_panels(mu.boundary.breakpoints, pts[:, 1:2], pts[:, 2:3])
    x, weights = (a.reshape(-1, NODES_PER_PANEL) for a in gauss_legendre_panel(lo, hi, NODES_PER_PANEL))
    dens_weights = weights * _panel_density(mu.boundary, x.ravel()).reshape(x.shape)
    counts, phi = np.diff(offsets), np.empty(lo.size)
    phi[index] = np.repeat(pts[:, 1], counts)
    x -= phi[:, None]  # sin((theta - phi)/2), in place of the nodes
    s = np.sin(np.multiply(x, 0.5, out=x), out=x)
    norms, nums = np.empty(len(pts)), np.empty(len(pts))
    for i, j in _spans(offsets, BATCH_NODES // NODES_PER_PANEL):
        idx = index[offsets[i] : offsets[j]]  # gathered copies of a block of whole rules
        norms[i:j], nums[i:j] = _kernels.kernel_pow_circle_sum(s[idx], weights[idx], dens_weights[idx], pts[i:j, 0], counts[i:j], p)
    return norms, nums, int(offsets[-1]) * NODES_PER_PANEL, s.size


@np.errstate(over="ignore", invalid="ignore")  # an inf or nan sum raises EvaluationError below
def _rkt_points(mu: Measure, pts: np.ndarray, cfg: HardyConfig):
    """``rkt_functional`` at the kernel points ``pts`` (rows of ``_kernel_points``), its trees,
    circle nodes, distinct panels' nodes, disk nodes and processes.  A ray's points (one angle
    float) share a tree; ``_circle_sums`` takes whole rays of at most BATCH_NODES // numerics.BASE_PANELS
    = size points, in blocks of whole rules of at most BATCH_NODES nodes.  From size points,
    ``map_on_two_cpus`` takes the rays in two halves of nearly equal point count."""
    p, size = cfg.p, BATCH_NODES // BASE_PANELS
    order = np.lexsort((pts[:, 1],))  # ray by ray
    ray_offsets = np.append(np.flatnonzero(np.diff(pts[order, 1], prepend=np.nan)), len(pts))
    if mu.atoms:  # an atom at the origin has angle 0 and radius 0
        zs, masses = (np.array(part) for part in zip(*mu.atoms))

    def chunks(span):  # the rays span[0]:span[1] in whole-ray chunks: norms, nums and node counts
        out = []
        for u, v in _spans(ray_offsets[span[0] : span[1] + 1], size):
            rays = pts[order[ray_offsets[span[0] + u] : ray_offsets[span[0] + v]]]
            norm, num, n, m = _circle_sums(mu, rays, p)
            # the measure's parts as the integral sums them: atoms + boundary (= 0 + atoms + boundary),
            # then each cell on the product rule of each ray
            disk = _disk_sums(num, 1.0, rays, lambda phi: (np.abs(zs), np.angle(zs), masses), p) if mu.atoms else 0
            for r0, r1, a0, a1, val in mu.area.cells() if mu.area is not None else ():
                disk += _disk_sums(num, val, rays, lambda phi: _cell_axes(r0, r1, a0, a1, phi, 0.0), p)
            out.append((norm, num, n, m, disk))
        return out

    trees, parts = len(ray_offsets) - 1, []
    half = int(np.argmin(np.abs(ray_offsets - 0.5 * len(pts))))  # the ray boundary nearest the middle point
    processes = map_on_two_cpus(chunks, [(0, half), (half, trees)] if len(pts) >= size and 0 < half < trees else [(0, trees)], parts.extend)
    norm_parts, num_parts, node_counts, shared_counts, disk_counts = zip(*parts)
    norms, nums = np.empty(len(pts)), np.empty(len(pts))
    norms[order], nums[order] = np.concatenate(norm_parts), np.concatenate(num_parts)
    norms /= TWO_PI
    bad = np.flatnonzero(~(np.isfinite(norms) & np.isfinite(nums)))
    if bad.size:  # the first failing point in the given order
        r, norm = float(pts[bad[0], 0]), float(norms[bad[0]])
        if not math.isfinite(norm):
            raise EvaluationError(f"|k_lam|^p overflows at |lam| = {r!r}, p = {p!r}")
        raise EvaluationError(f"the measure integral of |k_lam|^p overflows at |lam| = {r!r}, p = {p!r} (||k_lam||_p^p = {norm!r})")
    return nums / norms, trees, sum(node_counts), sum(shared_counts), sum(disk_counts), processes


def rkt_functional(mu: Measure, lam: complex, cfg: HardyConfig) -> float:
    """integral of |K_lam|^p d(mu) for the normalized kernel K_lam; one rule through
    the density's breakpoints gives the boundary integral and ||k_lam||_p^p."""
    return float(_rkt_points(mu, _kernel_points([lam]), cfg)[0][0])


class RktScan(NamedTuple):
    value: float
    witness: complex
    rows: np.ndarray  # columns (re_lambda, im_lambda, rkt_value)
    rule_builds: int  # bisection trees, one per ray
    nodes: int  # circle nodes evaluated
    shared_nodes: int  # circle nodes mapped, and sines taken, once for a ray
    disk_nodes: int  # atom and area-cell nodes evaluated
    processes: int  # 1, or 2 when ``map_on_two_cpus`` split the rays (logged, never in summary.json)


def rkt_infimum_scan(mu: Measure, cfg: HardyConfig, grid: DiskGrid) -> RktScan:
    """Minimum of the kernel functional over the origin and the grid;
    estimates the best uniform lower constant over all kernel points."""
    lams = np.concatenate([[0.0 + 0.0j], grid.points()])
    vals, *counts = _rkt_points(mu, _kernel_points(lams), cfg)
    i = int(np.argmin(vals))  # the first minimum, as a strict-< loop finds it
    return RktScan(float(vals[i]), complex(lams[i]), np.column_stack([lams.real, lams.imag, vals]), *counts)


@np.errstate(over="ignore", invalid="ignore")  # an inf or nan integral raises EvaluationError below
def reverse_embedding_ratios(mu: Measure, fs, cfg: HardyConfig) -> list[float]:
    """integral |f|^p d(mu) divided by ||f||_p^p for each f of a family, given
    as rows of ascending coefficients: one Vandermonde product per node set of
    the measure, each set built once.  The circle rule through the density's
    breakpoints gives ||f||_p^p and the boundary integral from the same |f|^p."""
    p = cfg.p
    coeffs = np.asarray(fs, dtype=np.complex128)
    if coeffs.ndim != 2 or not np.all(np.isfinite(coeffs)):
        raise DomainError("coefficients must be finite rows of one 2-d array")
    coeffs = coeffs.T.copy()  # a column per function
    rule = circle_quadrature(mu.boundary.breakpoints)
    norms, nums = _abs_pow_sums(np.exp(1j * rule.nodes), [rule.weights, rule.weights * _panel_density(mu.boundary, rule.nodes)], coeffs, p)
    norms /= TWO_PI  # ||f||_p^p
    # the parts as the integral sums them: boundary + atoms (= 0 + atoms + boundary), then each cell
    if mu.atoms:
        zs, masses = (np.array(part) for part in zip(*mu.atoms))
        nums += _abs_pow_sums(zs, [masses], coeffs, p)[0]
    if mu.area is not None:
        for r0, r1, a0, a1, val in mu.area.cells():
            rs, ts, weights = _cell_axes(r0, r1, a0, a1, 0.0, (r1 - r0) / 8.0, nodes=12)
            nums += val * _abs_pow_sums((rs * np.exp(1j * ts)).ravel(), [weights.ravel()], coeffs, p)[0]
    zero = ~coeffs.any(axis=0)
    bad = zero | (norms == 0.0) | ~np.isfinite(nums) | ~np.isfinite(norms)
    if bad.any():  # the first failing function in family order
        i = int(np.argmax(bad))
        if zero[i]:
            raise DomainError("reverse embedding ratio is undefined for the zero function")
        if norms[i] == 0.0:
            raise DomainError("function has zero H^p norm")
        raise EvaluationError(f"|f|^p overflows at p = {p!r}: integral {float(nums[i])!r}, ||f||_p^p {float(norms[i])!r}")
    return (nums / norms).tolist()


def reverse_embedding_ratio(mu: Measure, f, cfg: HardyConfig) -> float:
    """integral |f|^p d(mu) divided by ||f||_p^p, for the ascending coefficients f."""
    return reverse_embedding_ratios(mu, [f], cfg)[0]


# ---------------------------------------------------------------------------
# the window averages phi_h and their limit profile
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _depth_rule(hs: tuple, nodes: int):
    """Gauss-Legendre rule on the union of the radial panels of the depths hs,
    each graded toward t = 0, and the 0/1 matrix of the union panels that make
    up each depth (shared, read-only).  Dyadic depths share panels exactly:
    2^-3 ... 2^-10 take 35, not 8 x 21."""
    panels = [set(zip(e[:-1], e[1:])) for e in (_graded_edges(0.0, h, ((0.0, max(h * 2.0**-20, 2.0**-30)),)) for h in hs)]
    union = sorted(set().union(*panels))
    member = np.array([[pair in own for pair in union] for own in panels], dtype=float)
    ts, wts = gauss_legendre_panel(*np.array(union).T, nodes)
    ts.flags.writeable = wts.flags.writeable = member.flags.writeable = False
    return ts, wts, member


@np.errstate(over="ignore", invalid="ignore")  # an inf or nan value raises EvaluationError below
def phi_h_depths(z: complex, arc: Arc, hs: Sequence[float], cfg: HardyConfig, nodes: int = 8) -> np.ndarray:
    """phi_h(z) at every depth of hs: one kernel matrix on the depths' union
    of radial panels, summed per panel, then over each depth's panels / h."""
    z = ensure_point(z)
    rho = abs(z)
    if rho > 1.0 + 1e-12:
        raise DomainError("z must lie in the closed disk")
    rho = min(rho, 1.0)
    hs = tuple(float(h) for h in hs)
    for h in hs:
        if not MIN_WINDOW_DEPTH * (1.0 - 1e-12) <= h <= min(arc.length, 1.0) * (1.0 + 1e-12):
            raise DomainError(f"depth h={h} must lie in [2^-16, min(|I|, 1)]")
    psi = math.atan2(z.imag, z.real) if rho > 0.0 else 0.0
    ts, wts, member = _depth_rule(hs, nodes)
    start = arc.start
    end = start + arc.length
    ang_scale = max(0.25 * (1.0 - rho), 2.0**-26)
    angs, wangs = _graded_rule(start, end, _peak_attractors(psi, start, end, ang_scale), nodes)
    sums = _kernels.phi_h_window_sum(ts, wts, angs, wangs, rho, psi, cfg.p)
    vals = member @ sums.reshape(-1, nodes).sum(axis=1) / np.array(hs)
    if not np.all(np.isfinite(vals)):
        raise EvaluationError(f"phi_h overflows at |z| = {rho!r}, p = {cfg.p!r}")
    return vals


def phi_h(z: complex, arc: Arc, h: float, cfg: HardyConfig, nodes: int = 8) -> float:
    """Window average (1/h) * integral over S_{I,h} of
    (1-|lam|^2)^(p-1) / |1 - conj(lam) z|^p dA(lam)."""
    return float(phi_h_depths(z, arc, (h,), cfg, nodes)[0])


class PhiHRecord(NamedTuple):
    z: complex
    kind: str  # "interior" | "off_arc" | "endpoint"
    values: np.ndarray
    exponent: float | None
    bracket: tuple | None


def classify_against_arc(z: complex, arc: Arc) -> str:
    """Locate z relative to the closed arc: on its interior, at an endpoint,
    or off the closed arc (which includes every interior point of the disk),
    each to within 1e-9."""
    if abs(z) < 1.0 - 1e-9:
        return "off_arc"
    theta = math.atan2(z.imag, z.real)
    d = abs(wrap_angle(theta - arc.center + math.pi) - math.pi)
    half = 0.5 * arc.length
    if abs(d - half) <= 1e-9:
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
        vals = phi_h_depths(z, arc, hs, cfg)
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

