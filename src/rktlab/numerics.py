"""Shared numerical machinery: circle quadrature, disk grids, small dense
Hermitian eigenproblems, null vectors, and a map over two pinned processes.

Conventions: angles are radians, the unit circle is parametrized by
theta in [0, 2*pi), and all routines but the map are pure functions of
immutable inputs.
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
import tempfile
import threading
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

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
    if t < 0.0:
        t += TWO_PI
    # a tiny negative angle rounds up to 2*pi itself, which is 0 on the circle
    return 0.0 if t == TWO_PI else t


def _wrap_angles(t: np.ndarray) -> np.ndarray:
    """``wrap_angle`` over an array, with the same float operations."""
    t = np.fmod(t, TWO_PI)
    t = np.where(t < 0.0, t + TWO_PI, t)
    return np.where(t == TWO_PI, 0.0, t)


def _legval(x, c):
    """numpy's ``legval``: sum c_k P_k(x) by Clenshaw's recurrence, in its float operations."""
    if len(c) == 1:
        return c[0] + 0 * x
    c0, c1 = c[-2], c[-1]
    for nd in range(len(c) - 1, 1, -1):
        c0, c1 = c[nd - 2] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


@lru_cache(maxsize=64)
def _leggauss(n: int):
    """numpy's ``polynomial.legendre.leggauss(n)`` bit for bit, with its float operations in order
    but without importing numpy.polynomial: the eigenvalues of P_n's symmetric companion matrix,
    one Newton step, and the weights 1 / (P_{n-1} P_n') symmetrised and scaled to sum to 2."""
    scl = 1.0 / np.sqrt(2 * np.arange(n) + 1)
    off = np.arange(1, n) * scl[:-1] * scl[1:]
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    c = [0.0] * n + [1.0]  # P_n, and P_n' = sum of (2k + 1) P_k over k = n - 1, n - 3, ...
    df = _legval(x, [(2.0 * k + 1.0) * ((n - 1 - k) % 2 == 0) for k in range(n)])
    x -= _legval(x, c) / df
    fm = _legval(x, c[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_legendre_panel(lo, hi, n: int):
    """Gauss-Legendre nodes and weights on the panels [lo, hi].

    ``lo`` and ``hi`` are scalars or equal-length arrays of panel ends; the
    n-point rule is mapped onto every panel at once and the result is
    flattened panel by panel.
    """
    x, w = _leggauss(n)
    lo = np.asarray(lo, dtype=float)[..., None]
    half = 0.5 * (np.asarray(hi, dtype=float)[..., None] - lo)
    return (lo + half * (x + 1.0)).ravel(), (half * w).ravel()


# ---------------------------------------------------------------------------
# circle quadrature
# ---------------------------------------------------------------------------


class CircleRule(NamedTuple):
    nodes: np.ndarray
    weights: np.ndarray


#: Panels are never bisected below this width.
MIN_PANEL_WIDTH = 2.0**-26


def circle_panels(breakpoints, angles, scales, base_panels=16):
    """The panels of one circle rule per row of the (rules x peaks) arrays
    ``angles`` and ``scales``, all through the shared ``breakpoints`` (angles
    the panels must not cross).  Each rule's panels are graded dyadically
    toward its peaks until the local panel width is at most max(scale,
    distance-to-peak, MIN_PANEL_WIDTH), with the float operations of a
    depth-first bisection of that rule alone.  One-peak rules whose angles are
    the same float share one tree: the split test is monotone in the scale, so
    a panel splits for the rules of smallest scale and is a leaf for the rest.
    All trees are bisected level by level.  Returns the distinct panels' left
    and right edges, tree by tree, and the rules' panels: rule k has panels
    index[offsets[k]:offsets[k + 1]], in order along it."""
    if base_panels < 1:
        raise DomainError("base_panels >= 1 required")
    angles = np.asarray(angles, dtype=float)
    scales = np.maximum(np.asarray(scales, dtype=float), MIN_PANEL_WIDTH)
    rules, peaks = angles.shape
    starts = order = np.arange(rules)
    base_width = TWO_PI / base_panels
    if peaks == 1:  # rules sorted by angle, then scale; a tree per angle float
        order = np.lexsort((scales[:, 0], angles[:, 0]))
        new = np.diff(angles[order, 0], prepend=np.nan) != 0.0
        starts = np.flatnonzero(new)  # the first rule of each tree, in this order
        keys = (np.cumsum(new) - 1) + 1j * (np.minimum(base_width, scales[order, 0]) * (1.0 + 1e-12))  # nondecreasing
    angles, scales = _wrap_angles(angles[order[starts]]), scales[order[starts]]
    shared = np.concatenate([np.arange(base_panels) * TWO_PI / base_panels, _wrap_angles(np.asarray(breakpoints, dtype=float))])
    edges = np.sort(np.concatenate([np.broadcast_to(shared, (starts.size, shared.size)), angles], axis=1), axis=1)
    gap = np.diff(edges, axis=1)
    keep = np.concatenate([np.ones((starts.size, 1), dtype=bool), gap > 1e-14], axis=1)
    # a gap in (0, 1e-14] needs the sequential collapse: each edge against the last kept
    for k in np.flatnonzero(np.any((gap > 0.0) & (gap <= 1e-14), axis=1)):
        last = edges[k, 0]
        for j, e in enumerate(edges[k, 1:].tolist(), 1):
            keep[k, j] = e - last > 1e-14
            last = e if keep[k, j] else last
    lo, tree = edges[keep], np.nonzero(keep)[0]
    # a panel ends at the next edge of its tree, the last one at the tree's first edge plus 2*pi
    heads = np.flatnonzero(np.diff(tree, prepend=-1))
    hi = np.append(lo[1:], 0.0)
    hi[np.append(heads[1:], lo.size) - 1] = lo[heads] + TWO_PI
    stop = np.append(starts[1:], rules)[tree]  # a panel of tree t is in the rules at sorted positions starts[t]:stop
    done = []
    while lo.size:
        width = hi - lo
        cap = base_width
        for angle, scale in zip(angles[tree].T, scales[tree].T):
            # both angles lie in [0, 2*pi), so fmod(angle - lo, 2*pi) is angle - lo
            off = angle - lo
            off = np.where(off < 0.0, off + TWO_PI, off)
            # a peak inside the panel has distance 0; min(off - width, .) <= 0 < scale then
            dist = np.minimum(off - width, TWO_PI - off)
            cap = np.minimum(cap, dist if peaks == 1 else np.maximum(scale, dist))
        split = (width > cap * (1.0 + 1e-12)) & (width > 2.0 * MIN_PANEL_WIDTH)
        # one peak: the rules whose scale is at most the distance split, and those whose keys lie below the width
        first = starts[tree]
        cut = np.where(split, np.searchsorted(keys, tree + 1j * width) if peaks == 1 else stop, first)
        leaf, go = cut < stop, cut > first
        done.append((lo[leaf], hi[leaf], tree[leaf], cut[leaf], stop[leaf]))
        lo, hi, tree, stop = lo[go], hi[go], tree[go], cut[go]
        mid = 0.5 * (lo + hi)
        lo, hi, tree, stop = np.concatenate([lo, mid]), np.concatenate([mid, hi]), np.concatenate([tree, tree]), np.concatenate([stop, stop])
    lo, hi, tree, first, stop = (np.concatenate(part) for part in zip(*done))
    # an empty panel, the only kind whose Gauss weights are not positive
    if np.any(hi <= lo):
        raise DomainError("quadrature weights must be positive")
    sort = np.lexsort((lo, tree))  # panels in order along each tree, tree by tree
    lo, hi, first, stop = lo[sort], hi[sort], first[sort], stop[sort]
    # one (panel, rule) pair per rule a panel is a leaf of, then grouped rule by rule
    count = stop - first
    rule = order[np.arange(count.sum()) - np.repeat(np.cumsum(count) - count - first, count)]
    index = np.repeat(np.arange(lo.size), count)[np.argsort(rule, kind="stable")]
    return lo, hi, index, np.concatenate([[0], np.cumsum(np.bincount(rule, minlength=rules))])


def circle_quadrature(breakpoints=(), peaks=(), base_panels=16, nodes_per_panel=12) -> CircleRule:
    """Gauss-Legendre on the panels of one ``circle_panels`` rule; peaks are (angle, scale) pairs."""
    if nodes_per_panel < 2:
        raise DomainError("nodes_per_panel >= 2 required")
    peaks = np.asarray(peaks, dtype=float).reshape(1, -1, 2)
    lo, hi, _, _ = circle_panels(breakpoints, peaks[..., 0], peaks[..., 1], base_panels)
    return CircleRule(*gauss_legendre_panel(lo, hi, nodes_per_panel))


def integrate_circle(f: Callable[[np.ndarray], np.ndarray], quad: CircleRule) -> float:
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


class DiskGrid:
    """Polar scan grid: rings accumulating geometrically at the boundary.

    Ring angles are offset by half a step so grid points avoid the
    angular breakpoints of piecewise measures.
    """

    __slots__ = ("radii", "angles_per_ring")

    def __init__(self, radii, angles_per_ring):
        r = np.asarray(radii, dtype=float)
        m = np.asarray(angles_per_ring, dtype=int)
        if r.ndim != 1 or r.size == 0 or m.shape != r.shape:
            raise DomainError("radii and angles_per_ring must be matching 1-d arrays")
        if np.any(np.diff(r) <= 0.0):
            raise DomainError("radii must be strictly increasing")
        if r[0] <= 0.0 or r[-1] > RADIAL_CAP + 1e-12:
            raise DomainError(f"radii must lie in (0, {RADIAL_CAP}]")
        if np.any(m < 1):
            raise DomainError("angles_per_ring must be positive")
        self.radii, self.angles_per_ring = r, m

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

    def points(self) -> np.ndarray:
        """All grid points as a flat complex array, ring by ring."""
        return np.concatenate([r * np.exp(1j * ((np.arange(m) + 0.5) * (TWO_PI / m))) for r, m in zip(self.radii.tolist(), self.angles_per_ring.tolist())])


# ---------------------------------------------------------------------------
# dense Hermitian eigenproblems and null vectors
# ---------------------------------------------------------------------------


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m^H)/2; a real matrix stays real."""
    m = np.asarray(m)
    return 0.5 * (m + m.conj().T)


def eigen_hermitian(m: np.ndarray):
    """Eigen-decomposition of a Hermitian matrix (LAPACK ``eigh``).

    The input is checked for shape, finite entries and Hermitian symmetry
    to 1e-12 relative, then symmetrized.  A real matrix is solved in real
    arithmetic, a complex one in complex.  Returns (eigenvalues ascending,
    eigenvector columns).
    """
    a = np.asarray(m, dtype=np.complex128 if np.iscomplexobj(m) else np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise DomainError("expected a square matrix of dimension >= 1")
    if not np.all(np.isfinite(a)):
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


# ---------------------------------------------------------------------------
# two pinned processes
# ---------------------------------------------------------------------------


def _pin(cpus: list, i=None) -> None:  # to cpus[i], or back to all of the affinity set cpus
    if len(cpus) == 2:  # a larger set stays unpinned, so the kernel can spread concurrent runs
        with contextlib.suppress(OSError):  # best effort: the affinity stays as it was
            os.sched_setaffinity(0, cpus if i is None else {cpus[i]})


def map_on_two_cpus(func: Callable, items: Sequence, sink: Callable) -> int:
    """sink(func(x)) for each x of items, in order; returns how many processes ran func.
    With two CPUs or more in the affinity set, one thread and two items or more, a forked child
    (pinned to the second of two CPUs) pickles func of the second half into an unlinked temporary
    file while the parent (pinned to the first) runs the first half, then reaps the child,
    restores its affinity and reads the child's results.  Each process starts from func's state
    at the call.  A failed child's half is run by the parent: every value and error is serial."""
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") else []
    if len(cpus) < 2 or len(items) < 2 or threading.active_count() > 1:
        for x in items:
            sink(func(x))
        return 1
    mid = len(items) // 2
    with tempfile.TemporaryFile() as tmp:
        pid = os.fork()
        if pid == 0:  # the child leaves only through os._exit: 0 once its half is flushed
            try:
                _pin(cpus, 1)
                for x in items[mid:]:
                    pickle.dump(func(x), tmp, pickle.HIGHEST_PROTOCOL)
                tmp.flush()
                os._exit(0)
            finally:
                os._exit(1)
        try:
            _pin(cpus, 0)
            for x in items[:mid]:
                sink(func(x))
        finally:
            status = os.waitpid(pid, 0)[1]
            _pin(cpus)
        tmp.seek(0)
        for x in items[mid:]:
            sink(pickle.load(tmp) if status == 0 else func(x))
    return 2
