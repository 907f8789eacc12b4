"""The sinc-kernel counterexample machinery on the line.

The sampling set consists of the perturbed integers x_n = n + 1/8 (n even),
x_n = n - 1/8 (n odd), n != 0, with the point at the origin deleted.  The
discrete measure sum_n delta_{x_n} keeps every normalized sinc kernel mass
bounded below, yet annihilates the (band-limited, square-integrable)
generating function divided by z, so kernel-only lower bounds do not extend
to the whole space here.

All infinite sums and products are truncated symmetrically and reported
with explicit tail bounds or extrapolation diagnostics.  The kernel mass of
the whole set has a closed form (Mittag-Leffler over two copies of 2Z),
which gives the partial sums in O(grid) and checks the tail bound.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from . import _kernels
from .errors import DomainError, PrecisionError
from .numerics import eigen_hermitian, ensure_point


class SamplingSequence:
    """Finite symmetric truncation of a separated real sampling set."""

    __slots__ = ("points", "n_max")

    def __init__(self, points, n_max: int):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 1 or pts.size == 0 or not np.all(np.isfinite(pts)):
            raise DomainError("points must be a finite 1-d array")
        pts = np.sort(pts)
        if pts.size > 1 and np.min(np.diff(pts)) <= 0.0:
            raise DomainError("points must be distinct")
        self.points, self.n_max = pts, n_max

    @classmethod
    def kadets(cls, n_max: int) -> "SamplingSequence":
        if n_max < 1:
            raise DomainError("n_max must be >= 1")
        seq = cls(points=_kernels.kadets_points(int(n_max)), n_max=int(n_max))
        if seq.separation() < 0.75 - 1e-12:
            raise DomainError("perturbed sequence lost its separation")
        return seq

    def separation(self) -> float:
        if self.points.size < 2:
            return math.inf
        return float(np.min(np.diff(self.points)))


class Interval(NamedTuple):
    low: float
    high: float


def _tail_bound(seq: SamplingSequence, a: float, b: float) -> float:
    """Upper bound for the sum of |K_lam(x_n)|^2 over |n| > n_max.

    Uses |sin(pi(x - lam))|^2 <= cosh(pi b)^2 and sum 1/(x_n - a)^2 over the
    tail bounded by 2/(N - 1/8 - |a|); run_pw's sinc-mass-bracket tests it.
    """
    n = seq.n_max
    denom = n - 0.125 - abs(a)
    if denom <= 1.0:
        raise DomainError(f"Re lambda = {a} too close to the truncation edge {n}")
    c2 = _kernels.pw_norm_factor(b)
    return 2.0 * c2 * math.cosh(math.pi * b) ** 2 / (math.pi**2 * denom)


def rkt_sum(lam: complex, seq: SamplingSequence) -> Interval:
    """sum over the sequence of |K_lam(x_n)|^2, as the interval
    [partial sum, partial sum + tail bound]."""
    lam = ensure_point(lam)
    if seq.n_max < 64:
        raise DomainError("truncation n_max must be >= 64")
    partial = _kernels.pw_rkt_grid(seq.points, np.array([lam.real]), np.array([lam.imag]))[0, 0]
    tail = _tail_bound(seq, lam.real, lam.imag)
    return Interval(float(partial), float(partial + tail))


class PwScan(NamedTuple):
    delta: float
    witness: complex
    re_grid: np.ndarray
    im_grid: np.ndarray
    low: np.ndarray  # shape (im, re): certified partial sums
    high: np.ndarray
    mass: np.ndarray  # closed-form mass of the whole set, inside [low, high]


def rkt_lower_bound_scan(
    seq: SamplingSequence,
    re_range: tuple = (0.0, 4.0),
    im_range: tuple = (-2.0, 2.0),
    resolution: tuple = (128, 128),
) -> PwScan:
    """Grid minimum of the kernel mass over a rectangle in the plane.

    The reported delta is the minimum of the certified lower ends, i.e. of
    the partial sums themselves (every term is nonnegative); ``mass`` is the oracle.
    """
    nre, nim = int(resolution[0]), int(resolution[1])
    if nre < 64 or nim < 64:
        raise DomainError("scan resolution must be at least 64 x 64")
    res = np.linspace(float(re_range[0]), float(re_range[1]), nre)
    ims = np.linspace(float(im_range[0]), float(im_range[1]), nim)
    low = _kernels.pw_rkt_grid(seq.points, res, ims)
    tails = np.array([_tail_bound(seq, float(np.max(np.abs(res))), float(b)) for b in ims])
    high = low + tails[:, None]
    i, j = np.unravel_index(int(np.argmin(low)), low.shape)
    mass = _kernels.pw_sinc_mass(res, ims)
    return PwScan(float(low[i, j]), complex(res[j], ims[i]), res, ims, low, high, mass)


class GeneratingWitness(NamedTuple):
    values: np.ndarray
    extrapolation_spread: float


#: Pair indices k of one parity whose factors one block of _pair_products multiplies.
PRODUCT_BLOCK_PAIRS = 16


def _pair_products(xs, n):
    """The symmetric products prod (1 - x/x_k)(1 - x/x_{-k}) over k <= n//2
    and over k <= n.

    A pair's factor is (k^2 - (x - s_k)^2) / m_k with s_k = 1/8 (k even),
    -1/8 (k odd) and m_k = k^2 - 1/64, so each parity is one running product
    in y = (x - s_k)^2, taken once per distinct y, and the two multiply at the
    end.  x - s_k is exactly +-k at x_{+-k}, so the zeros are exact, and at
    x = 0 the numerator is m_k, so dividing by m_k (not multiplying by 1/m_k)
    gives exactly 1.  A block's row 0 holds the running product and the factors
    of k, k + 2, ... follow; reducing it row by row multiplies in the order of
    a loop over k."""
    half = full = 1.0
    for s, k0 in ((0.125, 2), (-0.125, 1)):
        y, inv = np.unique((xs - s) ** 2, return_inverse=True)
        k2 = np.arange(k0, n + 1, 2, dtype=float)[:, None] ** 2
        mid = (n // 2 - k0) // 2 + 1  # the k of this parity up to n//2
        block = np.empty((PRODUCT_BLOCK_PAIRS + 1, y.size))
        prod = np.ones_like(y)
        for lo, hi in ((0, mid), (mid, len(k2))):
            for i in range(lo, hi, PRODUCT_BLOCK_PAIRS):
                ks = k2[i : min(i + PRODUCT_BLOCK_PAIRS, hi)]
                rows = block[: len(ks) + 1]
                rows[0] = prod
                np.subtract(ks, y, out=rows[1:])
                np.divide(rows[1:], ks - 0.015625, out=rows[1:])
                prod = np.multiply.reduce(rows, axis=0)
            if lo == 0:
                half = half * prod[inv]
        full = full * prod[inv]
    return half, full


@lru_cache(maxsize=8)
def _tail_constants(n: int):
    """x-independent sums over the pair indices k > n >= 256 with m_k = k^2 - 1/64:
    c_p = sum m_k^-p and c_ps = sum s_k m_k^-p (s_k = +1 for even k, -1 for odd
    k), p = 1, 2, 3.  m_k^-p = sum_j C(p+j-1, j) 64^-j k^(-2p-2j) to 2e-19
    relative at j <= 2, each power summed by _kernels._zeta_tail; even k = 2i give
    2^-s zeta(s, n//2 + 1), and c_ps = 2 (sum over even k) - c_p."""
    out = []
    for p in (1, 2, 3):
        full = even = 0.0
        for j in range(3):
            s = 2 * (p + j)
            c = math.comb(p + j - 1, j) / 64.0**j
            full += c * _kernels._zeta_tail(s, n + 1)
            even += c * 2.0**-s * _kernels._zeta_tail(s, n // 2 + 1)
        out += [full, 2.0 * even - full]
    return tuple(out)


def _log_tail(xs: np.ndarray, n: int) -> np.ndarray:
    """log of the tail product prod_{k>n} (1 - x/x_k)(1 - x/x_{-k}).

    Each symmetric pair contributes log(1 + u_k) with
    u_k = (s_k x/4 - x^2)/m_k; the series in u is summed to third order,
    leaving an error below x^8/(28 n^7)."""
    c1, c1s, c2, c2s, c3, c3s = _tail_constants(n)
    a = xs / 4.0
    b = xs * xs
    t1 = a * c1s - b * c1
    t2 = (a * a + b * b) * c2 - 2.0 * a * b * c2s
    t3 = (a**3 + 3.0 * a * b * b) * c3s - (3.0 * a * a * b + b**3) * c3
    return t1 - 0.5 * t2 + t3 / 3.0


@np.errstate(over="ignore", invalid="ignore")  # overflowed products give a NaN spread, refused below
def generating_witness(seq: SamplingSequence, xs: Sequence[float]) -> GeneratingWitness:
    """f(x) = lim_N prod_{0<|n|<=N} (1 - x/x_n) on the grid.

    The symmetric partial product at the truncation is multiplied by the
    analytic tail of the remaining pairs; the corrected values at the half
    and full truncations must agree, which is the convergence certificate.
    f vanishes exactly at every sequence point and f(0) = 1.
    """
    n = seq.n_max
    if n < 512:
        raise DomainError("witness construction requires truncation >= 512")
    xs = np.asarray(xs, dtype=float)
    if np.max(np.abs(xs)) > n / 8.0:
        raise DomainError(
            "grid extends beyond an eighth of the truncation range; "
            "the tail correction is only certified for |x| <= n_max/8"
        )
    levels = (n // 2, n)
    p_half, p_full = _pair_products(xs, n)
    zero = p_full == 0.0
    corrected_half = p_half * np.exp(_log_tail(xs, levels[0]))
    values = p_full * np.exp(_log_tail(xs, levels[1]))
    scale = np.maximum(np.abs(values), 1e-12)
    spread = float(np.max(np.where(zero, 0.0, np.abs(values - corrected_half)) / scale))
    if not spread <= 1e-2:  # a NaN spread means the products overflowed
        raise PrecisionError(
            f"tail-corrected products disagree across truncations {levels}: "
            f"relative spread {spread:.3e}"
        )
    values = np.where(zero, 0.0, values)
    return GeneratingWitness(values, spread)


def witness_contrast(seq: SamplingSequence, length: float = 256.0, rate: int = 8):
    """The two sides of the failure certificate for the witness f = G/z.

    Returns (mu_ratio, l2_norm_sq, values, extrapolation_spread) with
    mu_ratio = sum |f(x_n)|^2 / ||f||_{L2(R)}^2, the L2 norm estimated by
    grid quadrature plus a c/x^2 tail model, and f on the grid (arange(n) - n//2)/rate,
    n = length*rate, with the extrapolation spread of generating_witness.
    """
    if seq.n_max < 4 * length:
        raise DomainError(
            f"witness over [-{length / 2}, {length / 2}] needs truncation >= {int(4 * length)}"
        )
    n = int(round(length * rate))
    xs = (np.arange(n) - n // 2) / float(rate)
    # one product pass over the grid and the sequence points together; at rate 8 every
    # point is a multiple of 1/8, so the points add no distinct (x -+ 1/8)^2 to the grid's
    wit = generating_witness(seq, np.concatenate([xs, seq.points[np.abs(seq.points) <= length / 2.0]]))
    values = wit.values[:n]
    mu_mass = float(np.sum(np.abs(wit.values[n:]) ** 2))
    vals2 = np.abs(values) ** 2
    l2 = float(np.sum(vals2)) / rate
    edge = max(int(0.05 * n), 8)
    tail_coeff = float(np.mean(np.concatenate([vals2[:edge] * xs[:edge] ** 2, vals2[-edge:] * xs[-edge:] ** 2])))
    l2 += 2.0 * tail_coeff / (length / 2.0)
    if l2 <= 0.0:
        raise PrecisionError("witness has numerically zero L2 mass")
    return mu_mass / l2, l2, values, wit.extrapolation_spread


def bandlimit_check(values: np.ndarray, length: float, rate: int) -> float:
    """Fraction of discrete-Fourier energy outside the band [-pi, pi].

    The grid must be long (length >= 256) and oversampled (rate >= 8).
    """
    if length < 256 or rate < 8:
        raise DomainError("bandlimit check requires length >= 256 and rate >= 8")
    vals = np.asarray(values, dtype=float)
    n = vals.size
    if n != int(round(length * rate)):
        raise DomainError("values must sample [0, length) at the stated rate")
    spectrum = np.abs(np.fft.fft(vals)) ** 2
    omega = 2.0 * math.pi * np.fft.fftfreq(n, d=1.0 / rate)
    total = float(np.sum(spectrum))
    if total == 0.0:
        return 0.0
    return float(np.sum(spectrum[np.abs(omega) > math.pi])) / total


class CarlesonSanity(NamedTuple):
    separation: float
    strip_width: float


def carleson_sanity(seq: SamplingSequence) -> CarlesonSanity:
    """Separation and strip width of the sampling set (real points: width 0).

    A separated sequence in a horizontal strip carries a forward-embedding
    (Carleson) discrete measure, so the counterexample is not a degenerate
    forward failure.
    """
    return CarlesonSanity(seq.separation(), 0.0)


def gram_min_eigenvalue(seq: SamplingSequence, truncation: int) -> float:
    """Smallest eigenvalue of the Gram matrix of normalized kernels at the
    points with |x_n| <= truncation and at the deleted origin.

    Diagnostic only: bounded away from zero when the completed system is a
    Riesz basis.  The sinc Gram is real symmetric and is solved as such.
    """
    pts = np.sort(np.concatenate([seq.points[np.abs(seq.points) <= truncation], [0.0]]))
    gram = np.sinc(pts[:, None] - pts[None, :])
    evals, _ = eigen_hermitian(gram)
    return float(evals[0])
