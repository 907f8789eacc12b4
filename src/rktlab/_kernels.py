"""Hot numeric kernels in vectorized numpy.

The inner loops here dominate the runtime of every grid scan in the
package: powers of the Cauchy kernel summed over blocks of whole circle
rules (every ||k_lam||_p) and over disk nodes, the window double
integrals, the sinc-kernel masses over the Kadets set (closed-form copy
sums, O(grid) at any truncation) and the dense Hermitian eigensolve
behind the Gram diagnostics.

All kernels work in real arithmetic.  For lam = R*exp(i*phi) and
z = rho*exp(i*theta) the stable form

    |1 - conj(lam)*z|^2 = (1 - R*rho)^2 + 4*R*rho*sin((theta - phi)/2)^2

avoids the cancellation that 1 + R^2*rho^2 - 2*R*rho*cos(...) suffers
near the boundary.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

#: The one kernel implementation; reported as ``backend`` in summary.json.
ACTIVE_BACKEND = "numpy"

_SINC_SERIES_CUT = 1e-8  # |pi*w|^2 below this: quadratic series for |sinc|^2


def pw_norm_factor(im: float) -> float:
    """Normalization c_lambda^2 = x/sinh(x) with x = 2*pi*|Im lambda|.

    Evaluated by series for small x to avoid 0/0.
    """
    x = 2.0 * math.pi * abs(im)
    if x < 1e-3:
        x2 = x * x
        return 1.0 / (1.0 + x2 / 6.0 + x2 * x2 / 120.0)
    return x / math.sinh(x)


def kernel_pow_circle_sum(sines, weights, dens_weights, r, counts, p):
    """Sums of |k_lam|^p against weights and dens_weights (None: zeros) for a block of whole
    circle rules, one per radius r: rule k takes the next counts[k] rows of the weights and of
    sines = sin((theta - phi)/2).  (1 - r)^2 is a Python power; numpy's can differ in the last bit."""
    kern = np.repeat([4.0 * x for x in r.tolist()], counts)[:, None] * sines
    kern *= sines
    kern += np.repeat([(1.0 - x) ** 2 for x in r.tolist()], counts)[:, None]
    kern **= -0.5 * p
    kern, w, stops = kern.ravel(), weights.ravel(), (np.cumsum(counts) * sines.shape[1]).tolist()
    dw = None if dens_weights is None else dens_weights.ravel()
    norms, nums = np.empty(len(stops)), np.zeros(len(stops))
    for k, a, b in zip(range(len(stops)), [0, *stops], stops):
        norms[k] = np.dot(w[a:b], kern[a:b])
        if dw is not None:
            nums[k] = np.dot(dw[a:b], kern[a:b])
    return norms, nums


def kernel_pow_disk_sum(rhos, thetas, weights, r, phi, p):
    """A column of radii against a row of angles sums over their product grid:
    a list of sums, one per kernel radius of the array r, all at the angle phi."""
    s = np.sin(0.5 * (thetas - phi))
    rr = np.multiply.outer(r, rhos)
    d2 = (1.0 - rr) ** 2 + 4.0 * rr * s * s
    return [float(np.dot(np.ravel(weights), v)) for v in np.reshape(d2 ** (-0.5 * p), (len(r), -1))]


def phi_h_window_sum(ts, wts, angs, wangs, rho, psi, p):
    """The integrand of phi_h at each radial node, integrated over the angles."""
    r = 1.0 - ts
    radial = wts * (ts * (2.0 - ts)) ** (p - 1.0) * r
    s = np.sin(0.5 * (angs - psi))
    rr = r * rho
    d2 = (1.0 - rr)[:, None] ** 2 + 4.0 * rr[:, None] * (s * s)[None, :]
    return radial * (d2 ** (-0.5 * p) @ wangs)


def kadets_points(n):
    """x_k = k + 1/8 (k even), k - 1/8 (k odd) for 0 < |k| <= n, ascending."""
    k = np.concatenate([np.arange(-n, 0), np.arange(1, n + 1)])
    return k + np.where(k % 2, -0.125, 0.125)


# B_2i / (2i)! for i = 1..7
_BERNOULLI = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160, -691 / 1307674368000, 1 / 74724249600)


def _zeta_tail(s, q):
    """Hurwitz zeta(s, q) = sum_{k >= 0} (k + q)^-s for integer s >= 2 and real q >= 16 (scalar
    or array) by Euler-Maclaurin; the first omitted term is 7.1 (s-1) (s)_15/16! q^-16 relative."""
    total, rising = q ** (1 - s) / (s - 1) + 0.5 * q**-s, s  # rising = (s)_(2i-1)
    for i, b in enumerate(_BERNOULLI, 1):
        total += b * rising * q ** (1 - s - 2 * i)
        rising = rising * (s + 2 * i - 1) * (s + 2 * i)
    return total


def _lam_axes(res, ims):
    """a = Re lambda (row), r = a - 2 round(a/2) (exact), b = |Im lambda| and c_lambda^2 (columns)."""
    a, b = np.asarray(res, dtype=float)[None, :], np.abs(np.asarray(ims, dtype=float))[:, None]
    return a, a - 2.0 * np.round(0.5 * a), b, np.array([pw_norm_factor(x) for x in b[:, 0]])[:, None]


def pw_sinc_mass(res, ims):
    """sum_n |K_lam(x_n)|^2 over the whole Kadets set, shape (ims, res).  On a copy
    2Z + s (s = 1/8, 7/8) sin(pi(x - lam))^2 is constant and the Mittag-Leffler sum
    of 1/|x - lam|^2 gives the mass (1 + sech(pi b))/2 - sin(pi (s - a)/2)^2 sech(pi b);
    the deleted point 1/8 is subtracted term by term."""
    a, r, b, c2 = _lam_axes(res, ims)
    u, v = math.pi * (0.125 - a), math.pi * b
    w2 = u * u + v * v
    own = (np.sin(math.pi * (0.125 - r)) ** 2 + np.sinh(v) ** 2) / np.maximum(w2, 1e-300)
    # removable value at w -> 0: |sinc(pi w)|^2 ~ 1 - (u^2 - v^2)/3
    own = np.where(w2 < _SINC_SERIES_CUT, 1.0 - (u * u - v * v) / 3.0, own)
    s2 = np.sin(0.5 * math.pi * (0.125 - r)) ** 2 + np.sin(0.5 * math.pi * (0.875 - r)) ** 2
    return 1.0 + (1.0 - s2) / np.cosh(v) - c2 * own


def pw_rkt_grid(points, res, ims):
    """Partial sums over a Kadets truncation, shape (ims, res), in O(grid): the whole
    set's mass less its tail, four progressions x_0 + 2j (x_0 = x_{+-(n+1)}, x_{+-(n+2)})
    with sin(pi(x - lam))^2 constant on each.  Each sums 1/((y + 2j)^2 + b^2), y = |x_0 - a|,
    m terms directly, then 1/4 sum_i (-b^2/4)^i zeta(2i + 2, y/2 + m) (ratio < 1/64)."""
    n = len(points) // 2
    edge = kadets_points(n + 2)
    inside = np.max(np.abs(res), initial=0.0) < n and np.all(np.abs(ims) < 112)  # sinh(pi b)^2 is finite
    if not (inside and np.array_equal(points, edge[2:-2])):
        raise DomainError(f"need the Kadets truncation, |Re lambda| < n = {n} and |Im lambda| < 112")
    a, r, b, c2 = _lam_axes(res, ims)
    x0 = edge[[1, -2, 0, -1]][:, None, None]
    y, b2, m = np.abs(x0 - a), b * b, 16 + math.ceil(4 * np.max(b, initial=0.0))
    i = np.arange(10)[:, None, None, None]
    tail = 0.25 * ((-0.25 * b2) ** i * _zeta_tail(2.0 * i + 2.0, 0.5 * y + m)).sum(axis=0)
    tail += sum(1.0 / ((y + 2.0 * j) ** 2 + b2) for j in range(m))
    weight = np.sin(math.pi * (x0 % 2.0 - r)) ** 2 + np.sinh(math.pi * b) ** 2
    return pw_sinc_mass(res, ims) - c2 / math.pi**2 * (weight * tail).sum(axis=0)


def jacobi_eigh(h):
    """Eigenvalues (ascending) and eigenvector columns of a Hermitian matrix.

    A thin wrapper over LAPACK's ``np.linalg.eigh``.  The name is kept
    because the benchmark's per-layer metrics are keyed on it
    (``kernels.jacobi_eigh.*``).
    """
    return np.linalg.eigh(h)
