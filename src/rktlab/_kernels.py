"""Hot numeric kernels in vectorized numpy.

The inner loops here dominate the runtime of every grid scan in the
package: powers of the Cauchy kernel summed over quadrature nodes, the
window double integrals, the sinc-kernel sums over a sampling sequence,
and the dense Hermitian eigensolve behind the Gram diagnostics.

All kernels work in real arithmetic.  For lam = R*exp(i*phi) and
z = rho*exp(i*theta) the stable form

    |1 - conj(lam)*z|^2 = (1 - R*rho)^2 + 4*R*rho*sin((theta - phi)/2)^2

avoids the cancellation that 1 + R^2*rho^2 - 2*R*rho*cos(...) suffers
near the boundary.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ACTIVE_BACKEND",
    "kernel_pow_circle_sum",
    "kernel_pow_disk_sum",
    "phi_h_window_sum",
    "pw_rkt_partial",
    "pw_rkt_grid",
    "jacobi_eigh",
    "pw_norm_factor",
]

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


def kernel_pow_circle_sum(thetas, weights, r, phi, p):
    s = np.sin(0.5 * (thetas - phi))
    d2 = (1.0 - r) ** 2 + 4.0 * r * s * s
    return float(np.dot(weights, d2 ** (-0.5 * p)))


def kernel_pow_disk_sum(rhos, thetas, weights, r, phi, p):
    s = np.sin(0.5 * (thetas - phi))
    rr = r * rhos
    d2 = (1.0 - rr) ** 2 + 4.0 * rr * s * s
    return float(np.dot(weights, d2 ** (-0.5 * p)))


def phi_h_window_sum(ts, wts, angs, wangs, rho, psi, p):
    r = 1.0 - ts
    radial = wts * (ts * (2.0 - ts)) ** (p - 1.0) * r
    s = np.sin(0.5 * (angs - psi))
    rr = r * rho
    d2 = (1.0 - rr)[:, None] ** 2 + 4.0 * rr[:, None] * (s * s)[None, :]
    return float(radial @ d2 ** (-0.5 * p) @ wangs)


def pw_rkt_partial(points, a, b):
    c2 = pw_norm_factor(b)
    u = math.pi * (points - a)
    v = math.pi * b
    w2 = u * u + v * v
    num = np.sin(u) ** 2 + math.sinh(v) ** 2
    small = w2 < _SINC_SERIES_CUT
    out = np.empty_like(w2)
    np.divide(num, w2, out=out, where=~small)
    # removable value at w -> 0: |sinc(pi w)|^2 ~ 1 - (u^2 - v^2)/3
    out[small] = 1.0 - (u[small] ** 2 - v * v) / 3.0
    return c2 * float(np.sum(out))


def pw_rkt_grid(points, res, ims):
    # u and everything built from it alone do not depend on Im lambda
    u = math.pi * (points[None, :] - res[:, None])
    uu = u * u
    s2 = np.sin(u) ** 2
    del u
    out = np.empty((ims.size, res.size))
    for i in range(ims.size):
        b = float(ims[i])
        c2 = pw_norm_factor(b)
        v = math.pi * b
        sh2 = math.sinh(v) ** 2
        w2 = uu + v * v
        vals = (s2 + sh2) / np.maximum(w2, 1e-300)
        small = w2 < _SINC_SERIES_CUT
        if small.any():
            vals[small] = 1.0 - (uu[small] - v * v) / 3.0
        out[i, :] = c2 * vals.sum(axis=1)
    return out


def jacobi_eigh(h):
    """Eigenvalues (ascending) and eigenvector columns of a Hermitian matrix.

    A thin wrapper over LAPACK's ``np.linalg.eigh``.  The name is kept
    because the benchmark's per-layer metrics are keyed on it
    (``kernels.jacobi_eigh.*``).
    """
    return np.linalg.eigh(h)
