"""Finite-dimensional model spaces K_Theta = H^2 - Theta H^2 for finite
Blaschke products, with Clark systems and the deleted-point perturbation.

A finite Blaschke product is analytic across the closed disk, its boundary
spectrum is empty, and every object here (Clark points, kernel norms,
Gram matrices, the perturbed measure) is exactly computable at dimension
N = number of zeros.  The orthonormal basis used internally is the
Takenaka-Malmquist family built from the zeros, and an element of K_Theta is
its coordinate vector in that basis; every reported quantity is
basis-independent and cross-checked against closed kernel formulas.
"""

from __future__ import annotations

import math
from functools import reduce
from typing import NamedTuple

import numpy as np

from .errors import DomainError, PrecisionError
from .numerics import TWO_PI, DiskGrid, eigen_hermitian, null_vector, wrap_angle


class BlaschkeProduct:
    """Theta(z) = prod (z - a_j) / (1 - conj(a_j) z), |a_j| < 1."""

    __slots__ = ("zeros",)

    def __init__(self, zeros):
        a = np.atleast_1d(np.asarray(zeros, dtype=np.complex128))
        if a.ndim != 1 or a.size == 0 or not np.all(np.isfinite(a)):
            raise DomainError("zeros must be a finite nonempty 1-d array")
        if np.any(np.abs(a) >= 1.0 - 1e-9):
            raise DomainError("zeros must lie strictly inside the disk")
        self.zeros = a

    @property
    def degree(self) -> int:
        return int(self.zeros.size)

    def __call__(self, z):
        z = np.asarray(z, dtype=np.complex128)
        zz = z[..., None]
        factors = (zz - self.zeros) / (1.0 - np.conj(self.zeros) * zz)
        out = np.prod(factors, axis=-1)
        return out if out.shape else complex(out)

    def boundary_derivative_abs(self, zeta):
        """|Theta'(zeta)| for |zeta| = 1: sum (1-|a|^2)/|zeta - a|^2."""
        zeta = np.asarray(zeta, dtype=np.complex128)
        zz = zeta[..., None]
        terms = (1.0 - np.abs(self.zeros) ** 2) / np.abs(zz - self.zeros) ** 2
        out = np.sum(terms, axis=-1)
        return out if out.shape else float(out)


def kernel_value(theta: BlaschkeProduct, lam: complex, z) -> np.ndarray:
    """Closed kernel formula (1 - conj(Theta(lam)) Theta(z)) / (1 - conj(lam) z)."""
    tl = np.conj(theta(lam))
    z = np.asarray(z, dtype=np.complex128)
    return (1.0 - tl * theta(z)) / (1.0 - np.conj(lam) * z)


class ModelSpaceBasis(NamedTuple):
    """Takenaka-Malmquist orthonormal basis e_0..e_{N-1} of K_Theta."""

    theta: BlaschkeProduct

    @property
    def dim(self) -> int:
        return self.theta.degree

    def eval_matrix(self, zs) -> np.ndarray:
        """Matrix E with E[i, k] = e_k(z_i)."""
        a = self.theta.zeros
        zs = np.atleast_1d(np.asarray(zs, dtype=np.complex128))
        zz = zs[:, None]
        denom = 1.0 - np.conj(a) * zz
        factors = (zz - a) / denom
        blaschke = np.concatenate(
            [np.ones((zs.size, 1), dtype=np.complex128), np.cumprod(factors, axis=1)[:, :-1]],
            axis=1,
        )
        scale = np.sqrt(1.0 - np.abs(a) ** 2)
        return scale * blaschke / denom

    def shift_matrix(self) -> np.ndarray:
        """(N+1) x N matrix of z e_k in the basis e_0..e_{N-1}, B_N = Theta
        of K_{z Theta}: with c_k = sqrt(1-|a_k|^2) and B_k = prod_{j<k} b_j,
        z e_k = a_k e_k + c_k B_{k+1} and B_i = c_i e_i - conj(a_i) B_{i+1}."""
        a = self.theta.zeros
        n = a.size
        c = np.sqrt(1.0 - np.abs(a) ** 2)
        m = np.zeros((n + 1, n), dtype=np.complex128)
        m[np.arange(n), np.arange(n)] = a
        for k in range(n):
            run = c[k] * np.cumprod(np.concatenate([[1.0], -np.conj(a[k + 1 :])]))
            m[k + 1 : n, k] = run[:-1] * c[k + 1 :]
            m[n, k] = run[-1]
        return m


# ---------------------------------------------------------------------------
# Clark systems
# ---------------------------------------------------------------------------


class ClarkSystem(NamedTuple):
    """Solutions of Theta = alpha on the circle with their kernel weights."""

    theta: BlaschkeProduct
    alpha: complex
    angles: np.ndarray
    weights: np.ndarray  # |Theta'(zeta_n)|

    @property
    def points(self) -> np.ndarray:
        return np.exp(1j * self.angles)

    @property
    def dim(self) -> int:
        return int(self.angles.size)


def clark_residual_bound(speed):
    """max(1e-12, 2 ulps of 2*pi times the phase speed |Theta'|) at Clark points: rounding a polished
    angle (half an ulp of 2*pi) and the points e^(it) where Theta is evaluated before and after the
    Newton step (0.36 ulp each) move Theta by |Theta'| times 1.2 ulps; 16 zeros at 0.99 need 0.43."""
    return np.maximum(1e-12, 2.0 * math.ulp(TWO_PI) * np.asarray(speed, dtype=float))


def clark_points(theta: BlaschkeProduct, alpha: complex) -> ClarkSystem:
    """All N boundary solutions of Theta(zeta) = alpha; weights |Theta'|.

    They are the roots of the degree-N polynomial P - alpha*P~
    (P = prod (z - a_j), P~ = prod (1 - conj(a_j) z)) and the eigenvalues of
    the Clark unitary U f = S_Theta f + <z f, Theta> k_0 / conj(alpha -
    Theta(0)), since z k_zeta = zeta k_zeta - zeta k_0 + zeta conj(alpha -
    Theta(0)) Theta.  U is unitary, so LAPACK keeps its eigenvalues where the
    companion matrix of the polynomial loses zeros clustered near the circle.
    One Newton step on the boundary phase (speed |Theta'|) polishes them.
    """
    alpha = complex(alpha)
    if abs(abs(alpha) - 1.0) > 1e-12:
        raise DomainError("alpha must be unimodular")
    basis = ModelSpaceBasis(theta)
    shift = basis.shift_matrix()
    k0 = np.conj(basis.eval_matrix(np.array([0j]))[0])
    u = shift[:-1] + np.outer(k0, shift[-1]) / np.conj(alpha - theta(0.0))  # shift[-1] = <z e_k, Theta>
    # polish in [0, 2*pi): wrapping afterwards would add the rounding of 2*pi
    t = np.array([wrap_angle(x) for x in np.angle(np.linalg.eigvals(u))])
    z = np.exp(1j * t)
    t -= np.angle(theta(z) * np.conj(alpha)) / theta.boundary_derivative_abs(z)
    angles = np.array(sorted(wrap_angle(x) for x in t))
    # points are 2*pi apart in phase, which moves at speed |Theta'| <=
    # sum (1+|a|)/(1-|a|): a closer pair is one root found twice
    r = np.abs(theta.zeros)
    gap = float(np.min(np.diff(angles, append=angles[0] + TWO_PI)))
    if gap < math.pi / np.sum((1.0 + r) / (1.0 - r)):
        raise PrecisionError(f"Clark points are not {angles.size} distinct points: gap {gap:.3e}")
    pts = np.exp(1j * angles)
    weights = np.asarray(theta.boundary_derivative_abs(pts), dtype=float)
    resid, bound = np.abs(theta(pts) - alpha), clark_residual_bound(weights)
    k = int(np.argmax(resid / bound))
    if resid[k] > bound[k]:
        raise PrecisionError(f"Clark point residual {resid[k]:.3e} exceeds {bound[k]:.3g} at angles {angles!r}")
    return ClarkSystem(theta=theta, alpha=alpha, angles=angles, weights=weights)


def clark_kernel_coords(basis: ModelSpaceBasis, points: np.ndarray) -> np.ndarray:
    """Rows: coordinates of the normalized kernels at the given points."""
    e = basis.eval_matrix(points)
    coords = np.conj(e)
    norms = np.linalg.norm(coords, axis=1, keepdims=True)
    return coords / norms


# ---------------------------------------------------------------------------
# the deleted-and-perturbed system
# ---------------------------------------------------------------------------


class PerturbedSystem(NamedTuple):
    """Clark system with the first point deleted and the next one nudged.

    xi_1 = exp(i(arg zeta_1 + epsilon)); xi_n = zeta_n for n >= 2.  The
    discrete measure puts mass |Theta'(xi_n)|^-1 at each retained point.
    """

    clark: ClarkSystem
    epsilon: float
    xi_angles: np.ndarray
    basis: ModelSpaceBasis

    @property
    def theta(self) -> BlaschkeProduct:
        return self.clark.theta

    @property
    def xi_points(self) -> np.ndarray:
        return np.exp(1j * self.xi_angles)

    @property
    def masses(self) -> np.ndarray:
        return 1.0 / np.asarray(self.theta.boundary_derivative_abs(self.xi_points), dtype=float)

    @property
    def zeta0(self) -> complex:
        return complex(self.clark.points[0])

    def xi_coords(self) -> np.ndarray:
        return clark_kernel_coords(self.basis, self.xi_points)

    def zeta0_coords(self) -> np.ndarray:
        return clark_kernel_coords(self.basis, np.array([self.zeta0]))[0]

    def min_overlap(self) -> float:
        """min_n |<K_xi1, K_zeta_n>|: the nonvanishing margin of the nudged
        kernel against the whole original system."""
        xi1 = clark_kernel_coords(self.basis, self.xi_points[:1])
        zc = clark_kernel_coords(self.basis, self.clark.points)
        return float(np.min(np.abs(xi1 @ zc.conj().T)))


def build_theorem2_measure(
    theta: BlaschkeProduct, alpha: complex = 1.0 + 0.0j, epsilon: float | None = None
) -> PerturbedSystem:
    """Assemble the deleted-point system for a finite Blaschke product.

    epsilon defaults to 0.05 times the phase gap between zeta_1 and its
    nearest neighbor; epsilon = 0 is rejected (the nudged point must differ
    from zeta_1) and so is any epsilon that collides with another point.
    """
    clark = clark_points(theta, alpha)
    n = clark.dim
    if n < 2:
        raise DomainError("the construction needs dimension >= 2")
    angles = clark.angles
    gap_low = wrap_angle(angles[1] - angles[0])
    gap_high = wrap_angle(angles[2 % n] - angles[1])
    if epsilon is None:
        epsilon = 0.05 * min(gap_low, gap_high)
    epsilon = float(epsilon)
    if epsilon == 0.0:
        raise DomainError("epsilon = 0 leaves xi_1 equal to zeta_1")
    if not -gap_low < epsilon < gap_high:
        raise DomainError(
            f"epsilon = {epsilon} moves xi_1 out of the phase cell "
            f"(-{gap_low}, {gap_high}) around zeta_1"
        )
    xi_angles = np.concatenate([[wrap_angle(angles[1] + epsilon)], angles[2:]])
    sys = PerturbedSystem(
        clark=clark, epsilon=epsilon, xi_angles=xi_angles, basis=ModelSpaceBasis(theta)
    )
    if sys.min_overlap() < 1e-12:
        raise DomainError(
            "perturbed kernel is numerically orthogonal to a Clark kernel; "
            "choose a different epsilon"
        )
    return sys


class Witness(NamedTuple):
    function: np.ndarray  # coordinates in the basis of ``sys.basis``
    value_at_zeta0: complex


def witness_function(sys: PerturbedSystem) -> Witness:
    """Unit-norm element vanishing at every retained point xi_n (n >= 1)
    but not at the deleted point."""
    if sys.basis.dim < 2:
        raise DomainError("witness construction needs dimension >= 2")
    coeffs = null_vector(sys.basis.eval_matrix(sys.xi_points))
    return Witness(coeffs, complex((sys.basis.eval_matrix(sys.zeta0) @ coeffs)[0]))


def witness_ratio(sys: PerturbedSystem, coeffs) -> float:
    """||f||^2_{L2(mu)} / ||f||_2^2 for f in K_Theta with coordinates coeffs in ``sys.basis``."""
    c = np.asarray(coeffs, dtype=np.complex128)
    if c.shape != (sys.basis.dim,):
        raise DomainError("coefficient vector does not match the basis dimension")
    nrm = float(np.linalg.norm(c))
    if nrm == 0.0:
        raise DomainError("zero function")
    vals = sys.basis.eval_matrix(sys.xi_points) @ c
    return float(np.sum(sys.masses * np.abs(vals) ** 2)) / nrm**2


def phi(sys: PerturbedSystem, z) -> np.ndarray:
    """phi(z) = |<K_zeta0, K_z>|^2 via the closed form
    |(Theta(zeta0)-Theta(z))/(zeta0-z)|^2 / |Theta'(zeta0)| *
    (1-|z|^2)/(1-|Theta(z)|^2), for z in the open disk."""
    z = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    if np.any(np.abs(z) >= 1.0):
        raise DomainError("phi is evaluated on the open disk")
    theta = sys.theta
    z0 = sys.zeta0
    w0 = float(theta.boundary_derivative_abs(np.array([z0]))[0])
    tz = theta(z)
    quot = np.abs((theta(z0) - tz) / (z0 - z)) ** 2
    out = quot / w0 * (1.0 - np.abs(z) ** 2) / (1.0 - np.abs(tz) ** 2)
    return out if out.size > 1 else float(out[0])


def psi(sys: PerturbedSystem, delta: float, grid: DiskGrid) -> float:
    """Grid supremum of phi over the disk minus the ball |z - zeta0| < delta
    (the origin included)."""
    zs = np.concatenate([[0.0 + 0.0j], grid.points()])
    return psi_from_values(zs, np.asarray(phi(sys, zs)), sys.zeta0, delta)


def psi_from_values(zs: np.ndarray, phi_vals: np.ndarray, zeta0: complex, delta: float) -> float:
    """Supremum of phi_vals over the points zs outside the ball |z - zeta0| < delta."""
    if delta <= 0.0:
        raise DomainError("delta must be positive")
    mask = np.abs(zs - zeta0) >= delta
    if not np.any(mask):
        raise DomainError("delta excludes the entire grid")
    return float(np.max(phi_vals[mask]))


class RieszBounds(NamedTuple):
    lower: float
    upper: float
    eta: float


def riesz_bounds(sys: PerturbedSystem) -> RieszBounds:
    """Extreme eigenvalues of the Gram of {K_zeta0} union {K_xi_n}:
    the frame window (1-eta, 1+eta) of the perturbed system."""
    c = np.vstack([sys.zeta0_coords()[None, :], sys.xi_coords()])
    evals = eigen_hermitian(c @ c.conj().T)
    eta = float(max(abs(1.0 - evals[0]), abs(evals[-1] - 1.0)))
    return RieszBounds(1.0 - eta, 1.0 + eta, eta)


class ModelScan(NamedTuple):
    delta: float
    witness: complex
    zs: np.ndarray
    phi_vals: np.ndarray
    mu_norm_sq: np.ndarray


#: Most grid points ``rkt_model_scan`` evaluates at once: its temporaries are
#: a few (block x zeros) complex arrays, whatever the grid size.
SCAN_BLOCK_ROWS = 4096


def rkt_model_scan(sys: PerturbedSystem, grid: DiskGrid) -> ModelScan:
    """Grid minimum of ||K_z||^2_{L2(mu)} = sum_{n>=1} |<K_z, K_xi_n>|^2 over
    the origin and the grid, with the phi profile alongside for the
    decomposition identity and for psi (``psi_from_values``).

    Rows are evaluated in blocks of nearly equal size, at most
    SCAN_BLOCK_ROWS each.  Every value is the one a single pass over all
    rows gives, as long as no block has one row: BLAS would take its
    matrix-vector path for that row and round it differently."""
    zs = np.concatenate([[0.0 + 0.0j], grid.points()])
    uh = sys.xi_coords().conj().T
    mu_norm_sq = np.empty(zs.size)
    phi_vals = np.empty(zs.size)
    blocks = -(-zs.size // SCAN_BLOCK_ROWS)
    bounds = [zs.size * k // blocks for k in range(blocks + 1)]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        inner = clark_kernel_coords(sys.basis, zs[lo:hi]) @ uh
        mu_norm_sq[lo:hi] = np.sum(np.abs(inner) ** 2, axis=1)
        phi_vals[lo:hi] = phi(sys, zs[lo:hi])
    i = int(np.argmin(mu_norm_sq))
    return ModelScan(float(mu_norm_sq[i]), complex(zs[i]), zs, phi_vals, mu_norm_sq)


class SublevelCount(NamedTuple):
    count: int
    margin: float  # min |log(|Theta(c)|/eps)| over the critical points c; inf if every Theta(c) = 0


def sublevel_component_count(theta: BlaschkeProduct, eps: float = 0.5) -> SublevelCount:
    """Exact number of connected components of {z in D : |Theta(z)| < eps}
    (one component is the one-component sanity check).

    Each component is simply connected (maximum principle) and Theta maps it
    properly onto the disk of radius eps with some degree d, so by
    Riemann-Hurwitz it holds d - 1 critical points: the count is N minus the
    critical points in D, with multiplicity, whose value lies below eps.  A
    zero of multiplicity m is one of multiplicity m - 1 with value 0; the
    others are the K - 1 roots in D of f = Theta'/Theta = sum_j w_j / q_j over
    the K distinct zeros, w_j = m_j (1 - |a_j|^2), q_j = (z - a_j)(1 - conj(a_j) z).
    np.roots of f prod q_j starts them and Aberth steps on f itself finish
    them (np.roots alone misplaces them when the zeros cluster near the
    circle).  The count
    changes only where eps crosses a critical value: the margin is the
    log-distance from eps to the nearest one.
    """
    if not 0.0 < eps < 1.0:
        raise DomainError("eps must lie in (0, 1)")
    a, mult = np.unique(theta.zeros, return_counts=True)
    w = mult * (1.0 - np.abs(a) ** 2)
    quad = [np.array([-np.conj(x), 1.0 + abs(x) ** 2, -x]) for x in a]
    with np.errstate(all="ignore"):  # inf and nan fail the checks below
        try:
            z = np.roots(sum(w[j] * reduce(np.convolve, quad[:j] + quad[j + 1 :], np.ones(1)) for j in range(a.size)))
        except np.linalg.LinAlgError as exc:
            raise PrecisionError(f"critical points of Theta: {exc}") from exc
        # a step vanishes exactly where f does, so the roots far outside can
        # be left out of the repulsion sum
        z = z[np.abs(z) < 2.0]
        for _ in range(100):
            q = (z[:, None] - a) * (1.0 - np.conj(a) * z[:, None])
            dq = 1.0 + np.abs(a) ** 2 - 2.0 * np.conj(a) * z[:, None]
            f, df = np.sum(w / q, axis=1), -np.sum(w * dq / q**2, axis=1)
            pairs = z[:, None] - z + np.diag(np.full(z.size, np.inf))
            step = f / (df + f * (np.sum(dq / q, axis=1) - np.sum(1.0 / pairs, axis=1)))
            z = z - step
            # a step s moves |Theta(c)| by a factor 1 + O((s / dist(c, zeros))^2)
            if np.all(np.abs(step) <= 1e-4 * np.min(np.abs(z[:, None] - a), axis=1)):
                break
        else:
            raise PrecisionError("critical points of Theta did not converge")
        crit = z[np.abs(z) < 1.0]
        if crit.size != a.size - 1:
            raise PrecisionError(f"found {crit.size} critical points in the disk, expected {a.size - 1}")
        vals = np.abs(theta(crit))
        margin = float(np.min(np.abs(np.log(vals / eps)), initial=math.inf))
    return SublevelCount(a.size - int(np.sum(vals < eps)), margin)
