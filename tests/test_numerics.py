import math

import numpy as np
import pytest

from rktlab.errors import DegenerateSystemError, DomainError, EvaluationError
from rktlab.numerics import (
    RADIAL_CAP,
    TWO_PI,
    DiskGrid,
    circle_quadrature,
    eigen_hermitian,
    hermitian_part,
    integrate_circle,
    null_vector,
)


class TestCircleQuadrature:
    def test_constant(self):
        q = circle_quadrature()
        assert integrate_circle(lambda t: np.ones_like(t), q) == pytest.approx(TWO_PI, abs=1e-12)

    def test_cos_squared(self):
        q = circle_quadrature()
        assert integrate_circle(lambda t: np.cos(t) ** 2, q) == pytest.approx(math.pi, abs=1e-12)

    def test_poisson_closed_form_and_riemann(self):
        q = circle_quadrature(peaks=[(0.0, 0.05)])
        f = lambda t: 1.0 / np.abs(1.0 - 0.9 * np.exp(1j * t)) ** 2
        val = integrate_circle(f, q)
        assert val == pytest.approx(TWO_PI / (1.0 - 0.81), rel=1e-12)
        # brute-force midpoint Riemann sum with 1e6 nodes
        t = (np.arange(1_000_000) + 0.5) * (TWO_PI / 1_000_000)
        riemann = f(t).sum() * (TWO_PI / 1_000_000)
        assert val == pytest.approx(riemann, rel=1e-10)

    def test_trig_polynomial_exactness(self):
        rng = np.random.default_rng(11)
        q = circle_quadrature()
        coeffs = rng.standard_normal(17) + 1j * rng.standard_normal(17)

        def f(t):
            acc = np.full_like(t, coeffs[0].real)
            for k in range(1, 17):
                acc = acc + (coeffs[k] * np.exp(1j * k * t)).real
            return acc

        assert integrate_circle(f, q) == pytest.approx(TWO_PI * coeffs[0].real, abs=1e-12)

    def test_refinement_stability(self):
        q = circle_quadrature()
        f = lambda t: np.exp(np.cos(t)) * np.sin(3 * t) ** 2
        v1 = integrate_circle(f, q)
        v2 = integrate_circle(f, q.with_nodes_per_panel(2 * q.nodes_per_panel))
        assert abs(v1 - v2) <= 1e-10 * abs(v2)

    def test_breakpoints_are_panel_edges(self):
        q = circle_quadrature(breakpoints=[1.0, 2.5])
        assert np.any(np.isclose(q.panel_edges, 1.0))
        assert np.any(np.isclose(q.panel_edges, 2.5))

    def test_weights_positive(self):
        q = circle_quadrature(peaks=[(0.3, 1e-6)])
        assert np.all(q.weights > 0.0)

    def test_non_finite_integrand_names_node(self):
        q = circle_quadrature()

        def f(t):
            out = np.ones_like(t)
            out[t > 3.0] = np.inf
            return out

        with pytest.raises(EvaluationError, match="theta"):
            integrate_circle(f, q)


class TestDiskGrid:
    def test_dyadic_gaps_halve(self):
        g = DiskGrid.dyadic(10)
        gaps = 1.0 - g.radii
        assert np.allclose(gaps[1:] / gaps[:-1], 0.5)

    def test_cap(self):
        g = DiskGrid.dyadic(20)
        assert g.radii[-1] <= RADIAL_CAP + 1e-15
        with pytest.raises(DomainError):
            DiskGrid(np.array([1.0 - 2.0**-22]), np.array([4]))

    def test_geometric_reaches_cap(self):
        g = DiskGrid.geometric(64, 16)
        assert g.radii[-1] == pytest.approx(RADIAL_CAP, abs=1e-12)
        gaps = 1.0 - g.radii
        ratios = gaps[1:] / gaps[:-1]
        assert np.allclose(ratios, ratios[0], rtol=1e-9)

    def test_points_count(self):
        g = DiskGrid.dyadic(3, angles_per_ring=8)
        assert g.points().size == 24

    def test_validation(self):
        with pytest.raises(DomainError):
            DiskGrid(np.array([0.5, 0.4]), np.array([4, 4]))
        with pytest.raises(DomainError):
            DiskGrid.dyadic(0)


class TestEigenHermitian:
    def test_identity(self):
        w, v = eigen_hermitian(np.eye(3, dtype=complex))
        assert np.allclose(w, [1.0, 1.0, 1.0])

    def test_diag(self):
        w, _ = eigen_hermitian(np.diag([4.0, 1.0]).astype(complex))
        assert np.allclose(w, [1.0, 4.0])

    def test_random_reconstruction(self):
        rng = np.random.default_rng(5)
        b = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        m = hermitian_part(b @ b.conj().T + np.diag(rng.standard_normal(8)))
        w, v = eigen_hermitian(m)
        recon = (v * w) @ v.conj().T
        scale = np.linalg.norm(m)
        assert np.linalg.norm(recon - m) <= 1e-10 * scale
        for k in range(8):
            assert np.linalg.norm(m @ v[:, k] - w[k] * v[:, k]) <= 1e-10 * scale

    def test_trace_identity(self):
        rng = np.random.default_rng(6)
        b = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        m = hermitian_part(b)
        w, _ = eigen_hermitian(m)
        assert np.trace(m).real == pytest.approx(np.sum(w), rel=1e-10, abs=1e-10)

    def test_gram_matrices_psd(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            b = rng.standard_normal((6, 9)) + 1j * rng.standard_normal((6, 9))
            gram = b.conj().T @ b  # rank 6 Gram in dimension 9
            w, _ = eigen_hermitian(hermitian_part(gram))
            assert w[0] >= -1e-10 * max(1.0, np.linalg.norm(gram))

    def test_ascending(self):
        rng = np.random.default_rng(8)
        m = hermitian_part(rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10)))
        w, _ = eigen_hermitian(m)
        assert np.all(np.diff(w) >= -1e-14)

    def test_matches_lapack(self):
        # Independent oracle: a Hermitian circulant matrix C[j, k] = c[(j - k) % n]
        # has the DFT of its first column c as its spectrum.
        rng = np.random.default_rng(9)
        n = 16
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        c = 0.5 * (c + np.conj(np.roll(c[::-1], 1)))  # c[-k] = conj(c[k])
        idx = np.arange(n)
        m = c[(idx[:, None] - idx[None, :]) % n]
        exact = np.fft.fft(c)
        assert np.max(np.abs(exact.imag)) <= 1e-12
        w, _ = eigen_hermitian(m)
        exact = np.sort(exact.real)
        assert np.max(np.abs(w - exact)) <= 1e-12 * np.max(np.abs(exact))

    def test_rejects_non_hermitian(self):
        with pytest.raises(DomainError):
            eigen_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


class TestNullVector:
    def test_axis_row(self):
        v = null_vector(np.array([[1.0, 0.0]], dtype=complex))
        assert np.allclose(v, [0.0, 1.0])

    def test_two_axis_rows(self):
        v = null_vector(np.array([[1, 0, 0], [0, 1, 0]], dtype=complex))
        assert np.allclose(v, [0.0, 0.0, 1.0])

    def test_vandermonde_matches_product_expansion(self):
        rng = np.random.default_rng(21)
        for n in (4, 8, 12):
            xi = 0.9 * np.exp(1j * rng.uniform(0, TWO_PI, n - 1))
            rows = np.vander(xi, n, increasing=True)
            v = null_vector(rows)
            # oracle: expand prod (z - xi_k) symbolically
            oracle = np.concatenate([np.poly(xi)[::-1]])
            oracle = oracle / np.linalg.norm(oracle)
            overlap = abs(np.vdot(oracle, v))
            assert overlap == pytest.approx(1.0, abs=1e-9)
            assert np.max(np.abs(rows @ v)) <= 1e-10 * max(1.0, np.abs(rows).max())

    def test_orthogonality_property(self):
        rng = np.random.default_rng(22)
        rows = rng.standard_normal((7, 8)) + 1j * rng.standard_normal((7, 8))
        v = null_vector(rows)
        assert np.linalg.norm(rows @ v) <= 1e-10 * np.linalg.norm(rows)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_rows(self):
        rows = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]], dtype=complex)
        with pytest.raises(DegenerateSystemError):
            null_vector(rows)

    def test_wrong_row_count(self):
        with pytest.raises(DomainError):
            null_vector(np.array([[1.0, 0.0, 0.0]], dtype=complex))
