import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import ndimage
from scipy.optimize import brentq

import rktlab
from rktlab.cli import run_theorem2, validate
from rktlab.errors import DomainError, PrecisionError
from rktlab.model_space import (
    SCAN_BLOCK_ROWS,
    BlaschkeProduct,
    ModelSpaceBasis,
    build_theorem2_measure,
    clark_kernel_coords,
    clark_points,
    clark_residual_bound,
    kernel_value,
    phi,
    psi,
    riesz_bounds,
    rkt_model_scan,
    sublevel_component_count,
    witness_function,
    witness_ratio,
)
from rktlab.numerics import TWO_PI, DiskGrid, circle_quadrature, wrap_angle

Z8 = BlaschkeProduct(np.zeros(8, dtype=complex))
Z2 = BlaschkeProduct(np.zeros(2, dtype=complex))
EPS8 = 0.05 * (TWO_PI / 8.0)


def boundary_gram(basis, base_panels=64, nodes_per_panel=16):
    """Gram matrix of the basis by boundary quadrature, peaks at the zeros."""
    peaks = [
        (math.atan2(aj.imag, aj.real), max(0.5 * (1.0 - abs(aj)), 2.0**-24))
        for aj in basis.theta.zeros
        if abs(aj) > 0.0
    ]
    rule = circle_quadrature(peaks=peaks, base_panels=base_panels, nodes_per_panel=nodes_per_panel)
    e = basis.eval_matrix(np.exp(1j * rule.nodes))
    return (e.conj().T * rule.weights) @ e / TWO_PI


def phi_inner(sys_, zs):
    """phi = |<K_zeta0, K_z>|^2 / (||K_zeta0||^2 ||K_z||^2) from basis coordinates."""
    e = sys_.basis.eval_matrix(zs)
    zc = np.conj(sys_.basis.eval_matrix(np.array([sys_.zeta0]))[0])
    return np.abs(e @ zc) ** 2 / (np.sum(np.abs(zc) ** 2) * np.sum(np.abs(e) ** 2, axis=1))


def random_blaschke(rng, n, rmax=0.75):
    zeros = rmax * np.sqrt(rng.uniform(0.05, 1.0, n)) * np.exp(1j * rng.uniform(0, TWO_PI, n))
    return BlaschkeProduct(zeros)


def _brent_clark_angles(theta, alpha):
    """Reference Clark solver (the former phase-sampling one): sample the
    unwrapped boundary phase, bracket each level 2*pi*k and refine it with
    Brent's method.  A level just below angle 0 is solved on [-h, 0]; the
    former solver put it at 0 exactly."""
    n = theta.degree
    # sampling density: the boundary phase moves at speed |Theta'|
    probe = np.exp(1j * np.linspace(0.0, TWO_PI, 512, endpoint=False))
    max_speed = float(np.max(theta.boundary_derivative_abs(probe)))
    m = max(4096, int(32 * max_speed))
    thetas = np.linspace(0.0, TWO_PI, m + 1)
    u = np.unwrap(np.angle(theta(np.exp(1j * thetas)) * np.conj(alpha)))
    assert abs(u[-1] - u[0] - TWO_PI * n) <= 1e-6

    def local(thetav):
        return float(np.angle(theta(np.exp(1j * thetav)) * np.conj(alpha)))

    k_start = math.ceil(u[0] / TWO_PI - 1e-12)
    roots = []
    for k in range(k_start, k_start + n):
        target = TWO_PI * k
        i = int(np.searchsorted(u, target, side="left"))
        if i == 0:  # the level lies just below angle 0
            roots.append(float(brentq(local, -thetas[1], 0.0, xtol=1e-15, rtol=8.9e-16)))
            continue
        lo, hi = float(thetas[i - 1]), float(thetas[i])
        flo, fhi = u[i - 1] - target, u[i] - target
        if flo == 0.0 or fhi == 0.0:
            roots.append(lo if flo == 0.0 else hi)
            continue
        assert flo < 0.0 < fhi
        roots.append(float(brentq(local, lo, hi, xtol=1e-15, rtol=8.9e-16)))
    return np.array(sorted(wrap_angle(t) for t in roots))


_disk_points = st.builds(
    lambda r, t: r * complex(math.cos(t), math.sin(t)), st.floats(0.0, 0.99), st.floats(0.0, TWO_PI)
)


class TestBlaschke:
    def test_boundary_modulus(self):
        rng = np.random.default_rng(1)
        theta = random_blaschke(rng, 6)
        zs = np.exp(1j * rng.uniform(0, TWO_PI, 50))
        assert np.max(np.abs(np.abs(theta(zs)) - 1.0)) <= 1e-12

    def test_phase_winds_by_degree(self):
        rng = np.random.default_rng(2)
        theta = random_blaschke(rng, 5)
        ts = np.linspace(0.0, TWO_PI, 8193)
        u = np.unwrap(np.angle(theta(np.exp(1j * ts))))
        assert u[-1] - u[0] == pytest.approx(TWO_PI * 5, abs=1e-8)
        # the phase speed |Theta'| is positive, so the phase is increasing
        assert np.all(np.diff(u) > 0.0)

    def test_zeros_map_to_zero(self):
        rng = np.random.default_rng(3)
        theta = random_blaschke(rng, 4)
        assert np.max(np.abs(theta(theta.zeros))) <= 1e-12

    def test_rejects_boundary_zero(self):
        with pytest.raises(DomainError):
            BlaschkeProduct(np.array([1.0 + 0.0j]))


class TestBasis:
    def test_quadrature_gram_identity(self):
        rng = np.random.default_rng(4)
        for n in (2, 5, 8):
            basis = ModelSpaceBasis(random_blaschke(rng, n))
            gram = boundary_gram(basis)
            assert np.max(np.abs(gram - np.eye(n))) <= 1e-10

    def test_reproducing_identity(self):
        rng = np.random.default_rng(5)
        theta = random_blaschke(rng, 6)
        basis = ModelSpaceBasis(theta)
        lam = 0.8 * np.sqrt(rng.uniform(0, 1, 50)) * np.exp(1j * rng.uniform(0, TWO_PI, 50))
        zs = 0.95 * np.sqrt(rng.uniform(0, 1, 50)) * np.exp(1j * rng.uniform(0, TWO_PI, 50))
        for l, z in zip(lam, zs):
            direct = kernel_value(theta, complex(l), complex(z))
            via = complex(
                basis.eval_matrix(np.array([z]))[0]
                @ np.conj(basis.eval_matrix(np.array([l]))[0])
            )
            assert abs(direct - via) <= 1e-9

    def test_shift_matrix_multiplies_by_z(self):
        rng = np.random.default_rng(10)
        theta = BlaschkeProduct(random_blaschke(rng, 7, rmax=0.95).zeros, front=complex(np.exp(0.3j)))
        basis = ModelSpaceBasis(theta)
        m = basis.shift_matrix()
        zs = 0.9 * np.sqrt(rng.uniform(0, 1, 40)) * np.exp(1j * rng.uniform(0, TWO_PI, 40))
        e = basis.eval_matrix(zs)
        rhs = e @ m[:-1] + np.outer(theta(zs) / theta.front, m[-1])
        assert np.max(np.abs(zs[:, None] * e - rhs)) <= 1e-13

    def test_monomial_basis_for_power(self):
        zs = np.array([0.3 + 0.4j, -0.7j, 0.95, complex(np.exp(2.0j))])
        e = ModelSpaceBasis(Z8).eval_matrix(zs)
        assert np.max(np.abs(e - zs[:, None] ** np.arange(8))) <= 1e-15


class TestModelKernel:
    def test_norm_matches_basis_expansion(self):
        # ||k_lam||^2 = k_lam(lam) = (1 - |Theta(lam)|^2)/(1 - |lam|^2) inside
        # the disk, and |Theta'(lam)| on the circle
        rng = np.random.default_rng(6)
        theta = random_blaschke(rng, 5)
        basis = ModelSpaceBasis(theta)
        for lam in (0.0, 0.4 - 0.3j, 0.9 * np.exp(2.5j), complex(np.exp(0.3j))):
            lam = complex(lam)
            via = float(np.sum(np.abs(basis.eval_matrix(np.array([lam]))[0]) ** 2))
            if abs(lam) < 1.0 - 1e-12:
                exact = kernel_value(theta, lam, lam)
                assert abs(exact.imag) <= 1e-12 * exact.real
                exact = exact.real
            else:
                exact = theta.boundary_derivative_abs(lam)
            assert exact == pytest.approx(via, rel=1e-9)


class TestClark:
    def test_power_eight_roots_of_unity(self):
        clark = clark_points(Z8, 1.0)
        assert np.allclose(clark.angles, TWO_PI * np.arange(8) / 8.0, atol=1e-12)
        assert np.allclose(clark.weights, 8.0)
        assert np.max(np.abs(Z8(clark.points) - 1.0)) <= 1e-12

    @pytest.mark.parametrize("n", [1, 3, 8, 16])
    @pytest.mark.parametrize("gamma", [0.0, 1.0, math.pi, 5.5])
    def test_power_roots_of_unity(self, n, gamma):
        # z^n = e^{i gamma}: angles (gamma + 2 pi k)/n, sorted in [0, 2 pi)
        theta = BlaschkeProduct(np.zeros(n, dtype=complex))
        clark = clark_points(theta, complex(np.exp(1j * gamma)))
        assert np.allclose(clark.angles, (gamma + TWO_PI * np.arange(n)) / n, rtol=0.0, atol=1e-12)
        assert np.allclose(clark.weights, n)

    @given(
        zeros=st.lists(_disk_points, min_size=1, max_size=16),
        gamma=st.floats(0.0, TWO_PI),
        front=st.floats(0.0, TWO_PI),
    )
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_matches_brent_reference(self, zeros, gamma, front):
        theta = BlaschkeProduct(np.array(zeros), front=complex(np.exp(1j * front)))
        alpha = complex(np.exp(1j * gamma))
        ref = _brent_clark_angles(theta, alpha)
        try:
            clark = clark_points(theta, alpha)
        except PrecisionError:
            # only where the reference angles miss the 1e-12 residual as well:
            # there |Theta'| times the rounding of an angle alone nears it
            assert np.max(np.abs(theta(np.exp(1j * ref)) - alpha)) > 0.5e-12
            return
        angles = clark.angles
        assert angles.size == len(zeros)
        assert 0.0 <= angles[0] and angles[-1] < TWO_PI
        assert np.all(np.diff(angles) > 0.0)
        d = np.abs(angles[:, None] - ref[None, :])
        assert np.max(np.min(np.minimum(d, TWO_PI - d), axis=1)) <= 1e-13

    def test_roots_of_the_polynomial(self):
        # front*P - alpha*P~ with P = prod (z - a_j), P~ = prod (1 - conj(a_j) z)
        rng = np.random.default_rng(12)
        for n in (2, 5, 11):
            theta = random_blaschke(rng, n, rmax=0.9)
            alpha = complex(np.exp(2.1j))
            p = np.poly(theta.zeros)
            poly = theta.front * p - alpha * np.conj(p)[::-1]
            vals = np.polyval(poly, clark_points(theta, alpha).points)
            assert np.max(np.abs(vals)) <= 1e-12 * np.sum(np.abs(poly))

    def test_clustered_zeros_near_the_circle(self):
        # the companion matrix of the polynomial loses these points
        for n, r in ((8, 0.99), (12, 0.99), (12, 0.95), (16, 0.9)):
            theta = BlaschkeProduct(np.full(n, r + 0.0j))
            clark = clark_points(theta, 1.0)
            assert clark.dim == n
            assert np.max(np.abs(theta(clark.points) - 1.0)) <= 1e-12
            d = np.abs(clark.angles - _brent_clark_angles(theta, 1.0))
            assert np.max(np.minimum(d, TWO_PI - d)) <= 1e-13

    def test_residual_bound_is_1e_12_at_small_speed(self):
        # below |Theta'| = 1e-12 / (2 ulp(2 pi)) = 562.9... the bound is the absolute 1e-12
        slow = [0.0, 1.0, 8.0, 100.0, 562.0, 1e-12 / (2.0 * math.ulp(TWO_PI))]
        assert clark_residual_bound(slow).tolist() == [1e-12] * len(slow)
        assert clark_residual_bound([600.0, 3184.0]).tolist() == [2.0 * math.ulp(TWO_PI) * 600.0, 2.0 * math.ulp(TWO_PI) * 3184.0]

    def test_sixteen_zeros_at_0_99_within_the_scaled_bound(self):
        # |Theta'| reaches 3,184 there, and the rounding of an angle near 2 pi
        # alone leaves residuals over 1e-12
        theta = BlaschkeProduct(np.full(16, 0.99 + 0.0j))
        clark = clark_points(theta, 1.0)
        resid = np.abs(theta(clark.points) - 1.0)
        assert clark.dim == 16 and np.max(resid) > 1e-12 and np.all(resid <= clark_residual_bound(clark.weights))

    def test_root_found_twice_is_refused(self, monkeypatch):
        eigvals = np.linalg.eigvals

        def one_twice(u):
            vals = np.sort_complex(eigvals(u))
            vals[1] = vals[0]
            return vals

        monkeypatch.setattr(np.linalg, "eigvals", one_twice)
        with pytest.raises(PrecisionError, match="distinct"):
            clark_points(BlaschkeProduct(np.array([0.5, -0.3j, 0.2 + 0.6j])), 1.0)

    def test_cli_import_leaves_scipy_optimize_out(self):
        src = str(Path(rktlab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = (
            "import sys, rktlab.cli; "
            "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']; "
            "assert not loaded, loaded"
        )
        subprocess.run([sys.executable, "-c", code], env=env, check=True)

    def test_power_two_at_minus_one(self):
        clark = clark_points(Z2, -1.0)
        assert np.allclose(sorted(clark.angles), [math.pi / 2, 3 * math.pi / 2], atol=1e-12)

    def test_two_zero_product(self):
        theta = BlaschkeProduct(np.array([0.5 + 0.0j, -0.3j]))
        clark = clark_points(theta, 1.0)
        assert clark.dim == 2
        assert np.max(np.abs(theta(clark.points) - 1.0)) <= 1e-12
        coords = clark_kernel_coords(ModelSpaceBasis(theta), clark.points)
        gram = coords @ coords.conj().T
        assert np.max(np.abs(gram - np.eye(2))) <= 1e-9

    def test_random_orthonormality_up_to_16(self):
        rng = np.random.default_rng(7)
        for n in (3, 9, 16):
            theta = random_blaschke(rng, n)
            clark = clark_points(theta, complex(np.exp(0.4j)))
            coords = clark_kernel_coords(ModelSpaceBasis(theta), clark.points)
            gram = coords @ coords.conj().T
            assert np.max(np.abs(gram - np.eye(n))) <= 1e-9

    def test_weights_match_formula(self):
        rng = np.random.default_rng(8)
        theta = random_blaschke(rng, 4)
        clark = clark_points(theta, 1.0)
        # norm^2 of the boundary kernel equals the phase speed
        basis = ModelSpaceBasis(theta)
        for zeta, w in zip(clark.points, clark.weights):
            via = float(np.sum(np.abs(basis.eval_matrix(np.array([zeta]))[0]) ** 2))
            assert w == pytest.approx(via, rel=1e-11)


class TestPerturbedSystem:
    def test_power_two_single_atom(self):
        sys_ = build_theorem2_measure(Z2, 1.0, 0.1)
        assert sys_.xi_points.shape == sys_.masses.shape == (1,)
        assert sys_.masses[0] == pytest.approx(0.5)
        assert sys_.xi_points[0] == pytest.approx(np.exp(1j * (math.pi + 0.1)))

    def test_power_eight_masses(self):
        sys_ = build_theorem2_measure(Z8, 1.0, 0.05)
        assert sys_.xi_points.shape == sys_.masses.shape == (7,)
        assert np.allclose(sys_.masses, 0.125)

    def test_zero_epsilon_rejected(self):
        with pytest.raises(DomainError):
            build_theorem2_measure(Z8, 1.0, 0.0)

    def test_collision_rejected(self):
        with pytest.raises(DomainError):
            build_theorem2_measure(Z8, 1.0, TWO_PI / 8.0)

    def test_default_epsilon_fraction_of_gap(self):
        sys_ = build_theorem2_measure(Z8, 1.0)
        assert sys_.epsilon == pytest.approx(EPS8)

    def test_nonvanishing_overlap_reported(self):
        sys_ = build_theorem2_measure(Z8, 1.0, EPS8)
        assert sys_.min_overlap() > 1e-12


class TestWitness:
    def test_power_two_proportional_to_linear_factor(self):
        sys_ = build_theorem2_measure(Z2, 1.0, 0.1)
        wit = witness_function(sys_)
        xi1 = complex(sys_.xi_points[0])
        # f is proportional to (z - xi1) in the monomial basis {1, z}
        c = wit.function
        assert c[1] != 0.0
        assert c[0] / c[1] == pytest.approx(-xi1, abs=1e-12)
        assert abs(sys_.basis.eval_matrix(xi1) @ c) <= 1e-12
        assert abs(wit.value_at_zeta0) > 0.1

    def test_power_eight_product_expansion_oracle(self):
        sys_ = build_theorem2_measure(Z8, 1.0, EPS8)
        wit = witness_function(sys_)
        oracle = np.poly(sys_.xi_points)[::-1].conj().conj()
        oracle = oracle / np.linalg.norm(oracle)
        overlap = abs(np.vdot(oracle, wit.function))
        assert overlap == pytest.approx(1.0, abs=1e-9)

    def test_mu_norm_exact_zero(self):
        for theta, eps in ((Z8, EPS8), (BlaschkeProduct(np.array([0.4, -0.2 + 0.5j])), 0.05)):
            sys_ = build_theorem2_measure(theta, 1.0, eps)
            wit = witness_function(sys_)
            assert witness_ratio(sys_, wit.function) <= 1e-24
            assert np.linalg.norm(wit.function) == pytest.approx(1.0, abs=1e-12)

    def test_ratio_from_witness_mass_bit_identical(self):
        # witness_ratio, which the runner reports, gives the bytes of the witness's
        # mass sum_n m_n |f(xi_n)|^2 on the evaluation rows the witness was solved from
        rng = np.random.default_rng(12)
        for n in (2, 5, 8):
            sys_ = build_theorem2_measure(random_blaschke(rng, n), 1.0)
            wit = witness_function(sys_)
            mass = float(np.sum(sys_.masses * np.abs(sys_.basis.eval_matrix(sys_.xi_points) @ wit.function) ** 2))
            assert mass / float(np.linalg.norm(wit.function)) ** 2 == witness_ratio(sys_, wit.function)

    def test_ratio_refuses_wrong_shape_and_zero(self):
        sys_ = build_theorem2_measure(Z8, 1.0, EPS8)
        with pytest.raises(DomainError, match="basis dimension"):
            witness_ratio(sys_, np.ones(7))
        with pytest.raises(DomainError, match="zero function"):
            witness_ratio(sys_, np.zeros(8))


class TestPhi:
    def test_radial_limit_reaches_one(self):
        sys_ = build_theorem2_measure(Z8, 1.0, EPS8)
        vals = [phi(sys_, (1.0 - 2.0**-k) * sys_.zeta0) for k in (4, 10, 16)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 1.0 - 1e-3

    def test_cauchy_schwarz_on_grid(self):
        sys_ = build_theorem2_measure(Z8, 1.0, EPS8)
        zs = DiskGrid.geometric(16, 64).points()
        assert float(np.max(phi(sys_, zs))) <= 1.0 + 1e-12

    def test_power_two_at_origin(self):
        sys_ = build_theorem2_measure(Z2, 1.0, 0.1)
        assert phi(sys_, 0.0) == pytest.approx(0.5, abs=1e-12)

    def test_closed_form_matches_inner_products(self):
        rng = np.random.default_rng(9)
        theta = random_blaschke(rng, 5)
        sys_ = build_theorem2_measure(theta, 1.0)
        zs = 0.97 * np.sqrt(rng.uniform(0, 1, 100)) * np.exp(1j * rng.uniform(0, TWO_PI, 100))
        a = np.asarray(phi(sys_, zs))
        b = np.asarray(phi_inner(sys_, zs))
        assert np.max(np.abs(a - b)) <= 1e-9


class TestPsi:
    def test_small_delta_approaches_one(self):
        # the sup at tiny delta is limited only by the grid's angular offset
        # around zeta0 and climbs toward 1 as the grid refines
        sys_ = build_theorem2_measure(Z8, 1.0, EPS8)
        coarse = psi(sys_, 1e-5, DiskGrid.geometric(48, 256))
        fine = psi(sys_, 1e-5, DiskGrid.geometric(48, 1024))
        assert coarse > 1.0 - 1e-2
        assert fine > coarse
        assert fine > 1.0 - 1e-4

    def test_monotone_in_delta(self):
        sys_ = build_theorem2_measure(Z8, 1.0, EPS8)
        grid = DiskGrid.geometric(32, 256)
        vals = [psi(sys_, d, grid) for d in (0.05, 0.1, 0.2, 0.4)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
        assert all(v < 1.0 for v in vals)

    def test_frozen_gap_at_point_two(self):
        # frozen regression: psi(0.2) = 0.8023 for the z^8 system
        sys_ = build_theorem2_measure(Z8, 1.0, EPS8)
        grid = DiskGrid.geometric(64, 512)
        val = psi(sys_, 0.2, grid)
        assert val < 1.0 - 0.19
        assert val == pytest.approx(0.8023247388810879, rel=1e-9)

    def test_runner_psi_bit_identical(self):
        # the runner reads psi off the scan's phi profile; both it and psi()
        # must equal the sup of phi evaluated on the kept points alone
        rng = np.random.default_rng(13)
        for k in range(4):
            zeros = random_blaschke(rng, 8, rmax=0.9).zeros
            doc = {
                "kind": "theorem2",
                "zeros": [{"re": float(z.real), "im": float(z.imag)} for z in zeros],
                "alpha_angle": float(rng.uniform(0, TWO_PI)),
                "grid": {"rings": 16, "angles": 128},
                "delta_list": [0.05, 0.1, 0.2, 0.4, 1.5],
            }
            summary = run_theorem2(validate(doc), quick=False, seed=k)[0]
            sys_ = build_theorem2_measure(BlaschkeProduct(zeros), complex(np.exp(1j * doc["alpha_angle"])))
            grid = DiskGrid.geometric(16, 128)
            zs = np.concatenate([[0j], grid.points()])
            for d in doc["delta_list"]:
                kept = zs[np.abs(zs - sys_.zeta0) >= d]
                former = float(np.max(phi(sys_, kept)))
                assert summary["psi"][str(d)] == psi(sys_, d, grid) == former

    def test_strict_gap_for_random_product(self):
        rng = np.random.default_rng(10)
        theta = random_blaschke(rng, 4)
        sys_ = build_theorem2_measure(theta, 1.0)
        grid = DiskGrid.geometric(32, 256)
        for d in (0.05, 0.1, 0.2, 0.4):
            assert psi(sys_, d, grid) < 1.0


class TestRiesz:
    def test_unperturbed_gram_is_identity(self):
        clark = clark_points(Z8, 1.0)
        coords = clark_kernel_coords(ModelSpaceBasis(Z8), clark.points)
        gram = coords @ coords.conj().T
        assert np.max(np.abs(gram - np.eye(8))) <= 1e-12

    def test_eta_increases_with_epsilon(self):
        etas = []
        for eps in (EPS8 / 4, EPS8 / 2, EPS8):
            sys_ = build_theorem2_measure(Z8, 1.0, eps)
            etas.append(riesz_bounds(sys_).eta)
        assert etas[0] < etas[1] < etas[2]

    def test_frozen_eta(self):
        # frozen regression: eta = 0.0898 for z^8 at the default nudge
        sys_ = build_theorem2_measure(Z8, 1.0, EPS8)
        rb = riesz_bounds(sys_)
        assert rb.eta < 0.5
        assert rb.eta == pytest.approx(0.08983425333327366, rel=1e-9)
        assert rb.lower == pytest.approx(1.0 - rb.eta)
        assert rb.upper == pytest.approx(1.0 + rb.eta)


class TestScan:
    def test_headline_contrast(self):
        # kernel mass bounded below while the witness mass vanishes
        sys_ = build_theorem2_measure(Z8, 1.0, EPS8)
        grid = DiskGrid.geometric(64, 512)
        scan = rkt_model_scan(sys_, grid)
        assert scan.delta > 0.0
        # frozen regression value for the default grid
        assert scan.delta == pytest.approx(0.0018555453551493497, rel=1e-9)
        wit = witness_function(sys_)
        assert witness_ratio(sys_, wit.function) <= 1e-12

    def test_decomposition_identity(self):
        sys_ = build_theorem2_measure(Z8, 1.0, EPS8)
        grid = DiskGrid.geometric(24, 128)
        scan = rkt_model_scan(sys_, grid)
        coords = np.conj(sys_.basis.eval_matrix(scan.zs))
        coords /= np.linalg.norm(coords, axis=1, keepdims=True)
        stack = np.vstack([sys_.zeta0_coords()[None, :], sys_.xi_coords()])
        full = np.sum(np.abs(coords @ stack.conj().T) ** 2, axis=1)
        assert np.max(np.abs(full - scan.phi_vals - scan.mu_norm_sq)) <= 1e-9

    def test_near_case_two_terms(self):
        # on the ball around the deleted point two terms already stay positive
        sys_ = build_theorem2_measure(Z8, 1.0, EPS8)
        grid = DiskGrid.geometric(64, 512)
        zs = grid.points()
        near = zs[np.abs(zs - sys_.zeta0) < 0.2]
        coords = np.conj(sys_.basis.eval_matrix(near))
        coords /= np.linalg.norm(coords, axis=1, keepdims=True)
        xi = sys_.xi_coords()
        zeta2 = clark_kernel_coords(sys_.basis, sys_.clark.points[2:3])
        phi1 = np.abs(coords @ xi[0].conj()) ** 2
        phi2 = np.abs(coords @ zeta2[0].conj()) ** 2
        assert float(np.min(phi1 + phi2)) > 5e-4  # frozen: observed 6.06e-4

    def test_far_case_riesz_bound(self):
        sys_ = build_theorem2_measure(Z8, 1.0, EPS8)
        grid = DiskGrid.geometric(64, 512)
        scan = rkt_model_scan(sys_, grid)
        rb = riesz_bounds(sys_)
        d = 0.2
        far = np.abs(scan.zs - sys_.zeta0) >= d
        far_min = float(np.min(scan.mu_norm_sq[far]))
        assert far_min >= (1.0 - rb.eta) - psi(sys_, d, grid) - 1e-9

    def test_random_two_zero_product(self):
        theta = BlaschkeProduct(np.array([0.35 + 0.1j, -0.2 + 0.45j]))
        sys_ = build_theorem2_measure(theta, 1.0)
        grid = DiskGrid.geometric(32, 256)
        scan = rkt_model_scan(sys_, grid)
        assert scan.delta > 0.0
        wit = witness_function(sys_)
        assert witness_ratio(sys_, wit.function) <= 1e-12

    @pytest.mark.parametrize("zeros", [2, 8, 32])
    @pytest.mark.parametrize("points", [SCAN_BLOCK_ROWS - 1, SCAN_BLOCK_ROWS, SCAN_BLOCK_ROWS + 1, 2 * SCAN_BLOCK_ROWS + 1])
    def test_row_blocks_match_one_pass(self, zeros, points):
        # the scan's formula over every row at once is the reference; two zeros
        # leave one retained point, so every product is a matrix-vector product
        sys_ = build_theorem2_measure(random_blaschke(np.random.default_rng(zeros), zeros), 1.0)
        grid = DiskGrid(np.array([0.3, 0.999]), np.array([points // 2, points - 1 - points // 2]))
        scan = rkt_model_scan(sys_, grid)
        inner = clark_kernel_coords(sys_.basis, scan.zs) @ sys_.xi_coords().conj().T
        assert scan.zs.size == points
        assert np.array_equal(scan.mu_norm_sq, np.sum(np.abs(inner) ** 2, axis=1))
        assert np.array_equal(scan.phi_vals, phi(sys_, scan.zs))

    def test_memory_bounded_on_the_cap_grid(self):
        # the largest theorem2 scan: 128 x 2,048 grid points and 32 zeros.  Over
        # every row at once the scan peaked at 642 MiB of arrays; in row blocks it
        # holds its outputs (about 8 MiB) and a few block-sized temporaries
        sys_ = build_theorem2_measure(random_blaschke(np.random.default_rng(13), 32, rmax=0.7), 1.0)
        grid = DiskGrid.geometric(128, 2048)
        tracemalloc.start()
        try:
            rkt_model_scan(sys_, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def _pixel_component_count(theta, eps=0.5, resolution=512):
    """Reference count (the former one): label the pixels of a resolution^2
    grid over [-1, 1]^2 that lie in the disk with |Theta| < eps."""
    xs = np.linspace(-1.0, 1.0, resolution)
    re, im = np.meshgrid(xs, xs)
    z = re + 1j * im
    inside = np.abs(z) < 1.0
    mask = np.zeros_like(inside)
    mask[inside] = np.abs(theta(z[inside])) < eps
    return int(ndimage.label(mask)[1])


@st.composite
def _sublevel_zeros(draw):
    """Zeros of three kinds: anywhere in |a| < 0.97, clustered in an arc near
    the circle, or drawn with repeats from a small pool."""
    n = draw(st.integers(2, 8))
    kind = draw(st.sampled_from(["spread", "clustered", "repeated"]))
    if kind == "spread":
        pts = st.builds(lambda r, t: r * complex(math.cos(t), math.sin(t)), st.floats(0.0, 0.97), st.floats(0.0, TWO_PI))
        return draw(st.lists(pts, min_size=n, max_size=n))
    if kind == "clustered":
        t0 = draw(st.floats(0.0, TWO_PI))
        pts = st.builds(
            lambda r, t: r * complex(math.cos(t0 + t), math.sin(t0 + t)), st.floats(0.85, 0.97), st.floats(-0.4, 0.4)
        )
        return draw(st.lists(pts, min_size=n, max_size=n))
    pool = draw(st.lists(_disk_points.filter(lambda a: abs(a) < 0.97), min_size=1, max_size=3))
    return [pool[i] for i in draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))]


class TestSublevel:
    def test_configured_products_connected(self):
        assert sublevel_component_count(Z8, 0.5) == (1, math.inf)
        theta = BlaschkeProduct(np.array([0.35 + 0.1j, -0.2 + 0.45j]))
        assert sublevel_component_count(theta, 0.5).count == 1

    @pytest.mark.parametrize("r,eps", [(0.6, 0.5), (0.8, 0.5), (0.7, 0.49), (0.7, 0.5), (0.5, 0.9)])
    def test_symmetric_pair_closed_form(self, r, eps):
        # (z^2 - r^2)/(1 - r^2 z^2) has one critical point, 0, with value -r^2
        got = sublevel_component_count(BlaschkeProduct(np.array([r, -r])), eps)
        assert got.count == (1 if r * r < eps else 2)
        assert got.margin == pytest.approx(abs(math.log(r * r / eps)), rel=1e-12)

    def test_repeated_zero_is_one_component(self):
        # a Moebius map to the power 8: seven critical points at the zero
        theta = BlaschkeProduct(np.full(8, 0.567 - 0.698j))
        assert sublevel_component_count(theta, 0.5) == (1, math.inf)

    @given(zeros=_sublevel_zeros())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_matches_pixel_labelling(self, zeros):
        theta = BlaschkeProduct(np.array(zeros))
        try:
            got = sublevel_component_count(theta, 0.5)
        except PrecisionError:
            # allowed only where distinct zeros, and so the critical points
            # between them, are closer than the input resolves
            a = np.unique(theta.zeros)
            assert np.min(np.abs(a[:, None] - a + np.diag(np.full(a.size, np.inf)))) < 1e-8
            return
        # a critical value near eps pinches two components together, below
        # what the pixel grid resolves
        assume(got.margin > 0.05)
        assert got.count == _pixel_component_count(theta)

    def test_zeros_clustered_near_the_circle(self):
        # np.roots alone finds 2 components here; the reference is 1 at
        # resolution 1024 and from 60-digit roots
        zeros = [0.245 + 0.885j, 0.514 + 0.846j, 0.312 + 0.852j, 0.205 + 0.898j, 0.371 + 0.859j, 0.537 + 0.772j,
                 0.235 + 0.929j, 0.598 + 0.685j, 0.539 + 0.802j, 0.236 + 0.923j, 0.208 + 0.937j, 0.581 + 0.708j]
        assert sublevel_component_count(BlaschkeProduct(np.array(zeros)), 0.5).count == 1

    @pytest.mark.parametrize(
        "start,match",
        [
            (lambda r: r[np.abs(r) > 1.0], "found 0 critical points in the disk, expected 2"),
            (lambda r: np.full(r.size, 0.5 + 0j), "did not converge"),  # on a pole of f
        ],
        ids=["outside-only", "at-a-zero"],
    )
    def test_lost_critical_points_are_refused(self, monkeypatch, start, match):
        roots = np.roots
        monkeypatch.setattr(np, "roots", lambda c: start(roots(c)))
        with pytest.raises(PrecisionError, match=match):
            sublevel_component_count(BlaschkeProduct(np.array([0.5, -0.3j, 0.2 + 0.6j])), 0.5)

    def test_eps_out_of_range(self):
        with pytest.raises(DomainError):
            sublevel_component_count(Z8, 1.0)
