import cmath
import itertools
import json
import math
import os
import random
import re
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rktlab import _kernels, hardy
from rktlab.cli import main
from rktlab.errors import DomainError, EvaluationError, PrecisionWarning
from rktlab.hardy import (
    BASE_PANELS,
    NODES_PER_PANEL,
    _cell_axes,
    _depth_rule,
    _panel_density,
    classify_against_arc,
    hardy_config,
    kernel_norms,
    phi_h,
    phi_h_depths,
    phi_h_limit_profile,
    _graded_edges,
    _nearest_on_arc,
    _peak_attractors,
    random_polynomials,
    reverse_embedding_ratio,
    reverse_embedding_ratios,
    rkt_functional,
    rkt_infimum_scan,
)
from rktlab.measures import (
    Arc,
    AreaDensity,
    BoundaryDensity,
    Measure,
    normalized_arclength,
    upper_half_arclength,
)
from rktlab.numerics import RADIAL_CAP, TWO_PI, DiskGrid, circle_panels, circle_quadrature, gauss_legendre_panel

P_SWEEP = [1.5, 2.0, 3.0, 4.0]


def harmonic_measure(lam, a, b):
    """omega(lam, (a, b)) = arg((e^ib - lam)/(e^ia - lam))/pi - (b - a)/(2 pi),
    the branch in [0, 1] (the formula gives it modulo 2)."""
    w = np.angle((np.exp(1j * b) - lam) / (np.exp(1j * a) - lam)) / math.pi - (b - a) / TWO_PI
    return w + 2.0 if w < -0.5 else w


def kernel_loop(mu, lam, p):
    """integral of |k_lam|^p over the atoms, one scalar term per atom."""
    r, phi = abs(lam), math.atan2(lam.imag, lam.real)
    total = 0.0
    for z, mass in mu.atoms:
        s = math.sin(0.5 * (math.atan2(z.imag, z.real) - phi)) if z else 0.0
        total += mass * ((1.0 - r * abs(z)) ** 2 + 4.0 * r * abs(z) * s * s) ** (-0.5 * p)
    return total


def circle_kernel_sum(thetas, weights, r, phi, p):
    """weights @ |k_lam|^p at the circle nodes thetas, for lam = r e^(i phi)."""
    s = np.sin(0.5 * (thetas - phi))
    d2 = (1.0 - r) ** 2 + 4.0 * r * s * s
    return float(np.dot(weights, d2 ** (-0.5 * p)))


def disk_kernel_sum(rhos, thetas, weights, r, phi, p):
    """weights @ |k_lam|^p over the disk nodes (rhos, thetas), one sum per radius of r at the
    angle phi: the out-of-place expression, a fresh array per operation."""
    s = np.sin(0.5 * (thetas - phi))
    rr = np.multiply.outer(r, rhos)
    d2 = (1.0 - rr) ** 2 + 4.0 * rr * s * s
    return [float(np.dot(np.ravel(weights), v)) for v in np.reshape(d2 ** (-0.5 * p), (len(r), -1))]


def phi_h_kernel_sum(ts, wts, angs, wangs, rho, psi, p):
    """The phi_h integrand at each radial node, integrated over the angles, out of place."""
    r = 1.0 - ts
    radial = wts * (ts * (2.0 - ts)) ** (p - 1.0) * r
    s = np.sin(0.5 * (angs - psi))
    rr = r * rho
    d2 = (1.0 - rr)[:, None] ** 2 + 4.0 * rr[:, None] * (s * s)[None, :]
    return radial * (d2 ** (-0.5 * p) @ wangs)


def reference_cell_rule(r0, r1, a0, a1, phi, scale):
    """Flat nodes (rhos, thetas, weights) of the polar cell's product rule, graded radially
    toward r1 and angularly toward the arc point nearest phi, 8 nodes per panel."""
    r_edges = _graded_edges(r0, r1, ((r1, max(scale, (r1 - r0) / 32.0)),))
    a_edges = _graded_edges(a0, a1, ((_nearest_on_arc(phi, a0, a1), max(scale, min(a1 - a0, math.pi / 16))),))
    rs, wr = gauss_legendre_panel(r_edges[:-1], r_edges[1:], 8)
    ts, wt = gauss_legendre_panel(a_edges[:-1], a_edges[1:], 8)
    return np.repeat(rs, ts.size), np.tile(ts, rs.size), np.repeat(wr * rs, ts.size) * np.tile(wt, rs.size)


def reference_disk_nodes(mu, lam):
    """The atom and area-cell nodes at which rkt_functional evaluates |k_lam|^p."""
    cells = mu.area.cells() if mu.area is not None else ()
    phi = math.atan2(lam.imag, lam.real)
    return len(mu.atoms) + sum(reference_cell_rule(r0, r1, a0, a1, phi, 0.0)[2].size for r0, r1, a0, a1, _ in cells)


@np.errstate(over="ignore", invalid="ignore")  # an inf or nan sum raises EvaluationError below, as in _rkt_points
def reference_rkt(mu, lam, cfg):
    """rkt_functional one point at a time: a circle rule and a circle kernel of its
    own, through the breakpoints, flat polar-cell nodes and one kernel sum per part of mu."""
    r, phi, p = abs(lam), math.atan2(lam.imag, lam.real), cfg.p
    scale = max(0.5 * (1.0 - r), 2.0**-24)
    rule = circle_quadrature(mu.boundary.breakpoints, [(phi, scale)], BASE_PANELS, NODES_PER_PANEL)
    num = 0.0
    if mu.atoms:
        zs, masses = (np.array(part) for part in zip(*mu.atoms))
        num += disk_kernel_sum(np.abs(zs), np.angle(zs), masses, [r], phi, p)[0]
    if mu.boundary.total() > 0.0:
        num += circle_kernel_sum(rule.nodes, rule.weights * mu.boundary.value_at(rule.nodes), r, phi, p)
    for r0, r1, a0, a1, val in mu.area.cells() if mu.area is not None else ():
        num += val * disk_kernel_sum(*reference_cell_rule(r0, r1, a0, a1, phi, 0.0), [r], phi, p)[0]
    norm = circle_kernel_sum(rule.nodes, rule.weights, r, phi, p) / TWO_PI
    if not (math.isfinite(num) and math.isfinite(norm)):
        raise EvaluationError(f"|k_lam|^p overflows at |lam| = {r!r}, p = {p!r}")
    return num / norm


def mixed_measure():
    """Atoms (one at the origin), 5 boundary pieces and 2 x 2 area cells."""
    rng = np.random.default_rng(12)
    zs = [0j] + list(0.95 * np.sqrt(rng.uniform(0, 1, 2)) * np.exp(1j * rng.uniform(0, TWO_PI, 2)))
    return Measure(
        atoms=tuple((complex(z), m) for z, m in zip(zs, rng.uniform(0.05, 0.5, 3))),
        boundary=BoundaryDensity(np.sort(rng.uniform(0.0, TWO_PI, 5)), rng.uniform(0.02, 0.3, 5)),
        area=AreaDensity(np.array([0.0, 0.55, 1.0]), np.array([0.0, 2.2, TWO_PI]), rng.uniform(0.05, 0.5, (2, 2))),
    )


def hp_norm(coeffs, cfg):
    """||f||_p of the polynomial with ascending coefficients coeffs, on a uniform circle rule of its own."""
    rule = circle_quadrature((), (), BASE_PANELS, NODES_PER_PANEL)
    vals = np.abs(np.polyval(np.asarray(coeffs, dtype=complex)[::-1], np.exp(1j * rule.nodes))) ** cfg.p
    return (float(np.dot(rule.weights, vals)) / TWO_PI) ** (1.0 / cfg.p)


def reference_ratios(mu, fs, cfg):
    """The family's reverse-embedding ratios one polynomial at a time, each
    node set evaluated by Horner's rule (np.polyval) without the zero
    high-order coefficients; the norm on the boundary part's rule through the breakpoints."""
    p, quad = cfg.p, circle_quadrature(mu.boundary.breakpoints, (), BASE_PANELS, NODES_PER_PANEL)
    parts = []
    if mu.atoms:
        zs, masses = (np.array(part) for part in zip(*mu.atoms))
        parts.append((zs, masses, 1.0))
    if mu.boundary.total() > 0.0:
        parts.append((np.exp(1j * quad.nodes), quad.weights * mu.boundary.value_at(quad.nodes), 1.0))
    for r0, r1, a0, a1, val in mu.area.cells() if mu.area is not None else ():
        rs, ts, weights = _cell_axes(r0, r1, a0, a1, 0.0, (r1 - r0) / 8.0, nodes=12)
        parts.append((np.outer(rs, np.exp(1j * ts)).ravel(), weights.ravel(), val))
    ratios = []
    for f in fs:
        c = np.trim_zeros(np.asarray(f)[::-1], "f")
        norm = float(np.dot(quad.weights, np.abs(np.polyval(c, np.exp(1j * quad.nodes))) ** p)) / TWO_PI
        num = sum(factor * float(np.dot(w, np.abs(np.polyval(c, zs)) ** p)) for zs, w, factor in parts)
        ratios.append(num / norm)
    return ratios


def phi_h_p2_oracle(z, arc, h):
    """phi_h at p = 2 with the angular integral in closed form,
    integral dtheta / (1 - 2x cos(theta - psi) + x^2) = 2/(1 - x^2) * atan2((1 + x) sin u, (1 - x) cos u)
    with u = (theta - psi)/2, on pieces of the arc cut where theta - psi = pi mod 2 pi, and the
    radial integral of (1 - r^2) r (angular part at x = r|z|) by adaptive quadrature."""
    quad = pytest.importorskip("scipy.integrate").quad
    rho, psi = abs(z), math.atan2(z.imag, z.real)
    a, b = arc.start, arc.start + arc.length
    cuts = psi + math.pi + TWO_PI * np.arange(math.floor((a - psi - math.pi) / TWO_PI), math.ceil((b - psi - math.pi) / TWO_PI) + 1)
    edges = [a] + [c for c in cuts if a < c < b] + [b]
    pieces = [(lo, hi, psi + TWO_PI * round((0.5 * (lo + hi) - psi) / TWO_PI)) for lo, hi in zip(edges[:-1], edges[1:])]

    def radial(r):
        x = r * rho
        ang = sum(
            math.atan2((1.0 + x) * math.sin(0.5 * (hi - c)), (1.0 - x) * math.cos(0.5 * (hi - c)))
            - math.atan2((1.0 + x) * math.sin(0.5 * (lo - c)), (1.0 - x) * math.cos(0.5 * (lo - c)))
            for lo, hi, c in pieces
        )
        return (1.0 - r * r) * r * 2.0 / (1.0 - x * x) * ang

    val, err = quad(radial, 1.0 - h, 1.0, epsabs=0.0, epsrel=1e-13, limit=200)
    assert err <= 1e-12 * abs(val)
    return val / h


def phi_h_riemann(z, arc, h, p, nr=600, na=3000):
    """Brute-force midpoint sum over the window in polar coordinates, summed
    200 radii at a time so the largest grid (2,400 x 12,000) is never held whole."""
    z = complex(z)
    rs = (1.0 - h + (np.arange(nr) + 0.5) * h / nr)[:, None]
    ths = arc.start + (np.arange(na) + 0.5) * arc.length / na
    rho, psi = abs(z), math.atan2(z.imag, z.real)
    s2 = np.sin(0.5 * (ths - psi)) ** 2
    total = 0.0
    for r in np.split(rs, range(200, nr, 200)):
        rr = r * rho
        d2 = (1.0 - rr) ** 2 + 4.0 * rr * s2
        total += float(np.sum((1.0 - r**2) ** (p - 1.0) * d2 ** (-0.5 * p) * r))
    return total * (h / nr) * (arc.length / na) / h


class TestConfig:
    def test_endpoints_rejected(self):
        for p in (1.0, 0.5, math.inf):
            with pytest.raises(DomainError):
                hardy_config(p)


class TestHpNorm:
    def test_constant(self):
        for p in P_SWEEP:
            assert hp_norm([1.0], hardy_config(p)) == pytest.approx(1.0, abs=1e-12)

    def test_monomials_unimodular(self):
        cfg = hardy_config(2.5)
        for k in (1, 3, 10):
            c = np.zeros(k + 1, dtype=complex)
            c[k] = 1.0
            assert hp_norm(c, cfg) == pytest.approx(1.0, abs=1e-12)

    def test_one_plus_z_parseval(self):
        cfg = hardy_config(2.0)
        assert hp_norm([1.0, 1.0], cfg) == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_random_polynomial_parseval(self):
        cfg = hardy_config(2.0)
        for f in random_polynomials(5, 32, seed=123):
            oracle = float(np.linalg.norm(f))
            assert hp_norm(f, cfg) == pytest.approx(oracle, rel=1e-12)


class TestKernelNorm:
    def test_origin(self):
        for p in P_SWEEP:
            assert kernel_norms([0.0], hardy_config(p))[0] == pytest.approx(1.0, abs=1e-12)

    def test_p2_closed_form(self):
        cfg = hardy_config(2.0)
        assert kernel_norms([0.8], cfg)[0] == pytest.approx((1.0 - 0.64) ** -0.5, rel=1e-12)
        for j in range(2, 21):
            lam = (1.0 - 2.0**-j) * np.exp(0.43j)
            exact = (1.0 - abs(lam) ** 2) ** -0.5
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", PrecisionWarning)
                assert kernel_norms([complex(lam)], cfg)[0] == pytest.approx(exact, rel=1e-9)

    def test_p4_closed_form(self):
        # ||k||_4^4 = sum (n+1)^2 x^n = (1+x)/(1-x)^3 with x = |lam|^2
        cfg = hardy_config(4.0)
        for j in range(2, 16):
            lam = 1.0 - 2.0**-j
            x = lam * lam
            exact = ((1.0 + x) / (1.0 - x) ** 3) ** 0.25
            assert kernel_norms([lam], cfg)[0] == pytest.approx(exact, rel=1e-9)

    def test_p4_growth_bracket(self):
        # ||k||_4 / (1-|lam|)^(-1/p') stays in a fixed bracket, p' = 4/3
        cfg = hardy_config(4.0)
        ratios = []
        for j in range(4, 13):
            lam = 1.0 - 2.0**-j
            ratios.append(kernel_norms([lam], cfg)[0] * (1.0 - lam) ** 0.75)
        assert 0.70 <= min(ratios) and max(ratios) <= 1.001

    def test_warning_beyond_cap(self):
        cfg = hardy_config(2.0)
        with pytest.warns(PrecisionWarning):
            kernel_norms([1.0 - 2.0**-22], cfg)

    def test_point_just_below_real_axis(self):
        # its peak angle -2e-17 wraps to 0, not to an edge at 2*pi that
        # would leave an empty panel
        assert kernel_norms([0.5 - 1e-17j], hardy_config(2.0))[0] == pytest.approx(0.75**-0.5, rel=1e-12)

    @pytest.mark.parametrize("p", P_SWEEP)
    def test_norms_equal_the_point_by_point_loop(self, p):
        # one circle-sum call for every point: two points share a ray (angle 0), one sits
        # just below the real axis; each norm is that of a rule and kernel of its own
        cfg = hardy_config(p)
        lams = [0j, 0.5 + 0j, 0.6j, complex(0.9 * np.exp(1.0j)), 1.0 - 2.0**-16 + 0j, 0.5 - 1e-17j, -0.3 - 0.2j]
        want = []
        for lam in lams:
            r, phi = abs(lam), math.atan2(lam.imag, lam.real)
            rule = circle_quadrature((), [(phi, max(0.5 * (1.0 - r), 2.0**-24))], BASE_PANELS, NODES_PER_PANEL)
            want.append((circle_kernel_sum(rule.nodes, rule.weights, r, phi, p) / TWO_PI) ** (1.0 / p))
        assert kernel_norms(lams, cfg) == want == [kernel_norms([lam], cfg)[0] for lam in lams]

    def test_norms_warn_once_per_point_beyond_the_cap(self):
        lams = [0.5, 1.0 - 2.0**-22, 0.3j, -(1.0 - 2.0**-24), RADIAL_CAP]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            kernel_norms(lams, hardy_config(2.0))
        assert [w.category for w in caught] == [PrecisionWarning, PrecisionWarning]
        assert [str(w.message).split(" ")[0] for w in caught] == [f"1-|lam|={2.0**-22:.3e}", f"1-|lam|={2.0**-24:.3e}"]


class TestRktFunctional:
    def test_normalized_arclength_p2(self):
        cfg = hardy_config(2.0)
        mu = normalized_arclength()
        for lam in (0.0, 0.5 + 0.3j, 0.97 * np.exp(2.0j), (1.0 - 2.0**-18) * np.exp(-1.1j)):
            assert rkt_functional(mu, complex(lam), cfg) == pytest.approx(1.0, abs=1e-9)

    def test_atom_at_origin(self):
        mu = Measure(atoms=((0.0j, 1.0),))
        for p in P_SWEEP:
            assert rkt_functional(mu, 0.0, hardy_config(p)) == pytest.approx(1.0, abs=1e-12)

    def test_half_circle_decay(self):
        cfg = hardy_config(2.0)
        mu = upper_half_arclength()
        vals = [rkt_functional(mu, (1.0 - 2.0**-j) * np.exp(-1j * math.pi / 2), cfg) for j in (4, 8, 12, 16)]
        assert all(v2 < v1 for v1, v2 in zip(vals, vals[1:]))
        assert vals[-1] < 1e-4

    def test_area_part_against_riemann(self):
        cfg = hardy_config(2.0)
        mu = Measure(area=AreaDensity.constant(1.0))
        lam = 0.6 * np.exp(0.8j)
        val = rkt_functional(mu, complex(lam), cfg)
        nr, na = 2000, 4000
        rs = (np.arange(nr) + 0.5) / nr
        ts = (np.arange(na) + 0.5) * TWO_PI / na
        d2 = (1.0 - abs(lam) * rs[:, None]) ** 2 + 4.0 * abs(lam) * rs[:, None] * np.sin(
            0.5 * (ts[None, :] - 0.8)
        ) ** 2
        num = float(np.sum(d2**-1.0 * rs[:, None])) * (1.0 / nr) * (TWO_PI / na)
        oracle = num * (1.0 - abs(lam) ** 2)
        assert val == pytest.approx(oracle, rel=1e-5)

    def test_scaling(self):
        cfg = hardy_config(2.0)
        mu = normalized_arclength(scale=0.3)
        assert rkt_functional(mu, 0.4 + 0.2j, cfg) == pytest.approx(0.3, abs=1e-9)

    @pytest.mark.parametrize("pieces", range(1, 8))
    def test_p2_harmonic_measure_oracle(self, pieces):
        # at p = 2, |K_lam|^2 d(theta)/(2 pi) is the Poisson kernel, so a density c_i
        # on the arcs I_i gives sum 2 pi c_i omega(lam, I_i) (omega = 1 for one piece)
        cfg = hardy_config(2.0)
        for seed in range(6):
            rng = np.random.default_rng(100 * pieces + seed)
            bp = np.sort(rng.uniform(0.0, TWO_PI, pieces))
            vals = rng.uniform(0.05, 1.0, pieces)
            mu = Measure(boundary=BoundaryDensity(bp, vals))
            edges = np.append(bp, bp[0] + TWO_PI)
            for j in range(21):
                lam = 0j if j == 0 else (1.0 - 2.0**-j) * complex(np.exp(1j * rng.uniform(0.0, TWO_PI)))
                omegas = [harmonic_measure(lam, a, b) for a, b in zip(edges[:-1], edges[1:])] if pieces > 1 else [1.0]
                exact = TWO_PI * float(np.dot(vals, omegas))
                assert rkt_functional(mu, lam, cfg) == pytest.approx(exact, rel=1e-12), (bp, lam)

    @pytest.mark.parametrize("p", P_SWEEP)
    def test_atoms_against_scalar_loop(self, p):
        cfg = hardy_config(p)
        rng = np.random.default_rng(5)
        zs = [0j, 1j] + list(0.99 * np.sqrt(rng.uniform(0, 1, 6)) * np.exp(1j * rng.uniform(0, TWO_PI, 6)))
        mu = Measure(atoms=tuple((complex(z), m) for z, m in zip(zs, rng.uniform(0.1, 2.0, len(zs)))))
        for lam in (0j, 0.5 - 0.2j, 0.999 * np.exp(2.5j)):
            lam = complex(lam)
            want = kernel_loop(mu, lam, p) / kernel_norms([lam], cfg)[0] ** p
            assert rkt_functional(mu, lam, cfg) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("mu", [normalized_arclength(), Measure(atoms=((0.5 + 0j, 1.0),))], ids=["inf-inf", "finite-inf"])
    def test_overflow_raises(self, mu):
        # |k_lam|^300 overflows in the normaliser, and on the circle in the integral
        # too: the ratio would be NaN, or 0 for the atom that stays finite
        with pytest.raises(EvaluationError):
            rkt_functional(mu, 1.0 - 2.0**-16, hardy_config(300.0))


class TestRktScan:
    def test_normalization_constant_over_grid(self):
        cfg = hardy_config(2.0)
        scan = rkt_infimum_scan(normalized_arclength(), cfg, DiskGrid.dyadic(8, 16))
        assert scan.value == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(scan.rows[:, 2], 1.0, atol=1e-9)

    def test_half_circle_deepening(self):
        cfg = hardy_config(2.0)
        mu = upper_half_arclength()
        values = []
        for levels in (4, 8, 12, 16):
            scan = rkt_infimum_scan(mu, cfg, DiskGrid.dyadic(levels, 32))
            values.append(scan.value)
            assert math.pi < math.atan2(scan.witness.imag, scan.witness.real) % TWO_PI < TWO_PI
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 0.01

    @pytest.mark.parametrize("lam", [1.0, -1j, 1.5 * np.exp(2j), 1.0 - 1e-17, complex(math.nan, 0.0), complex(0.0, math.inf), complex(-math.inf, math.nan)])
    @pytest.mark.parametrize("entry", ["kernel_norm", "rkt_functional", "rkt_infimum_scan"])
    def test_kernel_point_outside_the_open_disk_refused(self, entry, lam):
        # |lam| >= 1 (1 - 1e-17 rounds to 1) or a non-finite part; the scan gets it
        # from a grid that skips DiskGrid's radius check
        cfg, mu = hardy_config(2.0), mixed_measure()
        with pytest.raises(DomainError):
            if entry == "kernel_norm":
                kernel_norms([complex(lam)], cfg)
            elif entry == "rkt_functional":
                rkt_functional(mu, complex(lam), cfg)
            else:
                rkt_infimum_scan(mu, cfg, SimpleNamespace(points=lambda: np.array([lam], dtype=complex), angles_per_ring=np.array([1])))


class TestRktBatches:
    # rings of 1, 7 and 64 angles: 80 points on 74 rays (angle floats); a rule has
    # at least 64 panels of 16 nodes, so at 600 nodes per block every rule is a
    # block of its own and a bisection takes whole rays of at most 600 // 64 = 9
    # points (a longer ray alone), and at 2^14 a block ends inside a ray
    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
    def test_scan_bit_identical_to_point_by_point(self, monkeypatch, p):
        cfg, mu = hardy_config(p), mixed_measure()
        grid = DiskGrid(np.array([0.3, 0.75, 0.97, 1.0 - 2.0**-14]), np.array([7, 1, 64, 7]))
        lams = [0j, *grid.points()]
        want = [reference_rkt(mu, lam, cfg) for lam in lams]
        assert [rkt_functional(mu, lam, cfg) for lam in lams] == want
        nodes = sum(
            circle_quadrature(mu.boundary.breakpoints, [(math.atan2(lam.imag, lam.real), max(0.5 * (1.0 - abs(lam)), 2.0**-24))], BASE_PANELS, NODES_PER_PANEL).nodes.size
            for lam in lams
        )
        disk_nodes = sum(reference_disk_nodes(mu, lam) for lam in lams)
        for batch in (hardy.BATCH_NODES, 600):
            monkeypatch.setattr(hardy, "BATCH_NODES", batch)
            scan = rkt_infimum_scan(mu, cfg, grid)
            assert scan.rows[:, 2].tolist() == want and (scan.rule_builds, scan.nodes, scan.shared_nodes) == (74, nodes, 92_320)
            assert scan.disk_nodes == disk_nodes

    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
    def test_two_cpus_give_the_one_cpu_scan(self, affinity, p):
        # 321 points, past the 256 from which the rays go in two halves
        cfg, mu, grid = hardy_config(p), mixed_measure(), DiskGrid.dyadic(5, 64)
        scans = []
        for cpus in ({0}, {0, 1}):
            affinity.cpus = cpus
            scans.append(rkt_infimum_scan(mu, cfg, grid))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert affinity.cpus == {0, 1} and affinity.pins == [{0}, {0, 1}]
        one, two = scans
        assert (one.processes, two.processes) == (1, 2) and two.rows.tobytes() == one.rows.tobytes()
        assert two._replace(rows=None, processes=1) == one._replace(rows=None)

    def test_overflow_names_first_point_in_scan_order(self):
        cfg, mu, grid = hardy_config(300.0), mixed_measure(), DiskGrid.dyadic(8, 7)
        lams = [0j] + [complex(z) for z in grid.points()]
        with pytest.raises(EvaluationError) as want:
            for lam in lams:
                reference_rkt(mu, lam, cfg)
        first = re.search(r"\|lam\| = (\S+),", str(want.value)).group(1)
        assert float(first) > 0.5  # not the origin or the first ring
        with pytest.raises(EvaluationError, match=re.escape(f"|lam| = {first},")):
            rkt_infimum_scan(mu, cfg, grid)

    EDGE_BREAKPOINTS = [
        [0.0, 1.0, 3.0],
        [0.0, 2.0, TWO_PI - 1e-9],
        [0.5, TWO_PI - 1e-15],
        [float(np.nextafter(TWO_PI, 0.0))],
        [1e-16, 3.0],
        [0.0, TWO_PI / BASE_PANELS + 1e-15, 2.0, TWO_PI - TWO_PI / BASE_PANELS - 5e-15],
    ]

    @pytest.mark.parametrize("bp", EDGE_BREAKPOINTS)
    def test_panel_density_equals_value_at_every_node(self, bp):
        # peaks on, beside and between the breakpoints, at 0 and just below it,
        # at scales down to below MIN_PANEL_WIDTH
        density = BoundaryDensity(np.array(bp), np.arange(1.0, len(bp) + 1.0))
        rng = np.random.default_rng(len(bp))
        angles = np.concatenate([bp, np.add(bp, 1e-12), np.subtract(bp, 1e-9), [0.0, -1e-17, TWO_PI - 1e-12], rng.uniform(0.0, TWO_PI, 8)])
        scales = np.geomspace(2.0**-30, 0.5, angles.size)
        lo, hi, _, _ = circle_panels(density.breakpoints, angles[:, None], scales[:, None], BASE_PANELS)
        nodes = gauss_legendre_panel(lo, hi, NODES_PER_PANEL)[0]
        assert np.array_equal(_panel_density(density, nodes), density.value_at(nodes))

    def test_panel_density_in_a_panel_one_ulp_wide(self):
        # a breakpoint one ulp below 2*pi leaves the panel [2*pi - ulp, 2*pi]; its later
        # nodes round to 2*pi, where a lookup per node wraps to the first piece
        density = BoundaryDensity(np.array([0.0, 1.0, TWO_PI - 1e-15]), np.array([1.0, 2.0, 3.0]))
        lo, hi, _, _ = circle_panels(density.breakpoints, np.zeros((1, 0)), np.zeros((1, 0)), BASE_PANELS)
        nodes = gauss_legendre_panel(lo, hi, NODES_PER_PANEL)[0]
        assert lo[-1] == np.nextafter(TWO_PI, 0.0)
        assert 1.0 in density.value_at(nodes[-NODES_PER_PANEL:])
        assert np.array_equal(_panel_density(density, nodes), np.repeat(density.value_at(lo), NODES_PER_PANEL))

    @pytest.mark.parametrize("bp", EDGE_BREAKPOINTS)
    def test_scan_bit_identical_with_edge_breakpoints(self, bp):
        cfg = hardy_config(2.0)
        mu = Measure(boundary=BoundaryDensity(np.array(bp), np.linspace(0.1, 0.9, len(bp))))
        scan = rkt_infimum_scan(mu, cfg, DiskGrid.dyadic(5, 7))
        lams = [complex(re, im) for re, im in scan.rows[:, :2]]
        assert scan.rows[:, 2].tolist() == [reference_rkt(mu, lam, cfg) for lam in lams]

    def test_work_counts(self, monkeypatch, affinity):
        # the shipped C2 scan bisects one tree per ray, 100 angle floats: the origin's,
        # the 64 grid angles and 35 more where atan2 rounds differently on some rings;
        # calls take whole rays of at most 256 points, and 13,179 distinct panels
        # serve 107,514 rule panels; the C1 family builds the breakpoint rule once.
        # One CPU keeps every call in this process, where the counters see it
        affinity.cpus = {0}
        doc = json.loads((Path(__file__).resolve().parents[1] / "configs" / "rkt_hardy.json").read_text())
        cfg, mu = hardy_config(doc["p"]), normalized_arclength()
        levels, angles = doc["grid"]["levels"], doc["grid"]["angles"]
        sets, rules = [], []
        bisect = hardy.circle_panels
        monkeypatch.setattr(hardy, "circle_panels", lambda bp, a, *args: sets.append(len(a)) or bisect(bp, a, *args))
        quadrature = hardy.circle_quadrature
        monkeypatch.setattr(hardy, "circle_quadrature", lambda *a, **k: rules.append(1) or quadrature(*a, **k))
        scan = rkt_infimum_scan(mu, cfg, DiskGrid.dyadic(levels, angles))
        assert len(sets) == 6 and max(sets) <= 256 and sum(sets) == 1281 and not rules
        assert (scan.rule_builds, scan.nodes, scan.shared_nodes, scan.disk_nodes) == (100, 107_514 * NODES_PER_PANEL, 13_179 * NODES_PER_PANEL, 0)
        family = random_polynomials(doc["polynomials"]["count"], doc["polynomials"]["max_degree"])
        reverse_embedding_ratios(mu, family, cfg)
        assert len(rules) == 1

    def test_one_cell_rule_per_ray(self, monkeypatch, affinity):
        # each of the 4 cells of mixed_measure builds one product rule per ray, 74
        # angle floats on this grid, at both block sizes; one CPU keeps every call
        # in this process, where the counter sees it
        affinity.cpus = {0}
        grid = DiskGrid(np.array([0.3, 0.75, 0.97, 1.0 - 2.0**-14]), np.array([7, 1, 64, 7]))
        calls, axes = [], hardy._cell_axes
        monkeypatch.setattr(hardy, "_cell_axes", lambda *args: calls.append(args) or axes(*args))
        for batch in (hardy.BATCH_NODES, 600):
            monkeypatch.setattr(hardy, "BATCH_NODES", batch)
            calls.clear()
            rkt_infimum_scan(mixed_measure(), hardy_config(4.0), grid)
            assert len(calls) == 4 * 74 and len(set(calls)) == 4 * 74


@given(
    r0=st.floats(0.0, 1.0),
    r1=st.floats(0.0, 1.0),
    a0=st.floats(0.0, TWO_PI),
    length=st.floats(1e-9, TWO_PI),
    phi=st.floats(-math.pi, math.pi),
    scale=st.floats(2.0**-24, 1.0),
)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_ray_cell_rule_refines_the_point_rule(r0, r1, a0, length, phi, scale):
    # the scan's cell rule (scale 0) against the rule of a kernel point whose peak
    # scale was the floor, max(scale, cap) on each axis: every edge of the old rule
    # is an edge of the new one, on both axes
    assume(r0 < r1)
    a1 = a0 + length
    asked = []
    with pytest.MonkeyPatch.context() as mp:
        graded = hardy._graded_rule
        mp.setattr(hardy, "_graded_rule", lambda lo, hi, attracts, nodes: asked.append((lo, hi, attracts)) or graded(lo, hi, attracts, nodes))
        _cell_axes(r0, r1, a0, a1, phi, 0.0)
    radial, angular = (set(_graded_edges(*args).tolist()) for args in asked)
    old_radial = _graded_edges(r0, r1, ((r1, max(scale, (r1 - r0) / 32.0)),))
    old_angular = _graded_edges(a0, a1, ((_nearest_on_arc(phi, a0, a1), max(scale, min(a1 - a0, math.pi / 16))),))
    assert set(old_radial.tolist()) <= radial and set(old_angular.tolist()) <= angular


class TestKernelsBitIdentical:
    # the disk and phi_h kernels build d2 in one buffer and finish it in place;
    # each sum must equal the out-of-place expression's bit for bit
    RADII = np.array([0.0, 0.3, 0.9, 0.999, 1.0 - 2.0**-14, RADIAL_CAP])

    @pytest.mark.parametrize("p", P_SWEEP)
    def test_disk_kernel_on_cell_grids(self, p):
        for r0, r1, a0, a1 in ((0.0, 0.55, 0.0, 2.2), (0.55, 1.0, 2.2, TWO_PI), (0.5, 1.0, 0.0, TWO_PI)):
            for phi, scale in itertools.product((0.0, 1.0, 3.0, -0.3), (0.25, 2.0**-21)):
                rhos, thetas, weights = _cell_axes(r0, r1, a0, a1, phi, scale)  # a column of radii by a row of angles
                assert rhos.shape[1] == 1 and thetas.ndim == 1
                for r in (self.RADII, self.RADII[-1:]):
                    got = _kernels.kernel_pow_disk_sum(rhos, thetas, weights, r, phi, p)
                    assert np.array_equal(got, disk_kernel_sum(rhos, thetas, weights, r, phi, p))

    @pytest.mark.parametrize("p", P_SWEEP)
    def test_disk_kernel_on_atoms(self, p):
        rng = np.random.default_rng(7)
        zs = np.concatenate([[0j], 0.999 * np.sqrt(rng.uniform(0.0, 1.0, 40)) * np.exp(1j * rng.uniform(-math.pi, math.pi, 40))])
        masses = rng.uniform(0.01, 1.0, zs.size)
        for phi in (0.0, 2.5, -1.0):
            got = _kernels.kernel_pow_disk_sum(np.abs(zs), np.angle(zs), masses, self.RADII, phi, p)
            assert np.array_equal(got, disk_kernel_sum(np.abs(zs), np.angle(zs), masses, self.RADII, phi, p))

    @pytest.mark.parametrize("p", P_SWEEP)
    def test_phi_h_kernel(self, p):
        ts, wts, _ = _depth_rule((2.0**-3, 2.0**-10), 8)
        for rho, psi in itertools.product((0.0, 0.5, 1.0 - 2.0**-14, RADIAL_CAP, 1.0), (0.0, 1.0, -2.0)):
            angs, wangs = hardy._graded_rule(0.0, 2.0, _peak_attractors(psi, 0.0, 2.0, max(0.25 * (1.0 - rho), 2.0**-26)), 8)
            got = _kernels.phi_h_window_sum(ts, wts, angs, wangs, rho, psi, p)
            assert np.array_equal(got, phi_h_kernel_sum(ts, wts, angs, wangs, rho, psi, p))

    def test_phi_h_kernel_on_the_shipped_config(self, tmp_path, monkeypatch):
        calls, kernel = [], _kernels.phi_h_window_sum
        monkeypatch.setattr(_kernels, "phi_h_window_sum", lambda *args: calls.append(args) or kernel(*args))
        assert main(["run", "--config", str(Path(__file__).resolve().parents[1] / "configs" / "phi_h.json"), "--out", str(tmp_path)]) == 0
        assert len(calls) == 163
        for args in calls:
            assert np.array_equal(kernel(*args), phi_h_kernel_sum(*args))


class TestReverseEmbedding:
    def test_normalized_arclength_is_isometry(self):
        mu = normalized_arclength()
        for p in P_SWEEP:
            cfg = hardy_config(p)
            for f in random_polynomials(10, 24, seed=42):
                assert reverse_embedding_ratio(mu, f, cfg) == pytest.approx(1.0, abs=1e-9)

    def test_density_floor_scales_by_two_pi(self):
        # boundary density >= c (radians) forces ratio >= 2*pi*c
        c = 0.05
        mu = Measure(boundary=BoundaryDensity(np.array([0.0, 1.0]), np.array([3 * c, c])))
        cfg = hardy_config(2.0)
        for f in random_polynomials(20, 16, seed=7):
            assert reverse_embedding_ratio(mu, f, cfg) >= TWO_PI * c - 1e-9

    @pytest.mark.parametrize("p", P_SWEEP)
    def test_split_constant_density_gives_two_pi_c(self, p):
        # a constant density c cut at seeded breakpoints is still c, so every C1 and C2
        # ratio is 2*pi*c: each takes its norm on the rule of its boundary integral
        c, cfg, rng = 0.2, hardy_config(p), random.Random(25)
        family = random_polynomials(50, 32, seed=11)
        for _ in range(3):
            mu = Measure(boundary=BoundaryDensity(np.array(sorted(rng.uniform(0.0, TWO_PI) for _ in range(5))), np.full(5, c)))
            assert reverse_embedding_ratios(mu, family, cfg) == pytest.approx([TWO_PI * c] * len(family), rel=1e-13, abs=0.0)
            scan = rkt_infimum_scan(mu, cfg, DiskGrid.dyadic(8, 16))
            assert scan.rows[:, 2].tolist() == pytest.approx([TWO_PI * c] * len(scan.rows), rel=1e-13, abs=0.0)

    def test_vanishing_polynomial_kills_atomic_measure(self):
        pts = [0.6, -0.3 + 0.4j, 0.2 - 0.7j]
        mu = Measure(atoms=tuple((z, 1.0) for z in pts))
        f = np.poly(pts)[::-1]  # prod (z - xi), ascending
        cfg = hardy_config(2.0)
        assert reverse_embedding_ratio(mu, f, cfg) <= 1e-25

    def test_atoms_against_scalar_loop(self):
        rng = np.random.default_rng(9)
        zs = 0.95 * np.sqrt(rng.uniform(0, 1, 7)) * np.exp(1j * rng.uniform(0, TWO_PI, 7))
        masses = rng.uniform(0.1, 2.0, 7)
        mu = Measure(atoms=tuple(zip(zs.tolist(), masses.tolist())))
        for p in P_SWEEP:
            cfg = hardy_config(p)
            for f in random_polynomials(5, 12, seed=3):
                want = sum(m * abs(np.polyval(f[::-1], z)) ** p for z, m in mu.atoms) / hp_norm(f, cfg) ** p
                assert reverse_embedding_ratio(mu, f, cfg) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("p", P_SWEEP)
    def test_family_against_polyval_loop(self, p):
        # atoms (one at the origin), 5 breakpoints and 2 x 2 area cells
        mu, cfg = mixed_measure(), hardy_config(p)
        family = random_polynomials(40, 32, seed=int(10 * p))
        assert reverse_embedding_ratios(mu, family, cfg) == pytest.approx(reference_ratios(mu, family, cfg), rel=1e-13)

    @pytest.mark.parametrize("batch", [hardy.BATCH_NODES, 600])
    def test_mixed_degrees_across_blocks(self, monkeypatch, batch):
        # degrees 0..40 in one family, zero-padded to degree 40; at BATCH_NODES = 2^14
        # a column block of the circle holds 41 functions, at 600 it holds 42 and a
        # node block 14 nodes, so the 120 functions span several blocks either way
        monkeypatch.setattr(hardy, "BATCH_NODES", batch)
        rng = np.random.default_rng(17)
        family = np.zeros((120, 41), dtype=complex)
        for row, d in zip(family, (7 * np.arange(120)) % 41):
            row[: d + 1] = rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)
        mu, cfg = mixed_measure(), hardy_config(3.0)
        assert reverse_embedding_ratios(mu, family, cfg) == pytest.approx(reference_ratios(mu, family, cfg), rel=1e-13)

    def test_first_failure_in_family_order(self):
        # good is finite at p = 2, and |good|^300 overflows on the circle
        mu, good = normalized_arclength(), random_polynomials(1, 32, seed=1)[0]

        def constant(c):  # padded to good's 33 coefficients
            return np.concatenate([[c], np.zeros(32)])

        with pytest.raises(DomainError, match="zero function"):
            reverse_embedding_ratios(mu, [good, constant(0.0)], hardy_config(2.0))
        # |1e-300|^2 underflows at every node
        with pytest.raises(DomainError, match="zero H\\^p norm"):
            reverse_embedding_ratios(mu, [good, constant(1e-300)], hardy_config(2.0))
        with pytest.raises(EvaluationError, match="integral inf, "):
            reverse_embedding_ratios(mu, [good, constant(0.0)], hardy_config(300.0))
        with pytest.raises(DomainError, match="zero function"):
            reverse_embedding_ratios(mu, [constant(0.0), good], hardy_config(300.0))

    def test_overflow_raises(self):
        # |f|^300 overflows on the circle: the ratio would be inf/inf
        with pytest.raises(EvaluationError):
            reverse_embedding_ratio(normalized_arclength(), random_polynomials(1, 32, seed=1)[0], hardy_config(300.0))

    def test_zero_function_rejected(self):
        with pytest.raises(DomainError):
            reverse_embedding_ratio(normalized_arclength(), [0.0], hardy_config(2.0))

    @pytest.mark.parametrize("bad", [[1.0, math.nan], [math.inf], [[1.0]]], ids=["nan", "inf", "not-1-d"])
    def test_coefficients_must_be_finite_rows(self, bad):
        with pytest.raises(DomainError, match="finite rows"):
            reverse_embedding_ratio(normalized_arclength(), bad, hardy_config(2.0))


class TestRandomPolynomials:
    @pytest.mark.parametrize("count,max_degree", [(1, 0), (200, 32), (1000, 256)])
    def test_one_draw_matches_the_loop(self, count, max_degree):
        # the draw order of a loop per coefficient (modulus, then angle): the
        # bytes of every c1_min_ratio depend on it
        rng = random.Random(hardy.DEFAULT_SEED)
        loop = [[cmath.rect(math.sqrt(-math.log1p(-rng.random())), TWO_PI * rng.random()) for _ in range(max_degree + 1)] for _ in range(count)]
        family = random_polynomials(count, max_degree)
        assert family.shape == (count, max_degree + 1)
        assert np.allclose(family, loop, rtol=0.0, atol=1e-15)
        if family.size > 10**5:  # a standard complex Gaussian: mean 0, E|c|^2 = 1
            assert abs(family.mean()) < 0.01 and abs(np.mean(np.abs(family) ** 2) - 1.0) < 0.01


class TestPhiH:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_against_riemann_oracle(self, p):
        arc = Arc(0.0, 0.5)
        cfg = hardy_config(p)
        cases = [
            (complex(np.exp(1j * math.pi)), 2.0**-3),
            (0.4 + 0.2j, 2.0**-4),
        ]
        for z, h in cases:
            mine = phi_h(z, arc, h, cfg)
            ref = phi_h_riemann(z, arc, h, p)
            assert mine == pytest.approx(ref, rel=2e-4)

    @pytest.mark.parametrize("exponent", [3, 6, 10])
    def test_p2_closed_form_oracle(self, exponent):
        # interior points and boundary points on and off the arc, on arcs through
        # angle 0 and the whole circle; the largest deviation, 3.3e-7, is at -0.9j on
        # the whole circle, and on the arc at z = 1 it is 8.5e-8 at h = 2^-10
        cfg, h = hardy_config(2.0), 2.0**-exponent
        for arc in (Arc(0.0, 0.5), Arc(3.0, 2.5), Arc(1.0, TWO_PI)):
            for z in (0.0, 0.4 + 0.2j, -0.9j, 1.0, complex(np.exp(0.3j)), complex(np.exp(-0.2j)), complex(np.exp(2.5j))):
                z = complex(z)
                assert phi_h(z, arc, h, cfg) == pytest.approx(phi_h_p2_oracle(z, arc, h), rel=1e-6), (arc, z)

    @pytest.mark.parametrize("exponent,rel", [(3, 1e-8), (6, 1e-8), (10, 1e-7)])
    def test_periodic_image_of_the_peak(self, exponent, rel):
        # e^{4i} lies 0.14 rad inside the end of Arc(1, 2*pi) that faces its other
        # lift; graded toward one lift only, the rule was off by 6.4e-4 at h = 2^-3.
        # What is left at 2^-10 (6.7e-8) is the on-arc error at the peak itself,
        # 8.5e-8 at z = 1 on Arc(0, 0.5)
        arc, z, h = Arc(1.0, TWO_PI), complex(np.exp(4j)), 2.0**-exponent
        assert phi_h(z, arc, h, hardy_config(2.0)) == pytest.approx(phi_h_p2_oracle(z, arc, h), rel=rel)

    def test_short_arcs_grade_toward_one_point(self):
        # an image of the peak reaches an end only on arcs longer than 2*pi/3
        for length in (0.5, 2.0):
            lo = Arc(0.0, length).start
            for psi in np.linspace(-math.pi, math.pi, 721):
                assert _peak_attractors(psi, lo, lo + length, 1e-6) == ((_nearest_on_arc(psi, lo, lo + length), 1e-6),)
        lo = Arc(1.0, TWO_PI).start
        got = [x for pair in _peak_attractors(4.0 - TWO_PI, lo, lo + TWO_PI, 1e-6) for x in pair]
        assert got == pytest.approx([4.0 + TWO_PI, 1e-6, lo, 0.5 * (lo - 4.0)], rel=1e-12)

    def test_on_arc_against_refined_riemann(self):
        # corner-singular case: the graded rule must beat the midpoint sum
        arc = Arc(0.0, 0.5)
        cfg = hardy_config(2.0)
        v = phi_h(1.0 + 0.0j, arc, 2.0**-3, cfg)
        coarse = phi_h_riemann(1.0, arc, 2.0**-3, 2.0, nr=1200, na=6000)
        fine = phi_h_riemann(1.0, arc, 2.0**-3, 2.0, nr=2400, na=12000)
        # Riemann drifts toward the graded value as it refines
        assert abs(fine - v) < abs(coarse - v)
        assert v == pytest.approx(fine, rel=5e-4)

    @pytest.mark.parametrize("p", P_SWEEP)
    def test_off_arc_decay_rate(self, p):
        arc = Arc(0.0, 0.5)
        cfg = hardy_config(p)
        hs = np.array([2.0**-e for e in range(3, 9)])
        recs = phi_h_limit_profile(arc, hs, [complex(np.exp(1j * math.pi))], cfg)
        assert recs[0].kind == "off_arc"
        assert recs[0].exponent >= p - 1.0 - 0.1

    def test_on_arc_bracket(self):
        arc = Arc(0.0, 0.5)
        cfg = hardy_config(2.0)
        hs = np.array([2.0**-e for e in range(3, 11)])
        recs = phi_h_limit_profile(arc, hs, [1.0 + 0.0j], cfg)
        lo, hi = recs[0].bracket
        assert lo > 0.0 and hi / lo < 50.0

    def test_endpoint_flagged(self):
        arc = Arc(0.0, 0.5)
        cfg = hardy_config(2.0)
        recs = phi_h_limit_profile(
            arc, np.array([0.125, 0.0625]), [complex(np.exp(1j * 0.25))], cfg
        )
        assert recs[0].kind == "endpoint"
        assert recs[0].values.size == 0

    def test_interior_disk_point_is_off_arc(self):
        arc = Arc(0.0, 0.5)
        assert classify_against_arc(0.5 + 0.0j, arc) == "off_arc"
        assert classify_against_arc(complex(np.exp(1j * 0.1)), arc) == "interior"

    def test_uniform_bound_in_h(self):
        # frozen regression: grid sup over z and h stayed below 6.3 (p = 2)
        arc = Arc(0.0, 0.5)
        cfg = hardy_config(2.0)
        hs = [2.0**-e for e in range(3, 11)]
        zs = list(DiskGrid.geometric(4, 12, min_gap=2.0**-10).points())
        zs += [complex(np.exp(1j * t)) for t in np.linspace(-0.3, 0.3, 9)]
        sup = max(phi_h(complex(z), arc, h, cfg) for z in zs for h in hs)
        assert sup <= 7.0

    def test_depth_validation(self):
        arc = Arc(0.0, 0.5)
        cfg = hardy_config(2.0)
        with pytest.raises(DomainError):
            phi_h(0.0, arc, 0.6, cfg)  # h > |I|
        with pytest.raises(DomainError):
            phi_h(0.0, arc, 2.0**-20, cfg)  # below resolution cap


class TestPhiHDepths:
    # interior, on-arc, off-arc (on the circle), the origin and just inside the arc
    ZS = [0.4 + 0.2j, 1.0 + 0.0j, complex(np.exp(0.2j)), complex(np.exp(1j * math.pi)), 0.0j, 0.999 * np.exp(0.1j)]
    DYADIC = [2.0**-e for e in range(3, 11)]

    @pytest.mark.parametrize(
        "hs",
        [DYADIC, [0.3, 0.07, 0.011, 0.0009], [2.0**-e for e in range(9, 17)], [2.0**-5, 2.0**-3, 2.0**-5, 2.0**-4, 2.0**-3]],
        ids=["dyadic", "non-dyadic", "below-2^-10", "unsorted-repeated"],
    )
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_equals_one_depth_at_a_time(self, hs, p):
        arc, cfg = Arc(0.0, 0.5), hardy_config(p)
        for z in self.ZS:
            got = phi_h_depths(complex(z), arc, hs, cfg)
            assert got == pytest.approx([phi_h(complex(z), arc, h, cfg) for h in hs], rel=1e-14, abs=0.0), z
            assert [got[hs.index(h)] for h in hs] == got.tolist()  # repeated depths, the same bits

    def test_dyadic_depths_share_panels(self):
        # 2^-3 ... 2^-10: 27 dyadic panels down to 2^-30 and one [0, h 2^-20] per depth
        ts, wts, member = _depth_rule(tuple(self.DYADIC), 8)
        assert member.shape == (8, 35) and ts.size == wts.size == 35 * 8
        assert member.sum(axis=1).tolist() == [21.0] * 8

    def test_non_dyadic_depths_share_none(self):
        _, _, member = _depth_rule((0.3, 0.07, 0.011), 8)
        assert member.shape == (3, 63) and member.sum(axis=0).tolist() == [1.0] * 63

    def test_radial_floor_below_2_to_the_minus_10(self):
        # below 2^-10 the finest panel is 2^-30, not h 2^-20: h = 2^-e has 31 - e panels
        hs = tuple(2.0**-e for e in range(10, 17))
        ts, _, member = _depth_rule(hs, 8)
        assert member.sum(axis=1).tolist() == [31.0 - e for e in range(10, 17)]
        assert ts.min() < 2.0**-30 < np.sort(ts)[8]  # one panel [0, 2^-30] for all seven

    @pytest.mark.parametrize("bad", [0.6, 2.0**-20])
    def test_out_of_range_depth_is_named(self, bad):
        with pytest.raises(DomainError, match=re.escape(f"depth h={bad} ")):
            phi_h_depths(0.5j, Arc(0.0, 0.5), [2.0**-3, bad, 2.0**-4], hardy_config(2.0))

    def test_outside_closed_disk(self):
        with pytest.raises(DomainError, match="closed disk"):
            phi_h_depths(1.1 + 0.0j, Arc(0.0, 0.5), self.DYADIC, hardy_config(2.0))

    def test_overflow_raises_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError, match="phi_h overflows"):
                phi_h_depths(1.0 + 0.0j, Arc(0.0, 0.5), self.DYADIC, hardy_config(1e300))
