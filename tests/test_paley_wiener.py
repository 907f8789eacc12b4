import math

import numpy as np
import pytest

from rktlab import _kernels
from rktlab._kernels import kadets_points, pw_norm_factor, pw_rkt_grid, pw_sinc_mass
from rktlab.errors import DomainError, PrecisionError
from rktlab.numerics import eigen_hermitian
from rktlab.paley_wiener import (
    _pair_products,
    _tail_bound,
    _tail_constants,
    SamplingSequence,
    bandlimit_check,
    carleson_sanity,
    generating_witness,
    gram_min_eigenvalue,
    rkt_lower_bound_scan,
    rkt_sum,
    witness_contrast,
)


def parity_loop(xs, n):
    """The pair products as one running product per parity, k by k over every x."""
    half = full = 1.0
    for s, k0 in ((0.125, 2), (-0.125, 1)):
        y, prod = (xs - s) ** 2, np.ones_like(xs)
        for k in range(k0, n + 1, 2):
            prod = prod * ((k * k - y) / (k * k - 0.015625))
            if n // 2 - 2 < k <= n // 2:  # the last k of this parity in the half
                half = half * prod
        full = full * prod
    return half, full


def factor_loop(xs, n):
    """The pair products factor by factor, as they were first written."""
    prod, pts = np.ones_like(xs), kadets_points(n)
    for k in range(1, n + 1):
        prod = prod * (1.0 - xs / pts[n + k - 1]) * (1.0 - xs / pts[n - k])
        if k == n // 2:
            half = prod
    return half, prod


class TestKadetsPoints:
    # kadets_points(n) holds x_-n .. x_-1, then x_1 .. x_n
    def test_even(self):
        assert kadets_points(2)[-1] == 2.125

    def test_odd(self):
        assert kadets_points(1)[-1] == 0.875

    def test_negative_odd(self):
        assert kadets_points(3)[0] == -3.125

    def test_negative_even(self):
        assert kadets_points(2)[0] == -1.875

    def test_deleted_origin(self):
        pts = kadets_points(4)
        assert pts.size == 8 and np.array_equal(pts[3:5], [-1.125, 0.875])  # x_-1, x_1


class TestSequence:
    def test_separation_exact(self):
        seq = SamplingSequence.kadets(256)
        sanity = carleson_sanity(seq)
        assert sanity.separation == 0.75
        assert sanity.strip_width == 0.0

    def test_integer_lattice_separation(self):
        seq = SamplingSequence(points=[float(n) for n in range(-5, 6)], n_max=5)
        assert carleson_sanity(seq).separation == 1.0

    def test_single_point_convention(self):
        seq = SamplingSequence(points=[3.0], n_max=3)
        assert carleson_sanity(seq).separation == math.inf


def kernel_norm_sq(lam: complex) -> float:
    """Squared norm of sinc(pi(. - lam)), the inverse of the normalization."""
    return 1.0 / pw_norm_factor(complex(lam).imag)


class TestKernelNorm:
    def test_real_point(self):
        assert kernel_norm_sq(1.5) == 1.0

    def test_imaginary_unit(self):
        exact = math.sinh(2 * math.pi) / (2 * math.pi)
        assert kernel_norm_sq(1j) == pytest.approx(exact, rel=1e-13)
        assert exact == pytest.approx(42.61, rel=1e-3)

    def test_l2_integral_oracle(self):
        # |sinc(pi(x - lam))|^2 integrated over the line
        lam = 0.3 + 1.0j
        xs = np.linspace(-2000.0, 2000.0, 256_001)
        u = math.pi * (xs - lam.real)
        v = math.pi * lam.imag
        vals = (np.sin(u) ** 2 + math.sinh(v) ** 2) / (u * u + v * v)
        integral = np.trapezoid(vals, xs)
        assert kernel_norm_sq(lam) == pytest.approx(integral, rel=1e-3)

    def test_small_imaginary_series(self):
        t = 1e-5
        exact = math.sinh(2 * math.pi * t) / (2 * math.pi * t)
        assert kernel_norm_sq(complex(0, t)) == pytest.approx(exact, rel=1e-12)

    def test_decay_profile_bracket(self):
        # frozen: c_lam^2 / ((1+t) e^{-2 pi t}) stays within [0.99, 11.2] on [0, 8]
        for t in np.linspace(0.0, 8.0, 33):
            c2 = pw_norm_factor(t)
            ratio = c2 / ((1.0 + t) * math.exp(-2.0 * math.pi * t))
            assert 0.99 <= ratio <= 11.2


def pw_rkt_grid_reference(points, res, ims):
    """The former per-term kernel: every (grid point, sampling point) pair."""
    u = math.pi * (points[None, :] - res[:, None])
    uu = u * u
    s2 = np.sin(u) ** 2
    out = np.empty((ims.size, res.size))
    for i in range(ims.size):
        b = float(ims[i])
        v = math.pi * b
        w2 = uu + v * v
        vals = (s2 + math.sinh(v) ** 2) / np.maximum(w2, 1e-300)
        small = w2 < 1e-8
        if small.any():
            vals[small] = 1.0 - (uu[small] - v * v) / 3.0
        out[i, :] = pw_norm_factor(b) * vals.sum(axis=1)
    return out


def seeded_pw_grid(seed):
    """A 128 x 128 scan rectangle placed like the benchmark's seeded pw config."""
    rng = np.random.default_rng(seed)
    re0, im_mid = rng.uniform(-60.0, 56.0), rng.uniform(-1.0, 1.0)
    return np.linspace(re0, re0 + 4.0, 128), np.linspace(im_mid - 2.0, im_mid + 2.0, 128)


class TestSincKernel:
    """pw_rkt_grid (closed-form copy sums less the tails) against the per-term sum."""

    EDGE_IMS = np.array([0.0, 1e-300, -1e-300, 1e-9, -1e-9, 2.0, -2.0])

    @staticmethod
    def assert_agrees(n, res, ims):
        pts = kadets_points(n)
        got, want = pw_rkt_grid(pts, res, ims), pw_rkt_grid_reference(pts, res, ims)
        assert np.max(np.abs(got - want) / want) <= 1e-12
        assert np.argmin(got) == np.argmin(want)

    def test_shipped_grid(self):
        self.assert_agrees(1024, np.linspace(0.0, 4.0, 128), np.linspace(-2.0, 2.0, 128))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seeded_grid_at_4096(self, seed):
        self.assert_agrees(4096, *seeded_pw_grid(seed))

    @pytest.mark.parametrize("n", [64, 128])
    def test_truncation_edge(self, n):
        a = n - 1.125 - 1e-9
        self.assert_agrees(n, np.array([a, -a]), self.EDGE_IMS)

    @pytest.mark.parametrize("n", [64, 128])
    def test_at_sampling_points_and_deleted_point(self, n):
        pts = kadets_points(n)
        res = np.concatenate([pts[np.abs(pts) < n - 1.125], [0.125, -0.125, 0.0]])
        self.assert_agrees(n, res, self.EDGE_IMS)

    def test_against_mpmath(self):
        # 40-digit sum over the truncation, lambda taken as the exact doubles;
        # the closed form must be no worse than the per-term sum, or 1e-14
        mpmath = pytest.importorskip("mpmath")
        lams = [(64, a, b) for a in (0.0, 0.125, -0.125, 62.875 - 1e-9) for b in (0.0, -0.015748031496062964, 2.0)]
        lams += [(128, a, b) for a in (0.875, 0.3, -1.7, -(126.875 - 1e-9)) for b in (1e-9, 0.4)]
        lams += [(1024, a, b) for a in (0.0, 3.9, 60.5, 1022.875 - 1e-9) for b in (-0.015748031496062964,)]
        assert len(lams) == 24
        for n, a, b in lams:
            pts = kadets_points(n)
            with mpmath.workdps(40):
                lam, bb = mpmath.mpc(a, b), mpmath.mpf(b)
                c2 = 2 * mpmath.pi * abs(bb) / mpmath.sinh(2 * mpmath.pi * abs(bb)) if b else 1
                want = c2 * sum(abs(mpmath.sinc(mpmath.pi * (mpmath.mpf(float(x)) - lam))) ** 2 for x in pts)
            got = pw_rkt_grid(pts, np.array([a]), np.array([b]))[0, 0]
            ref = pw_rkt_grid_reference(pts, np.array([a]), np.array([b]))[0, 0]
            err, ref_err = float(abs(got - want) / want), float(abs(ref - want) / want)
            assert err <= max(ref_err, 1e-14), (n, a, b, err, ref_err)

    def test_conjugate_rows_bitwise_equal(self):
        ims = np.array([1e-300, -1e-300, 0.015748031496062964, -0.015748031496062964, 1.3, -1.3])
        out = pw_rkt_grid(kadets_points(1024), np.linspace(-3.0, 5.0, 97), ims)
        assert np.array_equal(out[0::2], out[1::2])

    def test_shipped_witness_unchanged(self):
        scan = rkt_lower_bound_scan(SamplingSequence.kadets(1024))
        assert scan.witness == complex(0.0, -0.015748031496062964)

    def test_mass_brackets_the_reference(self):
        # the whole set's closed-form mass lies between the per-term partial
        # sum and the partial sum plus the tail bound
        seq = SamplingSequence.kadets(1024)
        res, ims = np.linspace(-4.0, 4.0, 33), np.linspace(-2.0, 2.0, 33)
        low = pw_rkt_grid_reference(seq.points, res, ims)
        tails = np.array([_tail_bound(seq, 4.0, b) for b in ims])[:, None]
        mass = pw_sinc_mass(res, ims)
        assert np.all((low <= mass) & (mass <= low + tails))

    @pytest.mark.parametrize(
        "points",
        [kadets_points(64)[1:], kadets_points(64) + 1e-15, np.arange(-64.0, 65.0)[np.arange(-64, 65) != 0]],
        ids=["odd-length", "shifted", "integers"],
    )
    def test_refuses_other_points(self, points):
        with pytest.raises(DomainError):
            pw_rkt_grid(points, np.array([0.3]), np.array([0.0]))

    @pytest.mark.parametrize("re,im", [(64.0, 0.0), (-64.5, 0.0), (0.3, 112.0), (0.3, np.nan)])
    def test_refuses_lambda_out_of_range(self, re, im):
        with pytest.raises(DomainError):
            pw_rkt_grid(kadets_points(64), np.array([re]), np.array([im]))

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 1024])
    def test_kadets_points_bit_identical(self, n):
        idx = [k for k in range(-n, n + 1) if k]
        assert np.array_equal(kadets_points(n), np.array([k + 0.125 if k % 2 == 0 else k - 0.125 for k in idx]))
        assert np.array_equal(SamplingSequence.kadets(n).points, kadets_points(n))

    @pytest.mark.parametrize("s", [2, 4, 12, 22])
    def test_zeta_tail_real_q(self, s):
        # real and array q against a 60-digit reference (200 terms summed, then
        # Euler-Maclaurin with 11 Bernoulli terms; mpmath.zeta itself is off
        # by up to 4e-13 here at large s and q); the error must stay within the
        # first omitted term, 7.1 (s-1) (s)_15/16! q^-16 relative, or rounding
        mpmath = pytest.importorskip("mpmath")
        qs = np.array([16.0, 16.4375, 100.3, 5000.7])
        got = _kernels._zeta_tail(s, qs)
        for q, g in zip(qs, got):
            with mpmath.workdps(60):
                q0 = mpmath.mpf(float(q))
                want, q1, rising = sum((k + q0) ** -s for k in range(200)), q0 + 200, s
                want += q1 ** (1 - s) / (s - 1) + q1**-s / 2
                for i in range(1, 12):
                    want += mpmath.bernoulli(2 * i) / mpmath.factorial(2 * i) * rising * q1 ** (1 - s - 2 * i)
                    rising *= (s + 2 * i - 1) * (s + 2 * i)
                want = float(want)
            bound = 7.1 * (s - 1) * math.prod(range(s, s + 15)) / math.factorial(16) * q**-16
            assert abs(g - want) <= (bound + 1e-15) * want
            assert _kernels._zeta_tail(s, float(q)) == g


class TestRktSum:
    def test_own_node_dominates(self):
        # the own-node term alone contributes 1 at every sequence point
        # (away from the truncation edge, where the tail bound needs margin)
        seq = SamplingSequence.kadets(128)
        for x in seq.points[np.abs(seq.points) <= 64.0]:
            assert rkt_sum(float(x), seq).low >= 1.0

    def test_high_strip_bracket(self):
        # frozen: values at |Im| > 1 stay within [0.5, 1.5]
        seq = SamplingSequence.kadets(512)
        for lam in (2j, 1.5j, 0.7 + 1.25j, 3.2 - 2.0j):
            iv = rkt_sum(lam, seq)
            assert 0.5 <= iv.low <= iv.high <= 1.5

    def test_per_term_strip_bracket(self):
        # each term against |Im lam| / |x_n - lam|^2, |Im| in [1, 2]
        seq = SamplingSequence.kadets(64)
        for lam in (1.5j, 0.4 + 1.0j, 2.0 - 2.0j):
            b = lam.imag
            c2 = pw_norm_factor(lam.imag)
            for x in seq.points[:40]:
                u = math.pi * (x - lam.real)
                term = c2 * (math.sin(u) ** 2 + math.sinh(math.pi * b) ** 2) / (u * u + (math.pi * b) ** 2)
                ratio = term * ((x - lam.real) ** 2 + b * b) / abs(b)
                assert 0.31 <= ratio <= 0.33

    def test_nearest_point_floor(self):
        seq = SamplingSequence.kadets(256)
        lam = 0.4375
        d = float(np.min(np.abs(seq.points - lam)))
        floor = np.sinc(d) ** 2
        assert rkt_sum(lam, seq).low >= floor * (1.0 - 1e-12)

    def test_truncation_stability(self):
        lam = 0.3 + 0.4j
        full = rkt_sum(lam, SamplingSequence.kadets(1024))
        half = rkt_sum(lam, SamplingSequence.kadets(512))
        assert abs(full.low - half.low) <= (half.high - half.low) + 1e-12

    def test_minimum_truncation(self):
        with pytest.raises(DomainError):
            rkt_sum(0.5, SamplingSequence.kadets(32))


class TestScan:
    # frozen regression value: first full run of the 128x128 scan at N=1024
    FROZEN_DELTA = 0.051078971997090154

    def test_delta_regression(self):
        seq = SamplingSequence.kadets(1024)
        scan = rkt_lower_bound_scan(seq)
        assert scan.delta > 0.0
        assert scan.delta == pytest.approx(self.FROZEN_DELTA, rel=1e-9)
        # the starving region is the deleted-origin gap
        assert abs(scan.witness) < 0.5

    def test_high_strip_subgrid(self):
        seq = SamplingSequence.kadets(1024)
        scan = rkt_lower_bound_scan(seq, resolution=(64, 64))
        mask = np.abs(scan.im_grid) > 1.0
        sub_min = float(np.min(scan.low[mask, :]))
        assert sub_min >= 0.5 * scan.delta

    def test_grid_contains_sequence_point(self):
        seq = SamplingSequence.kadets(256)
        scan = rkt_lower_bound_scan(seq, re_range=(0.0, 4.0), im_range=(-1.0, 1.0), resolution=(65, 65))
        # min property: the reported minimum is <= every grid value
        assert scan.delta <= float(np.max(scan.low))

    def test_resolution_floor(self):
        seq = SamplingSequence.kadets(256)
        with pytest.raises(DomainError):
            rkt_lower_bound_scan(seq, resolution=(32, 128))


class TestWitness:
    def test_vanishes_at_sequence_point(self):
        seq = SamplingSequence.kadets(512)
        wit = generating_witness(seq, seq.points[[512 + 2, 512 - 7]])  # x_3 and x_-7
        assert wit.values[0] == 0.0
        assert wit.values[1] == 0.0

    def test_value_one_at_origin(self):
        seq = SamplingSequence.kadets(512)
        wit = generating_witness(seq, np.array([0.0]))
        assert wit.values[0] == 1.0

    def test_contrast_pair(self):
        seq = SamplingSequence.kadets(1024)
        ratio, l2, values, spread = witness_contrast(seq)
        assert ratio < 1e-6
        assert l2 > 0.1
        assert bandlimit_check(values, 256.0, 8) < 0.05
        assert 0.0 < spread <= 1e-2

    def test_truncation_floor(self):
        with pytest.raises(DomainError):
            generating_witness(SamplingSequence.kadets(256), np.array([0.0]))

    def test_grid_range_guard(self):
        seq = SamplingSequence.kadets(512)
        with pytest.raises(DomainError):
            generating_witness(seq, np.array([200.0]))

    @pytest.mark.parametrize("n", [512, 1024, 2048, 4096])
    def test_against_closed_form(self, n):
        # the Kadets generating function in closed form: sinc((x - 1/8)/2) vanishes
        # at 2m + 1/8 (m != 0), cos(pi (x + 1/8)/2) at the odd-index points
        def closed_form(x):
            return (np.sinc((x - 0.125) / 2.0) / np.sinc(1.0 / 16.0)) * (
                np.cos(math.pi * (x + 0.125) / 2.0) / math.cos(math.pi / 16.0)
            )

        seq = SamplingSequence.kadets(n)
        m = min(256, n // 4) * 8  # the witness grid of length 256 at rate 8, inside |x| <= n/8
        xs = (np.arange(m) - m // 2) / 8.0
        wit = generating_witness(seq, xs)
        off = wit.values != 0.0
        dev = np.abs(wit.values - closed_form(xs))[off] / np.maximum(np.abs(wit.values[off]), 1e-12)
        assert np.max(dev) <= wit.extrapolation_spread
        assert np.max(np.abs(closed_form(seq.points[np.abs(seq.points) <= n / 8.0]))) <= 1e-15

    @pytest.mark.parametrize("n", [512, 1025, 4096])  # at 1,025 half stops at k = 512
    def test_blocked_products_equal_the_loop(self, n):
        seq = SamplingSequence.kadets(n)
        on_seq = seq.points[np.abs(seq.points) <= 128.0]
        xs = np.concatenate([(np.arange(2048) - 1024) / 8.0, on_seq])
        got = _pair_products(xs, n)
        for g, want in zip(got, parity_loop(xs, n)):
            assert np.array_equal(g.view(np.int64), want.view(np.int64))
        for g, want in zip(got, factor_loop(xs, n)):
            nz = want != 0.0
            assert np.max(np.abs(g - want)[nz] / np.abs(want[nz])) <= 1e-12  # 1.1e-13 at n = 4,096
            assert np.all(g[-on_seq.size :] == 0.0)  # exact zeros at the sequence points

    def test_rate_ten_grid_equals_the_loop(self):
        # no two points of a rate-10 grid share (x -+ 1/8)^2, so nothing is deduplicated
        xs = (np.arange(2560) - 1280) / 10.0
        assert np.unique((xs - 0.125) ** 2).size == np.unique((xs + 0.125) ** 2).size == xs.size
        for g, want in zip(_pair_products(xs, 1024), parity_loop(xs, 1024)):
            assert np.array_equal(g.view(np.int64), want.view(np.int64))

    def test_products_against_mpmath(self):
        # the products at 40 digits, on and off the rate-8 grid but away from the
        # zeros, where the rounding of x alone is amplified by 1/|1 - x/x_k|
        mpmath = pytest.importorskip("mpmath")
        n = 1024
        xs = np.array([0.3, -0.7, 1.0, math.pi, 12.345, -57.9, 64.1, 100.0625, 127.99, -128.0, -0.01])
        got = _pair_products(xs, n)
        pts = kadets_points(n)
        with mpmath.workdps(40):
            for i, x in enumerate(xs):
                x, prod = mpmath.mpf(float(x)), mpmath.mpf(1)
                for k in range(1, n + 1):
                    prod *= (1 - x / mpmath.mpf(pts[n + k - 1])) * (1 - x / mpmath.mpf(pts[n - k]))
                    if k == n // 2:
                        half = prod
                for g, want in zip((got[0][i], got[1][i]), (half, prod)):
                    assert abs(float((g - want) / want)) <= 1e-13  # 3.9e-14 at most

    def test_largest_witness(self):
        # the widest grid and finest rate witness_contrast allows at the largest truncation
        ratio, l2, values, spread = witness_contrast(SamplingSequence.kadets(16384), 512.0, 32)
        assert ratio == 0.0
        assert math.isfinite(spread) and 0.0 < spread <= 1e-2
        assert values.size == 512 * 32 and l2 > 0.1

    def test_overflowing_products_refused(self):
        # near |x| = 1000 the partial products pass 1e308 and the values turn NaN
        with pytest.raises(PrecisionError):
            generating_witness(SamplingSequence.kadets(8192), np.array([1000.0]))


class TestTailConstants:
    @pytest.mark.parametrize("n", [256, 512, 1024, 2048, 4096])
    def test_against_hurwitz_zeta(self, n):
        # m_k^-p = sum_j C(p+j-1, j) 64^-j k^(-2p-2j); each power summed over
        # k > n (all k) and k = 2i > n (even k) by mpmath's zeta(s, N) at 50
        # digits, 12 terms of j (the rest is below 1e-60 relative)
        mpmath = pytest.importorskip("mpmath")
        got = _tail_constants(n)
        with mpmath.workdps(50):
            for p in (1, 2, 3):
                full = even = mpmath.mpf(0)
                for j in range(12):
                    s = 2 * (p + j)
                    c = mpmath.binomial(p + j - 1, j) / mpmath.mpf(64) ** j
                    full += c * mpmath.zeta(s, n + 1)
                    even += c * mpmath.mpf(2) ** -s * mpmath.zeta(s, n // 2 + 1)
                # both sums have the same |terms|, which add up to the full sum
                tol = 1e-15 * float(full)
                assert abs(got[2 * p - 2] - float(full)) <= tol
                assert abs(got[2 * p - 1] - float(2 * even - full)) <= tol


class TestBandlimit:
    def test_sinc_in_band(self):
        n = 2048
        xs = (np.arange(n) - n // 2) / 8.0
        assert bandlimit_check(np.sinc(xs), 256.0, 8) < 0.02

    def test_double_rate_sinc_out_of_band(self):
        n = 2048
        xs = (np.arange(n) - n // 2) / 8.0
        assert bandlimit_check(np.sinc(2.0 * xs), 256.0, 8) > 0.4

    def test_grid_requirements(self):
        with pytest.raises(DomainError):
            bandlimit_check(np.ones(100), 100.0, 1)


class TestGramCrossCheck:
    def test_min_eigenvalue_reported_positive(self):
        # diagnostic only: the completed system is a Riesz sequence, so the
        # Gram spectrum stays away from zero across truncations
        seq = SamplingSequence.kadets(256)
        prev = None
        for t in (8, 16, 32):
            val = gram_min_eigenvalue(seq, t)
            assert val > 0.05
            prev = val

    def test_integer_lattice_is_orthonormal(self):
        # with the origin adjoined the points are the integers -16..16, where
        # the normalized sinc kernels are orthonormal: the Gram is the identity
        seq = SamplingSequence(points=[float(n) for n in range(-16, 17) if n], n_max=16)
        assert abs(gram_min_eigenvalue(seq, 16) - 1.0) <= 1e-14

    @pytest.mark.parametrize("n", [16, 64, 256, 1024])
    def test_kadets_gram_spectrum_closed_form(self, n):
        # with 1/8 restored the set is (2Z + 1/8) u (2Z - 9/8): the kernels on each
        # copy of 2Z are orthonormal, and the Gram of every finite section has
        # extremes 1 -+ sin(pi/8), the Riesz bounds of the whole set
        x = np.sort(np.append(kadets_points(n), 0.125))
        evals, _ = eigen_hermitian(np.sinc(x[:, None] - x[None, :]))
        s = math.sin(math.pi / 8)
        assert abs(evals[0] - (1.0 - s)) <= 5e-14 and abs(evals[-1] - (1.0 + s)) <= 5e-14
