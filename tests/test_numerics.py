import math
import os
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rktlab.errors import DegenerateSystemError, DomainError, EvaluationError
from rktlab.hardy import _graded_edges
from rktlab.numerics import (
    RADIAL_CAP,
    TWO_PI,
    DiskGrid,
    _leggauss,
    circle_panels,
    circle_quadrature,
    eigen_hermitian,
    gauss_legendre_panel,
    hermitian_part,
    integrate_circle,
    map_on_two_cpus,
    null_vector,
    wrap_angle,
)


# Reference rule builders: one scalar Gauss-Legendre map per panel and a
# stack-based splitter with a per-panel cap function.  The array builders
# must reproduce them bit for bit.


def _reference_panels(edges, n):
    x, w = np.polynomial.legendre.leggauss(n)
    nodes, weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (float(hi) - float(lo))
        nodes.append(float(lo) + half * (x + 1.0))
        weights.append(half * w)
    return np.concatenate(nodes), np.concatenate(weights)


def _reference_circle_rule(breakpoints, peaks, base_panels, nodes_per_panel, min_width=2.0**-26):
    edges = {wrap_angle(k * TWO_PI / base_panels) for k in range(base_panels)}
    edges.update(wrap_angle(b) for b in breakpoints)
    peak_list = [(wrap_angle(a), max(float(s), min_width)) for a, s in peaks]
    edges.update(a for a, _ in peak_list)
    sorted_edges = sorted(edges)
    cleaned = [sorted_edges[0]]
    for e in sorted_edges[1:]:
        if e - cleaned[-1] > 1e-14:
            cleaned.append(e)
    panels = list(zip(cleaned, cleaned[1:] + [cleaned[0] + TWO_PI]))

    def peak_dist(lo, hi, angle):
        width = hi - lo
        off = wrap_angle(angle - lo)
        if off <= width:
            return 0.0
        return min(off - width, TWO_PI - off)

    def allowed(lo, hi):
        cap = TWO_PI / base_panels
        for angle, scale in peak_list:
            cap = min(cap, max(scale, peak_dist(lo, hi, angle), min_width))
        return cap

    out = []
    stack = list(reversed(panels))
    while stack:
        lo, hi = stack.pop()
        if hi - lo > allowed(lo, hi) * (1.0 + 1e-12) and hi - lo > 2.0 * min_width:
            mid = 0.5 * (lo + hi)
            stack.append((mid, hi))
            stack.append((lo, mid))
        else:
            out.append((lo, hi))
    out.sort()
    edges_arr = np.array([p[0] for p in out] + [out[-1][1]])
    return (edges_arr,) + _reference_panels(edges_arr, nodes_per_panel)


# scales from 1 down past MIN_PANEL_WIDTH = 2^-26 (smaller ones are clamped to it)
_scales = st.builds(lambda m, k: m * 2.0**-k, st.floats(1.0, 2.0, exclude_max=True), st.integers(0, 28))
_angles = st.floats(-TWO_PI, 2.0 * TWO_PI)


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
        q2 = circle_quadrature(nodes_per_panel=24)  # twice the default, same panel edges
        lo, hi, _, _ = circle_panels((), np.zeros((1, 0)), np.zeros((1, 0)))
        assert np.array_equal(q.nodes, gauss_legendre_panel(lo, hi, 12)[0])
        assert np.array_equal(q2.nodes, gauss_legendre_panel(lo, hi, 24)[0])
        v2 = integrate_circle(f, q2)
        assert abs(v1 - v2) <= 1e-10 * abs(v2)

    def test_breakpoints_are_panel_edges(self):
        q = circle_quadrature(breakpoints=[1.0, 2.5])
        lo, hi, _, _ = circle_panels([1.0, 2.5], np.zeros((1, 0)), np.zeros((1, 0)))
        assert np.any(np.isclose(lo, 1.0))
        assert np.any(np.isclose(lo, 2.5))
        assert np.array_equal(q.nodes, gauss_legendre_panel(lo, hi, 12)[0])

    def test_tiny_negative_breakpoint(self):
        q = circle_quadrature(breakpoints=[-1e-17])
        assert np.all(q.weights > 0.0)
        assert integrate_circle(lambda t: np.ones_like(t), q) == pytest.approx(TWO_PI, abs=1e-12)

    def test_weights_positive(self):
        q = circle_quadrature(peaks=[(0.3, 1e-6)])
        assert np.all(q.weights > 0.0)

    @pytest.mark.parametrize("args", [dict(nodes_per_panel=1), dict(base_panels=0)])
    def test_rejects_too_few_nodes_or_panels(self, args):
        with pytest.raises(DomainError):
            circle_quadrature(**args)

    def test_non_finite_integrand_names_node(self):
        q = circle_quadrature()

        def f(t):
            out = np.ones_like(t)
            out[t > 3.0] = np.inf
            return out

        with pytest.raises(EvaluationError, match="theta"):
            integrate_circle(f, q)


class TestWrapAngle:
    @given(theta=st.floats(-1e6, 1e6))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_half_open_range_same_point(self, theta):
        w = wrap_angle(theta)
        assert 0.0 <= w < TWO_PI
        assert abs(math.remainder(w - theta, TWO_PI)) <= 1e-12 * max(1.0, abs(theta))

    @pytest.mark.parametrize("theta", [-5e-324, -1e-300, -1e-17, -2e-16, -4.4e-16, -TWO_PI, TWO_PI, 2.0 * TWO_PI])
    def test_tiny_negative_and_full_turns(self, theta):
        w = wrap_angle(theta)
        assert 0.0 <= w < TWO_PI
        assert min(w, TWO_PI - w) <= 5e-16


class TestRuleBuildersBitIdentical:
    def test_leggauss_matches_numpy(self):
        for n in range(1, 129):
            x, w = _leggauss(n)
            ref_x, ref_w = np.polynomial.legendre.leggauss(n)
            assert x.tobytes() == ref_x.tobytes() and w.tobytes() == ref_w.tobytes(), n

    @given(data=st.data())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_circle_quadrature_matches_reference(self, data):
        base_panels = data.draw(st.sampled_from([1, 16, 64]))
        nodes_per_panel = data.draw(st.sampled_from([2, 12, 16]))
        peaks = data.draw(st.lists(st.tuples(_angles, _scales), max_size=3))
        # breakpoints anywhere, on a base edge, or within 1e-14 of one
        near_edge = st.builds(
            lambda k, eps: k * TWO_PI / base_panels + eps,
            st.integers(0, base_panels),
            st.sampled_from([0.0, 1e-14, -1e-14, 5e-15, -5e-15]),
        )
        breakpoints = data.draw(st.lists(st.one_of(_angles, near_edge), max_size=4))
        edges, nodes, weights = _reference_circle_rule(breakpoints, peaks, base_panels, nodes_per_panel)
        args = dict(breakpoints=breakpoints, peaks=peaks, base_panels=base_panels, nodes_per_panel=nodes_per_panel)
        if not np.all(weights > 0.0):
            # an empty panel is refused by the positive-weight check
            with pytest.raises(DomainError):
                circle_quadrature(**args)
            return
        rule = circle_quadrature(**args)
        pk = np.asarray(peaks, dtype=float).reshape(1, -1, 2)
        lo, hi, _, _ = circle_panels(breakpoints, pk[..., 0], pk[..., 1], base_panels)
        assert np.array_equal(lo, edges[:-1]) and np.array_equal(hi, edges[1:]) and edges[-1] == TWO_PI
        assert np.array_equal(rule.nodes, nodes)
        assert np.array_equal(rule.weights, weights)

    @given(data=st.data())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_circle_panels_match_reference_rule_by_rule(self, data):
        base_panels = data.draw(st.sampled_from([1, 16, 64]))
        nodes_per_panel = data.draw(st.sampled_from([2, 12, 16]))
        rules = data.draw(st.integers(1, 40))
        peaks = data.draw(st.integers(0, 3))
        # angles outside [0, 2*pi) and scales below MIN_PANEL_WIDTH = 2^-26
        angles = data.draw(st.lists(_angles, min_size=rules * peaks, max_size=rules * peaks))
        scales = data.draw(st.lists(st.one_of(_scales, st.floats(2.0**-40, 2.0**-26)), min_size=rules * peaks, max_size=rules * peaks))
        near_edge = st.builds(
            lambda k, eps: k * TWO_PI / base_panels + eps,
            st.integers(0, base_panels),
            st.sampled_from([0.0, 1e-14, -1e-14, 5e-15, -5e-15]),
        )
        breakpoints = data.draw(st.lists(st.one_of(_angles, near_edge), max_size=4))
        angles = np.reshape(angles, (rules, peaks))
        scales = np.reshape(scales, (rules, peaks))
        refs = [
            _reference_circle_rule(breakpoints, list(zip(a, s)), base_panels, nodes_per_panel)
            for a, s in zip(angles.tolist(), scales.tolist())
        ]
        assume(all(np.all(ref[2] > 0.0) for ref in refs))  # an empty panel is refused
        lo, hi, index, offsets = circle_panels(breakpoints, angles, scales, base_panels)
        got_nodes, got_weights = gauss_legendre_panel(lo, hi, nodes_per_panel)  # all panels mapped at once
        assert offsets.size == rules + 1
        for k, (edges, nodes, weights) in enumerate(refs):
            panels = index[offsets[k] : offsets[k + 1]]
            assert np.array_equal(got_nodes.reshape(-1, nodes_per_panel)[panels].ravel(), nodes)
            assert np.array_equal(got_weights.reshape(-1, nodes_per_panel)[panels].ravel(), weights)
            assert np.array_equal(lo[panels], edges[:-1])
            assert np.array_equal(hi[panels], edges[1:])

    def test_near_duplicates_collapse_against_the_last_kept_edge(self):
        # 1 - 1e-14 is kept, 1 is within 1e-14 of it and dropped, 1 + 5e-15 is
        # 1.5e-14 from the kept edge and stays (though within 1e-14 of 1)
        breakpoints = [1.0 - 1e-14, 1.0, 1.0 + 5e-15]
        angles, scales = np.array([[0.3], [1.0], [4.0]]), np.full((3, 1), 0.01)
        lo, hi, index, offsets = circle_panels(breakpoints, angles, scales, 16)
        for k in range(3):
            edges, nodes, weights = _reference_circle_rule(breakpoints, [(angles[k, 0], 0.01)], 16, 12)
            assert np.any(edges == 1.0 + 5e-15) and not np.any(edges == 1.0)
            panels = index[offsets[k] : offsets[k + 1]]
            got_nodes, got_weights = gauss_legendre_panel(lo[panels], hi[panels], 12)
            assert np.array_equal(got_nodes, nodes)
            assert np.array_equal(got_weights, weights)

    @given(
        lo=st.floats(-4.0, 4.0),
        width=st.floats(1e-6, 4.0),
        attract=st.floats(0.0, 1.0),
        scale=_scales,
        n=st.sampled_from([4, 8, 12]),
    )
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_panel_map_matches_scalar_loop_on_graded_edges(self, lo, width, attract, scale, n):
        edges = _graded_edges(lo, lo + width, ((lo + attract * width, scale * width),))
        nodes, weights = gauss_legendre_panel(edges[:-1], edges[1:], n)
        ref_nodes, ref_weights = _reference_panels(edges, n)
        assert np.array_equal(nodes, ref_nodes)
        assert np.array_equal(weights, ref_weights)


def _assert_rules_as_built_alone(breakpoints, angles, scales, base_panels=64):
    """Every rule of one circle_panels call has the panels of a call on it alone."""
    lo, hi, index, offsets = circle_panels(breakpoints, angles, scales, base_panels)
    assert offsets.size == len(angles) + 1 and np.unique(index).size == lo.size
    for k in range(len(angles)):
        panels = index[offsets[k] : offsets[k + 1]]
        alone_lo, alone_hi, alone_index, _ = circle_panels(breakpoints, angles[k : k + 1], scales[k : k + 1], base_panels)
        assert np.array_equal(alone_index, np.arange(alone_lo.size))
        assert np.array_equal(lo[panels], alone_lo) and np.array_equal(hi[panels], alone_hi)
    return lo.size


class TestSharedTrees:
    # one-peak rules with the same angle float are bisected as one tree
    SCALES = 2.0 ** -np.arange(1.0, 25.0)

    def test_one_angle_at_every_scale(self):
        # scales 2^-1 ... 2^-24, given in a shuffled order, share the panels of the finest rule's tree
        scales = np.random.default_rng(3).permutation(self.SCALES)[:, None]
        shared = _assert_rules_as_built_alone([0.5, 4.0], np.full((24, 1), 1.234), scales)
        finest = circle_panels([0.5, 4.0], [[1.234]], [[2.0**-24]], 64)[0].size
        assert finest < shared < 2 * finest

    @pytest.mark.parametrize("offset", [0.0, 5e-15, -5e-15, 1e-14, -1e-14])
    def test_breakpoint_at_or_beside_the_angle(self, offset):
        # within 1e-14 the edges collapse one by one against the last kept edge
        angle = 2.0 * TWO_PI / 64 + 0.3
        _assert_rules_as_built_alone([angle + offset, angle - 1e-14, 5.0], np.full((24, 1), angle), self.SCALES[:, None])

    def test_angles_equal_only_after_wrapping(self):
        # -pi and pi, 2 pi and 0, -1e-17 and 0 wrap to one angle but are trees of their own
        angles = np.array([[-math.pi], [math.pi], [TWO_PI], [0.0], [-1e-17], [math.pi]])
        scales = np.array([[1e-3], [1e-5], [1e-4], [2.0**-24], [1e-2], [0.3]])
        _assert_rules_as_built_alone([], angles, scales)

    def test_two_peak_rules_are_trees_of_their_own(self):
        # a call of two-peak rules, one of them with both peaks at one angle
        angles = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 3.0], [3.0, 1.0]])
        scales = np.array([[1e-4, 1e-4], [1e-6, 1e-6], [1e-4, 1e-6], [1e-5, 1e-3]])
        _assert_rules_as_built_alone([2.0], angles, scales, 16)


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
        with pytest.raises(DomainError):
            eigen_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(DomainError):
            eigen_hermitian(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_real_input_stays_real(self):
        rng = np.random.default_rng(10)
        b = rng.standard_normal((9, 9))
        m = b + b.T
        assert hermitian_part(m).dtype == np.float64
        assert hermitian_part(m.astype(complex)).dtype == np.complex128
        w, v = eigen_hermitian(m)
        assert v.dtype == np.float64
        wc, vc = eigen_hermitian(m.astype(complex))
        assert vc.dtype == np.complex128
        assert np.max(np.abs(w - wc)) <= 1e-13 * np.max(np.abs(w))


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


def checked_map(func, items):
    """map_on_two_cpus's results and process count.  Whether it returns or raises,
    no child is left and the affinity set, faked or real, is what it was."""
    before, out = os.sched_getaffinity(0), []
    try:
        return out, map_on_two_cpus(func, items, out.append)
    finally:
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert os.sched_getaffinity(0) == before


@pytest.mark.usefixtures("affinity")
class TestMapOnTwoCpus:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 8])
    def test_results_in_order(self, n):
        assert checked_map(lambda x: [x * x], range(n)) == ([[x * x] for x in range(n)], 2 if n >= 2 else 1)

    def test_serial_with_one_cpu_or_another_thread(self, affinity):
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert checked_map(lambda x: -x, range(4)) == ([0, -1, -2, -3], 1)
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        affinity.cpus = {0}
        assert checked_map(lambda x: -x, range(4)) == ([0, -1, -2, -3], 1)
        assert affinity.pins == []

    def test_each_process_starts_from_the_state_at_the_call(self):
        seen = []
        assert checked_map(lambda x: seen.append(x) or len(seen), range(6)) == ([1, 2, 3, 1, 2, 3], 2)

    def test_halves_run_pinned_to_the_two_cpus(self, affinity):
        affinity.cpus = {2, 5}
        assert checked_map(lambda x: os.sched_getaffinity(0), range(4)) == ([{2}, {2}, {5}, {5}], 2)
        assert affinity.pins == [{2}, {2, 5}]  # the parent's: its half, then the set restored

    def test_a_larger_set_splits_unpinned(self, affinity):
        affinity.cpus = {0, 1, 2, 3}
        assert checked_map(lambda x: os.sched_getaffinity(0), range(4)) == ([{0, 1, 2, 3}] * 4, 2)
        assert affinity.pins == []

    def test_pinning_is_best_effort(self, monkeypatch):
        def refuse(pid, cpus):
            raise OSError("refused")

        monkeypatch.setattr(os, "sched_setaffinity", refuse)
        assert checked_map(lambda x: x + 1, range(4)) == ([1, 2, 3, 4], 2)

    def test_a_failing_child_leaves_its_half_to_the_parent(self):
        parent = os.getpid()

        def only_in_parent(x):
            if os.getpid() != parent:
                raise ZeroDivisionError("injected")
            return 2 * x

        assert checked_map(only_in_parent, range(5)) == ([0, 2, 4, 6, 8], 2)

    @pytest.mark.parametrize("bad", [{1, 3}, {3}, {0}])
    def test_the_first_error_in_item_order_surfaces(self, bad):
        # in both halves, in the child's only, and in the parent's only
        def check(x):
            if x in bad:
                raise DomainError(f"item {x} is out of domain")
            return x

        with pytest.raises(DomainError, match=f"^item {min(bad)} is out of domain$"):
            checked_map(check, range(4))


def test_map_on_two_cpus_pins_this_process_for_real():
    # the first two CPUs of this process's own affinity set, narrowed to them and restored after
    cpus = os.sched_getaffinity(0)
    if len(cpus) < 2:
        pytest.skip("the affinity set has one CPU")
    pair = sorted(cpus)[:2]
    os.sched_setaffinity(0, pair)
    try:
        assert checked_map(lambda x: os.sched_getaffinity(0), range(4)) == ([{pair[0]}] * 2 + [{pair[1]}] * 2, 2)
    finally:
        os.sched_setaffinity(0, cpus)
    assert os.sched_getaffinity(0) == cpus
