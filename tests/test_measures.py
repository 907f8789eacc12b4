import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rktlab.cli import validate
from rktlab.errors import DomainError, EvaluationError
from rktlab.measures import (
    Arc,
    AreaDensity,
    BoundaryDensity,
    Measure,
    arclength,
    refine_window_to_arc,
    upper_half_arclength,
    window_infimum_scan,
    window_mass,
    window_masses,
)
from rktlab.numerics import TWO_PI, wrap_angle


def on_arc(arc: Arc, angle: float) -> bool:
    """Closed-arc membership of the angle."""
    return abs(wrap_angle(angle - arc.center + math.pi) - math.pi) <= 0.5 * arc.length


def oracle_window_mass(mu: Measure, arc: Arc, depth: float) -> float:
    """Independent direct implementation: clipped piece-by-piece sums."""
    r_lo = 1.0 - depth
    lo = arc.start
    total = 0.0
    # boundary: integrate the step function by brute subdivision of the arc
    m = 200_000
    ts = lo + (np.arange(m) + 0.5) * (arc.length / m)
    total += float(np.sum(mu.boundary.value_at(ts))) * (arc.length / m)
    for z, mass in mu.atoms:
        if abs(z) == 0.0:
            continue
        ang = math.atan2(z.imag, z.real)
        d = abs((ang - arc.center + math.pi) % TWO_PI - math.pi)
        if abs(z) >= r_lo and d <= arc.length / 2:
            total += mass
    if mu.area is not None:
        for r0, r1, a0, a1, val in mu.area.cells():
            rlo, rhi = max(r0, r_lo), min(r1, 1.0)
            if rhi <= rlo:
                continue
            ts = np.linspace(a0, a1, 20_001)
            inside = np.array([1.0 if on_arc(arc, t) else 0.0 for t in 0.5 * (ts[:-1] + ts[1:])])
            ang_len = float(np.sum(inside)) * (a1 - a0) / 20_000
            total += val * 0.5 * (rhi**2 - rlo**2) * ang_len
    return total


# --- the exact oracle: rational sums over the float arc ends and piece edges


def exact_arc_integral(edges, values, start: float, length: float) -> Fraction:
    """The integral over the arc [start, start+length] of the step function
    equal to values[k] on [edges[k], edges[k+1]), edges[-1] = edges[0] + 2*pi,
    in exact rationals.  The arc ends and the second turn's edges are the
    floats a window mass starts from, so only its sums are under test."""
    e0 = float(edges[0])
    a = wrap_angle(start - e0) + e0
    a, b = Fraction(a), Fraction(a + length)
    e2 = np.concatenate([edges[:-1], edges + TWO_PI]).tolist()
    total = Fraction(0)
    for lo, hi, v in zip(e2[:-1], e2[1:], np.tile(values, 2).tolist()):
        width = min(b, Fraction(hi)) - max(a, Fraction(lo))
        if width > 0:
            total += Fraction(v) * width
    return total


def exact_window_mass(mu: Measure, center: float, length: float, depth: float) -> Fraction:
    """mu(S_{I,h}) in exact rationals, with the atoms tested as window_masses tests them."""
    length, r_lo = min(length, TWO_PI), 1.0 - depth
    arc = Arc(center, length)
    bd = mu.boundary
    total = exact_arc_integral(np.append(bd.breakpoints, bd.breakpoints[0] + TWO_PI), bd.values, arc.start, length)
    for z, mass in mu.atoms:
        az = abs(z)
        if az == 0.0:
            inside = r_lo <= 0.0 and length >= TWO_PI - 1e-15
        else:
            inside = az >= r_lo and on_arc(arc, math.atan2(z.imag, z.real))
        total += Fraction(mass) if inside else 0
    if mu.area is not None:
        rb, ab = mu.area.radial_breaks.tolist(), mu.area.angular_breaks
        row = [Fraction(0)] * ab.size  # the last entry is the gap up to ab[0] + 2*pi
        for i, vals in enumerate(mu.area.values.tolist()):
            hi, lo = Fraction(min(1.0, rb[i + 1])), Fraction(max(r_lo, rb[i]))
            if hi > lo:
                for j, v in enumerate(vals):
                    row[j] += (hi * hi - lo * lo) / 2 * Fraction(v)
        edges = np.minimum(np.append(ab, ab[0] + TWO_PI), ab[0] + TWO_PI)
        total += exact_arc_integral(edges, np.array(row, dtype=object), arc.start, length)
    return total


def assert_near_exact(masses, mu: Measure, centers, length: float, depths) -> None:
    """Each mass within 1e-12 relative of the exact one, and exactly 0 where that is 0."""
    for m, c, h in zip(np.asarray(masses).tolist(), *np.broadcast_arrays(centers, depths)):
        want = exact_window_mass(mu, float(c), length, float(h))
        assert abs(Fraction(m) - want) <= Fraction(1e-12) * want, (m, float(want), c, length, h)


# window endpoints of every generation sit at multiples of 2*pi*2^-13
_dyadic_angle = st.integers(0, 2**13 - 1).map(lambda k: k * TWO_PI * 2.0**-13)
_angle = st.one_of(st.floats(0.0, TWO_PI, exclude_max=True), _dyadic_angle)
# atoms at the origin, on the circle and on the axes, whose atan2 angles
# 0, +-pi/2 and pi are window endpoints from generation 2 on
_atom = st.tuples(
    st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
    st.one_of(st.sampled_from([1.0, 1j, -1.0, -1j]), _angle.map(lambda t: complex(math.cos(t), math.sin(t)))),
    st.floats(1e-3, 2.0),
).map(lambda t: (t[0] * t[1], t[2]))
_breakpoints = st.lists(
    st.one_of(st.just(0.0), st.just(float(np.nextafter(TWO_PI, 0.0))), st.just(TWO_PI - 1e-9), _angle),
    min_size=1,
    max_size=6,
    unique=True,
).map(sorted)


@st.composite
def measures(draw):
    bp = draw(_breakpoints)
    values = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 3.0)), min_size=len(bp), max_size=len(bp)))
    area = None
    if draw(st.booleans()):
        rb = draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=4, unique=True).map(sorted))
        a0 = draw(st.one_of(st.just(0.0), st.floats(-TWO_PI, TWO_PI)))
        ab = [a0] + sorted(draw(st.lists(st.floats(1e-3, TWO_PI), min_size=1, max_size=3, unique=True)))
        ab = [a0] + [a0 + x for x in ab[1:]]
        vals = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 2.0)), min_size=(len(rb) - 1) * (len(ab) - 1),
                             max_size=(len(rb) - 1) * (len(ab) - 1)))
        area = AreaDensity(np.array(rb), np.array(ab), np.array(vals).reshape(len(rb) - 1, len(ab) - 1))
    atoms = tuple(draw(st.lists(_atom, max_size=4)))
    return Measure(atoms=atoms, boundary=BoundaryDensity(np.array(bp), np.array(values)), area=area)


class TestWindowScanBitIdentical:
    """Scanned masses are near the exact ones, and the array scan repeats the
    per-window calls bit for bit."""

    @given(mu=measures(), max_depth=st.integers(1, 12))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_scan_matches_per_window_loop(self, mu, max_depth):
        best, witness, table = math.inf, None, []
        for g in range(1, max_depth + 1):
            length = TWO_PI * 2.0**-g
            centers = 0.5 * length * (1.0 + np.arange(2 ** (g + 1)))
            masses = window_masses(mu, centers, length, min(length, 1.0))
            pick = slice(None, None, 2 ** max(0, g - 5))  # at most 64 windows per generation
            assert masses[pick].tolist() == [window_mass(mu, Arc(c, length), min(length, 1.0)) for c in centers[pick].tolist()]
            assert_near_exact(masses[pick], mu, centers[pick], length, min(length, 1.0))
            i = int(np.argmin(masses / length))
            arc = Arc(float(centers[i]), length)
            table.append((g, float(masses[i] / length), (arc.center, arc.length)))
            if table[-1][1] < best:
                best, witness = table[-1][1], table[-1][2]
        scan = window_infimum_scan(mu, max_depth)
        assert (scan.witness.center, scan.witness.length) == witness and scan.ratio == best
        assert [(g, r, (arc.center, arc.length)) for g, r, arc in scan.table] == table

    @given(mu=measures(), center=_angle, length=st.floats(1e-3, TWO_PI),
           depths=st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=5))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_single_windows_and_depth_lists(self, mu, center, length, depths):
        masses = window_masses(mu, [center], length, depths)
        assert masses.tolist() == [window_mass(mu, Arc(center, length), h) for h in depths]
        assert_near_exact(masses, mu, center, length, depths)


class TestArc:
    def test_wrapping_contains(self):
        arc = Arc(0.0, 1.0)
        assert on_arc(arc, 0.49)
        assert on_arc(arc, -0.49)
        assert not on_arc(arc, 0.51)
        arc2 = Arc(2 * math.pi - 0.1, 0.4)
        assert on_arc(arc2, 0.05)

    def test_invalid(self):
        with pytest.raises(DomainError):
            Arc(0.0, 0.0)
        with pytest.raises(DomainError):
            Arc(0.0, 7.0)

    def test_window_depth_clamped(self):
        # the scan's windows have depth min(|I|, 1): atoms at radius 0.01 lie in
        # every window of generations 1-2 (depth 1) and in none of generation 3
        atoms = tuple((0.01 * np.exp(1j * (k + 0.5) * math.pi / 4), 1.0) for k in range(8))
        ratios = [ratio for _, ratio, _ in window_infimum_scan(Measure(atoms=atoms), 3).table]
        assert ratios[0] > 0.0 and ratios[1] > 0.0 and ratios[2] == 0.0


class TestWindowMass:
    def test_arclength_gives_arc_length(self):
        mu = arclength()
        for arc in (Arc(0.3, 0.7), Arc(5.9, 1.2), Arc(0.0, TWO_PI)):
            for h in (0.1, 0.5, 1.0):
                assert window_mass(mu, arc, h) == pytest.approx(arc.length, rel=1e-13)

    def test_atom_below_depth(self):
        mu = Measure(atoms=((0.5 + 0.0j, 1.0),))
        assert window_mass(mu, Arc(0.0, 1.0), 0.3) == 0.0

    def test_atom_inside_window(self):
        mu = Measure(atoms=((0.5 + 0.0j, 1.0),))
        assert window_mass(mu, Arc(0.0, 0.2), 0.6) == 1.0

    @pytest.mark.parametrize("depth", [0.0, -0.5, 1.5, math.nan])
    def test_depth_outside_unit_interval_rejected(self, depth):
        with pytest.raises(DomainError, match="depths in \\(0, 1\\]"):
            window_mass(arclength(), Arc(0.0, 1.0), depth)

    def test_additivity_over_partition(self):
        mu = Measure(
            atoms=((0.93 * np.exp(0.37j), 0.7), (0.99 * np.exp(2.1j), 0.4)),
            boundary=BoundaryDensity(np.array([0.0, 1.0, 4.0]), np.array([0.3, 1.7, 0.3])),
            area=AreaDensity.constant(0.5),
        )
        arc = Arc(0.8, 1.6)
        h = arc.length / 8
        whole = window_mass(mu, arc, h)
        parts = sum(
            window_mass(mu, Arc(arc.start + (k + 0.5) * arc.length / 8, arc.length / 8), h)
            for k in range(8)
        )
        assert abs(parts - whole) <= 1e-12 * max(1.0, whole)

    def test_oracle_agreement(self):
        mu = Measure(
            atoms=((0.9 * np.exp(1.3j), 0.25),),
            boundary=BoundaryDensity(np.array([0.5, 2.0, 5.0]), np.array([0.2, 1.1, 0.0])),
            area=AreaDensity(
                np.array([0.0, 0.5, 1.0]),
                np.array([0.0, math.pi, TWO_PI]),
                np.array([[0.3, 0.0], [0.1, 0.9]]),
            ),
        )
        for arc, h in ((Arc(1.0, 0.8), 0.4), (Arc(6.0, 1.5), 0.9), (Arc(3.0, 2.5), 1.0)):
            assert window_mass(mu, arc, h) == pytest.approx(oracle_window_mass(mu, arc, h), rel=2e-4)

    @given(
        center=st.floats(0, TWO_PI - 1e-9),
        length=st.floats(0.01, 2.0),
        h1=st.floats(0.05, 0.5),
        h2=st.floats(0.5, 1.0),
    )
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_monotone_in_depth(self, center, length, h1, h2):
        mu = Measure(
            atoms=((0.7 * np.exp(0.9j), 0.5),),
            boundary=BoundaryDensity(np.array([0.0, 3.0]), np.array([0.4, 0.1])),
            area=AreaDensity.constant(0.2),
        )
        arc = Arc(center, length)
        m1 = window_mass(mu, arc, min(h1, h2))
        m2 = window_mass(mu, arc, max(h1, h2))
        assert m1 <= m2 + 1e-12

    @given(center=st.floats(0, TWO_PI - 1e-9), length=st.floats(0.01, 1.0), h=st.floats(0.05, 1.0))
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_monotone_in_arc(self, center, length, h):
        mu = Measure(
            boundary=BoundaryDensity(np.array([0.0, 2.0, 4.0]), np.array([0.5, 0.0, 1.2])),
            area=AreaDensity.constant(0.3),
        )
        small = Arc(center, length)
        big = Arc(center, min(2.0 * length, TWO_PI))
        assert window_mass(mu, small, h) <= window_mass(mu, big, h) + 1e-12


class TestWindowScan:
    def test_arclength_ratio_one(self):
        scan = window_infimum_scan(arclength(), 6)
        assert scan.ratio == pytest.approx(1.0, abs=1e-12)
        for _, ratio, _ in scan.table:
            assert ratio == pytest.approx(1.0, abs=1e-12)

    def test_half_circle_starves(self):
        scan = window_infimum_scan(upper_half_arclength(), 12)
        assert scan.ratio < 2.0**-10
        assert math.pi < scan.witness.center < TWO_PI

    def test_half_plus_atoms_deep_ratio(self):
        # density 1/2 everywhere plus a few boundary atoms: deep arcs that
        # miss every atom see exactly ratio 1/2
        atoms = tuple((np.exp(2j * math.pi * k / 8), 0.05) for k in range(8))
        mu = Measure(atoms=atoms, boundary=BoundaryDensity.constant(0.5))
        scan = window_infimum_scan(mu, 8)
        assert scan.ratio == pytest.approx(0.5, abs=1e-12)
        # brute force over the scanned arcs with the oracle mass
        g = 6
        length = TWO_PI * 2.0**-g
        ratios = []
        for m in range(1, 2 ** (g + 1) + 1):
            arc = Arc(0.5 * length * m, length)
            ratios.append(oracle_window_mass(mu, arc, min(length, 1.0)) / length)
        assert min(ratios) == pytest.approx(0.5, rel=1e-3)

    def test_scan_dominates_boundary_minimum(self):
        mu = Measure(
            boundary=BoundaryDensity(np.array([0.0, 2.5]), np.array([0.8, 1.4])),
            area=AreaDensity.constant(0.1),
        )
        for depth in (2, 5, 9):
            scan = window_infimum_scan(mu, depth)
            assert scan.ratio >= mu.boundary.min_value() - 1e-12

    def test_spread_densities_dominate_boundary_minimum(self):
        # values spanning 10^+-6: a window on a small piece keeps its own mass
        rng = np.random.default_rng(20131)
        for _ in range(200):
            n = int(rng.integers(2, 17))
            bd = BoundaryDensity(np.sort(rng.uniform(0.0, TWO_PI, n)), 10.0 ** rng.uniform(-6.0, 6.0, n))
            c4 = bd.min_value()
            assert window_infimum_scan(Measure(boundary=bd), 12).ratio >= c4 - 1e-9 * max(1.0, c4)

    def test_angular_breaks_past_one_turn(self):
        # breaks spanning 2*pi + 1e-12 close one turn on a monotone edge
        ab = np.array([-1.0, 2.0, TWO_PI - 1.0 + 1e-12])
        mu = Measure(area=AreaDensity(np.array([0.0, 0.5, 1.0]), ab, np.full((2, 2), 0.4)))
        for g in (1, 4, 9):
            length = TWO_PI * 2.0**-g
            h = min(length, 1.0)
            masses = window_masses(mu, 0.5 * length * (1.0 + np.arange(2 ** (g + 1))), length, h)
            assert masses == pytest.approx(0.2 * (1.0 - (1.0 - h) ** 2) * length, rel=1e-12)

    def test_overflowing_masses_raise(self):
        with pytest.raises(EvaluationError, match="overflow at generation 1"):
            window_infimum_scan(arclength(1e308), 2)


class TestBoundaryRN:
    def test_constant(self):
        assert arclength().boundary.min_value() == 1.0

    def test_two_pieces(self):
        mu = Measure(boundary=BoundaryDensity(np.array([0.0, math.pi]), np.array([2.0, 0.5])))
        assert mu.boundary.min_value() == 0.5

    def test_boundary_atoms_flagged(self):
        mu = Measure(atoms=((np.exp(0.4j), 1.0),))
        assert mu.boundary.min_value() == 0.0
        assert mu.has_boundary_atoms()

    def test_interior_atom_not_flagged(self):
        mu = Measure(atoms=((0.5 + 0.0j, 1.0),), boundary=BoundaryDensity.constant(1.0))
        assert mu.boundary.min_value() == 1.0
        assert not mu.has_boundary_atoms()

    @given(center=st.floats(0, TWO_PI - 1e-9), length=st.floats(0.01, 2.0))
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_lower_bound_implies_window_ratio(self, center, length):
        # density >= c forces every window ratio >= c
        mu = Measure(boundary=BoundaryDensity(np.array([0.0, 1.0, 3.0]), np.array([0.7, 1.9, 0.9])))
        arc = Arc(center, length)
        ratio = window_mass(mu, arc, min(length, 1.0)) / arc.length
        assert ratio >= 0.7 - 1e-12


class TestRefineToArc:
    def test_arclength_constant(self):
        masses = refine_window_to_arc(arclength(), Arc(1.0, 0.8), [0.5, 0.25, 0.125])
        assert np.allclose(masses, 0.8)

    def test_area_measure_annulus_formula(self):
        mu = Measure(area=AreaDensity.constant(1.0))
        arc = Arc(0.0, 1.0)
        depths = [0.5, 0.25, 0.125, 0.0625]
        masses = refine_window_to_arc(mu, arc, depths)
        expected = [h * (1.0 - h / 2.0) for h in depths]  # |I| * (1 - (1-h)^2)/2
        assert np.allclose(masses, expected, rtol=1e-14)

    def test_boundary_atom_isolated_in_limit(self):
        mu = Measure(
            atoms=((np.exp(0.2j), 0.3), (0.5 * np.exp(0.2j), 9.0)),
            boundary=BoundaryDensity.constant(1.0),
        )
        arc = Arc(0.2, 0.5)
        masses = refine_window_to_arc(mu, arc, [0.5, 0.1, 0.01, 0.001])
        assert masses[-1] == pytest.approx(0.3 + 0.5, abs=1e-12)
        assert np.all(np.diff(masses) <= 1e-12)

    def test_finite_scale_chain(self):
        # window scan ratio at finite depth bounds the refined arc mass up to
        # the area mass still visible at the scanned depth (<= dens * h_g)
        mu = Measure(
            boundary=BoundaryDensity(np.array([0.0, 2.0]), np.array([1.0, 0.6])),
            area=AreaDensity.constant(0.4),
        )
        depth = 8
        scan = window_infimum_scan(mu, depth)
        h_scan = TWO_PI * 2.0**-depth
        slack = 0.4 * h_scan
        arc = Arc(4.0, 0.3)
        masses = refine_window_to_arc(mu, arc, [0.25, 0.1, 0.01, 0.001])
        assert masses[-1] >= (scan.ratio - slack) * arc.length - 1e-12


class TestSerialization:
    def test_roundtrip(self):
        doc = json.loads(
            """{
              "kind": "windows",
              "max_depth": 4,
              "measure": {
                "atoms": [{"re": 0.3, "im": 0.4, "mass": 1.5}],
                "boundary_density": {"breakpoints": [0.1, 2.0], "values": [0.5, 1.0]},
                "area_density": {"radial_breaks": [0.0, 1.0],
                                 "angular_breaks": [0.0, 6.283185307179586],
                                 "values": [[0.25]]}
              }
            }"""
        )
        mu = Measure(
            atoms=((0.3 + 0.4j, 1.5),),
            boundary=BoundaryDensity(np.array([0.1, 2.0]), np.array([0.5, 1.0])),
            area=AreaDensity(
                np.array([0.0, 1.0]), np.array([0.0, TWO_PI]), np.array([[0.25]])
            ),
        )
        back = validate(doc)["measure"]
        assert back.atoms == mu.atoms
        assert np.array_equal(back.boundary.breakpoints, mu.boundary.breakpoints)
        assert np.array_equal(back.boundary.values, mu.boundary.values)
        assert np.array_equal(back.area.radial_breaks, mu.area.radial_breaks)
        assert np.array_equal(back.area.angular_breaks, mu.area.angular_breaks)
        assert np.array_equal(back.area.values, mu.area.values)
        arc, h = Arc(0.7, 0.9), 0.35
        assert window_mass(back, arc, h) == window_mass(mu, arc, h)

    def test_validation(self):
        with pytest.raises(DomainError):
            Measure(atoms=((1.5 + 0.0j, 1.0),))
        with pytest.raises(DomainError):
            Measure(atoms=((0.5 + 0.0j, -1.0),))
        with pytest.raises(DomainError):
            BoundaryDensity(np.array([0.0, 1.0]), np.array([-0.5, 1.0]))

    @pytest.mark.parametrize("breaks", [[math.nan], [math.nan, 2.0], [0.0, math.nan]])
    def test_nan_breakpoints_refused(self, breaks):
        with pytest.raises(DomainError, match="breakpoints"):
            BoundaryDensity(np.array(breaks), np.ones(len(breaks)))
        with pytest.raises(DomainError, match="radial_breaks"):
            AreaDensity(np.array(breaks + [1.0]), np.array([0.0, 1.0]), np.ones((len(breaks), 1)))
        with pytest.raises(DomainError, match="angular_breaks"):
            AreaDensity(np.array([0.0, 1.0]), np.array(breaks + [6.0]), np.ones((1, len(breaks))))
