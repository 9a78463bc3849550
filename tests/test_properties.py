"""Randomized identity batteries (the 200-case properties)."""

import math

from hypothesis import example, given, settings, strategies as st

from zetasphere.flow import FlowParams, flow_map, transport_divisor
from zetasphere.mero import (
    Divisor,
    RationalMap,
    critical_points,
    divisor_add,
    divisor_degree,
    divisor_negate,
    partial_fractions,
    preimages,
    principal_divisor,
    rational_from_divisor,
    evaluate,
)
from zetasphere.sphere import INFINITY, covering_a, is_infinity, sector_retraction, stereo_lift, stereo_project
from zetasphere.specfun import gamma, reflection_residual
from zetasphere.zeta import zeta_eval

from reference_values import ZERO_ORDINATES

BATTERY = settings(max_examples=200, deadline=None)

finite_complex = st.builds(
    complex,
    st.floats(min_value=-8, max_value=8, allow_nan=False),
    st.floats(min_value=-8, max_value=8, allow_nan=False),
)

strip_points = st.builds(
    complex,
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=-10, max_value=10),
)

divisor_entries = st.dictionaries(
    st.one_of(
        st.just(INFINITY),
        st.builds(complex, st.integers(-5, 5).map(float), st.integers(-5, 5).map(float)),
    ),
    st.integers(min_value=-4, max_value=4),
    max_size=6,
)


def distinct_points(points, min_gap=1e-3):
    kept = []
    for p in points:
        if all(abs(p - q) > min_gap for q in kept):
            kept.append(p)
    return kept


small_maps = st.builds(
    lambda c, zs, ps, mults: _make_map(c, zs, ps, mults),
    st.complex_numbers(min_magnitude=0.1, max_magnitude=5, allow_nan=False, allow_infinity=False),
    st.lists(finite_complex, min_size=0, max_size=3),
    st.lists(finite_complex, min_size=0, max_size=3),
    st.lists(st.integers(1, 2), min_size=6, max_size=6),
)


def _make_map(c, zs, ps, mults):
    zs = distinct_points(zs)
    ps = [p for p in distinct_points(ps) if all(abs(p - z) > 1e-3 for z in zs)]
    zeros = tuple((z, mults[i]) for i, z in enumerate(zs))
    poles = tuple((p, mults[3 + i]) for i, p in enumerate(ps))
    return RationalMap(constant=c, zeros=zeros, poles=poles)


# repeated zeros and poles up to order 4, where roots of a coefficient form
# scatter by ~eps^(1/3)
ramified_maps = st.builds(
    _make_map,
    st.complex_numbers(min_magnitude=0.1, max_magnitude=5, allow_nan=False, allow_infinity=False),
    st.lists(finite_complex, min_size=0, max_size=3),
    st.lists(finite_complex, min_size=0, max_size=3),
    st.lists(st.integers(1, 4), min_size=6, max_size=6),
)


class TestGammaBatteries:
    @BATTERY
    @given(strip_points)
    def test_reflection_on_strip(self, s):
        assert reflection_residual(s) < 1e-10

    @BATTERY
    @given(finite_complex)
    def test_conjugate_symmetry(self, s):
        if abs(s.imag) < 1e-6 and abs(s.real - round(s.real)) < 1e-6 and s.real < 0.5:
            return
        lhs = gamma(s.conjugate())
        rhs = gamma(s).conjugate()
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    @BATTERY
    @given(finite_complex)
    @example(complex(-2.00001, 0))
    def test_recurrence(self, s):
        near_pole = abs(s.imag) < 1e-5 and s.real < 0.6 and abs(s.real - round(s.real)) < 1e-5
        if near_pole or abs(s) < 1e-6:
            return
        lhs = gamma(s + 1)
        assert abs(lhs - s * gamma(s)) <= 1e-11 * abs(lhs)


class TestZetaBatteries:
    @BATTERY
    @given(strip_points)
    def test_conjugate_symmetry(self, s):
        lhs = zeta_eval(s.conjugate())
        rhs = zeta_eval(s).conjugate()
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


class TestDivisorBatteries:
    @BATTERY
    @given(divisor_entries, divisor_entries)
    def test_degree_homomorphism(self, a_entries, b_entries):
        a, b = Divisor(a_entries), Divisor(b_entries)
        assert divisor_degree(divisor_add(a, b)) == divisor_degree(a) + divisor_degree(b)
        assert divisor_degree(divisor_negate(a)) == -divisor_degree(a)

    @BATTERY
    @given(small_maps)
    def test_principal_divisor_degree_zero(self, f):
        assert divisor_degree(principal_divisor(f)) == 0

    @BATTERY
    @given(small_maps)
    def test_divisor_of_product_adds(self, f):
        # multiply f by itself: divisor doubles (product of maps adds divisors)
        doubled = RationalMap(
            constant=f.constant * f.constant,
            zeros=tuple((z, 2 * h) for z, h in f.zeros),
            poles=tuple((p, 2 * k) for p, k in f.poles),
        )
        lhs = principal_divisor(doubled)
        rhs = divisor_add(principal_divisor(f), principal_divisor(f))
        assert lhs == rhs

    @BATTERY
    @given(small_maps)
    def test_divisor_of_quotient_subtracts(self, f):
        # f / f has the zero divisor; in factored terms zeros and poles swap
        inverted = RationalMap(constant=1 / f.constant, zeros=f.poles, poles=f.zeros)
        total = divisor_add(principal_divisor(f), principal_divisor(inverted))
        assert total == Divisor()

    @BATTERY
    @given(small_maps)
    def test_rational_from_divisor_round_trip(self, f):
        g = rational_from_divisor(principal_divisor(f), f.constant)
        assert principal_divisor(g) == principal_divisor(f)

    @BATTERY
    @given(small_maps, st.integers(0, 17))
    def test_partial_fraction_reconstruction(self, f, seed):
        pf = partial_fractions(f)
        z = complex(5.5 * math.cos(0.9 * seed + 0.4), 5.5 * math.sin(1.7 * seed + 0.2))
        if any(abs(z - p) < 1e-2 for p, _ in f.poles):
            return
        direct = evaluate(f, z)
        assert abs(pf(z) - direct) <= 1e-10 * max(1.0, abs(direct))

    @BATTERY
    @given(ramified_maps)
    def test_riemann_hurwitz_over_the_sphere(self, f):
        # chi = 2 on both spheres, so the ramification over the finite
        # critical points, the poles and infinity sums to 2 deg - 2
        if f.degree == 0:
            return
        finite = sum(m for _, m in critical_points(f))
        at_poles = sum(k - 1 for _, k in f.poles)
        over_f_inf = preimages(f, evaluate(f, INFINITY))
        e_inf = next((m for p, m in over_f_inf if is_infinity(p)), 1)
        assert finite + at_poles + e_inf - 1 == 2 * f.degree - 2


class TestSphereBatteries:
    @BATTERY
    @given(st.builds(complex, st.floats(-50, 50), st.floats(-50, 50)))
    def test_stereo_round_trip(self, z):
        p = stereo_lift(z)
        assert p.constraint_residual() < 1e-12
        back = stereo_project(p)
        assert abs(back - z) <= 1e-12 * max(1.0, abs(z))

    @BATTERY
    @given(st.floats(-20, 20), st.floats(-20, 20), st.integers(-5, 5))
    def test_covering_fiber_invariance(self, x, y, n):
        a = covering_a(complex(x, y))
        b = covering_a(complex(x, y + n))
        assert a.x0 == b.x0
        gap = abs(a.phase - b.phase) % 1.0
        assert min(gap, 1.0 - gap) < 1e-12 * (1 + abs(y) + abs(n))

    @BATTERY
    @given(st.floats(-60, 60), st.floats(-60, 60))
    def test_sector_retraction_monotone_and_x_fixed(self, y1, y2):
        ords = list(ZERO_ORDINATES[:5])
        if abs(y1 - y2) < 1e-9:
            return
        lo, hi = sorted((y1, y2))
        a = sector_retraction(complex(0.3, lo), ords)
        b = sector_retraction(complex(0.3, hi), ords)
        assert a.real == 0.3 and b.real == 0.3
        assert a.imag < b.imag


class TestFlowBatteries:
    @BATTERY
    @given(divisor_entries, st.floats(0, 1), st.floats(0.05, 0.45))
    def test_transport_preserves_degree(self, entries, t, a):
        d = Divisor(entries)
        moved = transport_divisor(FlowParams(a=a, t=t), d)
        assert divisor_degree(moved) == divisor_degree(d)

    @BATTERY
    @given(strip_points, st.floats(0, 1))
    def test_contraction_toward_line(self, z, t):
        p = FlowParams(a=0.1, t=t)
        before = abs(z.real - 0.5)
        after = abs(flow_map(p, z).real - 0.5)
        assert after <= before + 1e-15
