import math
from fractions import Fraction

import pytest

from zetasphere.errors import DegreeNotZero, DomainError
from zetasphere.mero import (
    BranchData,
    Divisor,
    RationalMap,
    build_zeta_hat,
    critical_points,
    derivative,
    divisor_add,
    divisor_degree,
    divisor_negate,
    divisor_to_json,
    evaluate,
    partial_fractions,
    preimages,
    principal_divisor,
    rational_from_divisor,
    riemann_hurwitz_check,
    riemann_roch_dims,
    zeta_hat_params,
)
from zetasphere.sphere import INFINITY, is_infinity
from zetasphere.verify import first_zero
from zetasphere.zeta import completed_zeta

from reference_values import C_COMPUTED_ANCHOR, C_PAPER_INPUTS, COMPLETED_HALF, ZERO_ORDINATES

T0 = ZERO_ORDINATES[0]


def zeta_hat_default():
    return build_zeta_hat(T0, COMPLETED_HALF)


class TestDivisors:
    def test_eq26_degree_zero(self):
        d = Divisor({complex(0.5, T0): 1, complex(0.5, -T0): 1, 0j: -1, 1 + 0j: -1})
        assert divisor_degree(d) == 0

    def test_homotopy_divisor_degree_zero(self):
        d = Divisor(
            {
                complex(0.2, 5): 1,
                complex(0.8, 5): 1,
                complex(0.2, -5): 1,
                complex(0.8, -5): 1,
                complex(0.5, T0): 1,
                complex(0.5, -T0): 1,
                0j: -1,
                1 + 0j: -1,
                INFINITY: -4,
            }
        )
        assert divisor_degree(d) == 0

    def test_empty_degree(self):
        assert divisor_degree(Divisor()) == 0

    def test_degree_is_additive(self):
        a = Divisor({0j: 2, INFINITY: -1})
        b = Divisor({1j: 3})
        assert divisor_degree(divisor_add(a, b)) == divisor_degree(a) + divisor_degree(b)

    def test_negate(self):
        a = Divisor({0j: 2, 1j: -5})
        assert divisor_add(a, divisor_negate(a)) == Divisor()

    def test_zero_entries_pruned(self):
        assert len(Divisor({0j: 1, 1j: 0})) == 1



class TestPrincipalDivisor:
    def test_identity_map(self):
        f = RationalMap(constant=1 + 0j, zeros=((0j, 1),))
        d = principal_divisor(f)
        assert d.multiplicity(0j) == 1
        assert d.multiplicity(INFINITY) == -1
        assert divisor_degree(d) == 0

    def test_extra_zeros_give_pole_at_infinity(self):
        f = RationalMap(
            constant=1 + 0j,
            zeros=((1j, 1), (-1j, 1), (2 + 0j, 1), (3 + 0j, 1), (4 + 0j, 1), (5 + 0j, 1)),
            poles=((0j, 1), (1 + 0j, 1)),
        )
        assert principal_divisor(f).multiplicity(INFINITY) == -4

    def test_zeta_hat_infinity_order_zero(self):
        rmap, _ = zeta_hat_default()
        d = principal_divisor(rmap)
        assert d.multiplicity(INFINITY) == 0
        assert divisor_degree(d) == 0

    def test_always_degree_zero(self):
        f = RationalMap(constant=2j, zeros=((5 + 1j, 3),), poles=((0j, 2),))
        assert divisor_degree(principal_divisor(f)) == 0


class TestRationalFromDivisor:
    def test_eq26_shape(self):
        d = Divisor({complex(0.5, T0): 1, complex(0.5, -T0): 1, 0j: -1, 1 + 0j: -1})
        f = rational_from_divisor(d, 1 + 0j)
        assert principal_divisor(f) == d
        assert f.constant == 1

    def test_zero_divisor_gives_constant_map(self):
        f = rational_from_divisor(Divisor(), 3 - 1j)
        assert evaluate(f, 7 + 2j) == 3 - 1j

    def test_degree_one_rejected(self):
        with pytest.raises(DegreeNotZero):
            rational_from_divisor(Divisor({0j: 1}), 1)

    def test_nonzero_infinity_total_rejected(self):
        with pytest.raises(DegreeNotZero):
            rational_from_divisor(Divisor({0j: 1, INFINITY: 1}), 1)

    def test_round_trip_recovers_map(self):
        f = RationalMap(constant=2 - 1j, zeros=((1j, 2), (3 + 0j, 1)), poles=((-1 + 0j, 1), (2 - 2j, 1)))
        g = rational_from_divisor(principal_divisor(f), f.constant)
        assert principal_divisor(g) == principal_divisor(f)
        probe = 0.7 + 0.3j
        assert abs(evaluate(g, probe) - evaluate(f, probe)) < 1e-12 * abs(evaluate(f, probe))


class TestEvaluate:
    def test_zeta_hat_pole(self):
        rmap, _ = zeta_hat_default()
        assert is_infinity(evaluate(rmap, 0j))
        assert is_infinity(evaluate(rmap, 1 + 0j))

    def test_zeta_hat_regular_at_infinity(self):
        rmap, _ = zeta_hat_default()
        assert evaluate(rmap, INFINITY) == rmap.constant

    def test_identity_at_infinity(self):
        f = RationalMap(constant=1 + 0j, zeros=((0j, 1),))
        assert is_infinity(evaluate(f, INFINITY))

    def test_pointing(self):
        rmap, _ = zeta_hat_default()
        value = evaluate(rmap, 0.5 + 0j)
        assert abs(complex(value) - COMPLETED_HALF) <= 4 * 2.3e-16 * abs(COMPLETED_HALF)


# 2 (z - i)^2 / (z (z - 1)): a double zero, balanced, 2 at infinity
DOUBLE_ZERO = RationalMap(2, zeros=((1j, 2),), poles=((0j, 1), (1 + 0j, 1)))


@pytest.mark.filterwarnings("error")
class TestEvaluateFarOut:
    # the factored product overflows from ~1e154 for the double zero and
    # ~2e155 for zeta-hat, though the value does not
    @pytest.mark.parametrize("z", [1e154, 1e200, 1e300, complex(1.3e308, 1.3e308)], ids=str)
    def test_balanced_maps_reach_their_value_at_infinity(self, z):
        for f in (zeta_hat_default()[0], DOUBLE_ZERO):
            at_infinity = evaluate(f, INFINITY)
            assert abs(evaluate(f, z) - at_infinity) <= 1e-15 * abs(at_infinity)

    def test_more_poles_than_zeros_goes_to_zero(self):
        # 1.5 (z - w) / ((z - 2i)^2 (z + 3)) ~ 1.5 / z^2
        f = RationalMap(1.5, zeros=((0.5 + 0.5j, 1),), poles=((2j, 2), (-3 + 0j, 1)))
        assert evaluate(f, 1e100) == pytest.approx(1.5e-200, rel=1e-15)
        assert evaluate(f, 1e200) == 0

    def test_value_past_double_range_is_a_domain_error(self):
        # three more zeros than poles: ~z^3 = 1e600
        f = RationalMap(1, zeros=((1j, 2), (3 + 0j, 1)))
        with pytest.raises(DomainError, match=r"evaluate at s = \(1e\+200\+0j\) leaves double range"):
            evaluate(f, 1e200)

    def test_next_to_a_double_pole_is_a_domain_error(self):
        # (z - p)^2 underflows to 0 at 1e-200 from the pole: ~1e400
        f = RationalMap(2, zeros=((1j, 2),), poles=((1e-200 + 0j, 2),))
        with pytest.raises(DomainError, match="leaves double range"):
            evaluate(f, 2e-200)

    def test_non_finite_argument_is_a_domain_error(self):
        # the point at infinity is INFINITY, not a complex infinity
        with pytest.raises(DomainError, match="evaluate needs a finite argument"):
            evaluate(zeta_hat_default()[0], complex("inf"))


class TestPartialFractions:
    def test_one_over_z(self):
        f = RationalMap(constant=1 + 0j, poles=((0j, 1),))
        pf = partial_fractions(f)
        assert pf.terms == ((0j, 1, 1 + 0j),)
        assert all(abs(c) == 0 for c in pf.polynomial)

    def test_long_division_part(self):
        # (z^2 + 1)/z = z + 1/z
        f = RationalMap(constant=1 + 0j, zeros=((1j, 1), (-1j, 1)), poles=((0j, 1),))
        pf = partial_fractions(f)
        assert pf.polynomial == pytest.approx((0j, 1 + 0j))
        assert pf.terms == ((0j, 1, 1 + 0j),)

    def test_zeta_hat_residues(self):
        rmap, _ = zeta_hat_default()
        pf = partial_fractions(rmap)
        c = rmap.constant
        q = 0.25 + T0 * T0
        coeffs = {pole: coeff for pole, order, coeff in pf.terms}
        assert coeffs[0j] == pytest.approx(-c * q, rel=1e-12)
        assert coeffs[1 + 0j] == pytest.approx(c * (0.25 + T0 * T0), rel=1e-12)
        assert pf.polynomial == pytest.approx((c,))

    def test_reconstruction(self):
        f = RationalMap(constant=2 - 1j, zeros=((1j, 2), (3 + 0j, 1)), poles=((-1 + 0j, 2), (2 - 2j, 1)))
        pf = partial_fractions(f)
        for k in range(50):
            z = complex(4 * math.cos(0.7 * k + 0.1), 4 * math.sin(1.3 * k + 0.2))
            direct = evaluate(f, z)
            assert abs(pf(z) - direct) <= 1e-10 * max(1.0, abs(direct))

    def test_close_double_poles(self):
        # 1/((z-a)^2 (z-b)^2), |a-b| = 0.0756: the residues are -+2/(a-b)^3 exactly
        a, b = -2.515625 + 0j, -2.4399877958764575 + 0j
        f = RationalMap(constant=1 + 0j, poles=((a, 2), (b, 2)))
        coeffs = {(pole, order): coeff for pole, order, coeff in partial_fractions(f).terms}
        assert coeffs[(a, 1)] == pytest.approx(-2 / (a - b) ** 3, rel=1e-14)
        assert coeffs[(b, 1)] == pytest.approx(-2 / (b - a) ** 3, rel=1e-14)
        assert coeffs[(a, 2)] == pytest.approx(1 / (a - b) ** 2, rel=1e-14)
        z = 5.065835467015868 + 1.0926813193728366j
        assert abs(partial_fractions(f)(z) - evaluate(f, z)) <= 1e-10

    def test_near_double_poles_cancel_exactly(self):
        # |a-b| = 2^-8: the order-1 parts are 2^25 and cancel to ~1e-3 at z,
        # so a float sum of the terms is off by ~5e-10
        f = RationalMap(constant=1 + 0j, poles=((0j, 2), (0.00390625j, 2)))
        z = 5.065835467015868 + 1.0926813193728366j
        direct = evaluate(f, z)
        assert abs(partial_fractions(f)(z) - direct) <= 1e-15 * abs(direct)


class TestDerivative:
    def test_zeta_hat_printed_form(self):
        rmap, _ = zeta_hat_default()
        # numerator proportional to q - 2 q s with q = 1/4 + t0^2
        num = derivative(rmap)
        assert len(num) == 2
        assert (num[0] / num[1]).real == pytest.approx(-0.5, abs=1e-13)

    def test_zeta_hat_unique_critical_point(self):
        rmap, _ = zeta_hat_default()
        crit = critical_points(rmap)
        assert len(crit) == 1
        point, mult = crit[0]
        assert point.real == pytest.approx(0.5, abs=1e-9)
        assert mult == 1

    def test_zeta_hat_critical_point_is_exactly_half(self):
        # the computed first zero and completed zeta at 1/2, as in verify and
        # extend; f'/f's numerator is q (1 - 2z) up to rounding in q, so its
        # root is 1/2 to the bit
        rmap, _ = build_zeta_hat(first_zero().ordinate, completed_zeta(0.5 + 0j).real)
        assert critical_points(rmap) == [(0.5, 1)]

    def test_reduced_form_at_repeated_points(self):
        # (z - 2)^4 has f' = 4 (z - 2)^3; (z - 1)^2/(z - 2)^2 has
        # f' = -2 (z - 1)/(z - 2)^3, over the pole at order 3, not 4
        assert derivative(RationalMap(constant=1 + 0j, zeros=((2 + 0j, 4),))) == (-32, 48, -24, 4)
        f = RationalMap(constant=1 + 0j, zeros=((1 + 0j, 2),), poles=((2 + 0j, 2),))
        assert derivative(f) == (2, -2)

    def test_constant_map_has_no_critical_points(self):
        assert critical_points(RationalMap(constant=5 + 0j)) == []

    def test_square_map(self):
        f = RationalMap(constant=1 + 0j, zeros=((0j, 2),))
        crit = critical_points(f)
        assert len(crit) == 1 and abs(crit[0][0]) < 1e-12

    def test_repeated_zero_is_critical(self):
        # (z - a)^h: a critical point of multiplicity h - 1 at a, exactly,
        # where the roots of a coefficient form scatter by ~eps^(1/(h-1))
        f = RationalMap(constant=1 + 0j, zeros=((2 + 0j, 4),))
        assert critical_points(f) == [(2 + 0j, 3)]

    @pytest.mark.parametrize("zero, order, point", [(2 + 0j, 2, 4.0), (1 + 0j, 3, 1.5)])
    def test_repeated_pole_is_not_critical(self, zero, order, point):
        # (z - a)/z^k: f'/f = 1/(z - a) - k/z vanishes only at k a/(k - 1),
        # never at the pole
        crit = critical_points(RationalMap(constant=1 + 0j, zeros=((zero, 1),), poles=((0j, order),)))
        assert len(crit) == 1
        assert crit[0][0] == pytest.approx(point, abs=1e-12) and crit[0][1] == 1

    def test_repeated_pole_off_the_origin_is_not_critical(self):
        # (z - 1)/(z - 2)^4: only (4 - 2)/3 = 2/3; a coefficient form has a
        # triple root at the pole, which its roots scatter
        crit = critical_points(RationalMap(constant=1 + 0j, zeros=((1 + 0j, 1),), poles=((2 + 0j, 4),)))
        assert len(crit) == 1
        assert crit[0][0] == pytest.approx(2 / 3, abs=1e-12) and crit[0][1] == 1


class TestPreimages:
    def test_generic_value_two_preimages(self):
        rmap, _ = zeta_hat_default()
        pre = preimages(rmap, 1 + 1j)
        assert len(pre) == 2 and all(m == 1 for _, m in pre)

    def test_branch_value_single_preimage(self):
        rmap, _ = zeta_hat_default()
        pre = preimages(rmap, evaluate(rmap, 0.5 + 0j))
        assert len(pre) == 1
        point, mult = pre[0]
        assert point.real == pytest.approx(0.5, abs=1e-7) and mult == 2

    def test_value_at_infinity_single_preimage(self):
        rmap, _ = zeta_hat_default()
        pre = preimages(rmap, rmap.constant)
        assert len(pre) == 1 and is_infinity(pre[0][0]) and pre[0][1] == 2

    @pytest.mark.parametrize(
        "w, message",
        [
            (complex("nan"), "preimages needs a finite argument"),
            (complex("inf"), "preimages needs a finite argument"),
            # N - wD is finite here, but its roots' companion matrix is not,
            # and N/w overflows
            (complex(1e308, 1e308), r"preimages of w = \(1e\+308\+1e\+308j\) leave double range"),
        ],
        ids=str,
    )
    def test_a_value_out_of_reach_is_a_domain_error(self, w, message):
        with pytest.raises(DomainError, match=message):
            preimages(zeta_hat_default()[0], w)

    def test_zero_preimages_are_zeros(self):
        # a repeated zero, which the roots of a coefficient form would split
        # into five points up to 1.5e-3 apart
        f = RationalMap(constant=1 + 0j, zeros=((2 + 0j, 5),))
        assert preimages(f, 0) == [(2 + 0j, 5)]

    def test_zero_preimages_include_infinity_past_the_zeros(self):
        # (z - 2)/z^3: one zero, three poles, so infinity goes to 0 twice
        f = RationalMap(constant=1 + 0j, zeros=((2 + 0j, 1),), poles=((0j, 3),))
        assert preimages(f, 0j) == [(2 + 0j, 1), (INFINITY, 2)]

    def test_infinity_preimages_are_poles(self):
        rmap, _ = zeta_hat_default()
        pre = preimages(rmap, INFINITY)
        assert sorted(p.real for p, _ in pre) == pytest.approx([0.0, 1.0])

    def test_infinity_preimages_include_infinity_past_the_poles(self):
        # z^3 / (z - 1): three zeros, one pole, so infinity goes to itself twice
        f = RationalMap(constant=1 + 0j, zeros=((0j, 3),), poles=((1 + 0j, 1),))
        assert preimages(f, INFINITY) == [(1 + 0j, 1), (INFINITY, 2)]

    def test_value_at_infinity_with_more_poles_than_zeros(self):
        f = RationalMap(constant=3 + 0j, zeros=((2 + 0j, 1),), poles=((0j, 1), (1 + 0j, 1)))
        assert evaluate(f, INFINITY) == 0


class TestRiemannHurwitzRoch:
    def test_zeta_hat_formula(self):
        _, bd = zeta_hat_default()
        assert bd.degree == 2 and bd.total_b == 2
        assert riemann_hurwitz_check(bd, 2, 2)

    def test_biholomorphism(self):
        bd = BranchData(degree=1, ramification=())
        assert riemann_hurwitz_check(bd, 2, 2)

    def test_odd_b_rejected(self):
        bd = BranchData(degree=2, ramification=((0.5 + 0j, 2),))
        assert not riemann_hurwitz_check(bd, 2, 2)

    def test_riemann_roch_rows(self):
        assert riemann_roch_dims(Divisor()) == (1, 0)
        assert riemann_roch_dims(Divisor({INFINITY: -2})) == (0, 1)
        assert riemann_roch_dims(Divisor({0j: -3}))[0] == 0

    def test_riemann_roch_identity(self):
        for d in (Divisor({0j: 4}), Divisor({1j: 1, INFINITY: -3}), Divisor({0j: -1})):
            l_dim, i_dim = riemann_roch_dims(d)
            assert l_dim - i_dim == divisor_degree(d) + 1


class TestBuildZetaHat:
    def test_paper_inputs_constant(self):
        rmap, _ = build_zeta_hat(14.1347, complex(-0.05438))
        # independent arithmetic oracle: exact rationals of the printed inputs
        oracle = Fraction(5438, 100000) / (4 * Fraction(141347, 10000) ** 2)
        assert float(oracle) == pytest.approx(C_PAPER_INPUTS, rel=1e-15)
        assert rmap.constant.real == pytest.approx(float(oracle), rel=1e-9)
        assert abs(rmap.constant.imag) < 1e-20

    def test_computed_anchor_constant(self):
        rmap, _ = zeta_hat_default()
        assert rmap.constant.real == pytest.approx(C_COMPUTED_ANCHOR, rel=1e-8)

    def test_divisor_is_eq26(self):
        rmap, _ = zeta_hat_default()
        expected = Divisor({complex(0.5, T0): 1, complex(0.5, -T0): 1, 0j: -1, 1 + 0j: -1})
        assert principal_divisor(rmap) == expected

    def test_branch_data(self):
        _, bd = zeta_hat_default()
        points = {("inf" if is_infinity(p) else complex(p).real): e for p, e in bd.ramification}
        assert points.get("inf") == 2
        finite = [e for p, e in bd.ramification if not is_infinity(p)]
        assert finite == [2]

    def test_rejects_nonpositive_ordinate(self):
        with pytest.raises(DomainError):
            build_zeta_hat(-1.0, complex(-0.05438))
        with pytest.raises(DomainError):
            build_zeta_hat(0.0, complex(-0.05438))

    def test_params_json_block(self):
        rmap, bd = zeta_hat_default()
        params = zeta_hat_params(rmap, bd)
        assert params["degree"] == 2
        assert params["total_branching_index"] == 2
        assert len(params["zeros"]) == 2 and len(params["poles"]) == 2
        expected = Divisor({complex(0.5, T0): 1, complex(0.5, -T0): 1, 0j: -1, 1 + 0j: -1})
        assert params["divisor"] == divisor_to_json(expected)


class TestRationalMapValidation:
    def test_zero_constant_rejected(self):
        with pytest.raises(DomainError):
            RationalMap(constant=0j)

    def test_shared_point_rejected(self):
        with pytest.raises(DomainError):
            RationalMap(constant=1 + 0j, zeros=((1j, 1),), poles=((1j, 1),))

    def test_duplicate_listing_rejected(self):
        with pytest.raises(DomainError):
            RationalMap(constant=1 + 0j, zeros=((1j, 1), (1j, 1)))
