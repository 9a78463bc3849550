import cmath
import math
import random

import pytest

from zetasphere import modulus
from zetasphere.errors import DomainError, PoleError
from zetasphere.modulus import (
    ModulusBreakdown,
    asymptotic_suite,
    central_dx,
    criterion_ratio,
    f_abs_closed,
    f_abs_dx,
    f_abs_product,
    f_factor,
    gamma_abs_dx,
)
from zetasphere.report import DISCREPANCY, PASS
from zetasphere.specfun import gamma
from zetasphere.zeta import zeta_eval

from reference_values import ZERO_ORDINATES


class TestFFactor:
    def test_unit_modulus_on_critical_line(self):
        assert abs(f_factor(0.5 + 0j)) == pytest.approx(1.0, abs=1e-12)

    def test_vanishes_at_negative_even(self):
        assert abs(f_factor(-2 + 0j)) < 1e-10

    def test_functional_consistency(self):
        s = complex(0.3, 2.0)
        lhs = f_factor(s) * zeta_eval(1 - s)
        assert abs(lhs - zeta_eval(s)) <= 1e-9 * abs(zeta_eval(s))

    def test_pole_at_positive_integers(self):
        with pytest.raises(PoleError):
            f_factor(3 + 0j)


class TestFAbsClosed:
    def test_breakdown_recomposes(self):
        b = f_abs_closed(complex(0.3, 2.0))
        assert b.product == pytest.approx(b.two_pow * b.pi_pow * b.sin_abs * b.gamma_abs, rel=1e-12)

    def test_breakdown_invariant_enforced(self):
        with pytest.raises(DomainError):
            ModulusBreakdown(two_pow=1.2, pi_pow=0.5, sin_abs=1.0, gamma_abs=1.0, product=99.0)

    def test_two_route_agreement(self):
        for s in (0.1 + 0.4j, 0.5 + 5j, 0.9 - 12j, 0.25 + 20j):
            assert f_abs_closed(s).product == pytest.approx(abs(f_factor(s)), rel=1e-10)

    def test_critical_line_unity(self):
        for y in (0.0, 1.0, 5.0, 20.0):
            assert f_abs_product(complex(0.5, y)) == pytest.approx(1.0, abs=1e-10)

    def test_sin_bracket_boundary_probe(self):
        # x -> 1, y = 0: the bracket reduces to 4 sin^2(pi/2) = 4, |sin| -> 1
        b = f_abs_closed(complex(1 - 1e-9, 0.0))
        assert b.sin_abs == pytest.approx(1.0, abs=1e-8)

    def test_strip_bounds(self):
        for s in (0.1 + 3j, 0.5 - 7j, 0.9 + 0.2j):
            b = f_abs_closed(s)
            assert 1.0 < b.two_pow < 2.0
            assert 1 / math.pi < b.pi_pow < 1.0

    def test_outside_strip_rejected(self):
        for s in (0j, 1 + 2j, -0.3 + 1j, 1.7 + 0j):
            with pytest.raises(DomainError):
                f_abs_closed(s)


class TestDerivativeFormulas:
    def test_gamma_abs_dx_matches_finite_difference(self):
        h = 1e-5
        for s in (0.3 + 1j, 0.7 - 2j, 0.5 + 0.4j, 0.2 + 3.7j):
            fd = central_dx(lambda u: abs(gamma(1 - u)), s, h)
            assert abs(gamma_abs_dx(s) - fd) <= max(1e-6, 10 * h * h)

    def test_gamma_abs_dx_positive_at_half(self):
        assert gamma_abs_dx(0.5 + 0j) > 0

    def test_gamma_abs_dx_limit_at_origin_is_euler_gamma(self):
        # the printed claim says this limit is 0; the formula (and the
        # finite difference) give +gamma_0, which the report flags
        val = gamma_abs_dx(complex(1e-8, 1e-8))
        assert val == pytest.approx(0.5772156649, abs=1e-6)

    def test_f_abs_dx_positive_at_half(self):
        assert f_abs_dx(0.5 + 0j) > 0

    def test_f_abs_dx_matches_fd_where_bracket_is_one(self):
        # bracket == 1 at y=0, sin^2(pi x/2) = 1/4, i.e. x = 1/3: there the
        # printed 3/2 exponent is harmless and the formula meets the check
        s = complex(1.0 / 3.0, 0.0)
        h = 1e-5
        fd = central_dx(f_abs_product, s, h)
        assert abs(f_abs_dx(s) - fd) <= max(1e-6, 10 * h * h)

    def test_f_abs_dx_printed_form_disagrees_generically(self):
        # documents the suspected misprint: at a generic strip point the
        # verbatim formula misses the central difference by far more than
        # the tolerance (the suite flags these, never repairs them)
        s = complex(0.4, 3.0)
        h = 1e-5
        fd = central_dx(f_abs_product, s, h)
        assert abs(f_abs_dx(s) - fd) > 1e3 * max(1e-6, 10 * h * h)


class TestCriterion:
    def test_first_zero_on_line(self):
        s0 = complex(0.5, ZERO_ORDINATES[0])
        assert criterion_ratio(s0) == pytest.approx(1.0, abs=1e-6)

    def test_generic_on_line(self):
        assert criterion_ratio(complex(0.5, 7.3)) == pytest.approx(1.0, abs=1e-6)

    def test_off_line_matches_f_modulus(self):
        s0 = complex(0.3, 2.0)
        value = criterion_ratio(s0)
        assert value == pytest.approx(f_abs_product(s0), abs=1e-6)
        assert abs(value - 1.0) > 0.1

    @pytest.mark.parametrize("s0, evaluations", [(complex(0.5, 7.3), 8), (complex(0.3, 2.0), 16)])
    def test_each_point_is_evaluated_once(self, monkeypatch, s0, evaluations):
        # on the line the denominator circle is the numerator circle
        calls = []
        monkeypatch.setattr(modulus, "zeta_eval", lambda s: calls.append(s) or zeta_eval(s))
        criterion_ratio(s0)
        assert len(calls) == evaluations

    def test_matches_the_sixteen_evaluation_loop(self):
        rng = random.Random(8)
        for i in range(30):
            x = 0.5 if i % 2 else rng.uniform(0.05, 0.95)
            s0 = complex(x, rng.uniform(-300.0, 300.0))
            total = 0.0
            for j in range(8):
                s = s0 + 1e-4 * cmath.exp(2j * math.pi * j / 8)
                total += abs(zeta_eval(s)) / abs(zeta_eval(1 - s))
            old = total / 8
            assert abs(criterion_ratio(s0) - old) <= 1e-13 * old, s0

    def test_strip_validation(self):
        with pytest.raises(DomainError):
            criterion_ratio(1.5 + 2j)


class TestAsymptoticSuite:
    def test_items_pass(self):
        items = asymptotic_suite()
        assert all(it.status == PASS for it in items), [it for it in items if it.status != PASS]

    def test_product_probe_hits_half_at_finest_eps(self):
        items = {it.name: it for it in asymptotic_suite()}
        finest = items["asymptotic/product-to-half eps=0.0001"]
        assert abs(finest.computed - 0.5) < 1e-3

    def test_f_small_at_finest_eps(self):
        items = {it.name: it for it in asymptotic_suite()}
        assert items["asymptotic/f-to-zero eps=0.0001"].computed < 1e-2
