import cmath
import math
import time

import pytest

from zetasphere import specfun
from zetasphere.errors import DomainError, PoleError, ZetasphereError
from zetasphere.specfun import (
    EULER_GAMMA,
    digamma,
    digamma_series_reference,
    gamma,
    gamma_abs_critical,
    gamma_abs_unit,
    loggamma,
    psi_pair,
    psi_pair_series,
    reflection_residual,
)

from reference_values import (
    ABS_GAMMA_FAR,
    ABS_GAMMA_HALF_PLUS_I,
    ABS_GAMMA_ONE_PLUS_I,
    DIGAMMA_FAR,
    DIGAMMA_ONE,
    DIGAMMA_SERIES,
    DIGAMMA_TWO,
    GAMMA_HALF_PLUS_I,
    GAMMA_NEAR_POLES,
    GAMMA_QUARTER,
    GAMMA_SEAMS,
    LOGGAMMA_STRIP,
    LOGGAMMA_VERTICAL,
)


class TestGamma:
    def test_gamma_one_is_factorial_zero(self):
        assert gamma(1 + 0j) == pytest.approx(1.0, abs=1e-14)

    def test_gamma_quarter(self):
        assert gamma(0.25 + 0j).real == pytest.approx(GAMMA_QUARTER, rel=1e-13)

    def test_gamma_half_plus_i(self):
        g = gamma(complex(0.5, 1.0))
        assert abs(g - GAMMA_HALF_PLUS_I) < 1e-13
        assert abs(g) == pytest.approx(math.sqrt(math.pi / math.cosh(math.pi)), rel=1e-12)

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 5])
    def test_pole_carries_index_and_residue(self, k):
        with pytest.raises(PoleError) as exc:
            gamma(complex(-k, 0.0))
        assert exc.value.index == k
        assert exc.value.residue == (-1.0) ** k / math.factorial(k)

    @pytest.mark.parametrize("k", [171, 200, 1e6, 1e17, 1e308])
    def test_far_pole_is_typed_and_prompt(self, k):
        # k! is no double past k = 170 and takes seconds to form at 1e6;
        # lgamma(k + 1) overflows from k ~ 2.5e305
        for fn in (gamma, loggamma):
            start = time.perf_counter()
            with pytest.raises(PoleError) as exc:
                fn(-k)
            assert time.perf_counter() - start < 0.1
            assert exc.value.index == int(k)
            assert abs(exc.value.residue) < 1e-300

    @pytest.mark.parametrize("s, value", GAMMA_SEAMS)
    def test_either_side_of_the_route_seams(self, s, value):
        # measured: at most 1.5e-13, the Lanczos set's own error
        assert abs(gamma(s) - value) <= 3e-13 * abs(value)

    @pytest.mark.parametrize("s, value, log_value, psi", GAMMA_NEAR_POLES)
    def test_next_to_poles(self, s, value, log_value, psi):
        # the reflection's sin(pi s) is taken about the nearest integer
        assert abs(gamma(s) - value) <= 1e-13 * abs(value)
        assert abs(digamma(s) - psi) <= 1e-13 * abs(psi)
        diff = loggamma(s) - log_value
        turns = round(diff.imag / (2 * math.pi))
        assert abs(diff - 2j * math.pi * turns) <= 1e-13 * abs(log_value)

    @pytest.mark.parametrize("s, log_value", LOGGAMMA_STRIP)
    def test_loggamma_in_the_left_half_strip(self, s, log_value):
        # taken as log Gamma(s + 1) - log s
        diff = loggamma(s) - log_value
        turns = round(diff.imag / (2 * math.pi))
        assert abs(diff - 2j * math.pi * turns) <= 1e-13 * abs(log_value)

    @pytest.mark.parametrize("s, log_value", LOGGAMMA_VERTICAL)
    def test_loggamma_is_the_continuous_branch_up_vertical_lines(self, s, log_value):
        # no 2 pi turns removed: the rectangle count takes a vertical edge
        # as a difference of these logs
        assert abs(loggamma(s) - log_value) <= 1e-12 * max(1.0, abs(log_value))

    def test_near_pole_large_value_is_not_an_error(self):
        # 1e-9 away from the pole is outside the 1e-12 detection window
        assert abs(gamma(complex(-3, 1e-9))) > 1e6

    def test_recurrence(self):
        for s in (0.25 + 0j, -1.5 + 0.4j, 4 + 9j, -7.3 - 2j, 12 - 12j):
            assert abs(gamma(s + 1) - s * gamma(s)) <= 1e-11 * abs(gamma(s + 1))

    def test_conjugate_symmetry(self):
        for s in (0.3 + 2j, 1.7 - 5j, -2.4 + 1.3j, 0.5 + 14.1j):
            lhs = gamma(s.conjugate())
            rhs = gamma(s).conjugate()
            assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    def test_decay_law_at_03_40(self):
        s = complex(0.3, 40.0)
        value = abs(gamma(s)) * 40.0 ** (0.5 - 0.3) * math.exp(math.pi * 20.0)
        assert value == pytest.approx(math.sqrt(2 * math.pi), rel=0.01)

    def test_loggamma_consistent_with_gamma(self):
        for s in (0.25 + 0j, 3 - 2j, 0.5 + 30j, -1.2 + 0.7j):
            assert abs(cmath.exp(loggamma(s)) - gamma(s)) <= 1e-12 * abs(gamma(s))

    def test_large_imaginary_part_no_overflow(self):
        g = gamma(complex(0.25, 250.0))
        assert 0 < abs(g) < 1e-100

    def test_large_real_part_past_power_overflow(self):
        # t^(s-1/2) in the Lanczos product overflows from Re s ~ 142.2
        for x in (150.0, 160.0):
            assert abs(gamma(x) - math.gamma(x)) <= 1e-13 * math.gamma(x)

    @pytest.mark.parametrize("x", [-150.5, -143.7])
    def test_far_left_of_the_reflection(self, x):
        # Gamma(1 - s) alone overflows from Re s ~ -142; Gamma(s) there is
        # taken in log space
        assert abs(gamma(x).real - math.gamma(x)) <= 1e-13 * abs(math.gamma(x))

    def test_value_beyond_double_range_is_typed(self):
        with pytest.raises(ZetasphereError):
            gamma(172.0)

    @pytest.mark.parametrize("s", [complex(math.nan, 0.0), complex(1.0, math.inf), complex(-math.inf, 0.0)])
    def test_non_finite_argument(self, s):
        with pytest.raises(DomainError):
            gamma(s)
        with pytest.raises(DomainError):
            loggamma(s)
        for fn in (digamma_series_reference, psi_pair_series, reflection_residual):
            with pytest.raises(DomainError, match=fn.__name__):
                fn(s)


class TestClosedFormModuli:
    def test_critical_modulus_at_zero(self):
        assert gamma_abs_critical(0.0) == pytest.approx(math.sqrt(math.pi), abs=1e-15)

    def test_critical_modulus_even(self):
        assert gamma_abs_critical(3.7) == gamma_abs_critical(-3.7)

    def test_critical_modulus_value(self):
        assert gamma_abs_critical(1.0) == pytest.approx(ABS_GAMMA_HALF_PLUS_I, rel=1e-12)

    def test_critical_modulus_matches_gamma_to_1e10(self):
        for y in [k * 0.5 for k in range(-100, 101)]:
            lhs = gamma_abs_critical(y)
            rhs = abs(gamma(complex(0.5, y)))
            assert abs(lhs - rhs) <= 1e-10 * lhs

    def test_unit_modulus_limit(self):
        assert gamma_abs_unit(0.0) == 1.0
        assert gamma_abs_unit(1e-12) == 1.0

    def test_unit_modulus_value(self):
        assert gamma_abs_unit(1.0) == pytest.approx(ABS_GAMMA_ONE_PLUS_I, rel=1e-12)

    def test_unit_modulus_matches_gamma(self):
        for y in (0.5, 1.0, 2.0, -7.5, 20.0, 50.0):
            assert abs(gamma_abs_unit(y) - abs(gamma(complex(1.0, y)))) <= 1e-10 * gamma_abs_unit(y)

    @pytest.mark.parametrize("y", [475.0, 2.9e307, 5.7e307, 1.26e308, -1.79e308])
    def test_unit_modulus_is_zero_far_out(self, y):
        # 0.0 from |y| ~ 475 on, also where sqrt(2 pi |y|) and pi |y| are inf
        assert gamma_abs_unit(y) == 0.0

    @pytest.mark.parametrize("y, critical, unit", ABS_GAMMA_FAR)
    def test_moduli_where_the_exponential_underflows(self, y, critical, unit):
        # e^(-pi y) is subnormal at y = 230 and 0 from y ~ 238 on
        for sign in (1, -1):
            assert gamma_abs_critical(sign * y) == pytest.approx(critical, rel=1e-13, abs=0)
            assert gamma_abs_unit(sign * y) == pytest.approx(unit, rel=1e-13, abs=0)


class TestReflection:
    def test_half(self):
        assert reflection_residual(0.5 + 0j) < 1e-12

    def test_generic_strip_point(self):
        assert reflection_residual(complex(0.3, 0.7)) < 1e-10

    def test_grid(self):
        for i in range(10):
            for j in range(10):
                s = complex(0.05 + 0.9 * i / 9, -10 + 20 * (j + 0.5) / 10)
                assert reflection_residual(s) < 1e-10

    def test_integer_rejected(self):
        with pytest.raises(DomainError):
            reflection_residual(2 + 0j)

    @pytest.mark.parametrize("s", [complex(0.5, 230.0), complex(0.5, 1000.0), complex(0.1, -600.0)])
    def test_past_sine_overflow(self, s):
        # sin(pi s) alone overflows from |Im s| ~ 226
        assert reflection_residual(s) < 1e-10

    @pytest.mark.parametrize("x", [0.05, 0.1, 0.5, 0.9])
    def test_height_limit(self, x):
        # the contract holds up to |Im s| = 1e4 and the next double past it raises
        for t in (1e4, -1e4):
            assert reflection_residual(complex(x, t)) < 1e-10
            with pytest.raises(DomainError, match="reflection residual"):
                reflection_residual(complex(x, math.nextafter(t, 2 * t)))

    @pytest.mark.parametrize(
        "s",
        [complex(1.5, 2.0), complex(-0.5, 3.0), complex(1.8528503476184187e18, -2462.416861073777)],
        ids=["right", "left", "far-right"],
    )
    def test_off_strip_rejected(self, s):
        # off the strip one Gamma is the other reflected, so they cancel
        with pytest.raises(DomainError, match="reflection_residual"):
            reflection_residual(s)


class TestDigamma:
    def test_at_one(self):
        assert digamma(1 + 0j).real == pytest.approx(DIGAMMA_ONE, abs=1e-14)

    def test_at_two_via_recurrence_value(self):
        assert digamma(2 + 0j).real == pytest.approx(DIGAMMA_TWO, abs=1e-14)

    def test_pole(self):
        with pytest.raises(PoleError):
            digamma(0j)

    def test_series_cross_check(self):
        for s in (1 + 0j, 2 + 0j, 0.3 + 0.7j, 0.5 - 2j):
            assert abs(digamma(s) - digamma_series_reference(s)) < 1e-7

    def test_recurrence(self):
        for s in (0.7 + 0j, 1.4 + 2j, 0.2 - 5j):
            assert abs(digamma(s + 1) - (digamma(s) + 1 / s)) < 1e-12

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("s, psi", DIGAMMA_FAR)
    def test_far_from_the_origin(self, s, psi):
        # past ~1.34e154 in both parts s * s is inf - inf
        assert abs(digamma(s) - psi) <= 1e-15 * abs(psi)
        assert psi_pair(s) == pytest.approx(2 * psi.real, rel=1e-15)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("s", [complex(1.7e308, 1.7e308), complex(-1.79e308, 1.79e308)])
    def test_finite_to_the_end_of_double_range(self, s):
        # |s| itself overflows there
        value = digamma(s)
        assert math.isfinite(value.real) and math.isfinite(value.imag)
        assert 709 < value.real < 711


class TestPsiPair:
    def test_real_argument_doubles_digamma(self):
        assert psi_pair(1.5 + 0j) == pytest.approx(2 * digamma(1.5 + 0j).real, abs=1e-14)

    def test_at_one(self):
        assert psi_pair(1 + 0j) == pytest.approx(-1.1544313298030658, abs=1e-12)

    def test_result_is_real_float(self):
        assert isinstance(psi_pair(0.3 + 2j), float)

    def test_series_cross_check(self):
        for s in (1 + 0j, 0.5 + 2j, 0.8 - 1j):
            assert abs(psi_pair(s) - psi_pair_series(s)) < 1e-7


class TestSeriesSummation:
    # the points of the gamma suite's series cross-checks
    DIGAMMA_POINTS = (1 + 0j, 2 + 0j, 0.3 + 0.7j)
    PSI_POINTS = (1 + 0j, 0.5 + 2j)

    def test_default_terms_agree_with_digamma(self):
        for s in self.DIGAMMA_POINTS:
            assert abs(digamma(s) - digamma_series_reference(s)) < 1e-14
        for s in self.PSI_POINTS:
            assert abs(psi_pair(s) - psi_pair_series(s)) < 1e-14

    @pytest.mark.parametrize("s, psi", DIGAMMA_SERIES)
    def test_both_series_match_mpmath(self, s, psi):
        # the suite's points, left of the poles, far off the axis, and at
        # |s| >> _SERIES_TERMS, where the tail carries most of the sum
        bound = 4e-15 * max(1.0, abs(psi))
        assert abs(digamma_series_reference(s) - psi) <= bound
        assert abs(psi_pair_series(s) - 2 * psi.real) <= bound

    def test_exact_zero_series_at_one(self, monkeypatch):
        # every summand is exactly 0 at s = 1, so no block is built
        blocks = []
        arange = specfun.np.arange
        monkeypatch.setattr(specfun.np, "arange", lambda *a, **k: blocks.append(a) or arange(*a, **k))
        assert digamma_series_reference(1) == -EULER_GAMMA
        assert psi_pair_series(1) == -2 * EULER_GAMMA
        assert blocks == []
        monkeypatch.setattr(specfun, "_SERIES_TERMS", 10)
        digamma_series_reference(2)
        assert len(blocks) == 1

    @pytest.mark.filterwarnings("error")
    def test_overflowing_argument_rejected_before_any_block(self, monkeypatch):
        # past |s| ~ 1.05e152 ((n + x)^2 + y^2)(n + 1) overflows the block arithmetic
        blocks = []
        arange = specfun.np.arange
        monkeypatch.setattr(specfun.np, "arange", lambda *a, **k: blocks.append(a) or arange(*a, **k))
        for s in (1e160, complex(0.5, -1e160)):
            for fn in (digamma_series_reference, psi_pair_series):
                with pytest.raises(DomainError, match=fn.__name__):
                    fn(s)
        assert blocks == []

    @pytest.mark.filterwarnings("error")
    def test_largest_arguments_stay_finite(self):
        # at 0.9 _SERIES_MAX_ARG the block and the tail's quotients stay in double range
        r = 0.9 * specfun._SERIES_MAX_ARG
        for s in (complex(r, 0.0), complex(0.5, -r), r * cmath.exp(0.7j)):
            psi = digamma(s)
            assert abs(digamma_series_reference(s) - psi) <= 1e-15 * abs(psi)
            assert abs(psi_pair_series(s) - 2 * psi.real) <= 1e-15 * abs(psi)

    def test_tail_near_its_pole_rejected(self):
        # Re s < -4096 with |Im s| < 4096 puts the tail's path [8192, inf)
        # near the summand's pole at n = -s
        for s in (-8192.3, complex(-1e4, 0.1), -1e7, complex(-5000.5, -4000.0)):
            for fn in (digamma_series_reference, psi_pair_series):
                with pytest.raises(DomainError, match=fn.__name__):
                    fn(s)
        for s in (complex(-4000.5, 0.1), complex(-1e4, 5000.0)):
            psi = digamma(s)
            assert abs(digamma_series_reference(s) - psi) <= 4e-15 * abs(psi)
            assert abs(psi_pair_series(s) - 2 * psi.real) <= 4e-15 * abs(psi)

    def test_odd_term_count_matches_fsum(self, monkeypatch):
        # an odd term count, away from the default, shows in the sum and the tail
        n_terms = 10_001
        monkeypatch.setattr(specfun, "_SERIES_TERMS", n_terms)
        for s in self.DIGAMMA_POINTS:
            terms = [(s - 1) / ((n + 1) * (n + s)) for n in range(n_terms)]
            total = complex(math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms))
            expected = -EULER_GAMMA + total + specfun._series_tail(s)
            assert abs(digamma_series_reference(s) - expected) < 1e-15
        for s in self.PSI_POINTS:
            x, y = s.real, s.imag
            total = math.fsum(
                ((x - 1) * (x + n) + y * y) / ((n + 1) * ((n + x) ** 2 + y * y)) for n in range(n_terms)
            )
            expected = 2.0 * (-EULER_GAMMA + total + specfun._series_tail(s).real)
            assert abs(psi_pair_series(s) - expected) < 1e-15
