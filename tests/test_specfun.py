import cmath
import math

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
    ABS_GAMMA_HALF_PLUS_I,
    ABS_GAMMA_ONE_PLUS_I,
    DIGAMMA_ONE,
    DIGAMMA_TWO,
    GAMMA_HALF_PLUS_I,
    GAMMA_NEAR_POLES,
    GAMMA_QUARTER,
    LOGGAMMA_STRIP,
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

    @pytest.mark.parametrize("k", [0, 1, 2, 5])
    def test_pole_carries_index_and_residue(self, k):
        with pytest.raises(PoleError) as exc:
            gamma(complex(-k, 0.0))
        assert exc.value.index == k
        assert exc.value.residue == pytest.approx((-1.0) ** k / math.factorial(k))

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

    @staticmethod
    def _tail(s, n):
        return cmath.log((n + s) / (n + 1)) + 0.5 * (s - 1) / ((n + 1) * (n + s))

    def test_default_terms_agree_with_digamma(self):
        for s in self.DIGAMMA_POINTS:
            assert abs(digamma(s) - digamma_series_reference(s)) < 1e-14
        for s in self.PSI_POINTS:
            assert abs(psi_pair(s) - psi_pair_series(s)) < 1e-14

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

    def test_odd_term_count_matches_fsum(self, monkeypatch):
        # 10_001 terms fill no power-of-two block exactly, so the last
        # partial block and the term count both show in the result
        n_terms = 10_001
        monkeypatch.setattr(specfun, "_SERIES_TERMS", n_terms)
        for s in self.DIGAMMA_POINTS:
            terms = [(s - 1) / ((n + 1) * (n + s)) for n in range(n_terms)]
            total = complex(math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms))
            expected = -EULER_GAMMA + total + self._tail(s, n_terms)
            assert abs(digamma_series_reference(s) - expected) < 1e-15
        for s in self.PSI_POINTS:
            x, y = s.real, s.imag
            total = math.fsum(
                ((x - 1) * (x + n) + y * y) / ((n + 1) * ((n + x) ** 2 + y * y)) for n in range(n_terms)
            )
            expected = 2.0 * (-EULER_GAMMA + total + self._tail(s, n_terms).real)
            assert abs(psi_pair_series(s) - expected) < 1e-15
