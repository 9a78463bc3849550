import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from zetasphere import zeta
from zetasphere.errors import ConvergenceError, DomainError, PoleError, ZetasphereError
from zetasphere.specfun import gamma
from zetasphere.zeta import (
    _ETA_TOLERANCE,
    _accel_coeffs,
    _accel_terms_needed,
    completed_zeta,
    completed_zeta_phase_logderiv,
    eta_eval,
    f_factor,
    euler_product_partial,
    even_limit_probe,
    even_zeta_rational,
    functional_rhs,
    laurent_eval,
    stieltjes_gamma,
    zeta_eval,
)

from reference_values import (
    COMPLETED_FAR_LEFT,
    COMPLETED_HALF,
    COMPLETED_LOGDERIV,
    ETA_DENOM_ZERO_IM,
    EULER_PARTIAL,
    STIELTJES_REF,
    TABLE1_FRACTIONS,
    ZERO_ORDINATES,
    ZETA_AT_ETA_DENOM_ZERO,
    ZETA_FAR_LEFT,
    ZETA_HALF,
    ZETA_NEAR_TRIVIAL,
    ZETA_REFLECTED_HIGH,
    ZETA_SPOT,
    ZETA_SPOT_ARG,
    ZETA_THREE,
)


class TestEta:
    def test_eta_one_is_log_two(self):
        assert eta_eval(1 + 0j).real == pytest.approx(math.log(2), abs=1e-13)

    def test_eta_two(self):
        assert eta_eval(2 + 0j).real == pytest.approx(math.pi**2 / 12, abs=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            eta_eval(complex(-0.2, 3.0))

    def test_term_cap_exhaustion(self):
        # ~2.67e7 accelerated terms, past the 1e7 cap; raised before any
        # weight is computed
        with pytest.raises(ConvergenceError):
            eta_eval(complex(0.5, 3e7))

    @pytest.mark.parametrize(
        "s", [complex(0.5, 14.134725), complex(0.5, 450.0), complex(0.5, 1000.0), complex(2.0, 30.0)]
    )
    def test_sum_matches_fsum_of_the_same_terms(self, s):
        n = _accel_terms_needed(abs(s.imag), _ETA_TOLERANCE)
        coeffs, logk, _ = _accel_coeffs(n)
        terms = coeffs * np.exp(-s * logk)
        reference = complex(math.fsum(terms.real), math.fsum(terms.imag))
        scale = float(np.sum(np.abs(coeffs) * np.exp(-s.real * logk)))
        assert abs(eta_eval(s) - reference) <= 1e-15 * scale

    def test_repeat_calls_bit_identical(self):
        s = complex(0.5, 450.0)
        assert eta_eval(s) == eta_eval(s)
        assert zeta_eval(s) == zeta_eval(s)

    def test_non_finite_argument(self):
        for s in (complex(math.nan, 1.0), complex(1.0, math.inf)):
            with pytest.raises(DomainError):
                eta_eval(s)


class TestZeta:
    def test_zeta_two(self):
        assert zeta_eval(2 + 0j).real == pytest.approx(math.pi**2 / 6, rel=1e-12)

    def test_zeta_zero(self):
        assert zeta_eval(0j).real == pytest.approx(-0.5, abs=1e-12)
        assert abs(zeta_eval(0j).imag) < 1e-12

    def test_trivial_zero(self):
        assert abs(zeta_eval(-2 + 0j)) < 1e-10

    def test_zeta_half(self):
        assert zeta_eval(0.5 + 0j).real == pytest.approx(ZETA_HALF, rel=1e-12)

    def test_zeta_three(self):
        assert zeta_eval(3 + 0j).real == pytest.approx(ZETA_THREE, rel=1e-13)

    def test_spot_value_against_oracle(self):
        assert abs(zeta_eval(ZETA_SPOT_ARG) - ZETA_SPOT) < 1e-13

    def test_pole_carries_residue(self):
        with pytest.raises(PoleError) as exc:
            zeta_eval(1 + 0j)
        assert exc.value.residue == 1.0

    def test_eta_denominator_zero_fallback(self):
        s = complex(1.0, ETA_DENOM_ZERO_IM)
        assert abs(zeta_eval(s) - ZETA_AT_ETA_DENOM_ZERO) < 1e-12

    def test_near_eta_denominator_zero_continuity(self):
        s = complex(1.0, ETA_DENOM_ZERO_IM)
        assert abs(zeta_eval(s + 5e-3) - zeta_eval(s)) < 1e-2

    def test_conjugate_symmetry(self):
        for s in (0.3 + 5j, 0.8 - 12j, 2 + 2j, -1.3 + 4j):
            lhs = zeta_eval(s.conjugate())
            rhs = zeta_eval(s).conjugate()
            assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    def test_residue_probe(self):
        s = 1 + 1e-4
        assert ((s - 1) * zeta_eval(s + 0j)).real == pytest.approx(1.0, abs=1e-3)

    def test_reflected_past_sin_overflow(self):
        # sin(pi s/2) alone overflows past |Im s| ~ 452; f(s) must not
        for s, ref in ZETA_REFLECTED_HIGH:
            assert abs(zeta_eval(s) - ref) <= 1e-10 * abs(ref)

    def test_far_left_past_gamma_overflow(self):
        # Gamma(1-s) overflows a direct product left of Re s ~ -141; f(s) and
        # zeta(s) stay in double range until Re s ~ -300
        for x, ref in ZETA_FAR_LEFT:
            assert abs(zeta_eval(x) - ref) <= 1e-12 * abs(ref)

    def test_value_beyond_double_range_is_typed(self):
        with pytest.raises(ZetasphereError):
            zeta_eval(-300.5)

    def test_trivial_zeros_exact(self):
        # the direct product below Re s = -170 and the log-space product
        # beyond it both take sin(pi s/2) about the nearest zero
        for n in range(1, 146):
            assert zeta_eval(-2.0 * n) == 0
            assert f_factor(-2.0 * n) == 0

    def test_next_to_trivial_zeros(self):
        for x, ref in ZETA_NEAR_TRIVIAL:
            assert abs(zeta_eval(x) - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("s", [complex(math.nan, 1.0), complex(math.inf, 0.0), complex(0.5, -math.inf)])
    def test_non_finite_argument(self, s):
        with pytest.raises(DomainError):
            zeta_eval(s)
        with pytest.raises(DomainError, match="functional_rhs"):
            functional_rhs(s)


class TestFunctionalEquation:
    def test_strip_agreement(self):
        s = complex(0.3, 5.0)
        assert abs(functional_rhs(s) - zeta_eval(s)) <= 1e-9 * abs(zeta_eval(s))

    def test_grid_agreement(self):
        for i in range(10):
            for j in range(20):
                s = complex(0.06 + 0.88 * i / 9, -20 + 40 * (j + 0.37) / 20)
                if abs(abs(s.imag) - 14.134725) < 0.4 or abs(s.imag) < 0.2:
                    continue
                z = zeta_eval(s)
                assert abs(functional_rhs(s) - z) <= 1e-9 * abs(z)

    def test_trivial_zero_from_sin_factor(self):
        assert abs(functional_rhs(-2 + 0j)) < 1e-10

    def test_critical_line_modulus(self):
        s = complex(0.5, 9.1)
        assert abs(functional_rhs(s)) == pytest.approx(abs(zeta_eval(s)), rel=1e-11)

    def test_positive_integers_domain_error(self):
        for s in (2 + 0j, 3 + 0j, 0j):
            with pytest.raises(DomainError):
                functional_rhs(s)


class TestEvenLimitProbe:
    def test_n1(self):
        assert even_limit_probe(1).real == pytest.approx(math.pi**2 / 6, abs=1e-6)

    def test_n2(self):
        assert even_limit_probe(2).real == pytest.approx(math.pi**4 / 90, abs=1e-6)

    def test_all_supported_orders(self):
        for n in range(1, 11):
            target = float(even_zeta_rational(2 * n)) * math.pi ** (2 * n)
            assert even_limit_probe(n).real == pytest.approx(target, abs=1e-6)

    def test_raw_error_shrinks_with_eps(self):
        # the un-extrapolated values approach zeta(2) monotonically
        target = math.pi**2 / 6
        from zetasphere.zeta import f_factor

        errs = [abs(f_factor(2 + eps) * zeta_eval(1 - (2 + eps)) - target)
                for eps in (1e-3, 5e-4, 2.5e-4)]
        assert errs[0] > errs[1] > errs[2]

    def test_range(self):
        with pytest.raises(DomainError):
            even_limit_probe(0)
        with pytest.raises(DomainError):
            even_limit_probe(11)


def printed_completed(s: complex) -> complex:
    """pi^(-s/2) Gamma(s/2) zeta(s) as printed, apart from completed_zeta,
    which takes Re s < 1/2 at 1 - s."""
    return math.pi ** (-s / 2) * gamma(s / 2) * zeta_eval(s)


class TestCompletedZeta:
    def test_symmetry(self):
        for s in (complex(0.3, 5), complex(0.7, -5), complex(0.1, 17.2)):
            a = completed_zeta(s)
            assert abs(a - printed_completed(1 - s)) <= 1e-9 * abs(a)

    def test_value_at_half(self):
        assert completed_zeta(0.5 + 0j).real == pytest.approx(COMPLETED_HALF, rel=1e-12)

    def test_small_residual_at_first_zero(self):
        s = complex(0.5, 14.134725)
        assert abs(completed_zeta(s)) < 1e-6

    def test_poles(self):
        with pytest.raises(PoleError):
            completed_zeta(0j)
        with pytest.raises(PoleError):
            completed_zeta(1 + 0j)

    def test_realness_on_line(self):
        for t in (0.0, 3.3, 11.0, 29.7, 50.0):
            w = completed_zeta(complex(0.5, t))
            assert abs(w.imag) <= 1e-10 * (1 + abs(w.real))

    def test_finite_at_trivial_zero_locations(self):
        # Gamma pole cancels the trivial zero; value matches the mirror side
        v = completed_zeta(-2 + 0j)
        assert abs(v - printed_completed(3 + 0j)) <= 1e-9 * abs(v)

    @pytest.mark.parametrize("s, ref", COMPLETED_FAR_LEFT)
    def test_far_left_past_zeta_overflow(self, s, ref):
        assert abs(completed_zeta(s) - ref) <= 1e-12 * abs(ref)

    def test_value_beyond_double_range_is_typed(self):
        for x in (-438.0, 439.0):
            with pytest.raises(DomainError):
                completed_zeta(x)


class TestCompletedPhaseLogDerivative:
    @pytest.mark.parametrize("s, ref", COMPLETED_LOGDERIV)
    def test_log_derivative_matches_mpmath(self, s, ref):
        _, logderiv = completed_zeta_phase_logderiv(s)
        assert abs(logderiv - ref) <= 1e-12 * abs(ref)

    def test_mirror_image_is_the_conjugate(self):
        # Lambda(s) = conj Lambda(1 - conj s), so the phase negates and
        # Lambda'/Lambda(s) = -conj Lambda'/Lambda(1 - conj s)
        rng = random.Random(20130)
        for _ in range(60):
            s = complex(rng.uniform(-1.5, 2.5), rng.uniform(1.0, 1000.0))
            phase, logderiv = completed_zeta_phase_logderiv(s)
            m_phase, m_logderiv = completed_zeta_phase_logderiv(1 - s.conjugate())
            step = (m_phase + phase + math.pi) % (2 * math.pi) - math.pi
            assert abs(step) <= 1e-12
            assert abs(m_logderiv + logderiv.conjugate()) <= 1e-12 * abs(logderiv)

    def test_phase_matches_completed_zeta(self):
        # wherever completed_zeta is a normal double; both sides of the line
        # and inside the eta-denominator window
        points = [complex(x, t) for x in (-1.5, -0.5, 0.2, 0.5, 0.9, 1.5, 3.0) for t in (2.0, 14.0, 37.3, 99.0)]
        points += [complex(1.0, ETA_DENOM_ZERO_IM), complex(0.004, ETA_DENOM_ZERO_IM)]
        for s in points:
            phase, _ = completed_zeta_phase_logderiv(s)
            assert 0.0 <= phase <= 2 * math.pi
            step = (phase - cmath.phase(completed_zeta(s)) + math.pi) % (2 * math.pi) - math.pi
            assert abs(step) <= 1e-12

    def test_reaches_past_underflow(self):
        # completed_zeta is exactly 0 here; its phase and log-derivative are not
        s = complex(0.5, 960.0)
        assert completed_zeta(s) == 0
        phase, logderiv = completed_zeta_phase_logderiv(s)
        assert math.isfinite(phase) and cmath.isfinite(logderiv)

    def test_poles_and_non_finite(self):
        for s in (0j, 1 + 0j):
            with pytest.raises(PoleError):
                completed_zeta_phase_logderiv(s)
        with pytest.raises(DomainError):
            completed_zeta_phase_logderiv(complex(math.nan, 5.0))


class TestEvenZetaRational:
    @pytest.mark.parametrize("k,frac", sorted(TABLE1_FRACTIONS.items()))
    def test_exact_fractions(self, k, frac):
        assert even_zeta_rational(k) == Fraction(*frac)

    def test_numeric_consistency(self):
        for k in range(2, 31, 2):
            target = float(even_zeta_rational(k)) * math.pi**k
            assert zeta_eval(k + 0j).real == pytest.approx(target, rel=1e-9)

    def test_rejects_odd_and_negative(self):
        for k in (1, 7, -2, 32):
            with pytest.raises(DomainError):
                even_zeta_rational(k)


class TestStieltjes:
    @pytest.mark.parametrize("k", range(5))
    def test_against_oracle(self, k):
        assert stieltjes_gamma(k) == pytest.approx(STIELTJES_REF[k], abs=1e-5)

    def test_gamma1_tighter(self):
        assert stieltjes_gamma(1) == pytest.approx(STIELTJES_REF[1], abs=1e-4)

    def test_gamma0_by_partial_sums(self):
        # independent route: Eq. limit gamma_0 = lim (H_N - ln N), corrected
        n = 10**6
        h_n = sum(1.0 / m for m in range(1, n + 1))
        estimate = h_n - math.log(n) - 0.5 / n
        assert stieltjes_gamma(0) == pytest.approx(estimate, abs=1e-8)

    def test_gamma1_by_partial_sums(self):
        # gamma_1 = lim (sum ln m / m - ln^2 N / 2), Euler-Maclaurin corrected.
        # The source's own statement of this limit carries an extra
        # (-1)^k / k! prefactor that would double-apply against its Laurent
        # series weights; the standard constant matches the bare limit.
        n = 10**6
        acc = sum(math.log(m) / m for m in range(2, n + 1))
        estimate = acc - math.log(n) ** 2 / 2 - math.log(n) / (2 * n)
        assert stieltjes_gamma(1) == pytest.approx(estimate, abs=1e-6)

    def test_gamma0_alt_route(self):
        v1 = (zeta_eval(1 + 1e-3 + 0j) - 1 / 1e-3).real
        v2 = (zeta_eval(1 + 1e-4 + 0j) - 1 / 1e-4).real
        extrapolated = (10 * v2 - v1) / 9
        assert extrapolated == pytest.approx(stieltjes_gamma(0), abs=1e-6)

    def test_range(self):
        with pytest.raises(DomainError):
            stieltjes_gamma(5)

    def test_circles_sampled_once_for_all_k(self, monkeypatch):
        # two 64-point circles serve gamma_0 .. gamma_4
        calls = []
        evaluate = zeta.zeta_eval
        monkeypatch.setattr(zeta, "zeta_eval", lambda s: calls.append(s) or evaluate(s))
        zeta._laurent_circle.cache_clear()
        extracted = [stieltjes_gamma(k) for k in range(5)]
        assert len(calls) == len(set(calls)) == 128
        assert extracted == [stieltjes_gamma(k) for k in range(5)]
        assert len(calls) == 128


class TestLaurent:
    def test_matches_zeta_in_disk(self):
        for h in (0.2, -0.15, 0.1 + 0.1j, -0.05 - 0.18j, 0.02j):
            s = 1 + complex(h)
            assert abs(laurent_eval(s) - zeta_eval(s)) < 1e-7

    def test_pole(self):
        with pytest.raises(PoleError):
            laurent_eval(1 + 0j)

    def test_outside_disk(self):
        with pytest.raises(DomainError):
            laurent_eval(2.5 + 0j)

    @pytest.mark.parametrize(
        "s", [complex(math.nan, 0.0), complex(1.1, math.nan), complex(math.inf, 0.0), complex(1.0, math.inf)]
    )
    def test_non_finite_argument(self, s):
        with pytest.raises(DomainError, match="laurent_eval"):
            laurent_eval(s)


class TestEulerProduct:
    def test_matches_zeta_for_re_ge_2(self):
        for s in (2.5 + 0j, 3 + 1j, 4 - 2j, 6 + 3j):
            z = zeta_eval(s)
            assert abs(euler_product_partial(s) - z) <= 1e-6 * abs(z)

    def test_domain(self):
        with pytest.raises(DomainError):
            euler_product_partial(0.9 + 0j)

    @pytest.mark.parametrize(
        "s", [complex(math.nan, 0.0), complex(3.0, math.nan), complex(math.inf, 0.0), complex(2.0, -math.inf)]
    )
    def test_non_finite_argument(self, s):
        with pytest.raises(DomainError, match="euler_product_partial"):
            euler_product_partial(s)

    def test_against_oracle_product(self):
        # the truncated product itself, so the bound is rounding, not truncation
        for s, expected in EULER_PARTIAL:
            assert abs(euler_product_partial(s) - expected) <= 1e-13 * abs(expected)
