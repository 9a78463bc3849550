import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from zetasphere import zeta
from zetasphere.errors import ConvergenceError, DomainError, PoleError, ZetasphereError
from zetasphere.specfun import _LNPI, digamma, gamma
from zetasphere.zeros import hardy_z
from zetasphere.zeta import (
    _SPLIT_MIN_TERMS,
    _eta_weights,
    _power_table,
    _powers,
    _zeta_euler_maclaurin,
    completed_log_prefactor,
    completed_zeta,
    eta_eval,
    f_factor,
    euler_product_partial,
    even_limit_probe,
    even_zeta_rational,
    functional_rhs,
    laurent_eval,
    stieltjes_gamma,
    zeta_eval,
    zeta_log_logderiv,
    zeta_log_logderiv_row,
)

from reference_values import (
    COMPLETED_FAR_LEFT,
    COMPLETED_HALF,
    COMPLETED_LOGDERIV,
    F_FACTOR_SEAMS,
    ETA_DENOM_ZERO_IM,
    EULER_PARTIAL,
    STIELTJES_REF,
    TABLE1_FRACTIONS,
    ZERO_ORDINATES,
    ZETA_AT_ETA_DENOM_ZERO,
    ZETA_EULER_MACLAURIN,
    ZETA_FAR_LEFT,
    ZETA_HALF,
    ZETA_LINE_HIGH,
    ZETA_NEAR_ORIGIN,
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
        "evaluate",
        [zeta_eval, eta_eval, zeta_log_logderiv, completed_zeta, lambda s: hardy_z(s.imag)],
        ids=["zeta_eval", "eta_eval", "zeta_log_logderiv", "completed_zeta", "hardy_z"],
    )
    def test_term_count_past_float_range_is_a_convergence_error(self, evaluate):
        # pi |t| / 2 is inf from |t| ~ 1.15e308; the count is checked
        # against the cap before it becomes an int, which would overflow
        with pytest.raises(ConvergenceError, match=r"needs inf accelerated terms"):
            evaluate(complex(0.5, 1.7e308))

    def test_term_count_is_printed_short(self):
        with pytest.raises(ConvergenceError, match=r"needs 8\.91e\+299 accelerated terms"):
            eta_eval(complex(0.5, 1e300))

    @pytest.mark.parametrize(
        "s", [complex(0.5, 14.134725), complex(0.5, 450.0), complex(0.5, 1000.0), complex(2.0, 30.0)]
    )
    def test_sum_matches_fsum_of_the_same_terms(self, s):
        coeffs, _ = _eta_weights(s)
        powers = _powers(s, len(coeffs))
        terms = coeffs * powers
        reference = complex(math.fsum(terms.real), math.fsum(terms.imag))
        scale = float(np.sum(np.abs(coeffs) * np.abs(powers)))
        assert abs(eta_eval(s) - reference) <= 1e-15 * scale

    def test_repeat_calls_bit_identical(self):
        s = complex(0.5, 450.0)
        assert eta_eval(s) == eta_eval(s)
        assert zeta_eval(s) == zeta_eval(s)

    def test_non_finite_argument(self):
        for s in (complex(math.nan, 1.0), complex(1.0, math.inf)):
            with pytest.raises(DomainError):
                eta_eval(s)


class TestPowers:
    # exponentials per n-term sum: the distinct 2^a 3^b <= n and m <= n coprime to 6
    BASIS_SIZES = {128: 64, 256: 112, 512: 204, 928: 347, 1312: 479}

    @pytest.mark.parametrize("n", sorted(BASIS_SIZES))
    def test_split_tables(self, n):
        logk, log_basis, i_smooth, i_rough = _power_table(n)
        assert log_basis.size == self.BASIS_SIZES[n]
        basis = np.rint(np.exp(log_basis)).astype(np.int64)
        assert np.all(np.diff(basis) > 0)
        assert np.array_equal(log_basis, logk[basis - 1])
        smooth, rough = basis[i_smooth], basis[i_rough]
        assert np.array_equal(smooth * rough, np.arange(1, n + 1))
        assert np.all((rough % 2 != 0) & (rough % 3 != 0))
        for p in (2, 3):
            while (divisible := smooth % p == 0).any():
                smooth = np.where(divisible, smooth // p, smooth)
        assert np.all(smooth == 1)

    @pytest.mark.parametrize(
        "s", [complex(0.5, 14.134725), complex(0.5, 450.0), complex(0.5, 999.5), complex(1.5, -875.25)]
    )
    def test_split_matches_direct_exponentials(self, s):
        logk, _, i_smooth, i_rough = _power_table(1312)
        direct = np.exp(-s * logk)
        split = _powers(s, 1312)
        # S^-s m^-s rounds t log S + t log m where exp rounds t log k
        bound = 4 * np.finfo(float).eps * abs(s) * logk * np.abs(direct)
        assert np.all(np.abs(split - direct) <= bound)
        # a factor of exactly 1: S = 1 or m = 1 (index 0 is the basis value 1)
        pure = (i_smooth == 0) | (i_rough == 0)
        assert np.array_equal(split[pure], direct[pure])

    def test_small_sums_exponentiate_every_term(self):
        s = complex(0.5, 90.0)
        for n in (30, 32, _SPLIT_MIN_TERMS - 32):
            assert np.array_equal(_powers(s, n), np.exp(-s * np.log(np.arange(1.0, n + 1.0))))

    def test_prefix_does_not_depend_on_table_size(self):
        # 608 terms read the 1024-row split table, 1312 the 2048-row one;
        # the Euler-Maclaurin route takes 589 of 608
        s = complex(1.0, 453.2)
        assert np.array_equal(_powers(s, 608)[:589], _powers(s, 1312)[:589])
        logk, log_basis, i_smooth, i_rough, counts = zeta._split_table(2048)
        e = np.exp(-s * log_basis[: counts[607]])
        assert np.array_equal(_powers(s, 608), e[i_smooth[:608]] * e[i_rough[:608]])


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

    def test_line_and_right_of_it_past_t_450(self):
        for s, ref in ZETA_LINE_HIGH:
            assert abs(zeta_eval(s) - ref) <= 2e-12 * max(abs(ref), 1.0)

    def test_far_left_past_gamma_overflow(self):
        # Gamma(1-s) overflows a direct product left of Re s ~ -141; f(s) and
        # zeta(s) stay in double range until Re s ~ -300
        for x, ref in ZETA_FAR_LEFT:
            assert abs(zeta_eval(x) - ref) <= 1e-12 * abs(ref)

    def test_value_beyond_double_range_is_typed(self):
        with pytest.raises(ZetasphereError):
            zeta_eval(-300.5)

    def test_trivial_zeros_exact(self):
        # f(s) takes sin(pi s/2) about its nearest zero
        for n in (*range(1, 146), 200):
            assert zeta_eval(-2.0 * n) == 0
            assert f_factor(-2.0 * n) == 0

    @pytest.mark.parametrize("s, value", F_FACTOR_SEAMS)
    def test_f_either_side_of_the_log_sine_seam(self, s, value):
        # measured: at most 1.5e-13
        assert abs(f_factor(s) - value) <= 3e-13 * abs(value)

    def test_far_left_past_the_sine_argument_is_typed(self):
        # pi Re s leaves double range inside log sin(pi s/2)'s exponential
        # unless s is first reduced about its nearest even integer
        s = complex(-1e308, -30.0)
        with pytest.raises(DomainError):
            zeta_eval(s)
        with pytest.raises(DomainError):
            f_factor(s)

    def test_next_to_trivial_zeros(self):
        for x, ref in ZETA_NEAR_TRIVIAL:
            assert abs(zeta_eval(x) - ref) <= 1e-12 * abs(ref)

    @pytest.mark.filterwarnings("error")
    def test_ends_of_double_range_warn_nothing(self):
        # -s log k overflows for |s| ~ 1e308, and its RuntimeWarning raises
        # under -W error; zeta(-1e308) = f(s) zeta(1 + 1e308) with f(s) = 0
        assert zeta_eval(1e308) == 1
        assert zeta_eval(-1e308) == 0
        assert eta_eval(1e308) == 1

    @pytest.mark.parametrize("function", [gamma, f_factor])
    def test_real_on_the_real_axis(self, function):
        # exp of a log with Im = k pi carries a ~1e-16 imaginary part
        rng = random.Random(24)
        points = [k + 0.5 for k in range(-60, 60)] + [rng.uniform(-60.0, 60.0) for _ in range(300)]
        for x in points:
            assert function(x).imag == 0.0, x

    def test_next_to_the_origin(self):
        # zeta(1 - s) at the rounded 1 - s would lose ~u / |Re s| (2.7e-11 at
        # s = 2e-6); the Laurent route is within 1.6e-15 on |s| < 0.01 / ln 2
        for s, ref in ZETA_NEAR_ORIGIN:
            assert abs(zeta_eval(s) - ref) <= 4e-15 * abs(ref)

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


def _completed_log_logderiv(s):
    """(log Lambda(s), Lambda'/Lambda(s)) from w = s or 1 - s, whichever has
    Re w >= 1/2, as the rectangle count takes them: Lambda(s) = Lambda(1 - s)."""
    w = 1 - s if s.real < 0.5 else s
    log_zeta, zeta_logderiv = zeta_log_logderiv(w)
    logderiv = 0.5 * digamma(w / 2) - 0.5 * _LNPI + zeta_logderiv
    return completed_log_prefactor(w) + log_zeta, -logderiv if w != s else logderiv


class TestCompletedPhaseLogDerivative:
    @pytest.mark.parametrize("s, ref", COMPLETED_LOGDERIV)
    def test_log_derivative_matches_mpmath(self, s, ref):
        _, logderiv = _completed_log_logderiv(s)
        assert abs(logderiv - ref) <= 1e-12 * abs(ref)

    def test_mirror_image_is_the_conjugate(self):
        # Lambda(s) = conj Lambda(1 - conj s): the count takes a node left of
        # the line from its mirror image
        rng = random.Random(20130)
        for _ in range(60):
            s = complex(rng.uniform(-1.5, 0.49), rng.uniform(1.0, 400.0))
            m = 1 - s.conjugate()
            mirrored = cmath.exp(completed_log_prefactor(m) + zeta_log_logderiv(m)[0]).conjugate()
            value = completed_zeta(s)
            assert abs(mirrored - value) <= 1e-12 * abs(value)

    def test_phase_matches_completed_zeta(self):
        # wherever completed_zeta is a normal double; both sides of the line
        # and inside the eta-denominator window.  The phase is compared
        # modulo 2 pi: the log's imaginary part is not reduced
        points = [complex(x, t) for x in (-1.5, -0.5, 0.2, 0.5, 0.9, 1.5, 3.0) for t in (2.0, 14.0, 37.3, 99.0)]
        points += [complex(1.0, ETA_DENOM_ZERO_IM), complex(0.004, ETA_DENOM_ZERO_IM)]
        for s in points:
            log_value, _ = _completed_log_logderiv(s)
            value = completed_zeta(s)
            step = (log_value.imag - cmath.phase(value) + math.pi) % (2 * math.pi) - math.pi
            assert abs(step) <= 1e-12
            assert abs(log_value.real - math.log(abs(value))) <= 1e-12 * max(1.0, abs(log_value.real))

    def test_reaches_past_underflow(self):
        # completed_zeta is exactly 0 here; its log and log-derivative are not
        s = complex(0.5, 960.0)
        assert completed_zeta(s) == 0
        log_value, logderiv = _completed_log_logderiv(s)
        assert cmath.isfinite(log_value) and cmath.isfinite(logderiv)

    def test_poles_and_non_finite(self):
        with pytest.raises(PoleError):
            zeta_log_logderiv(1 + 0j)
        for s in (complex(math.nan, 5.0), complex(0.49, 5.0)):
            with pytest.raises(DomainError):
                zeta_log_logderiv(s)

    def test_log_is_principal(self):
        # the count's exact pieces need the principal log on Re s >= 1.1
        for s in (complex(1.1, 7.0), complex(0.6, 300.0), complex(2.0, -999.0)):
            assert zeta_log_logderiv(s)[0] == cmath.log(zeta_eval(s))


class TestLogLogderivRow:
    @pytest.mark.parametrize("t", [1.0, 14.0, 230.28102574805342, 999.9, 10000.7, ETA_DENOM_ZERO_IM])
    def test_matches_the_point_evaluator(self, t):
        # the two differ only in how the terms of the eta sum are rounded and
        # summed, to ~1e-16 of their sizes; relative to zeta that widens by
        # 1/|eta| where the sum is small (|eta| ~ 0.1 at 1/2 + 10000.7i)
        row = zeta_log_logderiv_row(t)
        for sigma in (0.5, 0.8, 1.1, 1.5):
            s = complex(sigma, t)
            point = zeta_log_logderiv(s)
            eta = cmath.exp(point[0]) * (1 - 2 ** (1 - s))
            for got, ref in zip(row(sigma), point):
                assert abs(got - ref) <= 1e-14 * max(abs(ref), 1.0) / min(abs(eta), 1.0)

    @pytest.mark.parametrize("sigma", [0.995, 1.0, 1.005])
    def test_takes_the_euler_maclaurin_fallback_on_the_eta_denominator_row(self, sigma):
        # within 1e-2 of 1 + 2 pi i / ln 2 both take the same Euler-Maclaurin sum
        s = complex(sigma, ETA_DENOM_ZERO_IM)
        assert zeta_log_logderiv_row(ETA_DENOM_ZERO_IM)(sigma) == zeta_log_logderiv(s)

    @pytest.mark.filterwarnings("error")
    def test_far_right_warns_nothing(self):
        # sigma log k overflows for sigma ~ 1e308; past sigma = 1075 only the
        # k = 1 term is not 0, as in zeta_log_logderiv
        for sigma in (1e308, 1076.0):
            assert zeta_log_logderiv_row(5.0)(sigma) == zeta_log_logderiv(complex(sigma, 5.0))

    def test_pole_and_domain(self):
        with pytest.raises(PoleError):
            zeta_log_logderiv_row(0.0)(1.0)
        with pytest.raises(DomainError):
            zeta_log_logderiv_row(14.0)(0.49)
        with pytest.raises(DomainError):
            zeta_log_logderiv_row(math.nan)


class TestEulerMaclaurin:
    def test_value_and_derivative_against_oracle(self):
        # the rounding of the phases t log n grows with |t|: measured worst
        # 1.7e-13 (value) and 7.3e-13 (zeta') relative at t ~ 997, 1.2e-14
        # and 3.6e-14 in the strip
        for s, ref, d_ref in ZETA_EULER_MACLAURIN:
            scale = max(abs(s.imag), 100.0)
            value, derivative = _zeta_euler_maclaurin(s, derivative=True)
            assert value == _zeta_euler_maclaurin(s)
            assert abs(value - ref) <= 3e-16 * scale * max(abs(ref), 1.0), s
            assert abs(derivative - d_ref) <= 1e-15 * scale * max(abs(d_ref), 1.0), s


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

    def test_primes_are_sieved_once(self, monkeypatch):
        euler_product_partial(3.0 + 0j)
        monkeypatch.setattr(zeta, "primes_below", lambda bound: pytest.fail("re-sieved"))
        assert euler_product_partial(3.0 + 1j) == euler_product_partial(3.0 + 1j)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "s", [1075.5, 2e307, 1e308, complex(1.5e308, 1.5e308), complex(1.5e308, -1.5e308)], ids=str
    )
    def test_far_right_is_exactly_one(self, s):
        # every p^-s rounds to 0 past Re s = 1075; -s log p overflows from 2e307
        value = euler_product_partial(s)
        assert value == 1 and type(value) is complex

    def test_against_oracle_product(self):
        # the truncated product itself, so the bound is rounding, not truncation
        for s, expected in EULER_PARTIAL:
            assert abs(euler_product_partial(s) - expected) <= 1e-13 * abs(expected)
