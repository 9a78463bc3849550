"""Riemann zeta on all of C, the completed zeta, and Laurent machinery.

Evaluation strategy:

* Re(s) >= 1/2: binomial-accelerated alternating (eta) series divided by
  1 - 2^(1-s).  The acceleration is Borwein's d_k scheme with the
  coefficients computed in log space so the scheme stays usable out to
  |Im s| ~ 1000.  From 128 terms on, k^-s is the product S^-s m^-s of
  k = S m, S = 2^a 3^b and m coprime to 6, so only the distinct S and m
  are exponentiated.
* Re(s) < 1/2: functional equation applied to the Re >= 1/2 value.  The
  switch sits at 1/2 (not 0) so both sides stay well conditioned.
* |1 - 2^(1-s)| < 1e-2 (the eta-denominator zeros on Re s = 1): direct
  Euler-Maclaurin summation.
* |s| < 1e-6: the 0*inf product sin(pi s/2) * zeta(1-s) is expanded so the
  limit value -1/2 comes out of the same formula instead of a 0 * pole.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, DomainError, PoleError
from .specfun import (
    EULER_GAMMA,
    POLE_WINDOW,
    _LNPI,
    _logsin_pi,
    exp_in_range,
    finite_argument,
    gamma,
    loggamma,
    sin_pi,
)

# gamma_0 .. gamma_4, frozen from the multiprecision pre-build oracle
STIELTJES = (
    EULER_GAMMA,
    -0.072815845483676725,
    -0.0096903631928723185,
    0.0020538344203033459,
    0.0023253700654673001,
)

_LN2 = math.log(2.0)
_ACCEL_RATE = math.log(3.0 + math.sqrt(8.0))
_ETA_FALLBACK_WINDOW = 1e-2
_SMALL_S_WINDOW = 1e-6
# absolute tolerance of the accelerated eta sum, and its term cap
_ETA_TOLERANCE = 1e-14
_ETA_MAX_TERMS = 10**7
# Bernoulli corrections of the Euler-Maclaurin fallback
_EM_CORRECTIONS = 12
# term count from which _powers exponentiates only the basis of the split
_SPLIT_MIN_TERMS = 128


# ---------------------------------------------------------------------------
# eta series with binomial acceleration


@lru_cache(maxsize=None)
def _split_table(size: int):
    """log k for k = 1..size and the split k = S m of each k into its
    {2,3}-smooth part S = 2^a 3^b and its part m coprime to 6: the logs of
    the distinct S and m (the basis: every k with S = 1 or m = 1,
    ascending), each k's index of S and of m in it, and for each k how many
    basis values are <= k.  The table for any n <= size is a prefix of
    this one."""
    logk = np.log(np.arange(1.0, size + 1.0))
    k = np.arange(1, size + 1)
    rough = k.copy()
    for p in (2, 3):
        while (divisible := rough % p == 0).any():
            rough[divisible] //= p
    smooth = k // rough
    in_basis = (smooth == 1) | (rough == 1)
    counts = np.cumsum(in_basis)
    return logk, logk[in_basis], counts[smooth - 1] - 1, counts[rough - 1] - 1, counts


@lru_cache(maxsize=64)
def _power_table(n: int):
    """log k for k = 1..n and, from _SPLIT_MIN_TERMS terms on, the basis
    logs and the index of each k's S and m in them: views of _split_table
    for the power of two >= n, so a handful of tables back every n.  The
    cache holds every n that |Im s| <= 1000 reaches on the eta and
    Euler-Maclaurin routes."""
    logk, log_basis, i_smooth, i_rough, counts = _split_table(
        max(_SPLIT_MIN_TERMS, 1 << (n - 1).bit_length())
    )
    if n < _SPLIT_MIN_TERMS:
        return logk[:n], None, None, None
    return logk[:n], log_basis[: counts[n - 1]], i_smooth[:n], i_rough[:n]


def _powers(s: complex, n: int) -> np.ndarray:
    """k^-s for k = 1..n.

    k^-s is completely multiplicative, so k^-s = S^-s m^-s for the split of
    _split_table: only the basis is exponentiated (37 % of the terms at
    n = 928), and every other term is one complex product.  Terms with S = 1
    or m = 1 are multiplied by exactly 1.  Below _SPLIT_MIN_TERMS the two
    gathers cost more than the exponentials they save, so those sums
    exponentiate every term.
    """
    logk, log_basis, i_smooth, i_rough = _power_table(n)
    if log_basis is None:
        return np.exp(-s * logk)
    e = np.exp(-s * log_basis)
    return e[i_smooth] * e[i_rough]


@lru_cache(maxsize=32)
def _accel_coeffs(n: int):
    """(-1)^k (d_n - d_k)/d_n for Borwein's scheme, with log-space term
    sums, as complex128 so the eta sum is one complex dot product, and the
    weights times log(k+1), which give the derivative sum.  Quantized n
    keeps the cache small."""
    log_t = np.array(
        [
            math.lgamma(n + i) + i * math.log(4.0) - math.lgamma(n - i + 1) - math.lgamma(2 * i + 1)
            for i in range(n + 1)
        ]
    )
    t = np.exp(log_t - log_t.max())
    csum = np.cumsum(t)
    ek = (csum[-1] - csum[:-1]) / csum[-1]
    signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    coeffs = (signs * ek).astype(np.complex128)
    return coeffs, coeffs * _power_table(n)[0]


def _accel_terms_needed(t_abs: float, tol: float) -> int:
    n = (math.pi * t_abs / 2 + math.log(3.0 * (1 + 2 * t_abs)) - math.log(tol)) / _ACCEL_RATE
    n = int(n) + 8
    return ((n + 31) // 32) * 32


def _eta_weights(s: complex):
    """The weights and the log-weighted weights of eta's accelerated sum at
    a finite s, after the domain and term-cap checks; the term count depends
    on Im s alone."""
    if s.real <= 0:
        raise DomainError(f"eta series requires Re(s) > 0, got {s}")
    n = _accel_terms_needed(abs(s.imag), _ETA_TOLERANCE)
    if n > _ETA_MAX_TERMS:
        raise ConvergenceError(f"eta at {s} needs {n} accelerated terms > {_ETA_MAX_TERMS}")
    return _accel_coeffs(n)


def _eta_sum(s: complex) -> complex:
    coeffs, _ = _eta_weights(s)
    return complex(coeffs @ _powers(s, len(coeffs)))


def _eta_pair(s: complex) -> tuple[complex, complex]:
    """(eta(s), eta'(s)) from one k^-s vector."""
    coeffs, log_weighted = _eta_weights(s)
    powers = _powers(s, len(coeffs))
    return complex(coeffs @ powers), -complex(log_weighted @ powers)


def eta_eval(s: complex) -> complex:
    """Dirichlet eta sum of (-1)^(n+1) / n^s for Re(s) > 0, accelerated."""
    return _eta_sum(finite_argument(s, "eta"))


# ---------------------------------------------------------------------------
# Euler-Maclaurin fallback (eta-denominator zeros s = 1 + 2 pi i k / ln 2)


@lru_cache(maxsize=None)
def _em_coefficients() -> tuple[float, ...]:
    """B_2k / (2k)! for k = 1.._EM_CORRECTIONS, built once per process."""
    return tuple(
        float(bernoulli_exact(2 * k)) / math.factorial(2 * k) for k in range(1, _EM_CORRECTIONS + 1)
    )


def _zeta_euler_maclaurin(s: complex, derivative: bool = False):
    """zeta(s) by Euler-Maclaurin summation to N = max(30, 1.3 |Im s|) with
    _EM_CORRECTIONS Bernoulli corrections.  With ``derivative`` it returns
    the pair (zeta(s), zeta'(s)), zeta' from the same terms differentiated
    in s.  n^-s is the prefix of _powers for N rounded up to 32, which keeps
    the _power_table keys to multiples of 32 and leaves the terms n <= N as
    they are."""
    n_cut = max(30, int(1.3 * abs(s.imag)))
    n_table = -(-n_cut // 32) * 32
    log_n = _power_table(n_table)[0][:n_cut]
    powers = _powers(s, n_table)[:n_cut]
    ln_n = math.log(n_cut)
    head = cmath.exp((1 - s) * ln_n) / (s - 1)
    last = cmath.exp(-s * ln_n)
    total = complex(np.sum(powers))
    total += head - 0.5 * last
    if derivative:
        d_total = -complex(log_n @ powers) - head * (ln_n + 1 / (s - 1)) + 0.5 * ln_n * last
        d_rising = 1.0
    rising = s
    for k, coef in enumerate(_em_coefficients(), start=1):
        power = cmath.exp((1 - s - 2 * k) * ln_n)
        total += coef * rising * power
        if derivative:
            d_total += coef * (d_rising - ln_n * rising) * power
            d_rising = d_rising * (s + 2 * k - 1) * (s + 2 * k) + rising * (2 * s + 4 * k - 1)
        rising = rising * (s + 2 * k - 1) * (s + 2 * k)
    return (total, d_total) if derivative else total


# ---------------------------------------------------------------------------
# zeta proper


def _laurent_regular_part(h: complex) -> complex:
    """sum (-1)^n gamma_n h^n / n!, the regular part of zeta at 1."""
    total = 0j
    hp = 1.0 + 0j
    for n_, g in enumerate(STIELTJES):
        total += ((-1) ** n_) * g * hp / math.factorial(n_)
        hp *= h
    return total


def _zeta_small_s(s: complex) -> complex:
    # f(s) * zeta(1-s) with sin(pi s/2) = (pi s / 2) * w(s) and
    # zeta(1-s) = -1/s + P(-s); the 1/s cancels against the sin zero.
    w = 1.0 if s == 0 else cmath.sin(math.pi * s / 2) / (math.pi * s / 2)
    p = _laurent_regular_part(-s)
    prefactor = 2**s * math.pi ** (s - 1) * gamma(1 - s)
    return (math.pi / 2) * w * prefactor * (s * p - 1.0)


def _zeta_right_half(s: complex, eta_pair=None):
    """zeta(s) for Re s >= 1/2.  With ``eta_pair`` the pair (zeta(s),
    zeta'(s)), from (eta(s), eta'(s)) = eta_pair(s)."""
    p = 2 ** (1 - s)
    denom = 1.0 - p
    if abs(denom) < _ETA_FALLBACK_WINDOW:
        return _zeta_euler_maclaurin(s, derivative=eta_pair is not None)
    if eta_pair is None:
        return _eta_sum(s) / denom
    # zeta = eta / denom with denom' = p ln 2
    eta, d_eta = eta_pair(s)
    return eta / denom, (d_eta - eta * p * _LN2 / denom) / denom


def zeta_eval(s: complex) -> complex:
    """zeta(s) anywhere except the simple pole at s = 1 (residue 1).

    DomainError where the value leaves double range (left of Re s ~ -291).
    """
    s = finite_argument(s, "zeta")
    if abs(s - 1) < POLE_WINDOW:
        raise PoleError(1.0, residue=1.0)
    if s.real >= 0.5:
        return _zeta_right_half(s)
    if abs(s) < _SMALL_S_WINDOW:
        return _zeta_small_s(s)
    return f_factor(s) * _zeta_right_half(1 - s)


def f_factor(s: complex) -> complex:
    """The functional-equation factor f(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s).

    PoleError at the positive integers, the poles of Gamma(1-s).  Past
    |Im s| > 20 (the gamma threshold) the product is taken in log space,
    where sin(pi s/2) alone would overflow long before f(s) does.  Below it
    the sine is taken about its nearest zero, so f(-2n) = 0 exactly.  Left
    of Re s = -170 and right of Re s = 143, where Gamma(1-s) leaves double
    range long before f(s) does, everything but the sine is taken in log
    space.  DomainError where f(s) itself leaves double range.
    """
    s = finite_argument(s, "f")
    if abs(s.imag) <= POLE_WINDOW:
        r = round(s.real)
        if r >= 1 and abs(s.real - r) <= POLE_WINDOW:
            raise PoleError(float(r), index=r - 1)
    if abs(s.imag) > 20:
        head = s * _LN2 + (s - 1) * _LNPI
        return exp_in_range(head + _logsin_pi(s / 2) + loggamma(1 - s), "f", s)
    sine = sin_pi(s / 2)
    if -170 <= s.real <= 143:
        return 2**s * math.pi ** (s - 1) * sine * gamma(1 - s)
    if sine == 0:
        return 0j
    head = s * _LN2 + (s - 1) * _LNPI
    return exp_in_range(head + loggamma(1 - s), "f", s, sine)


def functional_rhs(s: complex) -> complex:
    """Right side of the functional equation: f(s) * zeta(1-s).

    DomainError where any factor is at a pole (s a positive integer puts
    Gamma(1-s) at a pole; s = 0 puts zeta(1-s) at its pole).  Even positive
    integers resolve the resulting 0*inf through even_limit_probe instead.
    """
    s = finite_argument(s, "functional_rhs")
    if abs(s.imag) <= POLE_WINDOW:
        r = round(s.real)
        if r >= 1 and abs(s.real - r) <= POLE_WINDOW:
            raise DomainError(f"Gamma(1-s) pole at s={s}; use even_limit_probe for even s")
        if abs(s.real) <= POLE_WINDOW:
            raise DomainError("zeta(1-s) pole at s=0; zeta_eval takes the limit")
    return f_factor(s) * zeta_eval(1 - s)


def even_limit_probe(n: int) -> complex:
    """Resolve the 0*inf in f(s) zeta(1-s) at s = 2n by Richardson
    extrapolation over eps in {1e-3, 5e-4, 2.5e-4}."""
    if not 1 <= n <= 10:
        raise DomainError("even_limit_probe supports 1 <= n <= 10")
    values = []
    for eps in (1e-3, 5e-4, 2.5e-4):
        s = 2 * n + eps
        values.append(f_factor(s) * zeta_eval(1 - s))
    r01 = 2 * values[1] - values[0]
    r12 = 2 * values[2] - values[1]
    out = (4 * r12 - r01) / 3
    if not (math.isfinite(out.real) and math.isfinite(out.imag)):
        raise ConvergenceError("even_limit_probe extrapolation diverged")
    return out


def completed_log_prefactor(s: complex) -> complex:
    """log(pi^(-s/2) Gamma(s/2)); shared by completed_zeta and the zero
    scanner's sign kernel."""
    return loggamma(s / 2) - (s / 2) * _LNPI


def completed_zeta(s: complex) -> complex:
    """pi^(-s/2) Gamma(s/2) zeta(s); poles at 0 and 1.

    Left of Re s = 1/2 it is taken at 1 - s (Lambda(s) = Lambda(1 - s)), so
    the Gamma poles at the negative even integers never meet the trivial
    zeros, and far left, where zeta(s) leaves double range, Lambda does not.
    DomainError where Lambda itself leaves double range (Re s ~ 438.5 or
    ~ -437.5 on the real axis).
    """
    s = finite_argument(s, "completed zeta")
    if abs(s) < POLE_WINDOW:
        raise PoleError(0.0)
    if abs(s - 1) < POLE_WINDOW:
        raise PoleError(1.0)
    w = 1 - s if s.real < 0.5 else s
    return exp_in_range(completed_log_prefactor(w), "completed zeta", s, zeta_eval(w))


def _log_logderiv(s: complex, eta_pair) -> tuple[complex, complex]:
    """(log zeta(s), zeta'(s)/zeta(s)) for Re s >= 1/2, with (eta(s),
    eta'(s)) from ``eta_pair(s)`` (or one Euler-Maclaurin sum next to the
    eta-denominator zeros); zeta_log_logderiv and the rows of
    zeta_log_logderiv_row differ only in that function."""
    s = finite_argument(s, "zeta")
    if s.real < 0.5:
        raise DomainError(f"zeta_log_logderiv needs Re s >= 1/2, got {s}")
    if abs(s - 1) < POLE_WINDOW:
        raise PoleError(1.0)
    value, derivative = _zeta_right_half(s, eta_pair)
    if value == 0:
        raise DomainError(f"zeta is 0 at s = {s}; it has no log or log-derivative")
    return cmath.log(value), derivative / value


def zeta_log_logderiv(s: complex) -> tuple[complex, complex]:
    """(log zeta(s), zeta'(s)/zeta(s)) for Re s >= 1/2, both from one eta
    sum (or one Euler-Maclaurin sum next to the eta-denominator zeros).

    The log is principal.  On Re s >= 1.1, where |arg zeta(s)| <=
    log zeta(Re s) < pi, that is the branch continuous over the whole
    half-plane (Backlund).  PoleError at 1; DomainError left of Re s = 1/2
    and where zeta(s) is exactly 0.
    """
    return _log_logderiv(s, _eta_pair)


def zeta_log_logderiv_row(t: float):
    """zeta_log_logderiv on the row Im s = t: a function of sigma giving
    (log zeta(sigma + it), zeta'/zeta(sigma + it)) for sigma >= 1/2.

    Every point of the row takes the same eta term count, so the phases
    k^-it, with the weights and log-weighted weights folded in, are formed
    once, as the real and imaginary rows of a 4 x n matrix W; a point then
    costs one real exponential k^-sigma per term and W @ k^-sigma.  Only
    the order in which the terms are rounded and summed differs from
    zeta_log_logderiv: the two agree to ~1e-15 relative below t = 1000.
    """
    row = finite_argument(complex(0.5, t), "zeta")
    coeffs, log_weighted = _eta_weights(row)
    n = len(coeffs)
    phases = _powers(complex(0.0, row.imag), n)
    eta_w, d_eta_w = coeffs * phases, -log_weighted * phases
    w = np.array([eta_w.real, eta_w.imag, d_eta_w.real, d_eta_w.imag])
    neg_logk = -_power_table(n)[0]

    def eta_pair(s: complex) -> tuple[complex, complex]:
        re_eta, im_eta, re_d, im_d = (w @ np.exp(s.real * neg_logk)).tolist()
        return complex(re_eta, im_eta), complex(re_d, im_d)

    return lambda sigma: _log_logderiv(complex(sigma, row.imag), eta_pair)


# ---------------------------------------------------------------------------
# exact even values (Table reproduction) and Euler product


@lru_cache(maxsize=None)
def _bernoulli_through(m: int) -> tuple[Fraction, ...]:
    out = [Fraction(1)]
    for n in range(1, m + 1):
        acc = Fraction(0)
        for k in range(n):
            acc += Fraction(math.comb(n + 1, k)) * out[k]
        out.append(-acc / (n + 1))
    return tuple(out)


def bernoulli_exact(n: int) -> Fraction:
    """Bernoulli number B_n as an exact rational (B_1 = -1/2 convention)."""
    if n < 0:
        raise DomainError("Bernoulli index must be >= 0")
    return _bernoulli_through(max(n, 30))[n]


def even_zeta_rational(k: int) -> Fraction:
    """Exact alpha with zeta(k) = alpha * pi^k for even 0 <= k <= 30.

    alpha = (-1)^(k/2 + 1) B_k 2^k / (2 k!); k = 0 gives -1/2.
    """
    if k < 0 or k % 2 != 0 or k > 30:
        raise DomainError("even_zeta_rational requires even k with 0 <= k <= 30")
    n = k // 2
    b = bernoulli_exact(k)
    return Fraction((-1) ** (n + 1)) * b * Fraction(2**k, 2 * math.factorial(k))


def primes_below(bound: int) -> np.ndarray:
    """The primes p < bound, ascending, from a boolean sieve."""
    if bound < 3:
        return np.array([], dtype=np.intp)
    sieve = np.ones(bound, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(bound**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve)


def euler_product_partial(s: complex) -> complex:
    """prod over primes p < 10^4 of 1/(1 - p^-s); needs Re(s) > 1."""
    s = finite_argument(s, "euler_product_partial")
    if s.real <= 1:
        raise DomainError("Euler product requires Re(s) > 1")
    return complex(1 / np.prod(1 - np.exp(-s * np.log(primes_below(10**4)))))


# ---------------------------------------------------------------------------
# Stieltjes constants and the Laurent series


@lru_cache(maxsize=None)
def _laurent_circle(radius: float) -> tuple[tuple[float, complex], ...]:
    """(theta, zeta(1+h) - 1/h) at the 64 points h = radius e^(i theta),
    theta = 2 pi j / 64; sampled once per process for every gamma_k."""
    samples = []
    for j in range(64):
        theta = 2 * math.pi * j / 64
        h = radius * cmath.exp(1j * theta)
        samples.append((theta, zeta_eval(1 + h) - 1 / h))
    return tuple(samples)


def stieltjes_gamma(k: int) -> float:
    """gamma_k extracted from zeta(1+h) - 1/h sampled on circles around 0.

    Two radii must agree to 1e-7 or the extraction is declared failed;
    guaranteed absolute accuracy 1e-5 (measured ~1e-12).
    """
    if not 0 <= k <= 4:
        raise DomainError("stieltjes_gamma supports 0 <= k <= 4")

    def coeff(radius: float) -> complex:
        samples = _laurent_circle(radius)
        acc = 0j
        for theta, g in samples:
            acc += g * cmath.exp(-1j * k * theta)
        return acc / (len(samples) * radius**k)

    a1 = coeff(0.5)
    a2 = coeff(0.25)
    if abs(a1 - a2) > 1e-7:
        raise ConvergenceError(f"stieltjes_gamma({k}) radii disagree: {a1} vs {a2}")
    return ((-1) ** k) * math.factorial(k) * a2.real


def laurent_eval(s: complex) -> complex:
    """Laurent expansion 1/(s-1) + sum (-1)^n gamma_n (s-1)^n / n! on the
    punctured unit disk around 1."""
    s = finite_argument(s, "laurent_eval")
    h = s - 1
    if abs(h) < POLE_WINDOW:
        raise PoleError(1.0, residue=1.0)
    if abs(h) >= 1:
        raise DomainError("laurent_eval valid only for 0 < |s-1| < 1")
    return 1 / h + _laurent_regular_part(h)
