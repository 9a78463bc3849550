"""Complex Gamma, log-Gamma, digamma, and the closed-form Gamma moduli.

The Gamma core is a Lanczos rational approximation (g = 7, 9 terms,
~15 significant digits) with Euler reflection below Re(s) = 1/2.  log Gamma
reflects only for Re(s) <= 0; in 0 < Re(s) < 1/2 it takes one shift,
log Gamma(s) = log Gamma(s + 1) - log s, which needs no sine.  Large
imaginary parts route through log space, and the Lanczos power is split in
two halves where it alone would overflow, so nothing overflows before the
value itself leaves double range; there a DomainError names the point.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import ConvergenceError, DomainError, PoleError

EULER_GAMMA = 0.5772156649015329
_LNPI = math.log(math.pi)

POLE_WINDOW = 1e-12

# Lanczos g=7 coefficient set (Godfrey / Boost), ~1e-13 relative on the
# right half plane.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

# psi(z) ~ ln z - 1/(2z) - sum c_k z^(-2k), c_k = B_2k/(2k)
_PSI_ASYMPTOTIC = (
    -1.0 / 12,
    1.0 / 120,
    -1.0 / 252,
    1.0 / 240,
    -1.0 / 132,
    691.0 / 32760,
    -1.0 / 12,
)

# terms per numpy block of the cross-check series; one float64 block is
# 64 KB, so the temporaries stay small next to the whole 1e6-term range
_SERIES_CHUNK = 8192
# terms of each cross-check series; the closed-form tail takes the rest
_SERIES_TERMS = 10**6


def _nonpositive_integer_index(s: complex) -> int | None:
    """Index k >= 0 when s is within POLE_WINDOW of -k, else None."""
    if abs(s.imag) > POLE_WINDOW or s.real > POLE_WINDOW:
        return None
    k = round(-s.real)
    if k >= 0 and abs(s.real + k) <= POLE_WINDOW:
        return k
    return None


def finite_argument(s, name: str) -> complex:
    """complex(s), or DomainError when either part is NaN or infinite."""
    s = complex(s)
    if not cmath.isfinite(s):
        raise DomainError(f"{name} needs a finite argument, got {s}")
    return s


def exp_in_range(log_value: complex, name: str, s: complex, factor: complex = 1.0) -> complex:
    """factor * exp(log_value) for the value of ``name`` at ``s`` taken in
    log space; DomainError naming the point where it leaves double range."""
    try:
        value = factor * cmath.exp(log_value)
    except OverflowError:
        value = complex(math.inf)
    if not cmath.isfinite(value):
        raise DomainError(f"{name} at s = {s} leaves double range")
    return value


def _lanczos_sum(zm: complex) -> complex:
    a = _LANCZOS_C[0]
    for i in range(1, len(_LANCZOS_C)):
        a += _LANCZOS_C[i] / (zm + i)
    return a


def _gamma_lanczos_direct(z: complex, halves: bool = False) -> complex:
    """Plain Lanczos product; accurate for Re(z) > 0, no reflection.

    With ``halves`` the power t^(z-1/2) is taken as two half powers on
    either side of e^-t, which stays in double range as far as Gamma does.
    """
    zm = z - 1
    t = zm + _LANCZOS_G + 0.5
    if not halves:
        return math.sqrt(2 * math.pi) * t ** (zm + 0.5) * cmath.exp(-t) * _lanczos_sum(zm)
    half = t ** (0.5 * (zm + 0.5))
    return math.sqrt(2 * math.pi) * half * cmath.exp(-t) * half * _lanczos_sum(zm)


def sin_pi(z: complex) -> complex:
    """sin(pi z) as (-1)^n sin(pi (z - n)) about the nearest integer n, so
    it is 0 exactly at the integers and keeps its relative accuracy next to
    them, where the reflections divide by it."""
    n = round(z.real)
    sine = cmath.sin(math.pi * (z - n))
    return -sine if n % 2 else sine


def _logsin_pi(z: complex) -> complex:
    """log(sin(pi z)), stable for large |Im z| where sin itself overflows."""
    if abs(z.imag) < 10:
        return cmath.log(sin_pi(z))
    w = 1j * math.pi * z
    if z.imag > 0:
        return cmath.log((cmath.exp(2 * w) - 1) / 2j) - w
    return cmath.log((1 - cmath.exp(-2 * w)) / 2j) + w


def loggamma(s: complex) -> complex:
    """log Gamma(s); imaginary part consistent modulo 2*pi.

    Used wherever Gamma itself would leave double range (completed zeta at
    large |Im s|, the critical-line sign kernel).  For 0 < Re s < 1/2 it is
    log Gamma(s + 1) - log s, one Lanczos sum and no sine; the reflection
    is kept for Re s <= 0.
    """
    s = finite_argument(s, "loggamma")
    k = _nonpositive_integer_index(s)
    if k is not None:
        raise PoleError(-k, residue=(-1.0) ** k / math.factorial(k), index=k)
    if s.real <= 0:
        return _LNPI - _logsin_pi(s) - _loggamma_lanczos(1 - s)
    if s.real < 0.5:
        return _loggamma_lanczos(s + 1) - cmath.log(s)
    return _loggamma_lanczos(s)


def _loggamma_lanczos(s: complex) -> complex:
    """The Lanczos sum in log space; accurate for Re(s) >= 1/2."""
    zm = s - 1
    t = zm + _LANCZOS_G + 0.5
    return (
        0.5 * math.log(2 * math.pi)
        + (zm + 0.5) * cmath.log(t)
        - t
        + cmath.log(_lanczos_sum(zm))
    )


def gamma(s: complex) -> complex:
    """Gamma(s) with Euler reflection below Re(s) = 1/2.

    Raises PoleError at non-positive integers (within 1e-12), carrying the
    pole index k and the residue (-1)^k / k!.  DomainError where the value
    leaves double range (from Re s ~ 171.6).
    """
    s = finite_argument(s, "Gamma")
    k = _nonpositive_integer_index(s)
    if k is not None:
        raise PoleError(-k, residue=(-1.0) ** k / math.factorial(k), index=k)
    if abs(s.imag) > 20:
        # sin(pi s) in the reflection overflows long before the value does
        return exp_in_range(loggamma(s), "Gamma", s)
    if s.real < 0.5:
        if s.real < -142:
            # sin(pi s) Gamma(1-s) overflows here; Gamma(s) itself only shrinks
            return cmath.exp(loggamma(s))
        return math.pi / (sin_pi(s) * gamma(1 - s))
    # the whole power overflows from Re s ~ 142.2, Gamma only from ~171.6
    for halves in (False, True):
        try:
            value = _gamma_lanczos_direct(s, halves)
        except OverflowError:
            continue
        if cmath.isfinite(value):
            return value
    raise DomainError(f"Gamma at s = {s} leaves double range")


def digamma(s: complex) -> complex:
    """psi(s) by recurrence shift to |s| >= 10 plus asymptotic expansion."""
    s = finite_argument(s, "digamma")
    k = _nonpositive_integer_index(s)
    if k is not None:
        raise PoleError(-k, index=k)
    if s.real < 0.5:
        return digamma(1 - s) - math.pi / cmath.tan(math.pi * (s - round(s.real)))
    acc = 0j
    while abs(s) < 10:
        acc -= 1 / s
        s += 1
    inv2 = 1 / (s * s)
    tail = 0j
    p = inv2
    for c in _PSI_ASYMPTOTIC:
        tail += c * p
        p *= inv2
    return acc + cmath.log(s) - 0.5 / s + tail


def _series_sum(term):
    """Sums of the summand blocks ``term(n)`` over n = 0, 1, ..., _SERIES_TERMS - 1.

    ``term`` maps a float64 block of n, which it may overwrite, to a tuple
    of summand arrays.  numpy adds each block pairwise; the block sums are
    added in order of n.
    """
    total = 0.0
    for start in range(0, _SERIES_TERMS, _SERIES_CHUNK):
        n = np.arange(start, min(start + _SERIES_CHUNK, _SERIES_TERMS), dtype=np.float64)
        total = total + np.array([block.sum() for block in term(n)])
    return total


def _series_tail(s: complex) -> complex:
    """Integral of (s-1)/((t+1)(t+s)) from n = _SERIES_TERMS to infinity
    plus half the boundary term (Euler-Maclaurin to first order)."""
    n = _SERIES_TERMS
    return cmath.log((n + s) / (n + 1)) + 0.5 * (s - 1) / ((n + 1) * (n + s))


def digamma_series_reference(s: complex) -> complex:
    """Cross-check path: -gamma + sum (s-1)/((n+1)(n+s)) with an integral
    tail correction.  Converges too slowly for production; kept as the
    independent route against :func:`digamma`.

    The sum is taken in real arithmetic as
    (s-1) sum conj(n+s) / ((n+1)|n+s|^2), the same series term by term.
    """
    s = finite_argument(s, "digamma_series_reference")
    if _nonpositive_integer_index(s) is not None:
        raise PoleError(s)
    x, y = s.real, s.imag
    if s == 1:
        # every summand carries the factor s - 1
        return -EULER_GAMMA + _series_tail(s)

    def term(n):
        nx = n + x
        w = nx * nx
        w += y * y
        n += 1
        w *= n
        nx /= w
        return nx, np.divide(1.0, w, out=w)

    re_sum, im_sum = _series_sum(term)
    total = (s - 1) * complex(re_sum, -y * im_sum)
    return -EULER_GAMMA + total + _series_tail(s)


def gamma_abs_critical(y: float) -> float:
    """|Gamma(1/2 + iy)| = sqrt(pi * sech(pi y)) in closed form."""
    py = math.pi * abs(y)
    if py > 700:
        sech = 2.0 * math.exp(-py)
    else:
        sech = 1.0 / math.cosh(py)
    return math.sqrt(math.pi * sech)


def gamma_abs_unit(y: float) -> float:
    """|Gamma(1 + iy)| = sqrt(y pi * csch(pi y)); limit 1 at y = 0."""
    if abs(y) < 1e-8:
        return 1.0
    py = math.pi * abs(y)
    if py > 700:
        ratio = abs(y) * math.pi * 2.0 * math.exp(-py)
    else:
        ratio = abs(y) * math.pi / math.sinh(py)
    return math.sqrt(ratio)


def reflection_residual(s: complex) -> float:
    """|Gamma(1-s) Gamma(s) sin(pi s) - pi|.

    Both factors go through the raw Lanczos sum (no reflection), so the
    residual genuinely measures approximation error instead of reproducing
    the reflection identity by construction.  Contract: < 1e-10 in the
    critical strip off integers.
    """
    s = finite_argument(s, "reflection_residual")
    if abs(s.imag) <= POLE_WINDOW and abs(s.real - round(s.real)) <= POLE_WINDOW:
        raise DomainError(f"reflection identity degenerate at integer s={s}")
    if 0 < s.real < 1:
        g_s = _gamma_lanczos_direct(s)
        g_1ms = _gamma_lanczos_direct(1 - s)
    else:
        g_s = gamma(s)
        g_1ms = gamma(1 - s)
    return abs(g_1ms * g_s * cmath.sin(math.pi * s) - math.pi)


def psi_pair(s: complex) -> float:
    """Psi(s) = psi(s) + psi(conj s) = 2 Re psi(s); identically real."""
    return 2.0 * digamma(s).real


def psi_pair_series(s: complex) -> float:
    """Explicit real series for Psi(s) (the x,y form), with tail correction.

    Independent route against :func:`psi_pair`; the summand is
    ((x-1)(x+n) + y^2) / ((n+1)((n+x)^2 + y^2)).
    """
    s = finite_argument(s, "psi_pair_series")
    if _nonpositive_integer_index(s) is not None or _nonpositive_integer_index(
        s.conjugate()
    ) is not None:
        raise PoleError(s)
    x, y = s.real, s.imag
    if s == 1:
        # the numerator (x-1)(x+n) + y^2 is 0 for every n exactly here
        return 2.0 * (-EULER_GAMMA + _series_tail(s).real)

    def term(n):
        nx = n + x
        num = nx * (x - 1)
        num += y * y
        den = np.multiply(nx, nx, out=nx)
        den += y * y
        n += 1
        den *= n
        num /= den
        return (num,)

    total = float(_series_sum(term)[0])
    # same tail as the complex series, taken through its real part
    result = 2.0 * (-EULER_GAMMA + total + _series_tail(s).real)
    if math.isnan(result):
        raise ConvergenceError("psi_pair_series did not converge")
    return result
