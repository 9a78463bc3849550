"""Complex Gamma, log-Gamma, digamma, and the closed-form Gamma moduli.

The Gamma core is a Lanczos rational approximation (g = 7, 9 terms,
~15 significant digits), one expression over the nine constants with no
per-call loop; sqrt(2 pi) and its log are module constants.  Gamma is its
product on Re s >= 1/2 with |Im s| <= LOG_SPACE_IM and exp(log Gamma)
everywhere else.  log Gamma reflects only for Re(s) <= 0; in
0 < Re(s) < 1/2 it takes one shift, log Gamma(s) = log Gamma(s + 1) -
log s, which needs no sine.  Nothing overflows before the value itself
leaves double range; there a DomainError names the point.
"""

from __future__ import annotations

import cmath
import math
import sys

import numpy as np

from .errors import DomainError, PoleError

EULER_GAMMA = 0.5772156649015329
_LNPI = math.log(math.pi)
_LN_SQRT_2PI = 0.5 * math.log(2 * math.pi)
_SQRT_2PI = math.sqrt(2 * math.pi)

POLE_WINDOW = 1e-12
# past this |Im s|, products holding sin(pi s) or Gamma are taken in log
# space: those factors leave double range long before the products do
LOG_SPACE_IM = 20.0
# pi |y| past which the closed-form moduli take e^(-+pi |y| / 2) for a root
ROOT_FIRST_PI_Y = 700.0

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

# terms of each cross-check series, summed as one numpy block; the
# closed-form tail takes the rest
_SERIES_TERMS = 8192
# largest |s| the cross-check series take: (n + x)^2 + y^2 <= (n + |s|)^2,
# so below it ((n + x)^2 + y^2)(n + 1) stays under half the largest double
# for every n < _SERIES_TERMS
_SERIES_MAX_ARG = math.sqrt(sys.float_info.max / (2 * _SERIES_TERMS)) - _SERIES_TERMS
# highest |Im s| reflection_residual takes: its log-space rounding grows like
# |t| log |t| eps, 6.6e-12 at 0.1 - 1e4i but 8.9e-10 at 0.1 - 1e5i
_REFLECTION_MAX_IM = 1e4


def lattice_point(s: complex) -> int | None:
    """The integer n with |Im s| <= POLE_WINDOW and |Re s - n| <= POLE_WINDOW,
    or None; |Im s| is tested first, so an off-axis s exits at once."""
    if abs(s.imag) > POLE_WINDOW:
        return None
    n = round(s.real)
    return n if abs(s.real - n) <= POLE_WINDOW else None


def finite_argument(s, name: str) -> complex:
    """complex(s), or DomainError when either part is NaN or infinite."""
    s = complex(s)
    if not cmath.isfinite(s):
        raise DomainError(f"{name} needs a finite argument, got {s}")
    return s


def in_range(value: complex, name: str, s: complex) -> complex:
    """value, or DomainError naming ``name`` at ``s`` if it is not finite."""
    if not cmath.isfinite(value):
        raise DomainError(f"{name} at s = {s} leaves double range")
    return value


def exp_in_range(log_value: complex, name: str, s: complex, factor: complex = 1.0) -> complex:
    """factor * exp(log_value) for the value of ``name`` at ``s`` taken in
    log space, the one exit for such values: DomainError naming the point
    where the value leaves double range or the log's imaginary part is
    infinite (cmath.exp's ValueError; a real part of -inf gives 0).  Gamma,
    f and the completed zeta are real on the real axis, so a real s gets a
    real value, not the ~1e-16 imaginary part of exp(x + i k pi)."""
    try:
        value = factor * cmath.exp(log_value)
    except (OverflowError, ValueError):
        value = complex(math.inf)
    value = in_range(value, name, s)
    return complex(value.real) if s.imag == 0 else value


_C0, _C1, _C2, _C3, _C4, _C5, _C6, _C7, _C8 = _LANCZOS_C


def _lanczos_sum(zm: complex) -> complex:
    """c_0 + sum c_i / (zm + i), added left to right in one expression."""
    return (
        _C0 + _C1 / (zm + 1) + _C2 / (zm + 2) + _C3 / (zm + 3) + _C4 / (zm + 4)
        + _C5 / (zm + 5) + _C6 / (zm + 6) + _C7 / (zm + 7) + _C8 / (zm + 8)
    )


def sin_pi(z: complex) -> complex:
    """sin(pi z) as (-1)^n sin(pi (z - n)) about the nearest integer n, so
    it is 0 exactly at the integers and keeps its relative accuracy next to
    them, where the reflections divide by it."""
    n = round(z.real)
    sine = cmath.sin(math.pi * (z - n))
    return -sine if n % 2 else sine


def _logsin_pi(z: complex) -> complex:
    """log(sin(pi z)), stable for large |Im z| where sin itself overflows;
    there z is first taken about its nearest even integer, which leaves
    sin(pi z) as it is and pi Re z in double range."""
    if abs(z.imag) < 10:
        return cmath.log(sin_pi(z))
    w = 1j * math.pi * (z - 2 * round(z.real / 2))
    if z.imag > 0:
        return cmath.log((cmath.exp(2 * w) - 1) / 2j) - w
    return cmath.log((1 - cmath.exp(-2 * w)) / 2j) + w


def loggamma(s: complex) -> complex:
    """log Gamma(s).  For Re s > 0 this is the branch continuous off the
    negative real axis (real on the positive axis, mpmath's loggamma): every
    log in it is principal with its argument off the cut; the Lanczos sum,
    taken only at Re >= 1/2, keeps |arg| below 2.81 there.  For Re s <= 0
    the imaginary part is only consistent modulo 2*pi.

    Used wherever Gamma itself would leave double range (completed zeta at
    large |Im s|, Hardy's Z on the critical line).  For 0 < Re s < 1/2 it is
    log Gamma(s + 1) - log s, one Lanczos sum and no sine; the reflection
    is kept for Re s <= 0.

    PoleError within POLE_WINDOW of -k, k >= 0 (:func:`lattice_point`),
    with index k and residue (-1)^k / k!.  DomainError naming the point
    where log Gamma itself leaves double range: its real part from
    Re s ~ 2.5e305 on the real axis (|s log s| passes 1.8e308), its
    imaginary part once |Im s| log |s| does (from |Im s| ~ 2.5e305).
    """
    s = finite_argument(s, "loggamma")
    return in_range(_loggamma(s), "loggamma", s)


def _loggamma(s: complex) -> complex:
    """log Gamma at a finite s, unchecked: Gamma and f take it into
    exp_in_range, where a real part of -inf is a value that underflows to 0."""
    if (n := lattice_point(s)) is not None and n <= 0:
        k = -n
        # past k = 170, k! is no double and 1/k! is subnormal, 0.0 from
        # k = 178; lgamma(k + 1) itself overflows from k ~ 2.5e305
        residue = 1 / math.factorial(k) if k <= 170 else math.exp(-math.lgamma(min(k, 178) + 1))
        raise PoleError(-k, residue=(-1.0) ** k * residue, index=k)
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
        _LN_SQRT_2PI
        + (zm + 0.5) * cmath.log(t)
        - t
        + cmath.log(_lanczos_sum(zm))
    )


def gamma(s: complex) -> complex:
    """Gamma(s): the Lanczos product on Re s >= 1/2 with |Im s| <=
    LOG_SPACE_IM, exp(log Gamma(s)) everywhere else.

    PoleError from :func:`loggamma` at non-positive integers (within
    1e-12), carrying the pole index k and the residue (-1)^k / k!.
    DomainError where the value leaves double range (from Re s ~ 171.6),
    and where Im log Gamma does (from |Im s| ~ 2.5e305) unless the value
    has underflowed to 0 there.
    """
    s = finite_argument(s, "Gamma")
    if s.real < 0.5 or abs(s.imag) > LOG_SPACE_IM:
        return exp_in_range(_loggamma(s), "Gamma", s)
    # t^(s-1/2) as two half powers about e^-t, in double range as far as
    # Gamma is; the whole power overflows from Re s ~ 142.2
    zm = s - 1
    t = zm + _LANCZOS_G + 0.5
    try:
        half = t ** (0.5 * (zm + 0.5))
        value = _SQRT_2PI * half * cmath.exp(-t) * half * _lanczos_sum(zm)
    except OverflowError:
        value = complex(math.inf)
    return in_range(value, "Gamma", s)


def digamma(s: complex) -> complex:
    """psi(s) by recurrence shift to |s| >= 10 plus asymptotic expansion,
    reflected to 1 - s left of Re s = 1/2.

    PoleError within POLE_WINDOW of -k, k >= 0, with index k.  Finite on
    the rest of the double plane, out to |Re s|, |Im s| ~ 1.8e308: past
    ~1.34e154 in both parts s * s is inf - inf, so the tail's 1/s^2 is taken
    as (1/s)^2 there.
    """
    s = finite_argument(s, "digamma")
    if (n := lattice_point(s)) is not None and n <= 0:
        raise PoleError(n, index=-n)
    if s.real < 0.5:
        return digamma(1 - s) - math.pi / cmath.tan(math.pi * (s - round(s.real)))
    acc = 0j
    # Re s first: |s| overflows where both parts pass ~1.27e308
    while s.real < 10 and abs(s) < 10:
        acc -= 1 / s
        s += 1
    square = s * s
    inv2 = 1 / square if cmath.isfinite(square) else (1 / s) * (1 / s)
    tail = 0j
    p = inv2
    for c in _PSI_ASYMPTOTIC:
        tail += c * p
        p *= inv2
    return acc + cmath.log(s) - 0.5 / s + tail


def _series_tail(s: complex) -> complex:
    """Sum of f(n) = (s-1)/((n+1)(n+s)) over n >= N = _SERIES_TERMS by
    Euler-Maclaurin to second order: the integral of f from N, f(N)/2 and
    -f'(N)/12 = (s-1)(2N+s+1)/(12 q^2), q = (N+1)(N+s), each quotient
    taken apart so it stays in double range up to _SERIES_MAX_ARG."""
    n = _SERIES_TERMS
    q = (n + 1) * (n + s)
    return cmath.log((n + s) / (n + 1)) + 0.5 * (s - 1) / q + ((s - 1) / q) * ((2 * n + s + 1) / q) / 12


def _series_argument(s, name: str) -> complex:
    """finite_argument(s) for the two psi cross-check series, their one
    gate.  DomainError past |s| = _SERIES_MAX_ARG, where the series' block
    arithmetic would overflow, and in the half-strip Re s < -N/2,
    |Im s| < N/2 (N = _SERIES_TERMS), where the tail's integration path
    [N, inf) runs near the summand's pole at t = -s; outside it
    |N + s| >= N/2, so the Euler-Maclaurin remainder stays below ~1e-17.
    PoleError at the poles -k of psi (:func:`lattice_point`)."""
    s = finite_argument(s, name)
    # Re s first: |s| overflows where both parts pass ~1.27e308
    if abs(s.real) > _SERIES_MAX_ARG or abs(s) > _SERIES_MAX_ARG:
        raise DomainError(f"{name} at s = {s}: |s| > {_SERIES_MAX_ARG:.3g} overflows its summands")
    half = _SERIES_TERMS / 2
    if s.real < -half and abs(s.imag) < half:
        raise DomainError(f"{name} at s = {s}: Re s < -{half:g} with |Im s| < {half:g} puts its tail near a pole")
    if (n := lattice_point(s)) is not None and n <= 0:
        raise PoleError(s)
    return s


def _series_blocks(x: float, y: float) -> tuple[np.ndarray, np.ndarray]:
    """n + x and ((n + x)^2 + y^2)(n + 1) over n = 0.._SERIES_TERMS - 1, the
    arrays both psi cross-check series divide by."""
    n = np.arange(_SERIES_TERMS, dtype=np.float64)
    nx = n + x
    return nx, (nx * nx + y * y) * (n + 1)


def digamma_series_reference(s: complex) -> complex:
    """Cross-check path: -gamma + sum (s-1)/((n+1)(n+s)) over _SERIES_TERMS
    terms plus the Euler-Maclaurin tail.  Kept as the independent route
    against :func:`digamma`.

    The sum is taken in real arithmetic as
    (s-1) sum conj(n+s) / ((n+1)|n+s|^2), the same series term by term.
    PoleError at the poles -k; DomainError past |s| = _SERIES_MAX_ARG
    (~1.05e152) and for Re s < -4096 with |Im s| < 4096 (see
    :func:`_series_argument`).
    """
    s = _series_argument(s, "digamma_series_reference")
    if s == 1:
        # every summand carries the factor s - 1
        return -EULER_GAMMA + _series_tail(s)
    nx, w = _series_blocks(s.real, s.imag)
    total = (s - 1) * complex(np.sum(nx / w), -s.imag * np.sum(1.0 / w))
    return -EULER_GAMMA + total + _series_tail(s)


def gamma_abs_critical(y: float) -> float:
    """|Gamma(1/2 + iy)| = sqrt(pi * sech(pi y)) in closed form.

    Past pi |y| = 700, where e^(-pi |y|) underflows, the root is taken
    first: sqrt(2 pi) e^(-pi |y| / 2), in double range to |y| ~ 451.
    """
    py = math.pi * abs(y)
    if py > ROOT_FIRST_PI_Y:
        return _SQRT_2PI * math.exp(-0.5 * py)
    return math.sqrt(math.pi * (1.0 / math.cosh(py)))


def gamma_abs_unit(y: float) -> float:
    """|Gamma(1 + iy)| = sqrt(y pi * csch(pi y)); limit 1 at y = 0.

    Past pi |y| = 700 it is sqrt(2 pi |y|) e^(-pi |y| / 2), as in
    :func:`gamma_abs_critical`.  That is 0.0 from |y| ~ 475 on, also where
    sqrt(2 pi |y|) is inf (from |y| ~ 2.9e307), which would make it inf * 0.
    """
    if abs(y) < 1e-8:
        return 1.0
    py = math.pi * abs(y)
    if py > ROOT_FIRST_PI_Y:
        decay = math.exp(-0.5 * py)
        return math.sqrt(2 * py) * decay if decay else 0.0
    return math.sqrt(py / math.sinh(py))


def reflection_residual(s: complex) -> float:
    """|Gamma(1-s) Gamma(s) sin(pi s) - pi| in the strip 0 < Re s < 1.

    Both factors go through the raw Lanczos sum (no reflection), so the
    residual genuinely measures approximation error instead of reproducing
    the reflection identity by construction.  Off the strip one of the two
    Gammas could only be had by reflecting the other, which cancels them and
    leaves sine rounding alone, so a DomainError naming the function is
    raised there.  The product is taken in log space everywhere, since
    sin(pi s) and the Gammas leave double range long before it does.
    Contract: < 1e-10 in the strip off integers, up to |Im s| = 1e4.
    DomainError past |Im s| = 1e4, where the log-space sum of three terms of
    size ~|t| log |t| keeps only their rounding.
    """
    s = finite_argument(s, "reflection_residual")
    if not 0 < s.real < 1:
        raise DomainError(f"reflection_residual at s = {s}: needs 0 < Re s < 1")
    if abs(s.imag) > _REFLECTION_MAX_IM:
        raise DomainError(f"reflection residual at s = {s}: |Im s| > {_REFLECTION_MAX_IM:g} loses its accuracy")
    if lattice_point(s) is not None:
        raise DomainError(f"reflection identity degenerate at integer s={s}")
    log_product = _loggamma_lanczos(s) + _loggamma_lanczos(1 - s) + _logsin_pi(s)
    return abs(cmath.exp(log_product) - math.pi)


def psi_pair(s: complex) -> float:
    """Psi(s) = psi(s) + psi(conj s) = 2 Re psi(s); identically real."""
    return 2.0 * digamma(s).real


def psi_pair_series(s: complex) -> float:
    """Explicit real series for Psi(s) (the x,y form), with tail correction.

    Independent route against :func:`psi_pair`; the summand is
    ((x-1)(x+n) + y^2) / ((n+1)((n+x)^2 + y^2)), summed term by term.
    PoleError at the poles -k; DomainError past |s| = _SERIES_MAX_ARG
    (~1.05e152) and for Re s < -4096 with |Im s| < 4096 (see
    :func:`_series_argument`).
    """
    s = _series_argument(s, "psi_pair_series")
    x, y = s.real, s.imag
    if s == 1:
        # the numerator (x-1)(x+n) + y^2 is 0 for every n exactly here
        return 2.0 * (-EULER_GAMMA + _series_tail(s).real)
    nx, w = _series_blocks(x, y)
    total = float(np.sum(((x - 1) * nx + y * y) / w))
    # same tail as the complex series, taken through its real part
    return 2.0 * (-EULER_GAMMA + total + _series_tail(s).real)
