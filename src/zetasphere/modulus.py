"""Modulus machinery for f(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s).

Includes the closed-form modulus on the critical strip, the printed
d/dx formulas (kept verbatim, checked against central differences, with
disagreements reported rather than repaired), and the critical-line
criterion ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import DomainError, PoleError
from .specfun import ROOT_FIRST_PI_Y, exp_in_range, gamma, in_range, lattice_point, psi_pair
# zeta_eval is not called here: perfbench/spans.py patches modulus.zeta_eval
from .zeta import f_factor, zeta_eval

# radius of the criterion circle: the O(radius^2) surrogate error stays well
# inside the 1e-6 contract
CRITERION_RADIUS = 1e-4
# the eighth roots of unity e^(2 pi i j / 8), exact to the last bit, so that
# U[(4 - j) % 8] == -conj(U[j])
_R = math.sqrt(0.5)
_UNIT_ROOTS = (
    1 + 0j, complex(_R, _R), 1j, complex(-_R, _R), -1 + 0j, complex(-_R, -_R), -1j, complex(_R, -_R)
)


@dataclass(frozen=True)
class ModulusBreakdown:
    """Factor-by-factor moduli of f(s): |2^s|, |pi^(s-1)|, |sin(pi s/2)|,
    |Gamma(1-s)|, and their product."""

    two_pow: float
    pi_pow: float
    sin_abs: float
    gamma_abs: float
    product: float

    def __post_init__(self):
        recomposed = self.two_pow * self.pi_pow * self.sin_abs * self.gamma_abs
        if abs(recomposed - self.product) > 1e-12 * max(abs(self.product), 1e-300):
            raise DomainError("ModulusBreakdown factors do not recompose to product")


def _require_strip(s: complex, who: str) -> None:
    if not 0.0 < s.real < 1.0:
        raise DomainError(f"{who} requires s in the open critical strip, got {s}")


def _bracket_root(s: complex, who: str) -> float:
    """sqrt(e^(-pi y) + e^(pi y) + 2 (2 sin^2(pi x / 2) - 1)) at s = x + iy;
    past pi |y| = 700, where the bracket overflows and its other terms are
    below the rounding, e^(pi |y| / 2), which overflows from |y| ~ 451.8."""
    x, y = s.real, s.imag
    py = math.pi * abs(y)
    if py <= ROOT_FIRST_PI_Y:
        return math.sqrt(2.0 * math.cosh(math.pi * y) + 2.0 * (2.0 * math.sin(math.pi * x / 2) ** 2 - 1.0))
    return exp_in_range(0.5 * py, who, s).real


def f_abs_closed(s: complex) -> ModulusBreakdown:
    """Closed-form |f(s)| on the open strip, broken into displayed factors."""
    s = complex(s)
    _require_strip(s, "f_abs_closed")
    x = s.real
    root = _bracket_root(s, "f_abs_closed")
    gamma_abs = abs(gamma(1 - s))
    product = (2 * math.pi) ** (x - 1) * root * gamma_abs
    return ModulusBreakdown(
        two_pow=2.0**x,
        pi_pow=math.pi ** (x - 1),
        sin_abs=0.5 * root,
        gamma_abs=gamma_abs,
        product=product,
    )


def gamma_abs_dx(s: complex) -> float:
    """d/dx |Gamma(1-s)| = -(1/2) |Gamma(1-s)| (psi(1-s) + psi(conj(1-s)))."""
    s = complex(s)
    return -0.5 * abs(gamma(1 - s)) * psi_pair(1 - s)


def f_abs_dx(s: complex) -> float:
    """The printed d/dx |f(s)| formula, evaluated verbatim.

    The first term carries the bracket b to the power 3/2 over the same
    bracket to the power 1/2 exactly as printed; where that disagrees with
    the central difference of f_abs_closed, the verification suite flags the
    point instead of silently correcting the exponent.  The brace is taken
    as sqrt(b) (ln(2 pi) sqrt(b) + 2 pi sin cos / b), sqrt(b) times
    |Gamma(1-s)| first: b^(3/2) overflows from |y| ~ 150.6, the value from ~451.
    """
    s = complex(s)
    _require_strip(s, "f_abs_dx")
    x = s.real
    root = _bracket_root(s, "f_abs_dx")
    gamma_abs = abs(gamma(1 - s))
    sin_cos = math.sin(math.pi * x / 2) * math.cos(math.pi * x / 2)
    brace_over_root = math.log(2 * math.pi) * root + 2 * math.pi * sin_cos / (root * root)
    term1 = (gamma_abs * root) * (2 * math.pi) ** (x - 1) * brace_over_root
    term2 = (2 * math.pi) ** (x - 1) * root * gamma_abs_dx(s)
    return in_range(term1 + term2, "f_abs_dx", s)


def central_dx(fn: Callable[[complex], float], s: complex, h: float) -> float:
    """Central difference in the x direction of a real-valued planar map."""
    return (fn(s + h) - fn(s - h)) / (2 * h)


def f_abs_product(s: complex) -> float:
    """|f(s)| through the closed form (product field only)."""
    return f_abs_closed(s).product


def criterion_ratio(s0: complex) -> float:
    """Mean of |zeta(s)| / |zeta(1-s)| over a small circle about s0, taken
    from f without evaluating zeta.

    The limit surrogate for the on-the-critical-line criterion: the mean
    equals |f(s0)| up to O(radius^2), radius = CRITERION_RADIUS.  The
    samples are s0 + radius U[j] over the exact eighth roots of unity U.
    zeta_eval takes Re s < 1/2 as f(s) zeta(1 - s), so a sample left of the
    line gives |f(s)| and one right of it 1/|f(1 - conj s)|, at mirror +
    radius U[(4 - j) % 8], mirror = 1 - conj s0: f is never taken right of
    the line, where Gamma(1 - s) costs accuracy.  On the line the samples
    j = 2 and 6 are their own mirror and add exactly 1.  PoleError at 1
    where a sample lies in the lattice box of 0 or 1, as zeta's pole is
    then the sample or its mirror.  Near the line the ratio shows |f| = 1,
    not that zeta vanishes.
    """
    s0 = complex(s0)
    _require_strip(s0, "criterion_ratio")
    mirror = complex(1.0 - s0.real, s0.imag)
    total = 0.0
    for j, u in enumerate(_UNIT_ROOTS):
        s = s0 + CRITERION_RADIUS * u
        if lattice_point(s) in (0, 1):
            raise PoleError(1.0, residue=1.0)
        # 1 - conj(s0 + radius u) = mirror + radius (-conj u)
        reflected = mirror + CRITERION_RADIUS * _UNIT_ROOTS[(4 - j) % 8]
        if s == reflected:
            total += 1.0
        elif s.real < 0.5:
            total += abs(f_factor(s))
        else:
            total += 1.0 / abs(f_factor(reflected))
    return total / len(_UNIT_ROOTS)
