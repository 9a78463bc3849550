"""Modulus machinery for f(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s).

Includes the closed-form modulus on the critical strip, the printed
d/dx formulas (kept verbatim, checked against central differences, with
disagreements reported rather than repaired), the critical-line criterion
ratio, and the small-|s| asymptotic probes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import DomainError
from .report import VerificationItem, make_item
from .specfun import gamma, psi_pair
from .zeta import f_factor, zeta_eval

CRITERION_SAMPLES = 8
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


def _bracket(x: float, y: float) -> float:
    """e^(-pi y) + e^(pi y) + 2 (2 sin^2(pi x / 2) - 1)."""
    return 2.0 * math.cosh(math.pi * y) + 2.0 * (2.0 * math.sin(math.pi * x / 2) ** 2 - 1.0)


def f_abs_closed(s: complex) -> ModulusBreakdown:
    """Closed-form |f(s)| on the open strip, broken into displayed factors."""
    s = complex(s)
    _require_strip(s, "f_abs_closed")
    x, y = s.real, s.imag
    b = _bracket(x, y)
    gamma_abs = abs(gamma(1 - s))
    product = (2 * math.pi) ** (x - 1) * math.sqrt(b) * gamma_abs
    return ModulusBreakdown(
        two_pow=2.0**x,
        pi_pow=math.pi ** (x - 1),
        sin_abs=0.5 * math.sqrt(b),
        gamma_abs=gamma_abs,
        product=product,
    )


def gamma_abs_dx(s: complex) -> float:
    """d/dx |Gamma(1-s)| = -(1/2) |Gamma(1-s)| (psi(1-s) + psi(conj(1-s)))."""
    s = complex(s)
    return -0.5 * abs(gamma(1 - s)) * psi_pair(1 - s)


def f_abs_dx(s: complex) -> float:
    """The printed d/dx |f(s)| formula, evaluated verbatim.

    The first term carries the bracket to the power 3/2 over the same
    bracket to the power 1/2 exactly as printed; where that disagrees with
    the central difference of f_abs_closed, the verification suite flags the
    point instead of silently correcting the exponent.
    """
    s = complex(s)
    _require_strip(s, "f_abs_dx")
    x, y = s.real, s.imag
    b = _bracket(x, y)
    gamma_abs = abs(gamma(1 - s))
    sin_cos = math.sin(math.pi * x / 2) * math.cos(math.pi * x / 2)
    brace = (math.log(2 * math.pi) * b**1.5 + 2 * math.pi * sin_cos) / math.sqrt(b)
    term1 = gamma_abs * (2 * math.pi) ** (x - 1) * brace
    term2 = (2 * math.pi) ** (x - 1) * math.sqrt(b) * gamma_abs_dx(s)
    return term1 + term2


def central_dx(fn: Callable[[complex], float], s: complex, h: float) -> float:
    """Central difference in the x direction of a real-valued planar map."""
    return (fn(s + h) - fn(s - h)) / (2 * h)


def f_abs_product(s: complex) -> float:
    """|f(s)| through the closed form (product field only)."""
    return f_abs_closed(s).product


def criterion_ratio(s0: complex) -> float:
    """Mean of |zeta(s)| / |zeta(1-s)| over a small circle about s0.

    The limit surrogate for the on-the-critical-line criterion: the mean
    equals |f(s0)| up to O(radius^2), radius = CRITERION_RADIUS.  The
    samples are s0 + radius U[j] over the exact eighth roots of unity U,
    and |zeta(1-s)| is taken as |zeta(1 - conj s)| (Schwarz reflection)
    at mirror + radius U[(4 - j) % 8], mirror =
    1 - conj s0.  On the line mirror == s0, so the two circles are one and
    the ratio costs 8 zeta evaluations, not 16.

    Near the line the ratio is the mean of |f(s)| (samples left of it) and
    1/|f(1 - conj s)| (right of it) by construction: zeta_eval takes Re s <
    1/2 as f(s) zeta(1 - s), so zeta cancels.  It shows |f| = 1 there, not
    that zeta vanishes.
    """
    s0 = complex(s0)
    _require_strip(s0, "criterion_ratio")
    mirror = complex(1.0 - s0.real, s0.imag)
    moduli: dict[complex, float] = {}

    def modulus_at(s: complex) -> float:
        if s not in moduli:
            moduli[s] = abs(zeta_eval(s))
        return moduli[s]

    total = 0.0
    for j, u in enumerate(_UNIT_ROOTS):
        # 1 - conj(s0 + radius u) = mirror + radius (-conj u)
        reflected = mirror + CRITERION_RADIUS * _UNIT_ROOTS[(4 - j) % 8]
        total += modulus_at(s0 + CRITERION_RADIUS * u) / modulus_at(reflected)
    return total / CRITERION_SAMPLES


def asymptotic_suite() -> list[VerificationItem]:
    """Shrinking-parameter probes along s = eps (1+i)/sqrt(2).

    |f(s)| |zeta(1-s)| must approach 1/2 (the 0*inf limit at the origin) and
    |f(s)| must approach 0, both monotonically over the eps sequence.
    """
    epsilons = (1e-2, 1e-3, 1e-4)
    direction = (1 + 1j) / math.sqrt(2)
    items: list[VerificationItem] = []
    product_errs = []
    f_values = []
    for eps in epsilons:
        s = eps * direction
        fval = abs(f_factor(s))
        prod = fval * abs(zeta_eval(1 - s))
        f_values.append(fval)
        product_errs.append(abs(prod - 0.5))
        tol = max(2 * eps, 1e-3)
        items.append(make_item(f"asymptotic/product-to-half eps={eps:g}", 0.5, prod, tol))
        items.append(make_item(f"asymptotic/f-to-zero eps={eps:g}", 0.0, fval, 2 * eps))
    monotone_prod = all(product_errs[i] > product_errs[i + 1] for i in range(len(epsilons) - 1))
    monotone_f = all(f_values[i] > f_values[i + 1] for i in range(len(epsilons) - 1))
    items.append(make_item("asymptotic/product-monotone", 1.0, float(monotone_prod), 0.5))
    items.append(make_item("asymptotic/f-monotone", 1.0, float(monotone_f), 0.5))
    return items
