"""Refusals shared across the evaluators: the integer-lattice box of
POLE_WINDOW, in which Gamma, psi, f, the reflection, zeta, the completed
zeta and zeta's Laurent series refuse, the exit at the end of double
range, the eta term cap on the reflected route, and the argument checks of
the zero refiner, the divisor and sphere types and the Bernoulli numbers."""

import math

import pytest

from zetasphere.errors import ConvergenceError, DomainError, InsufficientOrdinates, PoleError, ZetasphereError
from zetasphere.mero import BranchData, Divisor, RationalMap
from zetasphere.modulus import gamma_abs_dx
from zetasphere.sphere import sector_retraction
from zetasphere.specfun import (
    POLE_WINDOW,
    digamma,
    digamma_series_reference,
    gamma,
    loggamma,
    psi_pair_series,
    reflection_residual,
)
from zetasphere.zeros import refine_zero, theta
from zetasphere.zeta import (
    bernoulli_exact,
    completed_zeta,
    f_factor,
    functional_rhs,
    laurent_eval,
    zeta_eval,
    zeta_log_logderiv,
)

# (function, n, error raised within POLE_WINDOW of n, the error's index)
LATTICE = [
    (loggamma, -3, PoleError, 3),
    (loggamma, 0, PoleError, 0),
    (gamma, -3, PoleError, 3),
    (gamma, 0, PoleError, 0),
    (digamma, -3, PoleError, 3),
    (digamma, 0, PoleError, 0),
    (digamma_series_reference, -3, PoleError, None),
    (digamma_series_reference, 0, PoleError, None),
    (psi_pair_series, -3, PoleError, None),
    (psi_pair_series, 0, PoleError, None),
    (f_factor, 1, PoleError, 0),
    (f_factor, 2, PoleError, 1),
    (functional_rhs, 0, DomainError, None),
    (functional_rhs, 1, DomainError, None),
    (functional_rhs, 2, DomainError, None),
    (reflection_residual, 0, DomainError, None),
    (reflection_residual, 1, DomainError, None),
    (zeta_eval, 1, PoleError, None),
    (completed_zeta, 0, PoleError, None),
    (completed_zeta, 1, PoleError, None),
    (laurent_eval, 1, PoleError, None),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "function, n, error, index", LATTICE, ids=[f"{row[0].__name__}-{row[1]}" for row in LATTICE]
)
def test_lattice_box_refuses_inside_and_answers_outside(function, n, error, index):
    inside = (POLE_WINDOW / 2, -POLE_WINDOW / 2, 0.5j * POLE_WINDOW)
    for offset in inside:
        with pytest.raises(error) as exc:
            function(n + offset)
        assert getattr(exc.value, "index", None) == index
    outside = [n + d for d in (2 * POLE_WINDOW, -2 * POLE_WINDOW, 2j * POLE_WINDOW)]
    if function is reflection_residual:
        # it refuses everywhere off the open strip 0 < Re s < 1
        outside = [s for s in outside if 0 < s.real < 1]
    for s in outside:
        value = complex(function(s))
        assert math.isfinite(value.real) and math.isfinite(value.imag), (s, value)


# a point where Im log Gamma(s) and Im log Gamma(1 - s) pass double range
ESCAPE = complex(-0.6946483235119554, 3.833474020713511e305)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "function, s",
    [
        (zeta_eval, ESCAPE),
        (f_factor, ESCAPE),
        (functional_rhs, ESCAPE),
        (gamma, ESCAPE),
        (gamma_abs_dx, ESCAPE),
        (zeta_eval, complex(3.3e-8, -6.3e305)),
        # log Gamma itself past double range, in its real part
        (loggamma, complex(4.737470081749453e307, 0.6375349242261237)),
        (loggamma, 1e308),
        # the Lanczos half power t^((s - 1/2) / 2) on Gamma's home half-strip
        (gamma, 300),
        (gamma, 300 + 5j),
        # theta(t) itself, from |t| ~ 5e305
        (theta, 5.2e305),
        (theta, -5.2e305),
        (theta, 1.26e308),
    ],
    ids=[
        "zeta_eval", "f_factor", "functional_rhs", "gamma", "gamma_abs_dx", "zeta_eval-low", "loggamma",
        "loggamma-real", "gamma-home-real", "gamma-home", "theta", "theta-negative", "theta-far",
    ],
)
def test_past_double_range_is_typed(function, s):
    with pytest.raises(ZetasphereError, match="leaves double range"):
        function(s)


@pytest.mark.parametrize(
    "function, n",
    [(zeta_eval, 1), (completed_zeta, 0), (completed_zeta, 1), (zeta_log_logderiv, 1), (laurent_eval, 1)],
    ids=["zeta_eval-1", "completed_zeta-0", "completed_zeta-1", "zeta_log_logderiv-1", "laurent_eval-1"],
)
def test_pole_box_corner_refuses(function, n):
    # inside the lattice box, outside the disc |s - n| < POLE_WINDOW
    with pytest.raises(PoleError) as exc:
        function(n + 0.9 * POLE_WINDOW * (1 + 1j))
    assert exc.value.point == n


# both parts past ~1.27e308, where abs(s) would overflow
BOTH_PARTS_FAR = [complex(1.5e308, 1.5e308), complex(-1.5e308, -1.7e308), complex(1.5e308, -1.5e308)]
FAR_FUNCTIONS = [
    zeta_eval,
    completed_zeta,
    zeta_log_logderiv,
    laurent_eval,
    digamma_series_reference,
    psi_pair_series,
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("s", BOTH_PARTS_FAR, ids=str)
@pytest.mark.parametrize("function", FAR_FUNCTIONS, ids=[f.__name__ for f in FAR_FUNCTIONS])
def test_both_parts_far_out_is_typed(function, s):
    with pytest.raises(ZetasphereError):
        function(s)


# left of the line zeta and the completed zeta sum eta at 1 - s; the cap
# depends on |Im s| alone, so its message names that, not 1 - s
@pytest.mark.parametrize(
    "function, s",
    [(zeta_eval, complex(-1, 1.2e7)), (completed_zeta, complex(-1, 1.2e7)), (completed_zeta, complex(-1.5e308, -1.7e308))],
    ids=["zeta_eval", "completed_zeta", "completed_zeta-far"],
)
def test_reflected_refusal_names_no_reflected_point(function, s):
    with pytest.raises(ConvergenceError) as exc:
        function(s)
    assert repr(1 - s) not in str(exc.value)


# argument checks that raise the typed error at once
@pytest.mark.parametrize(
    "function, args, error",
    [
        (refine_zero, ((14.3, 14.0),), DomainError),
        (Divisor, ({1j: 1.5},), DomainError),
        (RationalMap, (1, ((1j, 1.5),)), DomainError),
        (RationalMap, (1, (), ((1j, 0),)), DomainError),
        (BranchData, (2, ((0j, 1),)), DomainError),
        (sector_retraction, (0.5 + 1j, [-1.0, 2.0]), InsufficientOrdinates),
        (bernoulli_exact, (-1,), DomainError),
    ],
    ids=[
        "refine_zero-decreasing", "Divisor-fraction", "RationalMap-fractional-zero", "RationalMap-zero-pole-order",
        "BranchData-unramified", "sector_retraction-negative", "bernoulli_exact-negative",
    ],
)
def test_invalid_argument_is_typed(function, args, error):
    with pytest.raises(error):
        function(*args)
