"""Refusals shared across the evaluators: the integer-lattice box of
POLE_WINDOW, in which Gamma, psi, f and the reflection refuse, and the exit
at the end of double range."""

import math

import pytest

from zetasphere.errors import DomainError, PoleError, ZetasphereError
from zetasphere.modulus import gamma_abs_dx
from zetasphere.specfun import (
    POLE_WINDOW,
    digamma,
    digamma_series_reference,
    gamma,
    loggamma,
    psi_pair_series,
    reflection_residual,
)
from zetasphere.zeta import f_factor, functional_rhs, zeta_eval

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
    ],
    ids=["zeta_eval", "f_factor", "functional_rhs", "gamma", "gamma_abs_dx", "zeta_eval-low", "loggamma", "loggamma-real"],
)
def test_past_double_range_is_typed(function, s):
    with pytest.raises(ZetasphereError, match="leaves double range"):
        function(s)
