"""The strip-collapsing homotopy flow and divisor transport.

The flow fixes everything outside the sub-strip [a, 1-a], moves abscissae
inside it linearly toward 1/2 (reaching it exactly at t = 1), and never
touches ordinates.  The printed formula jumps at x = a and x = 1-a for
t > 0 even though the surrounding prose claims the boundary stays fixed;
continuity_probe measures that jump and flags it instead of smoothing it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .mero import Divisor
from .report import VerificationItem, flag_item, make_item
from .sphere import is_infinity

DEFAULT_STRIP_MARGIN = 0.1


@dataclass(frozen=True)
class FlowParams:
    """Sub-strip abscissa a (boundaries x = a and x = 1-a) and flow time t."""

    a: float = DEFAULT_STRIP_MARGIN
    t: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.a < 0.5:
            raise DomainError("strip abscissa must satisfy 0 < a < 1/2")
        if not 0.0 <= self.t <= 1.0:
            raise DomainError("flow time must lie in [0, 1]")


def flow_map(p: FlowParams, z: complex) -> complex:
    """x outside [a, 1-a] unchanged; inside, x + t(1/2 - x); y unchanged.

    Written as x(1-t) + t/2 so t = 1 lands on 1/2 exactly in floating point.
    """
    z = complex(z)
    x = z.real
    if p.a <= x <= 1.0 - p.a:
        x = x * (1.0 - p.t) + 0.5 * p.t
    return complex(x, z.imag)


def flow_velocity(p: FlowParams, z: complex) -> tuple[float, float]:
    """(1/2 - x, 0) inside the sub-strip, (0, 0) outside."""
    x = complex(z).real
    if p.a <= x <= 1.0 - p.a:
        return (0.5 - x, 0.0)
    return (0.0, 0.0)


def transport_divisor(p: FlowParams, d: Divisor) -> Divisor:
    """Push every finite support point through the flow; infinity is fixed;
    coinciding images merge, so the degree is preserved."""
    support = {}
    for point, mult in d.items():
        image = point if is_infinity(point) else flow_map(p, point)
        support[image] = support.get(image, 0) + mult
    return Divisor(support)


def continuity_probe(p: FlowParams) -> list[VerificationItem]:
    """Measure the map jump across x = a with shrinking offsets and
    extrapolate to the boundary.

    The extrapolated jump equals t(1/2 - a); since the prose asserts a fixed
    boundary, a nonzero jump is reported as a discrepancy flag, not a
    failure.
    """
    expected = p.t * (0.5 - p.a)
    items: list[VerificationItem] = []
    jumps = []
    for eps in (1e-6, 5e-7, 2.5e-7):
        jump = abs(flow_map(p, complex(p.a - eps, 0.0)) - flow_map(p, complex(p.a + eps, 0.0)))
        jumps.append((eps, jump))
        items.append(
            make_item(f"flow/boundary-jump eps={eps:g}", expected, jump, 4 * eps + 1e-12)
        )
    # the jump is exactly linear in eps, so one Richardson step removes it
    extrapolated = 2 * jumps[1][1] - jumps[0][1]
    items.append(make_item("flow/boundary-jump extrapolated", expected, extrapolated, 1e-9))
    seam = abs(
        flow_map(p, complex(0.5 - 1e-9, 1.0)) - flow_map(p, complex(0.5 + 1e-9, 1.0))
    )
    items.append(make_item("flow/seam-at-half continuous", 0.0, seam, 1e-8))
    # prose says the sub-strip boundary stays fixed; the formula moves it
    items.append(
        flag_item("flow/prose-fixed-boundary vs measured jump", 0.0, extrapolated, 1e-12)
        if p.t > 0
        else make_item("flow/prose-fixed-boundary vs measured jump", 0.0, extrapolated, 1e-12)
    )
    return items
