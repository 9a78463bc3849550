"""Riemann-sphere geometry: stereographic projection, the integer-fiber
covering of the sphere, the zero-gap-normalizing sector retraction, and
numeric Cauchy-Riemann residuals.

Sphere model: points (z0, w0) with z0 complex, w0 real, satisfying
|z0|^2 - 1 + (w0 - 1)^2 = 0 -- the radius-1 sphere centred at height 1.
The south pole (0, 0) projects to 0, the north pole (0, 2) to infinity,
and projection is z = 2 z0 / (2 - w0).
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import BoundaryPoint, DomainError, InsufficientOrdinates, InvalidSpherePoint
from .specfun import finite_argument

CONSTRAINT_BOUND = 1e-10
CR_STEP = 1e-6  # central-difference step of cr_residual
# |z/2| past which 2 |z|^2 overflows
_HALF_LIFT_MAX = math.sqrt(sys.float_info.max / 8)


class _InfinityType:
    """The single point at infinity of the extended plane; equal only to
    itself.  Copies and pickles resolve to the module's INFINITY by name."""

    def __repr__(self):
        return "INFINITY"

    def __reduce__(self):
        return "INFINITY"


INFINITY = _InfinityType()

ExtendedPoint = complex | _InfinityType


def is_infinity(p: ExtendedPoint) -> bool:
    return p is INFINITY


@dataclass(frozen=True)
class SpherePoint:
    z0: complex
    w0: float

    def constraint_residual(self) -> float:
        return abs(abs(self.z0) ** 2 - 1.0 + (self.w0 - 1.0) ** 2)


@dataclass(frozen=True)
class CoverPoint:
    """Image of the covering map: base abscissa and angle fraction in [0,1)."""

    x0: float
    phase: float


NORTH_POLE = SpherePoint(0j, 2.0)
SOUTH_POLE = SpherePoint(0j, 0.0)


def stereo_project(p: SpherePoint) -> ExtendedPoint:
    """z = 2 z0 / (2 - w0); the north pole goes to infinity by continuity."""
    if p.constraint_residual() > CONSTRAINT_BOUND:
        raise InvalidSpherePoint(f"constraint residual {p.constraint_residual():.3e} at {p}")
    if abs(p.w0 - 2.0) < 1e-15:
        return INFINITY
    return 2.0 * p.z0 / (2.0 - p.w0)


def stereo_lift(z: ExtendedPoint) -> SpherePoint:
    """The unique sphere point projecting to z, finite for every finite z;
    infinity lifts to (0, 2), and a NaN or infinite complex z is a
    DomainError.

    z0 = 4 z / (4 + |z|^2) and w0 = 2 |z|^2 / (4 + |z|^2), until 2 |z|^2
    overflows (|z| ~ 9.5e153); past that through q = 2 / |z|:
    w0 = 2 / (1 + q^2), z0 = 2 q (z / |z|) / (1 + q^2).  q is taken from
    |z/2|, which is finite even where |z| is not.
    """
    if is_infinity(z):
        return NORTH_POLE
    z = finite_argument(z, "stereo_lift")
    half = 0.5 * z
    r_half = abs(half)
    if r_half < _HALF_LIFT_MAX:
        r2 = abs(z) ** 2
        return SpherePoint(4.0 * z / (4.0 + r2), 2.0 * r2 / (4.0 + r2))
    q = 1.0 / r_half
    scale = 1.0 + q * q
    return SpherePoint(2.0 * q * (half / r_half) / scale, 2.0 / scale)


def chordal_distance(a: ExtendedPoint, b: ExtendedPoint) -> float:
    """Euclidean distance in R^3 between the stereographic lifts, by
    math.hypot, so tiny differences do not underflow when squared (the
    distance from z to infinity is 4 / sqrt(4 + |z|^2)).  DomainError, from
    stereo_lift, for a NaN or infinite complex point."""
    pa, pb = stereo_lift(a), stereo_lift(b)
    dz = pa.z0 - pb.z0
    return math.hypot(dz.real, dz.imag, pa.w0 - pb.w0)


def covering_a(z: complex) -> CoverPoint:
    """(x + iy) -> (x, y mod 1): the covering with fiber Z, phase measured
    as the fraction of the 2 pi angle on the circle through x and infinity.
    DomainError for a NaN or infinite z."""
    z = finite_argument(z, "covering_a")
    return CoverPoint(x0=z.real, phase=z.imag % 1.0)


def _check_ordinates(ordinates: Sequence[float]) -> list[float]:
    ords = [float(t) for t in ordinates]
    if len(ords) < 2:
        raise InsufficientOrdinates("need at least two zero ordinates")
    if any(b <= a for a, b in zip(ords, ords[1:])):
        raise InsufficientOrdinates("ordinates must be strictly increasing")
    if ords[0] <= 0:
        raise InsufficientOrdinates("ordinates must be positive (upper half-plane zeros)")
    return ords


def _retract_ordinate(y: float, ords: list[float]) -> float:
    if y < 0:
        return -_retract_ordinate(-y, ords)
    z0 = ords[0]
    if y <= z0:
        return y
    k = bisect_right(ords, y) - 1
    if k >= len(ords) - 1:
        # past the last known zero: reuse the final gap's scale
        k = len(ords) - 2
        return z0 + k + 1 + (y - ords[-1]) / (ords[-1] - ords[-2])
    return z0 + k + (y - ords[k]) / (ords[k + 1] - ords[k])


def sector_retraction(z: complex, ordinates: Sequence[float]) -> complex:
    """Piecewise-affine map fixing x and rescaling each zero gap
    [z_k, z_(k+1)] onto [z_0 + k, z_0 + k + 1]; odd in y; identity below
    the first zero ordinate."""
    ords = _check_ordinates(ordinates)
    z = complex(z)
    return complex(z.real, _retract_ordinate(z.imag, ords))


def covering_b(z: complex, ordinates: Sequence[float]) -> CoverPoint:
    """The zeros-normalized covering: covering_a after sector_retraction.
    Every zero ordinate lands on the phase frac(z_0), one phase per
    half-plane."""
    return covering_a(sector_retraction(z, ordinates))


class SectorMap:
    """Planar-map descriptor for the sector retraction: (x, y) -> (x, y-bar).

    Carries its derivative-discontinuity lines so difference stencils can
    refuse to straddle them.
    """

    def __init__(self, ordinates: Sequence[float]):
        self._ords = _check_ordinates(ordinates)

    def __call__(self, x: float, y: float) -> tuple[float, float]:
        return x, _retract_ordinate(y, self._ords)

    @property
    def boundaries(self) -> tuple[float, ...]:
        return tuple(-t for t in reversed(self._ords)) + tuple(self._ords)


def cr_residual(map_fn: Callable[[float, float], tuple[float, float]], z: complex) -> tuple[float, float]:
    """Cauchy-Riemann residuals (|du/dx - dv/dy|, |du/dy + dv/dx|) of a
    planar map at z, via central differences with step CR_STEP.

    A map that keeps both residuals at 0 on a region satisfies the
    hypothesis of the Looman-Menchoff holomorphy criterion there; the
    sector retraction does not (first residual |1 - 1/gap|).
    """
    h = CR_STEP
    x, y = complex(z).real, complex(z).imag
    for b in getattr(map_fn, "boundaries", ()):
        if abs(y - b) <= h:
            raise BoundaryPoint(f"stencil at y={y} straddles sector boundary {b}")
    u_xp, v_xp = map_fn(x + h, y)
    u_xm, v_xm = map_fn(x - h, y)
    u_yp, v_yp = map_fn(x, y + h)
    u_ym, v_ym = map_fn(x, y - h)
    du_dx = (u_xp - u_xm) / (2 * h)
    dv_dx = (v_xp - v_xm) / (2 * h)
    du_dy = (u_yp - u_ym) / (2 * h)
    dv_dy = (v_yp - v_ym) / (2 * h)
    return abs(du_dx - dv_dy), abs(du_dy + dv_dx)


def accumulation_gaps(ordinates: Sequence[float]) -> list[float]:
    """Chordal distances from the lifted critical-line zeros 1/2 + i z_k to
    the north pole; strictly decreasing, tending to 0: the numeric shadow of
    'infinity is an accumulation point of the projected zeros'."""
    ords = [float(t) for t in ordinates]
    if any(b <= a for a, b in zip(ords, ords[1:])):
        raise DomainError("ordinates must be strictly increasing")
    return [chordal_distance(complex(0.5, t), INFINITY) for t in ords]
