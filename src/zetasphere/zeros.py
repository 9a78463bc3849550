"""Critical-line zero location and argument-principle rectangle counting.

The scanner works on the real-valued restriction of the completed zeta to
the critical line.  Sign changes are detected on a uniform grid, then each
bracket is tightened by bisection: a grid bracket of 0.25 takes
log2(0.25 / 1e-9) = 28 halvings, 28 kernel evaluations, since its two ends
come from the grid (30 for a bracket refined on its own).

An independent count of zeros inside a rectangle comes from the winding of
the completed zeta along the boundary: adaptive Simpson quadrature of its
log-derivative, phase-step guarded, which halves a segment until Simpson's
rule on it and the composite rule over its quarter points agree.  The
log-derivative is analytic and the phase is taken in log space, so neither
underflows and the count reaches t = 1000.  A node left of the critical line
is the conjugate of its mirror image across Re s = 1/2, so a contour
symmetric about the line costs one eta sum per mirror pair of nodes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from . import __version__
from .errors import (
    ConvergenceError,
    DomainError,
    NoSignChange,
    PhaseJumpError,
    PoleError,
    RealnessViolation,
)
from .modulus import criterion_ratio
from .zeta import (
    completed_log_prefactor,
    completed_zeta,
    completed_zeta_phase_logderiv,
    zeta_eval,
)

BRACKET_TOLERANCE = 1e-9
QUADRATURE_TOLERANCE = 2e-4  # rectangle count: split while |fine - coarse| exceeds this
QUADRATURE_MAX_DEPTH = 30  # rectangle count: most halvings of one edge
CRITERION_RADIUS = 1e-4
CSV_HEADER = f"# zetasphere v{__version__}"


@dataclass(frozen=True)
class ZeroRecord:
    """A located critical-line zero: its ordinate t (zero at 1/2 + it),
    the final refinement bracket, |completed zeta| residual there, and the
    criterion-ratio value (1 exactly when the zero sits on the line)."""

    ordinate: float
    bracket: tuple[float, float]
    residual: float
    criterion: float


@dataclass(frozen=True)
class Rectangle:
    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self):
        if not self.x_min < self.x_max:
            raise DomainError("Rectangle needs x_min < x_max")
        if not 0.0 < self.y_min < self.y_max:
            raise DomainError("Rectangle needs 0 < y_min < y_max (poles sit at y=0)")


def z_real(t: float) -> float:
    """Re of the completed zeta at 1/2 + it, with a realness audit.

    The imaginary residual must stay below 1e-10 (1 + |Re|); anything larger
    means the evaluator itself broke, so it raises rather than returns.
    """
    w = completed_zeta(complex(0.5, t))
    if abs(w.imag) > 1e-10 * (1.0 + abs(w.real)):
        raise RealnessViolation(
            f"Im completed zeta at t={t} is {w.imag:.3e}, beyond the realness bound"
        )
    return w.real


def _sign_kernel(t: float) -> float:
    """Same sign as z_real(t) with the positive e^(Re log-prefactor) factor
    stripped, so the scan keeps a usable signal where the completed zeta
    underflows (t beyond ~900)."""
    s = complex(0.5, t)
    a = completed_log_prefactor(s)
    zv = zeta_eval(s)
    return math.cos(a.imag) * zv.real - math.sin(a.imag) * zv.imag


def _refine_bracket(a: float, b: float, fa: float, fb: float) -> tuple[float, float]:
    if fa == 0.0:
        return a, a
    if fb == 0.0:
        return b, b
    a_negative = fa < 0
    if a_negative == (fb < 0):
        raise NoSignChange(f"no sign change of Z across ({a}, {b})")
    while b - a > BRACKET_TOLERANCE:
        m = 0.5 * (a + b)
        fm = _sign_kernel(m)
        if fm == 0.0:
            return m, m
        if (fm < 0) == a_negative:
            a = m
        else:
            b = m
    return a, b


def refine_zero(
    bracket: tuple[float, float], *, ends: tuple[float, float] | None = None
) -> ZeroRecord:
    """Tighten a sign-change bracket to width < 1e-9 and record residual and
    criterion value at the located ordinate.

    ``ends`` are the kernel values at the two bracket ends when the caller
    already has them (the scan's grid); without them they are evaluated.
    """
    a, b = bracket
    if not a < b:
        raise DomainError("bracket must be an increasing pair")
    fa, fb = (_sign_kernel(a), _sign_kernel(b)) if ends is None else ends
    a, b = _refine_bracket(a, b, fa, fb)
    t = 0.5 * (a + b)
    residual = abs(completed_zeta(complex(0.5, t)))
    criterion = criterion_ratio(complex(0.5, abs(t)), CRITERION_RADIUS)
    return ZeroRecord(ordinate=t, bracket=(a, b), residual=residual, criterion=criterion)


def scan_zeros(t0: float, t1: float, step: float) -> list[ZeroRecord]:
    """Detect and refine all sign changes of Z on the grid t0, t0+step, ...

    A grid point where the kernel is exactly 0 opens the bracket to its
    right neighbour; refinement then returns that point itself.
    """
    if not (0.0 <= t0 < t1 <= 1000.0):
        raise DomainError("scan range must satisfy 0 <= t0 < t1 <= 1000")
    if not 0.01 <= step <= 1.0:
        raise DomainError("scan step must lie in [0.01, 1]")
    n_steps = int(math.floor((t1 - t0) / step + 1e-9))
    if n_steps < 1:
        return []
    brackets = []
    prev_t, prev_v = t0, _sign_kernel(t0)
    for i in range(1, n_steps + 1):
        t = t0 + i * step
        v = _sign_kernel(t)
        if prev_v == 0.0 or prev_v * v < 0:
            brackets.append(((prev_t, t), (prev_v, v)))
        prev_t, prev_v = t, v
    deduped: list[ZeroRecord] = []
    for bracket, ends in brackets:
        rec = refine_zero(bracket, ends=ends)
        if deduped and abs(rec.ordinate - deduped[-1].ordinate) < 10 * BRACKET_TOLERANCE:
            continue
        deduped.append(rec)
    return deduped


# ---------------------------------------------------------------------------
# argument-principle counting


def count_zeros_rectangle(rect: Rectangle) -> int:
    """Winding number (1/2 pi i) contour integral of zt'/zt around rect.

    Adaptive Simpson quadrature on the boundary: a segment is halved
    until its endpoint phase step drops below pi/4 AND Simpson's rule over
    its ends and midpoint agrees within QUADRATURE_TOLERANCE with the
    composite rule over its quarter points, whose value is kept; the halves
    take the quarter points as their midpoints, so no node is evaluated
    twice.  The phase of zt and the log-derivative zt'/zt come analytically
    from ``completed_zeta_phase_logderiv``, in log space, so the count works
    out to t = 1000, where zt itself underflows.
    Since zt(s) = conj zt(1 - conj s), a node z left of Re s = 1/2 takes
    (-phase, -conj(zt'/zt)) of its mirror image 1 - conj z, and a contour
    symmetric about the line costs one eta sum per mirror pair of nodes;
    the cache lives for one call.  Raises PhaseJumpError when
    refinement cannot get adjacent phases within pi/2 (boundary hugging a
    zero).
    """
    corners = [
        complex(rect.x_min, rect.y_min),
        complex(rect.x_max, rect.y_min),
        complex(rect.x_max, rect.y_max),
        complex(rect.x_min, rect.y_max),
        complex(rect.x_min, rect.y_min),
    ]
    cache: dict[complex, tuple[float, complex]] = {}

    def node(z: complex) -> tuple[float, complex]:
        if z in cache:
            return cache[z]
        if z.real >= 0.5:
            cache[z] = completed_zeta_phase_logderiv(z)
            return cache[z]
        # zt(z) = conj zt(m) at the mirror image m across Re s = 1/2
        m = complex(1.0 - z.real, z.imag)
        if m not in cache:
            try:
                cache[m] = completed_zeta_phase_logderiv(m)
            except PoleError:
                # Re m >= 1/2, so m is next to the pole at 1 and z next to 0
                raise PoleError(0.0) from None
            except DomainError as exc:
                raise DomainError(
                    f"completed zeta has no phase or log-derivative at s = {z}"
                ) from exc
        phase, logderiv = cache[m]
        cache[z] = (-phase % (2 * math.pi), -logderiv.conjugate())
        return cache[z]

    def g(z: complex) -> complex:
        return node(z)[1]

    def wrapped_step(za: complex, zb: complex) -> float:
        return (node(zb)[0] - node(za)[0] + math.pi) % (2 * math.pi) - math.pi

    integral = 0j
    for i in range(4):
        za, zb = corners[i], corners[i + 1]
        zm = 0.5 * (za + zb)
        stack = [(za, zm, zb, g(za), g(zm), g(zb), 0)]
        while stack:
            za, zm, zb, ga, gm, gb, depth = stack.pop()
            z1, z3 = 0.5 * (za + zm), 0.5 * (zm + zb)
            g1, g3 = g(z1), g(z3)
            coarse = (ga + 4 * gm + gb) * (zb - za) / 6
            fine = (ga + 4 * g1 + 2 * gm + 4 * g3 + gb) * (zb - za) / 12
            dphi = abs(wrapped_step(za, zb))
            if dphi > math.pi / 4 or abs(fine - coarse) > QUADRATURE_TOLERANCE:
                if depth >= QUADRATURE_MAX_DEPTH:
                    if dphi > math.pi / 4:
                        raise PhaseJumpError(
                            f"phase step {dphi:.3f} > pi/4 near {zm} after refinement; "
                            "boundary too close to a zero"
                        )
                else:
                    stack.append((za, z1, zm, ga, g1, gm, depth + 1))
                    stack.append((zm, z3, zb, gm, g3, gb, depth + 1))
                    continue
            if max(abs(wrapped_step(za, zm)), abs(wrapped_step(zm, zb))) > math.pi / 2:
                raise PhaseJumpError(
                    f"phase step > pi/2 near {zm} after refinement; boundary too close to a zero"
                )
            integral += fine
    count = integral / (2j * math.pi)
    nearest = round(count.real)
    if abs(count.real - nearest) > 0.25 or abs(count.imag) > 0.25:
        raise ConvergenceError(f"winding integral {count} not close to an integer")
    return int(nearest)


# ---------------------------------------------------------------------------
# catalog export / import


def records_to_csv(records: list[ZeroRecord]) -> str:
    lines = [CSV_HEADER, "ordinate,residual,criterion"]
    for r in records:
        lines.append(f"{r.ordinate:.12f},{r.residual:.6e},{r.criterion:.9f}")
    return "\n".join(lines) + "\n"


def records_to_json(records: list[ZeroRecord]) -> str:
    payload = [
        {
            "ordinate": r.ordinate,
            "bracket": list(r.bracket),
            "residual": r.residual,
            "criterion": r.criterion,
        }
        for r in records
    ]
    return json.dumps(payload, indent=2) + "\n"
