"""Critical-line zero location and argument-principle rectangle counting.

The scanner works on the real-valued restriction of the completed zeta to
the critical line.  Sign changes are detected on a uniform grid, then each
bracket is tightened by bisection: a grid bracket of 0.25 takes
log2(0.25 / 1e-9) = 28 halvings, 28 kernel evaluations, since its two ends
come from the grid (30 for a bracket refined on its own).

An independent count of zeros inside a rectangle comes from the winding of
the completed zeta along the boundary.  Its Gamma factor's part is exact, and
so is log zeta's on Re s >= 1.1, where |arg zeta| < pi makes the principal
log continuous (Backlund).  Only zeta'/zeta on 1/2 <= Re s < 1.1, and the
mirror images of those pieces, take adaptive Simpson quadrature, phase-step
guarded, which halves a segment until Simpson's rule on it and the composite
rule over its quarter points agree.  Nothing is formed that underflows, so
the count reaches t = 1000.
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
from .specfun import POLE_WINDOW
from .zeta import (
    completed_log_prefactor,
    completed_zeta,
    zeta_eval,
    zeta_log_logderiv,
)

BRACKET_TOLERANCE = 1e-9
QUADRATURE_TOLERANCE = 2e-4  # rectangle count: split while |fine - coarse| exceeds this
QUADRATURE_MAX_DEPTH = 30  # rectangle count: most halvings of one edge
# rectangle count: vertical edges this far from the critical line are taken
# exactly; log zeta(1.1) = 2.36 < pi bounds |arg zeta| on Re s >= 1.1
EXACT_EDGE_SIGMA = 1.1
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


def _simpson_edge(node, za: complex, zb: complex) -> complex:
    """Integral of zt'/zt along the segment za -> zb by adaptive Simpson.

    ``node(z)`` gives (log zt(z), zt'/zt(z)); only the imaginary part of the
    log, the phase, is read, and only modulo 2 pi.  A segment is halved
    until its end-to-end phase step and each of its four quarter-point
    steps are within pi/4 AND Simpson's rule over its ends and midpoint
    agrees within QUADRATURE_TOLERANCE with the composite rule over its
    quarter points, whose value is kept; the halves take the quarter points
    as their midpoints, so no node is evaluated twice.  Raises
    PhaseJumpError when QUADRATURE_MAX_DEPTH halvings leave a step above
    pi/4 (segment hugging a zero).
    """

    def wrapped_step(a: complex, b: complex) -> float:
        return abs((b.imag - a.imag + math.pi) % (2 * math.pi) - math.pi)

    zm = 0.5 * (za + zb)
    (la, ga), (lm, gm), (lb, gb) = node(za), node(zm), node(zb)
    stack = [(za, zm, zb, la, lm, lb, ga, gm, gb, 0)]
    integral = 0j
    while stack:
        za, zm, zb, la, lm, lb, ga, gm, gb, depth = stack.pop()
        z1, z3 = 0.5 * (za + zm), 0.5 * (zm + zb)
        (l1, g1), (l3, g3) = node(z1), node(z3)
        coarse = (ga + 4 * gm + gb) * (zb - za) / 6
        fine = (ga + 4 * g1 + 2 * gm + 4 * g3 + gb) * (zb - za) / 12
        # the quarter steps are guarded too: a winding near 2 pi over the
        # whole segment wraps to a small end-to-end step
        dphi = max(
            wrapped_step(la, lb),
            wrapped_step(la, l1),
            wrapped_step(l1, lm),
            wrapped_step(lm, l3),
            wrapped_step(l3, lb),
        )
        if dphi > math.pi / 4 or abs(fine - coarse) > QUADRATURE_TOLERANCE:
            if depth < QUADRATURE_MAX_DEPTH:
                stack.append((za, z1, zm, la, l1, lm, ga, g1, gm, depth + 1))
                stack.append((zm, z3, zb, lm, l3, lb, gm, g3, gb, depth + 1))
                continue
            if dphi > math.pi / 4:
                raise PhaseJumpError(
                    f"phase step {dphi:.3f} > pi/4 near {zm} after refinement; "
                    "boundary too close to a zero"
                )
        integral += fine
    return integral


def count_zeros_rectangle(rect: Rectangle) -> int:
    """Winding number (1/2 pi i) contour integral of zt'/zt around rect.

    zt = P zeta, P(s) = pi^(-s/2) Gamma(s/2).  Each edge is cut at Re s = 1/2
    and 1 -+ EXACT_EDGE_SIGMA, and a piece left of the line is the conjugate
    of its mirror piece (zt(s) = conj zt(1 - conj s)), whose nodes it shares.
    A piece's zeta part is log zeta(end) - log zeta(start) on
    Re s >= EXACT_EDGE_SIGMA, else ``_simpson_edge`` of zeta'/zeta.  Its P
    parts telescope, log P being continuous on Re s > 0, to the jumps between
    conj log P and log P where the contour enters and leaves Re s >= 1/2:
    2i (theta(y_max) - theta(y_min)) with theta(t) = Im log P(1/2 + it).
    """
    corners = [
        complex(rect.x_min, rect.y_min),
        complex(rect.x_max, rect.y_min),
        complex(rect.x_max, rect.y_max),
        complex(rect.x_min, rect.y_max),
        complex(rect.x_min, rect.y_min),
    ]
    # only the bottom edge passes the poles; a node next to 1 mirrors one next to 0
    for pole in (0.0, 1.0):
        if abs(complex(min(max(pole, rect.x_min), rect.x_max), rect.y_min) - pole) < POLE_WINDOW:
            raise PoleError(pole)
    cache: dict[complex, tuple[complex, complex]] = {}

    def node(w: complex, mirrored: bool) -> tuple[complex, complex]:
        if w not in cache:
            try:
                cache[w] = zeta_log_logderiv(w)
            except DomainError as exc:
                z = 1 - w.conjugate() if mirrored else w
                raise DomainError(f"completed zeta has no log or log-derivative at s = {z}") from exc
        return cache[w]

    integral = 0j
    # 1 - (1 - EXACT_EDGE_SIGMA) == EXACT_EDGE_SIGMA, so mirrored cuts coincide
    cut_abscissas = (1 - EXACT_EDGE_SIGMA, 0.5, EXACT_EDGE_SIGMA)
    for za, zb in zip(corners, corners[1:]):
        cuts = [x for x in cut_abscissas if (za.real - x) * (zb.real - x) < 0]
        cuts = cuts if za.real < zb.real else cuts[::-1]
        points = [za, *(complex(x, za.imag) for x in cuts), zb]
        for wa, wb in zip(points, points[1:]):
            mirrored = wa.real + wb.real < 1.0
            if mirrored:
                wa, wb = 1 - wa.conjugate(), 1 - wb.conjugate()
            if min(wa.real, wb.real) >= EXACT_EDGE_SIGMA:
                piece = node(wb, mirrored)[0] - node(wa, mirrored)[0]
            else:
                piece = _simpson_edge(lambda w: node(w, mirrored), wa, wb)
            integral += piece.conjugate() if mirrored else piece
    # the contour enters and leaves Re s >= 1/2 on the horizontal edges; a
    # vertical edge on the line is a right piece
    if rect.x_min < 0.5 <= rect.x_max:
        theta_min, theta_max = (
            completed_log_prefactor(complex(0.5, y)).imag for y in (rect.y_min, rect.y_max)
        )
        integral += 2j * (theta_max - theta_min)
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
