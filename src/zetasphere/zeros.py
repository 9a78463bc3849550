"""Critical-line zero location and argument-principle rectangle counting.

The scanner works on Hardy's Z(t) = e^(i theta(t)) zeta(1/2 + it), real on
the critical line and of the sign of the completed zeta there, without its
factor e^(Re log P), which underflows past t ~ 945.  Its theta(t) =
Im log P(1/2 + it) is the real Stirling series from |t| = 10 on, where the
series' truncation is below rounding, and the complex log Gamma below.  Sign
changes are detected on a uniform grid, then each bracket is tightened by
bisection: a grid bracket of 0.25 takes log2(0.25 / 1e-9) = 28 halvings, 28
evaluations of Z, since its two ends come from the grid (30 for a bracket
refined on its own).

An independent count of zeros inside a rectangle comes from the winding of
the completed zeta along the boundary.  Its Gamma factor's part is exact, and
so is log zeta's on Re s >= 1.1, where |arg zeta| < pi makes the principal
log continuous (Backlund).  On 1/2 <= Re s < 1.1, and on those pieces'
mirror images, the change of log zeta is exact too: log |zeta| at the end
less at the start, plus the phase tracked in wrapped steps between adaptive
nodes, Simpson's rule for zeta'/zeta checking that no step hides a full turn;
a piece whose mirror is a piece already tracked, reversed, is not tracked
again.  The nodes of a horizontal edge share Im s and with it the phases
k^-it of their eta sums, which are formed once per edge.  Nothing is formed
that underflows: the scan stops at t = 1000, and the count is tested to 10^4.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

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
from .specfun import POLE_WINDOW, in_range
from .zeta import (
    completed_log_prefactor,
    completed_zeta,  # not called here: perfbench/spans.py times it as zeros.completed_zeta
    zeta_eval,
    zeta_log_logderiv,
    zeta_log_logderiv_row,
)

BRACKET_TOLERANCE = 1e-9
QUADRATURE_TOLERANCE = 0.1  # rectangle count: most |Im Simpson - sum of phase steps|, < pi/4
QUADRATURE_MAX_DEPTH = 30  # rectangle count: most halvings of one edge
# rectangle count: vertical edges this far from the critical line are taken
# exactly; log zeta(1.1) = 2.36 < pi bounds |arg zeta| on Re s >= 1.1
EXACT_EDGE_SIGMA = 1.1
CSV_HEADER = f"# zetasphere v{__version__}"
# theta(t) is its Stirling series from |t| = THETA_SERIES_FROM on: the first
# omitted term, 1414477 / (1476034560 t^11), is 9.6e-15 there
THETA_SERIES_FROM = 10.0


@dataclass(frozen=True)
class ZeroRecord:
    """A located critical-line zero: its ordinate t (zero at 1/2 + it),
    the final refinement bracket, whose width is the ordinate's uncertainty,
    and the criterion ratio there, |f| over a small circle about the zero,
    which is 1 within 1e-6 on the line."""

    ordinate: float
    bracket: tuple[float, float]
    criterion: float


@dataclass(frozen=True)
class Rectangle:
    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self):
        for name, value in vars(self).items():
            try:
                finite = math.isfinite(value)
            except OverflowError:  # an int past float range, too long to print
                finite, value = False, "an int past float range"
            if not finite:
                raise DomainError(f"Rectangle needs a finite {name}, got {value}")
        if not self.x_min < self.x_max:
            raise DomainError("Rectangle needs x_min < x_max")
        if not 0.0 < self.y_min < self.y_max:
            raise DomainError("Rectangle needs 0 < y_min < y_max (poles sit at y=0)")


def theta(t: float) -> float:
    """The Riemann-Siegel theta(t) = Im log P(1/2 + it), P(s) = pi^(-s/2)
    Gamma(s/2), the branch continuous in t with theta(0) = 0; odd in t.

    From |t| = THETA_SERIES_FROM on it is the Stirling series (Edwards,
    Riemann's Zeta Function, 6.5) (t/2) log(t/2 pi) - t/2 - pi/8 + 1/(48 t)
    + 7/(5760 t^3) + 31/(80640 t^5) + 127/(430080 t^7) + 511/(1216512 t^9),
    whose truncation is below 1e-14 there; below, the imaginary part of
    ``completed_log_prefactor``.  Either is within 2e-14 max(1, |theta|) of
    mpmath's siegeltheta, tested to t = 10^4.  DomainError naming t where
    theta leaves double range (from |t| ~ 5e305).
    """
    u = abs(t)
    if u < THETA_SERIES_FROM:
        return completed_log_prefactor(complex(0.5, t)).imag
    w = 1.0 / (u * u)
    tail = (1 / 48 + w * (7 / 5760 + w * (31 / 80640 + w * (127 / 430080 + w * (511 / 1216512))))) / u
    value = in_range(0.5 * u * math.log(u / (2 * math.pi)) - 0.5 * u - math.pi / 8 + tail, "theta", t)
    return value if t > 0 else -value


def hardy_z(t: float) -> float:
    """Hardy's Z(t) = e^(i theta(t)) zeta(1/2 + it), theta(t) = Im log P(1/2 + it)
    for P(s) = pi^(-s/2) Gamma(s/2) (Edwards, Riemann's Zeta Function, 6.5),
    taken from ``theta``: its Stirling series from |t| = 10 on, log Gamma below.

    Z is real and even, Z(0) = zeta(1/2), and it has the sign of the
    completed zeta on the line.  The imaginary part of e^(i theta) zeta must
    stay below 1e-10 (1 + |Z|); anything larger means the evaluator itself
    broke, so it raises RealnessViolation rather than returns.
    """
    s = complex(0.5, t)
    zv = zeta_eval(s)  # its refusals (the eta term cap) come before theta's
    phase = theta(t)
    cos, sin = math.cos(phase), math.sin(phase)
    z = cos * zv.real - sin * zv.imag
    imag = sin * zv.real + cos * zv.imag
    if abs(imag) > 1e-10 * (1.0 + abs(z)):
        raise RealnessViolation(f"Im e^(i theta) zeta at t={t} is {imag:.3e}, beyond the realness bound")
    return z


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
        fm = hardy_z(m)
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
    """Tighten a sign-change bracket of Z to width < 1e-9 and record the
    criterion value at the located ordinate.

    ``ends`` are the values of Z at the two bracket ends when the caller
    already has them (the scan's grid); without them they are evaluated.
    """
    a, b = bracket
    if not a < b:
        raise DomainError("bracket must be an increasing pair")
    fa, fb = (hardy_z(a), hardy_z(b)) if ends is None else ends
    a, b = _refine_bracket(a, b, fa, fb)
    t = 0.5 * (a + b)
    return ZeroRecord(ordinate=t, bracket=(a, b), criterion=criterion_ratio(complex(0.5, abs(t))))


def scan_zeros(t0: float, t1: float, step: float) -> list[ZeroRecord]:
    """Detect and refine all sign changes of Z on the grid t0, t0+step, ...,
    which ends at t1: where t1 is not a whole number of steps past t0, a last
    cell shorter than step ends there.

    A grid point where Z is exactly 0 opens the bracket to its right
    neighbour only; refinement then returns that point itself.  The grid's
    cells are disjoint, so each bracket is a zero of its own, however close
    to the next.
    """
    if not (0.0 <= t0 < t1 <= 1000.0):
        raise DomainError("scan range must satisfy 0 <= t0 < t1 <= 1000")
    if not 0.01 <= step <= 1.0:
        raise DomainError("scan step must lie in [0.01, 1]")
    n_steps = int(math.floor((t1 - t0) / step + 1e-9))
    grid = [t0 + i * step for i in range(1, n_steps + 1)]
    if t1 - (t0 + n_steps * step) > 1e-9 * step:
        grid.append(t1)
    brackets = []
    prev_t, prev_v = t0, hardy_z(t0)
    for t in grid:
        v = hardy_z(t)
        if prev_v == 0.0 or prev_v * v < 0:
            brackets.append(((prev_t, t), (prev_v, v)))
        prev_t, prev_v = t, v
    return [refine_zero(bracket, ends=ends) for bracket, ends in brackets]


# ---------------------------------------------------------------------------
# argument-principle counting


def _simpson_edge(node, za: complex, zb: complex) -> complex:
    """Change of log zt along the segment za -> zb, tracked by its phase.

    ``node(z)`` gives (log zt(z), zt'/zt(z)), the log on any branch.  The
    real part is log |zt| at zb less log |zt| at za.  The imaginary part sums
    the wrapped phase steps between each accepted segment's ends and quarter
    points, exact once every step is within pi/4 and the composite Simpson
    rule of zt'/zt over the quarter points agrees with that sum within
    QUADRATURE_TOLERANCE: the derivative check sees a phase that turns a full
    2 pi between quarter points, which the steps alone wrap away (Ying and
    Katz, Numer. Math. 53, 1988).  A segment failing either test is halved;
    the halves take the quarter points as their midpoints, so no node is
    evaluated twice.  Raises PhaseJumpError when QUADRATURE_MAX_DEPTH
    halvings leave a step above pi/4 (segment hugging a zero).
    """

    def wrapped_step(a: complex, b: complex) -> float:
        return (b.imag - a.imag + math.pi) % (2 * math.pi) - math.pi

    zm = 0.5 * (za + zb)
    (la, ga), (lm, gm), (lb, gb) = node(za), node(zm), node(zb)
    log_change = lb.real - la.real
    stack = [(za, zm, zb, la, lm, lb, ga, gm, gb, 0)]
    phase = 0.0
    while stack:
        za, zm, zb, la, lm, lb, ga, gm, gb, depth = stack.pop()
        z1, z3 = 0.5 * (za + zm), 0.5 * (zm + zb)
        (l1, g1), (l3, g3) = node(z1), node(z3)
        simpson = (ga + 4 * g1 + 2 * gm + 4 * g3 + gb) * (zb - za) / 12
        steps = [wrapped_step(u, v) for u, v in ((la, l1), (l1, lm), (lm, l3), (l3, lb))]
        # the quarter steps are guarded too: a winding near 2 pi over the
        # whole segment wraps to a small end-to-end step
        dphi = max(abs(wrapped_step(la, lb)), *map(abs, steps))
        if dphi > math.pi / 4 or abs(simpson.imag - sum(steps)) > QUADRATURE_TOLERANCE:
            if depth < QUADRATURE_MAX_DEPTH:
                stack.append((za, z1, zm, la, l1, lm, ga, g1, gm, depth + 1))
                stack.append((zm, z3, zb, lm, l3, lb, gm, g3, gb, depth + 1))
                continue
            if dphi > math.pi / 4:
                raise PhaseJumpError(
                    f"phase step {dphi:.3f} > pi/4 near {zm} after refinement; "
                    "boundary too close to a zero"
                )
        phase += sum(steps)
    return complex(log_change, phase)


def _edge_pieces(za: complex, zb: complex) -> list[tuple[complex, complex]]:
    """The segment za -> zb cut where it crosses Re s = 1 - EXACT_EDGE_SIGMA,
    1/2 and EXACT_EDGE_SIGMA, in order; mirrored cuts coincide, since
    1 - (1 - EXACT_EDGE_SIGMA) == EXACT_EDGE_SIGMA."""
    cut_abscissas = (1 - EXACT_EDGE_SIGMA, 0.5, EXACT_EDGE_SIGMA)
    cuts = [x for x in cut_abscissas if (za.real - x) * (zb.real - x) < 0]
    cuts = cuts if za.real < zb.real else cuts[::-1]
    points = [za, *(complex(x, za.imag) for x in cuts), zb]
    return list(zip(points, points[1:]))


def count_zeros_rectangle(rect: Rectangle) -> int:
    """Winding number (1/2 pi i) contour integral of zt'/zt around rect.

    zt = P zeta, P(s) = pi^(-s/2) Gamma(s/2).  Each edge is cut at Re s = 1/2
    and 1 -+ EXACT_EDGE_SIGMA, and a piece left of the line is the conjugate
    of its mirror piece (zt(s) = conj zt(1 - conj s)), whose nodes it shares.
    A piece's zeta part is log zeta(end) - log zeta(start) on
    Re s >= EXACT_EDGE_SIGMA, else ``_simpson_edge``'s change of log zeta,
    its phase tracked between nodes; a strip piece whose mirror is a piece
    already tracked, reversed, is that change negated (a horizontal edge's
    [1 - EXACT_EDGE_SIGMA, 1/2] mirrors its [1/2, EXACT_EDGE_SIGMA]).  The
    P parts telescope, log P being continuous on Re s > 0, to the jumps
    between conj log P and log P where the contour enters and leaves
    Re s >= 1/2: 2i (theta(y_max) - theta(y_min)), theta(t) = Im log P(1/2 + it).

    The nodes of a horizontal edge share Im s, so they come from one
    ``zeta_log_logderiv_row`` per edge; the nodes of a vertical strip edge
    each take ``zeta_log_logderiv``.  PoleError, before any node is
    evaluated, when the bottom edge passes 0 or 1 closer than the quadrature
    can resolve: 1.21 times its piece's length / 2^QUADRATURE_MAX_DEPTH.
    The count is tested to T = 10^4.
    """
    corners = [
        complex(rect.x_min, rect.y_min),
        complex(rect.x_max, rect.y_min),
        complex(rect.x_max, rect.y_max),
        complex(rect.x_min, rect.y_max),
        complex(rect.x_min, rect.y_min),
    ]
    edges = [_edge_pieces(za, zb) for za, zb in zip(corners, corners[1:])]
    # only the bottom edge passes the poles, and only its strip pieces, which
    # take quadrature; a node next to 1 mirrors one next to 0.  Seen from a
    # pole closer than a piece's deepest segment over 2 tan(pi/8), that
    # segment spans more than the pi/4 the phase guard allows, which would
    # read as a zero on the contour
    for wa, wb in edges[0]:
        if wa.real < 1 - EXACT_EDGE_SIGMA or wb.real > EXACT_EDGE_SIGMA:
            continue
        deepest = (wb.real - wa.real) / 2**QUADRATURE_MAX_DEPTH
        for pole in (0.0, 1.0):
            nearest = complex(min(max(pole, wa.real), wb.real), rect.y_min)
            if abs(nearest - pole) < max(POLE_WINDOW, deepest / (2 * math.tan(math.pi / 8))):
                raise PoleError(pole)
    cache: dict[complex, tuple[complex, complex]] = {}
    rows = {rect.y_min: None, rect.y_max: None}

    def node(w: complex, mirrored: bool) -> tuple[complex, complex]:
        if w not in cache:
            try:
                if w.imag in rows:
                    if rows[w.imag] is None:
                        rows[w.imag] = zeta_log_logderiv_row(w.imag)
                    cache[w] = rows[w.imag](w.real)
                else:
                    cache[w] = zeta_log_logderiv(w)
            except DomainError as exc:
                z = 1 - w.conjugate() if mirrored else w
                raise DomainError(f"completed zeta has no log or log-derivative at s = {z}") from exc
        return cache[w]

    integral = 0j
    pieces: dict[tuple[complex, complex], complex] = {}
    for wa, wb in (ends for edge in edges for ends in edge):
        mirrored = wa.real + wb.real < 1.0
        if mirrored:
            wa, wb = 1 - wa.conjugate(), 1 - wb.conjugate()
        if min(wa.real, wb.real) >= EXACT_EDGE_SIGMA:
            piece = node(wb, mirrored)[0] - node(wa, mirrored)[0]
        elif (wb, wa) in pieces:
            piece = -pieces[wb, wa]
        else:
            piece = pieces[wa, wb] = _simpson_edge(lambda w: node(w, mirrored), wa, wb)
        integral += piece.conjugate() if mirrored else piece
    # the contour enters and leaves Re s >= 1/2 on the horizontal edges; a
    # vertical edge on the line is a right piece
    if rect.x_min < 0.5 <= rect.x_max:
        integral += 2j * (theta(rect.y_max) - theta(rect.y_min))
    count = integral / (2j * math.pi)
    nearest = round(count.real)
    if abs(count.real - nearest) > 0.25 or abs(count.imag) > 0.25:
        raise ConvergenceError(f"winding integral {count} not close to an integer")
    return int(nearest)


# ---------------------------------------------------------------------------
# catalog export / import


def records_to_csv(records: list[ZeroRecord]) -> str:
    lines = [CSV_HEADER, "ordinate,criterion"]
    for r in records:
        lines.append(f"{r.ordinate:.12f},{r.criterion:.9f}")
    return "\n".join(lines) + "\n"


def records_to_json(records: list[ZeroRecord]) -> str:
    return json.dumps([asdict(r) for r in records], indent=2) + "\n"
