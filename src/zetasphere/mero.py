"""Divisor algebra and rational maps on the extended plane.

Rational maps live in factored (root) form: leading constant plus zero and
pole multisets.  That keeps divisors exact, and it gives the derivative,
the critical points and the preimages of 0 and infinity with their exact
multiplicities at repeated zeros and poles.  Coefficient expansion happens
only inside partial fractions, the log-derivative numerator and the
preimages of other values.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

import numpy as np

from .errors import DegreeNotZero, DomainError
from .sphere import INFINITY, ExtendedPoint, is_infinity

ROOT_MATCH_TOL = 1e-9
# a float partial-fraction sum whose parts exceed its value by more than this
# is redone exactly: its error, some ulps of the parts, would exceed ~1e-12
# relative
CANCELLATION_LIMIT = 1024.0


# ---------------------------------------------------------------------------
# divisors


class Divisor:
    """Finite integer-weighted formal sum of extended points.

    Zero multiplicities are never stored; two divisors are equal iff their
    supports and multiplicities match exactly.
    """

    __slots__ = ("_support",)

    def __init__(self, support: Mapping[ExtendedPoint, int] | None = None):
        self._support: dict[ExtendedPoint, int] = {}
        if support:
            for point, mult in support.items():
                if mult == 0:
                    continue
                if not isinstance(mult, int):
                    raise DomainError("divisor multiplicities must be integers")
                key = point if is_infinity(point) else complex(point)
                self._support[key] = self._support.get(key, 0) + mult
                if self._support[key] == 0:
                    del self._support[key]

    def items(self):
        return self._support.items()

    def multiplicity(self, point: ExtendedPoint) -> int:
        key = point if is_infinity(point) else complex(point)
        return self._support.get(key, 0)

    def __eq__(self, other):
        return isinstance(other, Divisor) and self._support == other._support

    def __len__(self):
        return len(self._support)

    def __repr__(self):
        if not self._support:
            return "Divisor(0)"
        parts = [f"{m:+d}*[{p}]" for p, m in sorted(self._support.items(), key=lambda kv: str(kv[0]))]
        return "Divisor(" + " ".join(parts) + ")"


def divisor_add(a: Divisor, b: Divisor) -> Divisor:
    merged = dict(a.items())
    for p, m in b.items():
        merged[p] = merged.get(p, 0) + m
    return Divisor(merged)


def divisor_negate(a: Divisor) -> Divisor:
    return Divisor({p: -m for p, m in a.items()})


def divisor_degree(a: Divisor) -> int:
    return sum(m for _, m in a.items())


def divisor_to_json(a: Divisor) -> list[dict]:
    out = []
    for p, m in a.items():
        if is_infinity(p):
            out.append({"point": "inf", "multiplicity": m})
        else:
            out.append({"point": {"re": p.real, "im": p.imag}, "multiplicity": m})
    out.sort(key=lambda row: str(row["point"]))
    return out


# ---------------------------------------------------------------------------
# rational maps in factored form


@dataclass(frozen=True)
class RationalMap:
    """c * prod (z - z_i)^h_i / prod (z - p_j)^k_j with c != 0."""

    constant: complex
    zeros: tuple[tuple[complex, int], ...] = ()
    poles: tuple[tuple[complex, int], ...] = ()

    def __post_init__(self):
        if self.constant == 0:
            raise DomainError("RationalMap constant must be nonzero")
        for _, h in self.zeros + self.poles:
            if h < 1 or not isinstance(h, int):
                raise DomainError("multiplicities must be positive integers")
        for z, _ in self.zeros:
            for p, _ in self.poles:
                if abs(complex(z) - complex(p)) < ROOT_MATCH_TOL:
                    raise DomainError(f"point {z} appears among both zeros and poles")
        for group in (self.zeros, self.poles):
            for i, (a, _) in enumerate(group):
                for b, _ in group[i + 1 :]:
                    if abs(complex(a) - complex(b)) < ROOT_MATCH_TOL:
                        raise DomainError(
                            f"repeated point {a}; express repetition through multiplicity"
                        )

    @property
    def zero_count(self) -> int:
        return sum(h for _, h in self.zeros)

    @property
    def pole_count(self) -> int:
        return sum(k for _, k in self.poles)

    @property
    def degree(self) -> int:
        return max(self.zero_count, self.pole_count)


@dataclass(frozen=True)
class BranchData:
    """Degree plus ramification points (point, index e >= 2)."""

    degree: int
    ramification: tuple[tuple[ExtendedPoint, int], ...]

    def __post_init__(self):
        if any(e < 2 for _, e in self.ramification):
            raise DomainError("ramification indices must be >= 2")

    @property
    def total_b(self) -> int:
        """The total branching index b = sum (e - 1)."""
        return sum(e - 1 for _, e in self.ramification)


def principal_divisor(f: RationalMap) -> Divisor:
    """Zeros positive, poles negative, order at infinity = poles - zeros;
    total degree identically 0."""
    support: dict[ExtendedPoint, int] = {}
    for z, h in f.zeros:
        support[complex(z)] = support.get(complex(z), 0) + h
    for p, k in f.poles:
        support[complex(p)] = support.get(complex(p), 0) - k
    inf_order = f.pole_count - f.zero_count
    if inf_order:
        support[INFINITY] = inf_order
    return Divisor(support)


def rational_from_divisor(d: Divisor, c: complex) -> RationalMap:
    """Inverse of principal_divisor up to the multiplicative constant c.

    Degree 0 already forces the infinity entry to match the finite entries,
    so the single check covers both stated preconditions.
    """
    if divisor_degree(d) != 0:
        raise DegreeNotZero(f"divisor degree {divisor_degree(d)} != 0")
    zeros = []
    poles = []
    for p, m in d.items():
        if is_infinity(p):
            continue
        if m > 0:
            zeros.append((complex(p), m))
        else:
            poles.append((complex(p), -m))
    return RationalMap(constant=complex(c), zeros=tuple(zeros), poles=tuple(poles))


def evaluate(f: RationalMap, point: ExtendedPoint) -> ExtendedPoint:
    """Value on the sphere: poles go to infinity; the value at infinity is
    c when zero and pole counts balance, else 0 or infinity by the count
    difference."""
    if is_infinity(point):
        diff = f.zero_count - f.pole_count
        if diff > 0:
            return INFINITY
        if diff < 0:
            return 0j
        return f.constant
    z = complex(point)
    for p, _ in f.poles:
        if z == complex(p):
            return INFINITY
    value = f.constant
    for zr, h in f.zeros:
        value *= (z - complex(zr)) ** h
    for p, k in f.poles:
        value /= (z - complex(p)) ** k
    return value


# ---------------------------------------------------------------------------
# coefficient-form helpers (ascending order)


def _poly_from_roots(roots: Iterable[tuple[complex, int]], lead: complex = 1.0 + 0j):
    coeffs = np.array([lead], dtype=complex)
    for root, mult in roots:
        for _ in range(mult):
            coeffs = np.convolve(coeffs, np.array([-complex(root), 1.0], dtype=complex))
    return coeffs


def _poly_trim(coeffs: np.ndarray, tol: float = 0.0) -> np.ndarray:
    scale = max(np.abs(coeffs).max(), 1.0)
    keep = len(coeffs)
    while keep > 1 and abs(coeffs[keep - 1]) <= tol * scale:
        keep -= 1
    return coeffs[:keep]

def _poly_eval(coeffs: np.ndarray, z: complex) -> complex:
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


class _Exact:
    """Complex number with rational parts, so sums and quotients of floats
    carry no rounding."""

    __slots__ = ("re", "im")

    def __init__(self, re: Fraction, im: Fraction):
        self.re = re
        self.im = im

    @classmethod
    def of(cls, z: complex) -> _Exact:
        z = complex(z)
        return cls(Fraction(z.real), Fraction(z.imag))

    def __add__(self, other: _Exact) -> _Exact:
        return _Exact(self.re + other.re, self.im + other.im)

    def __sub__(self, other: _Exact) -> _Exact:
        return _Exact(self.re - other.re, self.im - other.im)

    def __mul__(self, other: _Exact) -> _Exact:
        return _Exact(self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re)

    def __truediv__(self, other: _Exact) -> _Exact:
        norm = other.re * other.re + other.im * other.im
        return _Exact(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __bool__(self) -> bool:
        return bool(self.re or self.im)

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))


_ZERO = _Exact.of(0j)
_ONE = _Exact.of(1 + 0j)


def _exact_poly_from_roots(roots: Iterable[tuple[_Exact, int]], lead: _Exact) -> list[_Exact]:
    coeffs = [lead]
    for root, mult in roots:
        for _ in range(mult):
            # multiply by (w - root), ascending order
            shifted = [_ZERO] + coeffs
            for i, c in enumerate(coeffs):
                shifted[i] = shifted[i] - root * c
            coeffs = shifted
    return coeffs


def _series_divide(num: list[_Exact], den: list[_Exact], order: int) -> list[_Exact]:
    """The first ``order`` coefficients of num / den.  den[0] is nonzero: it
    is a product of differences of distinct poles."""
    out: list[_Exact] = []
    for m in range(order):
        acc = num[m] if m < len(num) else _ZERO
        for j in range(1, min(m, len(den) - 1) + 1):
            acc = acc - den[j] * out[m - j]
        out.append(acc / den[0])
    return out


# ---------------------------------------------------------------------------
# partial fractions


@dataclass(frozen=True)
class PartialFractions:
    """polynomial part (ascending coefficients) plus principal-part terms
    (pole, order j, coefficient of 1/(z - pole)^j).

    The complex fields are the exact coefficients rounded.  Near poles have
    large principal parts that cancel far from them; where the float sum
    has lost more than CANCELLATION_LIMIT in scale, the exact coefficients
    are summed instead."""

    polynomial: tuple[complex, ...]
    terms: tuple[tuple[complex, int, complex], ...]
    exact: tuple[tuple[_Exact, ...], tuple[tuple[_Exact, int, _Exact], ...]] = field(repr=False, compare=False)

    def __call__(self, z: complex) -> complex:
        value = _poly_eval(np.array(self.polynomial, dtype=complex), z)
        scale = _poly_eval(np.abs(self.polynomial), abs(z)).real
        for pole, order, coeff in self.terms:
            part = coeff / (z - pole) ** order
            value += part
            scale += abs(part)
        if scale <= CANCELLATION_LIMIT * abs(value):
            return value
        polynomial, terms = self.exact
        w = _Exact.of(z)
        exact = _ZERO
        for c in reversed(polynomial):
            exact = exact * w + c
        for pole, order, coeff in terms:
            power = _ONE
            for _ in range(order):
                power = power * (w - pole)
            exact = exact + coeff / power
        return complex(exact)


def partial_fractions(f: RationalMap) -> PartialFractions:
    """Unique presentation by poles: f = p(z) + sum c_ij / (z - p_i)^j,
    computed in exact rational arithmetic from the float roots."""
    constant = _Exact.of(f.constant)
    zeros = [(_Exact.of(z), h) for z, h in f.zeros]
    poles = [(_Exact.of(p), k) for p, k in f.poles]
    num = _exact_poly_from_roots(zeros, constant)
    den = _exact_poly_from_roots(poles, _ONE)
    poly = [_ZERO]
    if len(num) >= len(den):
        # ascending-order long division by the monic denominator: strip
        # leading (highest) terms
        poly = [_ZERO] * (len(num) - len(den) + 1)
        rem = list(num)
        for i in range(len(poly) - 1, -1, -1):
            factor = rem[i + len(den) - 1]
            poly[i] = factor
            for j, d in enumerate(den):
                rem[i + j] = rem[i + j] - factor * d
    terms = []
    for i, (p_i, k_i) in enumerate(poles):
        # principal part at p_i from the factored form in w = z - p_i
        num_taylor = _exact_poly_from_roots([(z - p_i, h) for z, h in zeros], constant)
        other_taylor = _exact_poly_from_roots([(p - p_i, k) for n, (p, k) in enumerate(poles) if n != i], _ONE)
        series = _series_divide(num_taylor, other_taylor, k_i)
        for j in range(1, k_i + 1):
            coeff = series[k_i - j]
            if coeff:
                terms.append((p_i, j, coeff))
    return PartialFractions(
        polynomial=tuple(complex(c) for c in poly),
        terms=tuple((complex(p), j, complex(c)) for p, j, c in terms),
        exact=(tuple(poly), tuple(terms)),
    )


# ---------------------------------------------------------------------------
# derivative, critical points, preimages


def _log_derivative_numerator(f: RationalMap) -> np.ndarray:
    """Ascending coefficients of Q = sum_i w_i prod_{j != i} (z - a_j) over
    the distinct zeros and poles a_i, w_i = h_i at a zero and -k_i at a pole,
    so that f'/f = Q / prod (z - a_i).  Q(a_i) = w_i prod_{j != i} (a_i - a_j)
    is never 0."""
    points = [(complex(z), h) for z, h in f.zeros] + [(complex(p), -k) for p, k in f.poles]
    q = np.zeros(max(len(points), 1), dtype=complex)
    for i, (_, w) in enumerate(points):
        term = _poly_from_roots([(a, 1) for j, (a, _) in enumerate(points) if j != i], lead=w)
        q[: len(term)] += term
    return _poly_trim(q, tol=1e-13)


def derivative(f: RationalMap) -> tuple[complex, ...]:
    """Numerator coefficients (ascending) of
    f' = c prod (z - z_i)^(h_i - 1) Q / prod (z - p_j)^(k_j + 1), with Q the
    log-derivative numerator; the form is reduced, as Q vanishes at no zero
    or pole."""
    repeated = _poly_from_roots([(z, h - 1) for z, h in f.zeros], lead=f.constant)
    return tuple(np.convolve(repeated, _log_derivative_numerator(f)).tolist())


def _cluster_roots(roots: Iterable[complex]) -> list[tuple[complex, int]]:
    clusters: list[list[complex]] = []
    for r in sorted(roots, key=lambda z: (z.real, z.imag)):
        for group in clusters:
            anchor = group[0]
            if abs(r - anchor) <= ROOT_MATCH_TOL * max(1.0, abs(anchor)) * 100:
                group.append(r)
                break
        else:
            clusters.append([r])
    return [(sum(g) / len(g), len(g)) for g in clusters]


def critical_points(f: RationalMap) -> list[tuple[complex, int]]:
    """Finite critical points with multiplicity: a zero of order h >= 2
    exactly h - 1 times, then the roots of the log-derivative numerator Q."""
    out = [(complex(z), h - 1) for z, h in f.zeros if h >= 2]
    q = _log_derivative_numerator(f)
    if len(q) > 1:
        out += _cluster_roots(np.roots(q[::-1]))
    return out


def preimages(f: RationalMap, w: ExtendedPoint) -> list[tuple[ExtendedPoint, int]]:
    """Solutions of f(s) = w with multiplicity, infinity included.  Those of
    0 and infinity are the stored zeros and poles."""
    if is_infinity(w):
        found, at_infinity = f.poles, f.zero_count - f.pole_count
    elif w == 0:
        found, at_infinity = f.zeros, f.pole_count - f.zero_count
    else:
        num = _poly_from_roots(f.zeros, lead=f.constant)
        den = _poly_from_roots(f.poles)
        width = max(len(num), len(den))
        num = np.pad(num, (0, width - len(num)))
        den = np.pad(den, (0, width - len(den)))
        poly = _poly_trim(num - complex(w) * den, tol=1e-14)
        found = _cluster_roots(np.roots(poly[::-1])) if len(poly) > 1 else []
        at_infinity = f.degree - (len(poly) - 1)
    out: list[tuple[ExtendedPoint, int]] = [(complex(a), m) for a, m in found]
    if at_infinity > 0:
        out.append((INFINITY, at_infinity))
    return out


# ---------------------------------------------------------------------------
# Riemann-Hurwitz / Riemann-Roch


def riemann_hurwitz_check(bd: BranchData, chi_domain: int, chi_codomain: int) -> bool:
    """chi(domain) = deg * chi(codomain) - b, and b must be even."""
    if bd.total_b % 2 != 0:
        return False
    return chi_domain == bd.degree * chi_codomain - bd.total_b


def riemann_roch_dims(d: Divisor) -> tuple[int, int]:
    """(l, i) on the genus-0 sphere: l = max(0, deg + 1), i = max(0, -deg - 1),
    so l - i = deg + 1."""
    deg = divisor_degree(d)
    return max(0, deg + 1), max(0, -deg - 1)


# ---------------------------------------------------------------------------
# the rational extension of the completed zeta


def build_zeta_hat(
    zero_pair_ordinate: float, anchor_value: complex
) -> tuple[RationalMap, BranchData]:
    """Degree-2 rational map with simple zeros 1/2 +- i t0, simple poles 0
    and 1, pointed so its value at 1/2 equals the supplied completed-zeta
    value there: c = -(1/4) anchor / prod(1/2 - z_i)."""
    t0 = float(zero_pair_ordinate)
    if t0 <= 0:
        raise DomainError("zero-pair ordinate must be positive")
    z_up = complex(0.5, t0)
    z_dn = complex(0.5, -t0)
    denom = (0.5 - z_up) * (0.5 - z_dn)  # = t0^2
    c = -0.25 * complex(anchor_value) / denom
    rmap = RationalMap(constant=c, zeros=((z_up, 1), (z_dn, 1)), poles=((0j, 1), (1 + 0j, 1)))
    crit = critical_points(rmap)
    ramification: list[tuple[ExtendedPoint, int]] = [(pt, m + 1) for pt, m in crit]
    value_at_inf = evaluate(rmap, INFINITY)
    inf_pre = preimages(rmap, value_at_inf)
    for point, mult in inf_pre:
        if is_infinity(point) and mult >= 2:
            ramification.append((INFINITY, mult))
    return rmap, BranchData(degree=rmap.degree, ramification=tuple(ramification))


def zeta_hat_params(rmap: RationalMap, bd: BranchData) -> dict:
    """JSON-ready parameter block for the CLI's extend command."""
    ram = []
    for point, e in bd.ramification:
        ram.append({"point": "inf" if is_infinity(point) else {"re": point.real, "im": point.imag},
                    "index": e})
    return {
        "constant": {"re": rmap.constant.real, "im": rmap.constant.imag},
        "zeros": [{"re": z.real, "im": z.imag, "multiplicity": h} for z, h in rmap.zeros],
        "poles": [{"re": p.real, "im": p.imag, "multiplicity": k} for p, k in rmap.poles],
        "divisor": divisor_to_json(principal_divisor(rmap)),
        "degree": bd.degree,
        "ramification": ram,
        "total_branching_index": bd.total_b,
    }
