"""Named verification suites keyed to the identity batteries.

Every suite returns plain VerificationItem lists; the CLI assembles them
into a report.  Paper-vs-formula conflicts are emitted as discrepancy
flags from here (the one place the toolkit takes a stance: implement as
written, report conflicts, never silently repair).
"""

from __future__ import annotations

import cmath
import functools
import math

from . import flow, mero, modulus, sphere, zeros
from .report import VerificationItem, VerificationReport, flag_item, make_item
from .specfun import (
    digamma,
    digamma_series_reference,
    gamma,
    gamma_abs_critical,
    gamma_abs_unit,
    psi_pair,
    psi_pair_series,
    reflection_residual,
)
from .zeta import (
    _zeta_euler_maclaurin,
    completed_log_prefactor,
    completed_zeta,
    euler_product_partial,
    even_limit_probe,
    even_zeta_rational,
    f_factor,
    functional_rhs,  # not called here: perfbench/spans.py times it as verify.functional_rhs
    laurent_eval,
    stieltjes_gamma,
    zeta_eval,
    STIELTJES,
)

# Table of exact alpha with zeta(k) = alpha pi^k, transcribed from the
# published table of even values.
TABLE1 = {
    0: (-1, 2),
    2: (1, 6),
    4: (1, 90),
    6: (1, 945),
    8: (1, 9450),
    10: (1, 93555),
    12: (691, 638512875),
    14: (2, 18243225),
    16: (3617, 325641566250),
    18: (43867, 38979295480125),
    20: (174611, 1531329465290625),
}

# the first critical-line zero: a sign-change bracket for refine_zero, and
# its ordinate to double precision for the divisor fixtures
FIRST_ZERO_BRACKET = (14.0, 14.3)
_T0 = 14.134725141734694
# the printed inputs of the extension: zero ordinate and completed zeta at 1/2
PAPER_ORDINATE = 14.1347
PAPER_ANCHOR = -0.05438

# the homotopy divisor of eq47: four off-line zeros, the first zero pair,
# the poles at 0 and 1, and -4 at infinity
_EQ47 = mero.Divisor(
    {
        complex(0.2, 5): 1,
        complex(0.8, 5): 1,
        complex(0.2, -5): 1,
        complex(0.8, -5): 1,
        complex(0.5, _T0): 1,
        complex(0.5, -_T0): 1,
        0j: -1,
        1 + 0j: -1,
        sphere.INFINITY: -4,
    }
)


@functools.cache
def first_zero() -> zeros.ZeroRecord:
    """The first critical-line zero refined from FIRST_ZERO_BRACKET, once
    per process; ZeroRecord is frozen, so every caller shares it."""
    return zeros.refine_zero(FIRST_ZERO_BRACKET)


def _strip_grid(n_x: int, n_y: int, y_max: float):
    """Deterministic strip grid avoiding the pole ordinate row and the
    known zero ordinates below y_max."""
    avoid = [14.134725, 21.022040, 25.010858, 30.424876, 32.935062]
    pts = []
    for i in range(n_x):
        x = 0.06 + 0.88 * i / max(n_x - 1, 1)
        for j in range(n_y):
            y = -y_max + 2 * y_max * (j + 0.37) / n_y
            if abs(y) < 0.2 or any(abs(abs(y) - t) < 0.45 for t in avoid):
                y += 0.5
            pts.append(complex(x, y))
    return tuple(pts)


# built once per process: the functional and modulus suites read them on every run
_FUNCTIONAL_GRID = _strip_grid(10, 20, 20.0)
_MODULUS_GRID = _strip_grid(15, 20, 20.0)


def _critical_line_unity_deviation() -> float:
    """max | |f(1/2+iy)| - 1 | over 200 midpoints of |y| <= 50."""
    return max(
        abs(modulus.f_abs_product(complex(0.5, -50 + 100 * (j + 0.5) / 200)) - 1.0) for j in range(200)
    )


# ---------------------------------------------------------------------------


def suite_table1() -> list[VerificationItem]:
    items = []
    for k, (num, den) in TABLE1.items():
        alpha = even_zeta_rational(k)
        numeric = float(alpha) * math.pi**k
        direct = zeta_eval(complex(k, 0)).real
        rel = abs(numeric - direct) / max(abs(direct), 1e-300)
        exact = alpha.numerator == num and alpha.denominator == den
        items.append(
            make_item(f"table1/alpha k={k} ({num}/{den})", 0.0, rel if exact else math.inf, 1e-9)
        )
    return items


def suite_functional() -> list[VerificationItem]:
    items = []
    worst_fe = 0.0
    worst_sym = 0.0
    for s in _FUNCTIONAL_GRID:
        # zeta by the eta sum right of the line and Euler-Maclaurin left of
        # it; zeta_eval there, and so functional_rhs, would apply the
        # functional equation and make both residuals identities of f
        z, z_mirror = (zeta_eval(w) if w.real >= 0.5 else _zeta_euler_maclaurin(w) for w in (s, 1 - s))
        worst_fe = max(worst_fe, abs(z - f_factor(s) * z_mirror) / abs(z))
        # pi^(-s/2) Gamma(s/2) zeta(s) as printed, on both sides
        c = cmath.exp(completed_log_prefactor(s)) * z
        c_mirror = cmath.exp(completed_log_prefactor(1 - s)) * z_mirror
        worst_sym = max(worst_sym, abs(c - c_mirror) / abs(c))
    items.append(make_item("functional/eq4 max rel residual (200-pt strip grid)", 0.0, worst_fe, 1e-9))
    items.append(make_item("completed/symmetry max rel residual (200-pt strip grid)", 0.0, worst_sym, 1e-9))

    worst_im = 0.0
    for j in range(100):
        t = 50.0 * (j + 0.5) / 100
        w = completed_zeta(complex(0.5, t))
        worst_im = max(worst_im, abs(w.imag) / (1 + abs(w.real)))
    items.append(make_item("completed/critical-line realness max residual t in [0,50]", 0.0, worst_im, 1e-10))

    residue = ((1.0001 - 1) * zeta_eval(1.0001 + 0j)).real
    items.append(make_item("zeta/pole residue via (s-1) zeta(s) at s=1+1e-4", 1.0, residue, 1e-3))

    worst_euler = 0.0
    for s in (2.5 + 0j, 3 + 1j, 4 - 2j, 5 + 0j, 6 + 3j):
        z = zeta_eval(s)
        worst_euler = max(worst_euler, abs(euler_product_partial(s) - z) / abs(z))
    items.append(make_item("zeta/euler-product primes<1e4 max rel diff (Re>=2.5)", 0.0, worst_euler, 1e-6))

    worst_laurent = 0.0
    for h in (0.2, -0.15, 0.1 + 0.1j, -0.05 - 0.18j, 0.02j):
        s = 1 + complex(h)
        worst_laurent = max(worst_laurent, abs(laurent_eval(s) - zeta_eval(s)))
    items.append(make_item("zeta/laurent vs zeta max diff |s-1|<=0.2 K=4", 0.0, worst_laurent, 1e-7))

    extracted = [stieltjes_gamma(k) for k in range(5)]
    for k in range(5):
        items.append(make_item(f"zeta/stieltjes gamma_{k} extraction", STIELTJES[k], extracted[k], 1e-5))
    # gamma_0 through the limit zeta(s) - 1/(s-1), Richardson over h, h/10
    v1 = (zeta_eval(1 + 1e-3 + 0j) - 1e3).real
    v2 = (zeta_eval(1 + 1e-4 + 0j) - 1e4).real
    items.append(make_item("zeta/gamma0 via lim zeta(s)-1/(s-1)", STIELTJES[0], (10 * v2 - v1) / 9, 1e-6))

    items.append(make_item("zeta/even-limit-probe n=1 -> pi^2/6", math.pi**2 / 6, even_limit_probe(1).real, 1e-6))
    items.append(make_item("zeta/even-limit-probe n=2 -> pi^4/90", math.pi**4 / 90, even_limit_probe(2).real, 1e-6))

    # the zeros-proposition proof claims zeta(2n) = (2 pi)^(2n)/(2n-1)!,
    # which contradicts the table it sits next to
    items.append(
        flag_item("paper-claim/zeta(2)=(2pi)^2/1! vs actual zeta(2)", (2 * math.pi) ** 2, zeta_eval(2 + 0j).real, 1e-6)
    )
    # the printed Stieltjes limit carries a (-1)^k/k! prefactor that the
    # Laurent series weights would then apply a second time; gamma_1 with
    # the prefactor flips sign against the constant the series needs
    items.append(
        flag_item("paper-claim/stieltjes limit prefactor (gamma_1 sign)", -STIELTJES[1], extracted[1], 1e-5)
    )
    return items


def suite_gamma() -> list[VerificationItem]:
    items = []
    worst = 0.0
    for i in range(10):
        for j in range(10):
            s = complex(0.05 + 0.9 * i / 9, -10 + 20 * (j + 0.5) / 10)
            worst = max(worst, reflection_residual(s))
    items.append(make_item("gamma/reflection residual max (100-pt grid)", 0.0, worst, 1e-10))

    worst = 0.0
    for s in (0.3 + 2j, 1.7 - 5j, -2.4 + 1.3j, 0.5 + 14.1j, 3 + 3j):
        g1 = gamma(s.conjugate())
        g2 = gamma(s).conjugate()
        worst = max(worst, abs(g1 - g2) / abs(g2))
    items.append(make_item("gamma/conjugate symmetry max rel", 0.0, worst, 1e-12))

    worst = 0.0
    for s in (0.25 + 0j, -1.5 + 0.4j, 4 + 9j, -7.3 - 2j, 12 - 12j, 0.5 + 19j):
        rel = abs(gamma(s + 1) - s * gamma(s)) / abs(gamma(s + 1))
        worst = max(worst, rel)
    items.append(make_item("gamma/recurrence max rel |s|<=20", 0.0, worst, 1e-11))

    s = complex(0.3, 40.0)
    decay = abs(gamma(s)) * abs(s.imag) ** (0.5 - s.real) * math.exp(math.pi * abs(s.imag) / 2)
    items.append(make_item("gamma/decay-law value at 0.3+40i", math.sqrt(2 * math.pi), decay, 0.01 * math.sqrt(2 * math.pi)))

    worst_c = max(
        abs(gamma_abs_critical(y) - abs(gamma(complex(0.5, y)))) / gamma_abs_critical(y)
        for y in [k * 0.5 for k in range(-100, 101)]
    )
    items.append(make_item("gamma/|Gamma(1/2+iy)| closed form max rel |y|<=50", 0.0, worst_c, 1e-10))
    worst_u = max(
        abs(gamma_abs_unit(y) - abs(gamma(complex(1.0, y)))) / gamma_abs_unit(y)
        for y in [k * 0.5 for k in range(-100, 101)]
        if y != 0
    )
    items.append(make_item("gamma/|Gamma(1+iy)| closed form max rel |y|<=50", 0.0, worst_u, 1e-10))

    for s in (1 + 0j, 2 + 0j, 0.3 + 0.7j):
        diff = abs(digamma(s) - digamma_series_reference(s))
        items.append(make_item(f"digamma/series cross-check s={s}", 0.0, diff, 1e-7))
    for s in (1 + 0j, 0.5 + 2j):
        diff = abs(psi_pair(s) - psi_pair_series(s))
        items.append(make_item(f"digamma/psi-pair series cross-check s={s}", 0.0, diff, 1e-7))

    items.append(make_item("gamma/Gamma(1/4) vs quoted 3.62", 3.62, gamma(0.25 + 0j).real, 6e-3))
    # footnote chain writes gamma_0 = psi(1); the standard sign is psi(1) = -gamma_0
    items.append(flag_item("paper-claim/footnote gamma0 = psi(1) sign", STIELTJES[0], digamma(1 + 0j).real, 1e-6))
    return items


def suite_modulus() -> list[VerificationItem]:
    items = []
    worst = 0.0
    bounds_ok = True
    for s in _MODULUS_GRID:
        breakdown = modulus.f_abs_closed(s)
        direct = abs(modulus.f_factor(s))
        worst = max(worst, abs(breakdown.product - direct) / direct)
        bounds_ok &= 1.0 < breakdown.two_pow < 2.0 and 1 / math.pi < breakdown.pi_pow < 1.0
    items.append(make_item("modulus/two-route |f| max rel (300-pt strip grid)", 0.0, worst, 1e-10))
    items.append(make_item("modulus/strip bounds 1<|2^s|<2, 1/pi<|pi^(s-1)|<1", 1.0, float(bounds_ok), 0.5))

    items.append(
        make_item("modulus/critical-line |f|=1 max deviation (200 pts)", 0.0, _critical_line_unity_deviation(), 1e-10)
    )

    h = 1e-5
    tol = max(1e-6, 10 * h * h)
    for i in range(10):
        x = 0.1 + 0.8 * i / 9
        for y in (0.3, 1.1, 2.3, 3.7, 4.9):
            s = complex(x, y)
            printed = modulus.f_abs_dx(s)
            fd = modulus.central_dx(modulus.f_abs_product, s, h)
            items.append(
                flag_item(f"eq14-dxf/printed vs finite-difference s={x:.2f}+{y}i", fd, printed, tol)
            )
    worst = 0.0
    for i in range(10):
        x = 0.1 + 0.8 * i / 9
        for y in (0.3, 1.1, 2.3, 3.7, 4.9):
            s = complex(x, y)
            fd = modulus.central_dx(lambda u: abs(gamma(1 - u)), s, h)
            worst = max(worst, abs(modulus.gamma_abs_dx(s) - fd))
    items.append(make_item("eq15-dxgamma/max |formula - finite-difference| (50 pts)", 0.0, worst, tol))

    # shrinking-parameter probes of the printed derivative limits at the
    # strip corner; measured limits disagree with the printed zeros
    probes = [1e-2, 1e-3, 1e-4]
    diag = (1 + 1j) / math.sqrt(2)
    gvals = [modulus.gamma_abs_dx(eps * diag) for eps in probes]
    items.append(flag_item("paper-claim/lim d/dx|Gamma(1-s)| at origin = 0", 0.0, 2 * gvals[2] - gvals[1], 1e-6))
    fvals = [modulus.f_abs_dx(eps * diag) for eps in probes]
    items.append(flag_item("paper-claim/lim d/dx|f| at origin = 0", 0.0, 2 * fvals[2] - fvals[1], 1e-6))
    items.append(make_item("modulus/d/dx|Gamma(1-s)| positive at 1/2", 1.0, float(modulus.gamma_abs_dx(0.5 + 0j) > 0), 0.5))
    items.append(make_item("modulus/d/dx|f| positive at 1/2", 1.0, float(modulus.f_abs_dx(0.5 + 0j) > 0), 0.5))

    items.extend(modulus.asymptotic_suite())
    return items


def suite_critical_line() -> list[VerificationItem]:
    items = [
        make_item(
            "critical-line/|f(1/2+iy)|=1 max deviation (200 pts, |y|<=50)", 0.0, _critical_line_unity_deviation(), 1e-10
        )
    ]

    worst = 0.0
    for t in (2.5, 7.0, 10.5, 17.3, 28.4, 47.1):
        s = complex(0.5, t)
        a = abs(zeta_eval(s))
        b = abs(zeta_eval(1 - s))
        worst = max(worst, abs(a - b) / a)
    items.append(make_item("critical-line/|zeta(s)|=|zeta(1-s)| max rel on line", 0.0, worst, 1e-12))

    first = first_zero()
    items.append(make_item("criterion/first zero ratio = 1", 1.0, first.criterion, 1e-6))
    items.append(
        make_item("criterion/generic on-line point t=10", 1.0, modulus.criterion_ratio(complex(0.5, 10)), 1e-6)
    )
    off = complex(0.3, 2.0)
    items.append(
        make_item(
            "criterion/off-line point equals |f(0.3+2i)|",
            modulus.f_abs_product(off),
            modulus.criterion_ratio(off),
            1e-6,
        )
    )
    return items


def suite_divisors() -> list[VerificationItem]:
    items = []
    eq26 = mero.Divisor({complex(0.5, _T0): 1, complex(0.5, -_T0): 1, 0j: -1, 1 + 0j: -1})
    items.append(make_item("divisor/deg(eq26) = 0", 0.0, float(mero.divisor_degree(eq26)), 0.0))
    items.append(make_item("divisor/deg(eq47 homotopy divisor) = 0", 0.0, float(mero.divisor_degree(_EQ47)), 0.0))

    f = mero.RationalMap(constant=2 - 1j, zeros=((1j, 2), (3 + 0j, 1)), poles=((-1 + 0j, 1), (2 - 2j, 1)))
    pf = mero.partial_fractions(f)
    worst = 0.0
    for k in range(50):
        z = complex(math.cos(0.7 * k) * 4, math.sin(1.3 * k) * 4)
        val = mero.evaluate(f, z)
        if sphere.is_infinity(val) or abs(val) < 1e-6:
            continue
        worst = max(worst, abs(pf(z) - val) / abs(val))
    items.append(make_item("partial-fractions/reconstruction max rel (50 pts)", 0.0, worst, 1e-10))

    d = mero.principal_divisor(f)
    rebuilt = mero.rational_from_divisor(d, f.constant)
    same = mero.principal_divisor(rebuilt) == d
    items.append(make_item("rational-from-divisor/round trip divisor match", 1.0, float(same), 0.5))

    l0, i0 = mero.riemann_roch_dims(mero.Divisor())
    items.append(make_item("riemann-roch/D=0 gives (l,i)=(1,0)", 1.0, float((l0, i0) == (1, 0)), 0.5))
    lk, ik = mero.riemann_roch_dims(mero.Divisor({sphere.INFINITY: -2}))
    items.append(make_item("riemann-roch/K=-2q_inf gives (l,i)=(0,1)", 1.0, float((lk, ik) == (0, 1)), 0.5))
    ln, _ = mero.riemann_roch_dims(mero.Divisor({0j: -3}))
    items.append(make_item("riemann-roch/deg<0 gives l=0", 0.0, float(ln), 0.0))
    # published table bottom line prints l-i = deg-1+g; the rows obey deg+1-g
    deg2 = mero.Divisor({0j: 2})
    l2, i2 = mero.riemann_roch_dims(deg2)
    items.append(flag_item("paper-claim/table2 prints deg(D)-1+g for l-i", float(2 - 1), float(l2 - i2), 1e-12))
    return items


def suite_hurwitz() -> list[VerificationItem]:
    items = []
    first = first_zero()
    anchor = completed_zeta(0.5 + 0j).real
    rmap, bd = mero.build_zeta_hat(first.ordinate, anchor)

    pointed = mero.evaluate(rmap, 0.5 + 0j)
    items.append(
        make_item("zetahat/pointing at 1/2 (double rounding)", anchor, complex(pointed).real, 5e-16 * abs(anchor))
    )
    t0 = first.ordinate
    expected_divisor = mero.Divisor({complex(0.5, t0): 1, complex(0.5, -t0): 1, 0j: -1, 1 + 0j: -1})
    items.append(
        make_item("zetahat/divisor equals eq26 (infinity order 0)", 1.0, float(mero.principal_divisor(rmap) == expected_divisor), 0.5)
    )
    items.append(make_item("zetahat/divisor degree = 0", 0.0, float(mero.divisor_degree(mero.principal_divisor(rmap))), 0.0))
    items.append(make_item("hurwitz/2 = 2*2 - [1+1]", 1.0, float(mero.riemann_hurwitz_check(bd, 2, 2)), 0.5))
    items.append(make_item("hurwitz/total branching index even", 0.0, float(bd.total_b % 2), 0.0))
    items.append(make_item("hurwitz/odd-b rejected", 0.0, float(mero.riemann_hurwitz_check(mero.BranchData(2, ((0.5 + 0j, 2),), 1), 2, 2)), 0.0))

    generic = mero.preimages(rmap, 1 + 1j)
    items.append(make_item("zetahat/generic preimage count = 2", 2.0, float(len(generic)), 0.0))
    branch_val = mero.evaluate(rmap, 0.5 + 0j)
    items.append(make_item("zetahat/preimages of zetahat(1/2) = 1", 1.0, float(len(mero.preimages(rmap, branch_val))), 0.0))
    items.append(make_item("zetahat/preimages of zetahat(inf) = 1", 1.0, float(len(mero.preimages(rmap, mero.evaluate(rmap, sphere.INFINITY)))), 0.0))

    quot = mero.derivative(rmap)
    ratio = (quot.numerator[0] / quot.numerator[1]).real
    items.append(make_item("zetahat/derivative numerator ratio q/(-2q) = -1/2", -0.5, ratio, 1e-12))
    crit = mero.critical_points(rmap)
    items.append(make_item("zetahat/unique finite critical point at 1/2", 0.5, crit[0][0].real if len(crit) == 1 else math.inf, 1e-9))

    c_paper = mero.build_zeta_hat(PAPER_ORDINATE, complex(PAPER_ANCHOR))[0].constant.real
    target_paper_inputs = 6.8046535931673308e-5
    items.append(make_item("zetahat/c from paper inputs", target_paper_inputs, c_paper, 1e-9 * target_paper_inputs))
    items.append(flag_item("paper-claim/c printed as 6.8046 (1e-5 factor missing)", 6.8046, c_paper, 1e-3))
    c_computed = rmap.constant.real
    items.append(make_item("zetahat/c from computed anchor", 0.0049764217074871865, c_computed, 1e-8 * 0.0049764217074871865))

    items.append(make_item("completed/value at 1/2 vs multiprecision", -3.9769662255065129, anchor, 1e-10))
    items.append(flag_item("paper-claim/completed zeta at 1/2 printed -0.05438", PAPER_ANCHOR, anchor, 1e-3))
    items.append(flag_item("paper-claim/pi^(-1/4) printed 102.87e-4", 102.87e-4, math.pi ** -0.25, 1e-3))
    return items


def suite_flow() -> list[VerificationItem]:
    items = []
    pts = [complex(0.03 + 0.094 * k, -8 + 1.7 * k) for k in range(11)]
    p0 = flow.FlowParams(a=0.2, t=0.0)
    worst = max(abs(flow.flow_map(p0, z) - z) for z in pts)
    items.append(make_item("flow/t=0 identity max deviation", 0.0, worst, 0.0))

    p1 = flow.FlowParams(a=0.2, t=1.0)
    worst = max(abs(flow.flow_map(p1, complex(x, 3.0)).real - 0.5) for x in (0.2, 0.31, 0.5, 0.62, 0.8))
    items.append(make_item("flow/t=1 collapses sub-strip abscissae to 1/2 exactly", 0.0, worst, 0.0))
    outside = complex(0.05, 2.0)
    items.append(make_item("flow/outside strip unchanged", 0.0, abs(flow.flow_map(p1, outside) - outside), 0.0))

    v = flow.flow_velocity(flow.FlowParams(a=0.05, t=0.5), complex(0.9, 1.0))
    items.append(make_item("flow/velocity at x=0.9 inside [1/2,1-a] is -0.4", -0.4, v[0], 1e-15))
    v_out = flow.flow_velocity(flow.FlowParams(a=0.2, t=0.5), complex(0.9, 1.0))
    items.append(make_item("flow/velocity vanishes outside [a,1-a]", 0.0, v_out[0], 0.0))
    items.append(make_item("flow/velocity vanishes at 1/2", 0.0, flow.flow_velocity(p1, 0.5 + 1j)[0], 0.0))

    items.extend(flow.continuity_probe(flow.FlowParams(a=0.2, t=1.0)))

    moved = flow.transport_divisor(p1, _EQ47)
    items.append(make_item("flow/transport preserves degree (eq47 with -4 q_inf)", 0.0, float(mero.divisor_degree(moved)), 0.0))
    items.append(
        make_item("flow/t=1 off-line zeros land on Re=1/2", 1.0, float(moved.multiplicity(complex(0.5, 5.0)) == 2), 0.5)
    )
    collapsed = flow.flow_map(p1, complex(0.31, 2.0))
    items.append(make_item("flow/idempotent at t=1", 0.0, abs(flow.flow_map(p1, collapsed) - collapsed), 0.0))
    return items


SUITES = {
    "table1": suite_table1,
    "functional": suite_functional,
    "modulus": suite_modulus,
    "critical-line": suite_critical_line,
    "gamma": suite_gamma,
    "divisors": suite_divisors,
    "hurwitz": suite_hurwitz,
    "flow": suite_flow,
}


def run_suite(name: str) -> VerificationReport:
    """Run one named suite, or every suite for 'all'."""
    if name == "all":
        items: list[VerificationItem] = []
        for suite_name in SUITES:
            items.extend(SUITES[suite_name]())
    elif name in SUITES:
        items = SUITES[name]()
    else:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return VerificationReport.build(items)
