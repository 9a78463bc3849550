"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines.  Tolerances are pinned here, not configurable.
"""

import math
import random
from fractions import Fraction

import pytest

from zetasphere.flow import FlowParams, continuity_probe, flow_map, transport_divisor
from zetasphere.mero import (
    Divisor,
    RationalMap,
    build_zeta_hat,
    divisor_add,
    divisor_degree,
    divisor_negate,
    evaluate,
    partial_fractions,
    preimages,
    principal_divisor,
    riemann_hurwitz_check,
)
from zetasphere.modulus import criterion_ratio, f_abs_product, f_factor
from zetasphere.report import DISCREPANCY, PASS
from zetasphere.specfun import gamma, reflection_residual
from zetasphere.sphere import (
    INFINITY,
    accumulation_gaps,
    SectorMap,
    covering_b,
    cr_residual,
    covering_a,
    stereo_lift,
    stereo_project,
)
from zetasphere.verify import suite_hurwitz, suite_modulus
from zetasphere.zeros import Rectangle, count_zeros_rectangle, refine_zero, scan_zeros
from zetasphere.zeta import (
    _zeta_euler_maclaurin,
    completed_zeta,
    even_limit_probe,
    even_zeta_rational,
    zeta_eval,
)

from reference_values import (
    C_COMPUTED_ANCHOR,
    COMPLETED_HALF,
    TABLE1_FRACTIONS,
    ZERO_ORDINATES,
)

FIRST_FIVE = (14.134725, 21.022040, 25.010858, 30.424876, 32.935062)


def report(n, text):
    print(f"ACCEPTANCE {n:02d} PASS: {text}")


def strip_grid_200():
    pts = []
    for i in range(10):
        x = 0.06 + 0.88 * i / 9
        for j in range(20):
            y = -20 + 40 * (j + 0.37) / 20
            if abs(y) < 0.2 or abs(abs(y) - 14.134725) < 0.45:
                y += 0.5
            pts.append(complex(x, y))
    return pts


def test_criterion_01_table1():
    for k, frac in TABLE1_FRACTIONS.items():
        alpha = even_zeta_rational(k)
        assert alpha == Fraction(*frac), f"alpha mismatch at k={k}"
        numeric = float(alpha) * math.pi**k
        direct = zeta_eval(complex(k, 0)).real
        assert abs(numeric - direct) <= 1e-9 * abs(direct)
    assert even_zeta_rational(20) == Fraction(174611, 1531329465290625)
    report(1, "table of even values reproduced, exact rationals bit-matched (k=0..20)")


def zeta_by_sum(s):
    """zeta(s) by the eta sum right of the line and Euler-Maclaurin left of
    it.  zeta_eval takes Re s < 1/2 through the functional equation, so
    checking that equation, or Lambda(s) = Lambda(1 - s), with it would
    only check identities of f."""
    return zeta_eval(s) if s.real >= 0.5 else _zeta_euler_maclaurin(s)


def test_criterion_02_functional_equation():
    worst = 0.0
    for s in strip_grid_200():
        z = zeta_by_sum(s)
        worst = max(worst, abs(z - f_factor(s) * zeta_by_sum(1 - s)) / abs(z))
    assert worst < 1e-9, worst
    report(2, f"functional equation residual {worst:.2e} < 1e-9 on 200-point strip grid")


def test_criterion_03_completed_symmetry_and_realness():
    # completed_zeta takes Re s < 1/2 at 1 - s, so on that side this checks
    # Lambda(s) = Lambda(1 - s) against the printed product at s itself
    worst_sym = 0.0
    for s in strip_grid_200():
        a = completed_zeta(s)
        printed = math.pi ** (-s / 2) * gamma(s / 2) * zeta_by_sum(s)
        worst_sym = max(worst_sym, abs(a - printed) / abs(a))
    assert worst_sym < 1e-9, worst_sym
    worst_im = 0.0
    for j in range(100):
        t = 50.0 * (j + 0.5) / 100
        w = completed_zeta(complex(0.5, t))
        worst_im = max(worst_im, abs(w.imag) / (1 + abs(w.real)))
    assert worst_im < 1e-10, worst_im
    report(3, f"completed symmetry {worst_sym:.2e} < 1e-9; line realness {worst_im:.2e} < 1e-10")


def test_criterion_04_critical_line_unity():
    worst = 0.0
    for j in range(200):
        y = -50 + 100 * (j + 0.5) / 200
        worst = max(worst, abs(f_abs_product(complex(0.5, y)) - 1.0))
    assert worst < 1e-10, worst
    report(4, f"|f(1/2+iy)| = 1 within {worst:.2e} < 1e-10 (200 samples, |y| <= 50)")


def test_criterion_05_zero_scan():
    records = scan_zeros(0.0, 50.0, 0.25)
    assert len(records) >= 5
    for rec, target in zip(records[:5], FIRST_FIVE):
        assert abs(rec.ordinate - target) < 1e-6, (rec.ordinate, target)
    # the full window contents, against the pre-build oracle catalog
    assert len(records) == len(ZERO_ORDINATES)
    for rec, target in zip(records, ZERO_ORDINATES):
        assert abs(rec.ordinate - target) < 1e-6
    report(5, "scan of [0,50] located the five stated ordinates (and the full catalog) to 1e-6")


def test_criterion_06_count_agreement():
    for t_max in (10.0, 30.0, 50.0):
        scan_count = len(scan_zeros(1.0, t_max, 0.25))
        wind_count = count_zeros_rectangle(Rectangle(-0.5, 1.5, 1.0, t_max))
        assert scan_count == wind_count, (t_max, scan_count, wind_count)
    report(6, "winding counts equal scan counts for T in {10, 30, 50}")


def test_criterion_07_zero_criterion():
    records = scan_zeros(0.0, 50.0, 0.25)
    for rec in records:
        assert abs(rec.criterion - 1.0) < 1e-6, rec
    report(7, f"criterion ratio = 1 +- 1e-6 at all {len(records)} refined zeros")


def test_criterion_08_zeta_hat_construction():
    t0 = refine_zero((14.0, 14.3)).ordinate
    anchor = completed_zeta(0.5 + 0j).real
    rmap, bd = build_zeta_hat(t0, anchor)
    pointed = complex(evaluate(rmap, 0.5 + 0j))
    assert abs(pointed - anchor) <= 5e-16 * abs(anchor)
    expected = Divisor({complex(0.5, t0): 1, complex(0.5, -t0): 1, 0j: -1, 1 + 0j: -1})
    assert principal_divisor(rmap) == expected
    assert principal_divisor(rmap).multiplicity(INFINITY) == 0
    assert divisor_degree(principal_divisor(rmap)) == 0
    assert riemann_hurwitz_check(bd, 2, 2) and bd.degree == 2 and bd.total_b == 2
    assert len(preimages(rmap, 1 + 1j)) == 2
    assert len(preimages(rmap, evaluate(rmap, 0.5 + 0j))) == 1
    assert len(preimages(rmap, evaluate(rmap, INFINITY))) == 1
    report(8, "extension map: pointing, eq-26 divisor, degree 0, 2=2*2-[1+1], preimage counts 2/1")


def test_criterion_09_constant_provenance():
    c_paper = build_zeta_hat(14.1347, complex(-0.05438))[0].constant.real
    oracle = float(Fraction(5438, 100000) / (4 * Fraction(141347, 10000) ** 2))
    assert abs(c_paper - oracle) <= 1e-9 * oracle
    flags = [it for it in suite_hurwitz() if it.status == DISCREPANCY]
    assert any("6.8046" in it.name for it in flags), "missing printed-c discrepancy flag"
    t0 = refine_zero((14.0, 14.3)).ordinate
    c_computed = build_zeta_hat(t0, completed_zeta(0.5 + 0j).real)[0].constant.real
    assert abs(c_computed - C_COMPUTED_ANCHOR) <= 1e-8 * C_COMPUTED_ANCHOR
    report(9, f"c(paper inputs) = {c_paper:.10e} vs rational oracle; flag emitted; "
              f"c(computed anchor) within 1e-8 of multiprecision value")


def test_criterion_10_asymptotic_probes():
    eps = 1e-4
    s = eps * (1 + 1j) / math.sqrt(2)
    product = abs(f_factor(s)) * abs(zeta_eval(1 - s))
    assert abs(product - 0.5) < 1e-3, product
    assert even_limit_probe(1).real == pytest.approx(math.pi**2 / 6, abs=1e-6)
    report(10, f"|f||zeta(1-s)| = {product:.6f} (1/2 within 1e-3 at eps=1e-4); "
               f"even-limit probe n=1 hits pi^2/6 within 1e-6")


def test_criterion_11_derivative_formulas():
    items = suite_modulus()
    eq14 = [it for it in items if it.name.startswith("eq14-dxf/")]
    assert len(eq14) == 50
    assert all(it.status in (PASS, DISCREPANCY) for it in eq14)
    n_flagged = sum(1 for it in eq14 if it.status == DISCREPANCY)
    eq15 = [it for it in items if it.name.startswith("eq15-dxgamma/")]
    assert len(eq15) == 1 and eq15[0].status == PASS
    report(11, f"d/dx|Gamma(1-s)| matches differences at all 50 points; printed d/dx|f| "
               f"flagged at {n_flagged}/50 points (suspected bracket-exponent misprint)")


def test_criterion_12_sphere_and_covering():
    rng = random.Random(7)
    for _ in range(500):
        z = complex(rng.uniform(-30, 30), rng.uniform(-30, 30))
        assert abs(stereo_project(stereo_lift(z)) - z) <= 1e-12 * max(1.0, abs(z))
    for n in range(-5, 6):
        a = covering_a(complex(0.4, 1.3))
        b = covering_a(complex(0.4, 1.3 + n))
        gap = abs(a.phase - b.phase) % 1.0
        assert min(gap, 1.0 - gap) < 1e-12
    ords = [r.ordinate for r in scan_zeros(0.0, 50.0, 0.25)]
    ups = [covering_b(complex(0.5, t), ords) for t in ords]
    downs = [covering_b(complex(0.5, -t), ords) for t in ords]
    for group in (ups, downs):
        for cp in group[1:]:
            gap = abs(cp.phase - group[0].phase) % 1.0
            assert min(gap, 1.0 - gap) < 1e-9
            assert cp.x0 == group[0].x0
    gaps = accumulation_gaps(ZERO_ORDINATES)
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    report(12, "stereo round trip (500 pts), covering fiber, one cover point per half-plane, "
               "accumulation distances strictly decreasing")


def test_criterion_13_cauchy_riemann_residual():
    ords = list(ZERO_ORDINATES[:5])
    sm = SectorMap(ords)
    for k in range(4):
        gap = ords[k + 1] - ords[k]
        mid = complex(0.5, 0.5 * (ords[k] + ords[k + 1]))
        r1, _ = cr_residual(sm, mid)
        assert abs(r1 - abs(1 - 1 / gap)) < 1e-4, (k, r1)
    report(13, "CR residual equals |1 - 1/gap| within 1e-4 inside the first 4 sectors")


def test_criterion_14_flow():
    p0 = FlowParams(a=0.2, t=0.0)
    for k in range(50):
        z = complex(0.01 + 0.019 * k, -5 + 0.2 * k)
        assert flow_map(p0, z) == z
    p1 = FlowParams(a=0.2, t=1.0)
    for x in (0.2, 0.35, 0.5, 0.65, 0.8):
        assert flow_map(p1, complex(x, 1.0)).real == 0.5
    items = {it.name: it for it in continuity_probe(p1)}
    jump = items["flow/boundary-jump extrapolated"]
    assert abs(jump.computed - 1.0 * (0.5 - 0.2)) < 1e-9
    assert items["flow/prose-fixed-boundary vs measured jump"].status == DISCREPANCY
    t0 = ZERO_ORDINATES[0]
    eq47 = Divisor(
        {
            complex(0.2, 5): 1, complex(0.8, 5): 1, complex(0.2, -5): 1, complex(0.8, -5): 1,
            complex(0.5, t0): 1, complex(0.5, -t0): 1, 0j: -1, 1 + 0j: -1, INFINITY: -4,
        }
    )
    assert divisor_degree(transport_divisor(p1, eq47)) == 0
    report(14, "flow: identity at t=0, exact collapse at t=1, jump = t(1/2-a) within 1e-9 "
               "and flagged, transport degree preserved (incl. -4 q_inf)")


def test_criterion_15_property_batteries():
    rng = random.Random(20260810)
    for _ in range(200):
        s = complex(rng.uniform(0.05, 0.95), rng.uniform(-10, 10))
        assert reflection_residual(s) < 1e-10
        z = zeta_eval(s)
        assert abs(zeta_eval(s.conjugate()) - z.conjugate()) <= 1e-12 * abs(z)
    for _ in range(200):
        s = complex(rng.uniform(-8, 8), rng.uniform(-8, 8))
        if (abs(s.imag) < 1e-5 and s.real < 0.6 and abs(s.real - round(s.real)) < 1e-5) or abs(s) < 1e-6:
            continue
        g1 = gamma(s + 1)
        assert abs(g1 - s * gamma(s)) <= 1e-11 * abs(g1)
        assert abs(gamma(s.conjugate()) - gamma(s).conjugate()) <= 1e-12 * abs(gamma(s))
    for _ in range(200):
        entries = {
            complex(rng.randint(-4, 4), rng.randint(-4, 4)): rng.randint(-3, 3)
            for _ in range(rng.randint(0, 5))
        }
        if rng.random() < 0.4:
            entries[INFINITY] = rng.randint(-3, 3)
        a = Divisor(entries)
        b = Divisor({complex(rng.randint(-4, 4), 1): rng.randint(-3, 3)})
        assert divisor_degree(divisor_add(a, b)) == divisor_degree(a) + divisor_degree(b)
        assert divisor_degree(divisor_negate(a)) == -divisor_degree(a)
    for _ in range(200):
        zeros_pts, poles_pts = [], []
        for _ in range(rng.randint(0, 2)):
            zeros_pts.append(complex(rng.uniform(-4, 4), rng.uniform(-4, 4)))
        for _ in range(rng.randint(1, 2)):
            while True:
                p = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
                if all(abs(p - z) > 0.05 for z in zeros_pts) and all(abs(p - q) > 0.05 for q in poles_pts):
                    break
            poles_pts.append(p)
        f = RationalMap(
            constant=complex(rng.uniform(0.2, 3), rng.uniform(-1, 1)),
            zeros=tuple((z, rng.randint(1, 2)) for z in zeros_pts),
            poles=tuple((p, rng.randint(1, 2)) for p in poles_pts),
        )
        assert divisor_degree(principal_divisor(f)) == 0
        pf = partial_fractions(f)
        z = complex(rng.uniform(-6, 6), rng.uniform(-6, 6))
        if all(abs(z - p) > 0.05 for p, _ in f.poles):
            direct = evaluate(f, z)
            assert abs(pf(z) - direct) <= 1e-10 * max(1.0, abs(direct))
    report(15, "200-case batteries: zeta/Gamma conjugate symmetry, reflection, recurrence, "
               "divisor degree homomorphism, partial-fraction reconstruction")
