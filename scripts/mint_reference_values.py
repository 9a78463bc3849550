#!/usr/bin/env python3
"""Pre-build oracle: mint high-precision reference values with mpmath.

Run this once and paste the printed block into the test suite.  The
toolkit itself never imports mpmath; everything the tests assert against
is frozen output of this script (plus exact rationals and closed forms).

With --check it mints the values, compares each exactly with the value of
the same name in tests/reference_values.py (STIELTJES_0..4 against
STIELTJES_REF) and exits 1 on a mismatch or a name the file lacks.
"""

import argparse
import contextlib
import io
import math
import runpy
import sys
from pathlib import Path

import mpmath as mp

REFERENCE_FILE = Path(__file__).resolve().parent.parent / "tests" / "reference_values.py"

mp.mp.dps = 40


def fmt(x):
    return mp.nstr(x, 17, strip_zeros=False)


def main():
    print("# gamma / digamma")
    print("GAMMA_QUARTER =", fmt(mp.gamma(mp.mpf(1) / 4)))
    g = mp.gamma(mp.mpc(0.5, 1.0))
    print("GAMMA_HALF_PLUS_I = complex(%s, %s)" % (fmt(g.real), fmt(g.imag)))
    print("ABS_GAMMA_HALF_PLUS_I =", fmt(abs(g)))
    print("ABS_GAMMA_ONE_PLUS_I =", fmt(abs(mp.gamma(mp.mpc(1.0, 1.0)))))
    # the closed-form moduli past pi |y| = 700, where e^(-pi |y|) is subnormal
    # (y = 230) or 0 (y >= 238) but the moduli stay normal to |y| ~ 451
    print("ABS_GAMMA_FAR = (")
    for y in (230.0, 300.0, 450.0):
        crit, unit = abs(mp.gamma(mp.mpc(0.5, y))), abs(mp.gamma(mp.mpc(1.0, y)))
        print("    (%r, %s, %s)," % (y, fmt(crit), fmt(unit)))
    print(")")
    print("DIGAMMA_ONE =", fmt(mp.digamma(1)))
    print("DIGAMMA_TWO =", fmt(mp.digamma(2)))
    # next to the poles, where the reflection's sin(pi s) is a small difference
    print("GAMMA_NEAR_POLES = (")
    for x in (-2.00001, -1.0000001, -3.000001, -20 - 1e-7):
        s = mp.mpf(x)
        lg = mp.loggamma(s)
        print("    (%r, %s, complex(%s, %s), %s)," % (
            x, fmt(mp.gamma(s)), fmt(lg.real), fmt(lg.imag), fmt(mp.digamma(s))))
    print(")")
    # psi at the gamma suite's series cross-check points, left of the poles,
    # far off the axis and at |s| >> 8192, where the series' tail carries it
    print("DIGAMMA_SERIES = (")
    for s0 in ((1.0, 0.0), (2.0, 0.0), (0.3, 0.7), (0.5, 2.0), (-3.5, 0.1), (5e4, 3e4), (1e7, 0.0)):
        p = mp.digamma(mp.mpc(*s0))
        print("    (complex%r, complex(%s, %s))," % (s0, fmt(p.real), fmt(p.imag)))
    print(")")
    # psi where both parts of s pass ~1.34e154 and s * s is inf - inf, out to
    # 1e300, on both sides of the reflection at Re s = 1/2
    print("DIGAMMA_FAR = (")
    for s0 in ((1e154, 1e154), (1.35e154, 1.35e154), (-2e160, 5e159), (3e200, -4e200),
               (-1e250, -1e250), (1e300, 2e299), (5e299, -1e300)):
        p = mp.digamma(mp.mpc(*s0))
        print("    (complex%r, complex(%s, %s))," % (s0, fmt(p.real), fmt(p.imag)))
    print(")")
    # log Gamma in 0 < Re s < 1/2, taken by one shift from Re s + 1; out to
    # Im s = 500, Hardy Z's log Gamma(s/2) at t = 1000
    print("LOGGAMMA_STRIP = (")
    for s0 in ((0.25, 0.0), (0.001, 0.002), (0.01, 0.5), (0.1, -3.0), (0.25, 7.0),
               (0.4999, 20.0), (0.3, -250.0), (0.25, 500.0)):
        lg = mp.loggamma(mp.mpc(*s0))
        print("    (complex%r, complex(%s, %s))," % (s0, fmt(lg.real), fmt(lg.imag)))
    print(")")
    # log Gamma(s/2) up the vertical lines Re s = sigma >= 1.1 out to t = 1000,
    # where the rectangle count takes an edge as a difference of logs;
    # mp.loggamma is the branch continuous off the negative real axis
    print("LOGGAMMA_VERTICAL = (")
    for sigma in (1.1, 1.25, 1.5, 1.75):
        for y in (0.5, 20.0, 150.0, 500.0):
            s0 = (sigma / 2, y)
            lg = mp.loggamma(mp.mpc(*s0))
            print("    (complex%r, complex(%s, %s))," % (s0, fmt(lg.real), fmt(lg.imag)))
    print(")")

    # Gamma either side of its two route seams, Re s = 1/2 and |Im s| = 20:
    # the Lanczos product on Re s >= 1/2, |Im s| <= 20, exp(log Gamma) elsewhere
    print("GAMMA_SEAMS = (")
    for s0 in ((0.4999999, 3.0), (0.5, 3.0), (0.5000001, 3.0), (0.49, -15.0), (0.51, -15.0),
               (2.5, 19.999), (2.5, 20.001), (0.5, 20.0), (0.5, 20.0000001), (-3.3, -19.99),
               (-3.3, -20.01), (150.5, 19.5), (150.5, 20.5)):
        g = mp.gamma(mp.mpc(*s0))
        print("    (complex%r, complex(%s, %s))," % (s0, fmt(g.real), fmt(g.imag)))
    print(")")

    print("# zeta")
    print("ZETA_HALF =", fmt(mp.zeta(mp.mpf(1) / 2)))
    print("ZETA_THREE =", fmt(mp.zeta(3)))
    z = mp.zeta(mp.mpc(0.75, 2.5))
    print("ZETA_SPOT = complex(%s, %s)" % (fmt(z.real), fmt(z.imag)))
    # the eta-denominator zero nearest the real axis, then snapped to the
    # double the test suite will actually pass in.  mp.zeta is evaluated at
    # that double (it is unstable exactly at the removable 0/0 point) and
    # confirmed by an independent Euler-Maclaurin sum.
    t_exact = 2 * mp.pi / mp.log(2)
    t_double = float(t_exact)
    print("ETA_DENOM_ZERO_IM =", repr(t_double))
    s0 = mp.mpc(1.0, t_double)
    z = mp.zeta(s0)
    n_cut, m_cut = 60, 20
    em = mp.nsum(lambda n: n ** (-s0), [1, n_cut])
    em += n_cut ** (1 - s0) / (s0 - 1) - mp.mpf(0.5) * n_cut ** (-s0)
    rising = s0
    for k in range(1, m_cut + 1):
        em += mp.bernoulli(2 * k) / mp.factorial(2 * k) * rising * n_cut ** (1 - s0 - 2 * k)
        rising *= (s0 + 2 * k - 1) * (s0 + 2 * k)
    assert abs(em - z) < mp.mpf(10) ** -25, (em, z)
    print("ZETA_AT_ETA_DENOM_ZERO = complex(%s, %s)" % (fmt(z.real), fmt(z.imag)))
    # reflected points past |Im s| ~ 452, where sin(pi s/2) leaves double range
    print("ZETA_REFLECTED_HIGH = (")
    for s0 in ((0.3, 600.0), (-0.5, 1000.0), (0.2, -455.0)):
        z = mp.zeta(mp.mpc(*s0))
        print("    (complex%r, complex(%s, %s))," % (s0, fmt(z.real), fmt(z.imag)))
    print(")")
    # on the critical line out to t ~ 1000, and right of it past t = 450,
    # where the eta sum takes k^-s from the split k = 2^a 3^b m
    print("ZETA_LINE_HIGH = (")
    for s0 in ((0.5, 150.0), (0.5, 300.0), (0.5, 450.0), (0.5, 700.0), (0.5, 999.5),
               (0.8, 610.0), (1.5, -875.25)):
        z = mp.zeta(mp.mpc(*s0))
        print("    (complex%r, complex(%s, %s))," % (s0, fmt(z.real), fmt(z.imag)))
    print(")")
    # Hardy's Z(t) = e^(i theta(t)) zeta(1/2 + it) out to t ~ 1000, past
    # t ~ 945 where the completed zeta on the line underflows: (t, Z(t))
    print("HARDY_Z = (")
    for t in (0.0, 14.0, 100.0, 500.0, 960.0, 999.9):
        print("    (%r, %s)," % (t, fmt(mp.siegelz(t))))
    print(")")
    # the Riemann-Siegel theta(t) either side of t = 10, where Hardy's Z
    # switches from log Gamma to theta's Stirling series, and out to 10^4:
    # (t, theta(t))
    print("THETA = (")
    for t in (0.0, 9.999, 10.0, 14.134725141734693, 100.0, 1000.0, 7005.06, 1e4):
        print("    (%r, %s)," % (t, fmt(mp.siegeltheta(t))))
    print(")")
    # f(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s) either side of |Im s| = 20,
    # where log sin(pi s/2) joins its log-space head
    print("F_FACTOR_SEAMS = (")
    for s0 in ((0.3, 19.999), (0.3, 20.001), (0.5, -20.0), (0.5, -20.0000001), (2.5, 19.99),
               (2.5, 20.01), (-5.5, 19.99), (-5.5, 20.01), (-150.25, -19.9), (-150.25, -20.1),
               (142.5, 19.5), (142.5, 20.5)):
        s = mp.mpc(*s0)
        f = 2**s * mp.pi ** (s - 1) * mp.sin(mp.pi * s / 2) * mp.gamma(1 - s)
        print("    (complex%r, complex(%s, %s))," % (s0, fmt(f.real), fmt(f.imag)))
    print(")")
    # left of Re s ~ -141, where Gamma(1-s) alone overflows a direct product
    print("ZETA_FAR_LEFT = (")
    for x in (-141.25, -201.0):
        print("    (%r, %s)," % (x, fmt(mp.zeta(x))))
    print(")")
    # next to the trivial zeros, where sin(pi s/2) is a small difference
    print("ZETA_NEAR_TRIVIAL = (")
    for x in (-40.001, -60.0003, -250.0001):
        print("    (%r, %s)," % (x, fmt(mp.zeta(x))))
    print(")")
    # next to s = 0, out to |s| = 0.014, where zeta(1 - s) sits next to its
    # pole: real, imaginary and oblique s
    print("ZETA_NEAR_ORIGIN = (")
    for s0 in ((2e-06, 0.0), (-3e-05, 0.0), (1e-05, -2e-05), (0.0, 0.0005), (0.003, 0.0),
               (-0.004, 0.009), (-0.0123, 0.0), (0.0095, -0.01)):
        z = mp.zeta(mp.mpc(*s0))
        print("    (complex%r, complex(%s, %s))," % (s0, fmt(z.real), fmt(z.imag)))
    print(")")
    # zeta and zeta' where the package sums them by Euler-Maclaurin: next to
    # the eta-denominator zeros 1 + 2 pi i k / ln 2 (k = 1, 10, 50, 110, as
    # doubles, both signs of Im s) and in 0.06 <= Re s < 1/2, |Im s| <= 20,
    # where the functional suite takes zeta(1 - s); zeta' is confirmed by
    # numerical differentiation: (s, zeta(s), zeta'(s))
    print("ZETA_EULER_MACLAURIN = (")
    t_k = {k: float(2 * k * mp.pi / mp.log(2)) for k in (1, 10, 50, 110)}
    points = [(1.0, t_k[1]), (1.006, t_k[1] - 0.004), (1.0, t_k[10]), (0.995, -t_k[10] + 0.003),
              (1.0, t_k[50]), (1.004, t_k[50] + 0.005), (1.0, t_k[110]), (0.996, -t_k[110] - 0.002),
              (0.06, -19.63), (0.1, -3.0), (0.157, 7.5), (0.25, 14.1347), (0.3, 19.9),
              (0.4, -11.0), (0.45, 0.2), (0.4999, 5.0)]
    for s0 in points:
        s = mp.mpc(*s0)
        z, dz = mp.zeta(s), mp.zeta(s, 1, 1)
        assert abs(dz - mp.diff(mp.zeta, s)) < mp.mpf(10) ** -25 * abs(dz), s0
        print("    (complex%r, complex(%s, %s), complex(%s, %s))," % (
            s0, fmt(z.real), fmt(z.imag), fmt(dz.real), fmt(dz.imag)))
    print(")")
    # Lambda'/Lambda for Lambda(s) = pi^(-s/2) Gamma(s/2) zeta(s): right and
    # left of the critical line, out to t ~ 990, and on the eta-denominator
    # zeros 1 + 2 pi i k / ln 2 (as doubles) and their reflection through
    # s -> 1 - s; zeta' is confirmed by numerical differentiation
    print("COMPLETED_LOGDERIV = (")
    t_k = [float(2 * k * mp.pi / mp.log(2)) for k in (1, 100)]
    points = [(0.75, 2.5), (1.5, 30.0), (0.5, 100.0), (-0.5, 20.0), (0.25, 300.0),
              (1.5, 990.0), (-0.5, 960.0), (0.8, 945.5), (1.0, t_k[0]), (0.0, t_k[0]),
              (1.0, t_k[1])]
    for s0 in points:
        s = mp.mpc(*s0)
        dz = mp.zeta(s, 1, 1)
        assert abs(dz - mp.diff(mp.zeta, s)) < mp.mpf(10) ** -25 * abs(dz), s0
        ld = -mp.log(mp.pi) / 2 + mp.digamma(s / 2) / 2 + dz / mp.zeta(s)
        print("    (complex%r, complex(%s, %s))," % (s0, fmt(ld.real), fmt(ld.imag)))
    print(")")
    ctilde = mp.pi ** (-mp.mpf(1) / 4) * mp.gamma(mp.mpf(1) / 4) * mp.zeta(mp.mpf(1) / 2)
    print("COMPLETED_HALF =", fmt(ctilde))
    # the completed zeta left of Re s ~ -291, where zeta(s) alone leaves
    # double range; taken directly at s, not through Lambda(s) = Lambda(1 - s)
    print("COMPLETED_FAR_LEFT = (")
    for s0 in ((-300.5, 0.0), (-350.25, 20.0), (-400.0, -45.0), (-437.0, 0.0)):
        s = mp.mpc(*s0)
        c = mp.pi ** (-s / 2) * mp.gamma(s / 2) * mp.zeta(s)
        print("    (complex%r, complex(%s, %s))," % (s0, fmt(c.real), fmt(c.imag)))
    print(")")

    # the Euler product over primes p < 10^4 at the functional suite's points,
    # the truncated product itself rather than zeta(s)
    print("EULER_PARTIAL = (")
    # primes by trial division, independent of the package's sieve
    primes = [p for p in range(2, 10**4) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    for s0 in ((2.5, 0.0), (3.0, 1.0), (4.0, -2.0), (5.0, 0.0), (6.0, 3.0)):
        s = mp.mpc(*s0)
        prod = mp.mpf(1)
        for p in primes:
            prod /= 1 - mp.mpf(p) ** (-s)
        print("    (complex%r, complex(%s, %s))," % (s0, fmt(prod.real), fmt(prod.imag)))
    print(")")

    print("# stieltjes")
    for k in range(5):
        print("STIELTJES_%d =" % k, fmt(mp.stieltjes(k)))

    print("# zero ordinates (fine-grid + bisection oracle, seeded by mp.zetazero)")
    ords = []
    for k in range(1, 11):
        t = mp.zetazero(k).imag
        # independent confirmation: bisection on Re(completed zeta) restricted
        # to the critical line, bracketing with a 1e-3 grid around t
        f = lambda u: mp.re(
            mp.pi ** (-mp.mpc(0.25, u / 2) / 1) ** 0 * mp.gamma(mp.mpc(0.25, u / 2))
            * mp.pi ** (-mp.mpc(0.25, u / 2)) * mp.zeta(mp.mpc(0.5, u))
        )
        a, b = t - mp.mpf(1) / 1000, t + mp.mpf(1) / 1000
        fa = f(a)
        assert fa * f(b) < 0
        for _ in range(80):
            m = (a + b) / 2
            if fa * f(m) <= 0:
                b = m
            else:
                a, fa = m, f(m)
        ords.append((a + b) / 2)
        assert abs(ords[-1] - t) < mp.mpf(10) ** -20
    print("ZERO_ORDINATES = (")
    for t in ords:
        print("    %s," % fmt(t))
    print(")")
    print("GAP_1_2 =", fmt(ords[1] - ords[0]))
    # the finite critical points of the map with zeros 1/2 +- i t_n at the
    # ten ordinates above (as doubles) and poles 0 and 1: the roots of
    # sum w_i / (z - a_i), started from mpmath's roots of its numerator
    points = [(mp.mpc(0.5, sign * float(fmt(t))), 1) for t in ords for sign in (1, -1)]
    points += [(mp.mpc(0), -1), (mp.mpc(1), -1)]
    numerator = [mp.mpc(0)] * len(points)
    for i, (_, w) in enumerate(points):
        term = [mp.mpc(w)]
        for a, _ in points[:i] + points[i + 1 :]:
            term = [-a * term[0]] + [term[k - 1] - a * term[k] for k in range(1, len(term))] + [term[-1]]
        numerator = [c + d for c, d in zip(numerator, term + [0])]
    log_derivative = lambda z: mp.fsum(w / (z - a) for a, w in points)
    starts = mp.polyroots(numerator[::-1], maxsteps=200, extraprec=200)
    crit = [mp.chop(mp.findroot(log_derivative, z0), mp.mpf(10) ** -30) for z0 in starts]
    print("CRITICAL_POINTS_TEN_PAIRS = (")
    for z in sorted(crit, key=lambda z: (z.real, z.imag)):
        print("    complex(%s, %s)," % (fmt(z.real), fmt(z.imag)))
    print(")")

    print("# zeta-hat constants")
    c_paper = (mp.mpf("0.05438") / 100) * 100 / (4 * mp.mpf("14.1347") ** 2)
    print("C_PAPER_INPUTS =", fmt(c_paper))
    c_comp = -ctilde / (4 * ords[0] ** 2)
    print("C_COMPUTED_ANCHOR =", fmt(c_comp))

    print("# counts")
    n100 = sum(1 for k in range(1, 40) if mp.zetazero(k).imag < 100)
    print("ZEROS_BELOW_100 =", n100)
    print("ZEROS_BELOW_1000 =", mp.nzeros(1000))


def check() -> int:
    """Compare every minted value with its frozen twin; 0 when all match."""
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        main()
    minted = {}
    exec(text.getvalue(), {}, minted)
    minted["STIELTJES_REF"] = tuple(minted.pop("STIELTJES_%d" % k) for k in range(5))
    frozen = runpy.run_path(str(REFERENCE_FILE))
    bad = 0
    for name, value in minted.items():
        if name not in frozen:
            print("missing from %s: %s" % (REFERENCE_FILE.name, name))
            bad += 1
        elif frozen[name] != value:
            print("%s differs: minted %r, frozen %r" % (name, value, frozen[name]))
            bad += 1
    print("%d of %d minted values match %s" % (len(minted) - bad, len(minted), REFERENCE_FILE.name))
    return 1 if bad else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare with tests/reference_values.py instead of printing")
    if parser.parse_args().check:
        sys.exit(check())
    main()
