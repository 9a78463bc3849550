#!/usr/bin/env python3
"""Pre-build oracle: mint high-precision reference values with mpmath.

Run this once and paste the printed block into the test suite.  The
toolkit itself never imports mpmath; everything the tests assert against
is frozen output of this script (plus exact rationals and closed forms).
"""

import math

import mpmath as mp

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
    # log Gamma in 0 < Re s < 1/2, taken by one shift from Re s + 1; out to
    # Im s = 500, the sign kernel's log Gamma(s/2) at t = 1000
    print("LOGGAMMA_STRIP = (")
    for s0 in ((0.25, 0.0), (0.001, 0.002), (0.01, 0.5), (0.1, -3.0), (0.25, 7.0),
               (0.4999, 20.0), (0.3, -250.0), (0.25, 500.0)):
        lg = mp.loggamma(mp.mpc(*s0))
        print("    (complex%r, complex(%s, %s))," % (s0, fmt(lg.real), fmt(lg.imag)))
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

    print("# zeta-hat constants")
    c_paper = (mp.mpf("0.05438") / 100) * 100 / (4 * mp.mpf("14.1347") ** 2)
    print("C_PAPER_INPUTS =", fmt(c_paper))
    c_comp = -ctilde / (4 * ords[0] ** 2)
    print("C_COMPUTED_ANCHOR =", fmt(c_comp))

    print("# counts")
    n100 = sum(1 for k in range(1, 40) if mp.zetazero(k).imag < 100)
    print("ZEROS_BELOW_100 =", n100)
    print("ZEROS_BELOW_1000 =", mp.nzeros(1000))


if __name__ == "__main__":
    main()
