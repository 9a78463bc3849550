"""Frozen reference values.

Everything here is the output of scripts/mint_reference_values.py (mpmath
at 40 digits, an oracle fully independent of the package under test) or an
exact closed form noted inline.  Regenerate with the script if you need to
extend the table; never edit numbers by hand.
"""

GAMMA_QUARTER = 3.6256099082219083
GAMMA_HALF_PLUS_I = complex(0.30069461726065582, -0.42496787943312381)
ABS_GAMMA_HALF_PLUS_I = 0.52059096361675195
ABS_GAMMA_ONE_PLUS_I = 0.52156404686493984
DIGAMMA_ONE = -0.57721566490153286
DIGAMMA_TWO = 0.42278433509846714
# next to the poles, where the reflection's sin(pi s) is a small difference:
# (s, Gamma(s), log Gamma(s), psi(s))
GAMMA_NEAR_POLES = (
    (-2.00001, -49999.538616870981, complex(10.819769056705128, -9.4247779607693797), 100000.92275473063),
    (-1.0000001, 9999999.5713771343, complex(16.118095608096032, -6.2831853071795865), 10000000.416945399),
    (-3.000001, 166666.45729080759, complex(12.023749832480276, -12.566370614359173), 1000001.2559748844),
    (-20.0000001, -4.1103163337475477e-12, complex(-26.217521123533649, -65.973445725385658), 10000002.903662695),
)
# log Gamma in 0 < Re s < 1/2, out to Im s = 500 (the sign kernel's
# log Gamma(s/2) at t = 1000): (s, log Gamma(s))
LOGGAMMA_STRIP = (
    (complex(0.25, 0.0), complex(1.2880225246980775, 0.0)),
    (complex(0.001, 0.002), complex(6.1024566441047245, -1.1082998584608747)),
    (complex(0.01, 0.5), complex(0.49876617346312734, -1.7877713903346784)),
    (complex(0.1, -3.0), complex(-4.2322187002605599, 0.34534020121158046)),
    (complex(0.25, 7.0), complex(-10.562953339040002, 6.2301605005296513)),
    (complex(0.4999, 20.0), complex(-30.497287565499385, 39.916572028590594)),
    (complex(0.3, -250.0), complex(-392.88443523709164, -1130.0511568669267)),
    (complex(0.25, 500.0), complex(-786.03287685759917, 2606.9113709627317)),
)

ZETA_HALF = -1.4603545088095868
ZETA_THREE = 1.2020569031595943
ZETA_SPOT_ARG = complex(0.75, 2.5)
ZETA_SPOT = complex(0.55176350521402638, -0.20185180701573465)
ETA_DENOM_ZERO_IM = 9.0647202836543876
ZETA_AT_ETA_DENOM_ZERO = complex(1.3465795428363171, 0.10988313679626950)
# reflected points past |Im s| ~ 452, where sin(pi s/2) leaves double range
ZETA_REFLECTED_HIGH = (
    (complex(0.3, 600.0), complex(1.7796957617005685, 4.3974996014434198)),
    (complex(-0.5, 1000.0), complex(-123.54067467709959, 90.000077494702263)),
    (complex(0.2, -455.0), complex(-1.9025058664642367, -0.55478708527725080)),
)
# left of Re s ~ -141, where Gamma(1-s) alone overflows a direct product
ZETA_FAR_LEFT = (
    (-141.25, -3.4807542425883930e+130),
    (-201.0, -1.8568690810125945e+216),
)
# next to the trivial zeros, where sin(pi s/2) is a small difference
ZETA_NEAR_TRIVIAL = (
    (-40.001, -4833140842762.8760),
    (-60.0003, -1.6060869944676420e+30),
    (-250.0001, 4.6105142782375651e+288),
)
# Lambda'/Lambda of the completed zeta: both sides of the line, out to
# t ~ 990, and on the eta-denominator zeros 1 + 2 pi i k / ln 2 (k = 1, 100)
# and the reflection 1 - s of the first
COMPLETED_LOGDERIV = (
    (complex(0.75, 2.5), complex(-0.058573597341990461, 0.87968985676704076)),
    (complex(1.5, 30.0), complex(1.0695533592599978, 1.2427603670551519)),
    (complex(0.5, 100.0), complex(2.2958874039497803e-41, 0.70528882343729455)),
    (complex(-0.5, 20.0), complex(-0.60113539818362290, 1.2195980911445716)),
    (complex(0.25, 300.0), complex(-3.1143406607517259, -0.69925301458081539)),
    (complex(1.5, 990.0), complex(2.5231023194116717, 1.0868185371973536)),
    (complex(-0.5, 960.0), complex(-2.0665115338704211, 0.27212206061761441)),
    (complex(0.8, 945.5), complex(3.1939721731900946, 0.0068150243446397596)),
    (complex(1.0, 9.064720283654388), complex(0.030055393524862242, 0.72021809793685688)),
    (complex(0.0, 9.064720283654388), complex(-0.030055393524862242, 0.72021809793685688)),
    (complex(1.0, 906.4720283654387), complex(1.6264288986872406, 0.41260289740898941)),
)
COMPLETED_HALF = -3.9769662255065129
# the completed zeta left of Re s ~ -291, where zeta(s) alone leaves double
# range, out to where Lambda itself does
COMPLETED_FAR_LEFT = (
    (complex(-300.5, 0.0), complex(1.8503590332798572e+187, 0.0)),
    (complex(-350.25, 20.0), complex(-4.8065358828825600e+229, -3.4865902205833898e+229)),
    (complex(-400.0, -45.0), complex(2.4293515069126363e+273, -2.2394964471822843e+273)),
    (complex(-437.0, 0.0), complex(6.3092919858260908e+307, 0.0)),
)
# the truncated Euler product over primes p < 10^4 at the functional suite's
# points (not zeta(s): the product itself, taken at 40 digits)
EULER_PARTIAL = (
    (complex(2.5, 0.0), complex(1.3414871670071839, 0.0)),
    (complex(3.0, 1.0), complex(1.1072144089132259, -0.14829086736240752)),
    (complex(4.0, -2.0), complex(0.99793259523000739, 0.071461016424086781)),
    (complex(5.0, 0.0), complex(1.0369277551433699, 0.0)),
    (complex(6.0, 3.0), complex(0.99094192150345433, -0.013146672490462588)),
)

STIELTJES_REF = (
    0.57721566490153286,
    -0.072815845483676725,
    -0.0096903631928723185,
    0.0020538344203033459,
    0.0023253700654673001,
)

# first ten critical-line zero ordinates (fine-grid + bisection oracle)
ZERO_ORDINATES = (
    14.134725141734694,
    21.022039638771555,
    25.010857580145689,
    30.424876125859513,
    32.935061587739190,
    37.586178158825671,
    40.918719012147495,
    43.327073280915000,
    48.005150881167160,
    49.773832477672302,
)
GAP_1_2 = 6.8873144970368612
ZEROS_BELOW_100 = 29
ZEROS_BELOW_1000 = 649

# c = (1/4) * 0.05438 / 14.1347^2, exact decimal arithmetic of the printed
# inputs (see also the Fraction oracle in the acceptance tests)
C_PAPER_INPUTS = 6.8046535931673308e-5
C_COMPUTED_ANCHOR = 0.0049764217074871865

# exact alpha for zeta(k) = alpha pi^k, transcribed column by column from
# the published table of even values
TABLE1_FRACTIONS = {
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
