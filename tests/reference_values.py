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
# the closed-form moduli past pi |y| = 700, where e^(-pi |y|) is subnormal
# (y = 230) or 0 (y >= 238): (y, |Gamma(1/2 + iy)|, |Gamma(1 + iy)|)
ABS_GAMMA_FAR = (
    (230.0, 3.1319097756303707e-157, 4.7497763461225078e-156),
    (300.0, 5.5288761029077282e-205, 9.5762943189895978e-204),
    (450.0, 2.5966314910526058e-307, 5.5082872066975007e-306),
)
DIGAMMA_ONE = -0.57721566490153286
DIGAMMA_TWO = 0.42278433509846714
# psi at the gamma suite's series cross-check points, left of the poles, far
# off the axis and at |s| >> 8192, where the series' tail carries it: (s, psi(s))
DIGAMMA_SERIES = (
    (complex(1.0, 0.0), complex(-0.57721566490153286, 0.0)),
    (complex(2.0, 0.0), complex(0.42278433509846714, 0.0)),
    (complex(0.3, 0.7), complex(-0.44720792029956117, 1.8918108552185267)),
    (complex(0.5, 2.0), complex(0.68218669934942427, 1.5707853710239763)),
    (complex(-3.5, 0.1), complex(1.3891786175830498, 0.93085589831014866)),
    (complex(50000.0, 30000.0), complex(10.973513281331553, 0.54042391205691634)),
    (complex(10000000.0, 0.0), complex(16.118095600958319, 0.0)),
)
# psi where both parts of s pass ~1.34e154 and s * s is inf - inf, out to
# 1e300, on both sides of the reflection at Re s = 1/2: (s, psi(s))
DIGAMMA_FAR = (
    (complex(1e+154, 1e+154), complex(354.94467791136301, 0.78539816339744831)),
    (complex(1.35e+154, 1.35e+154), complex(355.24478250381335, 0.78539816339744831)),
    (complex(-2e+160, 5e+159), complex(369.13707437051547, 2.8966139904629291)),
    (complex(3e+200, -4e+200), complex(462.12645651124324, -0.92729521800161223)),
    (complex(-1e+250, -1e+250), complex(575.99284683879139, -2.3561944901923449)),
    (complex(1e+300, 2e+299), complex(690.79513825479035, 0.19739555984988076)),
    (complex(5e+299, -1e+300), complex(690.88709967387081, -1.1071487177940905)),
)
# next to the poles, where the reflection's sin(pi s) is a small difference:
# (s, Gamma(s), log Gamma(s), psi(s))
GAMMA_NEAR_POLES = (
    (-2.00001, -49999.538616870981, complex(10.819769056705128, -9.4247779607693797), 100000.92275473063),
    (-1.0000001, 9999999.5713771343, complex(16.118095608096032, -6.2831853071795865), 10000000.416945399),
    (-3.000001, 166666.45729080759, complex(12.023749832480276, -12.566370614359173), 1000001.2559748844),
    (-20.0000001, -4.1103163337475477e-12, complex(-26.217521123533649, -65.973445725385658), 10000002.903662695),
)
# log Gamma in 0 < Re s < 1/2, out to Im s = 500 (Hardy Z's
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
# log Gamma(s/2) on the vertical lines Re s = 1.1, 1.25, 1.5, 1.75 out to
# t = 1000, the branch continuous off the negative real axis: (s/2, log Gamma)
LOGGAMMA_VERTICAL = (
    (complex(0.55, 0.5), complex(0.070028901121163076, -0.68154248970890795)),
    (complex(0.55, 20.0), complex(-30.347206547514715, 39.995206411846007)),
    (complex(0.55, 150.0), complex(-234.44997881299238, 601.67410337591202)),
    (complex(0.55, 500.0), complex(-784.16849446757253, 2607.3826698607876)),
    (complex(0.625, 0.5), complex(0.010924611841940361, -0.58758056223081501)),
    (complex(0.625, 20.0), complex(-30.122533680734590, 40.112687945417408)),
    (complex(0.625, 150.0), complex(-234.07418129128332, 601.79186935026547)),
    (complex(0.625, 500.0), complex(-783.70239887147213, 2607.5004664602930)),
    (complex(0.75, 0.5), complex(-0.074102531408119961, -0.45297189501492412)),
    (complex(0.75, 20.0), complex(-29.748074473193878, 40.307865405104349)),
    (complex(0.75, 150.0), complex(-233.44785200973039, 601.98806264062654)),
    (complex(0.75, 500.0), complex(-782.92557287088811, 2607.6967691261291)),
    (complex(0.875, 0.5), complex(-0.14131673276008718, -0.34015998084397355)),
    (complex(0.875, 20.0), complex(-29.373605495635581, 40.502261579180053)),
    (complex(0.875, 150.0), complex(-232.82152255456496, 602.18415176423655)),
    (complex(0.875, 500.0), complex(-782.14874685467908, 2607.8930405419630)),
)

# Gamma either side of its route seams Re s = 1/2 and |Im s| = 20: the
# Lanczos product on Re s >= 1/2, |Im s| <= 20, exp(log Gamma) elsewhere:
# (s, Gamma(s))
GAMMA_SEAMS = (
    (complex(0.4999999, 3.0), complex(0.021445669284926358, 0.0068653607175909445)),
    (complex(0.5, 3.0), complex(0.021445670552430646, 0.0068653648372616779)),
    (complex(0.5000001, 3.0), complex(0.021445671819934448, 0.0068653689569329866)),
    (complex(0.49, -15.0), complex(1.2692122837418549e-10, -6.5284725678846909e-11)),
    (complex(0.51, -15.0), complex(1.3175360056261109e-10, -7.3092409859245705e-11)),
    (complex(2.5, 19.999), complex(1.1839063279944670e-11, -1.9574097657121016e-11)),
    (complex(2.5, 20.001), complex(1.1921191356893560e-11, -1.9445400086771004e-11)),
    (complex(0.5, 20.0), complex(-3.4307841591454818e-14, 4.5428803574633434e-14)),
    (complex(0.5, 20.0000001), complex(-3.4307849811168394e-14, 4.5428786161340280e-14)),
    (complex(-3.3, -19.99), complex(-3.4896880802724466e-19, -5.4214879145911901e-19)),
    (complex(-3.3, -20.01), complex(-3.6782216577492606e-19, -5.0216925663697766e-19)),
    (complex(150.5, 19.5), complex(-1.2265110667530994e+261, -4.7953256057897111e+260)),
    (complex(150.5, 20.5), complex(-7.2505839401070935e+260, 8.9705425794730945e+260)),
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
# on the critical line out to t ~ 1000, and right of it past t = 450:
# (s, zeta(s))
ZETA_LINE_HIGH = (
    (complex(0.5, 150.0), complex(-0.063505056548605231, -0.065192759925805233)),
    (complex(0.5, 300.0), complex(0.47745567187848255, 0.60790213327955307)),
    (complex(0.5, 450.0), complex(0.25140402346593027, -0.14832781269974273)),
    (complex(0.5, 700.0), complex(-0.16949586069461576, -0.93191512914221893)),
    (complex(0.5, 999.5), complex(0.82647382794348790, -0.65286139334042658)),
    (complex(0.8, 610.0), complex(1.0063556955498075, -0.15118991185316671)),
    (complex(1.5, -875.25), complex(1.0168699186502841, 0.095184955501565526)),
)
# Hardy's Z(t) = e^(i theta(t)) zeta(1/2 + it) out to t ~ 1000, past t ~ 945
# where the completed zeta on the line underflows: (t, Z(t))
HARDY_Z = (
    (0.0, -1.4603545088095868),
    (14.0, -0.10562626777988261),
    (100.0, 2.6926970566644635),
    (500.0, 1.4724478510550853),
    (960.0, 4.7251690631734925),
    (999.9, 0.51468058066850256),
)
# the Riemann-Siegel theta(t) either side of t = 10, where Hardy's Z switches
# from log Gamma to theta's Stirling series, and out to 10^4: (t, theta(t))
THETA = (
    (0.0, 0.0),
    (9.999, -3.0673065165815853),
    (10.0, -3.0670743962898953),
    (14.134725141734693, -1.7286702466758382),
    (100.0, 87.972165231787220),
    (1000.0, 2034.5464280380316),
    (7005.06, 21072.617428339665),
    (10000.0, 31861.923830835821),
)
# f(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s) either side of |Im s| = 20,
# where log sin(pi s/2) joins its log-space head: (s, f(s))
F_FACTOR_SEAMS = (
    (complex(0.3, 19.999), complex(-0.90499234869942257, -0.87747394738045969)),
    (complex(0.3, 20.001), complex(-0.90703994485730950, -0.87539350536770062)),
    (complex(0.5, -20.0), complex(-0.71943831940091311, 0.69455633650380710)),
    (complex(0.5, -20.0000001), complex(-0.71943839981323836, 0.69455625321075829)),
    (complex(2.5, 19.99), complex(-0.062805579327905954, -0.075862748155441889)),
    (complex(2.5, 20.01), complex(-0.064424020290323672, -0.074233697275267922)),
    (complex(-5.5, 19.99), complex(108.62629748578287, -1126.2866868046629)),
    (complex(-5.5, 20.01), complex(82.024046643305124, -1135.1695199367849)),
    (complex(-150.25, -19.9), complex(-2.6847965119665355e+154, 3.8225679413036126e+155)),
    (complex(-150.25, -20.1), complex(-3.3207172178353904e+155, 3.8836837286549557e+155)),
    (complex(142.5, 19.5), complex(4.2703031529592834e-144, -1.7321622014180956e-144)),
    (complex(142.5, 20.5), complex(-1.0266550149777955e-144, 4.0001338154948302e-145)),
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
# next to s = 0, out to |s| = 0.014, where zeta(1 - s) sits next to its
# pole: real, imaginary and oblique s, (s, zeta(s))
ZETA_NEAR_ORIGIN = (
    (complex(2e-06, 0.0), complex(-0.50000183788107913, 0.0)),
    (complex(-3e-05, 0.0), complex(-0.49997243274683724, 0.0)),
    (complex(1e-05, -2e-05), complex(-0.50000918908436757, 1.8379171933382828e-5)),
    (complex(0.0, 0.0005), complex(-0.49999974920550550, -0.00045946914150421832)),
    (complex(0.003, 0.0), complex(-0.50276587130609981, 0.0)),
    (complex(-0.004, 0.009), complex(-0.49625994695677054, -0.0081979300454951516)),
    (complex(-0.0123, 0.0), complex(-0.48884698715533831, 0.0)),
    (complex(0.0095, -0.01), complex(-0.50871810458366887, 0.0093816939294185294)),
)
# zeta and zeta' where the package sums them by Euler-Maclaurin: next to the
# eta-denominator zeros 1 + 2 pi i k / ln 2 (k = 1, 10, 50, 110, both signs
# of Im s) and in 0.06 <= Re s < 1/2, |Im s| <= 20, where the functional
# suite takes zeta(1 - s): (s, zeta(s), zeta'(s))
ZETA_EULER_MACLAURIN = (
    (complex(1.0, 9.064720283654388), complex(1.3465795428363171, 0.10988313679626950), complex(-0.19775762449846372, -0.10449194142334298)),
    (complex(1.006, 9.060720283654389), complex(1.3449782878830289, 0.11004580391866216), complex(-0.19678922011024107, -0.10431640503660882)),
    (complex(1.0, 90.64720283654388), complex(2.5528297138450704, 0.27316187397963006), complex(-2.2533467427239235, -0.41046268029206122)),
    (complex(0.995, -90.64420283654388), complex(2.5628855519489416, -0.28204120932277020), complex(-2.2712074792595734, 0.42659354570194104)),
    (complex(1.0, 453.2360141827194), complex(1.8736510419578093, -1.3020970291036770), complex(-0.64851949739352004, 2.8508000278171525)),
    (complex(1.004, 453.24101418271937), complex(1.8569525111754739, -1.2939133871171908), complex(-0.61387432525203734, 2.8188289461789014)),
    (complex(1.0, 997.1192312019826), complex(1.3485231590529126, -0.40656080106033328), complex(-0.17590470317142514, 0.85263482519642257)),
    (complex(0.996, -997.1212312019826), complex(1.3474968337258084, 0.41034278424183476), complex(-0.16992188194550361, -0.86545327596024103)),
    (complex(0.06, -19.63), complex(0.69257078683251996, 1.9364213000174996), complex(0.44726301859346070, -1.9626500821881707)),
    (complex(0.1, -3.0), complex(0.45748513482791189, 0.045723698181463162), complex(0.18344641129786955, 0.091047972462868556)),
    (complex(0.157, 7.5), complex(1.1393588547972454, 0.47569608281372785), complex(-0.024414229588507379, -0.26441866520894614)),
    (complex(0.25, 14.1347), complex(-0.21630087187451075, -0.039283414481580634), complex(0.95249676392982921, 0.19330136406668135)),
    (complex(0.3, 19.9), complex(0.39848015331389427, -1.3716543691791777), complex(0.76135122366110053, 1.3414767761002922)),
    (complex(0.4, -11.0), complex(1.4564509329519699, 0.51476329772470735), complex(-0.38345010231419017, -0.27632309726092341)),
    (complex(0.45, 0.2), complex(-1.0699080500612049, -0.56838351158240575), complex(-2.1598960704561510, -1.8770741468265361)),
    (complex(0.4999, 5.0), complex(0.70179970927132555, 0.23104928301221120), complex(0.12662100050756215, -0.11274765644868013)),
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
