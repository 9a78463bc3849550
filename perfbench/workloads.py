"""Seeded inputs, the timed operation and the correctness check of each
benchmark workload.

Every workload turns ``seed`` into a fixed list of inputs; the program only
ever sees those inputs.  Inputs are stratified over their ranges and then
shuffled, so the mix of cheap and expensive operations is nearly the same
for every seed and the per-run figures stay comparable across seeds.

The checks compare against references that do not use the package:
``data/zeros_450.txt`` (mpmath zero ordinates), the frozen ``verify --suite
all`` statuses in ``data/verify_all_statuses.json`` and, for ``zeta-points``,
mpmath values computed by ``mpmath_refs.py`` outside every timed region.
"""

from __future__ import annotations

import bisect
import cmath
import json
import math
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"

WORKLOADS = ("verify-all", "scan", "rectangle", "zeta-points")
# Inputs per seed.  A run cycles through them; the pools are small enough
# that every input is repeated about ten times or more in a run.
POOL = {"scan": 64, "rectangle": 64, "zeta-points": 512}

# Significant digits of an exact double-precision result: -log10(2^-53).
DOUBLE_DIGITS = 53 * math.log10(2.0)

SCAN_WIDTH = 30.0
SCAN_STEP = 0.25
RECT_HEIGHT = 6.0
RECT_X = (-0.5, 1.5)
# Scan window edges and rectangle edges keep this distance from every zero
# ordinate, so the expected count in a window is unambiguous.
EDGE_CLEARANCE = 0.05
# scan and rectangle stay below the t ~ 452 overflow of the reflected branch.
T_TABLE = 450.0
ORDINATE_TOLERANCE = 1e-6
ZETA_TOLERANCE = 1e-9

# Classifier thresholds mirror the documented evaluation regions of zeta_eval.
ORIGIN_RADIUS = 1e-6
ETA_DENOM_WINDOW = 1e-2
LINE_BANDS = ((100.0, "t_lo"), (450.0, "t_mid"), (math.inf, "t_hi"))
REGIONS = ("line", "right", "left", "eta_denom", "origin")

# Left-of-1/2 points past |t| ~ 452 overflow in the reflected branch at the
# time of writing.  They are not timed (a timed op must not fail); each run
# evaluates them once and reports how many fail.
PROBE_T = (460.0, 1000.0)
PROBE_POINTS = 16

# Fixed warm-up op per workload, run after import and before timing.  None of
# them is drawn by a seed: the scan and rectangle windows are narrower than
# the timed ones, and the verify warm-up is a single cheap suite.
WARM_UP = {
    "verify-all": "from zetasphere.verify import run_suite; run_suite('table1')",
    "scan": "import zetasphere; zetasphere.scan_zeros(14.0, 14.5, 0.25)",
    "rectangle": "import zetasphere as z; z.count_zeros_rectangle(z.Rectangle(-0.5, 1.5, 13.5, 14.5))",
    "zeta-points": "import zetasphere; zetasphere.zeta_eval(0.5 + 14.5j)",
}


def zero_table() -> list[float]:
    """Zero ordinates in (0, 450] from the frozen mpmath table."""
    lines = (DATA / "zeros_450.txt").read_text(encoding="ascii").splitlines()
    return [float(line) for line in lines if line and not line.startswith("#")]


def expected_statuses() -> list[list[str]]:
    """[name, status] of every ``run_suite("all")`` item, frozen when the
    benchmark was written."""
    return json.loads((DATA / "verify_all_statuses.json").read_text(encoding="utf-8"))


def _rng(workload: str, seed: int) -> random.Random:
    # str seeds hash through SHA-512, so streams are stable across processes
    return random.Random(f"{workload}/{seed}")


def _clear_of_zeros(t: float, ordinates: list[float]) -> bool:
    i = bisect.bisect_left(ordinates, t)
    near = ordinates[max(i - 1, 0) : i + 1]
    return all(abs(t - o) >= EDGE_CLEARANCE for o in near)


def _strata(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """One uniform draw in each of ``n`` equal strata of [lo, hi)."""
    return [lo + (hi - lo) * (j + rng.random()) / n for j in range(n)]


def _windows(rng, lo, hi, width, n):
    """``n`` windows [a, a + width], a stratified over [lo, hi - width], both
    edges clear of every zero ordinate; shuffled."""
    ordinates = zero_table()
    span = (hi - width - lo) / n
    out = []
    for j in range(n):
        while True:
            a = lo + span * (j + rng.random())
            if _clear_of_zeros(a, ordinates) and _clear_of_zeros(a + width, ordinates):
                break
        out.append((a, a + width))
    rng.shuffle(out)
    return out


def scan_inputs(seed: int) -> list[tuple[float, float]]:
    return _windows(_rng("scan", seed), 0.0, T_TABLE, SCAN_WIDTH, POOL["scan"])


def rectangle_inputs(seed: int) -> list[tuple[float, float]]:
    return _windows(_rng("rectangle", seed), 1.0, 449.0, RECT_HEIGHT, POOL["rectangle"])


def _signed(rng: random.Random, x: float) -> float:
    return x if rng.random() < 0.5 else -x


def zeta_points(seed: int) -> list[complex]:
    """512 points, each group stratified over its range: 320 on the critical
    line (|t| in [0, 1000]), 64 right of 1/2 (|t| <= 1000), 64 left of 1/2
    (|t| < 450), 32 near an eta-denominator zero 1 + 2 pi i k / ln 2
    (k in [1, 110], |t| <= 1000) and 32 with |s| < 1e-6; shuffled."""
    rng = _rng("zeta-points", seed)
    out = [complex(0.5, _signed(rng, t)) for t in _strata(rng, 0.0, 1000.0, 320)]
    out += [complex(4.0 - 3.5 * rng.random(), _signed(rng, t)) for t in _strata(rng, 0.0, 1000.0, 64)]
    out += [complex(0.5 - 3.5 * (1.0 - rng.random()), _signed(rng, t)) for t in _strata(rng, 0.0, 450.0, 64)]
    for k in _strata(rng, 1.0, 111.0, 32):
        pole = complex(1.0, _signed(rng, 2 * math.pi * int(k) / math.log(2.0)))
        out.append(pole + rng.uniform(1e-4, 1e-2) * cmath.exp(2j * math.pi * rng.random()))
    for e in _strata(rng, -12.0, -6.0, 32):
        out.append(10.0**e * 0.999 * cmath.exp(2j * math.pi * rng.random()))
    rng.shuffle(out)
    return out


def probe_points(seed: int) -> list[complex]:
    rng = _rng("zeta-points-probe", seed)
    lo, hi = PROBE_T
    return [
        complex(0.5 - 3.5 * (1.0 - rng.random()), _signed(rng, rng.uniform(lo, hi)))
        for _ in range(PROBE_POINTS)
    ]


def inputs(workload: str, seed: int) -> list:
    if workload == "verify-all":
        return ["all"]
    if workload == "scan":
        return scan_inputs(seed)
    if workload == "rectangle":
        return rectangle_inputs(seed)
    if workload == "zeta-points":
        return zeta_points(seed)
    raise ValueError(f"unknown workload {workload!r}")


def region(s: complex) -> str:
    """Input region of zeta_eval(s): origin, eta_denom, line, right or left."""
    if abs(s) < ORIGIN_RADIUS:
        return "origin"
    try:
        if abs(1.0 - cmath.exp((1.0 - s) * math.log(2.0))) < ETA_DENOM_WINDOW:
            return "eta_denom"
    except OverflowError:
        pass
    if s.real == 0.5:
        return "line"
    return "right" if s.real > 0.5 else "left"


def t_band(t: float) -> str:
    t = abs(t)
    for bound, name in LINE_BANDS:
        if t < bound:
            return name
    return LINE_BANDS[-1][1]


def _digits(err: float) -> float:
    """Correct significant digits for relative error ``err``, capped at
    double precision."""
    return DOUBLE_DIGITS if err <= 2.0**-53 else -math.log10(err)


class Checker:
    """Checks one workload's outputs; ``check`` returns None when the output
    is wrong, else the lowest correct-digit count over its values."""

    def __init__(self, workload: str, zeta_refs: dict | None = None):
        self.workload = workload
        if workload == "verify-all":
            self.statuses = expected_statuses()
        elif workload in ("scan", "rectangle"):
            self.ordinates = zero_table()
        elif workload == "zeta-points":
            self.refs = zeta_refs
        else:
            raise ValueError(f"unknown workload {workload!r}")

    def _between(self, lo: float, hi: float) -> list[float]:
        return self.ordinates[bisect.bisect_left(self.ordinates, lo) : bisect.bisect_right(self.ordinates, hi)]

    def check(self, x, out) -> float | None:
        if self.workload == "verify-all":
            got = [[item.name, item.status] for item in out.items]
            return DOUBLE_DIGITS if got == self.statuses else None
        if self.workload == "scan":
            want = self._between(*x)
            got = sorted(rec.ordinate for rec in out)
            if len(got) != len(want):
                return None
            if any(abs(g - w) > ORDINATE_TOLERANCE for g, w in zip(got, want)):
                return None
            return min((_digits(abs(g - w) / w) for g, w in zip(got, want)), default=DOUBLE_DIGITS)
        if self.workload == "rectangle":
            return DOUBLE_DIGITS if out == len(self._between(*x)) else None
        ref = self.refs[x]
        # Error relative to max(|zeta|, 1): near a zero no double-precision
        # evaluator is relatively accurate (one ulp in s moves zeta by
        # ~|zeta'| 1e-13), so small values are held to an absolute 1e-9.
        err = abs(out - ref) / max(abs(ref), 1.0)
        return _digits(err) if err <= ZETA_TOLERANCE else None
