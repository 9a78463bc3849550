"""Reference zeta values for the ``zeta-points`` workload.

Reads a JSON list of [re, im] points on stdin and writes the JSON list of
[re, im] values of mpmath.zeta at 25 significant digits, rounded to double,
on stdout.  ``run.py`` starts it in its own process before timing, so
neither mpmath's cost nor its memory shows in the measured figures.
"""

from __future__ import annotations

import json
import sys

import mpmath


def main() -> None:
    mpmath.mp.dps = 25
    points = json.load(sys.stdin)
    values = [complex(mpmath.zeta(mpmath.mpc(re, im))) for re, im in points]
    json.dump([[v.real, v.imag] for v in values], sys.stdout)


if __name__ == "__main__":
    main()
