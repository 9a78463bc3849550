"""Regenerate ``data/zeros_450.txt``: the ordinates of the nontrivial zeta
zeros with 0 < t <= 450, from ``mpmath.zetazero`` at 30 significant digits.

The benchmark checks ``scan`` ordinates and ``rectangle`` counts against this
frozen table; mpmath is needed only to regenerate it (about 40 s):

    python3 perfbench/make_zero_table.py
"""

from __future__ import annotations

from pathlib import Path

import mpmath

T_MAX = 450
TABLE = Path(__file__).resolve().parent / "data" / "zeros_450.txt"


def main() -> None:
    mpmath.mp.dps = 30
    count = int(mpmath.nzeros(T_MAX))
    if count != 235:
        raise SystemExit(f"mpmath.nzeros({T_MAX}) = {count}, expected 235")
    ordinates = [mpmath.zetazero(n).imag for n in range(1, count + 1)]
    if not ordinates[-1] <= T_MAX < mpmath.zetazero(count + 1).imag:
        raise SystemExit("zetazero ordinates disagree with nzeros")
    lines = [f"# zeta zero ordinates 0 < t <= {T_MAX} (mpmath.zetazero, dps 30), count {count}"]
    lines += [mpmath.nstr(t, 25) for t in ordinates]
    TABLE.write_text("\n".join(lines) + "\n", encoding="ascii")


if __name__ == "__main__":
    main()
