#!/usr/bin/env python3
"""Scan a critical-line window, export the catalog, and push it through the
sphere machinery: covering collapse, accumulation distances, and the
sector-map Cauchy-Riemann residuals.

Usage:
    python scripts/zero_catalog_experiment.py [--to 60] [--out zeros.csv]
"""

import argparse

from zetasphere.sphere import SectorMap, accumulation_gaps, covering_b, cr_residual
from zetasphere.zeros import Rectangle, count_zeros_rectangle, records_to_csv, scan_zeros


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--to", type=float, default=60.0)
    parser.add_argument("--step", type=float, default=0.25)
    parser.add_argument("--out", default="zero_catalog.csv")
    args = parser.parse_args()

    records = scan_zeros(0.0, args.to, args.step)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(records_to_csv(records))
    print(f"{len(records)} zeros in [0, {args.to}] -> {args.out}")
    for rec in records:
        width = rec.bracket[1] - rec.bracket[0]
        print(f"  t = {rec.ordinate:.9f}   bracket width = {width:.2e}   criterion = {rec.criterion:.9f}")

    winding = count_zeros_rectangle(Rectangle(-0.5, 1.5, 1.0, args.to))
    print(f"argument-principle count over [-0.5,1.5]x[1,{args.to}]: {winding} "
          f"({'agrees' if winding == len(records) else 'DISAGREES'} with the scan)")

    ords = [rec.ordinate for rec in records]
    cover = [covering_b(complex(0.5, t), ords) for t in ords]
    phases = sorted({round(cp.phase, 9) for cp in cover})
    print(f"covering phases of the upper-half-plane zeros: {phases} (one value = collapse)")

    gaps = accumulation_gaps(ords)
    print("chordal distance to the north pole per zero (should shrink):")
    print("  " + ", ".join(f"{g:.4f}" for g in gaps))

    sm = SectorMap(ords)
    print("sector-map CR residuals |du/dx - dv/dy| (nonzero everywhere = not holomorphic):")
    for k in range(min(4, len(ords) - 1)):
        mid = complex(0.5, 0.5 * (ords[k] + ords[k + 1]))
        r1, r2 = cr_residual(sm, mid)
        print(f"  sector {k}: {r1:.6f} (tangential {r2:.1e})")


if __name__ == "__main__":
    main()
