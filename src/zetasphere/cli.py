"""Command-line front end.

Subcommands: eval, zeros, verify, extend, plotdata.  Exit codes: 0 success,
1 verification failure, 2 usage or domain error.  Output is deterministic
for identical inputs (reports honor SOURCE_DATE_EPOCH).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

from . import mero, modulus, zeros
from .errors import ZetasphereError
from .specfun import digamma, gamma
from .verify import PAPER_ANCHOR, PAPER_ORDINATE, SUITES, first_zero, run_suite
from .zeta import completed_zeta, eta_eval, f_factor, zeta_eval

_EVAL_FUNCTIONS = {
    "zeta": zeta_eval,
    "eta": eta_eval,
    "completed": completed_zeta,
    "f": f_factor,
    "f_abs": lambda s: complex(modulus.f_abs_closed(s).product),
    "gamma": gamma,
    "digamma": digamma,
}

# plotdata rows per request; a grid past this is a typo in a step, and its
# rows would fill memory before the first is printed
MAX_ROWS = 10**6


def parse_complex(text: str) -> complex:
    """Accept '2', '-1.5', '0.5+14.13i', '1-2i', 'i', '3i' (i or j)."""
    cleaned = text.strip().replace(" ", "").replace("j", "i")
    cleaned = re.sub(r"(?<![\d.])i", "1i", cleaned)  # bare i -> 1i
    try:
        return complex(cleaned.replace("i", "j"))
    except ValueError as exc:
        raise ZetasphereError(f"cannot parse complex literal {text!r}") from exc


def _format_complex(z: complex) -> str:
    return f"{z.real:.15g}{z.imag:+.15g}i"


def _range_triple(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ZetasphereError(f"range must be start:stop:step, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise ZetasphereError(f"bad range {text!r}: each part must be a number") from None
    if not all(map(math.isfinite, (lo, hi, step))) or step <= 0 or hi < lo:
        raise ZetasphereError(f"bad range {text!r}")
    if not math.isfinite((hi - lo) / step):  # finite parts, a count past float range
        raise ZetasphereError(f"bad range {text!r}: too many points")
    return lo, hi, step


def _grid_values(*ranges: str) -> list[list[float]]:
    """The values of each start:stop:step range, refused before any is built
    when their grid would pass MAX_ROWS rows."""
    triples = [_range_triple(text) for text in ranges]
    counts = [int(round((hi - lo) / step)) + 1 for lo, hi, step in triples]
    if math.prod(counts) > MAX_ROWS:
        raise ZetasphereError(f"bad range {' x '.join(map(repr, ranges))}: too many points (over {MAX_ROWS} rows)")
    return [
        [lo + i * step for i in range(count) if lo + i * step <= hi + 1e-9 * step]
        for (lo, hi, step), count in zip(triples, counts)
    ]


def _cmd_eval(args) -> int:
    s = parse_complex(args.value)
    value = _EVAL_FUNCTIONS[args.function](s)
    if args.json:
        print(json.dumps({"function": args.function, "s": {"re": s.real, "im": s.imag},
                          "value": {"re": value.real, "im": value.imag}}, sort_keys=True))
    else:
        print(_format_complex(value))
        if args.function == "completed" and abs(s - 0.5) < 1e-9:
            print(
                f"note: discrepancy-flag: the source text prints {PAPER_ANCHOR} here, "
                "which follows from its misprinted pi^(-1/4); the defining "
                "product evaluates to the value above"
            )
    return 0


def _cmd_zeros(args) -> int:
    records = zeros.scan_zeros(args.t_from, args.t_to, args.step)
    if args.out and args.out.endswith(".json"):
        payload = zeros.records_to_json(records)
    else:
        payload = zeros.records_to_csv(records)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
        print(f"{len(records)} zeros -> {args.out}")
    else:
        sys.stdout.write(payload)
    return 0


def _cmd_verify(args) -> int:
    report = run_suite(args.suite)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        summary = report.to_text().splitlines()[-1]
        print(f"{summary} -> {args.json}")
    else:
        sys.stdout.write(report.to_text())
    return 0 if not report.failed else 1


def _cmd_extend(args) -> int:
    computed_anchor = completed_zeta(0.5 + 0j).real
    if args.paper_anchor:
        ordinate = args.ordinate if args.ordinate is not None else PAPER_ORDINATE
        anchor = PAPER_ANCHOR
        anchor_source = "printed inputs"
    else:
        ordinate = args.ordinate if args.ordinate is not None else first_zero().ordinate
        anchor = computed_anchor
        anchor_source = "computed completed zeta at 1/2"
    rmap, bd = mero.build_zeta_hat(ordinate, anchor)
    params = mero.zeta_hat_params(rmap, bd)
    params["anchor"] = anchor
    params["anchor_source"] = anchor_source
    params["ordinate"] = ordinate
    params["riemann_hurwitz_ok"] = mero.riemann_hurwitz_check(bd, 2, 2)
    c_paper = mero.build_zeta_hat(PAPER_ORDINATE, PAPER_ANCHOR)[0].constant.real
    c_computed = mero.build_zeta_hat(ordinate, computed_anchor)[0].constant.real
    params["variants"] = {
        "paper_inputs_c": c_paper,
        "computed_anchor_c": c_computed,
        "flags": [
            "discrepancy-flag: source prints c ~ 6.8046; its own inputs give "
            f"{c_paper:.6e} (1e-5 factor missing)",
            f"discrepancy-flag: source prints completed zeta(1/2) ~ {PAPER_ANCHOR}; "
            f"the defining product gives {computed_anchor:.6f}",
        ],
    }
    if args.json:
        print(json.dumps(params, indent=2, sort_keys=True))
    else:
        print(f"constant c = {rmap.constant.real:.10e} (anchor {anchor:.10g}, {anchor_source})")
        print(f"zeros: 1/2 +- {ordinate:.9f} i (simple); poles: 0, 1 (simple)")
        print(f"divisor: {mero.principal_divisor(rmap)}")
        print(f"degree {bd.degree}, ramification {[(str(p), e) for p, e in bd.ramification]}, b = {bd.total_b}")
        print(f"riemann-hurwitz 2 = 2*deg - b: {'pass' if params['riemann_hurwitz_ok'] else 'fail'}")
        print(f"variant c (paper inputs {PAPER_ORDINATE}, {PAPER_ANCHOR}): {c_paper:.6e}")
        print(f"variant c (computed anchor): {c_computed:.6e}")
        for line in params["variants"]["flags"]:
            print("note:", line)
    return 0


def _cmd_plotdata(args) -> int:
    lines = [zeros.CSV_HEADER]
    if args.what == "zline":
        (ts,) = _grid_values(args.range or "0:50:0.05")
        lines.append("# columns: t,Z  (Hardy's Z(t) = e^(i theta(t)) zeta(1/2 + it), real on the critical line)")
        for t in ts:
            lines.append(f"{t:.6f},{zeros.hardy_z(t):.12e}")
    else:
        xs, ys = _grid_values(args.range or "0.05:0.95:0.09", args.yrange or "-10:10:0.5")
        if args.what == "fabs":
            lines.append("# columns: x,y,abs_f  (closed-form |f| on the open strip)")
            fn = lambda s: modulus.f_abs_closed(s).product
        else:
            lines.append("# columns: x,y,abs_zeta")
            fn = lambda s: abs(zeta_eval(s))
        for x in xs:
            for y in ys:
                lines.append(f"{x:.6f},{y:.6f},{fn(complex(x, y)):.12e}")
    payload = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zetasphere",
        description="Numerical verification toolkit for the zeta/Gamma identity "
        "battery, critical-line zeros, sphere coverings, and strip flows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate one function at a complex point")
    p.add_argument("function", choices=sorted(_EVAL_FUNCTIONS))
    p.add_argument("value", help="complex literal, e.g. 2+0i or 0.5+14.13i")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("zeros", help="scan a critical-line window for zeros")
    p.add_argument("--from", dest="t_from", type=float, required=True)
    p.add_argument("--to", dest="t_to", type=float, required=True)
    p.add_argument("--step", type=float, default=0.25)
    p.add_argument("--out", help="output path (.csv or .json); stdout CSV otherwise")
    p.set_defaults(handler=_cmd_zeros)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", required=True, choices=[*SUITES, "all"])
    p.add_argument("--json", help="write the JSON report to this path")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("extend", help="build the rational extension of the completed zeta")
    p.add_argument("--ordinate", type=float, default=None, help="zero-pair ordinate t0 > 0")
    p.add_argument("--paper-anchor", action="store_true",
                   help=f"use the printed inputs (t0={PAPER_ORDINATE}, anchor={PAPER_ANCHOR})")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_extend)

    p = sub.add_parser("plotdata", help="emit CSV data for the surface/line figures")
    p.add_argument("--what", required=True, choices=["zline", "fabs", "strip-surface"])
    p.add_argument("--range", help="start:stop:step (t for zline, x otherwise)")
    p.add_argument("--yrange", help="start:stop:step for y (2d grids)")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_plotdata)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ZetasphereError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # exit 1 means "verification failed", never a crash
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
