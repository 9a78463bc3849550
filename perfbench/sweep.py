"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --workloads scan rectangle --seeds 1-10 [--json out.json] [--crosscheck]

For every workload and end-to-end metric it prints the median over seeds,
the interquartile range as a share of the median (the run-to-run spread)
and the metric's bound from BENCHMARK.json.  ``--json`` also records every
run's figures and the machine they ran on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def machine() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    proc = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"], capture_output=True, text=True
    )
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": proc.stdout.strip(),
        "thread_pinning": "OMP/OPENBLAS/MKL/NUMEXPR_NUM_THREADS=1, set by run.py; no CPU affinity is set",
    }


def crosscheck() -> dict:
    """The seed figures the ROADMAP baseline quotes, recomputed here."""
    sys.path.insert(0, str(HERE))
    import run
    import spans

    modules = run.import_package()
    zeros = modules["zeros"]
    tracer = spans.Tracer()
    tracer.install(modules)
    try:
        records = run.make_op("scan", modules, tracer)((0.0, 450.0))
    finally:
        tracer.uninstall()
    statuses = [item.status for item in modules["verify"].run_suite("all").items]
    return {
        "scan_zeros(0, 450, 0.25)": len(records),
        "kernel_evals_per_zero (0..450)": spans.layer_metrics(tracer, 1.0)["zeros.kernel_evals_per_zero"],
        "count_zeros_rectangle(-0.5, 1.5, 1, 100)": zeros.count_zeros_rectangle(zeros.Rectangle(-0.5, 1.5, 1.0, 100.0)),
        "run_suite('all') pass/fail/discrepancy-flag": [
            statuses.count(s) for s in ("pass", "fail", "discrepancy-flag")
        ],
    }


def seeds(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in spec.split(",")]


def spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--json", type=Path)
    parser.add_argument("--crosscheck", action="store_true", help="also recompute the ROADMAP baseline figures")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    record = {"machine": machine(), "seconds": args.seconds, "trace": args.trace, "runs": {}}
    if args.crosscheck:
        record["crosscheck"] = crosscheck()
        print(json.dumps(record["crosscheck"], indent=1))
    for workload in args.workloads:
        runs = []
        for seed in seeds(args.seeds):
            cmd = [*bench["command"], "--workload", workload, "--seed", str(seed)]
            cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            runs.append(result)
            print(workload, seed, result["correct"], result["attempted"], result["failed"], flush=True)
        record["runs"][workload] = runs
        print(f"{workload}: {len(runs)} runs, all correct: {all(r['correct'] for r in runs)}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            sp = spread(values) if len(values) >= 2 and med else 0.0
            bound = bounds.get(name)
            flag = "" if bound is None else ("  ok" if sp < bound / 3 else "  WIDE")
            print(f"  {name:<42} median {med:<14.6g} spread {sp:7.2%}  bound {bound}{flag}")
    if args.json:
        args.json.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
