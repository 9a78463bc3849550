"""zetasphere benchmark: one seeded workload, one process, one thread, a
closed loop with one client.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` times the same
inputs untraced for half the time and traced for the other half, and prints
the per-layer metrics (see spans.py).  Every op's output is checked against
an independent reference.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The package is imported from
``src/`` of the checkout this file sits in, and from nowhere else.
"""

from __future__ import annotations

import os

# Pin numpy's thread pools before anything imports numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import resource
import statistics
import subprocess
import sys
import threading
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

import numpy as np

import spans
import speed
import workloads as wl

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_RUNS = 9
SETUP_SAMPLES = 10  # speed samples before and after each set-up
MODULES = ("specfun", "zeta", "modulus", "zeros", "verify")


def import_package() -> dict:
    """Import zetasphere from this checkout's src/; exit if it is not there."""
    if not (SRC / "zetasphere" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no zetasphere sources under {SRC}")
    sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(f"zetasphere.{name}") for name in MODULES}
    if Path(modules["zeta"].__file__).resolve().parent != SRC / "zetasphere":
        raise SystemExit(f"run.py: zetasphere imported from {modules['zeta'].__file__}, not {SRC}")
    return modules


def make_op(workload: str, modules: dict, tracer: spans.Tracer | None = None):
    mod, attr = spans.ROOTS[workload]
    fn = getattr(modules[mod], attr)
    if tracer is not None:
        fn = tracer.wrap(f"{mod}.{attr}", fn)
    if workload == "scan":
        return lambda w: fn(w[0], w[1], wl.SCAN_STEP)
    if workload == "rectangle":
        rectangle = modules["zeros"].Rectangle
        return lambda w: fn(rectangle(wl.RECT_X[0], wl.RECT_X[1], w[0], w[1]))
    return fn


def zeta_refs(points: list[complex]) -> dict[complex, complex]:
    """mpmath values of zeta at ``points``, computed in a child process and
    cached under .cache/ by the hash of the points."""
    payload = json.dumps([[p.real, p.imag] for p in points]).encode("ascii")
    cache = HERE / ".cache" / f"zeta-refs-{hashlib.sha256(payload).hexdigest()[:24]}.json"
    if cache.is_file():
        values = json.loads(cache.read_text(encoding="ascii"))
    else:
        proc = subprocess.run(
            [sys.executable, str(HERE / "mpmath_refs.py")],
            input=payload,
            capture_output=True,
            check=True,
            timeout=170,
        )
        values = json.loads(proc.stdout)
        cache.parent.mkdir(exist_ok=True)
        tmp = cache.with_suffix(".tmp")
        tmp.write_text(json.dumps(values), encoding="ascii")
        tmp.replace(cache)
    return {p: complex(re, im) for p, (re, im) in zip(points, values)}


def measure_setup(workload: str) -> tuple[list[float], list[float]]:
    """Wall time of fresh processes that import zetasphere and run the
    workload's warm-up op, at reference speed.  Samples taken while imports
    fill the caches read slow, so the child takes its speed samples
    (speed.py) just before and just after the warm-up op instead; its wall
    time, less those samples, is divided by the slowdown their median shows.
    Returns those times and the plain wall times."""
    code = (
        f"import sys; sys.path[:0] = [{str(HERE)!r}, {str(SRC)!r}]\n"
        f"import speed\nbefore = speed.samples({SETUP_SAMPLES})\n"
        f"exec({wl.WARM_UP[workload]!r}, {{}})\n"
        f"after = speed.samples({SETUP_SAMPLES})\n"
        "print(sum(before + after), speed.median_slowdown(before + after))\n"
    )
    times, walls = [], []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True)
        # a blocking wait: Popen.wait(timeout) polls in steps of up to 50 ms
        guard = threading.Timer(120.0, proc.kill)
        guard.start()
        try:
            out, _ = proc.communicate()
        finally:
            guard.cancel()
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise SystemExit(f"run.py: set-up process exited with {proc.returncode}")
        probe_ns, slow = out.split()
        times.append((wall - int(probe_ns) / 1e9) / float(slow))
        walls.append(wall)
    return times, walls


@dataclass
class Phase:
    """Every attempted op of one timed loop over an input pool of ``pool``
    inputs; op ``i`` ran input ``i % pool``.  ``probe_at``/``probe_ns`` are
    the speed samples taken during the loop (empty when none were)."""

    start_ns: array  # perf_counter_ns when each attempted op started
    end_ns: array  # ... and when it returned
    failures: list  # (op index, input, reason)
    digits: float
    pool: int
    probe_at: array = field(default_factory=lambda: array("q"))
    probe_ns: array = field(default_factory=lambda: array("q"))

    @property
    def attempted(self) -> int:
        return len(self.start_ns)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def passed(self) -> int:
        return self.attempted - self.failed

    def op_ns(self) -> np.ndarray:
        """Latency of every attempted op, less the speed samples taken
        inside it."""
        return speed.net_ns(self.start_ns, self.end_ns, self.probe_at, self.probe_ns)

    def slowdown(self) -> np.ndarray:
        """Per op, how much slower than reference speed the machine ran
        while it ran (see speed.py); ones when the loop took no samples."""
        return speed.slowdown(self.start_ns, self.end_ns, self.probe_at, self.probe_ns)

    def per_input_ns(self, adjusted: bool = True) -> np.ndarray:
        """Per input, the median latency of its passed repeats, each repeat
        first divided by the slowdown it ran under when ``adjusted``.
        Inputs that never passed are left out, unless no op passed at all,
        when failed ops count."""
        lat = self.op_ns() / self.slowdown() if adjusted else self.op_ns()
        ok = np.ones(len(lat), dtype=bool)
        if self.passed:
            ok[[i for i, _, _ in self.failures]] = False
        keep = np.flatnonzero(ok)
        which = keep % self.pool
        order = np.argsort(which, kind="stable")
        repeats = np.split(lat[keep][order], np.flatnonzero(np.diff(which[order])) + 1)
        return np.array([np.median(r) for r in repeats if len(r)])

    def ops_per_s(self, adjusted: bool = True) -> float:
        """Inputs per second when each input takes its per-input latency."""
        per = self.per_input_ns(adjusted)
        return len(per) / (per.sum() / 1e9) if len(per) else 0.0


def timed_loop(op, items, checker, seconds, tracer=None) -> Phase:
    """Run ops back to back over ``items`` (cycling) until ``seconds`` of
    wall time have passed.  Only the op is timed; the check runs after.
    Untraced loops sample the machine's speed throughout (speed.py)."""
    start_ns, end_ns = array("q"), array("q")
    digits = wl.DOUBLE_DIGITS
    failures = []
    probe = speed.SpeedProbe() if tracer is None else None
    gc.collect()
    now = time.perf_counter()
    deadline = now + seconds
    i = 0
    with probe or contextlib.nullcontext():
        while now < deadline:
            x = items[i % len(items)]
            if tracer is not None:
                tracer.op_id = i
            t0 = perf_counter_ns()
            try:
                out = op(x)
            except Exception as exc:  # a raising op is a failed op, not a crash
                end_ns.append(perf_counter_ns())
                failures.append((i, x, repr(exc)))
            else:
                end_ns.append(perf_counter_ns())
                d = checker.check(x, out)
                if d is None:
                    failures.append((i, x, "wrong output"))
                else:
                    digits = min(digits, d)
            start_ns.append(t0)
            i += 1
            now = time.perf_counter()
    if probe is None:
        return Phase(start_ns, end_ns, failures, digits, len(items))
    return Phase(start_ns, end_ns, failures, digits, len(items), probe.at, probe.ns)


def peak_rss_mb() -> float:
    """Peak resident set of this process image, in MiB.  VmHWM is used
    because ru_maxrss also carries the peak of the process that forked this
    one, from before exec."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(latencies_ns) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum when there are ten samples or fewer."""
    xs = np.sort(np.asarray(latencies_ns, dtype=np.float64))
    n = len(xs)
    if n <= 10:
        return float(xs[-1]), 100.0
    return float(xs[n - 11]), 100.0 * (n - 10) / n


def probe(op, points, refs) -> tuple[int, list[str]]:
    """Evaluate each left-of-1/2 domain probe point once, untimed."""
    failed = []
    for s in points:
        try:
            ok = abs(op(s) - refs[s]) <= wl.ZETA_TOLERANCE * max(abs(refs[s]), 1.0)
        except Exception as exc:  # the probe reports failures, it does not stop on them
            failed.append(f"{s}: {type(exc).__name__}")
            continue
        if not ok:
            failed.append(f"{s}: wrong value")
    return len(points), failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    modules = import_package()
    workload = args.workload
    items = wl.inputs(workload, args.seed)
    probe_points = wl.probe_points(args.seed) if workload == "zeta-points" else []
    refs = zeta_refs(items + probe_points) if workload == "zeta-points" else None
    checker = wl.Checker(workload, refs)
    exec(wl.WARM_UP[workload], {})

    lines = [f"zetasphere benchmark  workload={workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}"]
    if args.trace == 0:
        setup, setup_raw = measure_setup(workload)
        phases = [timed_loop(make_op(workload, modules), items, checker, args.seconds)]
        rss_mb = peak_rss_mb()
        main_phase = phases[0]
        per_input = main_phase.per_input_ns()
        tail_ns, tail_pct = tail(per_input)
        slow = main_phase.slowdown()
        repeats = f"{len(per_input)} inputs, {main_phase.passed} passed ops"
        table = [
            ("setup_s", statistics.median(setup), "s", f"median of {SETUP_RUNS} fresh processes: import + warm-up op, at reference speed"),
            ("ops_per_s", main_phase.ops_per_s(), "1/s", f"at reference speed, median repeat of each input; {repeats}"),
            ("op_p50_ms", float(np.median(per_input)) / 1e6, "ms", f"over inputs, at reference speed; {repeats}"),
            ("op_tail_ms", tail_ns / 1e6, "ms", f"p{tail_pct:.2f} over {len(per_input)} inputs, at reference speed"),
            ("fail_ratio", main_phase.failed / main_phase.attempted, "1", f"{main_phase.failed} of {main_phase.attempted} ops"),
            ("peak_rss_mb", rss_mb, "MB", "VmHWM of this process, MiB"),
            ("digits", main_phase.digits, "digits", "lowest correct significant digits over passed ops"),
        ]
        metrics = {name: {"value": value, "unit": unit} for name, value, unit, _ in table if name != "fail_ratio"}
        lines.append(
            f"  speed: median slowdown {np.median(slow):.3f}x over {len(main_phase.probe_ns)} samples; "
            f"unadjusted ops_per_s {main_phase.ops_per_s(adjusted=False):.6g}, set-up {statistics.median(setup_raw):.4g} s"
        )
    else:
        half = args.seconds / 2
        untraced = timed_loop(make_op(workload, modules), items, checker, half)
        tracer = spans.Tracer()
        tracer.install(modules)
        try:
            traced = timed_loop(make_op(workload, modules, tracer), items, checker, half, tracer)
        finally:
            tracer.uninstall()
        phases = [untraced, traced]
        overhead = untraced.ops_per_s(adjusted=False) / traced.ops_per_s(adjusted=False) if traced.passed else 0.0
        layer = spans.layer_metrics(tracer, overhead)
        out = HERE / "out" / f"spans-{workload}-seed{args.seed}.csv.gz"
        tracer.write(out)
        lines.append(f"  {len(tracer.start)} spans over {traced.attempted} traced ops written to {out.relative_to(HERE.parent)}")
        table = [(name, value, spans.unit(name), "") for name, value in layer.items()]
        metrics = {name: {"value": value, "unit": u} for name, value, u, _ in table}

    for name, value, unit, note in table:
        lines.append(f"  {name:<42} {value:>14.6g} {unit:<7} {note}")
    if probe_points:
        n, bad = probe(make_op(workload, modules), probe_points, refs)
        lines.append(
            f"  domain probe: {len(bad)} of {n} left-of-1/2 points with {wl.PROBE_T[0]:g} <= |t| <= {wl.PROBE_T[1]:g} fail"
            + (f" (first: {bad[0]})" if bad else "")
        )
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    for phase in phases:
        for _, x, why in phase.failures[:5]:
            print(f"run.py: failed op on input {x!r}: {why}", file=sys.stderr)
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
