"""Self-tests of the benchmark harness (not of zetasphere).

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
import signal
import sys
import time
from array import array
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads as wl  # noqa: E402

SEEDED = ("scan", "rectangle", "zeta-points")


def _bytes(workload, seed):
    return json.dumps([repr(x) for x in wl.inputs(workload, seed)]).encode()


@pytest.mark.parametrize("workload", SEEDED)
def test_same_seed_same_bytes_other_seed_other_inputs(workload):
    assert _bytes(workload, 7) == _bytes(workload, 7)
    assert _bytes(workload, 7) != _bytes(workload, 8)


def test_probe_points_follow_the_seed():
    assert wl.probe_points(3) == wl.probe_points(3) != wl.probe_points(4)


def test_verify_all_has_one_fixed_input():
    assert wl.inputs("verify-all", 1) == wl.inputs("verify-all", 2) == ["all"]


@pytest.mark.parametrize("workload", SEEDED)
def test_pool_size(workload):
    assert len(wl.inputs(workload, 1)) == wl.POOL[workload]


@pytest.mark.parametrize("workload", ("scan", "rectangle"))
def test_window_edges_clear_of_zeros_and_inside_table(workload):
    ordinates = wl.zero_table()
    for a, b in wl.inputs(workload, 5):
        assert 0.0 <= a < b <= wl.T_TABLE
        assert min(abs(a - o) for o in ordinates) >= wl.EDGE_CLEARANCE
        assert min(abs(b - o) for o in ordinates) >= wl.EDGE_CLEARANCE


def test_zero_table_is_the_mpmath_count():
    ordinates = wl.zero_table()
    assert len(ordinates) == 235
    assert ordinates == sorted(ordinates)
    assert abs(ordinates[0] - 14.134725141734693) < 1e-12


def test_zeta_points_region_mix():
    points = wl.zeta_points(11)
    got = {}
    for s in points:
        got[wl.region(s)] = got.get(wl.region(s), 0) + 1
    assert got == {"line": 320, "right": 64, "left": 64, "eta_denom": 32, "origin": 32}
    assert max(abs(s.imag) for s in points) <= 1000.0
    assert max(abs(s.imag) for s in points if wl.region(s) == "left") < 450.0


# -- tail rule ---------------------------------------------------------------


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert run.tail(list(range(100, 0, -1))) == (90.0, 90.0)
    value, pct = run.tail(list(range(1, 12)))
    assert value == 1.0 and pct == pytest.approx(100 / 11)


def test_tail_with_ten_or_fewer_samples_is_the_maximum():
    assert run.tail([5, 3, 9, 1]) == (9.0, 100.0)
    assert run.tail(list(range(10))) == (9.0, 100.0)


def _back_to_back(latencies):
    """start_ns and end_ns of ops run back to back from t = 0."""
    end = list(itertools.accumulate(latencies))
    return array("q", [e - x for e, x in zip(end, latencies)]), array("q", end)


def test_each_input_counts_with_its_median_passed_repeat():
    ms = 1_000_000
    # pool of 3 inputs run 7 times: input 0 at ops 0, 3, 6; input 1 at 1, 4;
    # input 2 at 2, 5, and its fast repeat (op 5) failed its check
    start, end = _back_to_back([5 * ms, 2 * ms, 9 * ms, 4 * ms, 3 * ms, 1 * ms, 6 * ms])
    phase = run.Phase(start, end, [(5, None, "wrong output")], 15.0, 3)
    assert sorted(phase.per_input_ns()) == [2.5 * ms, 5 * ms, 9 * ms]
    assert phase.ops_per_s() == pytest.approx(3 / 0.0165)
    # an input that never passed is left out, unless none passed
    phase = run.Phase(*_back_to_back([ms, 2 * ms]), [(1, None, "x")], 15.0, 4)
    assert list(phase.per_input_ns()) == [ms]
    phase = run.Phase(*_back_to_back([3 * ms]), [(0, None, "x")], 15.0, 4)
    assert list(phase.per_input_ns()) == [3 * ms]


def test_speed_samples_are_taken_out_of_an_op_and_its_slowdown_divided_out():
    ms = 1_000_000
    ref = speed.PROBE_REF_NS
    # op 0 runs 0-10 ms with two samples inside it, both at half speed;
    # op 1 runs 200-206 ms with one sample 20 ms after it at reference speed;
    # op 2 runs 400-404 ms with no sample within PROBE_SPAN_NS / 2
    start, end = array("q", [0, 200 * ms, 400 * ms]), array("q", [10 * ms, 206 * ms, 404 * ms])
    at, ns = array("q", [2 * ms, 6 * ms, 226 * ms]), array("q", [2 * ref, 2 * ref, ref])
    phase = run.Phase(start, end, [], 15.0, 3, at, ns)
    assert list(phase.op_ns()) == [10 * ms - 4 * ref, 6 * ms, 4 * ms]
    assert list(phase.slowdown()) == [2.0, 1.0, 2.0]  # op 2 takes the median sample
    assert list(phase.per_input_ns()) == [(10 * ms - 4 * ref) / 2, 6 * ms, 2 * ms]
    assert list(phase.per_input_ns(adjusted=False)) == list(phase.op_ns())
    # no samples: nothing to take out or divide by
    phase = run.Phase(start, end, [], 15.0, 3)
    assert list(phase.per_input_ns()) == [10 * ms, 6 * ms, 4 * ms]


def test_speed_probe_samples_inside_a_running_loop_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        deadline = time.perf_counter() + 0.1
        while time.perf_counter() < deadline:
            sum(range(100))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert 5 <= len(probe.ns) == len(probe.at) <= 25
    assert list(probe.at) == sorted(probe.at)


# -- region classifier -------------------------------------------------------


ETA_ZERO = complex(1.0, 2 * math.pi / math.log(2.0))


@pytest.mark.parametrize(
    "s, want",
    [
        (complex(0.5, 10.0), "line"),
        (complex(0.5, -999.0), "line"),
        (complex(0.5 + 1e-15, 10.0), "right"),
        (complex(0.5 - 1e-15, 10.0), "left"),
        (complex(0.999e-6, 0.0), "origin"),
        (complex(0.0, -0.999e-6), "origin"),
        (0j, "origin"),
        (complex(1e-6, 0.0), "left"),
        (complex(0.5, 0.0), "line"),
        (ETA_ZERO + 0.0144, "eta_denom"),
        (ETA_ZERO - 0.0146, "right"),
        (ETA_ZERO + 0.0146, "right"),
        (complex(1.0 + 1e-4, 0.0), "eta_denom"),
        (complex(2.0, 0.0), "right"),
        (complex(-3.0, 449.0), "left"),
    ],
)
def test_region_boundaries(s, want):
    assert wl.region(s) == want


def test_eta_window_edge_sits_where_the_denominator_reaches_one_percent():
    inside = ETA_ZERO + 0.01 / math.log(2.0) * 0.999
    outside = ETA_ZERO + 0.01 / math.log(2.0) * 1.02
    assert abs(1 - 2 ** (1 - inside)) < wl.ETA_DENOM_WINDOW <= abs(1 - 2 ** (1 - outside))
    assert wl.region(inside) == "eta_denom"
    assert wl.region(outside) == "right"


@pytest.mark.parametrize(
    "t, band",
    [(0.0, "t_lo"), (99.999, "t_lo"), (100.0, "t_mid"), (-100.0, "t_mid"), (449.99, "t_mid"), (450.0, "t_hi"), (1000.0, "t_hi")],
)
def test_t_bands(t, band):
    assert wl.t_band(t) == band


def test_zeta_eval_span_suffix():
    assert spans.zeta_eval_suffix(complex(0.5, 450.0)) == ".line.t_hi"
    assert spans.zeta_eval_suffix(complex(0.7, 450.0)) == ".right"


# -- checkers ----------------------------------------------------------------


def _records(ordinates):
    return [SimpleNamespace(ordinate=t) for t in ordinates]


def test_scan_checker_counts_a_shifted_or_missing_ordinate_as_failed():
    checker = wl.Checker("scan")
    window = (10.0, 40.0)
    want = [t for t in wl.zero_table() if 10.0 < t < 40.0]
    assert checker.check(window, _records(want)) > 9.0
    assert checker.check(window, _records([want[0] + 1e-5] + want[1:])) is None
    assert checker.check(window, _records(want[1:])) is None
    assert checker.check(window, _records(want + [41.0])) is None


def test_rectangle_checker_counts_a_wrong_count_as_failed():
    checker = wl.Checker("rectangle")
    rect = (20.0, 30.0)  # holds 21.022 and 25.011
    assert checker.check(rect, 2) == wl.DOUBLE_DIGITS
    assert checker.check(rect, 3) is None
    assert checker.check(rect, 1) is None


def test_verify_checker_counts_a_changed_status_as_failed():
    checker = wl.Checker("verify-all")
    statuses = wl.expected_statuses()
    assert len(statuses) == 151
    counts = {s: sum(1 for _, st in statuses if st == s) for s in ("pass", "fail", "discrepancy-flag")}
    assert counts == {"pass": 91, "fail": 0, "discrepancy-flag": 60}

    def report(rows):
        return SimpleNamespace(items=[SimpleNamespace(name=n, status=s) for n, s in rows])

    assert checker.check("all", report(statuses)) == wl.DOUBLE_DIGITS
    changed = [list(row) for row in statuses]
    changed[0][1] = "fail"
    assert checker.check("all", report(changed)) is None
    assert checker.check("all", report(statuses[:-1])) is None


def test_zeta_checker_tolerance():
    s = complex(0.5, 14.0)
    checker = wl.Checker("zeta-points", {s: 2.0 + 0j, 1e-7 + 0j: 1e-6 + 0j})
    assert checker.check(s, 2.0 * (1 + 1e-12)) == pytest.approx(12.0, abs=1e-3)
    assert checker.check(s, 2.0 * (1 + 2e-9)) is None
    # below |zeta| = 1 the error is held to an absolute 1e-9
    assert checker.check(1e-7 + 0j, 1e-6 + 5e-10) is not None
    assert checker.check(1e-7 + 0j, 1e-6 + 2e-9) is None


# -- tracer ------------------------------------------------------------------


def test_tracer_restores_the_modules_and_counts_kernel_evals():
    modules = run.import_package()
    before = {(m, a): getattr(modules[m], a) for m, a, _ in spans.WRAPPED}
    suites_before = dict(modules["verify"].SUITES)
    tracer = spans.Tracer()
    tracer.install(modules)
    try:
        op = run.make_op("scan", modules, tracer)
        tracer.op_id = 0
        records = op((13.0, 22.0))
    finally:
        tracer.uninstall()
    assert {(m, a): getattr(modules[m], a) for m, a, _ in spans.WRAPPED} == before
    assert modules["verify"].SUITES == suites_before
    assert [round(r.ordinate, 6) for r in records] == [14.134725, 21.02204]

    names = [tracer.names[n] for n in tracer.name]
    assert names.count("zeros.scan_zeros") == 1
    assert names.count("zeros.refine_zero") == 2
    m = spans.layer_metrics(tracer, 1.0)
    assert set(m) == {x["name"] for x in json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]}
    assert 25 <= m["zeros.kernel_evals_per_zero"] <= 40
    assert m["zeros.grid_evals_per_op"] == 37  # 9 / 0.25 + 1 grid points
    assert m["modulus.criterion_ratio.calls"] == 2
    for i, p in enumerate(tracer.parent):
        if p >= 0:
            assert tracer.start[p] <= tracer.start[i] <= tracer.end[i] <= tracer.end[p]
    root = names.index("zeros.scan_zeros")
    self_ms = sum(m[f"{layer}.self_ms"] for layer in spans.LAYERS)
    assert self_ms == pytest.approx((tracer.end[root] - tracer.start[root]) / 1e6)


def test_classifier_agrees_with_cmath_for_far_left_points():
    s = complex(-3.0, 440.0)
    assert abs(1 - cmath.exp((1 - s) * math.log(2.0))) > wl.ETA_DENOM_WINDOW
    assert wl.region(s) == "left"
