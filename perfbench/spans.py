"""Outside-in tracing for the benchmark's traced run.

Spans live only in the benchmark: ``Tracer.install`` replaces each public
function a layer imports from another layer (``zeros.zeta_eval``,
``modulus.zeta_eval``, ``verify.psi_pair_series``, ...) with a wrapper that
records one span, and ``uninstall`` puts the originals back.  Calls a module
makes to its own functions are not seen, except ``zeros.refine_zero`` (looked
up through the module by ``scan_zeros`` and ``verify``) and the entries of
``verify.SUITES``.

A span is (name, start, end, parent span, op id).  Spans are kept in memory
as flat arrays and written out once the run ends.  A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import gzip
from array import array
from time import perf_counter_ns

from workloads import REGIONS, region, t_band

LAYERS = ("specfun", "zeta", "modulus", "zeros", "verify")
# The suites of ``run_suite('all')``; mero, sphere and flow are measured
# through divisors, hurwitz and flow.
SUITES = ("table1", "functional", "modulus", "critical-line", "gamma", "divisors", "hurwitz", "flow")

# (importing module, attribute, span name); the span name is
# "<home layer>.<function>".
WRAPPED = (
    ("verify", "digamma_series_reference", "specfun.digamma_series_reference"),
    ("verify", "psi_pair_series", "specfun.psi_pair_series"),
    ("verify", "gamma", "specfun.gamma"),
    ("verify", "digamma", "specfun.digamma"),
    ("verify", "psi_pair", "specfun.psi_pair"),
    ("verify", "reflection_residual", "specfun.reflection_residual"),
    ("zeta", "gamma", "specfun.gamma"),
    ("zeta", "loggamma", "specfun.loggamma"),
    ("modulus", "gamma", "specfun.gamma"),
    ("modulus", "psi_pair", "specfun.psi_pair"),
    ("verify", "zeta_eval", "zeta.zeta_eval"),
    ("verify", "completed_zeta", "zeta.completed_zeta"),
    ("verify", "functional_rhs", "zeta.functional_rhs"),
    ("verify", "stieltjes_gamma", "zeta.stieltjes_gamma"),
    ("verify", "euler_product_partial", "zeta.euler_product_partial"),
    ("modulus", "zeta_eval", "zeta.zeta_eval"),
    ("zeros", "zeta_eval", "zeta.zeta_eval"),
    ("zeros", "completed_zeta", "zeta.completed_zeta"),
    ("zeros", "completed_log_prefactor", "zeta.completed_log_prefactor"),
    ("zeros", "criterion_ratio", "modulus.criterion_ratio"),
    ("modulus", "criterion_ratio", "modulus.criterion_ratio"),
    ("modulus", "f_abs_closed", "modulus.f_abs_closed"),
    ("modulus", "f_factor", "modulus.f_factor"),
    ("modulus", "f_abs_dx", "modulus.f_abs_dx"),
    ("zeros", "refine_zero", "zeros.refine_zero"),
)

# The op each workload times, as (module, function); its span is the root.
ROOTS = {
    "verify-all": ("verify", "run_suite"),
    "scan": ("zeros", "scan_zeros"),
    "rectangle": ("zeros", "count_zeros_rectangle"),
    "zeta-points": ("zeta", "zeta_eval"),
}

SERIES_REF = ("specfun.digamma_series_reference", "specfun.psi_pair_series")
KERNELS = ("zeta.zeta_eval", "zeta.completed_zeta")


def zeta_eval_suffix(s) -> str:
    """Span-name suffix of a zeta_eval call: its input region, and the |t|
    band for points on the line."""
    s = complex(s)
    r = region(s)
    return f".line.{t_band(s.imag)}" if r == "line" else f".{r}"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.op_id = -1
        self._saved: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        suffix = zeta_eval_suffix if name == "zeta.zeta_eval" else None
        fixed = self._name_id(name)

        def traced(*args, **kwargs):
            nid = self._name_id(name + suffix(args[0])) if suffix else fixed
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.op.append(self.op_id)
            self.start.append(0)
            self.end.append(0)
            self._stack.append(idx)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1

        return traced

    def _patch(self, owner, key, name):
        getter = owner.__getitem__ if isinstance(owner, dict) else lambda k: getattr(owner, k)
        setter = owner.__setitem__ if isinstance(owner, dict) else lambda k, v: setattr(owner, k, v)
        original = getter(key)
        self._saved.append((setter, key, original))
        setter(key, self.wrap(name, original))

    def install(self, modules: dict) -> None:
        """Wrap every WRAPPED function and every verify suite; ``modules``
        maps short module names to the imported zetasphere modules."""
        for mod, attr, name in WRAPPED:
            self._patch(modules[mod], attr, name)
        suites = modules["verify"].SUITES
        for suite in list(suites):
            self._patch(suites, suite, f"verify.suite.{suite}")

    def uninstall(self) -> None:
        while self._saved:
            setter, key, original = self._saved.pop()
            setter(key, original)

    def write(self, path) -> None:
        """Write every span as CSV: id, name, start_ns, end_ns, parent, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="ascii") as fh:
            fh.write("span,name,start_ns,end_ns,parent,op\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{names[self.name[i]]},{self.start[i]},{self.end[i]},{self.parent[i]},{self.op[i]}\n"
                )


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    parts = metric.split(".")
    if "calls" in parts:
        return "calls/op"
    if any(p.endswith("us_per_call") for p in parts):
        return "us"
    if parts[-1] in ("ms", "self_ms"):
        return "ms"
    if parts[-1] == "share":
        return "1"
    if parts[-1] == "kernel_evals_per_zero":
        return "evals/zero"
    if parts[-1].endswith("evals_per_op"):
        return "evals/op"
    return "x"


def layer_metrics(tracer: Tracer, overhead: float) -> dict[str, float]:
    """Per-layer metrics from the spans of a traced run.  ``.calls`` are
    calls per op; ``us_per_call`` and ``ms`` are inclusive span time per call
    and per op; ``<layer>.self_ms`` is the layer's self time per op."""
    names = [tracer.names[n] for n in tracer.name]
    dur = [e - s for s, e in zip(tracer.start, tracer.end)]
    parent = tracer.parent
    child = [0] * len(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += dur[i]

    roots = [i for i, p in enumerate(parent) if p < 0]
    n_ops = len(roots)
    op_ns = sum(dur[i] for i in roots)
    calls: dict[str, int] = {}
    total: dict[str, int] = {}
    layer_self = dict.fromkeys(LAYERS, 0)
    for i, name in enumerate(names):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0) + dur[i]
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += dur[i] - child[i]

    def matches(key, spans):
        return any(key == s or key.startswith(s + ".") for s in spans)

    def n_of(*spans):
        """Calls of the named spans and of their '<name>.<suffix>' variants."""
        return sum(c for k, c in calls.items() if matches(k, spans))

    def ns_of(*spans):
        return sum(t for k, t in total.items() if matches(k, spans))

    def per_op(x):
        return x / n_ops if n_ops else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    def us_per_call(*spans):
        return ratio(ns_of(*spans) / 1e3, n_of(*spans))

    # kernel evaluations are counted by the span that called them directly,
    # so the zeta_eval calls inside criterion_ratio are not counted as such
    kernel_in_refine = grid = rect_f = 0
    for i, name in enumerate(names):
        p = parent[i]
        if p < 0 or not matches(name, KERNELS):
            continue
        if names[p] == "zeros.refine_zero":
            kernel_in_refine += 1
        elif names[p] == "zeros.scan_zeros" and name != "zeta.completed_zeta":
            grid += 1
        elif names[p] == "zeros.count_zeros_rectangle" and name == "zeta.completed_zeta":
            rect_f += 1

    m: dict[str, float] = {}
    series_ns = ns_of(*SERIES_REF)
    m["specfun.series_ref.ms"] = per_op(series_ns) / 1e6
    m["specfun.series_ref.share"] = ratio(series_ns, op_ns)
    for fn in ("loggamma", "gamma"):
        key = f"specfun.{fn}"
        m[f"{key}.calls"] = per_op(n_of(key))
        m[f"{key}.us_per_call"] = us_per_call(key)
    # zeta_eval spans are named zeta.zeta_eval.<region>[.<band>]; the root
    # span of zeta-points counts like any other call
    for r in REGIONS:
        m[f"zeta.zeta_eval.calls.{r}"] = per_op(n_of(f"zeta.zeta_eval.{r}"))
        m[f"zeta.zeta_eval.us_per_call.{r}"] = us_per_call(f"zeta.zeta_eval.{r}")
    for band in ("t_lo", "t_mid", "t_hi"):
        m[f"zeta.zeta_eval.line_us_per_call.{band}"] = us_per_call(f"zeta.zeta_eval.line.{band}")
    m["zeta.completed_zeta.calls"] = per_op(n_of("zeta.completed_zeta"))
    m["zeta.completed_zeta.us_per_call"] = us_per_call("zeta.completed_zeta")
    m["modulus.criterion_ratio.calls"] = per_op(n_of("modulus.criterion_ratio"))
    m["modulus.criterion_ratio.us_per_call"] = us_per_call("modulus.criterion_ratio")
    m["zeros.kernel_evals_per_zero"] = ratio(kernel_in_refine, n_of("zeros.refine_zero"))
    m["zeros.grid_evals_per_op"] = per_op(grid)
    m["zeros.refine_zero.us_per_call"] = us_per_call("zeros.refine_zero")
    m["zeros.refine_zero.share"] = ratio(ns_of("zeros.refine_zero"), op_ns)
    m["zeros.rect.f_evals_per_op"] = per_op(rect_f)
    for suite in SUITES:
        m[f"verify.suite.{suite}.ms"] = per_op(ns_of(f"verify.suite.{suite}")) / 1e6
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = per_op(layer_self[layer]) / 1e6
    m["trace.overhead"] = overhead
    return m
