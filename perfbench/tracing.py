"""Spans around the package's public functions, installed from outside.

`install` replaces every public function and method of the traced modules by
a wrapper that records a span (name, start, end, parent). Module functions
are rebound in every module that imported them by name, so a call through
`corrector.build_mesh` or `runner.estimate_naive` is seen as well as one
through the defining module. Spans stay in memory; `layer_metrics` turns them
into per-layer figures when the workload has ended.

Only the standard library is imported here, so the worker can time the
package import (numpy and scipy included) after loading this module.
"""

import dataclasses
import functools
import inspect
import sys
import time

TRACED_MODULES = ("fields", "fem", "corrector", "estimators", "reference",
                  "config", "runner")
# dump_json calls itself once per JSON node; a span per node is pure overhead.
SKIP = frozenset({"runner.dump_json"})

ESTIMATORS = ("energy_min", "averaged", "self_consistent",
              "self_consistent_scalar", "naive")
CORRECTOR_SELF = tuple(
    f"corrector.EmbeddedProblem.{m}"
    for m in ("solve", "trace_objective", "energy_matrix", "flux_average",
              "system", "load"))


def now():
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclasses.dataclass
class Span:
    name: str
    start: float
    parent: int
    end: float = 0.0
    attrs: dict = dataclasses.field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one single-threaded workload."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.enabled = True
        self.problems = []          # EmbeddedProblem instances built
        self.lu_shapes = set()      # system sizes whose factor fill was read

    def wrap(self, name, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            parent = tracer.stack[-1] if tracer.stack else -1
            span = Span(name, now(), parent)
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = now()
                tracer.stack.pop()
            if hook is not None:
                # the hook's own time is a sibling span, so it counts in no
                # layer's self time
                t0 = now()
                hook(tracer, span, args, result)
                tracer.spans.append(Span("trace.hook", t0, parent, now()))
            return result

        return traced


# -- hooks: attributes read at a span's end ----------------------------------


def _factor_hook(tracer, span, args, _result):
    solver = args[0]
    span.attrs["direct"] = solver.method == "direct"
    lu = getattr(solver, "_lu", None)
    n = solver.K.shape[0]
    # the fill of one pattern repeats across exterior matrices; read it once
    if span.attrs["direct"] and n not in tracer.lu_shapes \
            and hasattr(lu, "L") and hasattr(lu, "U"):
        tracer.lu_shapes.add(n)
        span.attrs["lu_nnz"] = int(lu.L.nnz + lu.U.nnz)


def _solve_hook(_tracer, span, _args, result):
    stats = result[1]
    if stats.method == "cg":
        span.attrs["cg_iterations"] = int(stats.iterations)


def _problem_hook(tracer, _span, args, _result):
    tracer.problems.append(args[0])


def _report_hook(_tracer, span, _args, report):
    span.attrs["iterations"] = int(report.iterations)


def _ascent_hook(_tracer, span, _args, result):
    span.attrs["accepted"] = len(result[1])


HOOKS = {
    "fem.LinearSolver": _factor_hook,
    "fem.LinearSolver.solve": _solve_hook,
    "corrector.EmbeddedProblem": _problem_hook,
    "estimators.maximize_trace": _ascent_hook,
    **{f"estimators.estimate_{m}": _report_hook for m in ESTIMATORS},
}


# -- installation -------------------------------------------------------------


def _wrap_class(tracer, short, cls, only, hooks):
    for attr, value in list(vars(cls).items()):
        if not inspect.isfunction(value):
            continue
        if attr == "__init__":
            if dataclasses.is_dataclass(cls):
                continue
            name = f"{short}.{cls.__name__}"
        elif attr.startswith("_"):
            continue
        else:
            name = f"{short}.{cls.__name__}.{attr}"
        if only is None or name in only:
            setattr(cls, attr, tracer.wrap(name, value, hooks.get(name)))


def install(tracer, package="embedhom", only=None):
    """Wrap the public surface of the loaded traced modules.

    `only` limits the wrapping to the given span names.
    """
    wrappers = {}
    # hooks hold references (problems, factors) that a partial install,
    # used to time untraced rounds, must not keep alive
    hooks = HOOKS if only is None else {}
    for short in TRACED_MODULES:
        mod = sys.modules.get(f"{package}.{short}")
        if mod is None:
            continue
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            name = f"{short}.{attr}"
            if inspect.isclass(obj):
                _wrap_class(tracer, short, obj, only, hooks)
            elif inspect.isfunction(obj) and name not in SKIP \
                    and (only is None or name in only):
                wrappers[obj] = tracer.wrap(name, obj, hooks.get(name))
    # rebind every by-name import of a wrapped function
    for modname, mod in list(sys.modules.items()):
        if modname != package and not modname.startswith(package + "."):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])


# -- aggregation --------------------------------------------------------------


class _Index:
    """Self times and ancestry of a finished span list."""

    def __init__(self, spans):
        self.spans = spans
        self.self_time = [s.duration for s in spans]
        for s in spans:
            if s.parent >= 0:
                self.self_time[s.parent] -= s.duration

    def ancestors(self, i):
        p = self.spans[i].parent
        while p >= 0:
            yield p
            p = self.spans[p].parent

    def named(self, name):
        return [i for i, s in enumerate(self.spans) if s.name == name]

    def inclusive(self, name):
        """Time in spans of this name, nested calls counted once."""
        return sum(self.spans[i].duration for i in self.named(name)
                   if all(self.spans[a].name != name for a in self.ancestors(i)))

    def self_sum(self, names):
        return sum(t for s, t in zip(self.spans, self.self_time)
                   if s.name in names)


def layer_metrics(tracer, import_s):
    """Per-layer figures of one traced workload, keyed by metric name."""
    ix = _Index(tracer.spans)
    spans = tracer.spans
    factor = [i for i in ix.named("fem.LinearSolver")
              if spans[i].attrs.get("direct")]
    solves = ix.named("fem.LinearSolver.solve")
    m = {
        "fem.build_mesh_s": ix.inclusive("fem.build_mesh"),
        "fem.reduce_s": ix.inclusive("fem.reduce_coefficient"),
        "fem.assemble_s": ix.inclusive("fem.assemble_stiffness"),
        "fem.assemble_calls": len(ix.named("fem.assemble_stiffness")),
        "fem.factorize_s": sum(spans[i].duration for i in factor),
        "fem.factorizations": len(factor),
        "fem.lu_nnz": max((spans[i].attrs.get("lu_nnz", 0) for i in factor),
                          default=0),
        "fem.solve_s": sum(spans[i].duration for i in solves),
        "fem.solves": len(solves),
        "fem.cg_iterations": sum(spans[i].attrs.get("cg_iterations", 0)
                                 for i in solves),
        "fields.evaluate_s": sum(
            t for s, t in zip(spans, ix.self_time)
            if s.name.startswith("fields.") and s.name.endswith(".evaluate")),
        "corrector.setup_s": ix.self_sum({"corrector.EmbeddedProblem"}),
        "corrector.energies_s": ix.inclusive("corrector.EmbeddedProblem.energies"),
        "corrector.energies_calls": len(ix.named("corrector.EmbeddedProblem.energies")),
        "corrector.self_s": ix.self_sum(set(CORRECTOR_SELF)),
    }
    for est in ESTIMATORS:
        name = f"estimators.estimate_{est}"
        runs = ix.named(name)
        m[f"estimators.{est}_s"] = ix.inclusive(name)
        m[f"estimators.{est}_iterations"] = sum(
            spans[i].attrs.get("iterations", 0) for i in runs)
        m[f"estimators.{est}_factorizations"] = sum(
            1 for i in factor
            if any(spans[a].name == name for a in ix.ancestors(i)))
    rejections = 0
    for i in ix.named("estimators.maximize_trace"):
        trials = sum(1 for s in spans if s.parent == i
                     and s.name == "corrector.EmbeddedProblem.trace_objective")
        rejections += trials - spans[i].attrs.get("accepted", trials)
    m["estimators.energy_min_rejections"] = rejections
    m["reference.periodic_s"] = ix.inclusive("reference.periodic_effective")
    points = sum(spans[i].duration for i in ix.named("runner.run_point"))
    m["runner.write_s"] = ix.inclusive("runner.run_experiment") - points
    m["config.load_s"] = ix.inclusive("config.load_config")
    m["runner.import_s"] = import_s
    return m


def dump_spans(tracer, t0):
    """JSON-able spans: name, start and end in seconds after t0, parent index."""
    return [{"name": s.name, "start": s.start - t0, "end": s.end - t0,
             "parent": s.parent, **s.attrs} for s in tracer.spans]


def cross_check(tracer, layers):
    """Solves seen at LinearSolver.solve against the problems' own counters."""
    counted = sum(p.solve_count for p in tracer.problems)
    if counted == layers["fem.solves"]:
        return []
    return [f"solve count mismatch: LinearSolver.solve saw {layers['fem.solves']}, "
            f"EmbeddedProblem.solve_count sums to {counted}"]


def setup_seconds(tracer, t_spawn, t_end):
    """Cold set-up: process start to the first EmbeddedProblem built, plus
    the construction time of every later one (mesh, reductions, loads)."""
    built = sorted((s for s in tracer.spans if s.name == "corrector.EmbeddedProblem"),
                   key=lambda s: s.start)
    if not built:
        return t_end - t_spawn
    return (built[0].end - t_spawn) + sum(s.duration for s in built[1:])
