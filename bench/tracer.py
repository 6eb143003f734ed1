"""Span tracer for the benchmark's traced run.

The tracer wraps the module-level functions through which one ``confmac``
module calls another.  It installs the wrappers by replacing module
attributes, including every by-name import of a wrapped function (such as
``search.compass_search_max``), and the two ``_mc.MomentAccumulator`` methods
of the Welford reduction; ``uninstall`` restores the originals.
Nothing in the package is edited.

Spans are held in memory as tuples ``(id, parent, op, name, t0, t1, info)``
and written out at the end.  Each thread keeps its own span stack; a span
opened by a pool thread with an empty stack takes as parent the span that is
open in the main thread, i.e. the call that started the pool.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import threading
import time
from collections import defaultdict

import numpy as np

from confmac import (_mc, _opt, bounds, capacity, cli, montecarlo, rdlib, search,
                     separation, vqscheme)

MODULES = (_mc, _opt, bounds, capacity, cli, montecarlo, rdlib, search, separation, vqscheme)

KERNELS = ("_raw_quantities", "_unlimited_raw", "_distortion_arrays", "_conf_requirement_arrays")
REGION = ("vq_constants", "vq_rate_region", "vq_distortion", "vq_conf_requirement",
          "vq_unlimited_region")
SOLVES = ("min_power_symmetric", "min_conf_capacity", "min_d1_unlimited")

# by-name imports the traced run must reach (checked on install)
BY_NAME = ((search, "compass_search_max"), (search, "refine_grid_max"),
           (separation, "compass_search_max"), (separation, "refine_grid_max"),
           (montecarlo, "accumulate_chunks"), (bounds, "accumulate_chunks"),
           (search, "rd_joint"))


def _layer(module) -> str:
    return module.__name__.rsplit(".", 1)[1].lstrip("_")


def _public_functions(module) -> list[str]:
    return [name for name, obj in vars(module).items()
            if not name.startswith("_") and callable(obj) and not isinstance(obj, type)
            and getattr(obj, "__module__", None) == module.__name__]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.active = False
        self.op = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._patched: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, name, fn, args, kwargs, info, cpu=False, root=False):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            try:
                parent = self._main_stack[-1]
            except IndexError:
                parent = 0
        sid = next(self._ids)
        if root:
            self.op = sid
        stack.append(sid)
        c0 = time.thread_time() if cpu else 0.0
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            if cpu:
                info["cpu"] = time.thread_time() - c0
            self.spans.append((sid, parent, self.op, name, t0, t1, info))

    def run_op(self, name, fn, *args, **kwargs):
        """Run one benchmark query as a root span; its id tags every span below it."""
        return self._span(name, fn, args, kwargs, None, root=True)

    def _wrap(self, name, fn, before=None, after=None, cpu=False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            info = {}
            if before is not None:
                args, kwargs = before(info, args, kwargs)
            result = tracer._span(name, fn, args, kwargs, info, cpu)
            if after is not None:
                after(info, result, kwargs)
            return result
        return wrapper

    # -- argument wrappers ---------------------------------------------------

    def _wrap_objective(self, info, args, kwargs):
        """Wrap ``f_batch`` so each objective call is a span of its caller's layer."""
        f = args[0]
        layer = f.__module__.rsplit(".", 1)[1]

        def objective(pts):
            sub = {"points": int(np.shape(pts)[0])}
            val = self._span(f"{layer}.objective", f, (pts,), {}, sub)
            if "first" not in info:
                info["first"] = float(np.max(val))
            return val
        return (objective,) + tuple(args[1:]), kwargs

    def _wrap_predicate(self, info, args, kwargs):
        pred = args[0]

        def predicate(x):
            sub = {}
            ok = self._span("search.predicate", pred, (x,), {}, sub)
            sub["feasible"] = bool(ok)
            return ok
        return (predicate,) + tuple(args[1:]), kwargs

    def _wrap_chunk(self, info, args, kwargs):
        fn, seed, total = args[:3]
        chunk = args[3] if len(args) > 3 else kwargs.get("chunk", _mc.DEFAULT_CHUNK)
        info["samples"] = int(total)
        info["workers"] = min(_mc.worker_count(), len(_mc.chunk_sizes(total, chunk)))

        def chunk_fn(rng, n):
            return self._span("mc.chunk", fn, (rng, n), {}, {}, cpu=True)
        return (chunk_fn,) + tuple(args[1:]), kwargs

    @staticmethod
    def _kernel_points(info, args, kwargs):
        info["points"] = max(int(np.size(a)) for a in (*args, *kwargs.values()))
        return args, kwargs

    # -- install / uninstall -------------------------------------------------

    def _wrappers(self) -> dict:
        """Map each original function (by identity) to its wrapper."""
        w = {}

        def add(module, name, **kw):
            fn = getattr(module, name)
            w[id(fn)] = (fn, self._wrap(f"{_layer(module)}.{name}", fn, **kw))

        for name in KERNELS:
            add(vqscheme, name, before=self._kernel_points)
        for name in REGION:
            add(vqscheme, name)
        for name in SOLVES + ("_rc_budget",):
            add(search, name)
        add(search, "trace_curve", cpu=True)
        add(search, "_expand_and_bisect", before=self._wrap_predicate,
            after=lambda info, res, kw: info.update(steps=int(res[2])))
        add(_opt, "compass_search_max", before=self._wrap_objective,
            after=lambda info, res, kw: info.update(
                rounds=int(res[2]),
                stopped=kw.get("stop_at") is not None and res[0] >= kw["stop_at"]))
        add(_opt, "refine_grid_max", before=self._wrap_objective,
            after=lambda info, res, kw: info.update(gain=bool(res[0] > info["first"])))
        add(_mc, "accumulate_chunks", before=self._wrap_chunk)
        add(cli, "run")
        for module in (separation, capacity, rdlib, bounds, montecarlo):
            for name in _public_functions(module):
                add(module, name)
        add(rdlib, "_kaspi_arrays")
        return w

    def install(self) -> None:
        wrappers = self._wrappers()
        for module in MODULES:
            for name, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, name, hit[1])
                    self._patched.append((module, name, obj))
        for name in ("from_values", "combine"):  # the Welford reduction, per chunk and in order
            self._patch_method(_mc.MomentAccumulator, name, "mc.reduce")
        missing = [f"{m.__name__}.{n}" for m, n in BY_NAME
                   if not hasattr(getattr(m, n), "__wrapped__")]
        if missing:
            self.uninstall()
            raise RuntimeError(f"by-name imports not patched: {missing}")

    def _patch_method(self, cls, name, span) -> None:
        original = vars(cls)[name]
        if isinstance(original, classmethod):
            setattr(cls, name, classmethod(self._wrap(span, original.__func__, cpu=True)))
        else:
            setattr(cls, name, self._wrap(span, original, cpu=True))
        self._patched.append((cls, name, original))

    def uninstall(self) -> None:
        while self._patched:
            module, name, original = self._patched.pop()
            setattr(module, name, original)

    def patched_names(self) -> list[str]:
        return sorted(f"{m.__module__}.{m.__qualname__}.{n}" if isinstance(m, type)
                      else f"{m.__name__}.{n}"
                      for m, n, _ in self._patched)

    # -- output --------------------------------------------------------------

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def _covered(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def layer(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def layer_metrics(spans: list[tuple], passes: int) -> dict:
    """Per-pass layer metrics from the spans of ``passes`` traced passes."""
    name_of = {s[0]: s[3] for s in spans}
    children = defaultdict(list)
    for sid, parent, _, _, t0, t1, _ in spans:
        children[parent].append((t0, t1))
    by_name, by_layer = defaultdict(list), defaultdict(list)
    for s in spans:
        by_name[s[3]].append(s)
        by_layer[layer(s[3])].append(s)

    def dur(s):
        return s[5] - s[4]

    def pick(*names):
        return [s for n in names for s in by_name.get(n, ())]

    def of_layer(lay):
        return by_layer.get(lay, [])

    def self_s(lay):
        return sum(dur(s) - _covered(children.get(s[0], ()), s[4], s[5]) for s in of_layer(lay))

    def outer_s(lay):  # time in the layer's outermost spans, nested same-layer calls once
        return sum(dur(s) for s in of_layer(lay) if layer(name_of.get(s[1], "")) != lay)

    def ratio(a, b):
        return a / b if b else 0.0

    kern = pick(*(f"vqscheme.{n}" for n in KERNELS))
    kern_points = sum(s[6]["points"] for s in kern)
    kern_s = sum(map(dur, kern))
    preds = pick("search.predicate")
    compass = pick("opt.compass_search_max")
    refine = pick("opt.refine_grid_max")
    objective = pick("search.objective", "separation.objective")
    obj_points = sum(s[6]["points"] for s in objective)
    acc = pick("mc.accumulate_chunks")
    chunks = pick("mc.chunk")
    reduce = pick("mc.reduce")
    acc_wall = sum(map(dur, acc))
    samples = sum(s[6]["samples"] for s in acc)
    rows = pick("search.trace_curve")
    row_cpu = sum(s[6]["cpu"] for s in rows)
    rows_under = defaultdict(int)
    for s in rows:
        rows_under[s[1]] += 1
    cli_runs = pick("cli.run")
    row_capacity = sum(dur(s) * min(_mc.worker_count(), rows_under[s[0]])
                       for s in cli_runs if rows_under[s[0]])
    sep1, sep2 = pick("separation.sep1_feasible"), pick("separation.sep2_feasible")
    rc = pick("search._rc_budget")
    region = pick(*(f"vqscheme.{n}" for n in REGION))

    per_pass = {
        "vqscheme.kernel_calls": len(kern),
        "vqscheme.kernel_points": kern_points,
        "vqscheme.kernel_s": kern_s,
        "vqscheme.region_calls": len(region),
        "vqscheme.region_s": sum(map(dur, region)),
        "search.solves": len(pick(*(f"search.{n}" for n in SOLVES))),
        "search.bisect_steps": sum(s[6]["steps"] for s in pick("search._expand_and_bisect")),
        "search.predicate_calls": len(preds),
        "search.self_s": self_s("search"),
        "search.rc_budget_calls": len(rc),
        "search.rc_budget_s": sum(map(dur, rc)),
        "opt.compass_calls": len(compass),
        "opt.compass_rounds": sum(s[6]["rounds"] for s in compass),
        "opt.refine_calls": len(refine),
        "opt.objective_calls": len(objective),
        "opt.objective_points": obj_points,
        "opt.self_s": self_s("opt"),
        "separation.sep1_calls": len(sep1),
        "separation.sep1_s": sum(map(dur, sep1)),
        "separation.sep2_calls": len(sep2),
        "separation.sep2_s": sum(map(dur, sep2)),
        "capacity.calls": len(of_layer("capacity")),
        "capacity.s": outer_s("capacity"),
        "rdlib.calls": len(of_layer("rdlib")),
        "rdlib.s": outer_s("rdlib"),
        "bounds.calls": len(of_layer("bounds")),
        "bounds.s": outer_s("bounds"),
        "montecarlo.calls": len(of_layer("montecarlo")),
        "montecarlo.s": outer_s("montecarlo"),
        "montecarlo.samples": sum(s[6]["samples"] for s in acc
                                  if layer(name_of.get(s[1], "")) == "montecarlo"),
        "mc.chunks": len(chunks),
        "mc.chunk_busy_s": sum(s[6]["cpu"] for s in chunks),
        "mc.reduce_wall_s": sum(map(dur, reduce)),
        "cli.self_s": self_s("cli"),
        "cli.rows": len(rows),
        "cli.row_busy_s": row_cpu,
    }
    out = {k: v / passes for k, v in per_pass.items()}
    out.update({
        "vqscheme.kernel_ns_per_point": ratio(kern_s, kern_points) * 1e9,
        "search.feasible_ratio": ratio(sum(s[6]["feasible"] for s in preds), len(preds)),
        "opt.points_per_call": ratio(obj_points, len(objective)),
        "opt.early_stop_ratio": ratio(sum(s[6]["stopped"] for s in compass), len(compass)),
        "opt.refine_gain_ratio": ratio(sum(s[6]["gain"] for s in refine), len(refine)),
        "mc.parallel_eff": ratio(sum(s[6]["cpu"] for s in chunks + reduce),
                                 sum(dur(s) * s[6]["workers"] for s in acc)),
        "mc.samples_per_s": ratio(samples, acc_wall),
        "cli.row_parallel_eff": ratio(row_cpu, row_capacity),
    })
    return out


def unit(metric: str) -> str:
    if metric.endswith(("_ratio", "_eff")):
        return "ratio"
    if metric.endswith("ns_per_point"):
        return "ns"
    if metric.endswith("per_s"):
        return "1/s"
    return "s" if metric.endswith(("_s", ".s")) else "count"
