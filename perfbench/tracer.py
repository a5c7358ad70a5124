"""Spans around the calls into convval's public functions, from outside.

`Tracer.install` wraps each traced function once and rebinds every
reference to it in every `convval` module namespace and class (modules
import names directly, and `MaxAffineFn.__call__` is an alias of
`evaluate`); `uninstall` puts every original back.  No package code
changes.

Each span records its name, its parent span, the op it belongs to, and
start/end from both `perf_counter` and `thread_time`.  Spans stay in memory,
one buffer per thread (suite cases run on a thread pool), and are written
out when the run ends.  Self CPU is a span's thread CPU minus that of its
child spans; wait is self wall minus self CPU, i.e. time spent waiting for
the GIL or the pool.
"""

import sys
import threading
import time
from array import array
from itertools import count
from math import comb

# module -> traced functions; "Class.method" for methods, "init" for __init__.
TRACED = {
    "_simplex": ("feasible_eq", "solve_eq"),
    "linalg": ("dot", "solve_square", "matrix_rank"),
    "_geometry": ("facet_enum", "vertices_of_hrep", "hrep_with_vertical_ray"),
    "maxaffine": ("prune", "MaxAffineFn.evaluate", "add", "max_of", "compose_linear"),
    "lifted": ("conjugate", "conjugate_cd", "LiftedPolytope.evaluate", "min_convex_hull",
               "is_min_convex"),
    "polytopes": ("Polytope.init", "Polytope.support", "difference_body",
                  "projection_body_support", "cut_pair"),
    "valuations": ("psi_eval", "psi_expand"),
    "analysis": ("hinge_pair", "locality_check", "falsify_contravariance"),
    "generators": ("rand_maxaffine", "rand_hinge_pair", "rand_polytope"),
    "suites": ("run_suite", "replay_witness", "mc_projection_area"),
    "io": ("parse_document", "dump_json", "value_to_doc"),
    "rational": ("rat_vector", "parse_rational", "format_rational"),
}

# Per-layer work counts, besides calls and self CPU.
COUNTS = (
    "simplex.feasible_eq.cells",
    "simplex.solve_eq.cells",
    "maxaffine.prune.pieces_in",
    "maxaffine.prune.pieces_out",
    "polytopes.Polytope.init.points_in",
    "polytopes.Polytope.init.vertices_out",
    "geometry.facet_enum.candidates",
    "geometry.vertices_of_hrep.candidates",
    "io.bytes_in",
    "io.bytes_out",
)

# Per-thread tallies behind the derived ratios.
_EXTRA = ("lp_under_prune", "suite_cpu", "suite_wall")

MARK = "__perfbench_original__"


def metric_module(module):
    """Metric names start with a letter: `_simplex` reports as `simplex`."""
    return module.lstrip("_")


def function_names():
    return [f"{metric_module(m)}.{q}" for m, fns in TRACED.items() for q in fns]


def _convval_modules():
    import convval.cli  # noqa: F401  (loads every module of the package)

    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "convval" or name.startswith("convval."))]


def _resolve(module, qual):
    mod = sys.modules[f"convval.{module}"]
    if "." not in qual:
        return mod.__dict__[qual]
    cls_name, attr = qual.split(".")
    attr = "__init__" if attr == "init" else attr
    return mod.__dict__[cls_name].__dict__[attr]


class _Frame:
    __slots__ = ("sid", "child_wall", "child_cpu")


class Tracer:
    def __init__(self):
        self.names = function_names()
        self.enabled = False
        self.op = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers = []
        self._ids = count(1)
        self._rebound = []

    # -- installation -----------------------------------------------------

    def install(self):
        wrappers = {}
        for module, quals in TRACED.items():
            for qual in quals:
                fn = _resolve(module, qual)
                name = f"{metric_module(module)}.{qual}"
                wrappers[id(fn)] = self._wrap(fn, self.names.index(name), name)
        seen_classes = set()
        for mod in _convval_modules():
            for key, val in list(vars(mod).items()):
                if id(val) in wrappers:
                    self._rebind(mod, key, val, wrappers[id(val)])
                elif isinstance(val, type) and val.__module__.startswith("convval"):
                    if id(val) in seen_classes:
                        continue
                    seen_classes.add(id(val))
                    for attr, member in list(vars(val).items()):
                        if id(member) in wrappers:
                            self._rebind(val, attr, member, wrappers[id(member)])

    def _rebind(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._rebound.append((owner, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._rebound):
            setattr(owner, key, original)
        self._rebound.clear()

    # -- spans ------------------------------------------------------------

    def _thread_state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.prune_depth = 0
            # ids: (sid, parent, name, op); times: (t0, t1, c0, c1, self_cpu, self_wall)
            local.ids, local.times = array("q"), array("d")
            local.counts = dict.fromkeys(COUNTS + _EXTRA, 0)
            with self._lock:
                self._buffers.append((local.ids, local.times, local.counts))
        return local

    def note(self, key, amount):
        """Add to a work count measured by the caller (request bytes read)."""
        self._thread_state().counts[key] += amount

    def _wrap(self, fn, idx, name):
        tracer = self
        counter = _COUNTERS.get(name)
        is_prune = name == "maxaffine.prune"
        is_lp = name == "simplex.feasible_eq"
        is_suite = name == "suites.run_suite"
        perf, tcpu, pcpu = time.perf_counter, time.thread_time, time.process_time

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            local = tracer._thread_state()
            stack = local.stack
            frame = _Frame()
            frame.sid = next(tracer._ids)
            frame.child_wall = frame.child_cpu = 0.0
            if is_prune:
                local.prune_depth += 1
            elif is_lp and local.prune_depth:
                local.counts["lp_under_prune"] += 1
            stack.append(frame)
            p0 = pcpu() if is_suite else 0.0
            t0 = perf()
            c0 = tcpu()
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                c1 = tcpu()
                t1 = perf()
                stack.pop()
                counts = local.counts
                if is_suite:
                    counts["suite_cpu"] += pcpu() - p0
                    counts["suite_wall"] += t1 - t0
                if is_prune:
                    local.prune_depth -= 1
                if counter is not None and done:
                    counter(counts, args, kwargs, result)
                parent = stack[-1] if stack else None
                local.ids.extend((frame.sid, parent.sid if parent else 0, idx, tracer.op))
                local.times.extend((t0, t1, c0, c1, (c1 - c0) - frame.child_cpu,
                                    (t1 - t0) - frame.child_wall))
                if parent is not None:
                    # Everything since this span began, bookkeeping included,
                    # stays out of the parent's self time.
                    parent.child_wall += perf() - t0
                    parent.child_cpu += tcpu() - c0

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        setattr(wrapper, MARK, fn)
        return wrapper

    # -- results ----------------------------------------------------------

    def spans(self):
        """Every recorded span as (sid, parent, name, op, t0, t1, c0, c1)."""
        out = []
        for ids, times, _ in self._buffers:
            for k in range(len(ids) // 4):
                i, t = 4 * k, 6 * k
                out.append((ids[i], ids[i + 1], self.names[ids[i + 2]], ids[i + 3],
                            times[t], times[t + 1], times[t + 2], times[t + 3]))
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("sid,parent,name,op,wall_start,wall_end,cpu_start,cpu_end\n")
            for s in sorted(self.spans()):
                fh.write(",".join(str(v) for v in s) + "\n")

    def metrics(self):
        """Every per-layer metric as name -> (value, unit)."""
        calls = [0] * len(self.names)
        self_cpu = [0.0] * len(self.names)
        self_wait = [0.0] * len(self.names)
        totals = dict.fromkeys(COUNTS + _EXTRA, 0)
        for ids, times, counts in self._buffers:
            for key, val in counts.items():
                totals[key] += val
            for k in range(len(ids) // 4):
                idx = ids[4 * k + 2]
                cpu, wall = times[6 * k + 4], times[6 * k + 5]
                calls[idx] += 1
                self_cpu[idx] += cpu
                self_wait[idx] += max(wall - cpu, 0.0)
        values = {}
        for i, name in enumerate(self.names):
            values[f"{name}.calls"] = calls[i]
            values[f"{name}.self_cpu_s"] = self_cpu[i]
        for module in TRACED:
            m = metric_module(module)
            idxs = [i for i, n in enumerate(self.names) if n.startswith(m + ".")]
            values[f"{m}.self_cpu_s"] = sum(self_cpu[i] for i in idxs)
            values[f"{m}.wait_s"] = sum(self_wait[i] for i in idxs)
        for name in COUNTS:
            values[name] = totals[name]
        pieces = totals["maxaffine.prune.pieces_in"]
        values["maxaffine.prune.lp_per_piece"] = totals["lp_under_prune"] / pieces if pieces else 0.0
        wall = totals["suite_wall"]
        values["suites.run_suite.cpu_per_wall"] = totals["suite_cpu"] / wall if wall else 0.0
        units = metric_units()
        return {name: (values[name], units[name]) for name in values}


def metric_units():
    """name -> unit for every per-layer metric a traced run reports, in order."""
    units = {}
    for name in function_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_cpu_s"] = "s"
    for module in TRACED:
        units[f"{metric_module(module)}.self_cpu_s"] = "s"
        units[f"{metric_module(module)}.wait_s"] = "s"
    for name in COUNTS:
        units[name] = "B" if name.startswith("io.") else "count"
    units["maxaffine.prune.lp_per_piece"] = "ratio"
    units["suites.run_suite.cpu_per_wall"] = "ratio"
    units["trace.overhead_ratio"] = "ratio"
    return units


def _lp_cells(key):
    def count_cells(counts, args, kwargs, result):
        rows = args[0]
        counts[key] += len(rows) * (len(rows[0]) if rows else 0)
    return count_cells


def _count_prune(counts, args, kwargs, result):
    counts["maxaffine.prune.pieces_in"] += len(args[0].pieces)
    counts["maxaffine.prune.pieces_out"] += len(result.pieces)


def _count_polytope(counts, args, kwargs, result):
    self = args[0]
    vertices = args[2] if len(args) > 2 else kwargs["vertices"]
    if hasattr(vertices, "__len__"):
        counts["polytopes.Polytope.init.points_in"] += len(vertices)
    counts["polytopes.Polytope.init.vertices_out"] += len(self.vertices)


def _count_facets(counts, args, kwargs, result):
    counts["geometry.facet_enum.candidates"] += comb(len(args[0]), args[1])


def _count_hrep(counts, args, kwargs, result):
    ineqs, eqs, d = args
    rank_fn = getattr(sys.modules["convval.linalg"].matrix_rank, MARK, None)
    rank_fn = rank_fn or sys.modules["convval.linalg"].matrix_rank
    rank = rank_fn([list(c) for c, _ in eqs]) if eqs else 0
    need = d - rank
    counts["geometry.vertices_of_hrep.candidates"] += comb(len(ineqs), need) if need >= 0 else 0


def _count_bytes_out(counts, args, kwargs, result):
    counts["io.bytes_out"] += len(result.encode())


_COUNTERS = {
    "simplex.feasible_eq": _lp_cells("simplex.feasible_eq.cells"),
    "simplex.solve_eq": _lp_cells("simplex.solve_eq.cells"),
    "maxaffine.prune": _count_prune,
    "polytopes.Polytope.init": _count_polytope,
    "geometry.facet_enum": _count_facets,
    "geometry.vertices_of_hrep": _count_hrep,
    "io.dump_json": _count_bytes_out,
}


def installed_wrappers():
    """(owner, attribute) pairs in convval that still hold a tracer wrapper."""
    found = []
    for mod in _convval_modules():
        for key, val in vars(mod).items():
            if hasattr(val, MARK):
                found.append((mod.__name__, key))
            elif isinstance(val, type) and val.__module__.startswith("convval"):
                for attr, member in vars(val).items():
                    if hasattr(member, MARK):
                        found.append((f"{val.__module__}.{val.__name__}", attr))
    return found
