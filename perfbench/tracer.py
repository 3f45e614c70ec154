"""Outside-in span tracer for the pathfv layers.

The tracer wraps, from outside the package, every public function and
public method of the layer modules, plus a few named private functions
that per-layer metrics need.  It then replaces every module-level binding
of a wrapped function, so aliases made by ``from .x import y`` (for
example ``pathfv.schemes.solve_characteristic_quartic`` or
``pathfv.experiments._curve_distance``) and the ``pathfv`` re-exports
record spans too.  ``install`` fails if any binding of a wrapped function
is left unpatched, so a missed alias cannot read as zero calls.

Spans are kept in flat arrays in memory (name, start, end, parent span)
and written out with the run id once the run ends.  One process traces one
run on one thread, so the span stack needs no lock.
"""

import functools
import importlib
import sys
import types
from array import array
from time import perf_counter

import numpy as np

LAYERS = (
    "experiments",
    "schemes",
    "systems",
    "paths",
    "quadrature",
    "riemann",
    "hugoniot",
    "diagnostics",
)

# Private functions traced because a per-layer metric is defined on them.
PRIVATE = {
    "experiments": ("_write_json", "_write_manifest"),
    "hugoniot": ("_newton_free_state",),
}

# Module-level bindings of functions from outside the package.  The
# bracketed root finder is the exact Riemann solver's fallback path.
FOREIGN = {"riemann": ("brentq",)}


def _states(args, kwargs):
    """Number of quartics solved by one batched call."""
    return float(np.broadcast(*[np.asarray(a) for a in args[:5]]).size)


def _cells(args, kwargs):
    """Cells advanced by one ``advance(sol, dt, ...)`` call."""
    return float(args[1].grid.m)


def _pairs(args, kwargs):
    """State pairs handed to one ``closed_form_integral(system, u_l, u_r)``."""
    u_l = np.asarray(args[2])
    return float(u_l.size // u_l.shape[-1])


def _interfaces(args, kwargs):
    """Interfaces handed to one ``fluctuations(UL, UR, dx, dt)`` call."""
    ul = np.asarray(args[1])
    return float(ul.size // ul.shape[-1])


def _measure_for(name):
    """Quantity recorded per span, chosen by span name (None for most)."""
    if name == "systems.solve_characteristic_quartic":
        return _states
    if name.startswith("schemes.") and name.endswith(".advance"):
        return _cells
    if name.startswith("paths.") and name.endswith(".closed_form_integral"):
        return _pairs
    if name == "schemes.GodunovScheme.fluctuations":
        return _interfaces
    return None


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.qty = array("d")
        self.failed = array("i")
        self._stack = [-1]

    def _wrap(self, fn, name):
        sid = len(self.names)
        self.names.append(name)
        measure = _measure_for(name)
        stack = self._stack
        name_of, parent = self.name_of.append, self.parent.append
        start, end, qty = self.start, self.end, self.qty
        failed = self.failed.append

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_of(sid)
            parent(stack[-1])
            start.append(0.0)
            end.append(0.0)
            qty.append(measure(args, kwargs) if measure is not None else 0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed(idx)
                raise
            finally:
                end[idx] = perf_counter()
                start[idx] = t0
                stack.pop()

        return functools.wraps(fn)(wrapper)

    def install(self):
        """Wrap the layers and patch every binding of the wrapped functions."""
        modules = {layer: importlib.import_module(f"pathfv.{layer}") for layer in LAYERS}
        wrapped = {}  # id(original) -> (original, wrapper)
        owners = []  # (owner object, attribute, original)
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                    if not attr.startswith("_") or attr in PRIVATE.get(layer, ()):
                        wrapped[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    for mname, meth in list(vars(obj).items()):
                        if isinstance(meth, types.FunctionType) and not mname.startswith("_"):
                            owners.append((obj, mname, meth))
                            wrapped[id(meth)] = (
                                meth, self._wrap(meth, f"{layer}.{obj.__name__}.{mname}")
                            )
            for attr in FOREIGN.get(layer, ()):
                obj = getattr(mod, attr)
                wrapped[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
        for owner, mname, meth in owners:
            setattr(owner, mname, wrapped[id(meth)][1])
        package = [m for n, m in sys.modules.items()
                   if m is not None and (n == "pathfv" or n.startswith("pathfv."))]
        for mod in package:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        missed = [
            f"{mod.__name__}.{attr}"
            for mod in package
            for attr, obj in vars(mod).items()
            if id(obj) in wrapped and wrapped[id(obj)][0] is obj
        ]
        if missed:
            raise RuntimeError(f"tracer left bindings unpatched: {missed}")

    def save(self, path):
        """Write the span names, the run id and one array per span field."""
        np.savez(
            path,
            names=np.array(self.names),
            run_id=np.array(self.run_id),
            name=np.frombuffer(self.name_of, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            qty=np.frombuffer(self.qty, dtype=np.float64),
            failed=np.frombuffer(self.failed, dtype=np.int32),
        )


class SpanTable:
    """Self times and grouped sums over one run's spans."""

    def __init__(self, names, spans):
        self.names = list(names)
        self.name = spans["name"]
        self.parent = spans["parent"]
        self.dur = spans["end"] - spans["start"]
        self.qty = spans["qty"]
        n = self.name.size
        self.failed = np.zeros(n, dtype=bool)
        self.failed[spans["failed"]] = True
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                            minlength=n)
        self.self_time = self.dur - child
        self.layer = np.array([nm.split(".", 1)[0] for nm in self.names])[self.name] \
            if n else np.array([], dtype=str)

    def select(self, match):
        """Mask of spans whose name satisfies ``match(name)``."""
        ids = [i for i, nm in enumerate(self.names) if match(nm)]
        return np.isin(self.name, ids)

    def outermost(self, mask):
        """Spans in ``mask`` with no ancestor in ``mask`` (no double counting)."""
        covered = np.zeros(mask.size, dtype=bool)
        cur = self.parent.copy()
        while True:
            live = cur >= 0
            if not live.any():
                break
            covered[live] |= mask[cur[live]]
            cur[live] = self.parent[cur[live]]
        return mask & ~covered

    def count(self, mask):
        return int(mask.sum())

    def inclusive(self, mask):
        return float(self.dur[self.outermost(mask)].sum())

    def self_sum(self, mask):
        return float(self.self_time[mask].sum())

    def layer_self(self, layer):
        return float(self.self_time[self.layer == layer].sum())
