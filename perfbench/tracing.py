"""Layer spans and counters, recorded by wrapping the program from outside.

``Tracer.install()`` replaces each layer function below with a wrapper that
records a span (name, start, end, parent, operation id) and, for some
layers, a work count taken from the arguments.  Modules import names
directly (``cli`` holds its own ``koszul_reduce``, ``numerics`` its own
``csum``), so every module and class namespace of the package that holds the
original object is patched, not only the defining one.  ``uninstall()`` puts
the originals back.  Spans stay in memory until ``save()``.

A span's self time is its duration minus the time covered by its child
spans; in one thread the children of a span are disjoint, so that is their
summed duration.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

import numpy as np

# (layer metric prefix, module, attribute); a class attribute is "Class.name".
SPANS = (
    ("cli.main", "cli", "main"),
    ("syntax.parse", "syntax", "parse"),
    ("syntax.format_operator", "syntax", "format_operator"),
    ("ore.mul", "ore", "OreOperator.__mul__"),
    ("ore.normalize", "ore", "normalize"),
    ("transform.mellin_op", "transform", "mellin_op"),
    ("transform.inverse_mellin_op", "transform", "inverse_mellin_op"),
    ("transform.apply_difference", "transform", "apply_difference"),
    ("transform.apply_difference_terms", "transform", "apply_difference_terms"),
    ("shiftpoly.shift", "shiftpoly", "ShiftPolynomial.shift"),
    ("shiftpoly.mul", "shiftpoly", "ShiftPolynomial.__mul__"),
    ("series.shift_cycle", "series", "shift_cycle"),
    ("koszul.koszul_reduce", "koszul", "koszul_reduce"),
    ("koszul.solve_zero", "koszul", "solve_zero"),
    ("koszul.solve_inf", "koszul", "solve_inf"),
    ("koszul.induced_action_congruence", "koszul", "induced_action_congruence"),
    ("testfunctions.build_builtin", "testfunctions", "build_builtin"),
    ("testfunctions.eval", "testfunctions", "TestFunction.__call__"),
    ("quadrature.csum", "quadrature", "csum"),
    ("quadrature.panel_nodes", "quadrature", "panel_nodes"),
    ("numerics.moment_table", "numerics", "moment_table"),
    ("numerics.stokes_identity_check", "numerics", "stokes_identity_check"),
    ("numerics.asymptotic_remainder_check", "numerics", "asymptotic_remainder_check"),
    ("numerics.haar_integral", "numerics", "haar_integral"),
    ("numerics.convolution_remainder", "numerics", "convolution_remainder"),
    ("numerics.cauchy_convolve", "numerics", "cauchy_convolve"),
    ("numerics.epsilon_commutation_check", "numerics", "epsilon_commutation_check"),
    ("numerics.verify_commutation", "numerics", "verify_commutation"),
    ("numerics.ray_mellin", "numerics", "ray_mellin"),
    ("numerics.parameter_expansion", "numerics", "parameter_expansion"),
)

# Work carried by the arguments of some spans: prefix -> (work name, count).
WORK = {
    "testfunctions.eval": ("points", lambda args: np.size(args[1])),
    "quadrature.csum": ("values", lambda args: np.size(args[0])),
}

# Constructions counted without a span: (counter name, module, attribute).
COUNTS = (
    ("shiftpoly.new.calls", "shiftpoly", "ShiftPolynomial.__init__"),
    ("series.new.calls", "series", "TailSeries.__init__"),
    ("numerics.quadrature_failures", "errors", "QuadratureFailure.__init__"),
)


def _resolve(module, attr):
    """(owner, attribute name, current value) for "Class.name" or "name" in a module."""
    owner = importlib.import_module(f"mellinops.{module}")
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, getattr(owner, name)


def _namespaces():
    """Every module and class dictionary of the package, as patchable owners."""
    seen = []
    for modname, module in list(sys.modules.items()):
        if modname != "mellinops" and not modname.startswith("mellinops."):
            continue
        seen.append(module)
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__.startswith("mellinops"):
                if value not in seen:
                    seen.append(value)
    return seen


class Tracer:
    def __init__(self):
        self.names = [prefix for prefix, _, _ in SPANS]
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.work = dict.fromkeys(WORK, 0)
        self.counts = dict.fromkeys((name for name, _, _ in COUNTS), 0)
        self.op_id = 0
        self._stack = [-1]
        self._patches = []

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, fn, nid, prefix):
        name, start, end, parent, op, stack = (
            self.name, self.start, self.end, self.parent, self.op, self._stack)
        clock = time.perf_counter
        measure = WORK.get(prefix, (None, None))[1]
        work = self.work

        def wrapper(*args, **kwargs):
            if measure is not None:
                work[prefix] += int(measure(args))
            i = len(start)
            name.append(nid)
            parent.append(stack[-1])
            op.append(self.op_id)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return wrapper

    def _count_wrapper(self, fn, key):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching -------------------------------------------------------------

    def install(self):
        targets = [(*_resolve(module, attr), lambda fn, nid=nid, prefix=prefix:
                    self._span_wrapper(fn, nid, prefix))
                   for nid, (prefix, module, attr) in enumerate(SPANS)]
        targets += [(*_resolve(module, attr), lambda fn, key=key: self._count_wrapper(fn, key))
                    for key, module, attr in COUNTS]
        replacements = {}
        for owner, name, fn, wrap in targets:
            if isinstance(owner, type) and name not in vars(owner):
                # inherited (QuadratureFailure.__init__ is Exception's): shadow it
                self._patch(owner, name, wrap(fn))
            else:
                replacements[id(fn)] = (fn, wrap(fn))
        for owner in _namespaces():
            for key, value in list(vars(owner).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(owner, key, hit[1])

    def _patch(self, owner, key, value):
        had = key in vars(owner)
        self._patches.append((owner, key, vars(owner).get(key), had))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, value, had in reversed(self._patches):
            if had:
                setattr(owner, key, value)
            else:
                delattr(owner, key)
        self._patches.clear()

    # -- results ----------------------------------------------------------------

    def _arrays(self):
        return (np.array(self.name, dtype=np.intp), np.array(self.parent, dtype=np.intp),
                np.array(self.start, dtype=float), np.array(self.end, dtype=float))

    def layer_totals(self):
        """Per layer: call count and summed self time; plus layer coverage.

        Coverage is the share of ``cli.main`` time that the layer spans
        below it account for, that is, 1 - its self time over its duration.
        """
        name, parent, start, end = self._arrays()
        dur = end - start
        inner = parent >= 0
        child = np.bincount(parent[inner], weights=dur[inner], minlength=len(dur))
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        selfs = np.bincount(name, weights=self_time, minlength=k)
        totals = {n: (int(calls[i]), float(selfs[i])) for i, n in enumerate(self.names)}
        main = name == self.names.index("cli.main")
        main_s = float(dur[main].sum())
        coverage = 1.0 - float(self_time[main].sum()) / main_s if main_s else 0.0
        return totals, coverage

    def summary(self, cache_hits, cache_misses):
        """Plain totals for the parent process; cache counts are passed in."""
        totals, coverage = self.layer_totals()
        return {"totals": totals, "coverage": coverage, "work": dict(self.work),
                "counts": dict(self.counts), "mono_mul": (cache_hits, cache_misses)}

    def save(self, path):
        name, parent, start, end = self._arrays()
        np.savez(path, name=name, parent=parent, start=start, end=end,
                 op=np.array(self.op, dtype=np.intp), names=np.asarray(self.names))
