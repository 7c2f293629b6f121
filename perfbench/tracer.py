"""Span tracing for the traced benchmark run, installed from outside the
package.

``Tracer.install()`` wraps every public module-level function of the qed51
modules that do work, plus ``scipy.integrate.quad``/``dblquad``/``solve_ivp``
and their callbacks, and rebinds every module global (and every
``cli.HANDLERS`` entry) that refers to a wrapped function, so calls made
through names imported with ``from .dirac import slash`` are traced too.
``uninstall()`` restores the originals.

A span is ``[name, start, end, parent, op_id, callback_s, callback_calls]``;
spans stay in memory until ``aggregate()`` turns them into per-layer metrics.  Self time
is span time minus child spans.  For a scipy span the time spent inside its
callbacks (qed51 integrands and right-hand sides) is taken out of the scipy
self time and credited to the qed51 function that called scipy.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

# constants and errors hold data and exception types only; they do no
# measurable work and are not wrapped.
TRACED_MODULES = ("dirac", "kinematics", "spinors", "propagators", "processes",
                  "hydrogen", "radiative", "wick", "cli")
SCIPY_FUNCS = ("quad", "dblquad", "solve_ivp")

_now = time.perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.counters = defaultdict(int)
        self.op_id = -1
        self._op_names: dict[str, int] = {}
        self._stack: list[int] = []
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _name_index(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _open(self, name_idx: int) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name_idx, _now(), 0.0, parent, self.op_id, 0.0, 0])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = _now()
        self._stack.pop()

    def begin_op(self, op_id: int, kind: str) -> None:
        self.op_id = op_id
        if kind not in self._op_names:
            self._op_names[kind] = self._name_index(f"op:{kind}")
        self._open(self._op_names[kind])

    def end_op(self) -> None:
        self._close(self._stack[-1])

    def wrap(self, name: str, fn, on_result=None):
        name_idx = self._name_index(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name_idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if on_result is not None:
                on_result(tracer, result)
            return result

        return traced

    def wrap_scipy(self, name: str, fn):
        """Wrap a scipy.integrate entry point and the callback passed as its
        first argument; count calls and callback evaluations."""
        name_idx = self._name_index(f"scipy.{name}")
        tracer = self
        evals_key = "numerics.ode_rhs_evals" if name == "solve_ivp" else "numerics.quad_evals"
        calls_key = "numerics.ode_solves" if name == "solve_ivp" else "numerics.quad_calls"

        @functools.wraps(fn)
        def traced(func, *args, **kwargs):
            idx = tracer._open(name_idx)
            rec = tracer.spans[idx]
            counters = tracer.counters

            def callback(*a):
                counters[evals_key] += 1
                rec[6] += 1
                t0 = _now()
                try:
                    return func(*a)
                finally:
                    rec[5] += _now() - t0

            counters[calls_key] += 1
            try:
                return fn(callback, *args, **kwargs)
            finally:
                tracer._close(idx)

        return traced

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr, value):
        had = attr in vars(owner)
        old = vars(owner).get(attr)
        setattr(owner, attr, value)
        self._undo.append((owner, attr, had, old))

    def install(self) -> None:
        import scipy.integrate as integrate

        modules = {name: importlib.import_module(f"qed51.{name}") for name in TRACED_MODULES}
        wrapped = {}   # id(original) -> wrapper
        for mod_name, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                hook = _RESULT_HOOKS.get(f"{mod_name}.{attr}")
                wrapped[id(obj)] = (obj, self.wrap(f"{mod_name}.{attr}", obj, hook))
        for fname in SCIPY_FUNCS:
            orig = getattr(integrate, fname)
            w = self.wrap_scipy(fname, orig)
            wrapped[id(orig)] = (orig, w)
            self._set(integrate, fname, w)
        # rebind every reference held by a package module
        for mod_name in [m for m in sys.modules if m == "qed51" or m.startswith("qed51.")]:
            mod = sys.modules[mod_name]
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])
        cli = modules["cli"]
        for key, fn in list(cli.HANDLERS.items()):
            self._set_item(cli.HANDLERS, key, self.wrap(f"cli.handler.{key}", fn))
        parse = cli._Parser.parse_args
        self._set(cli._Parser, "parse_args", self.wrap("cli.parse_args", parse))

    def _set_item(self, mapping, key, value):
        self._undo.append((mapping, key, True, mapping[key]))
        mapping[key] = value

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, had, old = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = old
            elif had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)


def _count_pairings(tracer, result):
    tracer.counters["wick.pairings_enumerated"] += len(result)


_RESULT_HOOKS = {"wick.enumerate_pairings": _count_pairings}


# ---------------------------------------------------------------------------
# Aggregation.

def self_times(tracer: Tracer):
    """Per-span self time, with scipy callback time credited to the caller."""
    spans = tracer.spans
    names = tracer.names
    self_s = [s[2] - s[1] for s in spans]
    child_s = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_s[s[3]] += s[2] - s[1]
    for i, s in enumerate(spans):
        self_s[i] -= child_s[i]
    for i, s in enumerate(spans):
        if names[s[0]].startswith("scipy."):
            own_callback = s[5] - child_s[i]   # callback time not in child spans
            self_s[i] = (s[2] - s[1]) - s[5]
            if s[3] >= 0:
                self_s[s[3]] += own_callback
    return self_s


def aggregate(tracer: Tracer, op_kinds: dict) -> dict:
    """Reduce the spans to JSON-ready totals.

    ``layers``: self time and call count per module (scipy as ``numerics``,
    benchmark code outside any wrapped call as ``bench``).  ``by_kind``: per
    op kind and span name, [calls, inclusive seconds, callback calls].
    """
    names = tracer.names
    self_s = self_times(tracer)
    layers = defaultdict(lambda: [0.0, 0])
    by_kind = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0]))
    for i, s in enumerate(tracer.spans):
        name = names[s[0]]
        if name.startswith("op:"):
            layer = "bench"
        elif name.startswith("scipy."):
            layer = "numerics"
        else:
            layer = name.split(".")[0]
        layers[layer][0] += self_s[i]
        layers[layer][1] += 1
        row = by_kind[op_kinds.get(s[4], "")][name]
        row[0] += 1
        row[1] += s[2] - s[1]
        row[2] += s[6]
    return {"layers": {k: list(v) for k, v in layers.items()},
            "by_kind": {k: {n: list(r) for n, r in v.items()} for k, v in by_kind.items()},
            "counters": dict(tracer.counters)}


def merge(total: dict, part: dict) -> dict:
    """Add one ``aggregate()`` result into another (both JSON-ready)."""
    for layer, (sec, calls) in part["layers"].items():
        row = total.setdefault("layers", {}).setdefault(layer, [0.0, 0])
        row[0] += sec
        row[1] += calls
    for kind, rows in part["by_kind"].items():
        dest = total.setdefault("by_kind", {}).setdefault(kind, {})
        for name, (calls, sec, cb) in rows.items():
            row = dest.setdefault(name, [0, 0.0, 0])
            row[0] += calls
            row[1] += sec
            row[2] += cb
    counters = total.setdefault("counters", {})
    for key, value in part["counters"].items():
        counters[key] = counters.get(key, 0) + value
    return total
