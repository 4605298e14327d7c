"""Outside-in tracer for godeaux3: per-layer spans and exact work counters.

The tracer never edits the package.  ``install`` replaces every public
function of each layer module with a wrapper, in every ``godeaux3`` namespace
that binds it (module globals and module-level dicts such as
``fibration.ALL_DELTA_ELIMINATIONS``), so a ``from .plane import ...`` call
made inside ``delpezzo`` is still attributed to ``plane``.  ``uninstall`` puts
the original objects back.

A span opens only where a call crosses from one layer into another; a call
from a layer into itself runs inside the caller's span, so same-layer nesting
counts once.  A layer's self time is its span durations minus the parts its
child spans cover.  Node runners get their own spans under ``prooftree``
(through ``ProofNode.run``).  The two hot methods, ``IntersectionLattice.dot``
and ``PlaneCurve.dot``, get counters only, because a span on every product
would swamp the run.

A hook point that no longer exists (a renamed function, a removed class) is
left out of ``hooks``; metrics built on it are reported as missing.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import Counter
from functools import wraps
from time import perf_counter_ns

LAYERS = ("cli", "lattice", "cover", "pencil", "adjoint", "fibration", "plane",
          "delpezzo", "ruled", "prooftree", "report")

# metric name -> (layer, class, method): counted, never spanned
COUNTED_METHODS = {
    "lattice.dot_calls": ("lattice", "IntersectionLattice", "dot"),
    "plane.curve_dot_calls": ("plane", "PlaneCurve", "dot"),
}

# (layer, class, method) given a span of their own
SPANNED_METHODS = (("prooftree", "ProofNode", "run"), ("report", "Report", "to_text"))

# functions whose distinct argument sets per op are tracked (useful / attempted)
DISTINCT_ARGS = ("pencil.enumerate_pencil_cases",)


class Tracer:
    """Span and counter bookkeeping; one instance per traced process."""

    def __init__(self) -> None:
        self.self_ns: Counter = Counter()      # layer -> self time
        self.calls: Counter = Counter()        # layer -> entries from another layer
        self.failed: Counter = Counter()       # layer -> exceptions out of a span
        self.fn_calls: Counter = Counter()     # "layer.name" -> every call, nested too
        self.fn_incl_ns: Counter = Counter()   # "layer.name" -> span durations
        self.fn_self_ns: Counter = Counter()   # "layer.name" -> span self times
        self.node_ns: Counter = Counter()      # node id -> span durations
        self.distinct: Counter = Counter()     # "layer.name" -> distinct arg sets, summed per op
        self.hooks: set[str] = set()
        self._op_args: dict[str, set] = {key: set() for key in DISTINCT_ARGS}
        self._stack: list[list] = []           # open spans: [layer, child_ns]
        self._patches: list[tuple] = []        # (container, key, original, is_attr)

    # -- per-op bookkeeping ------------------------------------------------------

    def end_op(self) -> None:
        """Close the current op: fold its distinct-argument sets into the totals."""
        for key, seen in self._op_args.items():
            self.distinct[key] += len(seen)
            seen.clear()

    def snapshot(self) -> dict:
        return {
            "self_ns": dict(self.self_ns), "calls": dict(self.calls),
            "failed": dict(self.failed), "fn_calls": dict(self.fn_calls),
            "fn_incl_ns": dict(self.fn_incl_ns), "fn_self_ns": dict(self.fn_self_ns),
            "node_ns": dict(self.node_ns), "distinct": dict(self.distinct),
            "hooks": sorted(self.hooks),
        }

    # -- wrappers ----------------------------------------------------------------

    def _span(self, layer: str, key: str, fn, node_of=None):
        stack = self._stack
        fn_calls = self.fn_calls
        seen = self._op_args.get(key)
        signature = inspect.signature(fn) if seen is not None else None

        @wraps(fn)
        def wrapper(*args, **kwargs):
            fn_calls[key] += 1
            if seen is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                seen.add(tuple(bound.arguments.items()))
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0]
            stack.append(frame)
            self.calls[layer] += 1
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.failed[layer] += 1
                raise
            finally:
                took = perf_counter_ns() - start
                stack.pop()
                own = took - frame[1]
                self.self_ns[layer] += own
                self.fn_incl_ns[key] += took
                self.fn_self_ns[key] += own
                if node_of is not None:
                    self.node_ns[node_of(args)] += took
                if stack:
                    stack[-1][1] += took

        return wrapper

    def _counter(self, key: str, fn):
        fn_calls = self.fn_calls

        @wraps(fn)
        def wrapper(*args, **kwargs):
            fn_calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / uninstall -----------------------------------------------------

    def _patch(self, container, key, new, is_attr: bool) -> None:
        old = getattr(container, key) if is_attr else container[key]
        self._patches.append((container, key, old, is_attr))
        if is_attr:
            setattr(container, key, new)
        else:
            container[key] = new

    def install(self) -> None:
        for layer in LAYERS:
            try:
                importlib.import_module(f"godeaux3.{layer}")
            except ImportError:
                continue  # a layer removed by a refactor: its metrics go missing
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "godeaux3" or name.startswith("godeaux3."))]

        wrapped = {}  # original function -> wrapper
        for layer in LAYERS:
            mod = sys.modules.get(f"godeaux3.{layer}")
            if mod is None:
                continue
            self.hooks.add(layer)
            for name, obj in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                key = f"{layer}.{name}"
                self.hooks.add(key)
                if inspect.isgeneratorfunction(obj):
                    wrapped[obj] = self._counter(key, obj)  # a span would end at creation
                else:
                    wrapped[obj] = self._span(layer, key, obj)

        for mod in modules:
            for name, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._patch(mod, name, wrapped[value], True)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if inspect.isfunction(v) and v in wrapped:
                            self._patch(value, k, wrapped[v], False)

        for metric, (layer, cls_name, meth) in COUNTED_METHODS.items():
            cls = getattr(sys.modules.get(f"godeaux3.{layer}"), cls_name, None)
            if cls is not None and inspect.isfunction(vars(cls).get(meth)):
                self.hooks.add(metric)
                self._patch(cls, meth, self._counter(metric, vars(cls)[meth]), True)

        for layer, cls_name, meth in SPANNED_METHODS:
            cls = getattr(sys.modules.get(f"godeaux3.{layer}"), cls_name, None)
            if cls is None or not inspect.isfunction(vars(cls).get(meth)):
                continue
            key = f"{layer}.{cls_name}.{meth}"
            self.hooks.add(key)
            node_of = (lambda args: args[0].id) if (cls_name, meth) == ("ProofNode", "run") else None
            self._patch(cls, meth, self._span(layer, key, vars(cls)[meth], node_of), True)

    def uninstall(self) -> None:
        while self._patches:
            container, key, old, is_attr = self._patches.pop()
            if is_attr:
                setattr(container, key, old)
            else:
                container[key] = old


def merge(snapshots: list[dict]) -> dict:
    """Sum a list of snapshots (one per traced child process)."""
    out: dict = {}
    for snap in snapshots:
        for field, value in snap.items():
            if field == "hooks":
                out["hooks"] = sorted(set(out.get("hooks", ())) | set(value))
                continue
            acc = out.setdefault(field, Counter())
            acc.update(value)
    return out
