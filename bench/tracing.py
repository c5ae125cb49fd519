"""Tracing of qint from outside: wrap each layer's public callables by
rebinding module and class attributes, then put the originals back.

Per-step calls are aggregated in memory by (callee, caller), so a million
steps cost a few dict updates each and no span objects. Only the top-level
calls (the workload, each suite check, each integration) are kept one by one
as spans.
"""

import inspect
import sys
import time
from contextlib import contextmanager

# The modules of src/qint/, in dependency order. errors does no work.
LAYERS = ("quaternion", "functions", "slices", "differential", "paths",
          "integrate", "verify", "suite", "cli")

# Class attributes wrapped besides the public methods: constructors count
# allocations, operators are the Hamilton arithmetic.
_DUNDERS = ("__init__", "__add__", "__sub__", "__mul__", "__rmul__", "__neg__")

# Calls whose `steps` argument is the number of staircase or quadrature
# steps they take; their sum is the denominator of every per-step figure.
STEP_CALLS = ("integrate.integrate", "integrate.integrate_slice_quadrature",
              "integrate.integrate_with_branch_tracking", "verify.by_parts_residual")


def _is_span(name: str) -> bool:
    return (name == "cli.main" or name.startswith("suite.check_")
            or name in STEP_CALLS or name == "integrate.convergence_study")


def layer_callables() -> list[tuple[str, object, str, object]]:
    """(name, owner, attribute, original) for every public function and
    method that each layer module defines."""
    out = []
    for layer in LAYERS:
        mod = sys.modules[f"qint.{layer}"]
        for attr, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__ or attr.startswith("_"):
                continue
            if inspect.isfunction(obj):
                out.append((f"{layer}.{attr}", mod, attr, obj))
            elif inspect.isclass(obj):
                for meth, fn in vars(obj).items():
                    if inspect.isfunction(fn) and (not meth.startswith("_") or meth in _DUNDERS):
                        out.append((f"{layer}.{attr}.{meth}", obj, meth, fn))
    return out


class Tracer:
    """Call counts and times per (callee, caller), plus top-level spans."""

    def __init__(self):
        # frames: [callee, time in wrapped callees] and, for spans, the span id
        self.stack: list[list] = []
        self.calls: dict[tuple[str, str | None], list] = {}  # -> [count, total_s, child_s]
        self.spans: list[dict] = []
        self.steps = 0

    def wrap(self, name: str, fn):
        stack, calls, clock = self.stack, self.calls, time.perf_counter
        span = _is_span(name)
        steps_of = _steps_reader(fn) if name in STEP_CALLS else None

        def wrapper(*args, **kwargs):
            caller = stack[-1][0] if stack else None
            frame = [name, 0.0]
            if span:
                parent = next((f[2] for f in reversed(stack) if len(f) > 2), None)
                rec = {"id": len(self.spans), "name": name, "parent": parent}
                self.spans.append(rec)
                frame.append(rec["id"])
            if steps_of is not None and not any(f[0] in STEP_CALLS for f in stack):
                self.steps += steps_of(args, kwargs)
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                if span:
                    rec["start"], rec["end"] = t0, t1
                entry = calls.get((name, caller))
                if entry is None:
                    calls[(name, caller)] = [1, dt, frame[1]]
                else:
                    entry[0] += 1
                    entry[1] += dt
                    entry[2] += frame[1]

        return wrapper

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: wrapped calls into it and its self time (time inside
        its calls minus the time their wrapped callees took)."""
        out = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for (callee, _caller), (count, total, child) in self.calls.items():
            row = out[callee.split(".", 1)[0]]
            row["calls"] += count
            row["self_s"] += total - child
        return out

    def count(self, match) -> int:
        """Calls to every callee whose name satisfies match(name)."""
        return sum(e[0] for (name, _), e in self.calls.items() if match(name))


def _steps_reader(fn):
    sig = inspect.signature(fn)

    def read(args, kwargs) -> int:
        return int(sig.bind(*args, **kwargs).arguments["steps"])
    return read


@contextmanager
def patched(wrappers: dict):
    """Rebind every reference to each original callable, in every qint module
    namespace, class and module-level tuple (the suite's check lists), to its
    wrapper; restore them all on exit."""
    undo = []
    try:
        for owner, attr, original, wrapper in wrappers.values():
            if inspect.isclass(owner):
                undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)
        by_id = {id(orig): wrapper for _o, _a, orig, wrapper in wrappers.values()}
        for modname, mod in list(sys.modules.items()):
            if modname != "qint" and not modname.startswith("qint."):
                continue
            for attr, val in list(vars(mod).items()):
                if id(val) in by_id:
                    undo.append((mod, attr, val))
                    setattr(mod, attr, by_id[id(val)])
                elif isinstance(val, tuple) and any(id(v) in by_id for v in val):
                    undo.append((mod, attr, val))
                    setattr(mod, attr, tuple(by_id.get(id(v), v) for v in val))
        yield
    finally:
        for owner, attr, val in reversed(undo):
            setattr(owner, attr, val)


@contextmanager
def traced(tracer: Tracer, only=None):
    """Trace every layer callable, or only those whose name is in `only`."""
    wrappers = {}
    for name, owner, attr, fn in layer_callables():
        if only is None or name in only:
            wrappers[name] = (owner, attr, fn, tracer.wrap(name, fn))
    with patched(wrappers):
        yield tracer
