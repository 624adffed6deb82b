"""Per-layer tracing from outside the package.

``Tracer.install()`` replaces public functions of the layers with wrappers
and ``uninstall()`` puts the originals back.  Module functions are rebound
in every ``limdd`` module that imported them by value (``engine.mul``,
``diagram.rref``, ...), since a call through such a name would otherwise
escape the trace.  Methods are wrapped on their classes.

Two kinds of wrapper:

* spans time a call and keep self time (duration minus the time of the
  spans it encloses) on one shared stack, so recursion (``add``,
  ``make_edge``, ``get_stabilizer_gen_set``) is neither double-counted nor
  charged to its caller;
* counters only count, for hot tiny functions (``pauli.mul``) where a clock
  read would cost more than the call.

Time spent in a counted function is charged to the enclosing span.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (metric prefix, module, owner, attribute); owner None = module function
SPANS = (
    ("pauli.rref", "pauli", None, "rref"),
    ("diagram.get_stabilizer_gen_set", "diagram", "DiagramStore", "get_stabilizer_gen_set"),
    ("diagram.arg_lex_min", "diagram", "DiagramStore", "arg_lex_min"),
    ("diagram.intersect_stabilizer_groups", "diagram", "DiagramStore", "intersect_stabilizer_groups"),
    ("diagram.make_edge", "diagram", "DiagramStore", "make_edge"),
    ("engine.add", "engine", "Engine", "add"),
    ("engine.apply_gate", "engine", "Engine", "apply_gate"),
    ("engine.sample", "engine", "Engine", "sample"),
    ("engine.init", "engine", "Engine", "__init__"),
    ("circuit.build_engine", "circuit", None, "build_engine"),
)
COUNTERS = (
    ("pauli.mul", "pauli", None, "mul"),
    ("pauli.conjugate", "pauli", None, "conjugate"),
    ("pauli.string_kernel", "pauli", None, "string_kernel"),
    ("pauli.find_opposite", "pauli", None, "find_opposite"),
    ("diagram.root_label", "diagram", "DiagramStore", "root_label"),
    ("diagram.follow", "diagram", "DiagramStore", "follow"),
)
ROUTES = ("pauli", "s", "h", "cx_down", "cx_up", "cz", "t_top", "generic", "mcx")


def gate_route(eng, name: str, qubits: tuple) -> str:
    """The route ``Engine.run_gate`` dispatches a gate to (engine qubits)."""
    name = name.lower()
    if eng.mode == "qmdd":
        return "generic"
    if name in ("x", "y", "z", "i"):
        return "pauli"
    if name in ("s", "sdg"):
        return "s"
    if name == "h":
        return "h"
    if name == "t":
        return "t_top" if qubits[0] == eng.n else "generic"
    if name == "cx":
        return "cx_down" if qubits[0] > qubits[1] else "cx_up"
    if name == "cz":
        return "cz"
    raise ValueError(f"no route for gate {name!r}")


class Tracer:
    """Call counts, self and inclusive times of the wrapped functions, plus
    per-gate latency and the Adds each H gate cost."""

    def __init__(self):
        self.calls: dict = defaultdict(int)
        self.self_s: dict = defaultdict(float)
        self.incl_s: dict = defaultdict(float)    # outermost frames only
        self.gate_s: list = []                     # per-gate latency
        self.h_adds: list = []                     # (n, add_calls delta) per H
        self._stack = [0.0]                        # child time of open spans
        self._depth: dict = defaultdict(int)
        self._saved: list = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn):
        stack, calls, self_s, incl_s, depth = (
            self._stack, self.calls, self.self_s, self.incl_s, self._depth)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depth[name] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[name] += dt - stack.pop()
                stack[-1] += dt
                calls[name] += 1
                depth[name] -= 1
                if depth[name] == 0:
                    incl_s[name] += dt

        return wrapper

    def _counter(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _gate(self, fn, mcx: bool):
        stack, gate_s, h_adds, calls, incl_s = (
            self._stack, self.gate_s, self.h_adds, self.calls, self.incl_s)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(eng, *args):
            route = "mcx" if mcx else gate_route(eng, args[0], args[1:])
            is_h = not mcx and args[0].lower() == "h"
            adds0 = eng.stats.add_calls
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(eng, *args)
            finally:
                dt = clock() - t0
                stack.pop()
                stack[-1] += dt
                gate_s.append(dt)
                calls[f"engine.gate.{route}"] += 1
                incl_s[f"engine.gate.{route}"] += dt
                if is_h:
                    h_adds.append((eng.n, eng.stats.add_calls - adds0))

        return wrapper

    # -- installation -------------------------------------------------------

    def _replace(self, mod, owner: str | None, attr: str, wrapper) -> None:
        if owner is not None:
            cls = getattr(mod, owner)
            self._saved.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, wrapper)
            return
        orig = getattr(mod, attr)
        for other in list(sys.modules.values()):
            name = getattr(other, "__name__", "")
            if (name == "limdd" or name.startswith("limdd.")) and other.__dict__.get(attr) is orig:
                self._saved.append((other, attr, orig))
                setattr(other, attr, wrapper)

    def install(self) -> None:
        from limdd import circuit, diagram, engine, pauli

        mods = {"pauli": pauli, "diagram": diagram, "engine": engine, "circuit": circuit}
        for table, wrap in ((SPANS, self._span), (COUNTERS, self._counter)):
            for name, mod, owner, attr in table:
                home = getattr(mods[mod], owner) if owner else mods[mod]
                self._replace(mods[mod], owner, attr, wrap(name, getattr(home, attr)))
        self._replace(engine, "Engine", "run_gate", self._gate(engine.Engine.run_gate, mcx=False))
        self._replace(engine, "Engine", "run_mcx", self._gate(engine.Engine.run_mcx, mcx=True))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()
