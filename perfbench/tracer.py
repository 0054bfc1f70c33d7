"""Span tracer for the qmetro benchmark, installed from outside the package.

The tracer wraps selected public functions of the ``qmetro`` modules from
outside: it replaces the function object in *every* module namespace that
binds it (``ptm_from_kraus`` is imported by name into ``cli``, ``bounds`` and
``protocols``), records one span per call and restores
every original object on :meth:`Tracer.uninstall`.  Nothing under ``src/`` is
modified.

Spans are kept in memory and folded into per-function aggregates when a
traced round ends.  Each thread keeps its own span stack; a span opened on a
thread whose stack is empty (the ``ThreadPoolExecutor`` workers that
``cli.main`` hands each row to) takes as parent the innermost open span of
the thread that started the task, so worker time is charged to the task that
caused it and not to ``lock.acquire`` on the main thread.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from collections import defaultdict

MARKER = "__perfbench_span__"

# module -> functions whose calls and self time are reported
TRACED = {
    "cli": ("main",),
    "protocols": (
        "simulate_sequence",
        "sql_protocol",
        "spam_fi",
        "repeated_measurement",
        "qec_repetition_sim",
    ),
    "fisher_info": (
        "channel_qfi_ancilla",
        "channel_qfi_no_ancilla",
        "qfi_bloch",
        "qfi_state",
        "povm_fi",
        "eta_bound",
    ),
    "bounds": ("extension_bound", "nonunital_gauge", "bloch_inequality_check"),
    "channel_model": (
        "classify",
        "hnks_check",
        "rgnks_check",
        "canonical_pauli_form",
        "solve_h_annihilating",
        "dephasing_channel",
    ),
    "qubit_core": (
        "ptm_from_kraus",
        "validate_cptp",
        "choi_from_ptm",
        "apply_kraus",
        "pauli_decompose",
    ),
}

# work counters read from call arguments: counter -> (module, function, parameter, fold)
ARG_COUNTERS = {
    "protocols.channel_steps": ("protocols", "simulate_sequence", "n", int),
    "protocols.qec_steps": ("protocols", "qec_repetition_sim", "n", int),
    "bounds.recursion_steps": ("bounds", "extension_bound", "steps", len),
}

# counters derived from spans that ended in a given exception type
RAISE_COUNTERS = {
    "fisher_info.convergence_errors": ("fisher_info", "channel_qfi_ancilla", "ConvergenceError"),
}

# counters the benchmark records at the CLI boundary itself
BOUNDARY_COUNTERS = ("cli.rows_written",)

LAYERS = tuple(TRACED)
PACKAGE = "qmetro"


def per_layer_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit, in a stable order."""
    units = {}
    for layer, funcs in TRACED.items():
        for fn in funcs:
            units[f"{layer}.{fn}.calls"] = "count"
            units[f"{layer}.{fn}.self_s"] = "s"
    for counter in (*BOUNDARY_COUNTERS, *ARG_COUNTERS, *RAISE_COUNTERS):
        units[counter] = "count"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.raised"] = "count"
    units["trace.overhead_frac"] = "ratio"
    return units


def package_modules() -> list:
    """The package object and every loaded submodule, in a stable order."""
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def installed_wrappers() -> list[str]:
    """``module.attr`` of every tracer wrapper currently bound in the package."""
    found = []
    for mod in package_modules():
        for attr, obj in vars(mod).items():
            if getattr(obj, MARKER, None) is not None:
                found.append(f"{mod.__name__}.{attr}")
    return found


class _Span:
    __slots__ = ("key", "task", "t0", "t1", "raised", "children")

    def __init__(self, key, task, t0):
        self.key = key
        self.task = task
        self.t0 = t0
        self.t1 = None
        self.raised = None
        self.children = []


class Tracer:
    """Installs span-recording wrappers and aggregates what they record."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched = []  # (module, attr, original)
        self.wrapped = 0  # attributes the last install replaced
        self._roots = []
        self._task = None
        self._task_stack = None
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.raised = defaultdict(int)
        self.counters = defaultdict(float)
        self.orphans = 0  # spans recorded outside any task

    # -- installation ---------------------------------------------------------

    def install(self):
        """Wrap every listed function in every package namespace that binds it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        mods = package_modules()
        by_name = {m.__name__: m for m in mods}
        wrappers = {}
        for layer, funcs in TRACED.items():
            home = by_name[f"{PACKAGE}.{layer}"]
            for fn_name in funcs:
                original = getattr(home, fn_name)
                wrappers[id(original)] = (original, self._wrap(layer, fn_name, original))
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        self.wrapped = len(self._patched)

    def uninstall(self) -> list[str]:
        """Restore every wrapped attribute; returns the ones that did not restore."""
        bad = []
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        for mod, attr, original in self._patched:
            if getattr(mod, attr) is not original:
                bad.append(f"{mod.__name__}.{attr}")
        self._patched = []
        return sorted(set(bad + installed_wrappers()))

    def _wrap(self, layer, fn_name, fn):
        key = (layer, fn_name)
        arg_hooks = []
        for counter, (c_layer, c_fn, param, fold) in ARG_COUNTERS.items():
            if (c_layer, c_fn) == key:
                pos = list(inspect.signature(fn).parameters).index(param)
                arg_hooks.append((counter, pos, param, fold))
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(key)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.raised = type(exc).__name__
                raise
            finally:
                tracer._close(span)
            for counter, pos, param, fold in arg_hooks:
                value = args[pos] if len(args) > pos else kwargs[param]
                tracer.counters[counter] += fold(value)
            return result

        setattr(wrapper, MARKER, key)
        return wrapper

    # -- spans ----------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, key):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._task_stack:
            parent = self._task_stack[-1]  # span started on a worker thread
        else:
            parent = None
        span = _Span(key, self._task, time.perf_counter())
        with self._lock:
            if parent is None:
                self._roots.append(span)
            else:
                parent.children.append(span)
        stack.append(span)
        return span

    def _close(self, span):
        span.t1 = time.perf_counter()
        self._stack().pop()

    def begin_task(self, task_id):
        """Mark the calling thread as the one running ``task_id``."""
        self._task = task_id
        self._task_stack = self._stack()

    def end_task(self):
        self._task = None
        self._task_stack = None

    def count(self, counter: str, value: float):
        self.counters[counter] += value

    def fold(self):
        """Fold the spans recorded so far into the aggregates and drop them."""
        with self._lock:
            roots, self._roots = self._roots, []
        todo = list(roots)
        while todo:
            span = todo.pop()
            todo.extend(span.children)
            self.calls[span.key] += 1
            if span.task is None:
                self.orphans += 1
            self.self_s[span.key] += _self_time(span)
            if span.raised is not None:
                self.raised[span.key[0]] += 1
                for counter, (layer, fn_name, exc_name) in RAISE_COUNTERS.items():
                    if span.key == (layer, fn_name) and span.raised == exc_name:
                        self.counters[counter] += 1

    def metrics(self, rounds: int) -> dict:
        """Per-round aggregates under the names of :func:`per_layer_units`."""
        out = {}
        layer_self = defaultdict(float)
        for layer, funcs in TRACED.items():
            for fn_name in funcs:
                key = (layer, fn_name)
                out[f"{layer}.{fn_name}.calls"] = self.calls[key] / rounds
                out[f"{layer}.{fn_name}.self_s"] = self.self_s[key] / rounds
                layer_self[layer] += self.self_s[key]
        for counter in (*BOUNDARY_COUNTERS, *ARG_COUNTERS, *RAISE_COUNTERS):
            out[counter] = self.counters[counter] / rounds
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer] / rounds
            out[f"{layer}.raised"] = self.raised[layer] / rounds
        return out


def _self_time(span) -> float:
    """Span duration minus the part of its interval that child spans cover."""
    if not span.children:
        return span.t1 - span.t0
    covered = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted((c.t0, c.t1) for c in span.children):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    covered += cur_hi - cur_lo
    return max(span.t1 - span.t0 - covered, 0.0)
