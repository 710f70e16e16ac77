"""Per-layer spans, recorded from outside the package.

:func:`install` rebinds every public module-level function of each layer
module (and ``numpy.linalg.solve``/``cond`` and ``warnings.warn``) to a
wrapper that records a span: name, start, end, parent.  Because modules
bind each other's functions at import (``from .scattering import scatter``),
every module attribute that *is* an original function is replaced, not only
the defining one.  Spans are held in flat arrays and written out by
:meth:`Tracer.dump`; :func:`layer_metrics` turns one or more dumps into the
per-layer figures.  A layer module or function that no longer exists is
simply not wrapped, and its figures read zero.

This module imports neither numpy nor the package at import time, so the
driver can aggregate dumps without loading either.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import json
import sys
import time
from pathlib import Path

PACKAGE = "afm_transducer"
LAYERS = (
    "cli", "config", "presets", "couplings", "magnon",
    "scattering", "closed_forms", "sweeps", "output", "invariants",
)
_NUMPY_WRAPPED = ("solve", "cond")
_MARK = "__perfbench_traced__"
# every PAIR_EVERY-th traced operation is repeated untraced right after it, so
# that the overhead is priced on the same inputs under the same machine load
PAIR_EVERY = 4


def _batch(args) -> int:
    """Number of matrices in a (possibly stacked) linalg argument."""
    shape = getattr(args[0], "shape", ()) if args else ()
    count = 1
    for n in shape[:-2]:
        count *= int(n)
    return count


def _size(result) -> int:
    return len(result) if isinstance(result, (bytes, str)) else 0


class Tracer:
    """Span store and the wrappers that fill it.

    Arrays hold one entry per span: name id, parent index (-1 at the top),
    start and end in perf-counter nanoseconds and a weight (matrices solved
    for linalg spans, bytes returned for output spans, else 1).
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self.weight = array.array("q")
        self.raised: list[tuple[int, str]] = []   # (span, exception type)
        self.warned: list[int] = []               # innermost span at each warning
        self._stack = [-1]
        self._bindings: list[tuple[object, str, object, object]] = []  # owner, attr, original, wrapper

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, weigh_args=None, weigh_result=None):
        nid = self._intern(name)
        name_id, parent, start, end, weight = (
            self.name_id, self.parent, self.start, self.end, self.weight
        )
        stack, raised, clock = self._stack, self.raised, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            weight.append(weigh_args(args) if weigh_args else 1)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                raised.append((idx, type(exc).__name__))
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if weigh_result is not None:
                weight[idx] = weigh_result(result)
            return result

        setattr(traced, _MARK, True)
        return traced

    def _wrap_warn(self, warn):
        stack, warned = self._stack, self.warned

        @functools.wraps(warn)
        def counted(message, category=None, stacklevel=1, source=None, **kwargs):
            warned.append(stack[-1])
            return warn(message, category, stacklevel + 1, source, **kwargs)

        setattr(counted, _MARK, True)
        return counted

    def _rebind(self, owner, attr: str, value) -> None:
        self._bindings.append((owner, attr, getattr(owner, attr), value))

    def install(self) -> int:
        """Wrap every layer function; return how many bindings were replaced."""
        import warnings

        import numpy.linalg

        wrappers = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                continue
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                weigh = _size if layer == "output" else None
                wrappers[id(obj)] = self.wrap(f"{layer}.{attr}", obj, weigh_result=weigh)
        for module_name, module in list(sys.modules.items()):
            if module_name != PACKAGE and not module_name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._rebind(module, attr, wrappers[id(obj)])
        for attr in _NUMPY_WRAPPED:
            fn = getattr(numpy.linalg, attr, None)
            if fn is not None:
                self._rebind(numpy.linalg, attr,
                             self.wrap(f"numpy.linalg.{attr}", fn, weigh_args=_batch))
        self._rebind(warnings, "warn", self._wrap_warn(warnings.warn))
        self.enable()
        return len(self._bindings)

    def enable(self) -> None:
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def disable(self) -> None:
        for owner, attr, original, _ in reversed(self._bindings):
            setattr(owner, attr, original)

    def uninstall(self) -> None:
        self.disable()
        self._bindings.clear()

    def dump(self, path: Path) -> None:
        """Write the spans as ``<path>.json`` (tables) and ``<path>.bin`` (arrays)."""
        header = {
            "names": self.names, "count": len(self.start),
            "raised": self.raised, "warned": self.warned,
        }
        Path(f"{path}.json").write_text(json.dumps(header))
        with open(f"{path}.bin", "wb") as fh:
            for arr in (self.name_id, self.parent, self.start, self.end, self.weight):
                arr.tofile(fh)


def count_wrapped() -> int:
    """Bindings in the loaded package (and numpy.linalg) that are wrappers."""
    modules = [m for n, m in list(sys.modules.items())
               if n == PACKAGE or n.startswith(PACKAGE + ".") or n == "numpy.linalg"]
    return sum(1 for m in modules for obj in vars(m).values() if getattr(obj, _MARK, False))


def load(path: Path) -> dict:
    header = json.loads(Path(f"{path}.json").read_text())
    n = header["count"]
    arrays = []
    with open(f"{path}.bin", "rb") as fh:
        for code in ("i", "i", "q", "q", "q"):
            arr = array.array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    header["name_id"], header["parent"], header["start"], header["end"], header["weight"] = arrays
    return header


PER_LAYER_NAMES = (
    "cli.self_ms", "config.self_ms", "config.calls",
    "presets.self_ms", "presets.assemble_calls",
    "couplings.self_ms", "couplings.calls", "magnon.self_ms", "magnon.calls",
    "scattering.self_ms", "scattering.build_dynamics_ms", "scattering.solve_ms",
    "scattering.cond_ms", "scattering.points", "scattering.ill_conditioned",
    "scattering.singular", "closed_forms.self_ms", "closed_forms.calls",
    "sweeps.self_ms", "output.self_ms", "output.bytes", "invariants.self_ms",
)


def layer_metrics(dumps: list[dict]) -> dict:
    """Self times, entry counts and layer counters summed over span dumps.

    A span's self time is its duration minus the durations of its direct
    children; a layer's ``calls`` counts spans entered from another layer.
    ``numpy.linalg`` spans feed the scattering solve/cond figures under a
    scattering span and count as their caller's self time elsewhere.
    Also returns ``optimizer_calls`` and ``optimizer_points`` for the
    solves-per-optimiser ratio.
    """
    total = dict.fromkeys(PER_LAYER_NAMES, 0.0)
    total["optimizer_calls"] = total["optimizer_points"] = 0
    for d in dumps:
        names = d["names"]
        layer_of = [name.split(".")[0] if not name.startswith("numpy.") else "numpy"
                    for name in names]
        name_id, parent, start, end, weight = (
            d["name_id"], d["parent"], d["start"], d["end"], d["weight"]
        )
        n = len(start)
        child = [0] * n
        span_layer = [""] * n
        under_optimizer = [False] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        for i in range(n):
            p, nid = parent[i], name_id[i]
            layer = layer_of[nid]
            span_layer[i] = layer
            name = names[nid]
            parent_layer = span_layer[p] if p >= 0 else ""
            under_optimizer[i] = (p >= 0 and under_optimizer[p]) or name.endswith(
                ".find_optimal_thickness")
            duration = end[i] - start[i]
            if layer == "numpy":
                if parent_layer == "scattering":
                    key = "scattering.solve_ms" if name.endswith(".solve") else "scattering.cond_ms"
                    total[key] += duration / 1e6
                    if name.endswith(".solve"):
                        total["scattering.points"] += weight[i]
                        if under_optimizer[i]:
                            total["optimizer_points"] += weight[i]
                elif parent_layer in LAYERS:
                    total[f"{parent_layer}.self_ms"] += duration / 1e6
                continue
            total[f"{layer}.self_ms"] += (duration - child[i]) / 1e6
            entered = parent_layer != layer
            if entered and f"{layer}.calls" in total:
                total[f"{layer}.calls"] += 1
            if name == "presets.assemble":
                total["presets.assemble_calls"] += 1
            elif name == "scattering.build_dynamics":
                total["scattering.build_dynamics_ms"] += duration / 1e6
            elif name == "sweeps.find_optimal_thickness":
                total["optimizer_calls"] += 1
            if layer == "output" and entered:
                total["output.bytes"] += weight[i]
        for idx, exc_name in d["raised"]:
            p = parent[idx]
            if (exc_name == "SingularMatrixError" and span_layer[idx] == "scattering"
                    and (p < 0 or span_layer[p] != "scattering")):
                total["scattering.singular"] += 1
        for idx in d["warned"]:
            if idx >= 0 and span_layer[idx] == "scattering":
                total["scattering.ill_conditioned"] += 1
    return total
