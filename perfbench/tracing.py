"""Spans around calls into qcausal's public functions, recorded from outside.

Each listed function is wrapped in every qcausal module namespace that holds
it (``cli`` and ``sampling`` both import ``nearest_product_unitary`` by name,
for example); methods are wrapped on their class.  A span is (name, start,
end, parent span, operation id).  Spans are kept in flat arrays in memory and
written out once, when the run ends.  A function's self time is its span's
duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

#: The functions traced, by module.  ``Class.method`` names a method.
LAYERS = {
    "cli": ("run", "emit_csv"),
    "channels": (
        "KrausChannel.apply",
        "KrausChannel.__init__",
        "KrausChannel.from_json",
        "embed_local",
        "mix",
        "kraus_to_choi",
        "zoo",
    ),
    "causality": (
        "semicausal_defect",
        "SorkinScenario.__post_init__",
        "is_local_channel",
        "is_supported_on",
        "sorkin_violation",
        "operator_schmidt_values",
        "is_causal_unitary",
        "nearest_product_unitary",
        "perturbation_probe",
    ),
    "tensor": (
        "embed_operator",
        "partial_trace",
        "realign",
        "polar_unitary",
        "hermitian_basis",
        "check_density",
        "trace_norm",
    ),
    "sampling": (
        "haar_unitary",
        "haar_local_unitary",
        "random_sorkin_scenario",
        "random_kraus_channel",
        "measure_zero_experiment",
    ),
    "lattice": (
        "build_scenario",
        "pauli_jordan",
        "sorkin_chain",
        "signalling_derivative",
    ),
    "_kernels": ("impulse_response",),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


def metric_name(span_name: str) -> str:
    """Metric names must start with a letter, so ``_kernels`` becomes ``kernels``."""
    return span_name.lstrip("_")


#: Per-layer counters that are not span totals: (name, unit, better).
EXTRA_METRICS = (
    ("causality.nearest_product_unitary.iterations", "count/call", "lower"),
    ("causality.nearest_product_unitary.converged_frac", "ratio", "higher"),
    ("lattice.base_table.hit_ratio", "ratio", "higher"),
    ("kernels.impulse_response.site_updates", "count/op", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def per_layer_metrics():
    """(name, unit, better) of every per-layer metric, in output order."""
    out = []
    for name in map(metric_name, SPAN_NAMES):
        out.append((f"{name}.calls", "count/op", "lower"))
        out.append((f"{name}.self_s", "s/op", "lower"))
    return out + list(EXTRA_METRICS)


def _base_table_info():
    from qcausal.lattice import _base_table

    return _base_table.cache_info()


class Tracer:
    """Installs span-recording wrappers and turns the spans into metrics."""

    def __init__(self):
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.op_id = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.iterations = 0
        self.converged = 0
        self.site_updates = 0
        self.table_hits = self.table_misses = 0

    # -- recording ---------------------------------------------------------

    def _wrap(self, index: int, fn):
        clock = time.perf_counter
        start, end, name, parent, op = (
            self.start, self.end, self.name, self.parent, self.op,
        )
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            name.append(index)
            parent.append(stack[-1] if stack else -1)
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

    def _observed(self, qualname: str, fn):
        """Add the counters that need a call's arguments or result."""
        if qualname == "causality.nearest_product_unitary":

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                res = fn(*args, **kwargs)
                self.iterations += res.iterations
                self.converged += bool(res.converged)
                return res

            return wrapper
        if qualname == "_kernels.impulse_response":

            @functools.wraps(fn)
            def wrapper(n_sites, n_steps, mass):
                self.site_updates += int(n_sites) * int(n_steps)
                return fn(n_sites, n_steps, mass)

            return wrapper
        return fn

    def _set(self, owner, attr: str, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every listed function wherever qcausal holds it."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [
            m
            for n, m in list(sys.modules.items())
            if m is not None and (n == "qcausal" or n.startswith("qcausal."))
        ]
        for index, qualname in enumerate(SPAN_NAMES):
            mod_name, attr = qualname.split(".", 1)
            mod = importlib.import_module(f"qcausal.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(index, raw.__func__))
                else:
                    wrapped = self._wrap(index, raw)
                self._set(cls, meth, wrapped)
                continue
            original = getattr(mod, attr)
            wrapped = self._wrap(index, self._observed(qualname, original))
            holders = [m for m in modules if m.__dict__.get(attr) is original]
            if mod not in holders:
                raise RuntimeError(f"{qualname} is not defined where expected")
            for m in holders:
                self._set(m, attr, wrapped)
        self._table_info = _base_table_info()

    def uninstall(self):
        info = _base_table_info()
        self.table_hits += info.hits - self._table_info.hits
        self.table_misses += info.misses - self._table_info.misses
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def layer_metrics(self, n_ops: int, scale: float = 1.0) -> dict:
        """Calls and self time per operation of every traced function; self
        times are multiplied by ``scale``."""
        if self._stack:
            raise RuntimeError("spans still open")
        names = np.frombuffer(self.name, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parents >= 0
        covered = np.bincount(
            parents[nested], weights=dur[nested], minlength=len(dur)
        )
        self_time = np.bincount(
            names, weights=dur - covered, minlength=len(SPAN_NAMES)
        )
        calls = np.bincount(names, minlength=len(SPAN_NAMES))
        out = {}
        for index, name in enumerate(map(metric_name, SPAN_NAMES)):
            out[f"{name}.calls"] = float(calls[index]) / n_ops
            out[f"{name}.self_s"] = float(self_time[index]) * scale / n_ops
        npu = calls[SPAN_NAMES.index("causality.nearest_product_unitary")]
        out["causality.nearest_product_unitary.iterations"] = (
            self.iterations / npu if npu else 0.0
        )
        out["causality.nearest_product_unitary.converged_frac"] = (
            self.converged / npu if npu else 0.0
        )
        lookups = self.table_hits + self.table_misses
        out["lattice.base_table.hit_ratio"] = (
            self.table_hits / lookups if lookups else 0.0
        )
        out["kernels.impulse_response.site_updates"] = self.site_updates / n_ops
        return out

    def save(self, path):
        """Write every span, as arrays, to an ``.npz`` file."""
        np.savez_compressed(
            path,
            names=np.array(SPAN_NAMES),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
        )
