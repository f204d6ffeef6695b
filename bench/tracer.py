"""Span tracing installed from outside the package.

Every traced function is replaced, for the length of a ``with Tracer(...)``
block, by a wrapper at each name the package's modules (and the package
itself) bind it to, so calls between modules are seen exactly as they are
made. Methods and dataclass ``__post_init__`` hooks are replaced on their
class. Nothing under ``src/waylimit`` is edited; leaving the block restores
every original.

A span is ``(span_id, parent_id, op_id, name, start_ns, end_ns)``. Spans stay
in memory until the run ends, then go to a JSON-lines file.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

# Public names per layer (module). "Class.method" entries are patched on the
# class; a dataclass "__post_init__" span is named after its class, so
# "linalg.Operator" counts Operator constructions.
TRACED = {
    "linalg": ("Operator.__post_init__", "Ket.__post_init__", "tensor", "variance",
               "expectation", "commutator", "identity"),
    "measurement": ("MeasurementModel.__post_init__", "heisenberg_probe",
                    "noise_operator", "noise"),
    "bounds": ("ConservationPair.total", "acl_residual", "yanase_residual",
               "fundamental_bound", "yanase_bound", "spin_bound",
               "commutator_identity_residual", "uncertainty_pair", "bound_report"),
    "spin": ("spin_operators", "named_state", "swap_demo_model",
             "trivial_demo_model", "yw_sample_model"),
    "oscillator": ("m_z_operator", "two_mode_coherent_state", "coherent_state"),
    "optimizer": ("commutant_basis", "conservative_unitary", "numerical_gradient",
                  "optimize_noise", "record_observable", "oscillator_probe"),
    "cli": ("main", "load_model_file", "model_from_dict", "cmd_verify"),
}
LAYERS = tuple(TRACED)


def span_name(layer: str, attr: str) -> str:
    return f"{layer}.{attr.removesuffix('.__post_init__')}"


class Tracer:
    """Context manager that records spans of every traced waylimit call."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.op_id = "setup"
        self._stack = []
        self._next_id = 0
        self._restore = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, self.op_id, name, start, end))
        return traced

    def __enter__(self):
        layers = {layer: importlib.import_module(f"{self.package.__name__}.{layer}")
                  for layer in LAYERS}
        modules = [self.package, *layers.values()]
        for layer, attrs in TRACED.items():
            module = layers[layer]
            for attr in attrs:
                name = span_name(layer, attr)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    self._restore.append((cls, meth, original))
                    setattr(cls, meth, self._wrap(name, original))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, key, original))
                            setattr(mod, key, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()
        return False

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, op, name, start, end in self.spans:
                handle.write(json.dumps({"id": sid, "parent": parent, "op": op,
                                         "name": name, "start_ns": start,
                                         "end_ns": end}) + "\n")


def aggregate(spans, op_prefix=None):
    """Per span name: calls, total seconds, and self seconds (duration minus
    the durations of its direct children, which nest inside it on one thread).

    With ``op_prefix`` only spans whose operation id starts with it count.
    """
    child_ns = {}
    for _, parent, _, _, start, end in spans:
        if parent >= 0:
            child_ns[parent] = child_ns.get(parent, 0) + (end - start)
    table = {}
    for sid, _, op, name, start, end in spans:
        if op_prefix is not None and not op.startswith(op_prefix):
            continue
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += (end - start) * 1e-9
        row["self_s"] += (end - start - child_ns.get(sid, 0)) * 1e-9
    return table


def child_counts(spans, parent_name, op_prefix=""):
    """For each span called ``parent_name`` (in operations whose id starts
    with ``op_prefix``): counts of its direct children by name."""
    parents = {sid: {} for sid, _, op, name, _, _ in spans
               if name == parent_name and op.startswith(op_prefix)}
    for _, parent, _, name, _, _ in spans:
        if parent in parents:
            parents[parent][name] = parents[parent].get(name, 0) + 1
    return list(parents.values())
