"""Span tracing of the repository's layers, installed from outside at runtime.

:class:`Tracer` wraps the public methods of every class (and the public
module-level functions) of each layer's modules -- see
:data:`layers.LAYERS` -- with a timing shim.  Per layer it keeps

* ``calls``: every call into a wrapped function of the layer;
* ``self_s``: wall time of the layer's spans minus the part covered by
  nested spans of *other* layers.  A span nested in a span of its own layer
  is part of that span (its other-layer children are passed up to it), so
  a layer's self time is never counted twice.

Full span records ``(id, function, start, end, parent, op)`` are kept in memory
only for a deterministic sample of operations (every ``sample_every``-th
client operation) and written out by :meth:`Tracer.write_spans`.

Limits: work a layer does without calling a wrapped function is counted in
the layer that called it.  That includes the charge bookkeeping other
modules inline instead of calling ``simclock`` (the ``clock._now`` /
``stats._cells`` updates written out in ``storage``, ``fs``, ``ipc`` and
``api``), internal helpers whose names start with ``_``, and code that
captured an unwrapped function object before :meth:`Tracer.install` ran --
install before building the system under test.
"""

from __future__ import annotations

import enum
import functools
import importlib
import json
import sys
import types
from time import perf_counter

from layers import LAYERS

#: Pseudo-layer of the benchmark's own operation code; tracked so its time
#: is not charged to the client pool that calls it, never reported.
OPERATIONS = "operations"


class Tracer:
    """Per-layer call counts, self time and sampled spans."""

    def __init__(self, sample_every: int = 50):
        self.layers = list(LAYERS) + [OPERATIONS]
        self.sample_every = sample_every
        self.functions: list[tuple[int, str]] = []
        self.calls = [0] * len(self.layers)
        self.self_s = [0.0] * len(self.layers)
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        #: [recording, current op id, last span id]
        self._state = [False, -1, 0]
        self._op_seq = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer's public entry points (idempotent per tracer)."""

        if self._patches:
            return
        for index, layer in enumerate(LAYERS):
            for module_name in LAYERS[layer]:
                module = importlib.import_module(module_name)
                for name, value in list(vars(module).items()):
                    if name.startswith("_"):
                        continue
                    if isinstance(value, type) and \
                            value.__module__ == module_name and \
                            not issubclass(value, (enum.Enum, BaseException)):
                        self._wrap_class(value, index)
                    elif isinstance(value, types.FunctionType) and \
                            value.__module__ == module_name:
                        self._wrap_function(module_name, name, value, index)

    def uninstall(self) -> None:
        """Put every original function back."""

        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _wrap_class(self, cls: type, layer: int) -> None:
        for name, value in list(vars(cls).items()):
            if not name.startswith("_") and \
                    isinstance(value, types.FunctionType):
                self._patch(cls, name, self._wrap(
                    value, layer, f"{cls.__name__}.{name}"))

    def _wrap_function(self, module_name: str, name: str, function,
                       layer: int) -> None:
        """Patch a module function everywhere ``repro`` imported it by name."""

        wrapper = self._wrap(function, layer, f"{module_name}.{name}")
        for other_name, other in list(sys.modules.items()):
            if other is None or not (other_name == "repro" or
                                     other_name.startswith("repro.")):
                continue
            for attr, value in list(vars(other).items()):
                if value is function:
                    self._patch(other, attr, wrapper)

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _wrap(self, function, layer: int, label: str):
        function_id = len(self.functions)
        self.functions.append((layer, label))
        stack, calls, self_s = self._stack, self.calls, self.self_s
        spans, state, clock = self.spans, self._state, perf_counter

        def traced(*args, **kwargs):
            state[2] += 1
            frame = [layer, 0.0, state[2]]
            stack.append(frame)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                calls[layer] += 1
                parent = stack[-1] if stack else None
                if parent is None or parent[0] != layer:
                    self_s[layer] += elapsed - frame[1]
                    if parent is not None:
                        parent[1] += elapsed
                else:
                    parent[1] += frame[1]
                if state[0]:
                    spans.append((frame[2], function_id, start, end,
                                  parent[2] if parent is not None else 0,
                                  state[1]))

        return functools.update_wrapper(traced, function)

    # -- operations -------------------------------------------------------------------
    def wrap_operation(self, operation):
        """Trace one client-operation callback as a sampled op of its own."""

        state = self._state
        traced = self._wrap(operation, len(self.layers) - 1, "operation")

        def traced_operation(session, client, index):
            self._op_seq += 1
            state[0] = self._op_seq % self.sample_every == 0
            state[1] = self._op_seq
            try:
                return traced(session, client, index)
            finally:
                state[0] = False
                state[1] = -1

        return traced_operation

    # -- results ----------------------------------------------------------------------
    def reset(self) -> None:
        for index in range(len(self.layers)):
            self.calls[index] = 0
            self.self_s[index] = 0.0
        self.spans.clear()
        self._op_seq = 0

    def totals(self) -> dict:
        """``{layer: (calls, self_s)}`` for the reported layers."""

        return {layer: (self.calls[index], self.self_s[index])
                for index, layer in enumerate(self.layers)
                if layer != OPERATIONS}

    def write_spans(self, path) -> None:
        """Write the sampled spans (times in µs from the first span)."""

        origin = min((span[2] for span in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "layers": self.layers,
                "functions": self.functions,
                "fields": ["id", "function", "start_us", "end_us", "parent",
                           "op"],
                "spans": [[span[0], span[1],
                           round((span[2] - origin) * 1e6, 1),
                           round((span[3] - origin) * 1e6, 1), span[4],
                           span[5]] for span in self.spans],
            }, handle)
