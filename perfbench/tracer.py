"""Spans and counters around the package's public functions, from outside.

A :class:`Tracer` replaces each layer's public functions with wrappers where
their callers look them up, records one span per call (name, layer, start,
end, parent span, op id) in memory, and counts work at the same boundaries.
Uninstalling puts every original back.  Nothing in ``src/`` changes.

Module functions call each other through their module's globals, and the
other layers call them through the module (``qs.apply``, ``cav.*``,
``meas.*``), so replacing the module attribute catches every call.  ``cli``
binds ``parse`` and ``compile_circuit`` at import time, so those two are
replaced in ``spinphoton.cli`` itself.
"""

from __future__ import annotations

import collections
import functools
import inspect
import time

from spinphoton import cavity, cli, measurement, optics, protocols, qstate
from spinphoton import dsl

#: Layer name -> module whose public functions form the layer.
MODULE_LAYERS = {
    "qstate": qstate,
    "cavity": cavity,
    "optics": optics,
    "protocols": protocols,
    "measurement": measurement,
}

#: qstate functions whose input states count toward ``qstate.amps_moved``,
#: and the positions of their state arguments.
_MOVING = {"apply": (1,), "tensor": (0, 1), "collapse": (0,), "reorder": (0,), "change_basis": (0,)}

#: Registers whose post-selection throws computed amplitudes away: a photon
#: missing its detector port, or lost.  A spin readout keeps every outcome.
_DETECTED = (qstate.RegisterKind.PATH, qstate.RegisterKind.LOSS_FLAG)

LAYERS = ("qstate", "cavity", "optics", "protocols", "measurement",
          "dsl.parse", "dsl.compile", "dsl.run", "cli")


class Tracer:
    """Records spans and counts while installed and ``active``."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.counts: collections.Counter[str] = collections.Counter()
        self.op_id = -1
        #: Calls made while inactive (the benchmark's own checks) go untraced.
        self.active = False
        self._open: list[tuple[int, str]] = []
        self._patches: list[tuple[object, str, object]] = []
        self._last_kept = None

    # -- installing -------------------------------------------------------

    def install(self) -> "Tracer":
        for layer, module in MODULE_LAYERS.items():
            for name, fn in vars(module).copy().items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not name.startswith("_")):
                    self._patch(module, name, self._wrap(layer, f"{layer}.{name}", fn))
        self._patch(cli, "main", self._wrap("cli", "cli.main", cli.main))
        self._patch(cli, "parse", self._wrap("dsl.parse", "dsl.parse", cli.parse))
        self._patch(cli, "compile_circuit",
                    self._wrap("dsl.compile", "dsl.compile_circuit", cli.compile_circuit))
        run = dsl.CompiledCircuit.run
        self._patch(dsl.CompiledCircuit, "run", self._wrap("dsl.run", "dsl.CompiledCircuit.run", run))
        self._patch(qstate.StateVector, "__post_init__",
                    self._counting(qstate.StateVector.__post_init__, self._state_built))
        self._patch(qstate.Operator, "__post_init__",
                    self._counting(qstate.Operator.__post_init__, self._operator_built))
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, owner, name: str, replacement) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def _wrap(self, layer: str, name: str, fn):
        tracer = self
        count = self._counter_for(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            parent = tracer._open[-1][0] if tracer._open else -1
            tracer.spans.append(None)
            tracer._open.append((idx, layer))
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer._open.pop()
                tracer.spans[idx] = (name, layer, start, end, parent, tracer.op_id)
            if count is not None:
                count(args, kwargs, result)
            return result

        return traced

    def _counting(self, fn, count):
        tracer = self

        @functools.wraps(fn)
        def counted(obj):
            fn(obj)
            if tracer.active:
                count()

        return counted

    # -- counters ---------------------------------------------------------

    def _counter_for(self, name: str):
        layer, _, fn_name = name.partition(".")
        if layer == "qstate" and fn_name in _MOVING:
            return functools.partial(self._count_moved, fn_name)
        if name == "measurement.enumerate_outcomes":
            return self._count_outcomes
        return None

    def _state_built(self) -> None:
        self.counts["qstate.states_built"] += 1

    def _operator_built(self) -> None:
        layer = self._open[-1][1] if self._open else "bench"
        self.counts[f"{layer}.operators_built"] += 1

    def _count_moved(self, name, args, kwargs, result) -> None:
        self.counts["qstate.amps_moved"] += sum(args[i].dim for i in _MOVING[name])
        if name == "collapse" and kwargs.get("check", True) is False and _kind(args[1]) in _DETECTED:
            # A chain of post-selections on one photon (path, then loss flag)
            # is one attempt: its first input was computed, its last output kept.
            state = args[0]
            if state is self._last_kept:
                self.counts["qstate.amps_kept"] -= state.dim
            else:
                self.counts["qstate.amps_postselected"] += state.dim
            self.counts["qstate.amps_kept"] += result.dim
            self._last_kept = result

    def _count_outcomes(self, args, kwargs, result) -> None:
        self.counts["measurement.outcomes_enumerated"] += len(result)

    # -- results ----------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self._last_kept = None

    def summary(self) -> dict:
        """Per-layer self time (each span's length minus its child spans'),
        the counters, and the number of calls per layer."""
        child = [0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_ns = dict.fromkeys(LAYERS, 0)
        for (_, layer, start, end, _, _), inner in zip(self.spans, child):
            self_ns[layer] += end - start - inner
        calls = collections.Counter(span[1] for span in self.spans)
        return {"self_ns": self_ns, "counts": dict(self.counts), "calls": dict(calls)}


def _kind(key) -> qstate.RegisterKind:
    return key.kind if isinstance(key, qstate.Register) else key[0]
