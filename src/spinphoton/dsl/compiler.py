"""Compile circuit ASTs into an executable per-photon operator schedule.

Two wiring shapes are recognized:

* **loop form** — a two-arm cavity (``in`` = ``out`` = the two arms) fed by a
  four-port circular splitter whose outputs are exactly those arms.  The
  splitter is traversed twice (entry and exit) and any in-place decorations on
  the arms (phase plates, wave plates, fold mirrors) apply on both passes, in
  reverse order on the way out.  This is the photon-spin gate topology.
* **feed-forward** — every port is produced by at most one routing component
  and consumed downstream; components apply in declaration order.  One-sided
  cavities (``in=[p] out=[reflect, transmit]``) scatter photons arriving from
  below.

Each photon traverses the full schedule in ascending id order (they share the
one emitter spin).  A photon whose amplitude never reaches a component's
ports is simply unaffected by it, so the schedule is the same for every
photon.  Compilation is pure and deterministic: equal ASTs give equal plans.
Running a compiled circuit hands its one
:data:`~spinphoton.protocols.PlanStep` plan, the photons' polarizations and
their entry ports to :func:`spinphoton.protocols.run_photons` — the executor
the protocols use, which applies the plan's spin blocks once per photon.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .. import measurement as meas
from .. import optics
from .. import protocols as proto
from .. import qstate as qs
from ..cavity import InteractionModel, pass_modes
from ..qstate import StateVector
from . import ast

__all__ = ["CircuitError", "CompiledCircuit", "RunResult", "compile_circuit"]

_IN_PLACE_KINDS = ("mirror", "hwp", "phase")

#: The plan op of each (kind, number of inputs, number of outputs) a component
#: may have.  An op of :data:`_IN_PLACE_OPS` acts on its inputs, which its
#: outputs repeat; every other op on its inputs, then its outputs.
_OPS = {
    ("cpbs", 1, 2): "cpbs3",
    ("cpbs", 2, 2): "cpbs4",
    ("bs", 2, 2): "bs",
    ("cavity", 1, 2): "scatter",
    ("cavity", 2, 2): "loop_cavity",
    **{(kind, 1, 1): kind for kind in _IN_PLACE_KINDS},
}
_IN_PLACE_OPS = (*_IN_PLACE_KINDS, "loop_cavity")

#: Each kind's arity rule, as a component that breaks it is told.
_ARITY = {
    "cpbs": "is in=[p] out=[r, l] or in=[a, b] out=[c, d]",
    "bs": "needs two inputs and two outputs",
    "cavity": "is in=[p] out=[reflect, transmit] or a two-arm loop with in = out",
    **dict.fromkeys(_IN_PLACE_KINDS, "must act in place (in=[p] out=[p])"),
}

#: Each named input state's amplitudes, R/L for a photon and Up/Down for the
#: spin: H/V and Plus/Minus are read off the basis changes that detection
#: uses, so an input and a detection share one convention; pairs are
#: :class:`~spinphoton.protocols.BellState` labels.
_PHOTON_AMPS = {"R": (1.0, 0.0), "L": (0.0, 1.0), **dict(zip(qs.HV, qs._RL_TO_HV.conj()))}
_SPIN_AMPS = {"Up": (1.0, 0.0), "Down": (0.0, 1.0), **dict(zip(qs.PLUS_MINUS, qs._HADAMARD))}


class CircuitError(Exception):
    """A structurally invalid circuit (wiring, arity, or reference problem)."""


@dataclasses.dataclass(frozen=True)
class RunResult:
    state: StateVector
    distribution: meas.Distribution
    bases: meas.MeasurementBases


@dataclasses.dataclass(frozen=True)
class CompiledCircuit:
    source: ast.Circuit
    ports: tuple[str, ...]
    plan: tuple[proto.PlanStep, ...]  # every photon's schedule
    has_spin: bool

    @property
    def photon_ids(self) -> tuple[int, ...]:
        return self.source.photon_ids

    def bases(self) -> meas.MeasurementBases:
        pol: dict[int, str] = {}
        port_ids: set[int] = set()
        spin_basis: str | None = None
        for m in self.source.measures:
            if isinstance(m, ast.PolMeasure):
                pol[m.photon] = m.basis
            elif isinstance(m, ast.PortMeasure):
                port_ids.add(m.photon)
            else:
                spin_basis = m.basis
        return meas.MeasurementBases(pol=pol, ports=frozenset(port_ids), spin=spin_basis)

    def run(self, model: InteractionModel | None = None) -> RunResult:
        model = model or InteractionModel.ideal()
        spin_amps = (1.0, 0.0)  # without a spin input there is no cavity
        factors: list[np.ndarray] = []
        ids: list[int] = []
        in_ports: dict[int, str] = {}
        for inp in self.source.inputs:
            if isinstance(inp, ast.SpinInput):
                spin_amps = _SPIN_AMPS[inp.state]
                continue
            if len(inp.photons) == 1:
                factors.append(np.array(_PHOTON_AMPS[inp.state], dtype=np.complex128))
            else:
                pair = proto.BellState.from_label(inp.state)
                factors.append(pair.amplitudes().reshape(2, 2))
            ids += inp.photons
            in_ports.update(dict.fromkeys(inp.photons, inp.port))
        entries = [in_ports[pid] for pid in self.photon_ids]
        proto._entry_blocks(self.plan, model, self.ports, entries)  # the budget, before any 2^n array
        # one axis per photon, in input order, then one transpose into id order
        pols = functools.reduce(np.multiply.outer, factors).transpose(np.argsort(ids))
        state = proto.run_photons(
            spin_amps, pols, self.photon_ids, entries, self.plan, model, self.ports
        )
        if not self.has_spin:  # no pass flips the spin, so its Down row is zero
            state = StateVector._adopt(state.registers[1:], state.amps[: state.dim // 2])
        bases = self.bases()
        return RunResult(state=state, distribution=meas.enumerate_outcomes(state, bases), bases=bases)


# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------


def _classify_component(comp: ast.Component) -> proto.PlanStep:
    """The plan step of one component: the op of its kind and arity, its
    ports, and its kind's one parameter; the step's own builder checks the
    ports, and its refusal names the component."""
    op = _OPS.get((comp.kind, len(comp.inputs), len(comp.outputs)))
    in_place = op in _IN_PLACE_OPS
    if op is None or in_place and comp.inputs != comp.outputs:
        raise CircuitError(f"{comp.name}: {comp.kind} {_ARITY[comp.kind]}")
    ports = comp.inputs if in_place else (*comp.inputs, *comp.outputs)
    step = (op, ports, comp.param("phi", comp.param("theta", 0.0)) or 0.0)
    try:
        if op in proto._CAVITY_OPS:
            pass_modes(op, ports, False)
        else:
            optics.element(*step)
    except ValueError as err:
        raise CircuitError(f"{comp.name}: {err}") from None
    return step


def _schedule_loop(
    circuit: ast.Circuit, steps: list[tuple[ast.Component, proto.PlanStep]]
) -> list[proto.PlanStep]:
    cavity = next(step for _, step in steps if step[0] == "loop_cavity")
    arms = cavity[1]
    splitters = [(c, step) for c, step in steps if step[0] == "cpbs4"]
    if len(splitters) != 1:
        raise CircuitError(
            "loop form needs exactly one four-port cpbs feeding the cavity arms"
        )
    splitter, entry = splitters[0]
    sp_ports = entry[1]
    if set(sp_ports[2:]) != set(arms):
        raise CircuitError(
            f"{splitter.name}: splitter outputs {sp_ports[2:]} must be the cavity "
            f"arms {arms}"
        )
    decorations: list[proto.PlanStep] = []
    for comp, step in steps:
        if step[0] in ("loop_cavity", "cpbs4"):
            continue
        if step[0] not in _IN_PLACE_KINDS:
            raise CircuitError(
                f"{comp.name}: only in-place elements may sit inside the loop"
            )
        if step[1][0] not in arms:
            raise CircuitError(
                f"{comp.name}: loop decorations must sit on a cavity arm "
                f"({', '.join(arms)})"
            )
        decorations.append(step)
    for inp in circuit.inputs:
        if isinstance(inp, ast.PhotonInput) and inp.port not in sp_ports[:2]:
            raise CircuitError(
                f"photon at port {inp.port!r}: loop-form photons must enter on a "
                f"splitter input ({sp_ports[0]} or {sp_ports[1]})"
            )
    return [entry, *decorations, cavity, *reversed(decorations), entry]


def _schedule_feed_forward(
    circuit: ast.Circuit, steps: list[tuple[ast.Component, proto.PlanStep]]
) -> list[proto.PlanStep]:
    available = {
        inp.port for inp in circuit.inputs if isinstance(inp, ast.PhotonInput)
    }
    for comp, _ in steps:
        for port in comp.inputs:
            if port not in available:
                raise CircuitError(
                    f"{comp.name}: input port {port!r} has no upstream source"
                )
        if comp.inputs != comp.outputs:  # a routing component
            for port in comp.outputs:
                if port in available:
                    raise CircuitError(
                        f"{comp.name}: port {port!r} already carries light; route to "
                        "a fresh port"
                    )
                available.add(port)
    return [step for _, step in steps]


def compile_circuit(circuit: ast.Circuit) -> CompiledCircuit:
    """Validate wiring and produce the executable schedule.

    Raises :class:`CircuitError` on arity, port, topology, or reference
    problems, the port problems as each plan step's builder states them.
    """
    steps = [(c, _classify_component(c)) for c in circuit.components]

    cavities = [c for c, step in steps if step[0] in proto._CAVITY_OPS]
    if len(cavities) > 1:
        raise CircuitError("at most one cavity per circuit (there is one emitter)")

    photon_ids = circuit.photon_ids
    if not photon_ids:
        raise CircuitError("circuit has no photon inputs")

    has_spin_input = any(isinstance(i, ast.SpinInput) for i in circuit.inputs)
    spin_measured = any(isinstance(m, ast.SpinMeasure) for m in circuit.measures)
    if cavities and not has_spin_input:
        raise CircuitError("a circuit with a cavity needs an explicit spin input")
    if spin_measured and not has_spin_input:
        raise CircuitError("cannot measure a spin that was never prepared")

    component_ports = {p for c in circuit.components for p in (*c.inputs, *c.outputs)}
    for inp in circuit.inputs:
        if isinstance(inp, ast.PhotonInput) and circuit.components:
            if inp.port not in component_ports:
                raise CircuitError(f"photon input port {inp.port!r} appears nowhere")
    for m in circuit.measures:
        if isinstance(m, (ast.PolMeasure, ast.PortMeasure)) and m.photon not in photon_ids:
            raise CircuitError(f"measurement references unknown photon {m.photon}")

    loop = any(step[0] == "loop_cavity" for _, step in steps)
    plan = (_schedule_loop if loop else _schedule_feed_forward)(circuit, steps)

    return CompiledCircuit(
        source=circuit, ports=circuit.ports, plan=tuple(plan), has_spin=has_spin_input
    )
