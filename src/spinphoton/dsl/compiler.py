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
from .. import protocols as proto
from .. import qstate as qs
from ..cavity import InteractionModel
from ..qstate import StateVector
from . import ast

__all__ = ["CircuitError", "CompiledCircuit", "RunResult", "compile_circuit"]

_IN_PLACE_KINDS = ("mirror", "hwp", "phase")

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


def _classify_component(comp: ast.Component) -> tuple[str, tuple[str, ...]]:
    """Return (op, ports) for one component, validating its arity."""
    n_in, n_out = len(comp.inputs), len(comp.outputs)
    if comp.kind in _IN_PLACE_KINDS:
        if not comp.in_place:
            raise CircuitError(
                f"{comp.name}: {comp.kind} must act in place (in=[p] out=[p])"
            )
        return comp.kind, comp.inputs
    if comp.kind == "cpbs":
        if n_in == 1 and n_out == 2 and len({comp.inputs[0], *comp.outputs}) >= 2:
            if comp.outputs[0] == comp.outputs[1]:
                raise CircuitError(f"{comp.name}: cpbs outputs must differ")
            return "cpbs3", (comp.inputs[0], *comp.outputs)
        if n_in == 2 and n_out == 2:
            ports = (*comp.inputs, *comp.outputs)
            if len(set(ports)) != 4:
                raise CircuitError(f"{comp.name}: four-port cpbs needs distinct ports")
            return "cpbs4", ports
        raise CircuitError(
            f"{comp.name}: cpbs is in=[p] out=[r, l] or in=[a, b] out=[c, d]"
        )
    if comp.kind == "bs":
        if n_in != 2 or n_out != 2:
            raise CircuitError(f"{comp.name}: bs needs two inputs and two outputs")
        ports = (*comp.inputs, *comp.outputs)
        if comp.inputs == comp.outputs:
            if comp.inputs[0] == comp.inputs[1]:
                raise CircuitError(f"{comp.name}: bs inputs must differ")
            return "bs", ports
        if len(set(ports)) != 4:
            raise CircuitError(
                f"{comp.name}: bs ports must be four distinct names or fully in-place"
            )
        return "bs", ports
    if comp.kind == "cavity":
        if n_in == 1 and n_out == 2 and len({comp.inputs[0], *comp.outputs}) == 3:
            return "scatter", (comp.inputs[0], *comp.outputs)
        if n_in == 2 and comp.inputs == comp.outputs and comp.inputs[0] != comp.inputs[1]:
            return "loop_cavity", comp.inputs
        raise CircuitError(
            f"{comp.name}: cavity is in=[p] out=[reflect, transmit] or a two-arm "
            "loop with in = out"
        )
    raise AssertionError(f"unvalidated kind {comp.kind!r}")


def _schedule_loop(
    circuit: ast.Circuit, classified: list[tuple[ast.Component, str, tuple[str, ...]]]
) -> list[proto.PlanStep]:
    loops = [(c, p) for c, op, p in classified if op == "loop_cavity"]
    (cavity, arms) = loops[0]
    splitters = [(c, p) for c, op, p in classified if op == "cpbs4"]
    if len(splitters) != 1:
        raise CircuitError(
            "loop form needs exactly one four-port cpbs feeding the cavity arms"
        )
    splitter, sp_ports = splitters[0]
    if set(sp_ports[2:]) != set(arms):
        raise CircuitError(
            f"{splitter.name}: splitter outputs {sp_ports[2:]} must be the cavity "
            f"arms {arms}"
        )
    decorations: list[proto.PlanStep] = []
    for comp, op, ports in classified:
        if op in ("loop_cavity", "cpbs4"):
            continue
        if op not in _IN_PLACE_KINDS:
            raise CircuitError(
                f"{comp.name}: only in-place elements may sit inside the loop"
            )
        if ports[0] not in arms:
            raise CircuitError(
                f"{comp.name}: loop decorations must sit on a cavity arm "
                f"({', '.join(arms)})"
            )
        decorations.append((op, ports, comp.param("phi", comp.param("theta", 0.0)) or 0.0))
    for inp in circuit.inputs:
        if isinstance(inp, ast.PhotonInput) and inp.port not in sp_ports[:2]:
            raise CircuitError(
                f"photon at port {inp.port!r}: loop-form photons must enter on a "
                f"splitter input ({sp_ports[0]} or {sp_ports[1]})"
            )
    plan = [("cpbs4", sp_ports, 0.0)]
    plan.extend(decorations)
    plan.append(("loop_cavity", arms, 0.0))
    plan.extend(reversed(decorations))
    plan.append(("cpbs4", sp_ports, 0.0))
    return plan


def _schedule_feed_forward(
    circuit: ast.Circuit, classified: list[tuple[ast.Component, str, tuple[str, ...]]]
) -> list[proto.PlanStep]:
    available = {
        inp.port for inp in circuit.inputs if isinstance(inp, ast.PhotonInput)
    }
    plan: list[proto.PlanStep] = []
    for comp, op, ports in classified:
        in_place = op in _IN_PLACE_KINDS or (op == "bs" and comp.inputs == comp.outputs)
        for port in comp.inputs:
            if port not in available:
                raise CircuitError(
                    f"{comp.name}: input port {port!r} has no upstream source"
                )
        if not in_place:
            for port in comp.outputs:
                if port in available:
                    raise CircuitError(
                        f"{comp.name}: port {port!r} already carries light; route to "
                        "a fresh port"
                    )
                available.add(port)
        param = comp.param("phi", comp.param("theta", 0.0)) or 0.0
        plan.append((op, ports, param))
    return plan


def compile_circuit(circuit: ast.Circuit) -> CompiledCircuit:
    """Validate wiring and produce the executable schedule.

    Raises :class:`CircuitError` on arity, topology, or reference problems.
    """
    classified = [(c, *_classify_component(c)) for c in circuit.components]

    cavities = [c for c, op, _ in classified if op in ("scatter", "loop_cavity")]
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

    loop = any(op == "loop_cavity" for _, op, _ in classified)
    if loop:
        plan = _schedule_loop(circuit, classified)
    else:
        plan = _schedule_feed_forward(circuit, classified)

    return CompiledCircuit(
        source=circuit, ports=circuit.ports, plan=tuple(plan), has_spin=has_spin_input
    )
