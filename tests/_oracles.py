"""Slow, plain reference computations that only the tests use.

Each helper is the direct construction that a faster path in the package
must agree with: a dense operator, a projection, a phase-blind comparison,
and a photon channel computed on every entry port at once.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from spinphoton import protocols as proto
from spinphoton import qstate as qs
from spinphoton.cavity import InteractionModel
from spinphoton.qstate import ATOL, Operator, Register, RegisterKey, StateVector


def full_matrix(op: Operator, registers: Sequence[Register]) -> np.ndarray:
    """Embed ``op`` into the full space spanned by ``registers`` (identity elsewhere)."""
    registers = tuple(registers)
    dim = math.prod(r.dim for r in registers)
    cols = np.empty((dim, dim), dtype=np.complex128)
    for j in range(dim):
        e = np.zeros(dim, dtype=np.complex128)
        e[j] = 1.0
        cols[:, j] = qs.apply(op, StateVector(registers, e)).amps
    return cols


def project(
    state: StateVector, key: RegisterKey | Register, outcome: str
) -> tuple[StateVector, float]:
    """Project one register onto a basis outcome.

    Returns the *unnormalized* projected state together with the outcome
    probability (the squared norm removed from the complement).
    """
    ax = state.axis(key)
    reg = state.registers[ax]
    idx = reg.index(outcome)
    tensor_amps = state.amps.reshape(state.shape).copy()
    sl = [slice(None)] * len(state.registers)
    keep = tensor_amps[tuple(sl[:ax] + [idx] + sl[ax + 1 :])]
    prob = float(np.vdot(keep, keep).real)
    out = np.zeros_like(tensor_amps)
    out[tuple(sl[:ax] + [idx] + sl[ax + 1 :])] = keep
    return StateVector(state.registers, out.reshape(-1)), prob


def equal_up_to_phase(a: StateVector, b: StateVector, atol: float = ATOL) -> bool:
    """True iff the states differ by at most a global phase (and ``atol``):
    |⟨a|b⟩|, the overlap maximized over a global phase, equals ‖a‖‖b‖."""
    return abs(abs(qs.inner(a, b)) - a.norm() * b.norm()) <= atol


def all_port_channel(
    plan: Sequence[proto.PlanStep], model: InteractionModel, ports: Sequence[str]
) -> np.ndarray:
    """T[s′, p′, path′(, flag′), s, p, path] with a column for every port.

    The whole (spin, pol, path) space enters maximally entangled with
    reference copies, one run of the plan, nothing kept between calls.
    """
    live = (qs.spin(), qs.polarization(1), qs.path(1, ports))
    refs = (qs.spin(1), qs.polarization(2), qs.path(2, ports))
    flag = not model.is_lossless and any(step[0] in ("scatter", "loop_cavity") for step in plan)
    if flag:
        live += (qs.loss_flag(1),)
    d = 4 * len(ports)
    scale = 0.5 ** math.ceil(math.log2(d) / 2)
    pairs = np.zeros((d, 2 if flag else 1, d), dtype=np.complex128)
    pairs[:, 0, :] = scale * np.eye(d)
    state = proto.run_plan(StateVector(live + refs, pairs.reshape(-1)), plan, model, photon=1)
    return state.amps.reshape(state.shape) / scale
