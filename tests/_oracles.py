"""Slow, plain reference computations that only the tests use.

Each helper is the direct construction that a faster path in the package
must agree with: a dense operator, a projection, a phase-blind comparison,
a plan run step by step on a labelled state, a photon channel read off one
run of its plan on a Choi input, the outcome table read entry by entry, the
loss completion of a two-sided pass by eigendecomposition, and the closed
forms of the heralded gate and of the GHZ figures.  A few small helpers that
only the tests use live here too.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence

import numpy as np

from spinphoton import protocols as proto
from spinphoton import qstate as qs
from spinphoton.cavity import InteractionModel
from spinphoton.measurement import Distribution, MeasurementBases, OutcomeRecord, PhotonOutcome
from spinphoton.qstate import ATOL, Operator, Register, RegisterKey, RegisterKind, StateVector


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


def is_unitary(op: Operator, atol: float = ATOL) -> bool:
    """U U† = I entrywise within ``atol``."""
    eye = np.eye(op.dim)
    return bool(np.allclose(op.matrix @ op.matrix.conj().T, eye, atol=atol, rtol=0.0))


def interpolate_models(
    start: InteractionModel, end: InteractionModel, frac: float
) -> InteractionModel:
    """Linear interpolation of branch amplitudes; frac = 0 gives ``start``."""
    if not 0.0 <= frac <= 1.0:
        raise ValueError("frac must lie in [0, 1]")

    def mix(a: float, b: float) -> float:
        return (1.0 - frac) * a + frac * b

    return InteractionModel(
        mix(start.coupled_reflect_amp, end.coupled_reflect_amp),
        mix(start.coupled_transmit_amp, end.coupled_transmit_amp),
        mix(start.uncoupled_transmit_amp, end.uncoupled_transmit_amp),
        mix(start.uncoupled_reflect_amp, end.uncoupled_reflect_amp),
    )


def total_variation(
    p: Mapping[OutcomeRecord, float], q: Mapping[OutcomeRecord, float]
) -> float:
    """Total-variation distance ½ Σ |p − q| over the union of outcomes."""
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def eigh_loss_completion(reflect: float, transmit: float) -> np.ndarray:
    """L = √(I − M²) for M = [[r, −t], [−t, r]], by eigendecomposition."""
    m = np.array([[reflect, -transmit], [-transmit, reflect]])
    vals, vecs = np.linalg.eigh(np.eye(2) - m @ m)
    if vals.min() < -1e-9:
        raise ValueError("loss completion needs a positive semidefinite deficit")
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


def outcomes_by_entry(state: StateVector, bases: MeasurementBases) -> Distribution:
    """The outcome table read one amplitude at a time: each basis change
    builds a state, and every entry of the marginal above 1e-15 adds its
    probability to its record."""
    for pid, basis in bases.pol.items():
        state = qs.change_basis(state, (RegisterKind.POLARIZATION, pid), basis)
    if bases.spin is not None:
        state = qs.change_basis(state, (RegisterKind.SPIN, 0), bases.spin)
    probs_tensor = np.abs(state.amps.reshape(state.shape)) ** 2

    # measured axes, described as (axis, role, photon/spin id, basis names);
    # every other register is traced out
    describe: list[tuple[int, str, int, tuple[str, ...]]] = []
    for ax, reg in enumerate(state.registers):
        if reg.kind is RegisterKind.POLARIZATION and reg.id in bases.pol:
            describe.append((ax, "pol", reg.id, reg.basis))
        elif reg.kind is RegisterKind.PATH and reg.id in bases.ports:
            describe.append((ax, "port", reg.id, reg.basis))
        elif reg.kind is RegisterKind.SPIN and bases.spin is not None:
            describe.append((ax, "spin", reg.id, reg.basis))
        elif reg.kind is RegisterKind.LOSS_FLAG and reg.id in set(bases.photon_ids):
            describe.append((ax, "flag", reg.id, reg.basis))
    measured_axes = [d[0] for d in describe]
    other = [ax for ax in range(len(state.registers)) if ax not in measured_axes]
    marginal = probs_tensor.sum(axis=tuple(other)) if other else probs_tensor

    out: dict[OutcomeRecord, float] = {}
    it = np.nditer(marginal, flags=["multi_index"])
    for prob in it:
        p = float(prob)
        if p <= 1e-15:
            continue
        names: dict[tuple[str, int], str] = {}
        for (_, role, pid, basis_names), i in zip(describe, it.multi_index):
            names[(role, pid)] = basis_names[i]
        photon_outs = []
        for pid in bases.photon_ids:
            if names.get(("flag", pid)) == "Lost":
                photon_outs.append((pid, PhotonOutcome(lost=True)))
            else:
                photon_outs.append(
                    (pid, PhotonOutcome(port=names.get(("port", pid)), pol=names.get(("pol", pid))))
                )
        rec = OutcomeRecord(photons=tuple(photon_outs), spin=names.get(("spin", 0)))
        out[rec] = out.get(rec, 0.0) + p
    return Distribution(out)


def run_plan(
    state: StateVector, plan: Sequence[proto.PlanStep], model: InteractionModel, photon: int
) -> StateVector:
    """Apply one photon's schedule to ``state``, one labelled operator at a time.

    The photon's polarization (R/L basis) and path registers must be in the
    state; the spin and the photon's loss flag are used when present.
    """
    pol = state.register((RegisterKind.POLARIZATION, photon))
    if pol.basis != qs.RL:
        raise ValueError("optics elements are defined on the circular (R/L) basis")
    present = {r.key: r for r in state.registers}
    ops = proto.plan_operators(
        plan,
        model,
        pol=pol,
        path=state.register((RegisterKind.PATH, photon)),
        spin=present.get((RegisterKind.SPIN, 0)),
        flag=present.get((RegisterKind.LOSS_FLAG, photon)),
    )
    for op in ops:
        state = qs.apply(op, state)
    return state


def choi_channel(
    plan: Sequence[proto.PlanStep],
    model: InteractionModel,
    ports: Sequence[str],
    in_ports: Sequence[str],
) -> np.ndarray:
    """T[s′, p′, path′(, flag′), s, p, entry] from one :func:`run_plan` run.

    (spin, pol, path) enters maximally entangled with untouched reference
    copies (spin₁, pol₂, entry), which span only ``in_ports``, so the output
    amplitude at (out, reference = in) is T[out, in] times the input's scale,
    a power of two that keeps the norm ≤ 1 and unscales exactly.
    """
    ports, in_ports = tuple(ports), tuple(in_ports)
    live = (qs.spin(), qs.polarization(1), qs.path(1, ports))
    refs = (qs.spin(1), qs.polarization(2), qs.path(2, in_ports))
    flag = not model.is_lossless and any(step[0] in ("scatter", "loop_cavity") for step in plan)
    if flag:
        live += (qs.loss_flag(1),)
    scale = 0.5 ** math.ceil(math.log2(4 * len(in_ports)) / 2)
    pairs = np.zeros((4, len(ports), 2 if flag else 1, 4, len(in_ports)), dtype=np.complex128)
    for entry, port in enumerate(in_ports):
        pairs[:, ports.index(port), 0, :, entry] = scale * np.eye(4)
    state = run_plan(StateVector(live + refs, pairs.reshape(-1)), plan, model, photon=1)
    return state.amps.reshape(state.shape) / scale


def gate_closed_form(model: InteractionModel) -> np.ndarray:
    """The heralded gate on (pol ⊗ spin), basis [R↑, R↓, L↑, L↓], from the
    model's four amplitudes: |↑⟩⟨↑| ⊗ (t_u·I + r_u·X) + |↓⟩⟨↓| ⊗ (t_c·I + r_c·X)."""
    blocks = [
        (model.uncoupled_transmit_amp, model.uncoupled_reflect_amp),
        (model.coupled_transmit_amp, model.coupled_reflect_amp),
    ]
    gate = np.zeros((2, 2, 2, 2), dtype=np.complex128)  # [p′, s′, p, s]
    for s, (t, r) in enumerate(blocks):
        gate[:, s, :, s] = [[t, r], [r, t]]
    return gate.reshape(4, 4)


def ghz_closed_form(
    model: InteractionModel, n: int, spin_phase_drift: float = 0.0
) -> dict[str, tuple[float, float]]:
    """(heralded weight, fidelity) of each ``ghz(n)`` branch in closed form.

    With a = t_u² + r_u², b = t_c² + r_c², x = t_u·t_c + r_u·r_c and
    φ = drift·(n − 1), the ± branch weighs w± = ¼[aⁿ + bⁿ ± 2xⁿ·cos φ], and
    its fidelity is |(t_uⁿ ± e^{iφ}t_cⁿ) ± (r_uⁿ ± e^{iφ}r_cⁿ)|² / (8·w±).
    """
    tu, ru = model.uncoupled_transmit_amp, model.uncoupled_reflect_amp
    tc, rc = model.coupled_transmit_amp, model.coupled_reflect_amp
    a, b, x = tu**2 + ru**2, tc**2 + rc**2, tu * tc + ru * rc
    phi = spin_phase_drift * (n - 1)
    out = {}
    for name, sign in (("Plus", 1.0), ("Minus", -1.0)):
        weight = 0.25 * (a**n + b**n + sign * 2.0 * x**n * math.cos(phi))
        twist = sign * complex(math.cos(phi), math.sin(phi))
        overlap = (tu**n + twist * tc**n) + sign * (ru**n + twist * rc**n)
        out[name] = (weight, abs(overlap) ** 2 / (8.0 * weight))
    return out
