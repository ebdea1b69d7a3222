"""Slow, plain reference computations that only the tests use.

Each helper is the direct construction that a faster path in the package
must agree with: a dense operator, a projection, a phase-blind comparison,
a plan run step by step on a labelled state, photons run through the whole
channel with a transpose around each pass, a photon channel read off one
run of its plan on a Choi input, the outcome table read entry by entry, the
analyzer's outcome table enumerated on its coincidence slice, the loss
completion of a two-sided pass by eigendecomposition, the closed forms of
the heralded gate and of the GHZ figures, the GHZ branches formed from the
whole stream, both cavity passes built at full sector size, a cavity
pass's block placed into its two dense spin blocks, and each optical
element as its dense matrix over the photon's ports.  The
labelled state layer that the package no longer runs lives here too: a
basis state, a product state, a post-selected branch, the inner product, a
register-labelled operator applied to a state, a basis change, and each
plan step as a labelled operator.  So do the analyzer and the heralded
spin preparation as they made a state of each step, a cavity pass's block
written from Python lists, and a few small helpers that only the tests
use.
"""

from __future__ import annotations

import functools
import math
import types
from collections.abc import Mapping, Sequence

import numpy as np

from spinphoton import protocols as proto
from spinphoton import qstate as qs
from spinphoton.cavity import (
    InteractionModel,
    _branch_loss_amp,
    _flip,
    _pair_root,
    coupled_polarization,
    pass_block,
    pass_modes,
)
from spinphoton.measurement import (
    Distribution,
    MeasurementBases,
    OutcomeRecord,
    PhotonOutcome,
    enumerate_outcomes,
)
from spinphoton.qstate import (
    ATOL,
    Operator,
    Register,
    RegisterKey,
    RegisterKind,
    StateVector,
)


def basis_state(registers: Sequence[Register], names: Sequence[str]) -> StateVector:
    """Joint computational basis state, one basis name per register."""
    registers = tuple(registers)
    if len(names) != len(registers):
        raise ValueError("one basis name per register required")
    amps = np.zeros(math.prod(r.dim for r in registers), dtype=np.complex128)
    idx = 0
    for reg, name in zip(registers, names):
        idx = idx * reg.dim + reg.index(name)
    amps[idx] = 1.0
    return StateVector(registers, amps)


def tensor(*states: StateVector) -> StateVector:
    """The product state; the first factor's registers come first (row-major)."""
    registers = sum((s.registers for s in states), ())
    return StateVector(registers, functools.reduce(np.kron, (s.amps for s in states)))


def collapse(state: StateVector, key: RegisterKey | Register, outcome: str) -> StateVector:
    """The branch with one register at ``outcome``, that register dropped; not renormalized."""
    ax = state.axis(key)
    keep = np.take(state.amps.reshape(state.shape), state.registers[ax].index(outcome), axis=ax)
    return StateVector(state.registers[:ax] + state.registers[ax + 1 :], keep.reshape(-1))


def inner(a: StateVector, b: StateVector) -> complex:
    """⟨a|b⟩; requires identical register lists."""
    if a.registers != b.registers:
        raise ValueError("inner product requires identical register lists")
    return complex(np.vdot(a.amps, b.amps))


def apply(op: Operator, state: StateVector) -> StateVector:
    """Apply ``op`` to the registers of ``state`` matching ``op.domain``.

    Domain registers are matched by (kind, id) and must carry the same basis
    names the operator was built against.
    """
    axes = []
    for reg in op.domain:
        ax = state.axis(reg.key)
        present = state.registers[ax]
        if present.basis != reg.basis:
            raise ValueError(
                f"operator built for basis {reg.basis} but state register "
                f"{reg.kind.value}{reg.id} has basis {present.basis}"
            )
        axes.append(ax)
    tensor_amps = state.amps.reshape(state.shape)
    moved = np.moveaxis(tensor_amps, axes, range(len(axes)))
    moved_shape = moved.shape
    flat = moved.reshape(op.dim, -1)
    out = op.matrix @ flat
    out = np.moveaxis(out.reshape(moved_shape), range(len(axes)), axes)
    return StateVector(state.registers, out.reshape(-1))


def change_basis(state: StateVector, key: RegisterKey | Register, target: str) -> StateVector:
    """Re-express one register in a different basis (renaming its basis states).

    Polarization converts between ``RL`` and ``HV``; spin between ``UpDown``
    and ``PlusMinus``.  Converting to the basis already in use is a no-op.
    """
    ax = state.axis(key)
    mat, reg = qs._basis_matrix(state.registers[ax], target)
    if mat is None:
        return state
    out = np.tensordot(mat, state.amps.reshape(state.shape), axes=(1, ax))
    new_regs = list(state.registers)
    new_regs[ax] = reg
    return StateVector(tuple(new_regs), np.moveaxis(out, 0, ax).reshape(-1))


def full_matrix(op: Operator, registers: Sequence[Register]) -> np.ndarray:
    """Embed ``op`` into the full space spanned by ``registers`` (identity elsewhere)."""
    registers = tuple(registers)
    dim = math.prod(r.dim for r in registers)
    cols = np.empty((dim, dim), dtype=np.complex128)
    for j in range(dim):
        e = np.zeros(dim, dtype=np.complex128)
        e[j] = 1.0
        cols[:, j] = apply(op, StateVector(registers, e)).amps
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
    return abs(abs(inner(a, b)) - a.norm() * b.norm()) <= atol


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


def pair_blocks(reflect: float, transmit: float) -> tuple[np.ndarray, np.ndarray]:
    """M = [[r, −t], [−t, r]], one pass of a two-sided pair, and its loss
    completion L = √(I − M²) from the closed form the package uses."""
    diag, off = _pair_root(reflect, transmit)
    m = np.array([[reflect, -transmit], [-transmit, reflect]])
    return m, np.array([[diag, off], [off, diag]])


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
        state = change_basis(state, (RegisterKind.POLARIZATION, pid), basis)
    if bases.spin is not None:
        state = change_basis(state, (RegisterKind.SPIN, 0), bases.spin)
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


def bsa_by_enumeration(state: StateVector) -> tuple[Distribution, float]:
    """The analyzer's outcome table and heralded weight from its pre-detection
    ``state`` (spin, pol₁, path₁[, flag₁], pol₂, path₂[, flag₂]): each
    register cut to the coincidences, both photons Alive on C or D, the
    slice renormalized and enumerated in (port, H/V, spin ±)."""
    detectors = slice(proto.BSA_PATHS.index("C"), proto.BSA_PATHS.index("D") + 1)
    cut: list = []
    registers: tuple[Register, ...] = ()
    for reg in state.registers:
        if reg.kind is RegisterKind.LOSS_FLAG:
            cut.append(qs.ALIVE_LOST.index("Alive"))
        elif reg.kind is RegisterKind.PATH:
            cut.append(detectors)
            registers += (qs.path(reg.id, ("C", "D")),)
        else:
            cut.append(slice(None))
            registers += (reg,)
    pol_ids = [reg.id for reg in registers if reg.kind is RegisterKind.POLARIZATION]
    bases = MeasurementBases(dict.fromkeys(pol_ids, "HV"), pol_ids, spin="PlusMinus")
    amps = state.amps.reshape(state.shape)[tuple(cut)]
    success = float(np.vdot(amps, amps).real)
    if success <= 1e-15:
        raise ValueError("no coincidence outcomes survived the analyzer")
    amps = amps * (1.0 / math.sqrt(success))
    return enumerate_outcomes(StateVector(registers, amps), bases), success


def dense_pass(
    model: InteractionModel, ports: Sequence[str], op: str, at: tuple[str, ...], swap: bool
) -> np.ndarray:
    """One cavity pass as its two spin blocks K[s, out, out], read-only, on
    out = (pol, path[, flag]) over ``ports``: the identity, with the pass's
    block in place of its modes; ``swap`` exchanges the two spins."""
    lossy = not model.is_lossless
    modes = pass_modes(op, at, lossy)
    block = pass_block(model, op)
    dim = 2 * len(ports) * (2 if lossy else 1)
    mat = np.zeros((2, dim, dim), dtype=np.complex128)
    mat.reshape(2, -1)[:, :: dim + 1] = 1.0  # the identity in each spin
    for spin_block, (outs, ins) in zip(mat, modes[::-1] if swap else modes):
        spin_block[np.ix_(proto._mode_rows(ports, outs), proto._mode_rows(ports, ins))] = block
    mat.flags.writeable = False
    return mat


def step_matrix(
    step: proto.PlanStep, ports: Sequence[str], model: InteractionModel | None = None
) -> np.ndarray:
    """One plan step as a dense matrix on the photon's modes: an optical
    element from the reference builders below, on (pol, path), with ``bs``
    and ``phase`` lifted from path; a cavity pass on the ``model`` as its
    two spin blocks K[s, out, out], out = (pol, path[, flag])."""
    op, at, param = step
    if op in ("scatter", "loop_cavity"):
        return dense_pass(model, ports, op, at, False)
    if op == "cpbs3":
        return cpbs_operator(ports, in_path=at[0], r_out=at[1], l_out=at[2])
    if op == "cpbs4":
        return cpbs4_operator(ports, in_paths=at[:2], out_paths=at[2:])
    if op == "mirror":
        return mirror_operator(ports, at=at[0])
    if op == "hwp":
        return hwp_operator(ports, at=at[0], theta=param)
    if op == "bs":
        mat = bs_operator(ports, in_a=at[0], in_b=at[1], out_c=at[2], out_d=at[3])
    elif op == "phase":
        mat = phase_operator(ports, at=at[0], phi=param)
    else:
        raise ValueError(f"unknown plan step {op!r}")
    return np.kron(np.eye(2), mat)


def step_operator(
    step: proto.PlanStep,
    model: InteractionModel | None,
    *,
    pol: Register,
    path: Register,
    spin: Register | None = None,
    flag: Register | None = None,
) -> Operator:
    """:func:`step_matrix` as a labelled operator: an optical element on
    (pol, path); a cavity pass as its two spin blocks on the diagonal of
    (spin, pol, path), with the photon's ``flag`` after them when the model
    is lossy."""
    mat = step_matrix(step, path.basis, model)
    if step[0] in ("scatter", "loop_cavity"):
        domain = (spin, pol, path)
        if not model.is_lossless:
            if flag is None:
                raise ValueError("a lossy model needs the photon's loss-flag register")
            domain += (flag,)
        return spin_block_operator(mat, domain)
    return Operator((pol, path), mat)


def spin_block_operator(blocks: np.ndarray, domain: Sequence[Register]) -> Operator:
    """Two spin blocks K[s, out, out] as one labelled operator on ``domain``,
    (spin, *out), zero off the spin diagonal."""
    return Operator(tuple(domain), _spin_block_diag(list(blocks)))


def plan_operators(
    plan: Sequence[proto.PlanStep],
    model: InteractionModel | None,
    *,
    pol: Register,
    path: Register,
    spin: Register | None = None,
    flag: Register | None = None,
) -> list[Operator]:
    """The labelled operators of one photon's schedule, in order of application."""
    return [
        step_operator(step, model, pol=pol, path=path, spin=spin, flag=flag) for step in plan
    ]


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
    ops = plan_operators(
        plan,
        model,
        pol=pol,
        path=state.register((RegisterKind.PATH, photon)),
        spin=present.get((RegisterKind.SPIN, 0)),
        flag=present.get((RegisterKind.LOSS_FLAG, photon)),
    )
    for op in ops:
        state = apply(op, state)
    return state


def run_photons_by_transpose(
    spin_amps: Sequence[complex],
    pols: np.ndarray,
    photon_ids: Sequence[int],
    in_ports: Sequence[str],
    plan: Sequence[proto.PlanStep],
    model: InteractionModel,
    ports: Sequence[str],
) -> StateVector:
    """:func:`~spinphoton.protocols.run_photons` on the whole
    :func:`choi_channel`, off-diagonal spin blocks and all: each pass moves
    the photon's (spin, pol) axes to the front, applies the channel's entry
    column as one (s′, out) × (s, p) matrix and moves the outputs back
    behind the photons already done."""
    pols = np.asarray(pols, dtype=np.complex128)
    psi = np.multiply.outer(np.asarray(spin_amps, dtype=np.complex128), pols.reshape(-1))
    if not in_ports:  # no photon, no channel: the spin state times the one amplitude
        return StateVector((qs.spin(),), psi.reshape(-1))
    entries = tuple(dict.fromkeys(in_ports))
    channel = choi_channel(plan, model, ports, entries)
    out_dim = math.prod(channel.shape[1:-3])  # pol′ × path′ [× flag′]
    done = 1
    for port in in_ports:
        kraus = channel[..., entries.index(port)].reshape(-1, 4)  # (s′, out) × (s, p)
        rest = psi.size // (4 * done)
        psi = psi.reshape(2, done, 2, rest).transpose(0, 2, 1, 3).reshape(4, -1)
        psi = (kraus @ psi).reshape(2, out_dim, done, rest).transpose(0, 2, 1, 3)
        done *= out_dim
    registers: tuple[Register, ...] = (qs.spin(),)
    for pid in photon_ids:
        registers += (qs.polarization(pid), qs.path(pid, ports))
        if channel.ndim == 7:  # T has a flag′ axis
            registers += (qs.loss_flag(pid),)
    return StateVector(registers, psi.reshape(-1))


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


def dense_ghz_branches(
    model: InteractionModel, n: int, spin_phase_drift: float = 0.0
) -> dict[str, tuple[proto.ProtocolResult, float]]:
    """``ghz(n)`` with each branch formed from the whole stream: the (2, 2ⁿ)
    amplitudes ψ of :func:`~spinphoton.protocols.entangle_stream`, and
    √2·branch± = ψ[Up] ± ψ[Down], refused when its weight is below ``ATOL``.
    Each branch comes with its share of the stream's weight."""
    stream = proto.entangle_stream([(1.0, 0.0)] * n, model=model, spin_phase_drift=spin_phase_drift)
    psi = stream.state.amps.reshape(2, -1)
    regs = tuple(qs.polarization(k) for k in range(1, n + 1))
    out = {}
    for name, sign, combine in (("Plus", 1.0, np.add), ("Minus", -1.0, np.subtract)):
        branch = combine(psi[0], psi[1])
        prob = 0.5 * float(np.vdot(branch, branch).real)
        if prob < ATOL:
            raise ValueError(f"the {name} herald has vanishing probability")
        fid = abs(branch[0] + sign * branch[-1]) ** 2 / (4.0 * prob)
        branch *= 1.0 / math.sqrt(2.0) / math.sqrt(prob)
        result = proto.ProtocolResult(StateVector(regs, branch), stream.success_probability * prob, fid)
        out[name] = (result, prob)
    return out


# The cavity builders as they were before the per-spin blocks: full-size
# Householder reflections for the one-sided pass, entry-by-entry placement
# for the two-sided pass.  The package's blocks, placed by dense_pass, must
# agree with them, with one known exception: without a flag register,
# dense_one_sided_operator writes the nonzero deficit of a model that is
# lossless only within tolerance into the next port's mode (or past the end
# of the sector), where the package's block leaves it out.


def _householder(dim: int, w: np.ndarray) -> np.ndarray:
    """I − 2|w⟩⟨w| / ⟨w|w⟩ — the reflection swapping the two vectors w bisects."""
    nrm = np.vdot(w, w).real
    if nrm < 1e-30:
        return np.eye(dim, dtype=np.complex128)
    return np.eye(dim, dtype=np.complex128) - 2.0 / nrm * np.outer(w, w.conj())


def _check_registers(
    pol: Register, path: Register, spin: Register, flag: Register | None
) -> None:
    if pol.kind is not qs.RegisterKind.POLARIZATION or pol.basis != qs.RL:
        raise ValueError("scattering acts on a circular (R/L) polarization register")
    if path.kind is not qs.RegisterKind.PATH:
        raise ValueError("second register must be a path register")
    if spin.kind is not qs.RegisterKind.SPIN or spin.basis != qs.UP_DOWN:
        raise ValueError("scattering acts on the spin in the Up/Down basis")
    if flag is not None and flag.kind is not qs.RegisterKind.LOSS_FLAG:
        raise ValueError("flag register must be a loss flag")


def dense_one_sided_operator(
    model: InteractionModel,
    *,
    pol: Register,
    path: Register,
    spin: Register,
    flag: Register | None = None,
    in_path: str,
    reflect_path: str,
    transmit_path: str,
    arrive_from: str = "below",
) -> Operator:
    """Unitary for one photon meeting the cavity from a single input port.

    Amplitude entering on ``in_path`` leaves on ``reflect_path`` (polarization
    flipped, + sign) or ``transmit_path`` (polarization kept, − sign); with a
    lossy model the branch deficit rotates into the photon's Lost flag.  The
    operator is a product of two commuting reflections, hence an involution:
    applying it twice is the identity.  Ports other than the three named ones
    ride along unchanged.
    """
    _check_registers(pol, path, spin, flag)
    if len({in_path, reflect_path, transmit_path}) != 3:
        raise ValueError("in/reflect/transmit ports must be three distinct names")
    if flag is None and not model.is_lossless:
        raise ValueError("a lossy model needs the photon's loss-flag register")

    nf = 1 if flag is None else 2
    sector_dim = 2 * path.dim * nf

    def idx(pol_name: str, path_name: str, lost: bool = False) -> int:
        i = (qs.RL.index(pol_name) * path.dim + path.index(path_name)) * nf
        return i + (1 if lost else 0)

    lam_c = _branch_loss_amp(model.coupled_reflect_amp, model.coupled_transmit_amp)
    lam_u = _branch_loss_amp(model.uncoupled_reflect_amp, model.uncoupled_transmit_amp)

    sectors = []
    for spin_name in qs.UP_DOWN:
        c = coupled_polarization(arrive_from, spin_name)
        u = _flip(c)

        v_c = np.zeros(sector_dim, dtype=np.complex128)
        v_c[idx(u, reflect_path)] = model.coupled_reflect_amp
        v_c[idx(c, transmit_path)] = -model.coupled_transmit_amp
        if lam_c > 0.0:
            v_c[idx(c, in_path, lost=True)] = lam_c

        v_u = np.zeros(sector_dim, dtype=np.complex128)
        v_u[idx(c, reflect_path)] = model.uncoupled_reflect_amp
        v_u[idx(u, transmit_path)] = -model.uncoupled_transmit_amp
        if lam_u > 0.0:
            v_u[idx(u, in_path, lost=True)] = lam_u

        w_c = -v_c
        w_c[idx(c, in_path)] += 1.0
        w_u = -v_u
        w_u[idx(u, in_path)] += 1.0
        sectors.append(_householder(sector_dim, w_c) @ _householder(sector_dim, w_u))

    return Operator(_assemble_domain(pol, path, spin, flag), _spin_block_diag(sectors))


def dense_two_sided_operator(
    model: InteractionModel,
    *,
    pol: Register,
    path: Register,
    spin: Register,
    flag: Register | None = None,
    lower_path: str,
    upper_path: str,
) -> Operator:
    """Unitary for a photon meeting the cavity inside a two-arm interferometer.

    The ``lower_path`` arm arrives from below, the ``upper_path`` arm from
    above.  Reflection keeps the arm and flips polarization; transmission
    crosses to the other arm with a − sign.  Because reflected and transmitted
    amplitudes recombine coherently, a lossy model loses probability even when
    r + t = 1 per branch; the deficit is rotated into the Lost flag through
    the exact pair dilation [[M, L], [L, −M]] with L = √(1 − M²).
    """
    _check_registers(pol, path, spin, flag)
    if lower_path == upper_path:
        raise ValueError("lower and upper arms must differ")
    if flag is None and not model.is_lossless:
        raise ValueError("a lossy model needs the photon's loss-flag register")

    nf = 1 if flag is None else 2
    sector_dim = 2 * path.dim * nf

    def idx(pol_name: str, path_name: str, lost: bool = False) -> int:
        i = (qs.RL.index(pol_name) * path.dim + path.index(path_name)) * nf
        return i + (1 if lost else 0)

    m_c, l_c = pair_blocks(model.coupled_reflect_amp, model.coupled_transmit_amp)
    m_u, l_u = pair_blocks(model.uncoupled_reflect_amp, model.uncoupled_transmit_amp)

    sectors = []
    for spin_name in qs.UP_DOWN:
        # Coupled pair: (c_low, lower) and (c_up, upper); the uncoupled pair
        # holds the flipped polarizations.  Reflection maps each coupled state
        # onto the uncoupled state in the same arm and vice versa.
        c_low = coupled_polarization("below", spin_name)
        c_up = coupled_polarization("above", spin_name)
        c_states = [(c_low, lower_path), (c_up, upper_path)]
        u_states = [(_flip(c_low), lower_path), (_flip(c_up), upper_path)]

        mat = np.eye(sector_dim, dtype=np.complex128)
        c_a = [idx(p, a) for p, a in c_states]
        u_a = [idx(p, a) for p, a in u_states]
        for block in (c_a, u_a):
            for j in block:
                mat[j, j] = 0.0
                if nf == 2:
                    mat[j + 1, j + 1] = 0.0

        # Column convention: reflection of (c_low, lower) lands on
        # (flip(c_low), lower) = u_states[0]; transmission crosses the arm,
        # keeping polarization: (c_low, upper) = u_states[1].
        for k, j in enumerate(c_a):
            mat[u_a[0], j] = m_c[0, k]
            mat[u_a[1], j] = m_c[1, k]
            if nf == 2:
                mat[c_a[0] + 1, j] = l_c[0, k]
                mat[c_a[1] + 1, j] = l_c[1, k]
        for k, j in enumerate(u_a):
            mat[c_a[0], j] = m_u[0, k]
            mat[c_a[1], j] = m_u[1, k]
            if nf == 2:
                mat[u_a[0] + 1, j] = l_u[0, k]
                mat[u_a[1] + 1, j] = l_u[1, k]
        if nf == 2:
            # Lost columns: the dilation's lower-right blocks.
            for k, j in enumerate(c_a):
                mat[u_a[0], j + 1] = l_c[0, k]
                mat[u_a[1], j + 1] = l_c[1, k]
                mat[c_a[0] + 1, j + 1] = -m_c[0, k]
                mat[c_a[1] + 1, j + 1] = -m_c[1, k]
            for k, j in enumerate(u_a):
                mat[c_a[0], j + 1] = l_u[0, k]
                mat[c_a[1], j + 1] = l_u[1, k]
                mat[u_a[0] + 1, j + 1] = -m_u[0, k]
                mat[u_a[1] + 1, j + 1] = -m_u[1, k]
        sectors.append(mat)

    return Operator(_assemble_domain(pol, path, spin, flag), _spin_block_diag(sectors))


def _assemble_domain(
    pol: Register, path: Register, spin: Register, flag: Register | None
) -> tuple[Register, ...]:
    if flag is None:
        return (spin, pol, path)
    return (spin, pol, path, flag)


def _spin_block_diag(sectors: list[np.ndarray]) -> np.ndarray:
    d = sectors[0].shape[0]
    out = np.zeros((2 * d, 2 * d), dtype=np.complex128)
    out[:d, :d] = sectors[0]
    out[d:, d:] = sectors[1]
    return out


# Dense optical builders, one full matrix per element: the reference that
# the small blocks of ``optics.element`` are checked against.  Each builder
# takes ``ports``, the names of the photon's spatial modes in order, and
# returns a read-only unitary matrix: on (pol, path), pol in R/L and
# row-major, for the elements that see polarization, and on path alone for
# the splitter ``bs`` and the phase plate, which do not.


def _pol_path_index(ports: Sequence[str], pol_i: int, port: str) -> int:
    return pol_i * len(ports) + proto._port_index(ports, port)


def _swap(mat: np.ndarray, i: int, j: int, amp: complex = 1.0) -> None:
    # overwrite the identity entries with a two-state swap
    mat[i, i] = 0.0
    mat[j, j] = 0.0
    mat[i, j] = amp
    mat[j, i] = amp


def _read_only(mat: np.ndarray) -> np.ndarray:
    mat.flags.writeable = False
    return mat


def cpbs_operator(ports: Sequence[str], *, in_path: str, r_out: str, l_out: str) -> np.ndarray:
    """Three-port circular polarizing splitter: R to ``r_out``, L to ``l_out``.

    Bidirectional (swap-based), so feeding the output ports routes back to
    ``in_path``.  An output may coincide with the input port, in which case
    that polarization passes straight through.
    """
    if r_out == l_out:
        raise ValueError("r_out and l_out must be distinct ports")
    mat = np.eye(2 * len(ports), dtype=np.complex128)
    if r_out != in_path:
        _swap(mat, _pol_path_index(ports, 0, in_path), _pol_path_index(ports, 0, r_out))
    if l_out != in_path:
        _swap(mat, _pol_path_index(ports, 1, in_path), _pol_path_index(ports, 1, l_out))
    return _read_only(mat)


def cpbs4_operator(
    ports: Sequence[str], *, in_paths: tuple[str, str], out_paths: tuple[str, str]
) -> np.ndarray:
    """Four-port circular splitter: R keeps rank (in[k] ↔ out[k]), L crosses.

    Used as the entry/exit element of the gate interferometer, where both
    input ports can be occupied simultaneously.
    """
    if len({*in_paths, *out_paths}) != 4:
        raise ValueError("cpbs4 needs four distinct ports")
    mat = np.eye(2 * len(ports), dtype=np.complex128)
    for k in (0, 1):
        _swap(
            mat,
            _pol_path_index(ports, 0, in_paths[k]),
            _pol_path_index(ports, 0, out_paths[k]),
        )
        _swap(
            mat,
            _pol_path_index(ports, 1, in_paths[k]),
            _pol_path_index(ports, 1, out_paths[1 - k]),
        )
    return _read_only(mat)


_BS_BLOCK = np.array([[1.0, 1.0j], [1.0j, 1.0]], dtype=np.complex128) / math.sqrt(2.0)


def bs_operator(
    ports: Sequence[str], *, in_a: str, in_b: str, out_c: str, out_d: str
) -> np.ndarray:
    """Symmetric 50:50 splitter, polarization-blind, on path.

    ``in_a`` → (out_c + i·out_d)/√2 and ``in_b`` → (i·out_c + out_d)/√2.
    Accepts either four distinct ports (output modes swap back onto the
    inputs for unitarity) or the in-place form out_c = in_a, out_d = in_b
    with two distinct inputs.
    """
    mat = np.eye(len(ports), dtype=np.complex128)
    ia, ib = proto._port_index(ports, in_a), proto._port_index(ports, in_b)
    if (out_c, out_d) == (in_a, in_b):
        if in_a == in_b:
            raise ValueError("bs inputs must differ")
        for i, gi in enumerate((ia, ib)):
            for j, gj in enumerate((ia, ib)):
                mat[gi, gj] = _BS_BLOCK[i, j]
    else:
        if len({in_a, in_b, out_c, out_d}) != 4:
            raise ValueError("bs ports must be four distinct names or fully in-place")
        oc, od = proto._port_index(ports, out_c), proto._port_index(ports, out_d)
        for i in (ia, ib, oc, od):
            mat[i, i] = 0.0
        for i, gi in enumerate((oc, od)):
            for j, gj in enumerate((ia, ib)):
                mat[gi, gj] = _BS_BLOCK[i, j]
                mat[gj, gi] = _BS_BLOCK[i, j]
    return _read_only(mat)


def mirror_operator(ports: Sequence[str], *, at: str) -> np.ndarray:
    """Fold mirror on one port: exchanges R and L amplitudes there."""
    mat = np.eye(2 * len(ports), dtype=np.complex128)
    _swap(mat, _pol_path_index(ports, 0, at), _pol_path_index(ports, 1, at))
    return _read_only(mat)


def hwp_operator(ports: Sequence[str], *, at: str, theta: float = 0.0) -> np.ndarray:
    """Half-wave plate at angle ``theta`` on one port.

    In the circular basis: R → e^{-2iθ} L, L → e^{+2iθ} R.  A θ whose 2θ
    is not finite is refused.
    """
    if not math.isfinite(2.0 * theta):
        raise ValueError(f"hwp angle theta={theta!r}: theta and 2*theta must be finite")
    mat = np.eye(2 * len(ports), dtype=np.complex128)
    i_r = _pol_path_index(ports, 0, at)
    i_l = _pol_path_index(ports, 1, at)
    mat[i_r, i_r] = 0.0
    mat[i_l, i_l] = 0.0
    mat[i_l, i_r] = np.exp(-2.0j * theta)
    mat[i_r, i_l] = np.exp(2.0j * theta)
    return _read_only(mat)


def phase_operator(ports: Sequence[str], *, at: str, phi: float) -> np.ndarray:
    """Phase plate e^{iφ} on one port, both polarizations, on path; φ must be finite."""
    if not math.isfinite(phi):
        raise ValueError(f"phase angle phi={phi!r} must be finite")
    mat = np.eye(len(ports), dtype=np.complex128)
    i = proto._port_index(ports, at)
    mat[i, i] = np.exp(1.0j * phi)
    return _read_only(mat)


# -- the protocols as they built a state per step --------------------------
#
# The analyzer and the heralded spin preparation before they worked on the
# arrays: the analyzer makes its detected slice a state and pairs its
# records through a dict; the spin preparation makes each branch, its
# normalized copy and its target a state and takes the fidelity of two
# states.  The package's versions must match them bit for bit.


@functools.lru_cache(maxsize=64)
def _coincidences(
    pid_lo: int, pid_hi: int
) -> tuple[tuple[Register, ...], tuple[OutcomeRecord, ...]]:
    """The registers of the coincidence slice, (spin, pol, path cut to C/D)
    for the lower id, then the same for the higher, and its 32 records in
    row-major order after detection: spin ±, then each photon's (H/V, C/D)."""
    registers = (qs.spin(),)
    for pid in (pid_lo, pid_hi):
        registers += (qs.polarization(pid), qs.path(pid, proto._DETECTOR_PORTS))
    clicks = [
        PhotonOutcome(port=port, pol=pol) for pol in qs.HV for port in proto._DETECTOR_PORTS
    ]
    records = tuple(
        OutcomeRecord(photons=((pid_lo, lo), (pid_hi, hi)), spin=spin)
        for spin in qs.PLUS_MINUS
        for lo in clicks
        for hi in clicks
    )
    return registers, records


def bsa_by_states(
    two_photon_pol: StateVector,
    model: InteractionModel | None = None,
) -> types.SimpleNamespace:
    """:func:`~spinphoton.protocols.bsa` from its whole pre-detection state,
    with its detected slice made a state and its records paired with the
    probabilities in a dict; a namespace with ``bsa``'s three attributes."""
    state = proto.bsa_state(two_photon_pol, model)
    pid_lo, pid_hi = (reg.id for reg in state.registers if reg.kind is RegisterKind.POLARIZATION)
    # [s, p₁, path₁, flag₁, p₂, path₂, flag₂], with one-entry flag axes if lossless
    flag = state.registers[-1].dim if state.registers[-1].kind is RegisterKind.LOSS_FLAG else 1
    amps = state.amps.reshape(2, 2, len(proto.BSA_PATHS), flag, 2, len(proto.BSA_PATHS), flag)
    detectors = slice(proto.BSA_PATHS.index("C"), proto.BSA_PATHS.index("D") + 1)
    amps = amps[:, :, detectors, 0, :, detectors, 0]
    success = float(np.vdot(amps, amps).real)
    if success <= 1e-15:  # the weight below which an outcome is dropped
        raise ValueError("no coincidence outcomes survived the analyzer")
    registers, records = _coincidences(pid_lo, pid_hi)
    detected = StateVector._adopt(registers, amps * (1.0 / math.sqrt(success)))
    probs = (np.abs(proto._DETECTION @ detected.amps) ** 2).tolist()
    dist = Distribution(dict(zip(records, probs)))
    return types.SimpleNamespace(state=state, distribution=dist, success_probability=success)


def spin_prep_by_states(
    spin_amps: tuple[complex, complex],
    model: InteractionModel | None = None,
) -> dict[str, proto.ProtocolResult]:
    """:func:`~spinphoton.protocols.conditional_spin_prep` with each branch,
    its normalized copy and its target made a state, and the fidelity taken
    between two states."""
    model = model or InteractionModel.ideal()
    state = proto.run_photons(
        proto._normalize_pair(spin_amps), [1.0, 0.0], (1,), ("In",),
        proto.SPIN_PREP_PLAN, model, proto._SPIN_PREP_PATHS,
    )
    # [spin, pol, path, flag], with a one-entry flag axis if lossless
    alive = state.amps.reshape(2, 2, len(proto._SPIN_PREP_PATHS), -1)[..., 0]
    out: dict[str, proto.ProtocolResult] = {}
    targets = {"Refl": [1.0, 0.0], "Trans": [0.0, 1.0]}
    for port, target_amps in targets.items():
        branch = alive[:, :, proto._SPIN_PREP_PATHS.index(port)]
        prob = float(np.vdot(branch, branch).real)
        if prob <= 1e-12:  # input spin had no weight on this outcome
            continue
        spin_amps_out = branch[:, qs.RL.index(proto._port_pol(port))]
        spin_state = StateVector((qs.spin(),), spin_amps_out).normalized()
        target = StateVector((qs.spin(),), target_amps)
        out[port] = proto.ProtocolResult(spin_state, prob, qs.fidelity(spin_state, target))
    return out


# -- a cavity pass's block from Python lists -------------------------------


def _reflection_rows(reflect: float, transmit: float) -> list[list[float]]:
    lost = _branch_loss_amp(reflect, transmit)
    w = (1.0, -reflect, transmit, -lost)
    scale = 2.0 / (1.0 + reflect * reflect + transmit * transmit + lost * lost)
    return [[float(a == b) - scale * (wa * wb) for b, wb in enumerate(w)] for a, wa in enumerate(w)]


def _dilation_rows(reflect: float, transmit: float) -> list[list[float]]:
    m, root = (block.tolist() for block in pair_blocks(reflect, transmit))
    minus_m = [[-x for x in row] for row in m]
    return [m[0] + root[0], m[1] + root[1], root[0] + minus_m[0], root[1] + minus_m[1]]


def pass_block_from_lists(model: InteractionModel, op: str) -> np.ndarray:
    """:func:`~spinphoton.cavity.pass_block` with each branch's block written
    entry by entry as nested Python lists."""
    block = _reflection_rows if op == "scatter" else _dilation_rows
    coupled = block(model.coupled_reflect_amp, model.coupled_transmit_amp)
    uncoupled = block(model.uncoupled_reflect_amp, model.uncoupled_transmit_amp)
    size = 4 if not model.is_lossless else 3 if op == "scatter" else 2
    out = np.zeros((2 * size, 2 * size), dtype=np.complex128)
    out[:size, :size] = [row[:size] for row in coupled[:size]]
    out[size:, size:] = [row[:size] for row in uncoupled[:size]]
    return out
