"""Slow, plain reference computations that only the tests use.

Each helper is the direct construction that a faster path in the package
must agree with: a dense operator, a projection, a phase-blind comparison,
a plan run step by step on a labelled state, photons run through the whole
channel with a transpose around each pass, a photon channel read off one
run of its plan on a Choi input, the outcome table read entry by entry, the
analyzer's outcome table enumerated on its coincidence slice, the loss
completion of a two-sided pass by eigendecomposition, the closed forms of
the heralded gate and of the GHZ figures, the GHZ branches formed from the
whole stream, and both cavity passes built at full sector size.  The
labelled state layer that the package no longer runs lives here too: a
basis state, a register-labelled operator applied to a state, a basis
change, and each plan step as a labelled operator.  So do a few small
helpers that only the tests use.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence

import numpy as np

from spinphoton import protocols as proto
from spinphoton import qstate as qs
from spinphoton.cavity import (
    InteractionModel,
    _branch_loss_amp,
    _flip,
    _pair_blocks,
    coupled_polarization,
)
from spinphoton.measurement import (
    Distribution,
    MeasurementBases,
    OutcomeRecord,
    PhotonOutcome,
    enumerate_outcomes,
)
from spinphoton.qstate import ATOL, Operator, Register, RegisterKey, RegisterKind, StateVector


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


def step_operator(
    step: proto.PlanStep,
    model: InteractionModel | None,
    *,
    pol: Register,
    path: Register,
    spin: Register | None = None,
    flag: Register | None = None,
) -> Operator:
    """The package's matrix of one plan step as a labelled operator: an
    optical element on (pol, path), or on path for ``bs`` and ``phase``; a
    cavity pass as its two spin blocks on the diagonal of (spin, pol, path),
    with the photon's ``flag`` after them when the model is lossy."""
    mat = proto._step_matrix(step, path.basis, model)
    if step[0] in ("scatter", "loop_cavity"):
        domain = (spin, pol, path)
        if not model.is_lossless:
            if flag is None:
                raise ValueError("a lossy model needs the photon's loss-flag register")
            domain += (flag,)
        return spin_block_operator(mat, domain)
    return Operator((path,) if step[0] in ("bs", "phase") else (pol, path), mat)


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
# for the two-sided pass.  The package's builders must agree with them, with
# one known exception: without a flag register, dense_one_sided_operator
# writes the nonzero deficit of a model that is lossless only within
# tolerance into the next port's mode (or past the end of the sector), where
# the package's builder leaves it out.


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

    m_c, l_c = _pair_blocks(model.coupled_reflect_amp, model.coupled_transmit_amp)
    m_u, l_u = _pair_blocks(model.uncoupled_reflect_amp, model.uncoupled_transmit_amp)

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
