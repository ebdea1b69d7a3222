"""The three interface protocols built from cavity scattering + linear optics.

* :func:`cnot` — the photon-spin controlled-flip gate: a four-port circulating
  interferometer around the cavity.  Spin Up leaves the photon polarization
  alone; spin Down exchanges R and L.  The photon enters on port A and leaves
  deterministically on port D.
* :func:`entangle_stream` / :func:`ghz` — the same gate applied to a train of
  photons sharing the one spin, creating Bell, GHZ, and graph-like states;
  reading the spin in the ± basis heralds which multi-photon state remains.
  The stream applies the gate as its heralded Kraus map, the 4×4
  :func:`cnot_gate_matrix` on (polarization ⊗ spin), so no photon's path or
  loss flag enters its state.  The gate never flips the spin, so the stream
  is two product states, c↑|↑⟩⊗ₖ(G↑vₖ) + c↓|↓⟩⊗ₖ(G↓vₖ), each kept as two
  factors, one per half of the photons; only the returned states are written.
* :func:`bsa` — the spin-heralded complete Bell-state analyzer: both photons
  scatter off the cavity in turn, the transmitted arm is folded and mixed with
  the reflected arm on a 50:50 splitter, and the (port, linear polarization,
  spin ±) pattern identifies all four Bell states unambiguously.

Every function accepts an :class:`~spinphoton.cavity.InteractionModel`; with a
lossy model the returned ``success_probability`` is the weight of the heralded
(all photons alive at their detectors) branch and the state is that branch,
renormalized.

Each protocol's per-photon schedule is data — :data:`CNOT_PLAN`,
:data:`BSA_PLAN`, :data:`SPIN_PREP_PLAN` — and the circuit compiler emits
its schedule as the same data.  Photons meet only through the spin, so a
photon's whole trip is one linear map: :func:`photon_channel` composes the
schedule's operators into it on a plain array, once per model, on its entry
ports, and :func:`run_photons` applies its two spin blocks once per photon.
The model keeps the channel and its blocks, so a caller that holds one model
pays for each plan's channel once.  Each protocol writes its result once,
into the array that the returned state keeps without a copy.  Only this
module gives a photon its entry port, its path register and, under loss,
its Alive/Lost flag.  The stream takes the gate, :func:`cnot_gate_matrix`,
from the channel of :data:`CNOT_PLAN`.  The analyzer reads its outcome
table off the detector coincidences alone.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from collections.abc import Sequence

import numpy as np

from . import cavity as cav
from . import measurement as meas
from . import optics as opt
from . import qstate as qs
from .cavity import InteractionModel
from .qstate import Operator, Register, RegisterKind, StateVector

__all__ = [
    "BellState",
    "ProtocolResult",
    "CNOT_PATHS",
    "BSA_PATHS",
    "PlanStep",
    "CNOT_PLAN",
    "BSA_PLAN",
    "SPIN_PREP_PLAN",
    "plan_operators",
    "photon_channel",
    "run_photons",
    "cnot",
    "cnot_gate_matrix",
    "conditional_spin_prep",
    "entangle_stream",
    "ghz",
    "BsaResult",
    "bsa",
    "bsa_state",
    "classify_outcome",
]

_SQ = 1.0 / math.sqrt(2.0)

#: Interferometer ports of the gate: photon in at A, out at D; B/C are the
#: lower/upper cavity arms.
CNOT_PATHS = ("A", "B", "C", "D")

#: Analyzer ports: photons in at In; C and D are the detector ports.
BSA_PATHS = ("In", "Refl", "Trans", "C", "D")

#: One step of a photon's schedule: ``(op, ports, param)``.  The ops, with
#: their ports in order:
#:
#: * ``cpbs3`` (in, r_out, l_out) — three-port circular splitter;
#: * ``cpbs4`` (in_a, in_b, out_a, out_b) — four-port circular splitter;
#: * ``bs`` (in_a, in_b, out_c, out_d) — 50:50 splitter;
#: * ``mirror``, ``hwp``, ``phase`` (at,) — in-place elements; ``param`` is
#:   the wave-plate angle θ or the phase φ;
#: * ``scatter`` (in, reflect, transmit) — one-sided cavity pass from below;
#: * ``loop_cavity`` (lower, upper) — two-arm cavity pass.
PlanStep = tuple[str, tuple[str, ...], float]

#: The gate on :data:`CNOT_PATHS`: one four-port splitter traversed on entry
#: and exit (it is bidirectional), with a π plate on the upper arm
#: compensating the cavity's transmission sign on each pass.
CNOT_PLAN: tuple[PlanStep, ...] = (
    ("cpbs4", ("A", "D", "C", "B"), 0.0),
    ("phase", ("C",), math.pi),
    ("loop_cavity", ("B", "C"), 0.0),
    ("phase", ("C",), math.pi),
    ("cpbs4", ("A", "D", "C", "B"), 0.0),
)

#: One photon's trip through the analyzer on :data:`BSA_PATHS`: scatter, fold
#: the transmitted arm, mix it with the reflected arm.
BSA_PLAN: tuple[PlanStep, ...] = (
    ("scatter", ("In", "Refl", "Trans"), 0.0),
    ("mirror", ("Trans",), 0.0),
    ("bs", ("Trans", "Refl", "C", "D"), 0.0),
)

#: Heralded spin preparation: one bounce off the cavity.
SPIN_PREP_PLAN: tuple[PlanStep, ...] = (("scatter", ("In", "Refl", "Trans"), 0.0),)

_SPIN_PREP_PATHS = ("In", "Refl", "Trans")

#: Plan ops that pass the cavity, and so lose light under a lossy model.
_CAVITY_OPS = ("scatter", "loop_cavity")


class BellState(enum.Enum):
    """The four two-photon Bell states in the circular basis."""

    PSI_PLUS = "psi+"
    PSI_MINUS = "psi-"
    PHI_PLUS = "phi+"
    PHI_MINUS = "phi-"

    def amplitudes(self) -> np.ndarray:
        """Amplitudes over (pol₁, pol₂) in row-major R/L order."""
        s = _SQ
        return {
            BellState.PSI_PLUS: np.array([0, s, s, 0], dtype=complex),
            BellState.PSI_MINUS: np.array([0, s, -s, 0], dtype=complex),
            BellState.PHI_PLUS: np.array([s, 0, 0, s], dtype=complex),
            BellState.PHI_MINUS: np.array([s, 0, 0, -s], dtype=complex),
        }[self]

    def state(self, photon_ids: tuple[int, int] = (1, 2)) -> StateVector:
        regs = (qs.polarization(photon_ids[0]), qs.polarization(photon_ids[1]))
        return StateVector(regs, self.amplitudes())

    @classmethod
    def from_label(cls, label: str) -> "BellState":
        for member in cls:
            if member.value == label:
                return member
        names = {m.name.lower().replace("_", ""): m for m in cls}
        key = label.lower().replace("_", "").replace("-", "minus").replace("+", "plus")
        if key in names:
            return names[key]
        raise ValueError(f"unknown Bell state {label!r}")


@dataclasses.dataclass(frozen=True)
class ProtocolResult:
    """A heralded protocol output.

    ``state``: the normalized post-selected state.
    ``success_probability``: weight of the post-selected branch.
    ``fidelity``: overlap² with the ideal target (1.0 for ideal models).
    """

    state: StateVector
    success_probability: float
    fidelity: float


# ---------------------------------------------------------------------------
# Schedules and their executor
# ---------------------------------------------------------------------------


def _step_operator(
    step: PlanStep,
    model: InteractionModel,
    pol: Register,
    path: Register,
    spin: Register | None,
    flag: Register | None,
) -> Operator:
    op, ports, param = step
    if op == "cpbs3":
        return opt.cpbs_operator(pol, path, in_path=ports[0], r_out=ports[1], l_out=ports[2])
    if op == "cpbs4":
        return opt.cpbs4_operator(pol, path, in_paths=ports[:2], out_paths=ports[2:])
    if op == "bs":
        in_a, in_b, out_c, out_d = ports
        return opt.bs_operator(path, in_a=in_a, in_b=in_b, out_c=out_c, out_d=out_d)
    if op == "mirror":
        return opt.mirror_operator(pol, path, at=ports[0])
    if op == "hwp":
        return opt.hwp_operator(pol, path, at=ports[0], theta=param)
    if op == "phase":
        return opt.phase_operator(path, at=ports[0], phi=param)
    if op == "scatter":
        in_path, reflect_path, transmit_path = ports
        return cav.one_sided_operator(
            model, pol=pol, path=path, spin=spin, flag=flag,
            in_path=in_path, reflect_path=reflect_path, transmit_path=transmit_path,
        )
    if op == "loop_cavity":
        return cav.two_sided_operator(
            model, pol=pol, path=path, spin=spin, flag=flag,
            lower_path=ports[0], upper_path=ports[1],
        )
    raise ValueError(f"unknown plan step {op!r}")


def plan_operators(
    plan: Sequence[PlanStep],
    model: InteractionModel,
    *,
    pol: Register,
    path: Register,
    spin: Register | None = None,
    flag: Register | None = None,
) -> list[Operator]:
    """The operators of one photon's schedule, in order of application.

    Each distinct step is built once: a step the plan repeats, like the
    gate's splitter and π plate, reuses its operator.  Cavity steps need the
    ``spin``; with a lossy model they also need the photon's loss ``flag``.
    """
    built: dict[PlanStep, Operator] = {}
    for step in plan:
        if step not in built:
            built[step] = _step_operator(step, model, pol, path, spin, flag)
    return [built[step] for step in plan]


def photon_channel(
    plan: Sequence[PlanStep],
    model: InteractionModel,
    ports: Sequence[str],
    in_ports: Sequence[str],
) -> np.ndarray:
    """One photon's whole schedule as a linear map on the spin and the photon.

    Returns T[s′, p′, path′(, flag′), s, p, entry]: the photon enters in
    polarization p on port ``in_ports[entry]`` with the spin in s, and leaves
    in (s′, p′, path′), Alive or Lost.  The flag axis is there exactly when
    the model is lossy and the plan passes the cavity.  T starts as the
    identity on the entry columns and takes each of the plan's operators in
    turn, contracted with its (spin, pol, path[, flag]) axes.  The channel
    is built once per model, on its entry ports, and kept on the model; the
    array returned is read-only.
    """
    ports, in_ports = tuple(ports), tuple(in_ports)
    for port in in_ports:
        if port not in ports:
            raise ValueError(f"entry port {port!r} is not one of the ports {ports}")
    key = (tuple(plan), ports, in_ports)
    channel = model._channels.get(key)
    if channel is not None:
        return channel
    registers = (qs.spin(), qs.polarization(1), qs.path(1, ports))
    if not model.is_lossless and any(step[0] in _CAVITY_OPS for step in plan):
        registers += (qs.loss_flag(1),)
    # the identity on the entry columns: T[s, p, entry port(, Alive), s, p, entry] = 1
    channel = np.zeros(tuple(r.dim for r in registers) + (2, 2, len(in_ports)), dtype=np.complex128)
    alive = (0,) if len(registers) == 4 else ()
    for entry, port in enumerate(in_ports):
        column = (slice(None), slice(None), ports.index(port), *alive, ..., entry)
        channel[column] = np.eye(4).reshape(2, 2, 2, 2)
    axis = {reg.key: ax for ax, reg in enumerate(registers)}
    spin, pol, path, *flag = registers
    ops = plan_operators(plan, model, pol=pol, path=path, spin=spin, flag=flag[0] if flag else None)
    for op in ops:
        axes = [axis[reg.key] for reg in op.domain]
        mat = op.matrix.reshape(tuple(reg.dim for reg in op.domain) * 2)
        channel = np.tensordot(mat, channel, axes=(range(len(axes), 2 * len(axes)), axes))
        channel = np.moveaxis(channel, range(len(axes)), axes)
    channel.flags.writeable = False
    model._channels[key] = channel
    return channel


def _spin_blocks(
    plan: Sequence[PlanStep],
    model: InteractionModel,
    ports: Sequence[str],
    in_ports: tuple[str, ...],
) -> np.ndarray:
    """K[entry, s, out, p]: the spin-s block of :func:`photon_channel`, for
    the photon entering in polarization p on ``in_ports[entry]`` and leaving
    in out = (p′, path′[, flag′]).  No channel flips the spin, so these blocks
    are all of it.  They are built once per model and kept read-only on the
    model next to the channel."""
    key = ("blocks", tuple(plan), tuple(ports), in_ports)
    blocks = model._channels.get(key)
    if blocks is None:
        channel = photon_channel(plan, model, ports, in_ports)
        out_dim = math.prod(channel.shape[1:-3])
        # the s′ = s diagonal, [out, p, entry, s]
        diag = np.diagonal(channel.reshape(2, out_dim, 2, 2, len(in_ports)), axis1=0, axis2=2)
        blocks = np.ascontiguousarray(diag.transpose(2, 3, 0, 1))
        blocks.flags.writeable = False
        model._channels[key] = blocks
    return blocks


def run_photons(
    spin_amps: Sequence[complex],
    pols: np.ndarray,
    photon_ids: Sequence[int],
    in_ports: Sequence[str],
    plan: Sequence[PlanStep],
    model: InteractionModel,
    ports: Sequence[str],
) -> StateVector:
    """Send photons through ``plan`` one at a time, in ``photon_ids`` order.

    ``pols`` holds the photons' joint R/L amplitudes, one axis per photon in
    that order, and photon k enters on port ``in_ports[k]``.  The plan's
    :func:`photon_channel` is built once per model on the distinct entry
    ports and held as its two spin blocks.  Each pass is one batched
    product of the photon's entry block with its R/L axis, per spin, that
    writes a fresh array already in the final register order, so nothing is
    transposed or copied; the returned state keeps the last pass's array.
    The result orders registers (spin, pol, path[, flag]) per photon; with
    no photons it is the spin state times ``pols``' one amplitude.  An entry
    port outside ``ports`` is refused before any work, and a result over
    :data:`~spinphoton.qstate.MAX_AMPLITUDES` before the first pass.
    """
    pols = np.asarray(pols, dtype=np.complex128)
    if len(in_ports) != len(photon_ids) or pols.size != 2 ** len(photon_ids):
        raise ValueError("need one R/L axis and one entry port per photon")
    entries = tuple(dict.fromkeys(in_ports))
    blocks = _spin_blocks(plan, model, ports, entries)
    out_dim = blocks.shape[2]  # pol′ × path′ [× flag′]
    size = 2 * out_dim ** len(photon_ids)
    if size > qs.MAX_AMPLITUDES:
        raise ValueError(
            f"{len(photon_ids)} photons need a state of {size} amplitudes, "
            f"over the budget of {qs.MAX_AMPLITUDES}"
        )
    psi = np.multiply.outer(np.asarray(spin_amps, dtype=np.complex128), pols.reshape(-1))
    done = 1
    for port in in_ports:
        rest = psi.size // (4 * done)
        # [s, done, p, rest] -> [s, done, out, rest]: already in register order
        psi = np.matmul(blocks[entries.index(port)][:, None], psi.reshape(2, done, 2, rest))
        done *= out_dim
    registers: tuple[Register, ...] = (qs.spin(),)
    for pid in photon_ids:
        registers += (qs.polarization(pid), qs.path(pid, ports))
        if out_dim == 4 * len(ports):  # the channel has a flag′ axis
            registers += (qs.loss_flag(pid),)
    return StateVector._adopt(registers, psi)


# ---------------------------------------------------------------------------
# The photon-spin gate
# ---------------------------------------------------------------------------


def cnot(
    photon_amps: tuple[complex, complex],
    spin_amps: tuple[complex, complex],
    model: InteractionModel | None = None,
) -> ProtocolResult:
    """Run one photon through the gate: the one-photon :func:`entangle_stream`.

    ``photon_amps`` = (R, L) amplitudes, ``spin_amps`` = (Up, Down); both are
    normalized on entry.  Returns the (spin ⊗ pol) state at port D.
    """
    return entangle_stream([photon_amps], spin_amps, model)


def _normalize_pair(amps: tuple[complex, complex]) -> tuple[complex, complex]:
    a, b = complex(amps[0]), complex(amps[1])
    parts = (a.real, a.imag, b.real, b.imag)
    if not all(map(math.isfinite, parts)):
        raise ValueError(f"amplitude pair must be finite, got {amps!r}")
    big = max(map(abs, parts))  # divided by it, the norm neither overflows nor underflows
    if big == 0:
        raise ValueError("amplitude pair must not be zero")
    a, b = a / big, b / big
    n = math.hypot(a.real, a.imag, b.real, b.imag)
    return (a / n, b / n)


def cnot_gate_matrix(model: InteractionModel | None = None) -> np.ndarray:
    """The post-selected gate on (pol ⊗ spin), basis [R↑, R↓, L↑, L↓].

    Ideal models give the exact controlled-flip unitary; lossy models give the
    sub-unitary matrix of the photon-exits-alive-at-D branch: the in-at-A,
    Alive-at-D slice of the :func:`photon_channel` of :data:`CNOT_PLAN`.
    """
    model = model or InteractionModel.ideal()
    # [s′, p′, path′, flag′, s, p], with a one-entry flag axis if lossless
    channel = photon_channel(CNOT_PLAN, model, CNOT_PATHS, ("A",))
    gate = channel.reshape(2, 2, len(CNOT_PATHS), -1, 2, 2)[:, :, CNOT_PATHS.index("D"), 0]
    # a fresh array: the channel itself is the model's, read-only
    return gate.transpose(1, 0, 3, 2).reshape(4, 4)


def conditional_spin_prep(
    spin_amps: tuple[complex, complex],
    model: InteractionModel | None = None,
) -> dict[str, ProtocolResult]:
    """Heralded spin readout/preparation by scattering one R photon from below.

    The photon reflects iff the spin is Up, so detecting it on the Refl port
    projects the spin onto Up (and Trans onto Down).  Returns the two heralded
    outcomes keyed by port name, with their probabilities.
    """
    model = model or InteractionModel.ideal()
    state = run_photons(
        _normalize_pair(spin_amps), [1.0, 0.0], (1,), ("In",),
        SPIN_PREP_PLAN, model, _SPIN_PREP_PATHS,
    )
    # [spin, pol, path, flag], with a one-entry flag axis if lossless
    alive = state.amps.reshape(2, 2, len(_SPIN_PREP_PATHS), -1)[..., 0]
    out: dict[str, ProtocolResult] = {}
    targets = {"Refl": [1.0, 0.0], "Trans": [0.0, 1.0]}
    for port, target_amps in targets.items():
        branch = alive[:, :, _SPIN_PREP_PATHS.index(port)]
        prob = float(np.vdot(branch, branch).real)
        if prob <= 1e-12:  # input spin had no weight on this outcome
            continue
        spin_amps_out = branch[:, qs.RL.index(_port_pol(port))]
        spin_state = qs.from_amplitudes(qs.spin(), spin_amps_out).normalized()
        target = qs.from_amplitudes(qs.spin(), target_amps)
        out[port] = ProtocolResult(spin_state, prob, qs.fidelity(spin_state, target))
    return out


def _port_pol(port: str) -> str:
    # an R photon from below leaves the reflection port left-circular and the
    # transmission port right-circular
    return "L" if port == "Refl" else "R"


# ---------------------------------------------------------------------------
# Entangler and GHZ source
# ---------------------------------------------------------------------------


def _stream(
    amps: Sequence[tuple[complex, complex]],
    spin_amps: tuple[complex, complex],
    model: InteractionModel,
    spin_phase_drift: float,
) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    """The factors ``left`` (2, 2^⌊n/2⌋) and ``right`` (2, 2^⌈n/2⌉) of the
    stream's branches, its heralded probability and the photons' outputs
    ``pairs[s, k]``, scaled alike; ``amps`` and ``spin_amps`` are normalized.

    The gate G[p′, s′, p, s] never flips the spin, so the stream is
    c↑|↑⟩⊗ₖ(G↑vₖ) + c↓|↓⟩⊗ₖ(G↓vₖ) with G_s = G[:, s, :, s].  Only the two
    branch weights are looped over per photon, for its herald and a 1/√prob
    scale on its pair that keeps the branches from underflowing.  Branch s
    is left[s] ⊗ right[s], the Kronecker products of its two halves of
    photons; c_s and the drift, one phase e^{i(n−1)φ} on Down, are in left.
    """
    if not math.isfinite(spin_phase_drift):
        raise ValueError(f"spin_phase_drift must be finite, got {spin_phase_drift!r}")
    n = len(amps)
    if 2 ** (n + 1) > qs.MAX_AMPLITUDES:
        raise ValueError(
            f"{n} photons need a state of 2^{n + 1} amplitudes, "
            f"over the budget of {qs.MAX_AMPLITUDES}"
        )
    gate = cnot_gate_matrix(model).reshape(2, 2, 2, 2)
    # pairs[s, k] = G_s·vₖ, row-major; the repeated s takes the diagonal blocks
    pairs = np.einsum("qsps,kp->skq", gate, np.array(amps, dtype=np.complex128), order="C")
    norms = (pairs.real**2 + pairs.imag**2).sum(axis=2).T.tolist()  # [k][s]
    weights, probs = [abs(c) ** 2 for c in spin_amps], []
    for k, norm in enumerate(norms, start=1):
        grown = [w * x for w, x in zip(weights, norm)]
        probs.append(sum(grown) / sum(weights))  # the weights sum to 1 only up to rounding
        if probs[-1] <= 1e-300:
            raise ValueError(f"photon {k}: heralded branch has vanishing probability")
        weights = [w / probs[-1] for w in grown]
    pairs /= np.sqrt(probs)[:, None]
    coefs = np.array([spin_amps[0], spin_amps[1] * np.exp(1j * (n - 1) * spin_phase_drift)])
    left = _kron(pairs[:, : n // 2], coefs[:, None])
    right = _kron(pairs[:, n // 2 :], np.ones((2, 1)))
    return left, right, math.prod(probs), pairs


def _kron(rows: np.ndarray, start: np.ndarray) -> np.ndarray:
    """start[s] ⊗ rows[s, 0] ⊗ rows[s, 1] ⊗ … for both spins s, flat per spin."""
    for k in range(rows.shape[1]):
        start = (start[:, :, None] * rows[:, k, None, :]).reshape(2, -1)
    return start


def entangle_stream(
    photon_amps: Sequence[tuple[complex, complex]],
    spin_amps: tuple[complex, complex] = (_SQ, _SQ),
    model: InteractionModel | None = None,
    *,
    spin_phase_drift: float = 0.0,
) -> ProtocolResult:
    """Send a train of photons through the gate, one at a time.

    Each photon's pass is the heralded Kraus gate, :func:`cnot_gate_matrix`,
    built once: the photon enters at A and is post-selected alive at D, so
    its path and loss flag never enter the state, which holds only the spin
    and the polarizations.  The gate never flips the spin, so the state is
    two product states, one per spin, each written once as the outer
    product of its two factors, and the fidelity is the scalar
    Σ_s |c_s|²·Πₖ⟨targetₖ⁽ˢ⁾|G_s vₖ⟩ over the norm².
    ``spin_phase_drift`` adds a deterministic Z rotation of the spin between
    consecutive photons (an inter-photon precession knob; 0 disables it, and
    any other value leaves the fidelity NaN); NaN or ±inf is refused.  The
    result state orders registers (spin, pol₁, …, polₙ).  A train whose final
    state would exceed :data:`~spinphoton.qstate.MAX_AMPLITUDES` is refused
    before any work.
    """
    model = model or InteractionModel.ideal()
    spin_amps = _normalize_pair(spin_amps)
    amps = [_normalize_pair(p) for p in photon_amps]
    if not amps:
        raise ValueError("need at least one photon")
    left, right, success, pairs = _stream(amps, spin_amps, model, spin_phase_drift)
    regs = (qs.spin(),) + tuple(qs.polarization(k) for k in range(1, len(amps) + 1))
    state = StateVector._adopt(regs, left[:, :, None] * right[:, None, :])
    if spin_phase_drift == 0.0:
        # a perfect gate leaves photon k as (a, b) under Up and (b, a) under Down
        up, down = pairs.tolist()
        overlap = abs(spin_amps[0]) ** 2 * math.prod(
            a.conjugate() * u + b.conjugate() * d for (a, b), (u, d) in zip(amps, up)
        ) + abs(spin_amps[1]) ** 2 * math.prod(
            b.conjugate() * u + a.conjugate() * d for (a, b), (u, d) in zip(amps, down)
        )
        fid = abs(overlap) ** 2 / state.norm_sq()
    else:
        fid = float("nan")
    return ProtocolResult(state, success, fid)


#: diag(1, ±1) over (Up, Down) for the Plus and the Minus herald, [sign, 1, s]
_HERALD_SIGNS = np.array([[[1.0, 1.0]], [[1.0, -1.0]]])


def ghz(
    n: int,
    model: InteractionModel | None = None,
    *,
    spin_phase_drift: float = 0.0,
) -> dict[str, ProtocolResult]:
    """n-photon GHZ generation heralded by the spin ± readout.

    All photons enter right-circular with the spin in (↑+↓)/√2; measuring the
    spin in the ± basis leaves (R…R ± L…L)/√2 with probability ½ each.
    √2·branch± = leftᵀ·diag(1, ±1)·right, from the stream's factors, for
    both signs in one batched matrix product into one fresh (2, 2ⁿ) array;
    each row is scaled in place and kept by its state, so the two branches
    are read-only rows of one array and nothing else of their size is built.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    left, right, success, _ = _stream(
        [(1.0, 0.0)] * n,
        _normalize_pair((_SQ, _SQ)),  # as entangle_stream does, to the last bit
        model or InteractionModel.ideal(),
        spin_phase_drift,
    )
    regs = tuple(qs.polarization(k) for k in range(1, n + 1))
    # √2 times each branch; the Minus branch takes −c↓
    branches = np.matmul(left.T * _HERALD_SIGNS, right).reshape(2, -1)
    out: dict[str, ProtocolResult] = {}
    for (name, sign), branch in zip((("Plus", 1.0), ("Minus", -1.0)), branches):
        prob = 0.5 * float(np.vdot(branch, branch).real)
        if prob < qs.ATOL:
            raise ValueError(f"the {name} herald has vanishing probability")
        # |⟨GHZ±|branch⟩|² over its norm²; GHZ± has amplitudes 1/√2, ±1/√2
        fid = abs(branch[0] + sign * branch[-1]) ** 2 / (4.0 * prob)
        branch *= _SQ / math.sqrt(prob)
        out[name] = ProtocolResult(StateVector._adopt(regs, branch), success * prob, fid)
    return out


# ---------------------------------------------------------------------------
# Bell-state analyzer
# ---------------------------------------------------------------------------


def bsa_state(
    two_photon_pol: StateVector,
    model: InteractionModel | None = None,
) -> StateVector:
    """Run the full analyzer train; returns the pre-detection state.

    ``two_photon_pol`` is a state over two polarization registers in the R/L
    basis; the photons run in ascending id order.  The returned state spans
    (spin, pol₁, path₁[, flag₁], pol₂, path₂[, flag₂]), in that order, with the
    spin still unmeasured in the Up/Down basis.
    """
    regs = two_photon_pol.registers
    if len(regs) != 2 or any(r.kind is not RegisterKind.POLARIZATION for r in regs):
        raise ValueError("analyzer input must be a two-photon polarization state")
    if any(r.basis != qs.RL for r in regs):
        raise ValueError("optics elements are defined on the circular (R/L) basis")
    pol_ids = sorted(r.id for r in regs)
    pols = qs.reorder(two_photon_pol, [(RegisterKind.POLARIZATION, pid) for pid in pol_ids])
    return run_photons(
        (_SQ, _SQ), pols.amps, pol_ids, ("In", "In"),
        BSA_PLAN, model or InteractionModel.ideal(), BSA_PATHS,
    )


_DETECTOR_PORTS = ("C", "D")
_DETECTORS = slice(BSA_PATHS.index("C"), BSA_PATHS.index("D") + 1)


@dataclasses.dataclass(frozen=True)
class BsaResult:
    """Analyzer output: pre-detection state, outcome table, heralded weight."""

    state: StateVector
    distribution: meas.Distribution
    success_probability: float


def bsa(
    two_photon_pol: StateVector,
    model: InteractionModel | None = None,
) -> BsaResult:
    """Full analyzer run with detection in (port, H/V, spin ±).

    The distribution covers only coincidence outcomes (both photons alive on
    detector ports C/D), renormalized; ``success_probability`` is their total
    weight before renormalization.  Only the coincidence slice of the
    pre-detection state is enumerated, once and renormalized: (spin, pol₁,
    path₁, pol₂, path₂) with each path cut to C/D and each flag to Alive,
    32 amplitudes.
    ``state`` is the whole pre-detection state.
    """
    state = bsa_state(two_photon_pol, model)
    # the coincidences: both photons Alive on C or D, registers (spin, pol₁,
    # path₁, pol₂, path₂) with each path cut to the detector ports
    cut: list = []
    registers: tuple[Register, ...] = ()
    for reg in state.registers:
        if reg.kind is RegisterKind.LOSS_FLAG:
            cut.append(qs.ALIVE_LOST.index("Alive"))
        elif reg.kind is RegisterKind.PATH:
            cut.append(_DETECTORS)
            registers += (qs.path(reg.id, _DETECTOR_PORTS),)
        else:
            cut.append(slice(None))
            registers += (reg,)
    pol_ids = [reg.id for reg in registers if reg.kind is RegisterKind.POLARIZATION]
    bases = meas.MeasurementBases(dict.fromkeys(pol_ids, "HV"), pol_ids, spin="PlusMinus")
    amps = state.amps.reshape(state.shape)[tuple(cut)]
    success = float(np.vdot(amps, amps).real)
    if success <= 1e-15:  # the weight below which an outcome is dropped
        raise ValueError("no coincidence outcomes survived the analyzer")
    # renormalized first, so the records are built and hashed once
    amps = amps * (1.0 / math.sqrt(success))
    dist = meas.enumerate_outcomes(StateVector(registers, amps), bases)
    return BsaResult(state=state, distribution=dist, success_probability=success)


def classify_outcome(record: meas.OutcomeRecord) -> BellState:
    """Identify the input Bell state from one coincidence record.

    Needs both photons' detector ports and H/V clicks plus the spin ± result.
    """
    outs = [out for _, out in record.photons]
    if len(outs) != 2 or record.spin not in qs.PLUS_MINUS:
        raise ValueError("classification needs two photon records and a spin ± result")
    for out in outs:
        if out.lost or out.port not in _DETECTOR_PORTS or out.pol not in qs.HV:
            raise ValueError(f"not a coincidence record: {record}")
    same_port = outs[0].port == outs[1].port
    same_pol = outs[0].pol == outs[1].pol
    plus = record.spin == "Plus"
    if same_port == same_pol:
        # same/same or diff/diff: ψ⁺ family split by spin sign
        return BellState.PSI_PLUS if plus == same_port else BellState.PHI_MINUS
    return BellState.PSI_MINUS if plus == same_port else BellState.PHI_PLUS
