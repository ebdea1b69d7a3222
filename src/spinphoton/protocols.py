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
its schedule as the same data.  Photons meet only through the spin, and no
pass flips it, so a photon's whole trip is two linear maps on the photon,
one per spin: the spin blocks, composed on a plain array, once per model,
on their entry ports.  Every step is a small block on the few modes it
touches.  What no model changes is the plan's frame, built once per
process: the entry columns taken through the optics before the first
cavity pass, each pass's modes, and the optics after each pass folded
into one matrix; a model builds only each pass's block.
:func:`run_photons` applies the blocks once per photon.  The model keeps
them, so a caller that holds one model pays for each plan once.  Each
protocol writes its result once, into the array that the returned state
keeps without a copy.  Only this module gives a photon its entry port,
its path register and, under loss, its Alive/Lost flag, and only it maps
a photon's (pol, port[, flag]) modes to the rows of its axis.  Each
protocol reads one cut of its plan's blocks, the rows that leave Alive on
its exit ports, cut after the passes, once per model, and kept on the model
as the blocks are.  The gate, :func:`cnot_gate_matrix`, and the stream read
their 2×2 blocks off the ("D",) cut of :data:`CNOT_PLAN`.  The spin
preparation applies the ("Refl", "Trans") cut to its spin amplitudes and
builds only the two spin states it returns.  The analyzer runs its two
photons through the ("C", "D") cut alone (pol′ × C/D, Alive), detects the
32 coincidence amplitudes with one fixed 32×32 matrix and pairs the
probabilities with records built once per pair of photon ids; it builds
the whole pre-detection state only when its result's ``state`` is read.
Calls made without a model share one ideal model, and so its blocks.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math
from collections.abc import Iterable, Sequence

import numpy as np

from . import cavity as cav
from . import measurement as meas
from . import optics as opt
from . import qstate as qs
from .cavity import InteractionModel
from .qstate import Register, RegisterKind, StateVector

__all__ = [
    "BellState",
    "ProtocolResult",
    "CNOT_PATHS",
    "BSA_PATHS",
    "PlanStep",
    "CNOT_PLAN",
    "BSA_PLAN",
    "SPIN_PREP_PLAN",
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

#: The model of every call made without one, so that those calls share its
#: blocks: only the three fixed plans' blocks, on their entry ports and cut
#: to their exits, and the analyzer's full blocks, once a ``state`` is read,
#: are kept on it.
_IDEAL = InteractionModel.ideal()


class BellState(enum.Enum):
    """The four two-photon Bell states in the circular basis."""

    PSI_PLUS = "psi+"
    PSI_MINUS = "psi-"
    PHI_PLUS = "phi+"
    PHI_MINUS = "phi-"

    def amplitudes(self) -> np.ndarray:
        """Amplitudes over (pol₁, pol₂) in row-major R/L order; a fresh array."""
        return _BELL_AMPLITUDES[self].copy()

    def state(self, photon_ids: tuple[int, int] = (1, 2)) -> StateVector:
        regs = (qs.polarization(photon_ids[0]), qs.polarization(photon_ids[1]))
        return StateVector(regs, _BELL_AMPLITUDES[self])

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


_BELL_ROWS = np.array(
    [[0, _SQ, _SQ, 0], [0, _SQ, -_SQ, 0], [_SQ, 0, 0, _SQ], [_SQ, 0, 0, -_SQ]], dtype=np.complex128
)
_BELL_ROWS.flags.writeable = False
#: Each member's amplitudes: a read-only row of one array.
_BELL_AMPLITUDES = dict(zip(BellState, _BELL_ROWS))


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


def _port_index(ports: Sequence[str], port: str) -> int:
    """The position of ``port`` among a photon's ``ports``; refuses an unknown one."""
    try:
        return ports.index(port)
    except ValueError:
        raise ValueError(f"{port!r} is not one of the ports {tuple(ports)}") from None


def _mode_rows(ports: Sequence[str], modes: Iterable[tuple[str, ...]]) -> list[int]:
    """Each mode's row in a photon's axis over ``ports``: a (pol, port) mode
    on the (pol, path) axis, a (pol, port, flag) mode on (pol, path, flag)."""
    rows = []
    for pol, port, *flag in modes:
        row = qs.RL.index(pol) * len(ports) + _port_index(ports, port)
        rows.append(row * 2 + qs.ALIVE_LOST.index(flag[0]) if flag else row)
    return rows


# each frame is a few KiB; the protocols need four, a circuit file one or two
@functools.lru_cache(maxsize=64)
def _frame(
    plan: tuple[PlanStep, ...], ports: tuple[str, ...], in_ports: tuple[str, ...], lossy: bool,
    exits: tuple[str, ...] | None = None,
) -> tuple:
    """The part of a plan's spin blocks that no model changes, built once per
    process: the identity's entry columns on out = (p′, path′[, flag′]), as
    [s, out, (p, entry)] with p Alive on its entry port, taken through the
    optics before the first cavity pass; and for each pass, in plan order,
    its op, the rows of its modes in out for both spins, outs then ins, and
    the optics from it to the next pass folded into one matrix on out.
    With ``exits``, a third entry: the rows of out that reach those ports
    Alive, p′ major.  Each optical element is one small block on the
    (pol, path) rows it touches, the same for either flag.  Every array is
    read-only."""
    optical = {
        step: opt.element(*step) for step in dict.fromkeys(plan) if step[0] not in _CAVITY_OPS
    }
    flags = 2 if lossy else 1
    out_dim = 2 * len(ports) * flags
    entries = [(p, port) for p in qs.RL for port in in_ports]
    columns = np.zeros((2 * len(ports), flags, len(entries)), dtype=np.complex128)
    columns[_mode_rows(ports, entries), 0, range(len(entries))] = 1.0
    # the optics act on the last of these, each viewed as [(p′, path′), (flag′, col)]
    stages = [columns.reshape(2 * len(ports), -1)]
    passes = []
    for step in plan:
        op, at, _ = step
        if op in _CAVITY_OPS:
            outs, ins = (
                np.array([_mode_rows(ports, modes) for modes in side])
                for side in zip(*cav.pass_modes(op, at, lossy))
            )
            passes.append((op, outs, ins))
            stages.append(np.eye(out_dim, dtype=np.complex128).reshape(2 * len(ports), -1))
        else:
            block, outs, ins = optical[step]
            last = stages[-1]
            last[_mode_rows(ports, outs)] = block @ last[_mode_rows(ports, ins)]
    columns, *after = (stage.reshape(out_dim, -1) for stage in stages)
    columns = np.stack((columns, columns))  # the same for both spins
    exit_modes = [(p, port, *("Alive",) * lossy) for p in qs.RL for port in exits or ()]
    cut = np.array(_mode_rows(ports, exit_modes), dtype=np.intp)
    for array in (columns, cut, *after, *(rows for pass_ in passes for rows in pass_[1:])):
        array.flags.writeable = False
    frame = columns, tuple((*pass_, fold) for pass_, fold in zip(passes, after))
    return frame if exits is None else (*frame, cut)


#: The spin index that batches a pass's rows, one row of them per spin.
_SPINS = np.array([[0], [1]])
_SPINS.flags.writeable = False


def _spin_blocks(
    plan: Sequence[PlanStep],
    model: InteractionModel,
    ports: Sequence[str],
    in_ports: Sequence[str],
    exits: tuple[str, ...] | None = None,
) -> np.ndarray:
    """One photon's whole schedule as K[entry, s, out, p]: the photon enters
    in polarization p on ``in_ports[entry]`` with the spin in s, and leaves
    in out = (p′, path′[, flag′]), Alive or Lost, with the spin still in s.
    No pass flips the spin, so these two blocks are the whole pass.  With
    ``exits``, a tuple of ports, out is cut to the rows that leave Alive on
    them, (p′, exit): the gate reads its ("D",) cut, the analyzer its
    ("C", "D") cut and the spin preparation its ("Refl", "Trans") cut.

    The flag axis is there exactly when the model is lossy and the plan
    passes the cavity.  The model-free part is the plan's frame, built once
    per process (:func:`_frame`), with the cut's rows; per cavity pass a
    model builds only its block, :func:`~spinphoton.cavity.pass_block`,
    applies it to the pass's rows for both spins at once and then the
    optics up to the next pass as one matrix.  The cut is taken after that
    product, so it holds the full blocks' values to the bit.  The blocks
    are built once per model, on their entry ports and exits, and kept on
    the model read-only under ``(plan, ports, in_ports, exits)``.  An
    unknown entry or exit port is refused before anything is built, and
    so never enters the memo; a kept key costs one dict lookup.
    """
    key = (tuple(plan), tuple(ports), tuple(in_ports), exits)
    if (blocks := model._channels.get(key)) is not None:
        return blocks
    plan, ports, in_ports, _ = key
    for side, names in (("entry", in_ports), ("exit", exits or ())):
        for port in names:
            if port not in ports:
                raise ValueError(f"{side} port {port!r} is not one of the ports {ports}")
    lossy = not model.is_lossless and any(step[0] in _CAVITY_OPS for step in plan)
    blocks, passes, *cut = _frame(plan, ports, in_ports, lossy, exits)  # [s, out, (p, entry)]
    for op, outs, ins, after in passes:
        blocks = blocks.copy()
        blocks[_SPINS, outs] = cav.pass_block(model, op) @ blocks[_SPINS, ins]
        blocks = after @ blocks
    blocks = blocks[:, cut[0]] if cut else blocks  # with exits, only their Alive rows
    blocks = blocks.reshape(2, blocks.shape[1], 2, len(in_ports))
    blocks = np.ascontiguousarray(blocks.transpose(3, 0, 1, 2))
    blocks.flags.writeable = False
    model._channels[key] = blocks
    return blocks


def _entry_blocks(
    plan: Sequence[PlanStep], model: InteractionModel, ports: Sequence[str], in_ports: Sequence[str]
) -> tuple[np.ndarray, tuple[str, ...]]:
    """The plan's spin blocks on the distinct ``in_ports``, and those ports;
    refuses photons whose :func:`run_photons` state would be over the budget."""
    entries = tuple(dict.fromkeys(in_ports))
    blocks = _spin_blocks(plan, model, ports, entries)
    size = 2 * blocks.shape[2] ** len(in_ports)
    if size > qs.MAX_AMPLITUDES:
        raise ValueError(
            f"{len(in_ports)} photons need a state of {size} amplitudes, "
            f"over the budget of {qs.MAX_AMPLITUDES}"
        )
    return blocks, entries


def _through(psi: np.ndarray, blocks: Iterable[np.ndarray]) -> np.ndarray:
    """``psi`` [s, each photon's R/L axis] after each photon's pass in turn,
    photon k through the k-th block [s, out, p]: one batched product per
    photon, per spin, of its block with its R/L axis, each writing a fresh
    [s, done, out, rest] array already in the final register order."""
    done = 1
    for block in blocks:
        rest = psi.size // (4 * done)
        psi = np.matmul(block[:, None], psi.reshape(2, done, 2, rest))
        done *= block.shape[1]
    return psi


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
    that order, and photon k enters on port ``in_ports[k]``.  The plan's two
    spin blocks are built once per model on the distinct entry ports.  Each
    pass is one batched product of the photon's entry block with its R/L
    axis, per spin, that writes a fresh array already in the final register
    order, so nothing is transposed or copied; the returned state keeps the
    last pass's array.
    The result orders registers (spin, pol, path[, flag]) per photon; with
    no photons it is the spin state times ``pols``' one amplitude.  An entry
    port outside ``ports`` is refused before any work, and a result over
    :data:`~spinphoton.qstate.MAX_AMPLITUDES` before the first pass.
    """
    pols = np.asarray(pols, dtype=np.complex128)
    if len(in_ports) != len(photon_ids) or pols.size != 2 ** len(photon_ids):
        raise ValueError("need one R/L axis and one entry port per photon")
    blocks, entries = _entry_blocks(plan, model, ports, in_ports)
    out_dim = blocks.shape[2]  # pol′ × path′ [× flag′]
    psi = np.multiply.outer(np.asarray(spin_amps, dtype=np.complex128), pols.reshape(-1))
    psi = _through(psi, (blocks[entries.index(port)] for port in in_ports))
    registers: tuple[Register, ...] = (qs.spin(),)
    for pid in photon_ids:
        registers += (qs.polarization(pid), qs.path(pid, ports))
        if out_dim == 4 * len(ports):  # the blocks have a flag′ axis
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
    if len(amps) != 2:
        raise ValueError(f"amplitude pair must be two amplitudes, got {amps!r}")
    a, b = map(complex, amps)
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
    sub-unitary matrix of the photon-exits-alive-at-D branch.  The gate never
    flips the spin, so it is zero but for its two spin blocks, G[s, p′, p],
    written from the ("D",) cut of the :data:`CNOT_PLAN` blocks into a fresh
    array.
    """
    blocks = _spin_blocks(CNOT_PLAN, model or _IDEAL, CNOT_PATHS, ("A",), ("D",))[0]
    gate = np.zeros((2, 2, 2, 2), dtype=np.complex128)  # [p′, s′, p, s]
    gate[:, 0, :, 0], gate[:, 1, :, 1] = blocks
    return gate.reshape(4, 4)


#: The spin preparation's herald ports.
_HERALDS = ("Refl", "Trans")


def conditional_spin_prep(
    spin_amps: tuple[complex, complex],
    model: InteractionModel | None = None,
) -> dict[str, ProtocolResult]:
    """Heralded spin readout/preparation by scattering one R photon from below.

    The photon reflects iff the spin is Up, so detecting it on the Refl port
    projects the spin onto Up (and Trans onto Down).  Returns the two heralded
    outcomes keyed by port name, with their probabilities.  The photon's
    pass is the ("Refl", "Trans") cut of the :data:`SPIN_PREP_PLAN` blocks,
    applied to the normalized spin amplitudes as :func:`run_photons` applies
    a block; each branch is normalized on the array and only the returned
    spin states are built.
    """
    psi = np.multiply.outer(_normalize_pair(spin_amps), (1.0, 0.0))  # an R photon
    cut = _spin_blocks(SPIN_PREP_PLAN, model or _IDEAL, _SPIN_PREP_PATHS, ("In",), _HERALDS)
    alive = _through(psi, cut).reshape(2, 2, len(_HERALDS)).transpose(2, 0, 1)  # [port, s, pol′]
    out: dict[str, ProtocolResult] = {}
    # Refl heralds |Up⟩ and Trans |Down⟩, in qs.UP_DOWN order; the fidelity to
    # that basis state is the weight of its one amplitude over the norm²
    for target, (port, branch) in enumerate(zip(_HERALDS, alive)):
        prob = float(np.vdot(branch, branch).real)
        if prob <= 1e-12:  # input spin had no weight on this outcome
            continue
        spin_amps_out = branch[:, qs.RL.index(_port_pol(port))]
        norm = math.sqrt(float(np.vdot(spin_amps_out, spin_amps_out).real))
        if norm < qs.ATOL:
            raise ValueError("cannot normalize a (near-)zero state")
        spin_state = StateVector._adopt((qs.spin(),), spin_amps_out / norm)
        fid = float(abs(spin_state.amps[target]) ** 2 / spin_state.norm_sq())
        out[port] = ProtocolResult(spin_state, prob, fid)
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

    The gate never flips the spin, so the stream is c↑|↑⟩⊗ₖ(G↑vₖ) +
    c↓|↓⟩⊗ₖ(G↓vₖ) with G_s the spin-s block of :func:`cnot_gate_matrix`.  Only
    the two branch weights are looped over per photon, for its herald and a
    1/√prob scale on its pair that keeps the branches from underflowing.
    The budget is checked on exponents before anything of size n.  Branch s
    is left[s] ⊗ right[s], the Kronecker products of its two halves of
    photons; c_s and the drift, one phase e^{i(n−1)φ} on Down, are in left.
    """
    if not math.isfinite(spin_phase_drift):
        raise ValueError(f"spin_phase_drift must be finite, got {spin_phase_drift!r}")
    n = len(amps)
    if n + 1 >= qs.MAX_AMPLITUDES.bit_length():  # 2^(n+1) > the budget, on exponents
        raise ValueError(
            f"{n} photons need a state of 2^{n + 1} amplitudes, "
            f"over the budget of {qs.MAX_AMPLITUDES}"
        )
    # pairs[s, k] = G_s·vₖ, row-major, with G[s, p′, p] the ("D",) cut of the gate's blocks
    gate = _spin_blocks(CNOT_PLAN, model, CNOT_PATHS, ("A",), ("D",))[0]
    pairs = np.einsum("sqp,kp->skq", gate, np.array(amps, dtype=np.complex128), order="C")
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
    model = model or _IDEAL
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
    An ``n`` that is not an integer, or is a bool, is refused before any work.
    """
    if meas._not_an_integer(n):
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < 1:
        raise ValueError("n must be at least 1")
    left, right, success, _ = _stream(
        np.broadcast_to((1.0, 0.0), (n, 2)),  # n R photons, one row: nothing of size n
        _normalize_pair((_SQ, _SQ)),  # as entangle_stream does, to the last bit
        model or _IDEAL,
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


def _analyzer_input(two_photon_pol: StateVector) -> tuple[list[int], np.ndarray]:
    """The analyzer's photon ids in ascending order, the order the photons
    run in, and the input's amplitudes over (pol₁, pol₂) in that order;
    refuses an input that is not two R/L polarization registers."""
    regs = two_photon_pol.registers
    if len(regs) != 2 or any(r.kind is not RegisterKind.POLARIZATION for r in regs):
        raise ValueError("analyzer input must be a two-photon polarization state")
    if any(r.basis != qs.RL for r in regs):
        raise ValueError("optics elements are defined on the circular (R/L) basis")
    pol_ids = sorted(r.id for r in regs)
    pols = qs.reorder(two_photon_pol, [(RegisterKind.POLARIZATION, pid) for pid in pol_ids])
    return pol_ids, pols.amps


def bsa_state(
    two_photon_pol: StateVector,
    model: InteractionModel | None = None,
) -> StateVector:
    """Run the full analyzer train; returns the pre-detection state.

    ``two_photon_pol`` is a state over two polarization registers in the R/L
    basis; the photons run in ascending id order.  The returned state spans
    (spin, pol₁, path₁[, flag₁], pol₂, path₂[, flag₂]), in that order, with the
    spin still unmeasured in the Up/Down basis: 800 amplitudes under a lossy
    model, of which :func:`bsa` detects 32.  It is what ``bsa(...).state``
    builds on first read.
    """
    pol_ids, pols = _analyzer_input(two_photon_pol)
    return run_photons(
        (_SQ, _SQ), pols, pol_ids, ("In", "In"), BSA_PLAN, model or _IDEAL, BSA_PATHS,
    )


_DETECTOR_PORTS = ("C", "D")


#: Detection on the coincidence slice (spin, pol₁, path₁, pol₂, path₂), each
#: path cut to C/D: the spin in ± and each polarization in H/V, from the
#: basis changes that the measurement layer uses.
_DETECTION = np.kron(
    qs._HADAMARD,
    np.kron(np.kron(qs._RL_TO_HV, np.eye(2)), np.kron(qs._RL_TO_HV, np.eye(2))),
)
_DETECTION.flags.writeable = False

@functools.lru_cache(maxsize=64)
def _coincidence_records(pid_lo: int, pid_hi: int) -> tuple[meas.OutcomeRecord, ...]:
    """The 32 records of the coincidence slice, (spin, pol, path cut to C/D)
    for the lower id, then the same for the higher, in row-major order after
    detection: spin ±, then each photon's (H/V, C/D)."""
    clicks = [
        meas.PhotonOutcome(port=port, pol=pol) for pol in qs.HV for port in _DETECTOR_PORTS
    ]
    return tuple(
        meas.OutcomeRecord(photons=((pid_lo, lo), (pid_hi, hi)), spin=spin)
        for spin in qs.PLUS_MINUS
        for lo in clicks
        for hi in clicks
    )


@dataclasses.dataclass(frozen=True)
class BsaResult:
    """Analyzer output: outcome table, heralded weight and, on first read,
    the pre-detection state.

    The input and the model are kept only to build ``state``; they take no
    part in the repr or in equality.
    """

    distribution: meas.Distribution
    success_probability: float
    _input: StateVector = dataclasses.field(repr=False, compare=False)
    _model: InteractionModel | None = dataclasses.field(repr=False, compare=False)

    @functools.cached_property
    def state(self) -> StateVector:
        """The whole pre-detection state, :func:`bsa_state` of the input and
        the model, built and checked on first read and kept."""
        return bsa_state(self._input, self._model)


def bsa(
    two_photon_pol: StateVector,
    model: InteractionModel | None = None,
) -> BsaResult:
    """Full analyzer run with detection in (port, H/V, spin ±).

    The distribution covers only coincidence outcomes (both photons alive on
    detector ports C/D), renormalized; ``success_probability`` is their total
    weight before renormalization.  The input is refused as
    :func:`bsa_state` refuses it, before any block is built.  The photons
    run through only the ("C", "D") cut of the analyzer's blocks, the rows
    that reach a detector Alive, so the run writes just the coincidence
    slice: (spin, pol₁, path₁, pol₂, path₂) with each path
    cut to C/D, 32 amplitudes, renormalized and checked as a state's
    amplitudes are, on the array.  The outcome probabilities are |D·a|² for
    the one fixed detection matrix D (spin ±, each polarization H/V), paired
    in one pass with the 32 records of the photon ids, which are built once.
    ``state``, the whole pre-detection state, is built only when it is read.
    """
    pol_ids, pols = _analyzer_input(two_photon_pol)
    # [s, (p′, C/D), p]; both photons enter on In
    block = _spin_blocks(BSA_PLAN, model or _IDEAL, BSA_PATHS, ("In",), _DETECTOR_PORTS)[0]
    psi = np.multiply.outer(np.asarray((_SQ, _SQ), dtype=np.complex128), pols)
    amps = _through(psi, (block, block))  # [s, (p₁, C/D₁), (p₂, C/D₂)]
    success = float(np.vdot(amps, amps).real)
    if success <= 1e-15:  # the weight below which an outcome is dropped
        raise ValueError("no coincidence outcomes survived the analyzer")
    detected = (amps * (1.0 / math.sqrt(success))).reshape(-1)
    qs._check_amps(detected)
    probs = (np.abs(_DETECTION @ detected) ** 2).tolist()
    dist = meas.Distribution._from_pairs(_coincidence_records(*pol_ids), probs)
    return BsaResult(dist, success, two_photon_pol, model)


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
