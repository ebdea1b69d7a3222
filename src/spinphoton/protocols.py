"""The three interface protocols built from cavity scattering + linear optics.

* :func:`cnot` — the photon-spin controlled-flip gate: a four-port circulating
  interferometer around the cavity.  Spin Up leaves the photon polarization
  alone; spin Down exchanges R and L.  The photon enters on port A and leaves
  deterministically on port D.
* :func:`entangle_stream` / :func:`ghz` — the same gate applied to a train of
  photons sharing the one spin, creating Bell, GHZ, and graph-like states;
  reading the spin in the ± basis heralds which multi-photon state remains.
* :func:`bsa` — the spin-heralded complete Bell-state analyzer: both photons
  scatter off the cavity in turn, the transmitted arm is folded and mixed with
  the reflected arm on a 50:50 splitter, and the (port, linear polarization,
  spin ±) pattern identifies all four Bell states unambiguously.

Every function accepts an :class:`~spinphoton.cavity.InteractionModel`; with a
lossy model the returned ``success_probability`` is the weight of the heralded
(all photons alive at their detectors) branch and the state is that branch,
renormalized.

Each protocol's per-photon schedule is data — :data:`CNOT_PLAN`,
:data:`BSA_PLAN`, :data:`SPIN_PREP_PLAN` — and one executor,
:func:`run_plan`, turns a schedule into cavity and optics operators and
applies them.  The circuit compiler emits its schedules for the same
executor.
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
    "run_plan",
    "cnot_operators",
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


def run_plan(
    state: StateVector, plan: Sequence[PlanStep], model: InteractionModel, photon: int
) -> StateVector:
    """Apply one photon's schedule to ``state``.

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
        state = qs.apply(op, state)
    return state


# ---------------------------------------------------------------------------
# The photon-spin gate
# ---------------------------------------------------------------------------


def cnot_operators(
    model: InteractionModel,
    *,
    pol: Register,
    path: Register,
    spin: Register,
    flag: Register | None = None,
) -> list[Operator]:
    """The gate as an operator pipeline (apply left to right): :data:`CNOT_PLAN`."""
    return plan_operators(CNOT_PLAN, model, pol=pol, path=path, spin=spin, flag=flag)


def _postselect_exit(state: StateVector, photon: int) -> tuple[StateVector, float]:
    """Keep the photon-at-D, alive branch; drop its path (and flag) registers."""
    before = state.norm_sq()
    state = qs.collapse(state, (RegisterKind.PATH, photon), "D", check=False)
    try:
        state = qs.collapse(state, (RegisterKind.LOSS_FLAG, photon), "Alive", check=False)
    except KeyError:
        pass
    after = state.norm_sq()
    return state, after / before if before > 0 else 0.0


def _ideal_gate_target(
    photon_amps: Sequence[tuple[complex, complex]],
    spin_amps: tuple[complex, complex],
    photon_ids: Sequence[int],
) -> StateVector:
    """Algebraic output of perfect gates: spin Down flips each photon's R/L."""
    spin_reg = qs.spin()
    out_up = qs.from_amplitudes(spin_reg, [spin_amps[0], 0.0])
    out_down = qs.from_amplitudes(spin_reg, [0.0, spin_amps[1]])
    for pid, (a, b) in zip(photon_ids, photon_amps):
        out_up = qs.tensor(out_up, qs.from_amplitudes(qs.polarization(pid), [a, b]))
        out_down = qs.tensor(out_down, qs.from_amplitudes(qs.polarization(pid), [b, a]))
    return StateVector(out_up.registers, out_up.amps + out_down.amps)


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
    n = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
    if n == 0:
        raise ValueError("amplitude pair must not be zero")
    return (a / n, b / n)


def cnot_gate_matrix(model: InteractionModel | None = None) -> np.ndarray:
    """The post-selected gate on (pol ⊗ spin), basis [R↑, R↓, L↑, L↓].

    Ideal models give the exact controlled-flip unitary; lossy models give the
    sub-unitary matrix of the photon-exits-alive-at-D branch.
    """
    model = model or InteractionModel.ideal()
    regs = [qs.spin(), qs.polarization(1), qs.path(1, CNOT_PATHS)]
    if not model.is_lossless:
        regs.append(qs.loss_flag(1))
    cols = []
    for pol in qs.RL:
        for spin in qs.UP_DOWN:
            # one basis name per register; "Alive" is dropped without a flag
            state = qs.basis_state(regs, [spin, pol, "A", "Alive"][: len(regs)])
            state = run_plan(state, CNOT_PLAN, model, photon=1)
            state, _ = _postselect_exit(state, photon=1)
            state = qs.reorder(
                state, [(RegisterKind.POLARIZATION, 1), (RegisterKind.SPIN, 0)]
            )
            cols.append(state.amps)
    # columns were generated in (pol, spin) row-major input order
    return np.stack(cols, axis=1)


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
    spin_amps = _normalize_pair(spin_amps)
    lossy = not model.is_lossless

    photon = qs.basis_state(
        [qs.polarization(1), qs.path(1, ("In", "Refl", "Trans"))], ["R", "In"]
    )
    state = qs.tensor(qs.from_amplitudes(qs.spin(), list(spin_amps)), photon)
    if lossy:
        state = qs.tensor(state, qs.basis_state([qs.loss_flag(1)], ["Alive"]))
    state = run_plan(state, SPIN_PREP_PLAN, model, photon=1)

    out: dict[str, ProtocolResult] = {}
    targets = {"Refl": [1.0, 0.0], "Trans": [0.0, 1.0]}
    for port, target_amps in targets.items():
        branch = qs.collapse(state, (RegisterKind.PATH, 1), port, check=False)
        if lossy:
            branch = qs.collapse(branch, (RegisterKind.LOSS_FLAG, 1), "Alive", check=False)
        prob = branch.norm_sq()
        if prob <= 1e-12:  # input spin had no weight on this outcome
            continue
        spin_state = qs.collapse(
            branch.normalized(), (RegisterKind.POLARIZATION, 1), _port_pol(port), check=False
        ).normalized()
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


def entangle_stream(
    photon_amps: Sequence[tuple[complex, complex]],
    spin_amps: tuple[complex, complex] = (_SQ, _SQ),
    model: InteractionModel | None = None,
    *,
    spin_phase_drift: float = 0.0,
) -> ProtocolResult:
    """Send a train of photons through the gate, one at a time.

    Each photon enters at A and is post-selected at D; its path register is
    dropped after its pass, so the live state holds only polarizations and
    the spin.  ``spin_phase_drift`` adds a deterministic Z rotation of the
    spin between consecutive photons (an inter-photon precession knob;
    0 disables it).  The result state orders registers (spin, pol₁, …, polₙ).
    """
    model = model or InteractionModel.ideal()
    spin_amps = _normalize_pair(spin_amps)
    amps = [_normalize_pair(p) for p in photon_amps]
    if not amps:
        raise ValueError("need at least one photon")
    lossy = not model.is_lossless

    state = qs.from_amplitudes(qs.spin(), list(spin_amps))
    success = 1.0
    for k, pair in enumerate(amps, start=1):
        if k > 1 and spin_phase_drift != 0.0:
            z = Operator(
                (qs.spin(),),
                np.diag([1.0, np.exp(1j * spin_phase_drift)]).astype(complex),
            )
            state = qs.apply(z, state)
        photon = qs.tensor(
            qs.from_amplitudes(qs.polarization(k), list(pair)),
            qs.basis_state([qs.path(k, CNOT_PATHS)], ["A"]),
        )
        if lossy:
            photon = qs.tensor(photon, qs.basis_state([qs.loss_flag(k)], ["Alive"]))
        state = qs.tensor(state, photon)
        state = run_plan(state, CNOT_PLAN, model, photon=k)
        state, prob = _postselect_exit(state, photon=k)
        if prob <= 1e-300:
            raise ValueError(f"photon {k}: heralded branch has vanishing probability")
        success *= prob
        state = StateVector(state.registers, state.amps / math.sqrt(prob))

    target = _ideal_gate_target(amps, spin_amps, range(1, len(amps) + 1))
    if spin_phase_drift == 0.0:
        fid = qs.fidelity(state, qs.reorder(target, [r.key for r in state.registers]))
    else:
        fid = float("nan")
    return ProtocolResult(state, success, fid)


def ghz(
    n: int,
    model: InteractionModel | None = None,
    *,
    spin_phase_drift: float = 0.0,
) -> dict[str, ProtocolResult]:
    """n-photon GHZ generation heralded by the spin ± readout.

    All photons enter right-circular with the spin in (↑+↓)/√2; measuring the
    spin in the ± basis leaves (R…R ± L…L)/√2 with probability ½ each.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    stream = entangle_stream(
        [(1.0, 0.0)] * n, (_SQ, _SQ), model, spin_phase_drift=spin_phase_drift
    )
    state = qs.change_basis(stream.state, (RegisterKind.SPIN, 0), "PlusMinus")

    out: dict[str, ProtocolResult] = {}
    for name, sign in (("Plus", 1.0), ("Minus", -1.0)):
        branch = qs.collapse(state, (RegisterKind.SPIN, 0), name, check=False)
        prob = branch.norm_sq()
        target_amps = np.zeros(2**n, dtype=complex)
        target_amps[0] = _SQ
        target_amps[-1] = sign * _SQ
        target = StateVector(branch.registers, target_amps)
        out[name] = ProtocolResult(
            branch.normalized(), stream.success_probability * prob, qs.fidelity(branch, target)
        )
    return out


# ---------------------------------------------------------------------------
# Bell-state analyzer
# ---------------------------------------------------------------------------


def bsa_state(
    two_photon_pol: StateVector,
    model: InteractionModel | None = None,
) -> StateVector:
    """Run the full analyzer train; returns the pre-detection state.

    ``two_photon_pol`` is a state over two polarization registers (ids 1, 2).
    The returned state spans (spin, pol₁, path₁[, flag₁], pol₂, path₂[, flag₂])
    with the spin still unmeasured in the Up/Down basis.
    """
    model = model or InteractionModel.ideal()
    lossy = not model.is_lossless
    pol_ids = sorted(
        r.id for r in two_photon_pol.registers if r.kind is RegisterKind.POLARIZATION
    )
    if len(pol_ids) != 2 or len(two_photon_pol.registers) != 2:
        raise ValueError("analyzer input must be a two-photon polarization state")

    state = qs.tensor(qs.from_amplitudes(qs.spin(), [_SQ, _SQ]), two_photon_pol)
    for pid in pol_ids:
        state = qs.tensor(state, qs.basis_state([qs.path(pid, BSA_PATHS)], ["In"]))
        if lossy:
            state = qs.tensor(state, qs.basis_state([qs.loss_flag(pid)], ["Alive"]))
    for pid in pol_ids:
        state = run_plan(state, BSA_PLAN, model, pid)
    return state


_DETECTOR_PORTS = ("C", "D")


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
    weight before renormalization.
    """
    state = bsa_state(two_photon_pol, model)
    pol_ids = sorted(
        r.id for r in state.registers if r.kind is RegisterKind.POLARIZATION
    )
    bases = meas.MeasurementBases(
        pol={pid: "HV" for pid in pol_ids},
        ports=frozenset(pol_ids),
        spin="PlusMinus",
    )
    dist = meas.enumerate_outcomes(state, bases)
    kept: dict[meas.OutcomeRecord, float] = {}
    for rec, p in dist.items():
        if all(
            (not out.lost) and out.port in _DETECTOR_PORTS for _, out in rec.photons
        ):
            kept[rec] = p
    success = sum(kept.values())
    if success <= 0:
        raise ValueError("no coincidence outcomes survived the analyzer")
    dist = meas.Distribution({k: v / success for k, v in kept.items()})
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
