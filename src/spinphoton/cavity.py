"""Spin-selective cavity scattering: coefficients, loss models, pass blocks.

A single emitter spin sits in a double-sided optical microcavity.  A photon
arriving in a circular-polarization eigenstate either couples to the emitter
transition (and is reflected with its polarization flipped) or sees an empty
cavity (and is transmitted unchanged, up to a sign).  Which of the two happens
depends on the photon's spin angular momentum along the cavity axis — set by
its circular polarization *and* its direction of travel — relative to the
emitter spin.

Three levels of description live here:

* :func:`scatter_coefficients` — the frequency-resolved reflection and
  transmission amplitudes of the cavity for an input detuned by ``delta_omega``
  from the bare cavity, derived from the standard input-output treatment in
  the weak-coupling (bad-cavity) regime.
* :class:`InteractionModel` — the four on-resonance branch amplitudes
  (coupled/uncoupled × reflect/transmit) used by the gate simulations, either
  exact (``ideal()``) or built from measured quality factors and the Purcell
  factor (``from_contrast``).
* :func:`pass_modes` / :func:`pass_block` — one cavity pass on one photon's
  modes.  A pass never flips the spin, and for each spin it differs from
  the identity only on a few (pol, port[, flag]) modes that no model
  changes: there it is blockdiag(X_c, X_u), the small real block of the
  coupled polarization's branch, then that of the uncoupled one, the same
  for both spins.  X is a reflection on at most four modes for the
  one-sided pass (so the pass is an involution) and the pair dilation
  [[M, L], [L, −M]] for the two-sided pass.  The flag is there exactly
  when the model is lossy.

Every block is an exact unitary: photon loss is represented by rotating
amplitude into the photon's Alive/Lost flag rather than by dropping norm.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Sequence

import numpy as np

from . import qstate as qs

__all__ = [
    "CavityParams",
    "ScatterCoefficients",
    "scatter_coefficients",
    "ContrastParams",
    "quality_ratio_from_losses",
    "transmission_contrast",
    "InteractionModel",
    "coupled_polarization",
    "pass_modes",
    "pass_block",
]


# ---------------------------------------------------------------------------
# Frequency-resolved scattering coefficients
# ---------------------------------------------------------------------------


def _require_finite(params) -> None:
    """Refuse NaN and ±inf in any field of a parameter dataclass."""
    for field in dataclasses.fields(params):
        if not math.isfinite(getattr(params, field.name)):
            raise ValueError(f"{field.name} must be finite")


@dataclasses.dataclass(frozen=True)
class CavityParams:
    """Cavity/emitter parameters in angular-frequency units.

    ``delta_omega``: photon detuning from the bare cavity resonance.
    ``delta``: detuning of the emitter transition from the cavity.
    ``kappa``: cavity field decay rate (> 0).
    ``g``: emitter-cavity coupling (>= 0); ``g = 0`` is an empty cavity.
    """

    delta_omega: float
    delta: float
    kappa: float
    g: float

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if self.g < 0:
            raise ValueError("g must be non-negative")

    @property
    def gamma(self) -> float:
        """Cavity-enhanced emission rate 2 g² / κ of the coupled emitter."""
        return 2.0 * self.g * self.g / self.kappa


@dataclasses.dataclass(frozen=True)
class ScatterCoefficients:
    """Reflection/transmission amplitudes at one detuning.

    ``xi`` is the dimensionless detuning parameter; ``None`` encodes a
    divergent ξ (the on-resonance coupled limit, or an overflow), where
    reflection is perfect.
    """

    r: complex
    t: complex
    xi: complex | None

    @property
    def xi_infinite(self) -> bool:
        return self.xi is None


def scatter_coefficients(params: CavityParams) -> ScatterCoefficients:
    """Amplitudes r(Δω), t(Δω) of the coupled cavity in the bad-cavity limit.

    With ξ = (Δω + δ)/κ − Γ/(2Δω) and Γ = 2g²/κ:

        r = iξ / (1 + iξ),   t = −1 / (1 + iξ),   r = 1 + t.

    The two exact limits are handled explicitly: an empty resonant cavity
    (g = 0, Δω = 0) transmits with amplitude −1, while a coupled emitter
    probed at the bare resonance (Δω = 0, g > 0) reflects with amplitude +1.
    A ξ that overflows to ±∞ (e.g. Γ/(2Δω) at a subnormal Δω) takes the
    same |ξ| → ∞ limit, r = 1 and t = 0; a ξ of ∞ − ∞, where both terms
    overflow, is undefined in floating point and refused with ``ValueError``.
    """
    if params.delta_omega == 0.0:
        if params.g > 0.0:
            # Γ/(2Δω) diverges: unit reflection, no transmission.
            return ScatterCoefficients(r=1.0 + 0.0j, t=0.0j, xi=None)
        xi = params.delta / params.kappa
    else:
        xi = (params.delta_omega + params.delta) / params.kappa - params.gamma / (
            2.0 * params.delta_omega
        )
    if math.isnan(xi):
        raise ValueError(
            f"detuning parameter xi is undefined at delta_omega={params.delta_omega!r}: "
            "both of its terms overflow"
        )
    if math.isinf(xi):
        return ScatterCoefficients(r=1.0 + 0.0j, t=0.0j, xi=None)
    xi = complex(xi)
    denom = 1.0 + 1j * xi
    return ScatterCoefficients(r=1j * xi / denom, t=-1.0 / denom, xi=xi)


# ---------------------------------------------------------------------------
# Transmission contrast from cavity quality factors
# ---------------------------------------------------------------------------


def quality_ratio_from_losses(
    alpha_mirror: float, alpha_scatter: float, alpha_radiation: float
) -> float:
    """(Q/Q₀)² from the mirror, scattering, and radiation loss coefficients.

    Q/Q₀ = α_m / (α_m + α_scat + α_rad): the fraction of the total cavity
    decay that exits through the useful mirror channel.  Each coefficient
    must be finite, α_m positive and the other two non-negative.
    """
    if not (math.isfinite(alpha_mirror) and alpha_mirror > 0):
        raise ValueError(f"alpha_mirror must be positive and finite, got {alpha_mirror!r}")
    for name, value in (("alpha_scatter", alpha_scatter), ("alpha_radiation", alpha_radiation)):
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(f"{name} must be non-negative and finite, got {value!r}")
    q_ratio_sq = (alpha_mirror / (alpha_mirror + alpha_scatter + alpha_radiation)) ** 2
    if q_ratio_sq == 0.0:
        raise ValueError(
            "alpha_mirror / (alpha_mirror + alpha_scatter + alpha_radiation) is 0 in floating point"
        )
    return q_ratio_sq


@dataclasses.dataclass(frozen=True)
class ContrastParams:
    """Inputs to the transmission-contrast figure of merit.

    ``q_ratio_sq``: (Q/Q₀)², the squared ratio of loaded to intrinsic cavity
    quality factors (≤ 1).  ``purcell``: the Purcell factor F_P of the coupled
    emitter (≥ 0).
    """

    q_ratio_sq: float
    purcell: float

    def __post_init__(self) -> None:
        _require_finite(self)
        if not 0.0 < self.q_ratio_sq <= 1.0:
            raise ValueError("q_ratio_sq must lie in (0, 1]")
        if self.purcell < 0.0:
            raise ValueError("purcell must be non-negative")

    @classmethod
    def from_losses(
        cls,
        alpha_mirror: float,
        alpha_scatter: float,
        alpha_radiation: float,
        purcell: float,
    ) -> "ContrastParams":
        return cls(
            q_ratio_sq=quality_ratio_from_losses(alpha_mirror, alpha_scatter, alpha_radiation),
            purcell=purcell,
        )


def transmission_contrast(params: ContrastParams) -> float:
    """Δ = (Q/Q₀)² · [1 − (1 + F_P)⁻²].

    The difference between the empty-cavity and coupled-cavity transmission
    probabilities; the working figure of merit of the interface.
    """
    if params.purcell > 1e100:  # (1 + F_P)² may overflow; Δ is (Q/Q₀)² to the last bit
        return params.q_ratio_sq
    return params.q_ratio_sq * (1.0 - 1.0 / (1.0 + params.purcell) ** 2)


# ---------------------------------------------------------------------------
# On-resonance interaction models
# ---------------------------------------------------------------------------


_AMP_TOL = 1e-9


@dataclasses.dataclass(frozen=True)
class InteractionModel:
    """The four branch amplitudes of one cavity pass, all real in [0, 1].

    coupled photon:   reflect with ``coupled_reflect_amp`` (polarization
                      flips), transmit with ``coupled_transmit_amp``;
    uncoupled photon: transmit with ``uncoupled_transmit_amp``, reflect with
                      ``uncoupled_reflect_amp``.

    Transmission amplitudes always enter with a minus sign (the empty-cavity
    π phase); reflection amplitudes enter with a plus sign.  Each branch must
    satisfy reflect + transmit ≤ 1 so that the residual probability
    1 − r² − t² can be rotated into the Lost flag by an exact isometry.

    A model keeps each plan's spin blocks built on it, so they are built once
    per model; the memo takes no part in equality, hashing or repr, and
    ``dataclasses.replace`` starts a new, empty one.
    """

    coupled_reflect_amp: float
    coupled_transmit_amp: float
    uncoupled_transmit_amp: float
    uncoupled_reflect_amp: float
    #: (plan, ports, entry ports, exits) -> the plan's read-only spin blocks,
    #: cut to the exits when they are given; filled only by
    #: :mod:`spinphoton.protocols`.
    _channels: dict = dataclasses.field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        amps = (
            self.coupled_reflect_amp,
            self.coupled_transmit_amp,
            self.uncoupled_transmit_amp,
            self.uncoupled_reflect_amp,
        )
        for a in amps:
            if not -_AMP_TOL <= a <= 1.0 + _AMP_TOL:
                raise ValueError(f"branch amplitude {a} outside [0, 1]")
        if self.coupled_reflect_amp + self.coupled_transmit_amp > 1.0 + _AMP_TOL:
            raise ValueError("coupled branch: reflect + transmit exceeds 1")
        if self.uncoupled_reflect_amp + self.uncoupled_transmit_amp > 1.0 + _AMP_TOL:
            raise ValueError("uncoupled branch: reflect + transmit exceeds 1")

    @property
    def is_lossless(self) -> bool:
        return (
            abs(self.coupled_reflect_amp - 1.0) <= _AMP_TOL
            and abs(self.coupled_transmit_amp) <= _AMP_TOL
            and abs(self.uncoupled_transmit_amp - 1.0) <= _AMP_TOL
            and abs(self.uncoupled_reflect_amp) <= _AMP_TOL
        )

    @property
    def contrast(self) -> float:
        """Transmission contrast Δ = t_uncoupled² − t_coupled² of this model."""
        return self.uncoupled_transmit_amp**2 - self.coupled_transmit_amp**2

    @classmethod
    def ideal(cls) -> "InteractionModel":
        return cls(1.0, 0.0, 1.0, 0.0)

    @classmethod
    def from_contrast(cls, params: ContrastParams) -> "InteractionModel":
        """Branch amplitudes of a realistic cavity at its operating point.

        On resonance the empty cavity transmits with amplitude Q/Q₀ and the
        coupled cavity with amplitude (Q/Q₀)/(1 + F_P); the remainder of each
        branch returns through the input mirror, so r = 1 − t per branch and
        the probability deficit 2t(1 − t) is scattered out of the mode.  The
        model's ``contrast`` equals ``transmission_contrast`` of ``params``
        exactly, and the ideal limit (Q → Q₀, F_P → ∞) recovers (1, 0, 1, 0).
        """
        ut = math.sqrt(params.q_ratio_sq)
        ct = ut / (1.0 + params.purcell)
        return cls(
            coupled_reflect_amp=1.0 - ct,
            coupled_transmit_amp=ct,
            uncoupled_transmit_amp=ut,
            uncoupled_reflect_amp=1.0 - ut,
        )


# ---------------------------------------------------------------------------
# Spin selection rule
# ---------------------------------------------------------------------------


def coupled_polarization(arrive_from: str, spin_name: str) -> str:
    """Which circular polarization couples, given travel direction and spin.

    The photon's spin angular momentum along the cavity axis is +1 for R
    arriving from below or L arriving from above, −1 otherwise; the emitter
    couples when that sign matches its own spin (Up ↔ +1, Down ↔ −1).
    """
    if arrive_from not in ("below", "above"):
        raise ValueError(f"arrive_from must be 'below' or 'above', got {arrive_from!r}")
    if spin_name not in qs.UP_DOWN:
        raise ValueError(f"spin basis state must be Up or Down, got {spin_name!r}")
    plus = "R" if arrive_from == "below" else "L"
    if spin_name == "Up":
        return plus
    return "L" if plus == "R" else "R"


def _flip(pol: str) -> str:
    return "L" if pol == "R" else "R"


# ---------------------------------------------------------------------------
# The two spin blocks of a pass
# ---------------------------------------------------------------------------


def _branch_loss_amp(reflect: float, transmit: float) -> float:
    deficit = 1.0 - reflect * reflect - transmit * transmit
    if deficit < -_AMP_TOL:
        raise ValueError(f"branch amplitudes over-complete: r²+t² = {1 - deficit:.6g}")
    return math.sqrt(max(deficit, 0.0))


def _pair_root(reflect: float, transmit: float) -> tuple[float, float]:
    """The diagonal and off-diagonal entries of L = √(I − M²), the loss
    completion of M = [[r, −t], [−t, r]], one pass of a two-sided pair.

    M has the eigenvectors (1, ±1)/√2 for every r and t, with eigenvalues
    r ∓ t, so L = √(1 − (r−t)²)·P₊ + √(1 − (r+t)²)·P₋ with
    P± = ½[[1, ±1], [±1, 1]].
    """
    roots = []
    for eig in (reflect - transmit, reflect + transmit):
        deficit = 1.0 - eig * eig
        if deficit < -1e-9:
            raise ValueError("loss completion needs a positive semidefinite deficit")
        roots.append(math.sqrt(max(deficit, 0.0)))
    plus, minus = roots
    return 0.5 * (plus + minus), 0.5 * (plus - minus)


def _reflection(branches: Sequence[tuple[float, float]]) -> np.ndarray:
    """One-sided blocks on (in, reflect, transmit, Lost(in)), one per branch
    (r, t), stacked: the reflection I − 2|w⟩⟨w|/⟨w|w⟩ with w = e_in − v,
    which swaps e_in with the unit vector v = (0, r, −t, λ),
    λ = √(1 − r² − t²)."""
    ws, scales = [], []
    for reflect, transmit in branches:
        lost = _branch_loss_amp(reflect, transmit)
        ws.append((1.0, -reflect, transmit, -lost))
        scales.append(2.0 / (1.0 + reflect * reflect + transmit * transmit + lost * lost))
    w = np.array(ws)
    return np.eye(4) - np.array(scales)[:, None, None] * (w[:, :, None] * w[:, None, :])


def _dilation(branches: Sequence[tuple[float, float]]) -> np.ndarray:
    """Two-sided blocks [[M, L], [L, −M]], with M and L of :func:`_pair_root`,
    one per branch (r, t), stacked."""
    blocks = []
    for r, t in branches:
        d, o = _pair_root(r, t)
        blocks.append(((r, -t, d, o), (-t, r, o, d), (d, o, -r, t), (o, d, t, -r)))
    return np.array(blocks)


def pass_modes(op: str, at: tuple[str, ...], lossy: bool) -> tuple[tuple[list, list], ...]:
    """The modes of a cavity pass for each spin, Up then Down, as
    ``(outs, ins)``: lists of (pol, port) modes, or of (pol, port, flag)
    ones when ``lossy``, the coupled polarization's first.  They do not
    depend on the model; :func:`pass_block` takes ``ins`` to ``outs``, the
    same modes in a new order, and every other mode rides along unchanged.

    ``op`` is ``scatter`` with ``at`` = (in, reflect, transmit), a one-sided
    pass from below, or ``loop_cavity`` with ``at`` = (lower, upper), a
    two-arm pass.  Per polarization p, ``modes(p)`` gives (outs, ins, lost):
    the block of p's branch takes (ins, Lost of lost) to (outs, Lost of lost).
    """
    if op == "scatter":
        if len(set(at)) != 3:
            raise ValueError("in/reflect/transmit ports must be three distinct names")
        in_path, reflect_path, transmit_path = at

        def modes(p: str) -> tuple[list, list, list]:
            alive = [(p, in_path), (_flip(p), reflect_path), (p, transmit_path)]
            return alive, alive, alive[:1]

    else:
        lower_path, upper_path = at
        if lower_path == upper_path:
            raise ValueError("lower and upper arms must differ")

        def modes(p: str) -> tuple[list, list, list]:
            ins = [(p, lower_path), (_flip(p), upper_path)]
            return [(_flip(p), lower_path), (p, upper_path)], ins, ins

    per_spin = []
    for spin_name in qs.UP_DOWN:
        c = coupled_polarization("below", spin_name)
        outs, ins = [], []
        for p in (c, _flip(c)):
            p_outs, p_ins, lost = modes(p)
            if lossy:
                lost = [(q, port, "Lost") for q, port in lost]
                p_outs = [(q, port, "Alive") for q, port in p_outs] + lost
                p_ins = [(q, port, "Alive") for q, port in p_ins] + lost
            outs += p_outs
            ins += p_ins
        per_spin.append((outs, ins))
    return tuple(per_spin)


def pass_block(model: InteractionModel, op: str) -> np.ndarray:
    """The model's block of a cavity pass on the modes of :func:`pass_modes`,
    the same for both spins: blockdiag(X_c, X_u), the small real block of
    the coupled branch, then that of the uncoupled one.  X is the reflection
    :func:`_reflection` for ``scatter`` and the pair dilation
    :func:`_dilation` for ``loop_cavity``; for a lossless model only its
    alive corner.
    """
    branches = (
        (model.coupled_reflect_amp, model.coupled_transmit_amp),
        (model.uncoupled_reflect_amp, model.uncoupled_transmit_amp),
    )
    coupled, uncoupled = (_reflection if op == "scatter" else _dilation)(branches)
    size = 4 if not model.is_lossless else 3 if op == "scatter" else 2
    out = np.zeros((2 * size, 2 * size), dtype=np.complex128)
    out[:size, :size] = coupled[:size, :size]
    out[size:, size:] = uncoupled[:size, :size]
    return out

