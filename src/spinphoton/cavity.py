"""Spin-selective cavity scattering: coefficients, loss models, operators.

A single emitter spin sits in a double-sided optical microcavity.  A photon
arriving in a circular-polarization eigenstate either couples to the emitter
transition (and is reflected with its polarization flipped) or sees an empty
cavity (and is transmitted unchanged, up to a sign).  Which of the two happens
depends on the photon's spin angular momentum along the cavity axis — set by
its circular polarization *and* its direction of travel — relative to the
emitter spin.

Two levels of description live here:

* :func:`scatter_coefficients` — the frequency-resolved reflection and
  transmission amplitudes of the cavity for an input detuned by ``delta_omega``
  from the bare cavity, derived from the standard input-output treatment in
  the weak-coupling (bad-cavity) regime.
* :class:`InteractionModel` — the four on-resonance branch amplitudes
  (coupled/uncoupled × reflect/transmit) used by the gate simulations, either
  exact (``ideal()``) or built from measured quality factors and the Purcell
  factor (``from_contrast``).
* :func:`one_sided_operator` / :func:`two_sided_operator` — the unitary of one
  cavity pass on the spin and one photon's registers.  The ideal pass is the
  same builder with ``InteractionModel.ideal()`` and no loss-flag register.

All scattering operators are exact unitaries: photon loss is represented by
rotating amplitude into a per-photon Alive/Lost flag register rather than by
dropping norm.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import qstate as qs
from .qstate import Operator, Register

__all__ = [
    "CavityParams",
    "ScatterCoefficients",
    "scatter_coefficients",
    "ContrastParams",
    "quality_ratio_from_losses",
    "transmission_contrast",
    "InteractionModel",
    "interpolate_models",
    "coupled_polarization",
    "one_sided_operator",
    "two_sided_operator",
]


# ---------------------------------------------------------------------------
# Frequency-resolved scattering coefficients
# ---------------------------------------------------------------------------


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

    ``xi`` is the dimensionless detuning parameter; ``None`` encodes the
    divergent on-resonance coupled limit, where reflection is perfect.
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
    """
    if params.delta_omega == 0.0:
        if params.g > 0.0:
            # Γ/(2Δω) diverges: unit reflection, no transmission.
            return ScatterCoefficients(r=1.0 + 0.0j, t=0.0j, xi=None)
        xi = complex(params.delta / params.kappa)
    else:
        xi = complex(
            (params.delta_omega + params.delta) / params.kappa
            - params.gamma / (2.0 * params.delta_omega)
        )
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
    decay that exits through the useful mirror channel.
    """
    total = alpha_mirror + alpha_scatter + alpha_radiation
    if alpha_mirror <= 0 or total <= 0:
        raise ValueError("loss coefficients must be positive")
    return (alpha_mirror / total) ** 2


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
    """

    coupled_reflect_amp: float
    coupled_transmit_amp: float
    uncoupled_transmit_amp: float
    uncoupled_reflect_amp: float

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
# Operator construction
# ---------------------------------------------------------------------------


def _householder(dim: int, w: np.ndarray) -> np.ndarray:
    """I − 2|w⟩⟨w| / ⟨w|w⟩ — the reflection swapping the two vectors w bisects."""
    nrm = np.vdot(w, w).real
    if nrm < 1e-30:
        return np.eye(dim, dtype=np.complex128)
    return np.eye(dim, dtype=np.complex128) - 2.0 / nrm * np.outer(w, w.conj())


def _branch_loss_amp(reflect: float, transmit: float) -> float:
    deficit = 1.0 - reflect * reflect - transmit * transmit
    if deficit < -_AMP_TOL:
        raise ValueError(f"branch amplitudes over-complete: r²+t² = {1 - deficit:.6g}")
    return math.sqrt(max(deficit, 0.0))


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(mat)
    if vals.min() < -1e-9:
        raise ValueError("loss completion needs a positive semidefinite deficit")
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


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


def one_sided_operator(
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


def two_sided_operator(
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

    m_c = np.array(
        [
            [model.coupled_reflect_amp, -model.coupled_transmit_amp],
            [-model.coupled_transmit_amp, model.coupled_reflect_amp],
        ]
    )
    m_u = np.array(
        [
            [model.uncoupled_reflect_amp, -model.uncoupled_transmit_amp],
            [-model.uncoupled_transmit_amp, model.uncoupled_reflect_amp],
        ]
    )
    l_c = _psd_sqrt(np.eye(2) - m_c @ m_c)
    l_u = _psd_sqrt(np.eye(2) - m_u @ m_u)

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
