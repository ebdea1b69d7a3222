"""Detection: outcome enumeration, Born probabilities, seeded sampling.

A measurement is described by :class:`MeasurementBases` — which photons are
read out in which polarization basis, which have their exit port recorded,
and whether (and in which basis) the spin is read.  Registers left out of the
description are traced over.  A photon whose loss flag is Lost produced no
click; all its microstates aggregate into a single ``lost`` outcome.

Sampling (:meth:`Distribution.sample`, or :func:`sample` straight from a
state) uses ``numpy.random.default_rng`` (PCG64).  Identical seeds give
identical outcome tables on every platform.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterator, Mapping

import numpy as np

from . import qstate as qs
from .qstate import StateVector

__all__ = [
    "RNG_NAME",
    "PhotonOutcome",
    "OutcomeRecord",
    "MeasurementBases",
    "Distribution",
    "enumerate_outcomes",
    "sample",
    "total_variation",
]

#: Identifier of the sampling generator, recorded in CLI output for provenance.
RNG_NAME = "numpy-pcg64"

_MIN_PROB = 1e-15

_POL_BASES = {"RL": qs.RL, "HV": qs.HV}
_SPIN_BASES = {"UpDown": qs.UP_DOWN, "PlusMinus": qs.PLUS_MINUS}


@dataclasses.dataclass(frozen=True)
class PhotonOutcome:
    """One photon's detection record: exit port, polarization click, or lost."""

    port: str | None = None
    pol: str | None = None
    lost: bool = False

    def __post_init__(self) -> None:
        if self.lost and (self.port is not None or self.pol is not None):
            raise ValueError("a lost photon has neither port nor polarization")

    def __str__(self) -> str:
        if self.lost:
            return "lost"
        parts = [p for p in (self.port, self.pol) if p is not None]
        return ":".join(parts) if parts else "-"


@dataclasses.dataclass(frozen=True)
class OutcomeRecord:
    """Joint detection record: per-photon outcomes (sorted by id) plus spin."""

    photons: tuple[tuple[int, PhotonOutcome], ...]
    spin: str | None = None

    def photon(self, photon_id: int) -> PhotonOutcome:
        for pid, out in self.photons:
            if pid == photon_id:
                return out
        raise KeyError(f"no photon {photon_id} in record")

    def __str__(self) -> str:
        parts = [f"{pid}={out}" for pid, out in self.photons]
        if self.spin is not None:
            parts.append(f"spin={self.spin}")
        return " ".join(parts)


@dataclasses.dataclass(frozen=True)
class MeasurementBases:
    """What gets detected.

    ``pol`` maps photon id → "RL" or "HV"; ``ports`` lists photon ids whose
    exit path is recorded; ``spin`` is "UpDown", "PlusMinus", or None.
    """

    pol: Mapping[int, str] = dataclasses.field(default_factory=dict)
    ports: frozenset[int] = frozenset()
    spin: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "pol", dict(self.pol))
        object.__setattr__(self, "ports", frozenset(self.ports))
        for basis in self.pol.values():
            if basis not in _POL_BASES:
                raise ValueError(f"unknown polarization basis {basis!r}")
        if self.spin is not None and self.spin not in _SPIN_BASES:
            raise ValueError(f"unknown spin basis {self.spin!r}")

    @property
    def photon_ids(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.pol) | self.ports))


class Distribution(Mapping[OutcomeRecord, float]):
    """Probabilities over outcome records; immutable mapping plus helpers."""

    def __init__(self, probs: Mapping[OutcomeRecord, float]):
        self._probs = {k: float(v) for k, v in probs.items() if v > _MIN_PROB}

    def __getitem__(self, key: OutcomeRecord) -> float:
        return self._probs[key]

    def __iter__(self) -> Iterator[OutcomeRecord]:
        return iter(self._probs)

    def __len__(self) -> int:
        return len(self._probs)

    def total(self) -> float:
        return sum(self._probs.values())

    def sample(self, shots: int, *, seed: int) -> dict[OutcomeRecord, int]:
        """Draw ``shots`` independent outcomes; deterministic for a given seed.

        The distribution must be complete (unit total) — sampling a
        post-selected branch without its complement would silently mis-weight
        outcomes.  Records are drawn in ``str`` order with one PCG64
        multinomial, so the counts do not depend on how the mapping was built.
        """
        total = self.total()
        if abs(total - 1.0) > 1e-9:
            raise ValueError(
                f"outcome probabilities sum to {total:.6g}; sample() needs a "
                "complete (unit-norm) state"
            )
        records = sorted(self._probs, key=str)  # stable outcome order for reproducibility
        probs = np.array([self._probs[r] for r in records])
        probs /= probs.sum()
        rng = np.random.default_rng(seed)
        counts = rng.multinomial(shots, probs)
        return {r: int(c) for r, c in zip(records, counts) if c > 0}

    def __repr__(self) -> str:  # pragma: no cover
        rows = ", ".join(f"{k}: {v:.4g}" for k, v in sorted(self._probs.items(), key=str))
        return f"Distribution({rows})"


def _prepare(state: StateVector, bases: MeasurementBases) -> StateVector:
    for pid, basis in bases.pol.items():
        state = qs.change_basis(state, (qs.RegisterKind.POLARIZATION, pid), basis)
    if bases.spin is not None:
        state = qs.change_basis(state, (qs.RegisterKind.SPIN, 0), bases.spin)
    return state


def enumerate_outcomes(state: StateVector, bases: MeasurementBases) -> Distribution:
    """Born probabilities of every outcome of ``bases`` on ``state``.

    Probabilities sum to the squared norm of the state (post-selected branches
    keep their shortfall).  Outcomes below 1e-15 are dropped.
    """
    state = _prepare(state, bases)
    probs_tensor = np.abs(state.amps.reshape(state.shape)) ** 2

    # measured axes, described as (axis, role, photon/spin id, basis names);
    # every other register is traced out
    describe: list[tuple[int, str, int, tuple[str, ...]]] = []
    for ax, reg in enumerate(state.registers):
        if reg.kind is qs.RegisterKind.POLARIZATION and reg.id in bases.pol:
            describe.append((ax, "pol", reg.id, reg.basis))
        elif reg.kind is qs.RegisterKind.PATH and reg.id in bases.ports:
            describe.append((ax, "port", reg.id, reg.basis))
        elif reg.kind is qs.RegisterKind.SPIN and bases.spin is not None:
            describe.append((ax, "spin", reg.id, reg.basis))
        elif reg.kind is qs.RegisterKind.LOSS_FLAG and reg.id in set(bases.photon_ids):
            describe.append((ax, "flag", reg.id, reg.basis))
    measured_axes = [d[0] for d in describe]
    other = [ax for ax in range(len(state.registers)) if ax not in measured_axes]
    marginal = probs_tensor.sum(axis=tuple(other)) if other else probs_tensor

    out: dict[OutcomeRecord, float] = {}
    it = np.nditer(marginal, flags=["multi_index"])
    for prob in it:
        p = float(prob)
        if p <= _MIN_PROB:
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
        spin_name = names.get(("spin", 0))
        rec = OutcomeRecord(photons=tuple(photon_outs), spin=spin_name)
        out[rec] = out.get(rec, 0.0) + p
    return Distribution(out)


def sample(
    state: StateVector,
    bases: MeasurementBases,
    shots: int,
    *,
    seed: int,
) -> dict[OutcomeRecord, int]:
    """Draw ``shots`` outcomes of ``bases`` on ``state``; see :meth:`Distribution.sample`.

    A caller that already holds the distribution calls its ``sample`` method
    and skips enumerating the outcomes again.
    """
    return enumerate_outcomes(state, bases).sample(shots, seed=seed)


def total_variation(
    p: Mapping[OutcomeRecord, float], q: Mapping[OutcomeRecord, float]
) -> float:
    """Total-variation distance ½ Σ |p − q| over the union of outcomes."""
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)
