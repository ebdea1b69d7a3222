"""Detection: outcome enumeration, Born probabilities, seeded sampling.

A measurement is described by :class:`MeasurementBases` — which photons are
read out in which polarization basis, which have their exit port recorded,
and whether (and in which basis) the spin is read.  Registers left out of the
description are traced over.  A photon whose loss flag is Lost produced no
click; all its microstates aggregate into a single ``lost`` outcome.  A
record with no photon and no spin (a circuit that measures nothing) prints
as ``-``.

:func:`enumerate_outcomes` reads the table off the plain amplitude array,
with one outcome axis per photon, and builds a record only for an outcome
that occurs.

Sampling (``enumerate_outcomes(state, bases).sample(shots, seed=...)``) uses
``numpy.random.default_rng`` (PCG64).  Identical seeds give identical outcome
tables on every platform.
"""

from __future__ import annotations

import dataclasses
import operator
from collections.abc import Iterable, Iterator, Mapping

import numpy as np

from . import qstate as qs
from .qstate import RegisterKind, StateVector

__all__ = [
    "RNG_NAME",
    "MAX_SHOTS",
    "PhotonOutcome",
    "OutcomeRecord",
    "MeasurementBases",
    "Distribution",
    "enumerate_outcomes",
]

#: Identifier of the sampling generator, recorded in CLI output for provenance.
RNG_NAME = "numpy-pcg64"

#: Largest shot count one draw takes: the generator counts in signed 64 bits.
MAX_SHOTS = 2**63 - 1

_MIN_PROB = 1e-15

_LABEL = operator.itemgetter(0)

_POL_BASES = {"RL": qs.RL, "HV": qs.HV}
_SPIN_BASES = {"UpDown": qs.UP_DOWN, "PlusMinus": qs.PLUS_MINUS}


# Records are dict keys everywhere, so each one hashes its fields once, to
# the value the frozen dataclass would give.  The hash is not pickled: a
# string's hash differs between processes, so a loaded record hashes anew.
def _keep_hash(record, fields: tuple) -> None:
    object.__setattr__(record, "_hash", hash(fields))


def _stored_hash(record) -> int:
    return record._hash


def _rebuilt(record) -> tuple:
    return type(record), tuple(getattr(record, f.name) for f in dataclasses.fields(record))


@dataclasses.dataclass(frozen=True)
class PhotonOutcome:
    """One photon's detection record: exit port, polarization click, or lost."""

    port: str | None = None
    pol: str | None = None
    lost: bool = False

    def __post_init__(self) -> None:
        if self.lost and (self.port is not None or self.pol is not None):
            raise ValueError("a lost photon has neither port nor polarization")
        _keep_hash(self, (self.port, self.pol, self.lost))

    __hash__ = _stored_hash
    __reduce__ = _rebuilt

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

    def __post_init__(self) -> None:
        _keep_hash(self, (self.photons, self.spin))

    __hash__ = _stored_hash
    __reduce__ = _rebuilt

    def photon(self, photon_id: int) -> PhotonOutcome:
        for pid, out in self.photons:
            if pid == photon_id:
                return out
        raise KeyError(f"no photon {photon_id} in record")

    def __str__(self) -> str:
        parts = [f"{pid}={out}" for pid, out in self.photons]
        if self.spin is not None:
            parts.append(f"spin={self.spin}")
        return " ".join(parts) if parts else "-"


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

    @classmethod
    def _from_pairs(cls, records: Iterable[OutcomeRecord], probs: Iterable[float]) -> "Distribution":
        """The distribution of distinct ``records`` paired in order with their
        float ``probs``, each kept record hashed once; as the constructor,
        entries at or below 1e-15 are dropped."""
        dist = object.__new__(cls)
        dist._probs = {r: p for r, p in zip(records, probs) if p > _MIN_PROB}
        return dist

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
        A count that is not an integer in [0, :data:`MAX_SHOTS`], and a seed
        that is not a non-negative integer, are refused; a bool is neither.
        """
        rows = self._rows()
        counts = self._draw(shots, seed, rows)
        return {r: c for (_, r, _), c in zip(rows, counts) if c > 0}

    def _rows(self) -> list[tuple[str, OutcomeRecord, float]]:
        """(``str`` of the record, record, probability) for every record, in
        ``str`` order, each string formed once; equal strings keep the
        mapping's order."""
        return sorted(((str(r), r, p) for r, p in self._probs.items()), key=_LABEL)

    def _draw(self, shots: int, seed: int, rows: list[tuple[str, OutcomeRecord, float]]) -> list[int]:
        """The counts of one :meth:`sample` draw, one per row of :meth:`_rows`."""
        if _not_an_integer(shots) or not 0 <= shots <= MAX_SHOTS:
            raise ValueError(f"shots must be an integer from 0 to {MAX_SHOTS}, got {shots!r}")
        if _not_an_integer(seed) or seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
        total = self.total()
        if abs(total - 1.0) > 1e-9:
            raise ValueError(
                f"outcome probabilities sum to {total:.6g}; sample() needs a "
                "complete (unit-norm) state"
            )
        probs = np.array([p for _, _, p in rows])
        probs /= probs.sum()
        rng = np.random.default_rng(seed)
        return rng.multinomial(shots, probs).tolist()

    def __repr__(self) -> str:  # pragma: no cover
        rows = ", ".join(f"{k}: {v:.4g}" for k, v in sorted(self._probs.items(), key=str))
        return f"Distribution({rows})"


def _not_an_integer(value: object) -> bool:
    """Whether ``value`` is not a Python or numpy integer, or is a bool."""
    return isinstance(value, bool) or not isinstance(value, (int, np.integer))


def enumerate_outcomes(state: StateVector, bases: MeasurementBases) -> Distribution:
    """Born probabilities of every outcome of ``bases`` on ``state``.

    Probabilities sum to the squared norm of the state (post-selected branches
    keep their shortfall).  Outcomes below 1e-15 are dropped.  A photon's
    polarization or port, or the spin, that ``bases`` reads but ``state``
    lacks is refused with a ``ValueError`` before any work.

    The work is done on the amplitude array: the basis changes, one sum over
    the traced axes, and one outcome axis per measured photon, which folds
    its (flag, pol, port) axes into every alive pol × port entry and one Lost
    entry summed over pol and port.  Records are built only for the entries
    above 1e-15.  Outcome axes keep the order of their first register, and a
    photon's Lost entry follows its alive ones.
    """
    present = {reg.key for reg in state.registers}
    wanted = [(RegisterKind.POLARIZATION, pid) for pid in bases.pol]
    wanted += [(RegisterKind.PATH, pid) for pid in sorted(bases.ports)]
    wanted += [(RegisterKind.SPIN, 0)] if bases.spin is not None else []
    for kind, ident in wanted:
        if (kind, ident) not in present:
            raise ValueError(f"the state has no register {kind.value}{ident} to measure")
    amps = state.amps.reshape(state.shape)
    registers = list(state.registers)
    changes = [((RegisterKind.POLARIZATION, pid), basis) for pid, basis in bases.pol.items()]
    if bases.spin is not None:
        changes.append(((RegisterKind.SPIN, 0), bases.spin))
    for key, target in changes:
        ax = state.axis(key)
        mat, registers[ax] = qs._basis_matrix(registers[ax], target)
        if mat is not None:
            amps = np.moveaxis(np.tensordot(mat, amps, axes=(1, ax)), 0, ax)

    # the outcome axes, each (its axes of ``amps``, flag first; its labels;
    # whether it has a Lost entry; the photon id, None for the spin)
    axis = {reg.key: ax for ax, reg in enumerate(registers)}
    outcome_axes = []
    for pid in bases.photon_ids:
        flag = axis.get((RegisterKind.LOSS_FLAG, pid))
        pol = axis.get((RegisterKind.POLARIZATION, pid)) if pid in bases.pol else None
        port = axis.get((RegisterKind.PATH, pid)) if pid in bases.ports else None
        labels = [
            (pid, PhotonOutcome(port=port_name, pol=pol_name))
            for pol_name in (registers[pol].basis if pol is not None else (None,))
            for port_name in (registers[port].basis if port is not None else (None,))
        ]
        if flag is not None:
            labels.append((pid, PhotonOutcome(lost=True)))
        axes = [ax for ax in (flag, pol, port) if ax is not None]
        outcome_axes.append((axes, labels, flag is not None, pid))
    if bases.spin is not None:
        spin_ax = axis[(RegisterKind.SPIN, 0)]
        outcome_axes.append(([spin_ax], registers[spin_ax].basis, False, None))
    outcome_axes.sort(key=lambda o: min(o[0], default=-1))
    measured = [ax for axes, *_ in outcome_axes for ax in axes]

    probs = np.abs(amps) ** 2
    table = probs.sum(axis=tuple(ax for ax in range(probs.ndim) if ax not in measured))
    kept = sorted(measured)
    table = table.transpose([kept.index(ax) for ax in measured])
    shape = []
    for _, labels, lossy, _ in outcome_axes:
        shape += [2, len(labels) - 1] if lossy else [len(labels)]
    table = table.reshape(shape)
    for pos, (_, _, lossy, _) in enumerate(outcome_axes):
        if lossy:
            lost = table.take(1, axis=pos).sum(axis=pos, keepdims=True)
            table = np.concatenate([table.take(0, axis=pos), lost], axis=pos)

    nonzero = np.flatnonzero(table > _MIN_PROB)
    values = table.reshape(-1)[nonzero].tolist()
    if table.ndim:
        rows = zip(*(ix.tolist() for ix in np.unravel_index(nonzero, table.shape)))
    else:  # nothing measured: one outcome holds the whole norm
        rows = [()] * len(values)
    labels = [axis_labels for _, axis_labels, _, _ in outcome_axes]
    by_id = sorted((pid, pos) for pos, (*_, pid) in enumerate(outcome_axes) if pid is not None)
    photon_pos = [pos for _, pos in by_id]
    spin_pos = next((pos for pos, (*_, pid) in enumerate(outcome_axes) if pid is None), None)
    records = (
        OutcomeRecord(
            photons=tuple(labels[pos][row[pos]] for pos in photon_pos),
            spin=None if spin_pos is None else labels[spin_pos][row[spin_pos]],
        )
        for row in rows
    )
    return Distribution._from_pairs(records, values)  # distinct rows give distinct records
