"""Labeled state vectors over small named registers.

Every quantum object in this package is a dense complex state vector whose
axes are *registers*: a photon's polarization, a photon's spatial path, the
emitter spin, and (in lossy runs) a per-photon loss flag.  Registers carry
their own basis-state names, amplitudes are stored row-major in register
order, and states are immutable.  The package computes on plain arrays and
labels only its results.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math
from collections.abc import Iterable, Sequence

import numpy as np

#: Absolute tolerance used for "exact" algebraic checks throughout the package.
ATOL = 1e-12

#: Largest state, in amplitudes, that the photon runs and streams build:
#: 2^25 complex amplitudes, 512 MiB; larger requests raise ``ValueError``
#: before any allocation.  Each of these functions writes its result once,
#: into the array the returned state keeps: ``entangle_stream`` holds one
#: result-sized array, ``run_photons`` one and its last pass's input (2/d of
#: it for d output modes a photon, a third or less for the protocols' plans),
#: and ``ghz(24)`` one 2^25-amplitude array for both branches, 512 MiB.
MAX_AMPLITUDES = 2**25

RL = ("R", "L")
HV = ("H", "V")
UP_DOWN = ("Up", "Down")
PLUS_MINUS = ("Plus", "Minus")
ALIVE_LOST = ("Alive", "Lost")


class RegisterKind(enum.Enum):
    """What a register physically labels."""

    POLARIZATION = "pol"
    PATH = "path"
    SPIN = "spin"
    LOSS_FLAG = "flag"

    # members are singletons that compare by identity, so the identity hash
    # agrees with equality; Enum's own hashes the name, in Python, per call
    __hash__ = object.__hash__


#: Identity of a register within a state: (kind, id).
RegisterKey = tuple[RegisterKind, int]


@dataclasses.dataclass(frozen=True)
class Register:
    """A named tensor factor with an ordered basis.

    Two registers denote the same physical degree of freedom iff their
    ``(kind, id)`` keys match; the basis tuple names the computational basis
    states of that factor (e.g. ``("R", "L")`` for circular polarization).
    """

    kind: RegisterKind
    id: int
    basis: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.basis:
            raise ValueError("register needs at least one basis state")
        if len(set(self.basis)) != len(self.basis):
            raise ValueError(f"duplicate basis names in {self.basis!r}")

    @property
    def key(self) -> RegisterKey:
        return (self.kind, self.id)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def index(self, name: str) -> int:
        try:
            return self.basis.index(name)
        except ValueError:
            raise ValueError(
                f"{name!r} is not a basis state of {self.kind.value}{self.id} "
                f"(basis {self.basis})"
            ) from None


# registers are immutable values, so every caller can share one; a refused
# basis raises and is not kept, and typed keeps an id of 1 apart from True
@functools.lru_cache(maxsize=1024, typed=True)
def _register(kind: RegisterKind, ident: int, basis: tuple[str, ...]) -> Register:
    return Register(kind, ident, basis)


def polarization(photon: int, basis: tuple[str, ...] = RL) -> Register:
    """Circular-polarization register of one photon."""
    return _register(RegisterKind.POLARIZATION, photon, tuple(basis))


def path(photon: int, names: Iterable[str]) -> Register:
    """Spatial-mode register of one photon; ``names`` lists the ports."""
    return _register(RegisterKind.PATH, photon, tuple(names))


def spin(ident: int = 0, basis: tuple[str, ...] = UP_DOWN) -> Register:
    """The emitter spin register."""
    return _register(RegisterKind.SPIN, ident, tuple(basis))


def loss_flag(photon: int) -> Register:
    """Alive/Lost flag register of one photon (pure-state loss bookkeeping)."""
    return _register(RegisterKind.LOSS_FLAG, photon, ALIVE_LOST)


def _check_amps(amps: np.ndarray) -> None:
    """Refuses amplitudes that no state may hold: a NaN or ±inf, or a squared
    norm over 1 + 1e-9.  The norm² is formed once; only when it is not finite
    are the amplitudes scanned, to tell a non-finite one from an overflow."""
    norm_sq = float(np.vdot(amps, amps).real)
    if not math.isfinite(norm_sq) and not np.isfinite(amps).all():
        raise ValueError("non-finite amplitude")
    if norm_sq > 1.0 + 1e-9:
        raise ValueError(f"squared norm {norm_sq:.6g} exceeds 1")


def _as_amps(values: Sequence[complex] | np.ndarray) -> np.ndarray:
    amps = np.asarray(values, dtype=np.complex128).reshape(-1).copy()
    amps.setflags(write=False)
    return amps


@dataclasses.dataclass(frozen=True)
class StateVector:
    """An immutable ket over an ordered tuple of registers.

    ``amps[i]`` is the amplitude of the joint basis state whose per-register
    indices are the row-major digits of ``i``.  Squared norm never exceeds 1;
    sub-normalized states represent post-selected branches.  The constructor
    copies the caller's array, so changing that array later leaves the state
    as it was; the package's own functions hand over the arrays they have
    just made with ``_adopt``, which keeps them without a copy.
    """

    registers: tuple[Register, ...]
    amps: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "amps", _as_amps(self.amps))
        self._check()

    @classmethod
    def _adopt(cls, registers: tuple[Register, ...], amps: np.ndarray) -> "StateVector":
        """A state that keeps ``amps`` itself, read-only, rather than a copy.

        Only for an array that the caller has just made and never touches
        again; every check of the public constructor still runs.
        """
        amps = np.asarray(amps, dtype=np.complex128)
        amps.setflags(write=False)
        amps = amps.reshape(-1)
        state = object.__new__(cls)
        object.__setattr__(state, "registers", registers)
        object.__setattr__(state, "amps", amps)
        state._check()
        return state

    def _check(self) -> None:
        expected = math.prod(r.dim for r in self.registers)
        if self.amps.size != expected:
            raise ValueError(
                f"amplitude vector has {self.amps.size} entries, "
                f"registers imply {expected}"
            )
        keys = [r.key for r in self.registers]
        if len(set(keys)) != len(keys):
            raise ValueError(f"overlapping register identities: {keys}")
        _check_amps(self.amps)

    # -- shape helpers -----------------------------------------------------

    @property
    def dim(self) -> int:
        return self.amps.size

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(r.dim for r in self.registers)

    def norm_sq(self) -> float:
        return float(np.vdot(self.amps, self.amps).real)

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def register(self, key: RegisterKey | Register) -> Register:
        key = key.key if isinstance(key, Register) else key
        for reg in self.registers:
            if reg.key == key:
                return reg
        raise KeyError(f"no register {key} in state (have {[r.key for r in self.registers]})")

    def axis(self, key: RegisterKey | Register) -> int:
        key = key.key if isinstance(key, Register) else key
        for i, reg in enumerate(self.registers):
            if reg.key == key:
                return i
        raise KeyError(f"no register {key} in state")

    def amplitude(self, *names: str) -> complex:
        """Amplitude of one joint basis state, named per register in order."""
        if len(names) != len(self.registers):
            raise ValueError(f"need {len(self.registers)} names, got {len(names)}")
        idx = 0
        for reg, name in zip(self.registers, names):
            idx = idx * reg.dim + reg.index(name)
        return complex(self.amps[idx])

    def normalized(self) -> "StateVector":
        n = self.norm()
        if n < ATOL:
            raise ValueError("cannot normalize a (near-)zero state")
        return StateVector(self.registers, self.amps / n)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StateVector({format_state(self)})"


@dataclasses.dataclass(frozen=True)
class Operator:
    """A square matrix acting on an ordered subset of a state's registers;
    only the tests' reference computations build one."""

    domain: tuple[Register, ...]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=np.complex128).copy()
        dim = math.prod(r.dim for r in self.domain)
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix shape {mat.shape} does not match domain dim {dim}")
        if not np.all(np.isfinite(mat.view(np.float64))):
            raise ValueError("non-finite operator entry")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


# -- algebra ---------------------------------------------------------------


def reorder(state: StateVector, keys: Sequence[RegisterKey | Register]) -> StateVector:
    """Permute registers into the order given by ``keys`` (all must be named).

    ``state`` itself when its registers are already in that order; otherwise
    a state that keeps the one transposed copy it makes."""
    want = [k.key if isinstance(k, Register) else k for k in keys]
    if len(want) != len(state.registers) or set(want) != {r.key for r in state.registers}:
        raise ValueError("reorder keys must be a permutation of the state's registers")
    perm = [state.axis(k) for k in want]
    if perm == list(range(len(perm))):  # states are immutable: the state itself will do
        return state
    out = np.transpose(state.amps.reshape(state.shape), perm)
    return StateVector._adopt(tuple(state.registers[i] for i in perm), out.reshape(-1))


# -- basis changes ---------------------------------------------------------

#: target name -> (kind, basis tuple, matrix rows ⟨new_i|old_j⟩ from the paired basis)
_SQ = 1.0 / math.sqrt(2.0)
_BASIS_TABLE: dict[str, tuple[RegisterKind, tuple[str, ...]]] = {
    "RL": (RegisterKind.POLARIZATION, RL),
    "HV": (RegisterKind.POLARIZATION, HV),
    "UpDown": (RegisterKind.SPIN, UP_DOWN),
    "PlusMinus": (RegisterKind.SPIN, PLUS_MINUS),
}

# Fixed linear-polarization convention: H = (R+L)/√2, V = -i(R-L)/√2.
_RL_TO_HV = np.array([[_SQ, _SQ], [1j * _SQ, -1j * _SQ]], dtype=np.complex128)
# |±⟩ = (|Up⟩ ± |Down⟩)/√2 — the Hadamard pair, self-inverse.
_HADAMARD = np.array([[_SQ, _SQ], [_SQ, -_SQ]], dtype=np.complex128)

_CHANGES: dict[tuple[tuple[str, ...], str], np.ndarray] = {
    (RL, "HV"): _RL_TO_HV,
    (HV, "RL"): _RL_TO_HV.conj().T,
    (UP_DOWN, "PlusMinus"): _HADAMARD,
    (PLUS_MINUS, "UpDown"): _HADAMARD,
}


def _basis_matrix(reg: Register, target: str) -> tuple[np.ndarray | None, Register]:
    """The matrix taking ``reg``'s amplitudes to basis ``target`` (None when
    ``reg`` is already in it), and the register renamed to that basis."""
    if target not in _BASIS_TABLE:
        raise ValueError(f"unknown basis target {target!r} (know {sorted(_BASIS_TABLE)})")
    kind, new_names = _BASIS_TABLE[target]
    if reg.kind is not kind:
        raise ValueError(f"basis {target!r} does not apply to a {reg.kind.value} register")
    if reg.basis == new_names:
        return None, reg
    try:
        mat = _CHANGES[(reg.basis, target)]
    except KeyError:
        raise ValueError(f"no conversion from basis {reg.basis} to {target!r}") from None
    return mat, Register(reg.kind, reg.id, new_names)


# -- comparison ------------------------------------------------------------


def fidelity(a: StateVector, b: StateVector) -> float:
    """|⟨â|b̂⟩|² between the normalized states; requires identical register lists."""
    if a.registers != b.registers:
        raise ValueError("fidelity requires identical register lists")
    denom = a.norm_sq() * b.norm_sq()
    if denom < ATOL:
        raise ValueError("fidelity undefined for zero states")
    return float(abs(np.vdot(a.amps, b.amps)) ** 2 / denom)


def format_state(state: StateVector, tol: float = 1e-9) -> str:
    """Human-readable ket expansion, e.g. ``0.707|R,Up⟩ + 0.707|L,Down⟩``."""
    parts: list[str] = []
    shape = state.shape
    for flat, amp in enumerate(state.amps):
        if abs(amp) <= tol:
            continue
        names = []
        rem = flat
        for size, reg in zip(reversed(shape), reversed(state.registers)):
            rem, i = divmod(rem, size)
            names.append(reg.basis[i])
        names.reverse()
        if abs(amp.imag) <= tol:
            coeff = f"{amp.real:+.4g}"
        elif abs(amp.real) <= tol:
            coeff = f"{amp.imag:+.4g}i"
        else:
            coeff = f"+({amp.real:.4g}{amp.imag:+.4g}i)"
        parts.append(f"{coeff}|{','.join(names)}⟩")
    return " ".join(parts) if parts else "0"
