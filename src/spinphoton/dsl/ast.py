"""AST node types for the circuit description language.

Every node carries a source :class:`Position` excluded from equality, so two
parses of equivalent text compare equal regardless of layout.  Numeric
parameters are stored as plain floats; the printer re-canonicalizes the
spellings ``pi`` and ``pi/2``.
"""

from __future__ import annotations

import dataclasses

__all__ = [
    "Position",
    "Param",
    "Component",
    "PhotonInput",
    "SpinInput",
    "PolMeasure",
    "PortMeasure",
    "SpinMeasure",
    "Circuit",
    "COMPONENT_KINDS",
    "KIND_PARAMS",
    "PHOTON_STATES",
    "PAIR_STATES",
    "SPIN_STATES",
    "POL_BASES",
    "SPIN_BASES",
]

#: component kind -> allowed parameter names
KIND_PARAMS: dict[str, tuple[str, ...]] = {
    "cpbs": (),
    "bs": (),
    "mirror": (),
    "hwp": ("theta",),
    "phase": ("phi",),
    "cavity": (),
}

COMPONENT_KINDS = tuple(KIND_PARAMS)

PHOTON_STATES = ("R", "L", "H", "V")
PAIR_STATES = ("PsiPlus", "PsiMinus", "PhiPlus", "PhiMinus")
SPIN_STATES = ("Up", "Down", "Plus", "Minus")
POL_BASES = ("RL", "HV")
SPIN_BASES = ("UpDown", "PlusMinus")


@dataclasses.dataclass(frozen=True)
class Position:
    """1-based line and column of a token in the source text."""

    line: int
    col: int


_NOWHERE = Position(0, 0)


def _pos_field() -> Position:
    return dataclasses.field(default=_NOWHERE, compare=False, repr=False)


@dataclasses.dataclass(frozen=True)
class Param:
    name: str
    value: float


@dataclasses.dataclass(frozen=True)
class Component:
    """``component <name> <kind>(<params>) in=[...] out=[...]``"""

    name: str
    kind: str
    params: tuple[Param, ...]
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    pos: Position = _pos_field()

    def param(self, name: str, default: float | None = None) -> float | None:
        for p in self.params:
            if p.name == name:
                return p.value
        return default


@dataclasses.dataclass(frozen=True)
class PhotonInput:
    """``input photon <k> port <P> state <S>`` (or ``photons <j> <k>`` for pairs)."""

    photons: tuple[int, ...]
    port: str
    state: str
    pos: Position = _pos_field()


@dataclasses.dataclass(frozen=True)
class SpinInput:
    """``input spin state <S>``"""

    state: str
    pos: Position = _pos_field()


@dataclasses.dataclass(frozen=True)
class PolMeasure:
    """``measure photon <k> pol basis <B>``"""

    photon: int
    basis: str
    pos: Position = _pos_field()


@dataclasses.dataclass(frozen=True)
class PortMeasure:
    """``measure photon <k> port``"""

    photon: int
    pos: Position = _pos_field()


@dataclasses.dataclass(frozen=True)
class SpinMeasure:
    """``measure spin basis <B>``"""

    basis: str
    pos: Position = _pos_field()


Input = PhotonInput | SpinInput
Measure = PolMeasure | PortMeasure | SpinMeasure


@dataclasses.dataclass(frozen=True)
class Circuit:
    components: tuple[Component, ...]
    inputs: tuple[Input, ...]
    measures: tuple[Measure, ...]

    @property
    def ports(self) -> tuple[str, ...]:
        """All port names in first-appearance order."""
        seen: list[str] = []
        for comp in self.components:
            for port in (*comp.inputs, *comp.outputs):
                if port not in seen:
                    seen.append(port)
        for inp in self.inputs:
            if isinstance(inp, PhotonInput) and inp.port not in seen:
                seen.append(inp.port)
        return tuple(seen)

    @property
    def photon_ids(self) -> tuple[int, ...]:
        ids: list[int] = []
        for inp in self.inputs:
            if isinstance(inp, PhotonInput):
                ids.extend(inp.photons)
        return tuple(sorted(ids))
