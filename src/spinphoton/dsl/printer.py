"""Canonical formatter for circuit ASTs.

``parse(pretty_print(c)) == c`` for every valid circuit ``c`` (positions are
excluded from node equality), and pretty-printing is idempotent on text:
``pretty_print(parse(s))`` is a fixed point.
"""

from __future__ import annotations

import math

from . import ast

__all__ = ["pretty_print", "format_angle"]


def format_angle(value: float) -> str:
    """Render an angle, preferring the spellings ``pi``, ``-pi``, ``pi/n``.

    A name is used only for the float it parses back to, so every angle
    survives the round trip exactly.
    """
    for sign, prefix in ((1.0, ""), (-1.0, "-")):
        if value == sign * math.pi:
            return f"{prefix}pi"
        for n in range(2, 13):
            if value == sign * math.pi / n:
                return f"{prefix}pi/{n}"
    return repr(value)


def _component(comp: ast.Component) -> str:
    params = ""
    if comp.params:
        inner = ", ".join(f"{p.name}={format_angle(p.value)}" for p in comp.params)
        params = f"({inner})"
    ins = ", ".join(comp.inputs)
    outs = ", ".join(comp.outputs)
    return f"component {comp.name} {comp.kind}{params} in=[{ins}] out=[{outs}]"


def _input(inp: ast.PhotonInput | ast.SpinInput) -> str:
    if isinstance(inp, ast.SpinInput):
        return f"input spin state {inp.state}"
    if len(inp.photons) == 1:
        return f"input photon {inp.photons[0]} port {inp.port} state {inp.state}"
    ids = " ".join(str(p) for p in inp.photons)
    return f"input photons {ids} port {inp.port} state {inp.state}"


def _measure(m: ast.Measure) -> str:
    if isinstance(m, ast.SpinMeasure):
        return f"measure spin basis {m.basis}"
    if isinstance(m, ast.PortMeasure):
        return f"measure photon {m.photon} port"
    return f"measure photon {m.photon} pol basis {m.basis}"


def pretty_print(circuit: ast.Circuit) -> str:
    groups = [
        [_component(c) for c in circuit.components],
        [_input(i) for i in circuit.inputs],
        [_measure(m) for m in circuit.measures],
    ]
    blocks = ["\n".join(g) for g in groups if g]
    return "\n\n".join(blocks) + "\n"
