"""Lossless linear optics on one photon's modes.

:func:`element` gives each optical step of a plan as one small unitary
block on the few (pol, port) modes it touches, pol in R/L; every other
mode of the photon, and its Alive/Lost flag, rides along unchanged.

Conventions: the symmetric 50:50 beam splitter puts a factor i on the
cross port; a fold mirror exchanges R and L (propagation reversal in a
fixed frame); circular polarizing beam splitters route R and L without
extra phases.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["element"]

_BS_BLOCK = np.array([[1.0, 1.0j], [1.0j, 1.0]], dtype=np.complex128) / math.sqrt(2.0)
#: The splitter's two fixed blocks, read-only: one :data:`_BS_BLOCK` per
#: polarization in place, and per polarization and direction on four ports
#: (the block is symmetric, so the way back needs no transpose).
_BS_IN_PLACE = np.kron(np.eye(2), _BS_BLOCK)
_BS_FOUR_PORT = np.kron(np.eye(4), _BS_BLOCK)
_BS_IN_PLACE.flags.writeable = _BS_FOUR_PORT.flags.writeable = False


def element(
    op: str, at: tuple[str, ...], param: float = 0.0
) -> tuple[np.ndarray, list[tuple[str, str]], list[tuple[str, str]]]:
    """One optical plan step as ``(block, outs, ins)``: the read-only
    ``block[i, j]`` is the amplitude from the mode ``ins[j]`` to the mode
    ``outs[i]``, and ``outs`` lists the modes of ``ins`` in a new order.

    The ops, with their ports ``at`` in order:

    * ``cpbs3`` (in, r_out, l_out) — three-port circular splitter: R to
      ``r_out``, L to ``l_out``, on three distinct ports; bidirectional
      (swap-based);
    * ``cpbs4`` (in_a, in_b, out_a, out_b) — four-port circular splitter:
      R keeps rank (in[k] ↔ out[k]), L crosses;
    * ``bs`` (in_a, in_b, out_c, out_d) — symmetric 50:50 splitter,
      polarization-blind: in_a → (out_c + i·out_d)/√2 and in_b →
      (i·out_c + out_d)/√2, on four distinct ports (the outputs swap back
      onto the inputs for unitarity) or in place, out_c = in_a and
      out_d = in_b with two distinct inputs;
    * ``mirror`` (at,) — fold mirror: exchanges R and L there;
    * ``hwp`` (at,) — half-wave plate at angle θ = ``param``:
      R → e^{-2iθ} L, L → e^{+2iθ} R; a θ whose 2θ is not finite is refused;
    * ``phase`` (at,) — phase plate e^{iφ}, φ = ``param``, on both
      polarizations; φ must be finite.
    """
    if op == "cpbs3":
        if len(set(at)) != 3:
            raise ValueError("cpbs3 needs three distinct ports")
        in_path, r_out, l_out = at
        ins = [("R", in_path), ("R", r_out), ("L", in_path), ("L", l_out)]
        outs = [("R", r_out), ("R", in_path), ("L", l_out), ("L", in_path)]
        block = np.eye(4, dtype=np.complex128)
    elif op == "cpbs4":
        if len(set(at)) != 4:
            raise ValueError("cpbs4 needs four distinct ports")
        in_a, in_b, out_a, out_b = at
        ins = [(pol, port) for pol in ("R", "L") for port in at]
        outs = [("R", port) for port in (out_a, out_b, in_a, in_b)]
        outs += [("L", port) for port in (out_b, out_a, in_b, in_a)]
        block = np.eye(8, dtype=np.complex128)
    elif op == "bs":
        in_a, in_b, out_c, out_d = at
        if (out_c, out_d) == (in_a, in_b):
            if in_a == in_b:
                raise ValueError("bs inputs must differ")
            ins = outs = [(pol, port) for pol in ("R", "L") for port in (in_a, in_b)]
            block = _BS_IN_PLACE
        else:
            if len(set(at)) != 4:
                raise ValueError("bs ports must be four distinct names or fully in-place")
            ins = [(pol, port) for pol in ("R", "L") for port in at]
            outs = [(pol, port) for pol in ("R", "L") for port in (out_c, out_d, in_a, in_b)]
            block = _BS_FOUR_PORT
    elif op in ("mirror", "hwp", "phase"):
        ins = [("R", at[0]), ("L", at[0])]
        outs = ins if op == "phase" else ins[::-1]
        if op == "mirror":
            block = np.eye(2, dtype=np.complex128)
        elif op == "hwp":
            if not math.isfinite(2.0 * param):
                raise ValueError(f"hwp angle theta={param!r}: theta and 2*theta must be finite")
            block = np.diag([np.exp(-2.0j * param), np.exp(2.0j * param)])
        else:
            if not math.isfinite(param):
                raise ValueError(f"phase angle phi={param!r} must be finite")
            block = np.diag([np.exp(1.0j * param)] * 2)
    else:
        raise ValueError(f"unknown plan step {op!r}")
    block.flags.writeable = False
    return block, outs, ins
