"""Lossless linear optics on one photon's modes.

Each builder takes ``ports``, the names of the photon's spatial modes in
order, and returns a read-only unitary matrix: on (pol, path), pol in R/L
and row-major, for the elements that see polarization, and on path alone
for the splitter ``bs`` and the phase plate, which do not.

Conventions: the symmetric 50:50 beam splitter puts a factor i on the
cross port; a fold mirror exchanges R and L (propagation reversal in a
fixed frame); circular polarizing beam splitters route R and L without
extra phases.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .qstate import _port_index

__all__ = [
    "cpbs_operator",
    "cpbs4_operator",
    "bs_operator",
    "mirror_operator",
    "hwp_operator",
    "phase_operator",
]


def _pol_path_index(ports: Sequence[str], pol_i: int, port: str) -> int:
    return pol_i * len(ports) + _port_index(ports, port)


def _swap(mat: np.ndarray, i: int, j: int, amp: complex = 1.0) -> None:
    # overwrite the identity entries with a two-state swap
    mat[i, i] = 0.0
    mat[j, j] = 0.0
    mat[i, j] = amp
    mat[j, i] = amp


def _read_only(mat: np.ndarray) -> np.ndarray:
    mat.flags.writeable = False
    return mat


def cpbs_operator(ports: Sequence[str], *, in_path: str, r_out: str, l_out: str) -> np.ndarray:
    """Three-port circular polarizing splitter: R to ``r_out``, L to ``l_out``.

    Bidirectional (swap-based), so feeding the output ports routes back to
    ``in_path``.  An output may coincide with the input port, in which case
    that polarization passes straight through.
    """
    if r_out == l_out:
        raise ValueError("r_out and l_out must be distinct ports")
    mat = np.eye(2 * len(ports), dtype=np.complex128)
    if r_out != in_path:
        _swap(mat, _pol_path_index(ports, 0, in_path), _pol_path_index(ports, 0, r_out))
    if l_out != in_path:
        _swap(mat, _pol_path_index(ports, 1, in_path), _pol_path_index(ports, 1, l_out))
    return _read_only(mat)


def cpbs4_operator(
    ports: Sequence[str], *, in_paths: tuple[str, str], out_paths: tuple[str, str]
) -> np.ndarray:
    """Four-port circular splitter: R keeps rank (in[k] ↔ out[k]), L crosses.

    Used as the entry/exit element of the gate interferometer, where both
    input ports can be occupied simultaneously.
    """
    if len({*in_paths, *out_paths}) != 4:
        raise ValueError("cpbs4 needs four distinct ports")
    mat = np.eye(2 * len(ports), dtype=np.complex128)
    for k in (0, 1):
        _swap(
            mat,
            _pol_path_index(ports, 0, in_paths[k]),
            _pol_path_index(ports, 0, out_paths[k]),
        )
        _swap(
            mat,
            _pol_path_index(ports, 1, in_paths[k]),
            _pol_path_index(ports, 1, out_paths[1 - k]),
        )
    return _read_only(mat)


_BS_BLOCK = np.array([[1.0, 1.0j], [1.0j, 1.0]], dtype=np.complex128) / math.sqrt(2.0)


def bs_operator(
    ports: Sequence[str], *, in_a: str, in_b: str, out_c: str, out_d: str
) -> np.ndarray:
    """Symmetric 50:50 splitter, polarization-blind, on path.

    ``in_a`` → (out_c + i·out_d)/√2 and ``in_b`` → (i·out_c + out_d)/√2.
    Accepts either four distinct ports (output modes swap back onto the
    inputs for unitarity) or the in-place form out_c = in_a, out_d = in_b
    with two distinct inputs.
    """
    mat = np.eye(len(ports), dtype=np.complex128)
    ia, ib = _port_index(ports, in_a), _port_index(ports, in_b)
    if (out_c, out_d) == (in_a, in_b):
        if in_a == in_b:
            raise ValueError("bs inputs must differ")
        for i, gi in enumerate((ia, ib)):
            for j, gj in enumerate((ia, ib)):
                mat[gi, gj] = _BS_BLOCK[i, j]
    else:
        if len({in_a, in_b, out_c, out_d}) != 4:
            raise ValueError("bs ports must be four distinct names or fully in-place")
        oc, od = _port_index(ports, out_c), _port_index(ports, out_d)
        for i in (ia, ib, oc, od):
            mat[i, i] = 0.0
        for i, gi in enumerate((oc, od)):
            for j, gj in enumerate((ia, ib)):
                mat[gi, gj] = _BS_BLOCK[i, j]
                mat[gj, gi] = _BS_BLOCK[i, j]
    return _read_only(mat)


def mirror_operator(ports: Sequence[str], *, at: str) -> np.ndarray:
    """Fold mirror on one port: exchanges R and L amplitudes there."""
    mat = np.eye(2 * len(ports), dtype=np.complex128)
    _swap(mat, _pol_path_index(ports, 0, at), _pol_path_index(ports, 1, at))
    return _read_only(mat)


def hwp_operator(ports: Sequence[str], *, at: str, theta: float = 0.0) -> np.ndarray:
    """Half-wave plate at angle ``theta`` on one port.

    In the circular basis: R → e^{-2iθ} L, L → e^{+2iθ} R.  A θ whose 2θ
    is not finite is refused.
    """
    if not math.isfinite(2.0 * theta):
        raise ValueError(f"hwp angle theta={theta!r}: theta and 2*theta must be finite")
    mat = np.eye(2 * len(ports), dtype=np.complex128)
    i_r = _pol_path_index(ports, 0, at)
    i_l = _pol_path_index(ports, 1, at)
    mat[i_r, i_r] = 0.0
    mat[i_l, i_l] = 0.0
    mat[i_l, i_r] = np.exp(-2.0j * theta)
    mat[i_r, i_l] = np.exp(2.0j * theta)
    return _read_only(mat)


def phase_operator(ports: Sequence[str], *, at: str, phi: float) -> np.ndarray:
    """Phase plate e^{iφ} on one port, both polarizations, on path; φ must be finite."""
    if not math.isfinite(phi):
        raise ValueError(f"phase angle phi={phi!r} must be finite")
    mat = np.eye(len(ports), dtype=np.complex128)
    i = _port_index(ports, at)
    mat[i, i] = np.exp(1.0j * phi)
    return _read_only(mat)
