"""Lossless linear optics acting on photon polarization and path registers.

Conventions: the symmetric 50:50 beam splitter puts a factor i on the
cross port; a fold mirror exchanges R and L (propagation reversal in a
fixed frame); circular polarizing beam splitters route R and L without
extra phases.  Every builder returns an exact unitary.
"""

from __future__ import annotations

import math

import numpy as np

from .qstate import Operator, Register

__all__ = [
    "cpbs_operator",
    "cpbs4_operator",
    "bs_operator",
    "mirror_operator",
    "hwp_operator",
    "phase_operator",
]


def _pol_path_index(path: Register, pol_i: int, path_name: str) -> int:
    return pol_i * path.dim + path.index(path_name)


def _swap(mat: np.ndarray, i: int, j: int, amp: complex = 1.0) -> None:
    # overwrite the identity entries with a two-state swap
    mat[i, i] = 0.0
    mat[j, j] = 0.0
    mat[i, j] = amp
    mat[j, i] = amp


def cpbs_operator(
    pol: Register, path: Register, *, in_path: str, r_out: str, l_out: str
) -> Operator:
    """Three-port circular polarizing splitter: R to ``r_out``, L to ``l_out``.

    Bidirectional (swap-based), so feeding the output ports routes back to
    ``in_path``.  An output may coincide with the input port, in which case
    that polarization passes straight through.
    """
    if r_out == l_out:
        raise ValueError("r_out and l_out must be distinct ports")
    mat = np.eye(2 * path.dim, dtype=np.complex128)
    if r_out != in_path:
        _swap(mat, _pol_path_index(path, 0, in_path), _pol_path_index(path, 0, r_out))
    if l_out != in_path:
        _swap(mat, _pol_path_index(path, 1, in_path), _pol_path_index(path, 1, l_out))
    return Operator((pol, path), mat)


def cpbs4_operator(
    pol: Register,
    path: Register,
    *,
    in_paths: tuple[str, str],
    out_paths: tuple[str, str],
) -> Operator:
    """Four-port circular splitter: R keeps rank (in[k] ↔ out[k]), L crosses.

    Used as the entry/exit element of the gate interferometer, where both
    input ports can be occupied simultaneously.
    """
    ports = (*in_paths, *out_paths)
    if len(set(ports)) != 4:
        raise ValueError("cpbs4 needs four distinct ports")
    mat = np.eye(2 * path.dim, dtype=np.complex128)
    for k in (0, 1):
        _swap(
            mat,
            _pol_path_index(path, 0, in_paths[k]),
            _pol_path_index(path, 0, out_paths[k]),
        )
        _swap(
            mat,
            _pol_path_index(path, 1, in_paths[k]),
            _pol_path_index(path, 1, out_paths[1 - k]),
        )
    return Operator((pol, path), mat)


_BS_BLOCK = np.array([[1.0, 1.0j], [1.0j, 1.0]], dtype=np.complex128) / math.sqrt(2.0)


def bs_operator(
    path: Register, *, in_a: str, in_b: str, out_c: str, out_d: str
) -> Operator:
    """Symmetric 50:50 splitter, polarization-blind.

    ``in_a`` → (out_c + i·out_d)/√2 and ``in_b`` → (i·out_c + out_d)/√2.
    Accepts either four distinct ports (output modes swap back onto the
    inputs for unitarity) or the in-place form out_c = in_a, out_d = in_b.
    """
    mat = np.eye(path.dim, dtype=np.complex128)
    ia, ib = path.index(in_a), path.index(in_b)
    if (out_c, out_d) == (in_a, in_b):
        for i, gi in enumerate((ia, ib)):
            for j, gj in enumerate((ia, ib)):
                mat[gi, gj] = _BS_BLOCK[i, j]
    else:
        if len({in_a, in_b, out_c, out_d}) != 4:
            raise ValueError("bs ports must be four distinct names or fully in-place")
        oc, od = path.index(out_c), path.index(out_d)
        for i in (ia, ib, oc, od):
            mat[i, i] = 0.0
        for i, gi in enumerate((oc, od)):
            for j, gj in enumerate((ia, ib)):
                mat[gi, gj] = _BS_BLOCK[i, j]
                mat[gj, gi] = _BS_BLOCK[i, j]
    return Operator((path,), mat)


def mirror_operator(pol: Register, path: Register, *, at: str) -> Operator:
    """Fold mirror on one port: exchanges R and L amplitudes there."""
    mat = np.eye(2 * path.dim, dtype=np.complex128)
    _swap(mat, _pol_path_index(path, 0, at), _pol_path_index(path, 1, at))
    return Operator((pol, path), mat)


def hwp_operator(pol: Register, path: Register, *, at: str, theta: float = 0.0) -> Operator:
    """Half-wave plate at angle ``theta`` on one port.

    In the circular basis: R → e^{-2iθ} L, L → e^{+2iθ} R.  A θ whose 2θ
    is not finite is refused.
    """
    if not math.isfinite(2.0 * theta):
        raise ValueError(f"hwp angle theta={theta!r}: theta and 2*theta must be finite")
    mat = np.eye(2 * path.dim, dtype=np.complex128)
    i_r = _pol_path_index(path, 0, at)
    i_l = _pol_path_index(path, 1, at)
    mat[i_r, i_r] = 0.0
    mat[i_l, i_l] = 0.0
    mat[i_l, i_r] = np.exp(-2.0j * theta)
    mat[i_r, i_l] = np.exp(2.0j * theta)
    return Operator((pol, path), mat)


def phase_operator(path: Register, *, at: str, phi: float) -> Operator:
    """Phase plate e^{iφ} on one port, both polarizations; φ must be finite."""
    if not math.isfinite(phi):
        raise ValueError(f"phase angle phi={phi!r} must be finite")
    mat = np.eye(path.dim, dtype=np.complex128)
    mat[path.index(at), path.index(at)] = np.exp(1.0j * phi)
    return Operator((path,), mat)
