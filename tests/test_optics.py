import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinphoton import optics as opt
from spinphoton import protocols as proto
from spinphoton import qstate as qs

from _oracles import apply, basis_state, is_unitary, step_matrix

SQ = 1.0 / math.sqrt(2.0)
PORTS = ("P", "Q", "S", "T")
POL, PATH = qs.polarization(1), qs.path(1, PORTS)


def placed(op, at, param=0.0, ports=PORTS):
    """The element's block applied to the identity on (pol, path) over ``ports``."""
    block, outs, ins = opt.element(op, at, param)
    mat = np.eye(2 * len(ports), dtype=np.complex128)
    mat[proto._mode_rows(ports, outs)] = block @ mat[proto._mode_rows(ports, ins)]
    return mat


def element(op, at, param=0.0):
    """An element as a labelled operator on (pol, path)."""
    return qs.Operator((POL, PATH), placed(op, at, param))


def photon_state(pol_name, port):
    return basis_state([POL, PATH], [pol_name, port])


def test_cpbs_routes_by_handedness():
    op = element("cpbs3", ("P", "Q", "S"))
    out = apply(op, photon_state("R", "P"))
    assert out.amplitude("R", "Q") == 1.0
    out = apply(op, photon_state("L", "P"))
    assert out.amplitude("L", "S") == 1.0


def test_cpbs_pass_through_port():
    # an output on the input port, where that polarization would pass
    # straight through, is refused as two equal outputs are: no plan uses it,
    # and a circuit file reaches it only on a port that already carries light
    for at in (("P", "P", "Q"), ("P", "Q", "P"), ("P", "Q", "Q")):
        with pytest.raises(ValueError, match="^cpbs3 needs three distinct ports$"):
            opt.element("cpbs3", at)


def test_cpbs_is_bidirectional():
    s = photon_state("R", "Q")
    out = apply(element("cpbs3", ("P", "Q", "S")), s)
    assert out.amplitude("R", "P") == 1.0


def test_cpbs4_rank_and_cross():
    op = element("cpbs4", ("P", "T", "S", "Q"))
    assert apply(op, photon_state("R", "P")).amplitude("R", "S") == 1.0
    assert apply(op, photon_state("R", "T")).amplitude("R", "Q") == 1.0
    assert apply(op, photon_state("L", "P")).amplitude("L", "Q") == 1.0
    assert apply(op, photon_state("L", "T")).amplitude("L", "S") == 1.0


def test_bs_splits_with_i_on_cross_port():
    op = element("bs", ("P", "Q", "S", "T"))
    out = apply(op, photon_state("R", "P"))
    assert out.amplitude("R", "S") == pytest.approx(SQ)
    assert out.amplitude("R", "T") == pytest.approx(1j * SQ)
    out = apply(op, photon_state("R", "Q"))
    assert out.amplitude("R", "S") == pytest.approx(1j * SQ)
    assert out.amplitude("R", "T") == pytest.approx(SQ)


def test_bs_in_place_form():
    op = element("bs", ("P", "Q", "P", "Q"))
    out = apply(op, photon_state("L", "P"))
    assert out.amplitude("L", "P") == pytest.approx(SQ)
    assert out.amplitude("L", "Q") == pytest.approx(1j * SQ)


def test_mach_zehnder_balanced_exits_one_port():
    # BS → BS with no relative phase: photon leaves deterministically on the
    # cross port (the two i factors add up on one side).
    s = photon_state("R", "P")
    s = apply(element("bs", ("P", "Q", "P", "Q")), s)
    s = apply(element("bs", ("P", "Q", "P", "Q")), s)
    assert abs(s.amplitude("R", "Q")) == pytest.approx(1.0)
    assert abs(s.amplitude("R", "P")) == pytest.approx(0.0)


def test_mach_zehnder_pi_phase_restores_input_port():
    s = photon_state("R", "P")
    s = apply(element("bs", ("P", "Q", "P", "Q")), s)
    s = apply(element("phase", ("Q",), math.pi), s)
    s = apply(element("bs", ("P", "Q", "P", "Q")), s)
    assert abs(s.amplitude("R", "P")) == pytest.approx(1.0)


def test_mirror_swaps_handedness_only_at_its_port():
    s = qs.StateVector(
        (qs.polarization(1), qs.path(1, PORTS)),
        np.array([SQ, 0, 0, 0, 0, SQ, 0, 0]),  # R@P + L@Q
    )
    out = apply(element("mirror", ("P",)), s)
    assert out.amplitude("L", "P") == pytest.approx(SQ)
    assert out.amplitude("L", "Q") == pytest.approx(SQ)


def test_hwp_at_zero_swaps_r_and_l():
    out = apply(element("hwp", ("P",)), photon_state("R", "P"))
    assert out.amplitude("L", "P") == pytest.approx(1.0)


def test_hwp_angle_phases():
    th = 0.31
    out = apply(element("hwp", ("P",), th), photon_state("R", "P"))
    assert out.amplitude("L", "P") == pytest.approx(np.exp(-2j * th))


def test_phase_applies_to_both_polarizations():
    s = qs.StateVector(
        (qs.polarization(1), qs.path(1, PORTS)),
        np.array([SQ, 0, 0, 0, SQ, 0, 0, 0]),  # (R+L)@P
    )
    out = apply(element("phase", ("P",), math.pi / 2), s)
    assert out.amplitude("R", "P") == pytest.approx(1j * SQ)
    assert out.amplitude("L", "P") == pytest.approx(1j * SQ)


_STEPS = {
    "cpbs": ("cpbs3", ("P", "Q", "S"), 0.0),
    "cpbs4": ("cpbs4", ("P", "T", "S", "Q"), 0.0),
    "bs": ("bs", ("P", "Q", "S", "T"), 0.0),
    "bs-inplace": ("bs", ("P", "Q", "P", "Q"), 0.0),
    "mirror": ("mirror", ("S",), 0.0),
    "hwp": ("hwp", ("Q",), 0.7),
    "phase": ("phase", ("T",), 1.234),
}


@pytest.mark.parametrize("step", _STEPS.values(), ids=_STEPS.keys())
def test_every_element_is_unitary(step):
    assert is_unitary(element(*step), atol=1e-12)


@pytest.mark.parametrize("step", _STEPS.values(), ids=_STEPS.keys())
def test_every_element_is_a_read_only_matrix(step):
    # a square block that takes the modes it touches to themselves, reordered
    block, outs, ins = opt.element(*step)
    assert block.shape == (len(ins), len(ins))
    assert len(set(ins)) == len(ins) and sorted(outs) == sorted(ins)
    assert {port for _, port in ins} == set(step[1])
    assert not block.flags.writeable
    with pytest.raises(ValueError):
        block[0, 0] = 0.0


@pytest.mark.parametrize("step", _STEPS.values(), ids=_STEPS.keys())
def test_every_element_matches_its_dense_reference_builder(step):
    for ports in (PORTS, PORTS[::-1] + ("X",)):
        assert np.array_equal(placed(*step, ports=ports), step_matrix(step, ports))


@pytest.mark.parametrize("step", _STEPS.values(), ids=_STEPS.keys())
def test_an_unknown_port_is_refused_by_name(step):
    # placed on ports without one it uses, an element names that port
    for missing in step[1]:
        ports = tuple(port for port in PORTS if port != missing) + ("X",)
        with pytest.raises(ValueError, match=repr(missing)):
            placed(*step, ports=ports)


def test_bs_in_place_with_one_input_is_refused():
    # the in-place form with in_a == in_b was a non-unitary [[0.707, 0], [0, 1]]
    with pytest.raises(ValueError, match="inputs must differ"):
        opt.element("bs", ("A", "A", "A", "A"))


_ANGLES = st.floats(-4 * math.pi, 4 * math.pi, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(theta=_ANGLES, phi=_ANGLES)
def test_angle_elements_are_unitary_at_any_angle(theta, phi):
    assert is_unitary(element("hwp", ("Q",), theta), atol=1e-12)
    assert is_unitary(element("phase", ("T",), phi), atol=1e-12)


def test_elements_preserve_norm_on_random_states():
    rng = np.random.default_rng(99)
    regs = (qs.polarization(1), qs.path(1, PORTS))
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps /= np.linalg.norm(amps)
    s = qs.StateVector(regs, amps)
    s = apply(element("cpbs4", ("P", "T", "S", "Q")), s)
    s = apply(element("bs", ("P", "Q", "P", "Q")), s)
    s = apply(element("mirror", ("S",)), s)
    s = apply(element("phase", ("P",), 0.4), s)
    assert s.norm_sq() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf, 1e308, -1e308])
def test_hwp_refuses_an_angle_whose_double_is_not_finite(theta):
    with pytest.raises(ValueError, match="theta"):
        opt.element("hwp", ("P",), theta)


@pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
def test_phase_refuses_a_non_finite_angle(phi):
    with pytest.raises(ValueError, match="phi"):
        opt.element("phase", ("P",), phi)


def test_unknown_step_is_refused():
    with pytest.raises(ValueError, match="^unknown plan step 'prism'$"):
        opt.element("prism", ("P",), 0.0)
