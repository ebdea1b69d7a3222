import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinphoton import optics as opt
from spinphoton import qstate as qs

from _oracles import apply, basis_state, is_unitary

SQ = 1.0 / math.sqrt(2.0)
PORTS = ("P", "Q", "S", "T")
POL, PATH = qs.polarization(1), qs.path(1, PORTS)


def element(mat):
    """A builder's matrix as a labelled operator: on path alone for the
    polarization-blind elements, else on (pol, path)."""
    return qs.Operator((PATH,) if mat.shape[0] == len(PORTS) else (POL, PATH), mat)


def photon_state(pol_name, port):
    return basis_state([POL, PATH], [pol_name, port])


def test_cpbs_routes_by_handedness():
    op = element(opt.cpbs_operator(PORTS, in_path="P", r_out="Q", l_out="S"))
    out = apply(op, photon_state("R", "P"))
    assert out.amplitude("R", "Q") == 1.0
    out = apply(op, photon_state("L", "P"))
    assert out.amplitude("L", "S") == 1.0


def test_cpbs_pass_through_port():
    # r_out may coincide with the input: R goes straight on
    op = element(opt.cpbs_operator(PORTS, in_path="P", r_out="P", l_out="Q"))
    out = apply(op, photon_state("R", "P"))
    assert out.amplitude("R", "P") == 1.0


def test_cpbs_is_bidirectional():
    s = photon_state("R", "Q")
    out = apply(element(opt.cpbs_operator(PORTS, in_path="P", r_out="Q", l_out="S")), s)
    assert out.amplitude("R", "P") == 1.0


def test_cpbs4_rank_and_cross():
    op = element(opt.cpbs4_operator(PORTS, in_paths=("P", "T"), out_paths=("S", "Q")))
    assert apply(op, photon_state("R", "P")).amplitude("R", "S") == 1.0
    assert apply(op, photon_state("R", "T")).amplitude("R", "Q") == 1.0
    assert apply(op, photon_state("L", "P")).amplitude("L", "Q") == 1.0
    assert apply(op, photon_state("L", "T")).amplitude("L", "S") == 1.0


def test_bs_splits_with_i_on_cross_port():
    op = element(opt.bs_operator(PORTS, in_a="P", in_b="Q", out_c="S", out_d="T"))
    out = apply(op, photon_state("R", "P"))
    assert out.amplitude("R", "S") == pytest.approx(SQ)
    assert out.amplitude("R", "T") == pytest.approx(1j * SQ)
    out = apply(op, photon_state("R", "Q"))
    assert out.amplitude("R", "S") == pytest.approx(1j * SQ)
    assert out.amplitude("R", "T") == pytest.approx(SQ)


def test_bs_in_place_form():
    op = element(opt.bs_operator(PORTS, in_a="P", in_b="Q", out_c="P", out_d="Q"))
    out = apply(op, photon_state("L", "P"))
    assert out.amplitude("L", "P") == pytest.approx(SQ)
    assert out.amplitude("L", "Q") == pytest.approx(1j * SQ)


def test_mach_zehnder_balanced_exits_one_port():
    # BS → BS with no relative phase: photon leaves deterministically on the
    # cross port (the two i factors add up on one side).
    s = photon_state("R", "P")
    s = apply(element(opt.bs_operator(PORTS, in_a="P", in_b="Q", out_c="P", out_d="Q")), s)
    s = apply(element(opt.bs_operator(PORTS, in_a="P", in_b="Q", out_c="P", out_d="Q")), s)
    assert abs(s.amplitude("R", "Q")) == pytest.approx(1.0)
    assert abs(s.amplitude("R", "P")) == pytest.approx(0.0)


def test_mach_zehnder_pi_phase_restores_input_port():
    s = photon_state("R", "P")
    s = apply(element(opt.bs_operator(PORTS, in_a="P", in_b="Q", out_c="P", out_d="Q")), s)
    s = apply(element(opt.phase_operator(PORTS, at="Q", phi=math.pi)), s)
    s = apply(element(opt.bs_operator(PORTS, in_a="P", in_b="Q", out_c="P", out_d="Q")), s)
    assert abs(s.amplitude("R", "P")) == pytest.approx(1.0)


def test_mirror_swaps_handedness_only_at_its_port():
    s = qs.StateVector(
        (qs.polarization(1), qs.path(1, PORTS)),
        np.array([SQ, 0, 0, 0, 0, SQ, 0, 0]),  # R@P + L@Q
    )
    out = apply(element(opt.mirror_operator(PORTS, at="P")), s)
    assert out.amplitude("L", "P") == pytest.approx(SQ)
    assert out.amplitude("L", "Q") == pytest.approx(SQ)


def test_hwp_at_zero_swaps_r_and_l():
    out = apply(element(opt.hwp_operator(PORTS, at="P")), photon_state("R", "P"))
    assert out.amplitude("L", "P") == pytest.approx(1.0)


def test_hwp_angle_phases():
    th = 0.31
    out = apply(element(opt.hwp_operator(PORTS, at="P", theta=th)), photon_state("R", "P"))
    assert out.amplitude("L", "P") == pytest.approx(np.exp(-2j * th))


def test_phase_applies_to_both_polarizations():
    s = qs.StateVector(
        (qs.polarization(1), qs.path(1, PORTS)),
        np.array([SQ, 0, 0, 0, SQ, 0, 0, 0]),  # (R+L)@P
    )
    out = apply(element(opt.phase_operator(PORTS, at="P", phi=math.pi / 2)), s)
    assert out.amplitude("R", "P") == pytest.approx(1j * SQ)
    assert out.amplitude("L", "P") == pytest.approx(1j * SQ)


_BUILDS = {
    "cpbs": lambda ports: opt.cpbs_operator(ports, in_path="P", r_out="Q", l_out="S"),
    "cpbs4": lambda ports: opt.cpbs4_operator(ports, in_paths=("P", "T"), out_paths=("S", "Q")),
    "bs": lambda ports: opt.bs_operator(ports, in_a="P", in_b="Q", out_c="S", out_d="T"),
    "bs-inplace": lambda ports: opt.bs_operator(ports, in_a="P", in_b="Q", out_c="P", out_d="Q"),
    "mirror": lambda ports: opt.mirror_operator(ports, at="S"),
    "hwp": lambda ports: opt.hwp_operator(ports, at="Q", theta=0.7),
    "phase": lambda ports: opt.phase_operator(ports, at="T", phi=1.234),
}


@pytest.mark.parametrize("build", _BUILDS.values(), ids=_BUILDS.keys())
def test_every_element_is_unitary(build):
    assert is_unitary(element(build(PORTS)), atol=1e-12)


@pytest.mark.parametrize("build", _BUILDS.values(), ids=_BUILDS.keys())
def test_every_element_is_a_read_only_matrix(build):
    mat = build(PORTS)
    assert mat.shape in ((len(PORTS),) * 2, (2 * len(PORTS),) * 2)
    assert not mat.flags.writeable
    with pytest.raises(ValueError):
        mat[0, 0] = 0.0


@pytest.mark.parametrize("build", _BUILDS.values(), ids=_BUILDS.keys())
def test_an_unknown_port_is_refused_by_name(build):
    # without a port it uses, an element names that port
    refused = 0
    for missing in PORTS:
        ports = tuple(port for port in PORTS if port != missing) + ("X",)
        try:
            build(ports)
        except ValueError as err:
            assert repr(missing) in str(err)
            refused += 1
    assert refused >= 1


def test_bs_in_place_with_one_input_is_refused():
    # the in-place form with in_a == in_b was a non-unitary [[0.707, 0], [0, 1]]
    with pytest.raises(ValueError, match="inputs must differ"):
        opt.bs_operator(("A", "B"), in_a="A", in_b="A", out_c="A", out_d="A")


_ANGLES = st.floats(-4 * math.pi, 4 * math.pi, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(theta=_ANGLES, phi=_ANGLES)
def test_angle_elements_are_unitary_at_any_angle(theta, phi):
    assert is_unitary(element(opt.hwp_operator(PORTS, at="Q", theta=theta)), atol=1e-12)
    assert is_unitary(element(opt.phase_operator(PORTS, at="T", phi=phi)), atol=1e-12)


def test_elements_preserve_norm_on_random_states():
    rng = np.random.default_rng(99)
    regs = (qs.polarization(1), qs.path(1, PORTS))
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps /= np.linalg.norm(amps)
    s = qs.StateVector(regs, amps)
    s = apply(element(opt.cpbs4_operator(PORTS, in_paths=("P", "T"), out_paths=("S", "Q"))), s)
    s = apply(element(opt.bs_operator(PORTS, in_a="P", in_b="Q", out_c="P", out_d="Q")), s)
    s = apply(element(opt.mirror_operator(PORTS, at="S")), s)
    s = apply(element(opt.phase_operator(PORTS, at="P", phi=0.4)), s)
    assert s.norm_sq() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf, 1e308, -1e308])
def test_hwp_refuses_an_angle_whose_double_is_not_finite(theta):
    with pytest.raises(ValueError, match="theta"):
        opt.hwp_operator(PORTS, at="P", theta=theta)


@pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
def test_phase_refuses_a_non_finite_angle(phi):
    with pytest.raises(ValueError, match="phi"):
        opt.phase_operator(PORTS, at="P", phi=phi)
