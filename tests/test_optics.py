import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinphoton import optics as opt
from spinphoton import qstate as qs

from _oracles import is_unitary

SQ = 1.0 / math.sqrt(2.0)
PORTS = ("P", "Q", "S", "T")
POL, PATH = qs.polarization(1), qs.path(1, PORTS)


def photon_state(pol_name, port):
    return qs.basis_state([POL, PATH], [pol_name, port])


def test_cpbs_routes_by_handedness():
    op = opt.cpbs_operator(POL, PATH, in_path="P", r_out="Q", l_out="S")
    out = qs.apply(op, photon_state("R", "P"))
    assert out.amplitude("R", "Q") == 1.0
    out = qs.apply(op, photon_state("L", "P"))
    assert out.amplitude("L", "S") == 1.0


def test_cpbs_pass_through_port():
    # r_out may coincide with the input: R goes straight on
    op = opt.cpbs_operator(POL, PATH, in_path="P", r_out="P", l_out="Q")
    out = qs.apply(op, photon_state("R", "P"))
    assert out.amplitude("R", "P") == 1.0


def test_cpbs_is_bidirectional():
    s = photon_state("R", "Q")
    out = qs.apply(opt.cpbs_operator(POL, PATH, in_path="P", r_out="Q", l_out="S"), s)
    assert out.amplitude("R", "P") == 1.0


def test_cpbs4_rank_and_cross():
    op = opt.cpbs4_operator(POL, PATH, in_paths=("P", "T"), out_paths=("S", "Q"))
    assert qs.apply(op, photon_state("R", "P")).amplitude("R", "S") == 1.0
    assert qs.apply(op, photon_state("R", "T")).amplitude("R", "Q") == 1.0
    assert qs.apply(op, photon_state("L", "P")).amplitude("L", "Q") == 1.0
    assert qs.apply(op, photon_state("L", "T")).amplitude("L", "S") == 1.0


def test_bs_splits_with_i_on_cross_port():
    op = opt.bs_operator(PATH, in_a="P", in_b="Q", out_c="S", out_d="T")
    out = qs.apply(op, photon_state("R", "P"))
    assert out.amplitude("R", "S") == pytest.approx(SQ)
    assert out.amplitude("R", "T") == pytest.approx(1j * SQ)
    out = qs.apply(op, photon_state("R", "Q"))
    assert out.amplitude("R", "S") == pytest.approx(1j * SQ)
    assert out.amplitude("R", "T") == pytest.approx(SQ)


def test_bs_in_place_form():
    op = opt.bs_operator(PATH, in_a="P", in_b="Q", out_c="P", out_d="Q")
    out = qs.apply(op, photon_state("L", "P"))
    assert out.amplitude("L", "P") == pytest.approx(SQ)
    assert out.amplitude("L", "Q") == pytest.approx(1j * SQ)


def test_mach_zehnder_balanced_exits_one_port():
    # BS → BS with no relative phase: photon leaves deterministically on the
    # cross port (the two i factors add up on one side).
    s = photon_state("R", "P")
    s = qs.apply(opt.bs_operator(PATH, in_a="P", in_b="Q", out_c="P", out_d="Q"), s)
    s = qs.apply(opt.bs_operator(PATH, in_a="P", in_b="Q", out_c="P", out_d="Q"), s)
    assert abs(s.amplitude("R", "Q")) == pytest.approx(1.0)
    assert abs(s.amplitude("R", "P")) == pytest.approx(0.0)


def test_mach_zehnder_pi_phase_restores_input_port():
    s = photon_state("R", "P")
    s = qs.apply(opt.bs_operator(PATH, in_a="P", in_b="Q", out_c="P", out_d="Q"), s)
    s = qs.apply(opt.phase_operator(PATH, at="Q", phi=math.pi), s)
    s = qs.apply(opt.bs_operator(PATH, in_a="P", in_b="Q", out_c="P", out_d="Q"), s)
    assert abs(s.amplitude("R", "P")) == pytest.approx(1.0)


def test_mirror_swaps_handedness_only_at_its_port():
    s = qs.StateVector(
        (qs.polarization(1), qs.path(1, PORTS)),
        np.array([SQ, 0, 0, 0, 0, SQ, 0, 0]),  # R@P + L@Q
    )
    out = qs.apply(opt.mirror_operator(POL, PATH, at="P"), s)
    assert out.amplitude("L", "P") == pytest.approx(SQ)
    assert out.amplitude("L", "Q") == pytest.approx(SQ)


def test_hwp_at_zero_swaps_r_and_l():
    out = qs.apply(opt.hwp_operator(POL, PATH, at="P"), photon_state("R", "P"))
    assert out.amplitude("L", "P") == pytest.approx(1.0)


def test_hwp_angle_phases():
    th = 0.31
    out = qs.apply(opt.hwp_operator(POL, PATH, at="P", theta=th), photon_state("R", "P"))
    assert out.amplitude("L", "P") == pytest.approx(np.exp(-2j * th))


def test_phase_applies_to_both_polarizations():
    s = qs.StateVector(
        (qs.polarization(1), qs.path(1, PORTS)),
        np.array([SQ, 0, 0, 0, SQ, 0, 0, 0]),  # (R+L)@P
    )
    out = qs.apply(opt.phase_operator(PATH, at="P", phi=math.pi / 2), s)
    assert out.amplitude("R", "P") == pytest.approx(1j * SQ)
    assert out.amplitude("L", "P") == pytest.approx(1j * SQ)


@pytest.mark.parametrize(
    "build",
    [
        lambda pol, path: opt.cpbs_operator(pol, path, in_path="P", r_out="Q", l_out="S"),
        lambda pol, path: opt.cpbs4_operator(
            pol, path, in_paths=("P", "T"), out_paths=("S", "Q")
        ),
        lambda pol, path: opt.bs_operator(path, in_a="P", in_b="Q", out_c="S", out_d="T"),
        lambda pol, path: opt.bs_operator(path, in_a="P", in_b="Q", out_c="P", out_d="Q"),
        lambda pol, path: opt.mirror_operator(pol, path, at="S"),
        lambda pol, path: opt.hwp_operator(pol, path, at="Q", theta=0.7),
        lambda pol, path: opt.phase_operator(path, at="T", phi=1.234),
    ],
    ids=["cpbs", "cpbs4", "bs", "bs-inplace", "mirror", "hwp", "phase"],
)
def test_every_element_is_unitary(build):
    pol, path = qs.polarization(1), qs.path(1, PORTS)
    assert is_unitary(build(pol, path), atol=1e-12)


_ANGLES = st.floats(-4 * math.pi, 4 * math.pi, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(theta=_ANGLES, phi=_ANGLES)
def test_angle_elements_are_unitary_at_any_angle(theta, phi):
    pol, path = qs.polarization(1), qs.path(1, PORTS)
    assert is_unitary(opt.hwp_operator(pol, path, at="Q", theta=theta), atol=1e-12)
    assert is_unitary(opt.phase_operator(path, at="T", phi=phi), atol=1e-12)


def test_elements_preserve_norm_on_random_states():
    rng = np.random.default_rng(99)
    regs = (qs.polarization(1), qs.path(1, PORTS))
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps /= np.linalg.norm(amps)
    s = qs.StateVector(regs, amps)
    s = qs.apply(opt.cpbs4_operator(POL, PATH, in_paths=("P", "T"), out_paths=("S", "Q")), s)
    s = qs.apply(opt.bs_operator(PATH, in_a="P", in_b="Q", out_c="P", out_d="Q"), s)
    s = qs.apply(opt.mirror_operator(POL, PATH, at="S"), s)
    s = qs.apply(opt.phase_operator(PATH, at="P", phi=0.4), s)
    assert s.norm_sq() == pytest.approx(1.0, abs=1e-12)
