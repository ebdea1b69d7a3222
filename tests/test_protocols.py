import dataclasses
import itertools
import math
import pathlib
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinphoton import cavity as cav
from spinphoton import circuits
from spinphoton import measurement as meas
from spinphoton import optics as opt
from spinphoton import protocols as proto
from spinphoton import qstate as qs
from spinphoton.dsl import compile_circuit, parse

from _oracles import (
    apply,
    basis_state,
    bsa_by_enumeration,
    bsa_by_states,
    change_basis,
    choi_channel,
    collapse,
    dense_ghz_branches,
    full_matrix,
    gate_closed_form,
    ghz_closed_form,
    inner,
    outcomes_by_entry,
    plan_operators,
    run_photons_by_transpose,
    run_plan,
    spin_prep_by_states,
    tensor,
)

SQ = 1.0 / math.sqrt(2.0)
VALID = pathlib.Path(__file__).parent / "data" / "valid"


@pytest.fixture
def lossy_model():
    return cav.InteractionModel.from_contrast(cav.ContrastParams(0.8, 6.0))


# ---------------------------------------------------------------------------
# Bell states
# ---------------------------------------------------------------------------


def test_bell_states_are_orthonormal():
    states = [b.state() for b in proto.BellState]
    for i, a in enumerate(states):
        for j, b in enumerate(states):
            expect = 1.0 if i == j else 0.0
            assert inner(a, b) == pytest.approx(expect)


def test_bell_state_amplitudes():
    psi_minus = proto.BellState.PSI_MINUS.state()
    assert psi_minus.amplitude("R", "L") == pytest.approx(SQ)
    assert psi_minus.amplitude("L", "R") == pytest.approx(-SQ)


@pytest.mark.parametrize("bell", list(proto.BellState), ids=lambda b: b.value)
def test_bell_amplitudes_are_a_fresh_array_each_call(bell):
    amps = bell.amplitudes()
    expected = amps.copy()
    amps[:] = 0.0
    assert np.array_equal(bell.amplitudes(), expected)
    assert np.array_equal(bell.state().amps, expected)


@pytest.mark.parametrize(
    "label,member",
    [
        ("psi+", proto.BellState.PSI_PLUS),
        ("phi-", proto.BellState.PHI_MINUS),
        ("PSI_MINUS", proto.BellState.PSI_MINUS),
        ("PhiPlus", proto.BellState.PHI_PLUS),
    ],
)
def test_bell_state_labels(label, member):
    assert proto.BellState.from_label(label) is member


# ---------------------------------------------------------------------------
# the photon-spin gate
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "pol_in,spin,pol_out",
    [
        ("R", "Up", "R"),
        ("L", "Up", "L"),
        ("R", "Down", "L"),
        ("L", "Down", "R"),
    ],
)
def test_gate_truth_table(pol_in, spin, pol_out):
    photon = (1.0, 0.0) if pol_in == "R" else (0.0, 1.0)
    spin_amps = (1.0, 0.0) if spin == "Up" else (0.0, 1.0)
    res = proto.cnot(photon, spin_amps)
    assert res.success_probability == pytest.approx(1.0, abs=1e-12)
    assert res.fidelity == pytest.approx(1.0, abs=1e-12)
    assert abs(res.state.amplitude(spin, pol_out)) == pytest.approx(1.0, abs=1e-12)


def test_gate_output_phase_is_exactly_plus_one():
    # not merely equal up to phase: the interferometer returns the
    # controlled-flip with no residual global factor
    alpha, beta = 0.6, 0.8j
    gamma, delta = 0.6, -0.8
    res = proto.cnot((alpha, beta), (gamma, delta))
    expected = np.array(
        [gamma * alpha, gamma * beta, delta * beta, delta * alpha], dtype=complex
    )  # (spin, pol) row-major
    assert np.allclose(res.state.amps, expected, atol=1e-12)


def test_gate_entangles_photon_with_spin():
    res = proto.cnot((1.0, 0.0), (SQ, SQ))
    # (R↑ + L↓)/√2 out: maximal entanglement
    assert res.state.amplitude("Up", "R") == pytest.approx(SQ, abs=1e-12)
    assert res.state.amplitude("Down", "L") == pytest.approx(SQ, abs=1e-12)


def test_gate_matrix_is_the_controlled_flip():
    mat = proto.cnot_gate_matrix()
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0  # R↑ → R↑
    expected[3, 1] = 1.0  # R↓ → L↓
    expected[2, 2] = 1.0  # L↑ → L↑
    expected[1, 3] = 1.0  # L↓ → R↓
    assert np.allclose(mat, expected, atol=1e-12)
    assert np.allclose(mat @ mat, np.eye(4), atol=1e-12)


def test_gate_pipeline_matches_matrix_product_on_random_inputs():
    regs = (qs.spin(), qs.polarization(1), qs.path(1, proto.CNOT_PATHS))
    ops = plan_operators(
        proto.CNOT_PLAN, cav.InteractionModel.ideal(), pol=regs[1], path=regs[2], spin=regs[0]
    )
    total = np.eye(16, dtype=complex)
    for op in ops:
        total = full_matrix(op, regs) @ total
    rng = np.random.default_rng(17)
    for _ in range(10):
        amps = rng.normal(size=16) + 1j * rng.normal(size=16)
        amps /= np.linalg.norm(amps)
        s = qs.StateVector(regs, amps)
        stepwise = s
        for op in ops:
            stepwise = apply(op, stepwise)
        assert np.allclose(stepwise.amps, total @ amps, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(q2=st.floats(1e-6, 1.0), fp=st.floats(0.0, 1e3))
def test_lossy_gate_matrix_is_sub_unitary(q2, fp):
    # the ideal model's gate is the CNOT itself: test_gate_matrix_is_the_controlled_flip
    model = cav.InteractionModel.from_contrast(cav.ContrastParams(q2, fp))
    sigma = np.linalg.svd(proto.cnot_gate_matrix(model), compute_uv=False)
    assert sigma[0] <= 1.0 + 1e-12


def test_lossy_gate_matrix_structure(lossy_model):
    ut = lossy_model.uncoupled_transmit_amp
    ur = lossy_model.uncoupled_reflect_amp
    ct = lossy_model.coupled_transmit_amp
    cr = lossy_model.coupled_reflect_amp
    mat = proto.cnot_gate_matrix(lossy_model)
    expected = np.array(
        [
            [ut, 0, ur, 0],
            [0, ct, 0, cr],
            [ur, 0, ut, 0],
            [0, cr, 0, ct],
        ],
        dtype=complex,
    )
    assert np.allclose(mat, expected, atol=1e-12)


def test_lossy_gate_success_probability(lossy_model):
    res = proto.cnot((1.0, 0.0), (1.0, 0.0), lossy_model)
    ut = lossy_model.uncoupled_transmit_amp
    ur = lossy_model.uncoupled_reflect_amp
    assert res.success_probability == pytest.approx(ut * ut + ur * ur, abs=1e-12)
    # leakage rotates polarization inside the heralded branch
    assert res.fidelity == pytest.approx(ut * ut / (ut * ut + ur * ur), abs=1e-12)


def test_uniform_superposition_is_loss_immune(lossy_model):
    # the matched amplitudes obey ut + ur = ct + cr = 1, so the equal
    # superposition over (pol, spin) is a singular-value-1 mode of the
    # post-selected gate: it heralds with certainty and without error
    res = proto.cnot((SQ, SQ), (SQ, SQ), lossy_model)
    assert res.success_probability == pytest.approx(1.0, abs=1e-12)
    assert res.fidelity == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# the gate in closed form: the spin is a control
# ---------------------------------------------------------------------------

# every valid model: each branch's reflect + transmit stays within 1, and
# its r + t = 1 edge is drawn on its own
_branches = st.tuples(st.floats(0.0, 1.0), st.one_of(st.just(1.0), st.floats(0.0, 1.0)))
_valid_models = st.tuples(_branches, _branches).map(
    lambda b: cav.InteractionModel(b[0][0], (1.0 - b[0][0]) * b[0][1], b[1][0], (1.0 - b[1][0]) * b[1][1])
)


@settings(max_examples=100, deadline=None)
@given(model=_valid_models)
def test_gate_matches_its_closed_form(model):
    gate = proto.cnot_gate_matrix(model)
    assert np.abs(gate - gate_closed_form(model)).max() <= 1e-14
    # the blocks t·I + r·X have singular values t + r and |t − r|
    sigma_max = max(
        model.uncoupled_transmit_amp + model.uncoupled_reflect_amp,
        model.coupled_transmit_amp + model.coupled_reflect_amp,
    )
    assert np.linalg.svd(gate, compute_uv=False)[0] == pytest.approx(sigma_max, abs=1e-14)


@settings(max_examples=40, deadline=None)
@given(model=_valid_models)
def test_no_channel_ever_flips_the_spin(model):
    gate = proto.cnot_gate_matrix(model).reshape(2, 2, 2, 2)  # [p′, s′, p, s]
    assert not gate[:, 0, :, 1].any() and not gate[:, 1, :, 0].any()
    for plan, ports, entries in (
        (proto.CNOT_PLAN, proto.CNOT_PATHS, ("A", "D")),
        (proto.BSA_PLAN, proto.BSA_PATHS, ("In", "Refl")),
        (proto.SPIN_PREP_PLAN, ("In", "Refl", "Trans"), ("In", "Trans")),
    ):
        channel = choi_channel(plan, model, ports, entries)  # [s′, …, s, p, entry]
        assert not channel[0, ..., 1, :, :].any() and not channel[1, ..., 0, :, :].any()


# ---------------------------------------------------------------------------
# heralded spin preparation
# ---------------------------------------------------------------------------


def test_spin_prep_ideal_projects_spin():
    alpha, beta = 0.6, 0.8
    out = proto.conditional_spin_prep((alpha, beta))
    assert out["Refl"].success_probability == pytest.approx(alpha**2)
    assert out["Trans"].success_probability == pytest.approx(beta**2)
    assert out["Refl"].fidelity == pytest.approx(1.0)
    assert out["Trans"].fidelity == pytest.approx(1.0)
    assert abs(out["Refl"].state.amplitude("Up")) == pytest.approx(1.0)
    assert abs(out["Trans"].state.amplitude("Down")) == pytest.approx(1.0)


def _dense_spin_prep(spin_amps, model):
    """conditional_spin_prep on the full state: spin ⊗ R photon at In (and an
    Alive flag), SPIN_PREP_PLAN, then a collapse chain per detector port."""
    lossy = not model.is_lossless
    photon = basis_state(
        [qs.polarization(1), qs.path(1, ("In", "Refl", "Trans"))], ["R", "In"]
    )
    state = tensor(
        qs.StateVector((qs.spin(),), list(proto._normalize_pair(spin_amps))), photon
    )
    if lossy:
        state = tensor(state, basis_state([qs.loss_flag(1)], ["Alive"]))
    state = run_plan(state, proto.SPIN_PREP_PLAN, model, photon=1)
    out = {}
    for port, pol, target_amps in (("Refl", "L", [1.0, 0.0]), ("Trans", "R", [0.0, 1.0])):
        branch = collapse(state, (qs.RegisterKind.PATH, 1), port)
        if lossy:
            branch = collapse(branch, (qs.RegisterKind.LOSS_FLAG, 1), "Alive")
        prob = branch.norm_sq()
        if prob <= 1e-12:
            continue
        spin_state = collapse(
            branch.normalized(), (qs.RegisterKind.POLARIZATION, 1), pol
        ).normalized()
        target = qs.StateVector((qs.spin(),), target_amps)
        out[port] = proto.ProtocolResult(spin_state, prob, qs.fidelity(spin_state, target))
    return out


@pytest.mark.parametrize("spin", [(0.6, 0.8), (1.0, 0.0), (0.0, 1.0), (SQ, 1j * SQ)])
@pytest.mark.parametrize("lossy", [False, True], ids=["ideal", "lossy"])
def test_spin_prep_matches_dense_oracle(spin, lossy, lossy_model):
    model = lossy_model if lossy else cav.InteractionModel.ideal()
    fast = proto.conditional_spin_prep(spin, model)
    dense = _dense_spin_prep(spin, model)
    assert list(fast) == list(dense)
    for port in dense:
        _assert_same_result(fast[port], dense[port])


def test_spin_prep_lossy_leaks_the_wrong_spin(lossy_model):
    alpha, beta = 0.6, 0.8
    out = proto.conditional_spin_prep((alpha, beta), lossy_model)
    cr = lossy_model.coupled_reflect_amp
    ur = lossy_model.uncoupled_reflect_amp
    want = (alpha * cr) ** 2 / ((alpha * cr) ** 2 + (beta * ur) ** 2)
    assert out["Refl"].fidelity == pytest.approx(want, abs=1e-12)
    assert out["Refl"].success_probability == pytest.approx(
        (alpha * cr) ** 2 + (beta * ur) ** 2, abs=1e-12
    )


# ---------------------------------------------------------------------------
# entangler / GHZ
# ---------------------------------------------------------------------------


def test_two_photon_stream_matches_direct_algebra():
    p1, p2 = (0.6, 0.8), (0.8, 0.6j)
    res = proto.entangle_stream([p1, p2])
    assert res.success_probability == pytest.approx(1.0, abs=1e-12)
    assert res.fidelity == pytest.approx(1.0, abs=1e-12)
    # independent oracle: Up branch carries the photons unchanged, Down
    # branch carries them R/L-flipped
    up = SQ * np.kron(np.array(p1), np.array(p2))
    down = SQ * np.kron(np.array(p1)[::-1], np.array(p2)[::-1])
    expected = np.concatenate([up, down])  # (spin, pol1, pol2) row-major
    assert np.allclose(res.state.amps, expected, atol=1e-12)


def test_stream_spin_plus_branch_is_the_bell_mixture():
    # After the spin is read out along ±, the photon pair collapses to
    # (a1a2+b1b2)·φ⁺ + (a1b2+b1a2)·ψ⁺ (Plus) — the entangler's working output.
    a1, b1 = 0.6, 0.8
    a2, b2 = 0.8, 0.6j
    res = proto.entangle_stream([(a1, b1), (a2, b2)])
    state = change_basis(res.state, (qs.RegisterKind.SPIN, 0), "PlusMinus")
    plus = collapse(state, (qs.RegisterKind.SPIN, 0), "Plus")
    phi_plus_amp = inner(proto.BellState.PHI_PLUS.state(), plus)
    psi_plus_amp = inner(proto.BellState.PSI_PLUS.state(), plus)
    assert phi_plus_amp == pytest.approx(SQ * (a1 * a2 + b1 * b2), abs=1e-12)
    assert psi_plus_amp == pytest.approx(SQ * (a1 * b2 + b1 * a2), abs=1e-12)
    # and nothing leaks into the odd-parity (Minus-heralded) states
    assert inner(proto.BellState.PHI_MINUS.state(), plus) == pytest.approx(0.0, abs=1e-12)
    assert inner(proto.BellState.PSI_MINUS.state(), plus) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_ghz_ideal(n):
    out = proto.ghz(n)
    for name, sign in (("Plus", 1.0), ("Minus", -1.0)):
        res = out[name]
        assert res.success_probability == pytest.approx(0.5, abs=1e-12)
        assert res.fidelity == pytest.approx(1.0, abs=1e-12)
        assert res.state.amps[0] == pytest.approx(SQ, abs=1e-12)
        assert res.state.amps[-1] == pytest.approx(sign * SQ, abs=1e-12)
        assert np.count_nonzero(np.abs(res.state.amps) > 1e-12) == 2


def test_ghz_two_photons_gives_phi_pair():
    out = proto.ghz(2)
    assert qs.fidelity(out["Plus"].state, proto.BellState.PHI_PLUS.state()) == pytest.approx(1.0)
    assert qs.fidelity(out["Minus"].state, proto.BellState.PHI_MINUS.state()) == pytest.approx(1.0)


def test_ghz_lossy_success(lossy_model):
    n = 3
    out = proto.ghz(n, lossy_model)
    total = out["Plus"].success_probability + out["Minus"].success_probability
    ut, ur = lossy_model.uncoupled_transmit_amp, lossy_model.uncoupled_reflect_amp
    cr, ct = lossy_model.coupled_reflect_amp, lossy_model.coupled_transmit_amp
    want = ((ut**2 + ur**2) ** n + (cr**2 + ct**2) ** n) / 2.0
    assert total == pytest.approx(want, abs=1e-12)
    assert out["Plus"].fidelity < 1.0


def test_spin_phase_drift_twists_the_ghz_superposition():
    phi = 0.7
    out = proto.ghz(2, spin_phase_drift=phi)
    state = out["Plus"].state
    ratio = state.amps[-1] / state.amps[0]
    assert ratio == pytest.approx(np.exp(1j * phi), abs=1e-12)


def test_vanishing_herald_is_refused():
    dead = cav.InteractionModel(0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="vanishing"):
        proto.entangle_stream([(1, 0)], model=dead)
    with pytest.raises(ValueError, match="vanishing"):
        proto.ghz(3, dead)


def test_vanishing_ghz_herald_is_refused():
    # both spin states scatter R into (R + L)/2, so ψ[Up] = ψ[Down] and the
    # Minus herald never fires
    blind = cav.InteractionModel(0.5, 0.5, 0.5, 0.5)
    with pytest.raises(ValueError, match="Minus herald has vanishing"):
        proto.ghz(2, blind)


@pytest.mark.parametrize(
    "model",
    [
        cav.InteractionModel.ideal(),
        cav.InteractionModel.from_contrast(cav.ContrastParams(0.8, 6.0)),
        cav.InteractionModel.from_contrast(cav.ContrastParams(0.5, 2.0)),
        cav.InteractionModel(0.7, 0.2, 0.6, 0.3),
    ],
    ids=["ideal", "lossy", "poor", "generic"],
)
@pytest.mark.parametrize("drift", [0.0, 0.4])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12, 16])
def test_ghz_matches_its_closed_form(n, drift, model):
    out = proto.ghz(n, model, spin_phase_drift=drift)
    for name, (weight, fid) in ghz_closed_form(model, n, drift).items():
        assert out[name].success_probability == pytest.approx(weight, abs=1e-12)
        assert out[name].fidelity == pytest.approx(fid, abs=1e-12)


def test_tiny_herald_keeps_the_branches_normalized():
    # each photon heralds with probability 1e-18, so 18 photons weigh 1e-324,
    # below the smallest double: the per-photon scaling keeps the state
    out = proto.ghz(18, cav.InteractionModel(1e-9, 0.0, 1e-9, 0.0))
    for res in out.values():
        assert res.state.norm_sq() == pytest.approx(1.0, abs=1e-12)
        assert res.fidelity == pytest.approx(1.0, abs=1e-12)


def _no_build(*args, **kwargs):
    raise AssertionError("a channel was built")


def _refuse_builds(monkeypatch):
    """Make building any cavity block or optical element fail the test."""
    monkeypatch.setattr(cav, "pass_block", _no_build)
    monkeypatch.setattr(opt, "element", _no_build)


@pytest.mark.parametrize("pair", [(math.nan, 0.0), (1.0, math.inf), (complex(0.0, -math.inf), 1.0)])
def test_non_finite_amplitudes_are_refused_before_any_work(pair, monkeypatch):
    _refuse_builds(monkeypatch)
    for call in (
        lambda: proto.cnot(pair, (1.0, 0.0)),
        lambda: proto.cnot((1.0, 0.0), pair),
        lambda: proto.entangle_stream([(1.0, 0.0), pair]),
        lambda: proto.entangle_stream([(1.0, 0.0)], pair),
        lambda: proto.conditional_spin_prep(pair),
    ):
        with pytest.raises(ValueError, match=r"amplitude pair must be finite, got \(.*(nan|inf)"):
            call()


@pytest.mark.parametrize(
    "pair",
    [(), (1.0,), (1.0, 0.0, 3.0), "10", b"10", 1.0],
    ids=["0", "1", "3", "str", "bytes", "scalar"],
)
def test_amplitude_pairs_of_other_lengths_are_refused_before_any_work(pair, monkeypatch):
    _refuse_builds(monkeypatch)
    refused = f"^amplitude pair must be two amplitudes, got {re.escape(repr(pair))}$"
    for call in (
        lambda: proto.cnot(pair, (1.0, 0.0)),
        lambda: proto.cnot((1.0, 0.0), pair),
        lambda: proto.entangle_stream([(1.0, 0.0), pair]),
        lambda: proto.entangle_stream([(1.0, 0.0)], pair),
        lambda: proto.conditional_spin_prep(pair),
    ):
        with pytest.raises(ValueError, match=refused):
            call()


@pytest.mark.parametrize("n", [2.5, True, False, "3", None, 3.0], ids=repr)
def test_ghz_refuses_an_n_that_is_not_an_integer_before_any_work(n, monkeypatch):
    _refuse_builds(monkeypatch)
    with pytest.raises(ValueError, match=f"^n must be an integer, got {re.escape(repr(n))}$"):
        proto.ghz(n)


def test_ghz_takes_a_numpy_integer():
    for photons in (np.int64(3), np.int32(3), np.uint8(3)):
        out, want = proto.ghz(photons), proto.ghz(3)
        assert list(out) == list(want)
        for name in want:
            _assert_same_result(out[name], want[name])


def test_huge_and_subnormal_amplitude_pairs_are_normalized():
    # the last pair's norm, 1.2e308·√3, is itself past the largest double
    for pair, same in (
        ((1e308, 1e308), (1.0, 1.0)),
        ((1e-320, 0.0), (1.0, 0.0)),
        ((1.2e308 + 1.2e308j, 1.2e308), (1.0 + 1.0j, 1.0)),
    ):
        _assert_same_result(proto.cnot(pair, (1.0, 0.0)), proto.cnot(same, (1.0, 0.0)))
        _assert_same_result(
            proto.entangle_stream([pair, (0.6, 0.8)], pair),
            proto.entangle_stream([same, (0.6, 0.8)], same),
        )
        extreme, plain = proto.conditional_spin_prep(pair), proto.conditional_spin_prep(same)
        assert list(extreme) == list(plain)
        for port in plain:
            _assert_same_result(extreme[port], plain[port])
    with pytest.raises(ValueError, match="must not be zero"):
        proto.cnot((0.0, 0.0), (1.0, 0.0))


@pytest.mark.parametrize("drift", [math.nan, math.inf, -math.inf])
def test_non_finite_drift_is_refused_before_any_work(drift, monkeypatch):
    _refuse_builds(monkeypatch)
    with pytest.raises(ValueError, match="spin_phase_drift"):
        proto.entangle_stream([(1.0, 0.0)], spin_phase_drift=drift)
    with pytest.raises(ValueError, match="spin_phase_drift"):
        proto.ghz(3, spin_phase_drift=drift)


def test_stream_rejects_empty_input():
    with pytest.raises(ValueError):
        proto.entangle_stream([])


def test_stream_over_the_state_budget_is_refused():
    with pytest.raises(ValueError, match=r"2\^26 amplitudes"):
        proto.ghz(25)
    # refused before anything of size n: a list of n inputs alone would take 80 MiB
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"2\^10000001 amplitudes"):
            proto.ghz(10**7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20


# ---------------------------------------------------------------------------
# the stream against the dense per-photon oracle
# ---------------------------------------------------------------------------


def _dense_stream(photon_amps, spin_amps, model, spin_phase_drift=0.0):
    """The stream with each photon's path and loss flag in the state: tensor
    them in, run CNOT_PLAN, post-select the alive branch at D, renormalize."""
    spin_amps = proto._normalize_pair(spin_amps)
    amps = [proto._normalize_pair(p) for p in photon_amps]
    z = qs.Operator((qs.spin(),), np.diag([1.0, np.exp(1j * spin_phase_drift)]))
    state = qs.StateVector((qs.spin(),), list(spin_amps))
    up = qs.StateVector((qs.spin(),), [spin_amps[0], 0.0])
    down = qs.StateVector((qs.spin(),), [0.0, spin_amps[1]])
    success = 1.0
    for k, (a, b) in enumerate(amps, start=1):
        if k > 1:
            state = apply(z, state)
        photon = tensor(
            qs.StateVector((qs.polarization(k),), [a, b]),
            basis_state([qs.path(k, proto.CNOT_PATHS)], ["A"]),
        )
        if not model.is_lossless:
            photon = tensor(photon, basis_state([qs.loss_flag(k)], ["Alive"]))
        state = run_plan(tensor(state, photon), proto.CNOT_PLAN, model, photon=k)
        before = state.norm_sq()
        state = collapse(state, (qs.RegisterKind.PATH, k), "D")
        if not model.is_lossless:
            state = collapse(state, (qs.RegisterKind.LOSS_FLAG, k), "Alive")
        prob = state.norm_sq() / before
        success *= prob
        state = qs.StateVector(state.registers, state.amps / math.sqrt(prob))
        up = tensor(up, qs.StateVector((qs.polarization(k),), [a, b]))
        down = tensor(down, qs.StateVector((qs.polarization(k),), [b, a]))
    if spin_phase_drift == 0.0:
        fid = qs.fidelity(state, qs.StateVector(up.registers, up.amps + down.amps))
    else:
        fid = float("nan")
    return proto.ProtocolResult(state, success, fid)


def _assert_same_result(fast, dense):
    assert fast.state.registers == dense.state.registers
    assert np.abs(fast.state.amps - dense.state.amps).max() <= 1e-12
    assert fast.success_probability == pytest.approx(dense.success_probability, abs=1e-12)
    if math.isnan(dense.fidelity):
        assert math.isnan(fast.fidelity)
    else:
        assert fast.fidelity == pytest.approx(dense.fidelity, abs=1e-12)


_unit = st.floats(-1.0, 1.0)
_pairs = st.tuples(_unit, _unit, _unit, _unit).filter(
    lambda v: math.hypot(*v) > 0.1
).map(lambda v: (complex(v[0], v[1]), complex(v[2], v[3])))
# F_P > 1 keeps the coupled branch's R/L block away from singular (ct < ½),
# and (Q/Q0)² ≥ 0.3 the uncoupled one (ut > ½), so no herald nearly vanishes
_models = st.one_of(
    st.just(cav.InteractionModel.ideal()),
    st.builds(
        lambda q2, fp: cav.InteractionModel.from_contrast(cav.ContrastParams(q2, fp)),
        st.floats(0.3, 1.0),
        st.floats(1.5, 30.0),
    ),
)


@settings(max_examples=60, deadline=None)
@given(
    photons=st.lists(_pairs, min_size=1, max_size=8),
    spin=_pairs,
    model=_models,
    drift=st.one_of(st.just(0.0), st.floats(0.01, 2.0 * math.pi)),
)
def test_stream_matches_dense_oracle(photons, spin, model, drift):
    fast = proto.entangle_stream(photons, spin, model, spin_phase_drift=drift)
    _assert_same_result(fast, _dense_stream(photons, spin, model, drift))


@pytest.mark.parametrize("lossy", [False, True], ids=["ideal", "lossy"])
def test_ghz12_stream_matches_dense_oracle(lossy, lossy_model):
    model = lossy_model if lossy else cav.InteractionModel.ideal()
    photons = [(1.0, 0.0)] * 12
    _assert_same_result(
        proto.entangle_stream(photons, (SQ, SQ), model), _dense_stream(photons, (SQ, SQ), model)
    )
    out = proto.ghz(12, model)
    ut, ur = model.uncoupled_transmit_amp, model.uncoupled_reflect_amp
    cr, ct = model.coupled_reflect_amp, model.coupled_transmit_amp
    want = ((ut**2 + ur**2) ** 12 + (cr**2 + ct**2) ** 12) / 2.0
    total = out["Plus"].success_probability + out["Minus"].success_probability
    assert total == pytest.approx(want, abs=1e-12)


def _dense_ghz(n, model, spin_phase_drift=0.0):
    """ghz the generic way: the dense stream, the spin turned to the ± basis,
    each branch collapsed out and compared with a dense GHZ± state."""
    stream = _dense_stream([(1.0, 0.0)] * n, (SQ, SQ), model, spin_phase_drift)
    state = change_basis(stream.state, (qs.RegisterKind.SPIN, 0), "PlusMinus")
    out = {}
    for name, sign in (("Plus", 1.0), ("Minus", -1.0)):
        branch = collapse(state, (qs.RegisterKind.SPIN, 0), name)
        target_amps = np.zeros(2**n, dtype=complex)
        target_amps[0] = SQ
        target_amps[-1] = sign * SQ
        target = qs.StateVector(branch.registers, target_amps)
        out[name] = proto.ProtocolResult(
            branch.normalized(),
            stream.success_probability * branch.norm_sq(),
            qs.fidelity(branch, target),
        )
    return out


@pytest.mark.parametrize("drift", [0.0, 0.4])
@pytest.mark.parametrize("lossy", [False, True], ids=["ideal", "lossy"])
@pytest.mark.parametrize("n", [1, 2, 5, 12])
def test_ghz_matches_dense_oracle(n, lossy, drift, lossy_model):
    model = lossy_model if lossy else cav.InteractionModel.ideal()
    fast = proto.ghz(n, model, spin_phase_drift=drift)
    dense = _dense_ghz(n, model, drift)
    assert list(fast) == list(dense)
    for name in dense:
        _assert_same_result(fast[name], dense[name])


@settings(max_examples=150, deadline=None)
@given(model=_valid_models, n=st.integers(1, 10), drift=st.sampled_from([0.0, 0.4]))
def test_ghz_branches_match_the_dense_formation(model, n, drift):
    try:
        dense = dense_ghz_branches(model, n, drift)
    except ValueError as err:
        with pytest.raises(ValueError, match=re.escape(str(err))):
            proto.ghz(n, model, spin_phase_drift=drift)
        return
    fast = proto.ghz(n, model, spin_phase_drift=drift)
    assert list(fast) == list(dense)
    for name, (want, share) in dense.items():
        got = fast[name]
        # a branch of share w of the stream is formed to a few ulps of the
        # stream and then scaled by 1/√w, so near the refusal (w ≈ ATOL) any
        # two formations part by up to ~1e-16/√w, and both sit that far from
        # a 50-digit reference; the bound allows ten times that, and is
        # 1e-12 for w ≥ 1e-6
        tol = max(1e-12, 1e-15 / math.sqrt(share))
        assert got.state.registers == want.state.registers
        assert np.abs(got.state.amps - want.state.amps).max() <= tol
        assert got.success_probability == pytest.approx(want.success_probability, abs=1e-12)
        if math.isnan(want.fidelity):
            assert math.isnan(got.fidelity)
        else:
            assert got.fidelity == pytest.approx(want.fidelity, abs=2.0 * tol)


def test_ghz_builds_no_stream_sized_array(lossy_model):
    # both branches in one array, 2 branch sizes, and the finite check of
    # one, an eighth more; a (2, 2ⁿ) stream or a copy of a branch is more
    tracemalloc.start()
    try:
        proto.ghz(14, lossy_model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 16 * 2**14


@pytest.mark.parametrize("lossy", [False, True], ids=["ideal", "lossy"])
def test_ghz_branches_are_read_only_rows_of_one_array(lossy, lossy_model):
    out = proto.ghz(6, lossy_model if lossy else cav.InteractionModel.ideal())
    plus, minus = out["Plus"].state.amps, out["Minus"].state.amps
    assert not plus.flags.writeable and not minus.flags.writeable
    assert plus.base is not None and plus.base is minus.base
    rows = plus.base.reshape(2, 2**6)
    assert np.shares_memory(plus, rows[0]) and np.shares_memory(minus, rows[1])


def test_entangle_stream_writes_its_state_once(lossy_model):
    # the outer product of the two factors, its finite check (an eighth of
    # it) and numpy's fixed 256 KiB buffer for the broadcast product, a half
    # at this size; a copy of the state is one more
    tracemalloc.start()
    try:
        res = proto.entangle_stream([(1.0, 0.0)] * 14, model=lossy_model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.state.amps.nbytes == 16 * 2**15
    assert peak <= 1.75 * res.state.amps.nbytes


# ---------------------------------------------------------------------------
# Bell-state analyzer
# ---------------------------------------------------------------------------

# Frozen detection-pattern table: (bell state, spin result) → (same port?, same H/V?)
PATTERNS = {
    (proto.BellState.PSI_PLUS, "Plus"): (True, True),
    (proto.BellState.PSI_PLUS, "Minus"): (False, False),
    (proto.BellState.PSI_MINUS, "Plus"): (True, False),
    (proto.BellState.PSI_MINUS, "Minus"): (False, True),
    (proto.BellState.PHI_PLUS, "Plus"): (False, True),
    (proto.BellState.PHI_PLUS, "Minus"): (True, False),
    (proto.BellState.PHI_MINUS, "Plus"): (False, False),
    (proto.BellState.PHI_MINUS, "Minus"): (True, True),
}


def expected_records(bell):
    recs = set()
    for spin in ("Plus", "Minus"):
        same_port, same_pol = PATTERNS[(bell, spin)]
        for port1, pol1 in itertools.product(("C", "D"), ("H", "V")):
            port2 = port1 if same_port else ("D" if port1 == "C" else "C")
            pol2 = pol1 if same_pol else ("V" if pol1 == "H" else "H")
            recs.add(
                meas.OutcomeRecord(
                    photons=(
                        (1, meas.PhotonOutcome(port=port1, pol=pol1)),
                        (2, meas.PhotonOutcome(port=port2, pol=pol2)),
                    ),
                    spin=spin,
                )
            )
    return recs


@pytest.mark.parametrize("bell", list(proto.BellState), ids=lambda b: b.value)
def test_analyzer_distinguishes_all_four_bell_states(bell):
    result = proto.bsa(bell.state())
    assert result.success_probability == pytest.approx(1.0, abs=1e-12)
    assert set(result.distribution) == expected_records(bell)
    for record, p in result.distribution.items():
        assert p == pytest.approx(0.125, abs=1e-12)
        assert proto.classify_outcome(record) is bell


def test_analyzer_on_superposition_input():
    # an even mixture of φ⁺ and ψ⁺ patterns shows up with half weight each
    amps = (proto.BellState.PHI_PLUS.amplitudes() + proto.BellState.PSI_PLUS.amplitudes()) * SQ
    state = qs.StateVector((qs.polarization(1), qs.polarization(2)), amps)
    result = proto.bsa(state)
    assert result.success_probability == pytest.approx(1.0, abs=1e-12)
    by_class = {}
    for rec, p in result.distribution.items():
        cls = proto.classify_outcome(rec)
        by_class[cls] = by_class.get(cls, 0.0) + p
    assert by_class[proto.BellState.PHI_PLUS] == pytest.approx(0.5, abs=1e-12)
    assert by_class[proto.BellState.PSI_PLUS] == pytest.approx(0.5, abs=1e-12)


def test_analyzer_with_losses_still_mostly_classifies_right(lossy_model):
    result = proto.bsa(proto.BellState.PSI_PLUS.state(), lossy_model)
    assert result.success_probability < 1.0
    right = sum(
        p
        for rec, p in result.distribution.items()
        if proto.classify_outcome(rec) is proto.BellState.PSI_PLUS
    )
    assert right > 0.9  # leakage misclassifies only a small tail


def test_classify_requires_coincidences():
    record = meas.OutcomeRecord(
        photons=((1, meas.PhotonOutcome(lost=True)), (2, meas.PhotonOutcome(port="C", pol="H"))),
        spin="Plus",
    )
    with pytest.raises(ValueError, match="coincidence"):
        proto.classify_outcome(record)


def test_analyzer_refuses_a_linear_polarization_register():
    # H/V amplitudes are not R/L amplitudes: the optics would misread them
    state = qs.StateVector(
        (qs.polarization(1), qs.polarization(2, qs.HV)), proto.BellState.PSI_PLUS.amplitudes()
    )
    for analyzer in (proto.bsa, proto.bsa_state):
        with pytest.raises(ValueError, match=r"circular \(R/L\)"):
            analyzer(state)


def _dense_bsa_state(two_photon_pol, model):
    """The analyzer on the full state: spin ⊗ input ⊗ each photon's path at In
    (and an Alive flag), then BSA_PLAN step by step for each photon in id order."""
    pol_ids = sorted(r.id for r in two_photon_pol.registers)
    state = tensor(qs.StateVector((qs.spin(),), [SQ, SQ]), two_photon_pol)
    for pid in pol_ids:
        state = tensor(state, basis_state([qs.path(pid, proto.BSA_PATHS)], ["In"]))
        if not model.is_lossless:
            state = tensor(state, basis_state([qs.loss_flag(pid)], ["Alive"]))
    for pid in pol_ids:
        state = run_plan(state, proto.BSA_PLAN, model, pid)
    return state


def _analyzer_input(case):
    if case in ("random", "ids 5, 2"):
        rng = np.random.default_rng(29)
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        ids = (1, 2) if case == "random" else (5, 2)
        return qs.StateVector(
            (qs.polarization(ids[0]), qs.polarization(ids[1])), amps / np.linalg.norm(amps)
        )
    return proto.BellState.from_label(case).state()


@pytest.mark.parametrize("lossy", [False, True], ids=["ideal", "lossy"])
@pytest.mark.parametrize("case", ["psi+", "psi-", "phi+", "phi-", "random", "ids 5, 2"])
def test_bsa_state_matches_dense_oracle(case, lossy, lossy_model):
    model = lossy_model if lossy else cav.InteractionModel.ideal()
    state = _analyzer_input(case)
    fast = proto.bsa_state(state, model)
    # registers (spin, pol, path[, flag]) per photon, in ascending id order
    ids = sorted(r.id for r in state.registers)
    keys = [(qs.RegisterKind.SPIN, 0)]
    for pid in ids:
        keys += [(qs.RegisterKind.POLARIZATION, pid), (qs.RegisterKind.PATH, pid)]
        keys += [(qs.RegisterKind.LOSS_FLAG, pid)] if lossy else []
    assert [r.key for r in fast.registers] == keys
    dense = qs.reorder(_dense_bsa_state(state, model), keys)
    assert fast.registers == dense.registers
    assert np.abs(fast.amps - dense.amps).max() <= 1e-12


@pytest.mark.parametrize("lossy", [False, True], ids=["ideal", "lossy"])
@pytest.mark.parametrize("bell", list(proto.BellState), ids=lambda b: b.value)
def test_bsa_matches_the_filtered_entrywise_enumeration(bell, lossy, lossy_model):
    model = lossy_model if lossy else cav.InteractionModel.ideal()
    res = proto.bsa(bell.state(), model)
    bases = meas.MeasurementBases(pol={1: "HV", 2: "HV"}, ports={1, 2}, spin="PlusMinus")
    kept = {
        rec: p
        for rec, p in outcomes_by_entry(res.state, bases).items()
        if all(not out.lost and out.port in ("C", "D") for _, out in rec.photons)
    }
    success = sum(kept.values())
    assert abs(res.success_probability - success) <= 1e-15
    assert list(res.distribution) == list(kept)
    for rec, p in kept.items():
        assert abs(res.distribution[rec] - p / success) <= 1e-15


@settings(max_examples=150, deadline=None)
@given(model=_valid_models, ids=st.sampled_from([(1, 2), (5, 2)]), seed=st.integers(0, 2**32 - 1))
def test_bsa_matches_the_enumerated_coincidence_slice(model, ids, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    regs = (qs.polarization(ids[0]), qs.polarization(ids[1]))
    state = qs.StateVector(regs, amps / np.linalg.norm(amps))
    try:
        want, success = bsa_by_enumeration(proto.bsa_state(state, model))
    except ValueError:  # nothing reaches both detectors
        with pytest.raises(ValueError, match="no coincidence"):
            proto.bsa(state, model)
        return
    got = proto.bsa(state, model)
    assert abs(got.success_probability - success) <= 1e-15
    assert list(got.distribution) == list(want)
    for rec, p in want.items():
        assert abs(got.distribution[rec] - p) <= 1e-15


def test_bsa_rejects_non_two_photon_input():
    single = basis_state([qs.polarization(1)], ["R"])
    with pytest.raises(ValueError):
        proto.bsa(single)


# ---------------------------------------------------------------------------
# the analyzer detects in its blocks and builds its state on first read


def _fail(*args, **kwargs):
    raise AssertionError("the whole analyzer train was run")


def _analyzer_inputs():
    return [_analyzer_input(case) for case in ("psi+", "psi-", "phi+", "phi-", "random", "ids 5, 2")]


@pytest.mark.parametrize("lossy", [False, True], ids=["ideal", "lossy"])
def test_bsa_detects_without_the_whole_train(lossy, lossy_model, monkeypatch):
    model = lossy_model if lossy else cav.InteractionModel.ideal()
    wanted = [bsa_by_states(state, model) for state in _analyzer_inputs()]
    monkeypatch.setattr(proto, "run_photons", _fail)
    monkeypatch.setattr(proto, "bsa_state", _fail)
    for state, want in zip(_analyzer_inputs(), wanted):
        got = proto.bsa(state, model)
        assert got.success_probability == want.success_probability
        assert list(got.distribution.items()) == list(want.distribution.items())


@pytest.mark.parametrize("lossy", [False, True], ids=["ideal", "lossy"])
def test_bsa_builds_its_state_on_first_read_and_keeps_it(lossy, lossy_model, monkeypatch):
    model = lossy_model if lossy else None
    built = []
    bsa_state = proto.bsa_state

    def counting_bsa_state(two_photon_pol, model=None):
        built.append(two_photon_pol)
        return bsa_state(two_photon_pol, model)

    monkeypatch.setattr(proto, "bsa_state", counting_bsa_state)
    for state in _analyzer_inputs():
        built.clear()
        result = proto.bsa(state, model)
        assert built == []
        first = result.state
        assert built == [state]
        assert result.state is first and len(built) == 1
        _assert_same_state(first, bsa_state(state, model))
        assert "_input" not in repr(result) and "_model" not in repr(result)


@pytest.mark.parametrize("analyzer", [proto.bsa, proto.bsa_state], ids=["bsa", "bsa_state"])
def test_analyzer_refuses_bad_input_before_any_build(analyzer, monkeypatch):
    _refuse_builds(monkeypatch)
    fresh = cav.InteractionModel.from_contrast(cav.ContrastParams(0.5, 3.0))
    two, lin = "^analyzer input must be a two-photon polarization state$", r"^optics .* \(R/L\) basis$"
    cases = [
        ((qs.polarization(1),), [1.0, 0.0], two),
        ((qs.polarization(1), qs.spin()), [1.0, 0.0, 0.0, 0.0], two),
        # both faults: the register count is checked first
        ((qs.polarization(1, qs.HV), qs.polarization(2), qs.polarization(3)), [1.0] + [0.0] * 7, two),
        ((qs.polarization(1, qs.HV), qs.spin()), [1.0, 0.0, 0.0, 0.0], two),
        ((qs.polarization(1), qs.polarization(2, qs.HV)), [1.0, 0.0, 0.0, 0.0], lin),
    ]
    for registers, amps, message in cases:
        for model in (fresh, None):
            with pytest.raises(ValueError, match=message):
                analyzer(qs.StateVector(registers, amps), model)
    assert fresh._channels == {}


@pytest.mark.parametrize("lossy", [False, True], ids=["ideal", "lossy"])
def test_detector_block_is_the_alive_detector_rows_kept_read_only(lossy, lossy_model):
    model = lossy_model if lossy else cav.InteractionModel.ideal()
    cut = proto._spin_blocks(proto.BSA_PLAN, model, proto.BSA_PATHS, ("In",), ("C", "D"))
    assert proto._spin_blocks(proto.BSA_PLAN, model, proto.BSA_PATHS, ("In",), ("C", "D")) is cut
    block = cut[0]
    flag = ("Alive",) if lossy else ()
    rows = proto._mode_rows(
        proto.BSA_PATHS, [(pol, port, *flag) for pol in qs.RL for port in ("C", "D")]
    )
    blocks = proto._spin_blocks(proto.BSA_PLAN, model, proto.BSA_PATHS, ("In",))[0]
    assert block.shape == (2, 4, 2)
    assert np.array_equal(block, blocks[:, rows, :])
    assert not block.flags.writeable
    with pytest.raises(ValueError):
        block[0, 0, 0] = 1.0


# ---------------------------------------------------------------------------
# the photon's spin blocks: entry ports and the per-model memo
# ---------------------------------------------------------------------------

_PLANS = {
    "cnot": (proto.CNOT_PLAN, proto.CNOT_PATHS),
    "bsa": (proto.BSA_PLAN, proto.BSA_PATHS),
    "spin-prep": (proto.SPIN_PREP_PLAN, ("In", "Refl", "Trans")),
}


def _compiled_plan(source):
    comp = compile_circuit(parse(source))
    return comp.plan, comp.ports


# the protocols' plans and every compiled circuit: these add cpbs3, hwp and
# an in-place bs, which no protocol plan has
_ALL_PLANS = {
    **_PLANS,
    **{path.name: _compiled_plan(path.read_text()) for path in sorted(VALID.glob("*.qc"))},
    **{f"bundled {name}": _compiled_plan(circuits.load(name)) for name in circuits.names()},
}


@pytest.mark.parametrize("lossy", [False, True], ids=["ideal", "lossy"])
@pytest.mark.parametrize("name", list(_PLANS))
def test_entry_port_channel_matches_the_all_port_oracle(name, lossy, lossy_model):
    plan, ports = _PLANS[name]
    model = lossy_model if lossy else cav.InteractionModel.ideal()
    # the plan run once on a Choi input over every port, as one labelled state
    oracle = choi_channel(plan, model, ports, ports)  # [s′, out…, s, p, entry]
    out_dim = math.prod(oracle.shape[1:-3])
    oracle = oracle.reshape(2, out_dim, 2, 2, len(ports))
    diagonal = np.stack([oracle[s, :, s] for s in range(2)])  # [s, out, p, entry]
    for k in range(1, len(ports) + 1):
        for subset in itertools.combinations(ports, k):
            for in_ports in {subset, subset[::-1]}:
                blocks = proto._spin_blocks(plan, model, ports, in_ports)
                cols = diagonal[..., [ports.index(p) for p in in_ports]].transpose(3, 0, 1, 2)
                assert blocks.shape == cols.shape
                assert np.abs(blocks - cols).max() <= 1e-15


def _choi_blocks(plan, model, ports, in_ports):
    """K[entry, s, out, p] read off the plan run once on a Choi input over
    the entry ports, as one labelled state built from the dense builders."""
    oracle = choi_channel(plan, model, ports, in_ports)  # [s′, out…, s, p, entry]
    out_dim = math.prod(oracle.shape[1:-3])
    oracle = oracle.reshape(2, out_dim, 2, 2, len(in_ports))
    return np.stack([oracle[s, :, s] for s in range(2)]).transpose(3, 0, 1, 2)


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(list(_ALL_PLANS)), model=_valid_models, data=st.data())
def test_spin_blocks_match_the_choi_oracle(name, model, data):
    plan, ports = _ALL_PLANS[name]
    subset = data.draw(st.lists(st.sampled_from(ports), min_size=1, unique=True), label="entries")
    for in_ports in (subset, subset[::-1]):
        want = _choi_blocks(plan, model, ports, in_ports)
        blocks = proto._spin_blocks(plan, model, ports, in_ports)
        assert blocks.shape == want.shape
        assert np.abs(blocks - want).max() <= 1e-15


_FIVE_PORTS = ("A", "B", "C", "D", "E")


@st.composite
def _optical_steps(draw):
    op = draw(st.sampled_from(("cpbs3", "cpbs4", "bs", "mirror", "hwp", "phase")))
    ports = draw(st.permutations(_FIVE_PORTS))
    if op == "bs" and draw(st.booleans(), label="in place"):
        return ("bs", (*ports[:2], *ports[:2]), 0.0)
    size = {"cpbs3": 3, "cpbs4": 4, "bs": 4}.get(op, 1)
    angle = 0.0
    if op in ("hwp", "phase"):
        angle = draw(st.floats(-4 * math.pi, 4 * math.pi), label="angle")
    return (op, tuple(ports[:size]), angle)


@st.composite
def _plans(draw):
    """1–6 optical steps and at most one cavity pass, anywhere among them."""
    plan = draw(st.lists(_optical_steps(), min_size=1, max_size=6))
    cavity = draw(st.sampled_from((None, "scatter", "loop_cavity")))
    if cavity is not None:
        ports = draw(st.permutations(_FIVE_PORTS))
        step = (cavity, tuple(ports[: 3 if cavity == "scatter" else 2]), 0.0)
        plan.insert(draw(st.integers(0, len(plan)), label="cavity at"), step)
    return tuple(plan)


@settings(max_examples=150, deadline=None)
@given(
    plan=_plans(),
    model=st.one_of(st.just(cav.InteractionModel.ideal()), _valid_models),
    data=st.data(),
)
def test_spin_blocks_of_arbitrary_plans_match_the_dense_builders(plan, model, data):
    # the frame takes the columns through the optics before the pass and
    # folds the optics after it into one matrix; the oracle runs every step
    entries = st.lists(st.sampled_from(_FIVE_PORTS), min_size=1, max_size=2, unique=True)
    in_ports = tuple(data.draw(entries, label="entries"))
    want = _choi_blocks(plan, model, _FIVE_PORTS, in_ports)
    blocks = proto._spin_blocks(plan, model, _FIVE_PORTS, in_ports)
    assert blocks.shape == want.shape
    assert np.abs(blocks - want).max() <= 1e-12


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(list(_PLANS)), model=_valid_models, data=st.data())
def test_block_pass_matches_the_transpose_oracle(name, model, data):
    plan, ports = _PLANS[name]
    n = data.draw(st.integers(0, 3), label="photons")
    entries = st.lists(st.sampled_from(ports), min_size=n, max_size=n)
    in_ports = tuple(data.draw(entries, label="entries"))
    photon_ids = tuple(data.draw(st.permutations(range(1, n + 1)), label="ids"))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    pols = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    spin_amps = rng.normal(size=2) + 1j * rng.normal(size=2)
    pols /= np.linalg.norm(pols)
    spin_amps /= np.linalg.norm(spin_amps)
    args = (spin_amps, pols.reshape((2,) * n), photon_ids, in_ports, plan, model, ports)
    got = proto.run_photons(*args)
    want = run_photons_by_transpose(*args)
    assert got.registers == want.registers
    assert np.abs(got.amps - want.amps).max() <= 1e-15


@pytest.mark.parametrize("lossy", [False, True], ids=["ideal", "lossy"])
@pytest.mark.parametrize("name", list(_PLANS))
def test_zero_photons_leave_the_spin_state(name, lossy, lossy_model):
    plan, ports = _PLANS[name]
    model = lossy_model if lossy else cav.InteractionModel.ideal()
    state = proto.run_photons((0.6, 0.8j), [1j], (), (), plan, model, ports)
    assert state.registers == (qs.spin(),)
    assert np.array_equal(state.amps, [0.6j, -0.8])


@pytest.mark.parametrize("lossy", [False, True], ids=["ideal", "lossy"])
def test_run_photons_holds_the_result_and_the_last_input(lossy, lossy_model):
    # each pass writes one fresh array in register order, so the peak is the
    # result and the last pass's input: 2/d of the result for d output modes
    # a photon, a sixth lossy (d = 12) and a third ideal (d = 6); a copy of
    # the state around a pass is one more
    model = lossy_model if lossy else cav.InteractionModel.ideal()
    ports = _PLANS["spin-prep"][1]
    pols = np.zeros(2**6)
    pols[0] = 1.0
    args = ((0.6, 0.8), pols, range(1, 7), ("In",) * 6, proto.SPIN_PREP_PLAN, model, ports)
    proto.run_photons(*args)  # the blocks, once per model
    tracemalloc.start()
    try:
        state = proto.run_photons(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert state.dim == 2 * (12 if lossy else 6) ** 6
    assert peak <= 1.5 * state.amps.nbytes


@pytest.mark.parametrize("lossy", [False, True], ids=["ideal", "lossy"])
def test_channel_is_kept_on_the_model_read_only(lossy, lossy_model):
    model = lossy_model if lossy else cav.InteractionModel.ideal()
    first = proto._spin_blocks(proto.CNOT_PLAN, model, proto.CNOT_PATHS, ("A",))
    assert proto._spin_blocks(proto.CNOT_PLAN, model, list(proto.CNOT_PATHS), ["A"]) is first
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0] = 1.0
    other = proto._spin_blocks(proto.CNOT_PLAN, model, proto.CNOT_PATHS, ("A", "D"))
    assert other is not first


def _loss_point(model):
    """One point of the loss analysis through every protocol."""
    proto.cnot_gate_matrix(model)
    proto.cnot((1.0, 0.0), (0.6, 0.8), model)
    for bell in proto.BellState:
        proto.bsa(bell.state(), model)
    proto.conditional_spin_prep((0.6, 0.8j), model)
    proto.ghz(4, model)


def _steps(plan, cavity):
    return tuple(step for step in plan if (step[0] in ("scatter", "loop_cavity")) == cavity)


def test_each_channel_is_built_once_per_model(lossy_model, monkeypatch):
    blocks, elements = [], []
    pass_block, element = cav.pass_block, opt.element

    def counting_block(model, op):
        blocks.append((op, model))
        return pass_block(model, op)

    def counting_element(*step):
        elements.append(step)
        return element(*step)

    monkeypatch.setattr(cav, "pass_block", counting_block)
    monkeypatch.setattr(opt, "element", counting_element)
    proto._frame.cache_clear()
    plans = [proto.CNOT_PLAN, proto.BSA_PLAN, proto.SPIN_PREP_PLAN]

    def distinct(cavity):
        return sorted(step for plan in plans for step in dict.fromkeys(_steps(plan, cavity)))

    lossy_fresh = cav.InteractionModel.from_contrast(cav.ContrastParams(0.5, 2.0))
    ideal = cav.InteractionModel.ideal
    for model, fresh in ((lossy_model, lossy_fresh), (ideal(), ideal())):
        blocks.clear()
        elements.clear()
        _loss_point(model)
        # one frame per (plan, ports, entries, lossy) builds each of its
        # distinct optical steps once; the model builds one block per cavity step
        assert sorted(elements) == distinct(cavity=False)
        assert sorted(op for op, used in blocks if used is model) == [
            step[0] for step in distinct(cavity=True)
        ]
        # a fresh model builds its 3 cavity blocks and no frame, a warm one nothing
        for again, built in ((fresh, [fresh] * 3), (model, [])):
            blocks.clear()
            elements.clear()
            _loss_point(again)
            assert [used for _, used in blocks] == built and elements == []
    assert proto._frame.cache_info().currsize == 6
    # an equal model built apart keeps its own channels
    blocks.clear()
    proto.cnot_gate_matrix(cav.InteractionModel.from_contrast(cav.ContrastParams(0.8, 6.0)))
    assert len(blocks) == 1


def test_model_less_calls_share_one_ideal_model(monkeypatch):
    shared = cav.InteractionModel.ideal()
    monkeypatch.setattr(proto, "_IDEAL", shared)
    built = []
    pass_block = cav.pass_block

    def counting_block(model, op):
        built.append((op, model))
        return pass_block(model, op)

    monkeypatch.setattr(cav, "pass_block", counting_block)
    for _ in range(2):
        proto.cnot_gate_matrix()
        proto.bsa(proto.BellState.PSI_PLUS.state())
    # one build per plan, both on the one shared model
    assert [op for op, _ in built] == ["loop_cavity", "scatter"]
    assert all(model is shared for _, model in built)


def test_cavity_passes_build_only_their_two_spin_blocks():
    # with the frames warm, a fresh lossy model's blocks of each plan are
    # built in less than one (spin ⊗ out)² matrix: each cavity pass is only
    # its two diagonal spin blocks, half of one (measured peaks 0.65–0.79 of
    # it; the full (spin ⊗ out) build, copied, took 2.2–2.4)
    plans = [
        (proto.CNOT_PLAN, proto.CNOT_PATHS, ("A",)),
        (proto.BSA_PLAN, proto.BSA_PATHS, ("In",)),
        (proto.SPIN_PREP_PLAN, ("In", "Refl", "Trans"), ("In",)),
    ]

    def fresh():
        return cav.InteractionModel.from_contrast(cav.ContrastParams(0.8, 6.0))

    warm = fresh()
    for plan, ports, entries in plans:
        proto._spin_blocks(plan, warm, ports, entries)
    for plan, ports, entries in plans:
        model = fresh()
        tracemalloc.start()
        try:
            proto._spin_blocks(plan, model, ports, entries)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        out = 2 * len(ports) * 2  # pol′ × path′ × flag′
        assert peak < (2 * out) ** 2 * 16  # one complex (spin ⊗ out)² matrix


@pytest.mark.parametrize("lossy", [False, True], ids=["ideal", "lossy"])
@pytest.mark.parametrize("name", list(_PLANS))
def test_frames_are_kept_read_only(name, lossy):
    plan, ports = _PLANS[name]
    entries = (ports[0], ports[-1])
    frame = proto._frame(tuple(plan), tuple(ports), entries, lossy)
    assert proto._frame(tuple(plan), tuple(ports), entries, lossy) is frame
    op, *arrays = frame
    assert [op] == [step[0] for step in _steps(plan, cavity=True)]
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1


@pytest.mark.parametrize("lossy", [False, True], ids=["ideal", "lossy"])
def test_gate_matrix_is_a_fresh_writeable_array(lossy, lossy_model):
    model = lossy_model if lossy else cav.InteractionModel.ideal()
    gate = proto.cnot_gate_matrix(model)
    expected = gate.copy()
    assert gate.flags.writeable
    gate[:] = 0.0
    again = proto.cnot_gate_matrix(model)
    assert again is not gate
    assert np.array_equal(again, expected)


def test_models_with_channels_keep_equality_hash_and_repr():
    params = cav.ContrastParams(0.8, 6.0)
    a = cav.InteractionModel.from_contrast(params)
    b = cav.InteractionModel.from_contrast(params)
    blocks = proto._spin_blocks(proto.BSA_PLAN, a, proto.BSA_PATHS, ("In",))
    assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1
    assert repr(a) == repr(b) == (
        f"InteractionModel(coupled_reflect_amp={a.coupled_reflect_amp!r}, "
        f"coupled_transmit_amp={a.coupled_transmit_amp!r}, "
        f"uncoupled_transmit_amp={a.uncoupled_transmit_amp!r}, "
        f"uncoupled_reflect_amp={a.uncoupled_reflect_amp!r})"
    )
    assert proto._spin_blocks(proto.BSA_PLAN, b, proto.BSA_PATHS, ("In",)) is not blocks
    replaced = dataclasses.replace(a)
    assert replaced == a
    assert proto._spin_blocks(proto.BSA_PLAN, replaced, proto.BSA_PATHS, ("In",)) is not blocks
    lossless = dataclasses.replace(a, coupled_reflect_amp=1.0, coupled_transmit_amp=0.0,
                                   uncoupled_transmit_amp=1.0, uncoupled_reflect_amp=0.0)
    assert lossless == cav.InteractionModel.ideal()
    # no flag′ axis: out = (p′, path′)
    lossless_blocks = proto._spin_blocks(proto.BSA_PLAN, lossless, proto.BSA_PATHS, ("In",))
    assert lossless_blocks.shape == (1, 2, 2 * len(proto.BSA_PATHS), 2)


def test_unknown_entry_port_is_refused_before_any_work(monkeypatch):
    _refuse_builds(monkeypatch)
    model = cav.InteractionModel.ideal()
    with pytest.raises(ValueError, match="'Z'"):
        proto._spin_blocks(proto.CNOT_PLAN, model, proto.CNOT_PATHS, ("A", "Z"))
    with pytest.raises(ValueError, match="'Out'"):
        proto.run_photons(
            (1.0, 0.0), [1.0, 0.0, 0.0, 0.0], (1, 2), ("In", "Out"),
            proto.BSA_PLAN, model, proto.BSA_PATHS,
        )


@pytest.mark.parametrize("lossy", [False, True], ids=["ideal", "lossy"])
def test_a_second_cavity_pass_is_refused_before_any_work(lossy, lossy_model, monkeypatch):
    # a photon meets the one cavity once: a plan that scatters it again, after
    # a fold mirror, is refused before any element or block is built
    twice = proto.BSA_PLAN[:2] + (("scatter", ("Trans", "In", "Refl"), 0.0),)
    model = dataclasses.replace(lossy_model if lossy else cav.InteractionModel.ideal())
    _refuse_builds(monkeypatch)
    refused = "^a photon passes the cavity at most once, not 2 times$"
    with pytest.raises(ValueError, match=refused):
        proto._spin_blocks(twice, model, proto.BSA_PATHS, ("In",))
    with pytest.raises(ValueError, match=refused):
        proto._spin_blocks(twice, model, proto.BSA_PATHS, ("In",), ("C", "D"))
    with pytest.raises(ValueError, match=refused):
        proto.run_photons((1.0, 0.0), [1.0, 0.0], (1,), ("In",), twice, model, proto.BSA_PATHS)
    assert model._channels == {}


# ---------------------------------------------------------------------------
# the analyzer and the spin preparation on plain arrays, against the oracles
# that made a state of each step: the same bits, and the same refusals

_ORACLE_MODELS = st.one_of(
    st.just(cav.InteractionModel.ideal()),
    _valid_models,
    st.builds(
        lambda q2, fp: cav.InteractionModel.from_contrast(cav.ContrastParams(q2, fp)),
        st.floats(1e-6, 1.0),
        st.floats(0.0, 1e3),
    ),
)


@st.composite
def _plans_and_entries(draw):
    """A protocol plan or a random plan on five ports, and 1–2 entry ports."""
    if draw(st.booleans(), label="protocol plan"):
        plan, ports = draw(st.sampled_from(list(_PLANS.values())), label="plan")
    else:
        plan, ports = draw(_plans(), label="plan"), _FIVE_PORTS
    entries = draw(st.lists(st.sampled_from(ports), min_size=1, max_size=2, unique=True))
    return plan, tuple(ports), tuple(entries)


def _alive_rows(blocks, ports, exits):
    """The rows of K[entry, s, (p′, path′[, flag′]), p] that leave Alive on
    ``exits``, (p′, exit) with p′ major, read off the blocks' axes."""
    axes = blocks.reshape(*blocks.shape[:2], 2, len(ports), -1, 2)  # one flag′ entry if lossless
    alive = axes[:, :, :, [ports.index(port) for port in exits], 0]
    return alive.reshape(*blocks.shape[:2], 2 * len(exits), 2)


@settings(max_examples=30, deadline=None)
@given(case=_plans_and_entries(), model=_ORACLE_MODELS, data=st.data())
def test_exit_cuts_are_the_alive_rows_of_the_blocks_memoized_read_only(case, model, data):
    plan, ports, in_ports = case
    full = proto._spin_blocks(plan, model, ports, in_ports)
    for size in range(1, len(ports) + 1):
        for exits in itertools.permutations(ports, size):
            cut = proto._spin_blocks(plan, model, ports, in_ports, exits)
            assert np.array_equal(cut, _alive_rows(full, ports, exits))
            assert not cut.flags.writeable
            assert proto._spin_blocks(plan, model, ports, in_ports, exits) is cut
    # an unknown entry or exit port, anywhere among known ones: refused
    # before any block or element is built, and never kept
    side = data.draw(st.sampled_from(("entry", "exit")), label="unknown side")
    exits = data.draw(st.lists(st.sampled_from(ports), unique=True), label="exits")
    names = list(in_ports if side == "entry" else exits)
    names.insert(data.draw(st.integers(0, len(names)), label="at"), "Z")
    entries, exits = (names, exits) if side == "entry" else (in_ports, names)
    fresh = dataclasses.replace(model)
    with pytest.MonkeyPatch.context() as patch:
        _refuse_builds(patch)
        with pytest.raises(ValueError, match=f"^{side} port 'Z' is not one of the ports "):
            proto._spin_blocks(plan, fresh, ports, tuple(entries), tuple(exits))
    assert fresh._channels == {}


def _largest_difference(got, want) -> float:
    got, want = np.asarray(got, dtype=complex), np.asarray(want, dtype=complex)
    return float(np.abs(got - want).max()) if got.shape == want.shape else math.inf


def _assert_same_state(got: qs.StateVector, want: qs.StateVector) -> None:
    assert got.registers == want.registers
    assert np.array_equal(got.amps, want.amps), (
        f"amplitudes differ, largest difference {_largest_difference(got.amps, want.amps):.3g}"
    )
    assert not got.amps.flags.writeable


@settings(max_examples=300, deadline=None)
@given(
    model=_ORACLE_MODELS,
    ids=st.sampled_from([(1, 2), (2, 1), (5, 3), (3, 5)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_bsa_matches_its_state_built_oracle_bit_for_bit(model, ids, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    state = qs.StateVector(
        (qs.polarization(ids[0]), qs.polarization(ids[1])), amps / np.linalg.norm(amps)
    )
    try:
        want = bsa_by_states(state, model)
    except ValueError as refused:
        with pytest.raises(ValueError, match=f"^{re.escape(str(refused))}$"):
            proto.bsa(state, model)
        return
    got = proto.bsa(state, model)
    _assert_same_state(got.state, want.state)
    assert got.success_probability == want.success_probability, (
        f"success differs by {abs(got.success_probability - want.success_probability):.3g}"
    )
    assert list(got.distribution) == list(want.distribution)
    got_probs, want_probs = list(got.distribution.values()), list(want.distribution.values())
    assert got_probs == want_probs, (
        f"probabilities differ, largest difference {_largest_difference(got_probs, want_probs):.3g}"
    )


_spin_amps = st.tuples(
    st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
    st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
).filter(lambda pair: pair != (0, 0))


@settings(max_examples=300, deadline=None)
@given(model=_ORACLE_MODELS, spin=st.one_of(st.sampled_from([(1, 0), (0, 1j), (SQ, SQ)]), _spin_amps))
def test_spin_prep_matches_its_state_built_oracle_bit_for_bit(model, spin):
    try:
        want = spin_prep_by_states(spin, model)
    except ValueError as refused:
        with pytest.raises(ValueError, match=f"^{re.escape(str(refused))}$"):
            proto.conditional_spin_prep(spin, model)
        return
    got = proto.conditional_spin_prep(spin, model)
    assert list(got) == list(want)
    for port, res in want.items():
        _assert_same_state(got[port].state, res.state)
        assert got[port].success_probability == res.success_probability, (
            f"{port}: success differs by "
            f"{abs(got[port].success_probability - res.success_probability):.3g}"
        )
        assert got[port].fidelity == res.fidelity, (
            f"{port}: fidelity differs by {abs(got[port].fidelity - res.fidelity):.3g}"
        )


def test_bsa_refuses_when_no_coincidence_survives():
    dark = cav.InteractionModel(0.0, 0.0, 0.0, 0.0)  # the cavity loses every photon
    for run in (proto.bsa, bsa_by_states):
        with pytest.raises(ValueError, match="^no coincidence outcomes survived the analyzer$"):
            run(proto.BellState.PSI_PLUS.state(), dark)


def test_spin_prep_refuses_a_branch_with_no_spin_amplitude(monkeypatch):
    # read each port in the polarization the photon never leaves it in: the
    # branch keeps its weight, but the spin state it heralds is zero
    monkeypatch.setattr(proto, "_port_pol", lambda port: "R" if port == "Refl" else "L")
    for run in (proto.conditional_spin_prep, spin_prep_by_states):
        with pytest.raises(ValueError, match=r"^cannot normalize a \(near-\)zero state$"):
            run((0.6, 0.8))


def test_a_loss_point_checks_each_state_it_returns_and_no_more(monkeypatch):
    # every protocol result is a checked state, and only they and the
    # analyzer's Bell inputs are: 1 (cnot) + 4 × 2 (bsa) + 2 (spin prep) + 2 (ghz)
    checked = []
    check = qs.StateVector._check

    def counting_check(self):
        checked.append(self)
        check(self)

    monkeypatch.setattr(qs.StateVector, "_check", counting_check)
    model = cav.InteractionModel.from_contrast(cav.ContrastParams(0.8, 6.0))
    proto.cnot_gate_matrix(model)
    returned = [proto.cnot((1.0, 0.0), (0.6, 0.8), model).state]
    for bell in proto.BellState:
        returned.append(proto.bsa(bell.state((1, 2)), model).state)
    returned += [res.state for res in proto.conditional_spin_prep((0.6, 0.8j), model).values()]
    returned += [res.state for res in proto.ghz(4, model).values()]
    assert len(checked) == 13
    assert all(any(state is seen for seen in checked) for state in returned)


def test_a_loss_point_that_reads_no_analyzer_state_checks_nine_states(monkeypatch):
    # 1 (cnot) + 4 (the analyzer's Bell inputs) + 2 (spin prep) + 2 (ghz):
    # no analyzer builds its pre-detection state unless it is read, and the
    # spin preparation builds only the two spin states it returns
    checked = []
    check = qs.StateVector._check

    def counting_check(self):
        checked.append(self)
        check(self)

    monkeypatch.setattr(qs.StateVector, "_check", counting_check)
    _loss_point(cav.InteractionModel.from_contrast(cav.ContrastParams(0.8, 6.0)))
    assert len(checked) == 9


# ---------------------------------------------------------------------------
# refusals at the API boundary
# ---------------------------------------------------------------------------


def test_ghz_needs_a_photon():
    with pytest.raises(ValueError, match="^n must be at least 1$"):
        proto.ghz(0)


@pytest.mark.parametrize(
    "pols, in_ports",
    [([1.0, 0.0], ("In", "In")), ([1.0, 0.0, 0.0, 0.0], ("In",))],
    ids=["pols of one photon", "one entry port short"],
)
def test_run_photons_needs_one_axis_and_one_entry_per_photon(pols, in_ports):
    with pytest.raises(ValueError, match="^need one R/L axis and one entry port per photon$"):
        proto.run_photons(
            (1.0, 0.0), pols, (1, 2), in_ports, proto.BSA_PLAN, cav.InteractionModel.ideal(),
            proto.BSA_PATHS,
        )


@pytest.mark.parametrize("spin", [None, "Up"])
def test_classification_needs_a_spin_plus_minus_result(spin):
    click = meas.PhotonOutcome(port="C", pol="H")
    record = meas.OutcomeRecord(photons=((1, click), (2, click)), spin=spin)
    with pytest.raises(ValueError, match="^classification needs two photon records"):
        proto.classify_outcome(record)


def test_unknown_bell_label_is_refused():
    with pytest.raises(ValueError, match="^unknown Bell state 'chi\\+'$"):
        proto.BellState.from_label("chi+")
