import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinphoton import cavity as cav
from spinphoton import qstate as qs

from _oracles import (
    dense_one_sided_operator,
    dense_pass,
    dense_two_sided_operator,
    eigh_loss_completion,
    interpolate_models,
    apply,
    basis_state,
    is_unitary,
    pair_blocks,
    pass_block_from_lists,
    project,
    spin_block_operator,
    tensor,
)


# ---------------------------------------------------------------------------
# scattering coefficients
# ---------------------------------------------------------------------------


def test_gamma_rate():
    p = cav.CavityParams(delta_omega=0.0, delta=0.0, kappa=8.0, g=2.0)
    assert p.gamma == pytest.approx(1.0)


def test_empty_resonant_cavity_transmits_with_pi_phase():
    p = cav.CavityParams(delta_omega=0.0, delta=0.0, kappa=1.0, g=0.0)
    c = cav.scatter_coefficients(p)
    assert c.xi == 0
    assert c.r == pytest.approx(0.0)
    assert c.t == pytest.approx(-1.0)


def test_coupled_resonant_cavity_reflects_perfectly():
    p = cav.CavityParams(delta_omega=0.0, delta=0.0, kappa=1.0, g=0.3)
    c = cav.scatter_coefficients(p)
    assert c.xi_infinite
    assert c.r == pytest.approx(1.0)
    assert c.t == pytest.approx(0.0)


def test_unit_xi_point():
    # Δω = κ, δ = 0, g = 0 puts the dimensionless detuning at exactly 1.
    p = cav.CavityParams(delta_omega=2.5, delta=0.0, kappa=2.5, g=0.0)
    c = cav.scatter_coefficients(p)
    assert c.xi == pytest.approx(1.0)
    assert c.r == pytest.approx((1.0 + 1.0j) / 2.0)
    assert c.t == pytest.approx(-(1.0 - 1.0j) / 2.0)


@pytest.mark.parametrize("delta_omega", [-3.0, -0.7, 0.01, 0.4, 1.0, 5.0])
@pytest.mark.parametrize("g", [0.0, 0.2, 1.1])
def test_reflection_is_one_plus_transmission(delta_omega, g):
    p = cav.CavityParams(delta_omega=delta_omega, delta=0.13, kappa=0.9, g=g)
    c = cav.scatter_coefficients(p)
    assert c.r == pytest.approx(1.0 + c.t, abs=1e-12)
    # |r|² + |t|² ≤ 1 with equality only at the lossless points
    assert abs(c.r) ** 2 + abs(c.t) ** 2 <= 1.0 + 1e-12


def test_kappa_must_be_positive():
    with pytest.raises(ValueError):
        cav.CavityParams(delta_omega=0.0, delta=0.0, kappa=0.0, g=0.1)


NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("field", ["delta_omega", "delta", "kappa", "g"])
def test_cavity_params_refuse_non_finite(field, value):
    fields = dict(delta_omega=0.0, delta=0.0, kappa=1.0, g=0.1)
    fields[field] = value
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        cav.CavityParams(**fields)


@pytest.mark.parametrize("delta_omega", [1e-320, -1e-320])
def test_overflowing_xi_takes_the_perfect_reflection_limit(delta_omega):
    # Γ/(2Δω) overflows to ±inf at a subnormal detuning: r → 1, t → 0
    c = cav.scatter_coefficients(cav.CavityParams(delta_omega, 0.0, 1.0, 1.0))
    assert c.xi_infinite
    assert c.r == 1.0
    assert c.t == 0.0


def test_xi_of_two_overflowing_terms_is_refused():
    # (Δω + δ)/κ and Γ/(2Δω) both overflow: ξ = inf − inf has no value
    with pytest.raises(ValueError, match="xi is undefined"):
        cav.scatter_coefficients(cav.CavityParams(1e-320, 1e308, 1e-10, 1.0))


# ---------------------------------------------------------------------------
# transmission contrast
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("field", ["q_ratio_sq", "purcell"])
def test_contrast_params_refuse_non_finite(field, value):
    fields = dict(q_ratio_sq=0.8, purcell=6.0)
    fields[field] = value
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        cav.ContrastParams(**fields)


def test_quality_ratio_from_measured_losses():
    # mirror 13.9 /cm against 1.7 /cm scattering and 0.0017 /cm radiation
    q2 = cav.quality_ratio_from_losses(13.9, 1.7, 0.0017)
    assert q2 == pytest.approx(0.79375, abs=5e-5)


@pytest.mark.parametrize(
    "alphas, name",
    [
        ((0.0, 1.7, 0.0017), "alpha_mirror"),
        ((-1.0, 1.7, 0.0017), "alpha_mirror"),
        ((math.inf, 1.7, 0.0017), "alpha_mirror"),
        ((13.9, -0.2, 0.0017), "alpha_scatter"),
        ((13.9, math.nan, 0.0017), "alpha_scatter"),
        ((1.0, 0.5, -0.4), "alpha_radiation"),
        ((1.0, 0.5, -math.inf), "alpha_radiation"),
    ],
)
def test_quality_ratio_refuses_a_bad_loss_coefficient(alphas, name):
    with pytest.raises(ValueError, match=name):
        cav.quality_ratio_from_losses(*alphas)


def test_quality_ratio_takes_lossless_scattering_and_radiation():
    assert cav.quality_ratio_from_losses(2.0, 0.0, 0.0) == 1.0


@pytest.mark.parametrize(
    "alphas", [(1e308, 1e308, 0.0), (1e-300, 1e10, 0.0)], ids=["sum-overflows", "ratio-underflows"]
)
def test_quality_ratio_of_zero_names_the_coefficients(alphas):
    # finite, valid coefficients whose (Q/Q₀)² is 0 in floating point
    with pytest.raises(ValueError, match="alpha_mirror / "):
        cav.quality_ratio_from_losses(*alphas)


def test_contrast_at_operating_point():
    c = cav.ContrastParams(q_ratio_sq=0.8, purcell=6.0)
    # 0.8 · (1 − 1/49) = 38.4/49
    assert cav.transmission_contrast(c) == pytest.approx(38.4 / 49.0, abs=1e-12)


def test_contrast_grows_with_purcell():
    deltas = [
        cav.transmission_contrast(cav.ContrastParams(q_ratio_sq=0.8, purcell=fp))
        for fp in (0.5, 1.0, 2.0, 6.0, 20.0)
    ]
    assert deltas == sorted(deltas)
    assert deltas[-1] < 0.8  # bounded by (Q/Q₀)²


@pytest.mark.parametrize("purcell", [0.0, 6.0, 1e8, 1e155, 1e308])
def test_model_contrast_matches_figure_of_merit(purcell):
    # past F_P ≈ 1.3e154, (1 + F_P)² overflows; Δ has long reached (Q/Q₀)²
    c = cav.ContrastParams(q_ratio_sq=0.8, purcell=purcell)
    model = cav.InteractionModel.from_contrast(c)
    assert model.contrast == pytest.approx(cav.transmission_contrast(c), abs=1e-12)
    if purcell > 1e9:
        assert cav.transmission_contrast(c) == 0.8


# ---------------------------------------------------------------------------
# interaction models
# ---------------------------------------------------------------------------


def test_ideal_model_amplitudes():
    m = cav.InteractionModel.ideal()
    assert (
        m.coupled_reflect_amp,
        m.coupled_transmit_amp,
        m.uncoupled_transmit_amp,
        m.uncoupled_reflect_amp,
    ) == (1.0, 0.0, 1.0, 0.0)
    assert m.is_lossless


def test_from_contrast_reduces_to_ideal_in_the_perfect_limit():
    m = cav.InteractionModel.from_contrast(
        cav.ContrastParams(q_ratio_sq=1.0, purcell=1e9)
    )
    assert m.coupled_reflect_amp == pytest.approx(1.0, abs=1e-8)
    assert m.uncoupled_transmit_amp == pytest.approx(1.0)
    assert m.uncoupled_reflect_amp == pytest.approx(0.0)


def test_overcomplete_branch_rejected():
    with pytest.raises(ValueError, match="exceeds 1"):
        cav.InteractionModel(0.9, 0.3, 1.0, 0.0)


def test_interpolation_endpoints_and_midpoint():
    lossy = cav.InteractionModel.from_contrast(cav.ContrastParams(0.8, 6.0))
    start = interpolate_models(cav.InteractionModel.ideal(), lossy, 0.0)
    assert start.is_lossless
    end = interpolate_models(cav.InteractionModel.ideal(), lossy, 1.0)
    assert end.coupled_transmit_amp == pytest.approx(lossy.coupled_transmit_amp)
    mid = interpolate_models(cav.InteractionModel.ideal(), lossy, 0.5)
    assert mid.uncoupled_transmit_amp == pytest.approx(
        (1.0 + lossy.uncoupled_transmit_amp) / 2.0
    )


# ---------------------------------------------------------------------------
# one-sided scattering rules
# ---------------------------------------------------------------------------

PATHS = ("In", "Refl", "Trans")


def one_sided(model, regs, arrive_from="below"):
    """The one-sided pass In -> Refl/Trans on registers (spin, pol, path[, flag])."""
    # from above, spin Up couples what spin Down couples from below: the spins swap
    blocks = dense_pass(model, regs[2].basis, "scatter", PATHS, arrive_from == "above")
    return spin_block_operator(blocks, regs)


def scatter_input(pol, spin_name, arrive_from):
    regs = [qs.spin(), qs.polarization(1), qs.path(1, PATHS)]
    state = basis_state(regs, [spin_name, pol, "In"])
    return apply(one_sided(cav.InteractionModel.ideal(), regs, arrive_from), state)


# (arrive_from, pol, spin) -> (out_pol, out_port, sign): the eight selection rules.
RULES = [
    ("below", "R", "Up", "L", "Refl", +1),
    ("below", "R", "Down", "R", "Trans", -1),
    ("below", "L", "Up", "L", "Trans", -1),
    ("below", "L", "Down", "R", "Refl", +1),
    ("above", "R", "Up", "R", "Trans", -1),
    ("above", "R", "Down", "L", "Refl", +1),
    ("above", "L", "Up", "R", "Refl", +1),
    ("above", "L", "Down", "L", "Trans", -1),
]


@pytest.mark.parametrize("arrive_from,pol,spin_name,out_pol,out_port,sign", RULES)
def test_selection_rules(arrive_from, pol, spin_name, out_pol, out_port, sign):
    out = scatter_input(pol, spin_name, arrive_from)
    assert out.amplitude(spin_name, out_pol, out_port) == pytest.approx(sign)
    assert out.norm_sq() == pytest.approx(1.0)


def test_superposed_spin_entangles_with_photon():
    # |L, from above⟩ ⊗ (|↑⟩+|↓⟩)/√2 → (|R,Refl,↑⟩ − |L,Trans,↓⟩)/√2
    regs = [qs.spin(), qs.polarization(1), qs.path(1, PATHS)]
    sq = 1.0 / math.sqrt(2.0)
    state = tensor(
        qs.StateVector((qs.spin(),), [sq, sq]),
        basis_state(regs[1:], ["L", "In"]),
    )
    out = apply(one_sided(cav.InteractionModel.ideal(), regs, "above"), state)
    assert out.amplitude("Up", "R", "Refl") == pytest.approx(sq)
    assert out.amplitude("Down", "L", "Trans") == pytest.approx(-sq)


def test_ideal_one_sided_operator_is_unitary_on_random_states():
    rng = np.random.default_rng(42)
    regs = (qs.spin(), qs.polarization(1), qs.path(1, PATHS))
    op = one_sided(cav.InteractionModel.ideal(), regs)
    assert is_unitary(op)
    for _ in range(25):
        amps = rng.normal(size=12) + 1j * rng.normal(size=12)
        amps /= np.linalg.norm(amps)
        s = qs.StateVector(regs, amps)
        assert apply(op, s).norm_sq() == pytest.approx(1.0, abs=1e-12)


def test_scatter_twice_is_identity():
    rng = np.random.default_rng(5)
    regs = (qs.spin(), qs.polarization(1), qs.path(1, PATHS))
    amps = rng.normal(size=12) + 1j * rng.normal(size=12)
    amps /= np.linalg.norm(amps)
    s = qs.StateVector(regs, amps)
    op = one_sided(cav.InteractionModel.ideal(), regs)
    back = apply(op, apply(op, s))
    assert np.allclose(back.amps, s.amps, atol=1e-12)


# A path register's ports in basis order, and the same ports in random order:
# the first two or three of the shuffle play the named roles.
_ports = st.lists(
    st.text(alphabet="ABCDEFGH", min_size=1, max_size=3), min_size=3, max_size=6, unique=True
).flatmap(lambda ports: st.tuples(st.just(tuple(ports)), st.permutations(ports)))


@settings(max_examples=40, deadline=None)
@given(ports=_ports, arrive_from=st.sampled_from(["below", "above"]))
def test_ideal_one_sided_operator_is_an_involution(ports, arrive_from):
    basis, roles = ports
    blocks = dense_pass(
        cav.InteractionModel.ideal(), basis, "scatter", tuple(roles[:3]), arrive_from == "above"
    )
    assert blocks.shape == (2, 2 * len(basis), 2 * len(basis))
    assert np.abs(blocks @ blocks - np.eye(blocks.shape[1])).max() <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    ports=_ports,
    two_sided=st.booleans(),
    q2=st.floats(1e-6, 1.0),
    fp=st.floats(0.0, 1e3),
    seed=st.integers(0, 2**32 - 1),
)
def test_lossy_builders_keep_the_norm_with_the_flag(ports, two_sided, q2, fp, seed):
    basis, roles = ports
    model = cav.InteractionModel.from_contrast(cav.ContrastParams(q2, fp))
    regs = (qs.spin(), qs.polarization(1), qs.path(1, basis), qs.loss_flag(1))
    if two_sided:
        blocks = dense_pass(model, basis, "loop_cavity", tuple(roles[:2]), False)
    else:
        blocks = dense_pass(model, basis, "scatter", tuple(roles[:3]), False)
    op = spin_block_operator(blocks, regs)
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=op.dim) + 1j * rng.normal(size=op.dim)
    out = apply(op, qs.StateVector(regs, amps / np.linalg.norm(amps)))
    # the weight missing from the Alive branch is all in the Lost branch
    assert out.norm_sq() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# lossy scattering
# ---------------------------------------------------------------------------


@pytest.fixture
def lossy_model():
    return cav.InteractionModel.from_contrast(cav.ContrastParams(0.8, 6.0))


def test_lossy_branch_probabilities(lossy_model):
    regs = [qs.spin(), qs.polarization(1), qs.path(1, PATHS), qs.loss_flag(1)]
    state = basis_state(regs, ["Up", "R", "In", "Alive"])  # coupled branch
    out = apply(one_sided(lossy_model, regs), state)
    cr, ct = lossy_model.coupled_reflect_amp, lossy_model.coupled_transmit_amp
    assert out.amplitude("Up", "L", "Refl", "Alive") == pytest.approx(cr)
    assert out.amplitude("Up", "R", "Trans", "Alive") == pytest.approx(-ct)
    _, lost_p = project(out, (qs.RegisterKind.LOSS_FLAG, 1), "Lost")
    assert lost_p == pytest.approx(1.0 - cr * cr - ct * ct, abs=1e-12)
    assert out.norm_sq() == pytest.approx(1.0, abs=1e-12)


def test_lossy_operator_is_exactly_unitary(lossy_model):
    regs = (qs.spin(), qs.polarization(1), qs.path(1, PATHS), qs.loss_flag(1))
    op = one_sided(lossy_model, regs)
    assert is_unitary(op, atol=1e-12)
    # the reflection construction makes even the lossy pass an involution
    assert np.allclose(op.matrix @ op.matrix, np.eye(op.dim), atol=1e-12)


# ---------------------------------------------------------------------------
# two-arm (interferometer) pass
# ---------------------------------------------------------------------------

ARMS = ("A", "B", "C", "D")


def two_sided(model, regs):
    """The two-arm pass, lower arm B and upper arm C, on (spin, pol, path[, flag])."""
    blocks = dense_pass(model, regs[2].basis, "loop_cavity", ("B", "C"), False)
    return spin_block_operator(blocks, regs)


def test_ideal_two_sided_reflects_in_place():
    regs = [qs.spin(), qs.polarization(1), qs.path(1, ARMS)]
    op = two_sided(cav.InteractionModel.ideal(), regs)
    state = basis_state(regs, ["Up", "R", "B"])  # lower arm, coupled
    out = apply(op, state)
    assert out.amplitude("Up", "L", "B") == pytest.approx(1.0)

    state = basis_state(regs, ["Up", "L", "B"])  # lower arm, uncoupled
    out = apply(op, state)
    assert out.amplitude("Up", "L", "C") == pytest.approx(-1.0)


def test_ideal_two_sided_leaves_other_arms_alone():
    regs = [qs.spin(), qs.polarization(1), qs.path(1, ARMS)]
    state = basis_state(regs, ["Down", "R", "A"])
    out = apply(two_sided(cav.InteractionModel.ideal(), regs), state)
    assert out.amplitude("Down", "R", "A") == pytest.approx(1.0)


def test_lossy_two_sided_is_unitary_with_flag(lossy_model):
    regs = (qs.spin(), qs.polarization(1), qs.path(1, ARMS), qs.loss_flag(1))
    op = two_sided(lossy_model, regs)
    assert is_unitary(op, atol=1e-12)


def test_lossy_two_sided_sheds_probability_coherently(lossy_model):
    # (R,B) and (L,C) form the coupled pair for spin Up.  Their symmetric
    # combination sees amplitude r−t and loses 1−(r−t)² = 4t(1−t) when
    # r+t = 1; the antisymmetric combination sees r+t = 1 and loses nothing.
    sq = 1.0 / math.sqrt(2.0)
    regs = (qs.spin(), qs.polarization(1), qs.path(1, ARMS), qs.loss_flag(1))
    a = basis_state(regs, ["Up", "R", "B", "Alive"])
    b = basis_state(regs, ["Up", "L", "C", "Alive"])
    cr, ct = lossy_model.coupled_reflect_amp, lossy_model.coupled_transmit_amp

    sym = qs.StateVector(regs, (a.amps + b.amps) * sq)
    op = two_sided(lossy_model, regs)
    out = apply(op, sym)
    assert out.norm_sq() == pytest.approx(1.0, abs=1e-12)
    _, lost_p = project(out, (qs.RegisterKind.LOSS_FLAG, 1), "Lost")
    assert lost_p == pytest.approx(1.0 - (cr - ct) ** 2, abs=1e-12)
    assert lost_p == pytest.approx(4.0 * ct * (1.0 - ct), abs=1e-12)

    anti = qs.StateVector(regs, (a.amps - b.amps) * sq)
    out = apply(op, anti)
    _, lost_p = project(out, (qs.RegisterKind.LOSS_FLAG, 1), "Lost")
    assert lost_p == pytest.approx(0.0, abs=1e-12)
    # and it comes out as the matching uncoupled-pair combination, unattenuated
    out_b = out.amplitude("Up", "L", "B", "Alive")
    out_c = out.amplitude("Up", "R", "C", "Alive")
    assert out_b == pytest.approx(sq, abs=1e-12)
    assert out_c == pytest.approx(-sq, abs=1e-12)


def _raw_model(draw) -> cav.InteractionModel:
    coupled_r = draw(st.floats(0.0, 1.0))
    uncoupled_t = draw(st.floats(0.0, 1.0))
    return cav.InteractionModel(
        coupled_r,
        draw(st.floats(0.0, 1.0 - coupled_r)),
        uncoupled_t,
        draw(st.floats(0.0, 1.0 - uncoupled_t)),
    )


_MODELS = st.one_of(
    st.builds(
        lambda q2, fp: cav.InteractionModel.from_contrast(cav.ContrastParams(q2, fp)),
        st.floats(1e-6, 1.0),
        st.floats(0.0, 1e3),
    ),
    st.composite(_raw_model)(),
)


@settings(max_examples=200, deadline=None)
@given(model=_MODELS)
def test_closed_form_loss_completion_matches_eigh(model):
    for reflect, transmit in (
        (model.coupled_reflect_amp, model.coupled_transmit_amp),
        (model.uncoupled_reflect_amp, model.uncoupled_transmit_amp),
    ):
        m, closed = pair_blocks(reflect, transmit)
        assert np.array_equal(m, [[reflect, -transmit], [-transmit, reflect]])
        # the symmetric square root of I − M²
        assert np.array_equal(closed, closed.T)
        assert np.abs(closed @ closed - (np.eye(2) - m @ m)).max() <= 1e-14
        # eigh's rounding of an eigenvalue of I − M² near 0 (r ± t near 1, as
        # in every from_contrast model) is about 1e-16, and its square root
        # up to √1e-15 ≈ 3.2e-8; the closed form takes 1 − (r ± t)² directly
        smallest = min(1.0 - (reflect - transmit) ** 2, 1.0 - (reflect + transmit) ** 2)
        tol = 1e-14 if smallest >= 1e-3 else math.sqrt(1e-15)
        assert np.abs(closed - eigh_loss_completion(reflect, transmit)).max() <= tol


@pytest.mark.parametrize("reflect, transmit", [(0.7, 0.4), (0.5, -0.6)], ids=["r+t", "r-t"])
def test_loss_completion_refuses_an_overcomplete_branch(reflect, transmit):
    for completion in (pair_blocks, eigh_loss_completion):
        with pytest.raises(ValueError, match="positive semidefinite"):
            completion(reflect, transmit)


# ---------------------------------------------------------------------------
# per-spin blocks against the full-size builders
# ---------------------------------------------------------------------------

# the ideal model and the r + t = 1 edges, where a branch's deficit or one of
# its pair's eigen-deficits is 0
_ORACLE_MODELS = st.one_of(
    _MODELS,
    st.just(cav.InteractionModel.ideal()),
    st.builds(
        lambda cr, ut: cav.InteractionModel(cr, 1.0 - cr, ut, 1.0 - ut),
        st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0),
        st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0),
    ),
)


def _diagonal_blocks(dense, model, basis, **roles):
    """The two spin blocks of a full-size builder's operator, which must be
    zero off the spin diagonal, with the flag the model gives.  A lossless
    model whose branch deficits are not exactly 0 takes the Alive corner of
    the flagged build: unflagged, the full-size builder writes a deficit
    within the lossless tolerance into the next port's mode (see
    test_near_lossless_pass_without_flag_drops_the_deficit)."""
    deficits = (
        cav._branch_loss_amp(model.coupled_reflect_amp, model.coupled_transmit_amp),
        cav._branch_loss_amp(model.uncoupled_reflect_amp, model.uncoupled_transmit_amp),
    )
    flag = None if model.is_lossless and deficits == (0.0, 0.0) else qs.loss_flag(1)
    regs = dict(pol=qs.polarization(1), path=qs.path(1, basis), spin=qs.spin(), flag=flag)
    out = (2 if flag is None else 4) * len(basis)
    full = dense(model, **roles, **regs).matrix.reshape(2, out, 2, out)
    assert not full[0, :, 1].any() and not full[1, :, 0].any()
    blocks = full[[0, 1], :, [0, 1]]
    return blocks[:, ::2, ::2] if model.is_lossless and flag is not None else blocks


@settings(max_examples=150, deadline=None)
@given(model=_ORACLE_MODELS, ports=_ports, arrive_from=st.sampled_from(["below", "above"]))
def test_per_spin_blocks_match_the_full_size_builders(model, ports, arrive_from):
    basis, roles = ports
    one = dict(in_path=roles[0], reflect_path=roles[1], transmit_path=roles[2])
    got = dense_pass(model, basis, "scatter", tuple(roles[:3]), arrive_from == "above")
    want = _diagonal_blocks(dense_one_sided_operator, model, basis, arrive_from=arrive_from, **one)
    assert got.shape == want.shape
    # only the reflection's norm is summed in another order
    assert np.abs(got - want).max() <= 1e-15
    for arms in (roles[:2], roles[1::-1]):
        two = dict(lower_path=arms[0], upper_path=arms[1])
        got = dense_pass(model, basis, "loop_cavity", tuple(arms), False)
        want = _diagonal_blocks(dense_two_sided_operator, model, basis, **two)
        assert got.shape == want.shape
        assert np.array_equal(got, want)


@pytest.mark.parametrize("basis", [PATHS, ("Trans", "Refl", "In")], ids=["in-first", "in-last"])
def test_near_lossless_pass_without_flag_drops_the_deficit(basis):
    # lossless within tolerance, but the coupled branch's deficit is ~1.4e-5;
    # with no flag register it has nowhere to go and is left out
    model = cav.InteractionModel(1.0 - 1e-10, 0.0, 1.0, 0.0)
    assert model.is_lossless
    regs = [qs.spin(), qs.polarization(1), qs.path(1, basis)]
    out = apply(one_sided(model, regs), basis_state(regs, ["Up", "R", "In"]))
    expected = basis_state(regs, ["Up", "L", "Refl"]).amps * model.coupled_reflect_amp
    assert np.array_equal(out.amps, expected)



@pytest.mark.parametrize("op", ["scatter", "loop_cavity"])
def test_pass_block_equals_the_block_written_from_lists(op):
    rng = np.random.default_rng(24)
    models = [cav.InteractionModel.ideal()]
    for _ in range(120):  # the loss analysis's models
        q2, fp = rng.uniform(1e-6, 1.0), rng.uniform(0.0, 50.0)
        models.append(cav.InteractionModel.from_contrast(cav.ContrastParams(q2, fp)))
    for _ in range(120):  # any valid model, a third of them on a branch's r + t = 1 edge
        coupled_r, uncoupled_t = rng.uniform(0.0, 1.0, size=2)
        coupled_t, uncoupled_r = (
            (1.0 - first) * (1.0 if rng.uniform() < 1 / 3 else rng.uniform())
            for first in (coupled_r, uncoupled_t)
        )
        models.append(cav.InteractionModel(coupled_r, coupled_t, uncoupled_t, uncoupled_r))
    for model in models:
        block = cav.pass_block(model, op)
        assert block.dtype == np.complex128
        assert np.array_equal(block, pass_block_from_lists(model, op))
