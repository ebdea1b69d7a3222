import itertools
import math
import pickle
import re

import numpy as np
import pytest

from spinphoton import qstate as qs

from _oracles import (
    apply,
    basis_state,
    change_basis,
    collapse,
    equal_up_to_phase,
    full_matrix,
    inner,
    project,
    tensor,
)


SQ = 1.0 / math.sqrt(2.0)


def test_register_keys_and_dims():
    pol = qs.polarization(1)
    assert pol.key == (qs.RegisterKind.POLARIZATION, 1)
    assert pol.dim == 2
    assert pol.index("L") == 1
    with pytest.raises(ValueError):
        pol.index("H")


def test_register_rejects_duplicate_basis_names():
    with pytest.raises(ValueError):
        qs.Register(qs.RegisterKind.PATH, 1, ("A", "A"))


def test_register_constructors_share_one_value_per_register():
    assert qs.path(2, ["A", "B"]) is qs.path(2, ("A", "B"))
    assert qs.polarization(1) is qs.polarization(1, list(qs.RL))
    assert qs.spin() is qs.spin() and qs.loss_flag(3) is qs.loss_flag(3)
    # an id that only compares equal is its own register
    assert qs.polarization(True).id is True and qs.polarization(1).id == 1
    # a refused basis raises on every call, and direct construction checks too
    for _ in range(2):
        with pytest.raises(ValueError, match="duplicate"):
            qs.path(1, ("A", "A"))
        with pytest.raises(ValueError, match="at least one"):
            qs.Register(qs.RegisterKind.PATH, 1, ())


def test_basis_state_row_major_order():
    regs = [qs.polarization(1), qs.spin()]
    s = basis_state(regs, ["L", "Up"])
    # row-major: index = pol_index * 2 + spin_index
    assert s.amps[2] == 1.0
    assert s.amplitude("L", "Up") == 1.0
    assert s.amplitude("R", "Down") == 0.0


def test_register_kinds_hash_by_identity_and_still_find_their_keys():
    for kind in qs.RegisterKind:
        assert hash(kind) == object.__hash__(kind)
        assert pickle.loads(pickle.dumps(kind)) is kind
    regs = (qs.spin(), qs.polarization(2), qs.path(2, ("A", "B")))
    state = qs.StateVector(regs, [1.0] + [0.0] * 7)
    assert state.register((qs.RegisterKind.PATH, 2)) is regs[2]
    assert state.axis((qs.RegisterKind.POLARIZATION, 2)) == 1
    keys = {reg.key for reg in regs}
    assert (qs.RegisterKind.SPIN, 0) in keys and (qs.RegisterKind.SPIN, 2) not in keys
    revived = pickle.loads(pickle.dumps(regs[1].key))
    assert revived in keys and {regs[1].key: "pol"}[revived] == "pol"
    hits = qs._register.cache_info().hits
    assert qs.polarization(2) is regs[1] and qs.path(2, ["A", "B"]) is regs[2]
    assert qs._register.cache_info().hits == hits + 2


def test_tensor_orders_left_factor_first():
    a = qs.StateVector((qs.polarization(1),), [1.0, 0.0])
    b = qs.StateVector((qs.spin(),), [0.0, 1.0])
    s = tensor(a, b)
    assert [r.kind for r in s.registers] == [
        qs.RegisterKind.POLARIZATION,
        qs.RegisterKind.SPIN,
    ]
    assert s.amplitude("R", "Down") == 1.0


def test_tensor_rejects_same_register_twice():
    a = qs.StateVector((qs.polarization(1),), [1.0, 0.0])
    with pytest.raises(ValueError):
        tensor(a, a)


def test_norm_guard():
    with pytest.raises(ValueError):
        qs.StateVector((qs.polarization(1),), [1.0, 1.0])  # norm² = 2


def test_amps_are_write_locked():
    s = qs.StateVector((qs.polarization(1),), [1.0, 0.0])
    with pytest.raises(ValueError):
        s.amps[0] = 0.0


@pytest.mark.parametrize(
    "registers,amps",
    [
        ((qs.polarization(1),), [np.nan, 0.0]),
        ((qs.polarization(1),), [1.0, np.inf]),
        ((qs.polarization(1),), [0.0, 1j * np.inf]),
        ((qs.polarization(1),), [1.0, 1.0]),  # norm² = 2
        ((qs.polarization(1),), [1.0, 0.0, 0.0]),
        ((qs.polarization(1), qs.polarization(1, qs.HV)), [1.0, 0.0, 0.0, 0.0]),
    ],
    ids=["nan", "inf", "imaginary-inf", "norm", "size", "duplicate-keys"],
)
def test_adopting_constructor_refuses_what_the_public_one_refuses(registers, amps):
    with pytest.raises(ValueError) as public:
        qs.StateVector(registers, np.array(amps, dtype=complex))
    with pytest.raises(ValueError, match=f"^{re.escape(str(public.value))}$"):
        qs.StateVector._adopt(registers, np.array(amps, dtype=complex))


def test_adopted_array_is_kept_read_only():
    amps = np.array([0.6, 0.8j])
    state = qs.StateVector._adopt((qs.spin(),), amps)
    assert np.shares_memory(state.amps, amps)
    assert not state.amps.flags.writeable and not amps.flags.writeable
    with pytest.raises(ValueError):
        state.amps[0] = 0.0
    assert np.array_equal(state.amps, [0.6, 0.8j])


def test_public_constructor_copies_the_callers_array():
    amps = np.array([0.6, 0.8j])
    state = qs.StateVector((qs.spin(),), amps)
    assert amps.flags.writeable
    amps[:] = [1.0, 0.0]
    assert np.array_equal(state.amps, [0.6, 0.8j])


def test_inner_product():
    plus = qs.StateVector((qs.spin(),), [SQ, SQ])
    up = basis_state([qs.spin()], ["Up"])
    assert inner(up, plus) == pytest.approx(SQ)
    assert inner(plus, plus) == pytest.approx(1.0)


def test_apply_single_register_flip():
    flip = qs.Operator((qs.polarization(1),), np.array([[0, 1], [1, 0]]))
    s = basis_state([qs.polarization(1), qs.spin()], ["R", "Up"])
    out = apply(flip, s)
    assert out.amplitude("L", "Up") == 1.0


def test_apply_matches_kron_oracle():
    # Operator on (pol, path) inside a (path, spin, pol) state must equal the
    # explicitly permuted Kronecker matrix acting on the flat vector.
    rng = np.random.default_rng(7)
    pol = qs.polarization(1)
    pth = qs.path(1, ("A", "B", "C"))
    sp = qs.spin()

    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    q, _ = np.linalg.qr(m)
    op = qs.Operator((pol, pth), q)

    amps = rng.normal(size=12) + 1j * rng.normal(size=12)
    amps /= np.linalg.norm(amps)
    s = qs.StateVector((pth, sp, pol), amps)

    full = full_matrix(op, s.registers)
    assert np.allclose(full @ full.conj().T, np.eye(12), atol=1e-12)
    out = apply(op, s)
    assert np.allclose(out.amps, full @ amps, atol=1e-12)
    assert out.norm_sq() == pytest.approx(1.0, abs=1e-12)


def test_apply_checks_basis_names():
    op_hv = qs.Operator((qs.polarization(1, qs.HV),), np.eye(2))
    s = basis_state([qs.polarization(1)], ["R"])
    with pytest.raises(ValueError, match="basis"):
        apply(op_hv, s)


def test_project_probabilities_sum_to_one():
    s = qs.StateVector(
        (qs.polarization(1), qs.spin()),
        np.array([0.5, 0.5, 0.5, -0.5]),
    )
    kept_r, p_r = project(s, (qs.RegisterKind.POLARIZATION, 1), "R")
    kept_l, p_l = project(s, (qs.RegisterKind.POLARIZATION, 1), "L")
    assert p_r + p_l == pytest.approx(1.0)
    assert p_r == pytest.approx(0.5)
    # projection is idempotent and orthogonal
    assert inner(kept_r, kept_l) == pytest.approx(0.0)
    assert np.allclose(kept_r.amps + kept_l.amps, s.amps)


def test_collapse_drops_register():
    s = basis_state([qs.polarization(1), qs.spin()], ["L", "Down"])
    out = collapse(s, (qs.RegisterKind.SPIN, 0), "Down")
    assert [r.kind for r in out.registers] == [qs.RegisterKind.POLARIZATION]
    assert out.amplitude("L") == 1.0


def test_reorder_is_a_permutation():
    rng = np.random.default_rng(3)
    regs = (qs.polarization(1), qs.path(1, ("A", "B")), qs.spin())
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps /= np.linalg.norm(amps)
    s = qs.StateVector(regs, amps)
    perm = qs.reorder(s, [regs[2], regs[0], regs[1]])
    assert perm.amplitude("Up", "R", "A") == pytest.approx(s.amplitude("R", "A", "Up"))
    back = qs.reorder(perm, regs)
    assert np.allclose(back.amps, s.amps)


def test_reorder_returns_its_input_when_the_order_holds():
    regs = (qs.polarization(1), qs.path(1, ("A", "B", "C")), qs.spin())
    s = qs.StateVector(regs, np.full(12, 1 / math.sqrt(12)))
    assert qs.reorder(s, regs) is s
    assert qs.reorder(s, [r.key for r in regs]) is s


def test_reorder_gives_a_read_only_correctly_permuted_state():
    rng = np.random.default_rng(24)
    # distinct sizes, so a wrong permutation cannot pass for a right one
    regs = (qs.polarization(1), qs.path(1, ("A", "B", "C")), qs.loss_flag(1), qs.spin())
    amps = rng.normal(size=24) + 1j * rng.normal(size=24)
    s = qs.StateVector(regs, amps / np.linalg.norm(amps))
    for perm in itertools.permutations(range(len(regs))):
        out = qs.reorder(s, [regs[i] for i in perm])
        assert out.registers == tuple(regs[i] for i in perm)
        assert not out.amps.flags.writeable
        assert out.norm_sq() == pytest.approx(s.norm_sq(), abs=1e-15)
        for names in itertools.product(*(r.basis for r in regs)):
            assert out.amplitude(*(names[i] for i in perm)) == s.amplitude(*names)
    with pytest.raises(ValueError, match="permutation"):
        qs.reorder(s, regs[:3])


@pytest.mark.parametrize(
    "amps, message",
    [
        ([np.nan, 0.0], "non-finite amplitude"),
        ([np.inf, 0.0], "non-finite amplitude"),
        ([0.0, -np.inf], "non-finite amplitude"),
        ([complex(np.inf, np.nan), 0.0], "non-finite amplitude"),
        ([1e200, 1e200j], "squared norm inf exceeds 1"),  # finite, but norm² overflows
        ([1.0, 1.0], "squared norm 2 exceeds 1"),
    ],
    ids=["nan", "inf", "minus-inf", "inf-nan", "norm-overflow", "norm"],
)
def test_state_checks_refuse_with_their_messages(amps, message):
    for build in (qs.StateVector, qs.StateVector._adopt):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build((qs.polarization(1),), np.array(amps, dtype=complex))


class TestChangeBasis:
    def test_h_decomposes_into_circular(self):
        h = qs.StateVector((qs.polarization(1, qs.HV),), [1.0, 0.0])
        rl = change_basis(h, (qs.RegisterKind.POLARIZATION, 1), "RL")
        assert rl.registers[0].basis == qs.RL
        assert rl.amplitude("R") == pytest.approx(SQ)
        assert rl.amplitude("L") == pytest.approx(SQ)

    def test_r_decomposes_into_linear(self):
        r = basis_state([qs.polarization(1)], ["R"])
        hv = change_basis(r, (qs.RegisterKind.POLARIZATION, 1), "HV")
        # R = (H + iV)/√2 under H=(R+L)/√2, V=-i(R-L)/√2
        assert hv.amplitude("H") == pytest.approx(SQ)
        assert hv.amplitude("V") == pytest.approx(1j * SQ)

    def test_round_trip_is_identity(self):
        rng = np.random.default_rng(11)
        amps = rng.normal(size=2) + 1j * rng.normal(size=2)
        amps /= np.linalg.norm(amps)
        s = qs.StateVector((qs.polarization(1),), amps)
        back = change_basis(
            change_basis(s, (qs.RegisterKind.POLARIZATION, 1), "HV"),
            (qs.RegisterKind.POLARIZATION, 1),
            "RL",
        )
        assert np.allclose(back.amps, s.amps, atol=1e-12)

    def test_spin_hadamard_pair(self):
        up = basis_state([qs.spin()], ["Up"])
        pm = change_basis(up, (qs.RegisterKind.SPIN, 0), "PlusMinus")
        assert pm.amplitude("Plus") == pytest.approx(SQ)
        assert pm.amplitude("Minus") == pytest.approx(SQ)

    def test_noop_when_already_there(self):
        s = basis_state([qs.spin()], ["Up"])
        assert change_basis(s, (qs.RegisterKind.SPIN, 0), "UpDown") is s

    def test_wrong_kind_rejected(self):
        s = basis_state([qs.spin()], ["Up"])
        with pytest.raises(ValueError):
            change_basis(s, (qs.RegisterKind.SPIN, 0), "HV")


def test_equal_up_to_phase():
    s = qs.StateVector((qs.polarization(1),), [SQ, 1j * SQ])
    t = qs.StateVector(s.registers, np.exp(0.37j) * s.amps)
    assert equal_up_to_phase(s, t)
    u = qs.StateVector((qs.polarization(1),), [SQ, -1j * SQ])
    assert not equal_up_to_phase(s, u)


def test_fidelity_between_subnormalized_branches():
    a = qs.StateVector((qs.spin(),), [0.5, 0.0])  # weight 1/4
    b = qs.StateVector((qs.spin(),), [SQ, SQ])
    assert qs.fidelity(a, b) == pytest.approx(0.5)


def test_format_state_readable():
    s = qs.StateVector((qs.polarization(1), qs.spin()), np.array([SQ, 0, 0, -SQ]))
    text = qs.format_state(s)
    assert "|R,Up⟩" in text and "|L,Down⟩" in text
