"""Acceptance gate: ten go/no-go checks, one verdict line each.

Run ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines; each
check also asserts, so a plain ``pytest`` run enforces the same gate.
"""

import math
import pathlib
import re
import time

import numpy as np
import pytest

from spinphoton import cavity as cav
from spinphoton import circuits
from spinphoton import protocols as proto
from spinphoton import qstate as qs
from spinphoton.cavity import (
    CavityParams,
    ContrastParams,
    InteractionModel,
    quality_ratio_from_losses,
    scatter_coefficients,
    transmission_contrast,
)
from spinphoton.dsl import ParseError, compile_circuit, parse, pretty_print
from spinphoton.qstate import RegisterKind

from _oracles import (
    apply,
    basis_state,
    dense_pass,
    full_matrix,
    interpolate_models,
    plan_operators,
    spin_block_operator,
    total_variation,
)

DATA = pathlib.Path(__file__).parent / "data"
SQ = 1.0 / math.sqrt(2.0)

LOSSY_REF = InteractionModel.from_contrast(ContrastParams(q_ratio_sq=0.8, purcell=6.0))

# the ideal gate on (pol ⊗ spin), basis order R_Up, R_Down, L_Up, L_Down:
# spin Down flips the photon's circular polarization, spin Up leaves it alone
GATE_TARGET = np.zeros((4, 4), dtype=complex)
GATE_TARGET[0, 0] = GATE_TARGET[3, 1] = GATE_TARGET[2, 2] = GATE_TARGET[1, 3] = 1.0


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print("\n" + line)
    assert ok, line


def test_c01_reflection_transmission_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for dw in np.linspace(-5.0, 5.0, 201):
        for delta in (-0.3, 0.0, 0.7):
            for g in (0.0, 0.2, 1.0):
                c = scatter_coefficients(
                    CavityParams(delta_omega=float(dw), delta=delta, kappa=1.0, g=g)
                )
                worst = max(worst, abs(c.r - (1.0 + c.t)))
    dt = time.perf_counter() - t0
    _verdict(
        "c1 coefficient identity r = 1 + t on a 1809-point grid",
        worst < 1e-12 and dt < 1.0,
        f"max deviation {worst:.2e}, {dt * 1e3:.0f} ms",
    )


def test_c02_spin_selective_scattering():
    ok = True
    # frozen selection rules: the circular component that couples, by spin
    # state and arrival side; coupling reflects and flips the polarization,
    # non-coupling transmits with a sign.
    table = {
        ("Up", "below"): "R",
        ("Up", "above"): "L",
        ("Down", "below"): "L",
        ("Down", "above"): "R",
    }
    for (spin_name, side), coupled in table.items():
        ok &= cav.coupled_polarization(side, spin_name) == coupled

    regs = (qs.spin(), qs.polarization(1), qs.path(1, ("In", "Refl", "Trans")))
    worst = 0.0
    rng = np.random.default_rng(2)
    for side in ("below", "above"):
        blocks = dense_pass(
            InteractionModel.ideal(), regs[2].basis, "scatter", ("In", "Refl", "Trans"),
            side == "above",
        )
        op = spin_block_operator(blocks, regs)
        mat = op.matrix
        worst = max(
            worst, float(np.abs(mat.conj().T @ mat - np.eye(mat.shape[0])).max())
        )
        for spin_name in ("Up", "Down"):
            for pol in ("R", "L"):
                out = apply(op, basis_state(regs, [spin_name, pol, "In"]))
                if cav.coupled_polarization(side, spin_name) == pol:
                    flipped = "L" if pol == "R" else "R"
                    amp = out.amplitude(spin_name, flipped, "Refl")
                    worst = max(worst, abs(amp - 1.0))
                else:
                    amp = out.amplitude(spin_name, pol, "Trans")
                    worst = max(worst, abs(amp + 1.0))
        for _ in range(50):
            v = rng.normal(size=op.matrix.shape[0]) + 1j * rng.normal(size=op.matrix.shape[0])
            st = qs.StateVector(regs, v / np.linalg.norm(v))
            worst = max(worst, abs(apply(op, st).norm_sq() - 1.0))
    _verdict(
        "c2 spin-selective scattering rules and unitarity (100 random states)",
        ok and worst < 1e-12,
        f"max error {worst:.2e}",
    )


def test_c03_gate_truth_table():
    t0 = time.perf_counter()
    mat = proto.cnot_gate_matrix()
    err = float(np.abs(mat - GATE_TARGET).max())
    dt = time.perf_counter() - t0
    _verdict(
        "c3 photon-spin gate equals the controlled flip",
        err < 1e-12 and dt < 1.0,
        f"max entry error {err:.2e}, {dt * 1e3:.0f} ms",
    )


def test_c04_ghz_generation():
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(2, 9):
        for res in proto.ghz(n).values():
            worst = max(
                worst, abs(res.fidelity - 1.0), abs(res.success_probability - 0.5)
            )
    dt = time.perf_counter() - t0
    _verdict(
        "c4 heralded GHZ states for 2..8 photons",
        worst < 1e-12 and dt < 10.0,
        f"max deviation {worst:.2e}, {dt:.2f} s",
    )


def test_c05_analyzer_patterns():
    # (same exit port?, same H/V polarization?) keyed by spin readout
    patterns = {
        "psi+": {"Plus": (True, True), "Minus": (False, False)},
        "psi-": {"Plus": (True, False), "Minus": (False, True)},
        "phi+": {"Plus": (False, True), "Minus": (True, False)},
        "phi-": {"Plus": (False, False), "Minus": (True, True)},
    }
    ok = True
    worst = 0.0
    for label, by_spin in patterns.items():
        bell = proto.BellState.from_label(label)
        result = proto.bsa(bell.state((1, 2)))
        ok &= len(result.distribution) == 8
        worst = max(worst, abs(result.success_probability - 1.0))
        for rec, p in result.distribution.items():
            p1, p2 = rec.photon(1), rec.photon(2)
            ok &= (p1.port == p2.port, p1.pol == p2.pol) == by_spin[rec.spin]
            ok &= proto.classify_outcome(rec) is bell
            worst = max(worst, abs(p - 0.125))
    _verdict(
        "c5 analyzer outcome table row-for-row, all four Bell states",
        ok and worst < 1e-12,
        f"max probability error {worst:.2e}",
    )


def test_c06_contrast_figures():
    delta = transmission_contrast(ContrastParams(q_ratio_sq=0.8, purcell=6.0))
    q_sq = quality_ratio_from_losses(13.9, 1.7, 0.0017)
    ok = abs(delta - 0.7837) < 0.005 and abs(q_sq - 0.794) < 0.01
    _verdict(
        "c6 transmission contrast and loss-budget quality ratio",
        ok,
        f"contrast {delta:.6f}, (Q/Q0)^2 {q_sq:.6f}",
    )


def _pipeline_worst(ops, regs, rng, shots=25) -> float:
    dim = int(np.prod([r.dim for r in regs]))
    assert dim <= 64
    total = np.eye(dim, dtype=complex)
    for op in ops:
        total = full_matrix(op, regs) @ total
    worst = 0.0
    for _ in range(shots):
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v /= np.linalg.norm(v)
        st = qs.StateVector(tuple(regs), v.copy())
        for op in ops:
            st = apply(op, st)
        worst = max(worst, float(np.abs(st.amps - total @ v).max()))
    return worst


def test_c07_pipelines_match_full_matrix_products():
    rng = np.random.default_rng(7)
    worst = 0.0
    for model in (InteractionModel.ideal(), LOSSY_REF):
        lossy = not model.is_lossless
        spin, pol = qs.spin(), qs.polarization(1)
        flag = qs.loss_flag(1) if lossy else None

        gate_path = qs.path(1, proto.CNOT_PATHS)
        gate_regs = [spin, pol, gate_path] + ([flag] if lossy else [])
        gate_ops = plan_operators(
            proto.CNOT_PLAN, model, pol=pol, path=gate_path, spin=spin, flag=flag
        )
        worst = max(worst, _pipeline_worst(gate_ops, gate_regs, rng))

        bsa_path = qs.path(1, proto.BSA_PATHS)
        bsa_regs = [spin, pol, bsa_path] + ([flag] if lossy else [])
        bsa_ops = plan_operators(
            proto.BSA_PLAN, model, pol=pol, path=bsa_path, spin=spin, flag=flag
        )
        worst = max(worst, _pipeline_worst(bsa_ops, bsa_regs, rng))
    _verdict(
        "c7 operator pipelines equal their full-matrix products (50 states each)",
        worst < 1e-12,
        f"max amplitude error {worst:.2e}",
    )


def test_c08_sampling_statistics():
    shots = 100_000
    scenarios = [
        ("gate", compile_circuit(parse(circuits.load("cnot"))).run()),
        ("analyzer", compile_circuit(parse(circuits.load("bsa"))).run()),
        ("lossy analyzer", compile_circuit(parse(circuits.load("bsa"))).run(LOSSY_REF)),
    ]
    worst = 0.0
    for shard, (_, res) in enumerate(scenarios):
        counts = res.distribution.sample(shots, seed=20260818 + shard)
        empirical = {rec: k / shots for rec, k in counts.items()}
        worst = max(worst, total_variation(empirical, res.distribution))
    _verdict(
        "c8 seeded sampling reproduces exact distributions (3 x 1e5 shots)",
        worst < 0.01,
        f"max total variation {worst:.4f}",
    )


def test_c09_circuit_language():
    ok = True
    sources = [circuits.load(name) for name in circuits.names()]
    sources += [p.read_text() for p in sorted((DATA / "valid").glob("*.qc"))]
    for text in sources:
        circ = parse(text)
        ok &= parse(pretty_print(circ)) == circ

    malformed = sorted((DATA / "malformed").glob("*.qc"))
    for path in malformed:
        text = path.read_text()
        m = re.match(r"# expect: (\d+):(\d+) (\w+)", text)
        want = (int(m.group(1)), int(m.group(2)), m.group(3))
        try:
            parse(text)
            ok = False
        except ParseError as e:
            ok &= (e.line, e.col, e.kind) == want
    _verdict(
        "c9 circuit text round-trips; diagnostics point at the exact offense",
        ok,
        f"{len(sources)} round-trips, {len(malformed)} diagnostics",
    )


def test_c10_graceful_degradation():
    # an R photon on a superposed spin: losses hit its two spin branches
    # unequally, so both heralding rate and fidelity must decay
    fracs = np.linspace(0.0, 1.0, 20)
    fels, succs = [], []
    for frac in fracs:
        model = interpolate_models(InteractionModel.ideal(), LOSSY_REF, float(frac))
        res = proto.cnot((1.0, 0.0), (SQ, SQ), model)
        fels.append(res.fidelity)
        succs.append(res.success_probability)
    monotone = all(
        later <= earlier + 1e-12
        for series in (fels, succs)
        for earlier, later in zip(series, series[1:])
    )
    endpoint = interpolate_models(InteractionModel.ideal(), LOSSY_REF, 0.0)
    endpoint_err = float(np.abs(proto.cnot_gate_matrix(endpoint) - GATE_TARGET).max())
    ok = (
        monotone
        and endpoint_err < 1e-12
        and abs(fels[0] - 1.0) < 1e-12
        and abs(succs[0] - 1.0) < 1e-12
        and fels[-1] < 1.0 - 1e-6
        and succs[-1] < 1.0 - 1e-6
    )
    _verdict(
        "c10 fidelity and success degrade monotonically toward the lossy model",
        ok,
        f"fidelity {fels[0]:.3f}->{fels[-1]:.3f}, success {succs[0]:.3f}->{succs[-1]:.3f}, "
        f"ideal endpoint error {endpoint_err:.2e}",
    )
