"""Circuit language: parsing, printing, compiling, and end-to-end runs.

The files under ``tests/data/valid`` all parse *and* compile; the files under
``tests/data/malformed`` each carry a first-line annotation

    # expect: <line>:<col> <Lex|Syntax|Semantic>

frozen to the exact position the parser must report.
"""

import json
import math
import pathlib
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinphoton import circuits, cli
from spinphoton import measurement as meas
from spinphoton import protocols as proto
from spinphoton import qstate as qs
from spinphoton.cavity import ContrastParams, InteractionModel
from spinphoton.dsl import (
    CircuitError,
    ParseError,
    ast,
    compile_circuit,
    format_angle,
    parse,
    pretty_print,
)
from spinphoton.qstate import RegisterKind

from _oracles import basis_state, collapse, outcomes_by_entry, run_plan, tensor, total_variation

DATA = pathlib.Path(__file__).parent / "data"
VALID = sorted((DATA / "valid").glob("*.qc"))
MALFORMED = sorted((DATA / "malformed").glob("*.qc"))

SQ = 1.0 / math.sqrt(2.0)

# independent spellings of the input states (R/L amplitudes, Up/Down amplitudes)
PHOTON_AMPS = {
    "R": (1.0, 0.0),
    "L": (0.0, 1.0),
    "H": (SQ, SQ),
    "V": (-1j * SQ, 1j * SQ),
}
SPIN_AMPS = {
    "Up": (1.0, 0.0),
    "Down": (0.0, 1.0),
    "Plus": (SQ, SQ),
    "Minus": (SQ, -SQ),
}


@pytest.fixture(scope="module")
def lossy_model() -> InteractionModel:
    return InteractionModel.from_contrast(ContrastParams(q_ratio_sq=0.8, purcell=6.0))


class TestParse:
    def test_bundled_gate_shape(self):
        circ = parse(circuits.load("cnot"))
        assert [c.kind for c in circ.components] == ["cpbs", "phase", "cavity"]
        assert [c.name for c in circ.components] == ["gate", "plate", "dot"]
        plate = circ.components[1]
        assert plate.param("phi") == pytest.approx(math.pi)
        assert circ.components[0].inputs == ("A", "D")
        assert circ.components[2].inputs == circ.components[2].outputs == ("B", "C")
        assert circ.photon_ids == (1,)
        assert circ.ports == ("A", "D", "C", "B")
        assert len(circ.measures) == 3

    def test_bundled_analyzer_shape(self):
        circ = parse(circuits.load("bsa"))
        assert [c.kind for c in circ.components] == ["cavity", "mirror", "bs"]
        (pair, spin) = circ.inputs
        assert isinstance(pair, ast.PhotonInput)
        assert pair.photons == (1, 2)
        assert pair.port == "In"
        assert pair.state == "PsiPlus"
        assert isinstance(spin, ast.SpinInput) and spin.state == "Plus"
        assert len(circ.measures) == 5

    @pytest.mark.parametrize("path", VALID, ids=lambda p: p.stem)
    def test_valid_corpus_parses(self, path):
        circ = parse(path.read_text())
        assert circ.photon_ids

    def test_crlf_equals_lf(self):
        lf = parse((DATA / "valid" / "tagger.qc").read_text())
        crlf = parse((DATA / "valid" / "crlf.qc").read_text())
        assert lf == crlf

    def test_positions_do_not_affect_equality(self):
        a = parse("input photon 1 port P state R\nmeasure photon 1 port\n")
        b = parse("\n# moved\n\ninput photon 1   port P state R\nmeasure photon 1 port\n")
        # blanks and tabs after the last token, before a comment or the line end
        c = parse("input photon 1 port P state R \t # trailing\nmeasure photon 1 port\t \n")
        assert a == b == c
        assert a.inputs[0].pos != b.inputs[0].pos

    def test_positions_recorded(self):
        circ = parse("# banner\ncomponent m mirror in=[P] out=[P]\n")
        assert circ.components[0].pos == ast.Position(2, 1)


class TestMalformed:
    @pytest.mark.parametrize("path", MALFORMED, ids=lambda p: p.stem)
    def test_position_and_kind(self, path):
        text = path.read_text()
        m = re.match(r"# expect: (\d+):(\d+) (Lex|Syntax|Semantic)", text)
        assert m, f"{path.name} lacks an expect annotation"
        line, col, kind = int(m.group(1)), int(m.group(2)), m.group(3)
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (err.value.line, err.value.col, err.value.kind) == (line, col, kind)
        assert str(err.value).startswith(f"{line}:{col}: {kind}:")


def _random_circuit(rng: np.random.Generator) -> ast.Circuit:
    pool = ("alpha", "beta", "gamma", "delta", "inp", "outp")
    angles = (
        math.pi, -math.pi, math.pi / 2, -math.pi / 3, math.pi / 12,
        0.0, 0.25, -1.75, 2.5, 1e-07,
    )

    def pick(seq):
        return seq[int(rng.integers(len(seq)))]

    comps = []
    for i in range(int(rng.integers(0, 4))):
        kind = pick(ast.COMPONENT_KINDS)
        ins = tuple(pick(pool) for _ in range(int(rng.integers(1, 3))))
        outs = tuple(pick(pool) for _ in range(int(rng.integers(1, 3))))
        params = tuple(
            ast.Param(p, float(pick(angles)))
            for p in ast.KIND_PARAMS[kind]
            if rng.random() < 0.8
        )
        comps.append(
            ast.Component(name=f"c{i}", kind=kind, params=params, inputs=ins, outputs=outs)
        )

    inputs: list[ast.Input] = []
    ids = [int(x) + 1 for x in rng.permutation(9)[: int(rng.integers(1, 4))]]
    while ids:
        if len(ids) >= 2 and rng.random() < 0.3:
            pair, ids = ids[:2], ids[2:]
            inputs.append(
                ast.PhotonInput(photons=tuple(pair), port=pick(pool), state=pick(ast.PAIR_STATES))
            )
        else:
            pid, ids = ids[0], ids[1:]
            inputs.append(
                ast.PhotonInput(photons=(pid,), port=pick(pool), state=pick(ast.PHOTON_STATES))
            )
    if rng.random() < 0.5:
        inputs.append(ast.SpinInput(state=pick(ast.SPIN_STATES)))

    measures: list[ast.Measure] = []
    for inp in inputs:
        if isinstance(inp, ast.SpinInput):
            continue
        for pid in inp.photons:
            if rng.random() < 0.7:
                measures.append(ast.PolMeasure(photon=pid, basis=pick(ast.POL_BASES)))
            if rng.random() < 0.7:
                measures.append(ast.PortMeasure(photon=pid))
    if rng.random() < 0.4:
        measures.append(ast.SpinMeasure(basis=pick(ast.SPIN_BASES)))
    return ast.Circuit(components=tuple(comps), inputs=tuple(inputs), measures=tuple(measures))


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["cnot", "bsa"])
    def test_bundled(self, name):
        circ = parse(circuits.load(name))
        text = pretty_print(circ)
        assert parse(text) == circ
        assert pretty_print(parse(text)) == text  # printing is a fixed point

    @pytest.mark.parametrize("path", VALID, ids=lambda p: p.stem)
    def test_corpus(self, path):
        circ = parse(path.read_text())
        assert parse(pretty_print(circ)) == circ

    def test_random_circuits(self):
        rng = np.random.default_rng(20260817)
        for _ in range(100):
            circ = _random_circuit(rng)
            text = pretty_print(circ)
            assert parse(text) == circ, text

    @pytest.mark.parametrize(
        "value, text",
        [
            (math.pi, "pi"),
            (-math.pi, "-pi"),
            (math.pi / 2, "pi/2"),
            (math.pi / 12, "pi/12"),
            (-math.pi / 8, "-pi/8"),
            (0.25, "0.25"),
            (0.0, "0.0"),
            (1e-07, "1e-07"),
        ],
    )
    def test_format_angle(self, value, text):
        assert format_angle(value) == text

    def test_tiny_angle_survives(self):
        # repr() of small floats uses exponent notation; the grammar reads it back
        circ = parse("component p phase(phi=0.0000001) in=[P] out=[P]\n"
                     "input photon 1 port P state R\nmeasure photon 1 port\n")
        assert parse(pretty_print(circ)) == circ


class TestCompile:
    def test_deterministic(self):
        src = circuits.load("cnot")
        a = compile_circuit(parse(src))
        b = compile_circuit(parse(src))
        assert a == b
        assert a.plan == b.plan

    def test_gate_plan(self):
        comp = compile_circuit(parse(circuits.load("cnot")))
        assert [op for op, _, _ in comp.plan] == ["cpbs4", "phase", "loop_cavity", "phase", "cpbs4"]
        assert comp.plan[0] == ("cpbs4", ("A", "D", "C", "B"), 0.0)
        assert comp.plan[2][1] == ("B", "C")
        assert comp.plan[1][2] == pytest.approx(math.pi)

    def test_analyzer_plan(self):
        comp = compile_circuit(parse(circuits.load("bsa")))
        assert comp.photon_ids == (1, 2)
        assert [op for op, _, _ in comp.plan] == ["scatter", "mirror", "bs"]
        assert comp.plan[0][1] == ("In", "Refl", "Trans")
        assert comp.plan[2][1] == ("Trans", "Refl", "C", "D")

    @pytest.mark.parametrize(
        "name,plan", [("cnot", proto.CNOT_PLAN), ("bsa", proto.BSA_PLAN)], ids=["cnot", "bsa"]
    )
    def test_bundled_circuits_compile_to_the_protocol_plans(self, name, plan):
        # the bundled files and the protocols describe one device each: the
        # compiled plan, which every photon runs, is the protocol's plan
        comp = compile_circuit(parse(circuits.load(name)))
        assert comp.plan == plan

    @pytest.mark.parametrize("path", VALID, ids=lambda p: p.stem)
    def test_valid_corpus_compiles(self, path):
        compile_circuit(parse(path.read_text()))

    @pytest.mark.parametrize(
        "src, fragment",
        [
            # two cavities
            (
                "component a cavity in=[P] out=[Q, R]\n"
                "component b cavity in=[Q] out=[S, T]\n"
                "input photon 1 port P state R\ninput spin state Up\n"
                "measure photon 1 port\n",
                "one cavity",
            ),
            # cavity without a spin
            (
                "component a cavity in=[P] out=[Q, R]\n"
                "input photon 1 port P state R\nmeasure photon 1 port\n",
                "spin input",
            ),
            # spin measured but never prepared
            (
                "component m mirror in=[P] out=[P]\n"
                "input photon 1 port P state R\nmeasure spin basis UpDown\n",
                "never prepared",
            ),
            # measurement of an undeclared photon
            (
                "component m mirror in=[P] out=[P]\n"
                "input photon 1 port P state R\nmeasure photon 2 port\n",
                "unknown photon",
            ),
            # photon enters at a port no component touches
            (
                "component m mirror in=[P] out=[P]\n"
                "input photon 1 port X state R\nmeasure photon 1 port\n",
                "appears nowhere",
            ),
            # cpbs arity
            (
                "component s cpbs in=[A, B] out=[C]\n"
                "input photon 1 port A state R\nmeasure photon 1 port\n",
                "cpbs",
            ),
            # bs with reused but reordered ports
            (
                "component s bs in=[A, B] out=[B, A]\n"
                "input photon 1 port A state R\nmeasure photon 1 port\n",
                "bs ports",
            ),
            # mirror must act in place
            (
                "component m mirror in=[A] out=[B]\n"
                "input photon 1 port A state R\nmeasure photon 1 port\n",
                "in place",
            ),
            # feed-forward: consuming a port nothing produced
            (
                "component s cpbs in=[A] out=[B, C]\n"
                "component t cpbs in=[X] out=[Y, Z]\n"
                "input photon 1 port A state R\nmeasure photon 1 port\n",
                "no upstream source",
            ),
            # feed-forward: two producers for one port
            (
                "component s cpbs in=[A] out=[B, C]\n"
                "component t cpbs in=[B] out=[C, E]\n"
                "input photon 1 port A state R\nmeasure photon 1 port\n",
                "already carries light",
            ),
            # loop form: a second routing component inside the loop
            (
                "component g cpbs in=[A, D] out=[C, B]\n"
                "component x bs in=[B, C] out=[B, C]\n"
                "component dot cavity in=[B, C] out=[B, C]\n"
                "input photon 1 port A state R\ninput spin state Up\n"
                "measure photon 1 port\n",
                "in-place elements",
            ),
            # loop form: decoration off the arms
            (
                "component g cpbs in=[A, D] out=[C, B]\n"
                "component p phase(phi=pi) in=[A] out=[A]\n"
                "component dot cavity in=[B, C] out=[B, C]\n"
                "input photon 1 port A state R\ninput spin state Up\n"
                "measure photon 1 port\n",
                "cavity arm",
            ),
            # loop form: photon entering on an arm
            (
                "component g cpbs in=[A, D] out=[C, B]\n"
                "component dot cavity in=[B, C] out=[B, C]\n"
                "input photon 1 port B state R\ninput spin state Up\n"
                "measure photon 1 port\n",
                "splitter input",
            ),
            # loop form: splitter outputs are not the arms
            (
                "component g cpbs in=[A, D] out=[C, E]\n"
                "component dot cavity in=[B, C] out=[B, C]\n"
                "input photon 1 port A state R\ninput spin state Up\n"
                "measure photon 1 port\n",
                "cavity",
            ),
            # loop form needs the four-port splitter
            (
                "component dot cavity in=[B, C] out=[B, C]\n"
                "input photon 1 port B state R\ninput spin state Up\n"
                "measure photon 1 port\n",
                "exactly one four-port cpbs",
            ),
        ],
    )
    def test_wiring_errors(self, src, fragment):
        with pytest.raises(CircuitError, match=fragment):
            compile_circuit(parse(src))

    def test_parse_rejects_what_compile_never_sees(self):
        # no photons is caught at compile time (the grammar allows it)
        with pytest.raises(CircuitError, match="no photon"):
            compile_circuit(parse("component m mirror in=[P] out=[P]\n"))


def _heralded_exit(state, photons, lossy, port="D"):
    """Post-select each photon exiting alive at ``port``.

    Returns (normalized state, joint branch weight); collapse keeps branch
    amplitudes unnormalized, so the final squared norm is the joint weight.
    """
    for pid in photons:
        state = collapse(state, (RegisterKind.PATH, pid), port)
        if lossy:
            state = collapse(state, (RegisterKind.LOSS_FLAG, pid), "Alive")
    return state.normalized(), state.norm_sq()


class TestRunGate:
    @pytest.mark.parametrize("photon", sorted(PHOTON_AMPS))
    @pytest.mark.parametrize("spin", sorted(SPIN_AMPS))
    def test_matches_protocol(self, photon, spin):
        src = circuits.load("cnot").replace("state R", f"state {photon}").replace(
            "state Plus", f"state {spin}"
        )
        res = compile_circuit(parse(src)).run()
        ref = proto.cnot(PHOTON_AMPS[photon], SPIN_AMPS[spin])

        state, prob = _heralded_exit(res.state, [1], lossy=False)
        assert prob == pytest.approx(1.0, abs=1e-12)
        state = qs.reorder(state, [r.key for r in ref.state.registers])
        assert qs.fidelity(state, ref.state) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("photon", ["R", "L", "H"])
    def test_matches_protocol_lossy(self, photon, lossy_model):
        src = circuits.load("cnot").replace("state R", f"state {photon}")
        res = compile_circuit(parse(src)).run(lossy_model)
        ref = proto.cnot(PHOTON_AMPS[photon], SPIN_AMPS["Plus"], lossy_model)

        state, prob = _heralded_exit(res.state, [1], lossy=True)
        assert prob == pytest.approx(ref.success_probability, abs=1e-12)
        state = qs.reorder(state, [r.key for r in ref.state.registers])
        assert qs.fidelity(state, ref.state) == pytest.approx(1.0, abs=1e-12)

    def test_two_photon_stream(self, lossy_model):
        extra = "input photon 2 port A state H\n"
        src = circuits.load("cnot").replace("state R", "state H").replace(
            "input spin", extra + "input spin"
        )
        for model, lossy in ((None, False), (lossy_model, True)):
            res = compile_circuit(parse(src)).run(model)
            ref = proto.entangle_stream([PHOTON_AMPS["H"]] * 2, SPIN_AMPS["Plus"], model)

            state, prob = _heralded_exit(res.state, [1, 2], lossy)
            assert prob == pytest.approx(ref.success_probability, abs=1e-12)
            state = qs.reorder(state, [r.key for r in ref.state.registers])
            assert qs.fidelity(state, ref.state) == pytest.approx(1.0, abs=1e-12)

    def test_distribution_is_measured_in_declared_bases(self):
        res = compile_circuit(parse(circuits.load("cnot"))).run()
        assert res.bases.pol == {1: "RL"}
        assert res.bases.ports == frozenset({1})
        assert res.bases.spin == "UpDown"
        want = {(("D", "R"), "Up"): 0.5, (("D", "L"), "Down"): 0.5}
        got = {
            ((rec.photon(1).port, rec.photon(1).pol), rec.spin): p
            for rec, p in res.distribution.items()
        }
        assert got.keys() == want.keys()
        for key, p in want.items():
            assert got[key] == pytest.approx(p, abs=1e-12)


def _dense_run(compiled, model):
    """A compiled circuit on the full state: spin, then each photon's pol, path
    at its entry port and (lossy, with a cavity) an Alive flag, tensored up
    front; then the plan step by step for each photon in id order."""
    lossy = not model.is_lossless and any(
        op in ("scatter", "loop_cavity") for op, _, _ in compiled.plan
    )
    pieces = []
    for inp in compiled.source.inputs:
        if isinstance(inp, ast.SpinInput):
            pieces.append(qs.StateVector((qs.spin(),), SPIN_AMPS[inp.state]))
            continue
        if len(inp.photons) == 1:
            pol = qs.polarization(inp.photons[0])
            pieces.append(qs.StateVector((pol,), PHOTON_AMPS[inp.state]))
        else:
            pieces.append(proto.BellState.from_label(inp.state).state(inp.photons))
        for pid in inp.photons:
            pieces.append(basis_state([qs.path(pid, compiled.ports)], [inp.port]))
            if lossy:
                pieces.append(basis_state([qs.loss_flag(pid)], ["Alive"]))
    state = tensor(*pieces)
    order = [(RegisterKind.SPIN, 0)] if compiled.has_spin else []
    for pid in compiled.photon_ids:
        order += [(RegisterKind.POLARIZATION, pid), (RegisterKind.PATH, pid)]
        order += [(RegisterKind.LOSS_FLAG, pid)] if lossy else []
    state = qs.reorder(state, order)
    for pid in compiled.photon_ids:
        state = run_plan(state, compiled.plan, model, pid)
    return state


_ALL_CIRCUITS = [(name, circuits.load(name)) for name in ("cnot", "bsa")]
_ALL_CIRCUITS += [(path.stem, path.read_text()) for path in VALID]
# a second photon entering the gate's loop through its other splitter input
_ALL_CIRCUITS.append((
    "cnot_two_ports",
    circuits.load("cnot").replace("input spin", "input photon 2 port D state H\ninput spin"),
))


@pytest.mark.parametrize("lossy", [False, True], ids=["ideal", "lossy"])
@pytest.mark.parametrize("src", [s for _, s in _ALL_CIRCUITS], ids=[n for n, _ in _ALL_CIRCUITS])
def test_run_matches_dense_oracle(src, lossy, lossy_model):
    model = lossy_model if lossy else InteractionModel.ideal()
    compiled = compile_circuit(parse(src))
    res = compiled.run(model)
    dense = _dense_run(compiled, model)
    assert res.state.registers == dense.registers
    assert np.abs(res.state.amps - dense.amps).max() <= 1e-12
    want = meas.enumerate_outcomes(dense, compiled.bases())
    assert set(res.distribution) == set(want)
    for rec, p in want.items():
        assert res.distribution[rec] == pytest.approx(p, abs=1e-12)


_PI_FRACTIONS = [sign * math.pi / n for sign in (1, -1) for n in range(1, 13)]
# any finite angle, plus the ±π/n the printer spells by name and their next floats up
_ANGLES = st.one_of(
    st.floats(-4 * math.pi, 4 * math.pi, allow_nan=False),
    st.sampled_from(_PI_FRACTIONS),
    st.sampled_from(_PI_FRACTIONS).map(lambda v: math.nextafter(v, math.inf)),
)


@st.composite
def _feed_forward_circuits(draw) -> ast.Circuit:
    """One or two photons on port P; in-place plates on P; optionally a cpbs
    split to fresh ports closed by an in-place bs; optionally one scattering
    cavity, with a spin input and a spin measurement."""
    comps = []
    for i in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(("hwp", "phase", "mirror")))
        params = tuple(ast.Param(name, draw(_ANGLES)) for name in ast.KIND_PARAMS[kind])
        comps.append(ast.Component(f"plate{i}", kind, params, ("P",), ("P",)))
    port = "P"
    if draw(st.booleans()):
        comps.append(ast.Component("split", "cpbs", (), ("P",), ("A", "B")))
        comps.append(ast.Component("mix", "bs", (), ("A", "B"), ("A", "B")))
        port = draw(st.sampled_from(("A", "B")))
    cavity = draw(st.booleans())
    if cavity:
        comps.append(ast.Component("dot", "cavity", (), (port,), ("Refl", "Trans")))

    n_photons = draw(st.integers(1, 2))
    if n_photons == 2 and draw(st.booleans()):
        inputs = [ast.PhotonInput((1, 2), "P", draw(st.sampled_from(ast.PAIR_STATES)))]
    else:
        inputs = [
            ast.PhotonInput((pid,), "P", draw(st.sampled_from(ast.PHOTON_STATES)))
            for pid in range(1, n_photons + 1)
        ]
    measures = []
    for pid in range(1, n_photons + 1):
        if draw(st.booleans()):
            measures.append(ast.PolMeasure(pid, draw(st.sampled_from(ast.POL_BASES))))
        if draw(st.booleans()):
            measures.append(ast.PortMeasure(pid))
    if cavity:
        inputs.append(ast.SpinInput(draw(st.sampled_from(ast.SPIN_STATES))))
        measures.append(ast.SpinMeasure(draw(st.sampled_from(ast.SPIN_BASES))))
    return ast.Circuit(components=tuple(comps), inputs=tuple(inputs), measures=tuple(measures))


@settings(max_examples=50, deadline=None)
@given(circ=_feed_forward_circuits(), q2=st.floats(0.3, 1.0), fp=st.floats(0.5, 30.0))
def test_random_feed_forward_circuits_run_and_round_trip(circ, q2, fp):
    text = pretty_print(circ)
    assert parse(text) == circ, text
    compiled = compile_circuit(circ)
    lossy = InteractionModel.from_contrast(ContrastParams(q_ratio_sq=q2, purcell=fp))
    flags = {
        "ideal": [],
        "lossy": ["--model", "lossy", "--q-ratio-sq", repr(q2), "--purcell", repr(fp)],
    }
    with tempfile.TemporaryDirectory() as tmp:
        path, out = pathlib.Path(tmp, "random.qc"), pathlib.Path(tmp, "out.json")
        path.write_text(text)
        for name, model in (("ideal", InteractionModel.ideal()), ("lossy", lossy)):
            dist = compiled.run(model).distribution
            assert dist.total() == pytest.approx(1.0, abs=1e-12)
            want = outcomes_by_entry(_dense_run(compiled, model), compiled.bases())
            assert total_variation(dist, dict(want)) <= 1e-12

            argv = ["run", str(path), "--format", "json", "--out", str(out), *flags[name]]
            assert cli.main(argv) == 0
            rows = json.loads(out.read_text())["rows"]
            assert [outcome for outcome, _ in rows] == sorted(str(rec) for rec in dist)
            by_name = {str(rec): p for rec, p in dist.items()}
            for outcome, p in rows:
                assert p == pytest.approx(by_name[outcome], abs=1e-12)


class TestRunAnalyzer:
    @pytest.mark.parametrize("pair", sorted(ast.PAIR_STATES))
    def test_matches_protocol(self, pair):
        src = circuits.load("bsa").replace("state PsiPlus", f"state {pair}")
        res = compile_circuit(parse(src)).run()
        ref = proto.bsa(proto.BellState.from_label(pair).state((1, 2)))

        assert set(res.distribution) == set(ref.distribution)
        for rec, p in ref.distribution.items():
            assert res.distribution[rec] == pytest.approx(
                p * ref.success_probability, abs=1e-12
            )
        assert ref.success_probability == pytest.approx(1.0, abs=1e-12)

    def test_matches_protocol_lossy(self, lossy_model):
        res = compile_circuit(parse(circuits.load("bsa"))).run(lossy_model)
        ref = proto.bsa(proto.BellState.PSI_PLUS.state((1, 2)), lossy_model)

        kept = {
            rec: p
            for rec, p in res.distribution.items()
            if not any(out.lost for _, out in rec.photons)
        }
        for rec in kept:
            assert {out.port for _, out in rec.photons} <= {"C", "D"}
        success = sum(kept.values())
        assert success == pytest.approx(ref.success_probability, abs=1e-12)
        assert set(kept) == set(ref.distribution)
        for rec, p in kept.items():
            assert p / success == pytest.approx(ref.distribution[rec], abs=1e-12)

    def test_every_ideal_outcome_classifies_its_input(self):
        for pair, bell in (
            ("PsiPlus", proto.BellState.PSI_PLUS),
            ("PhiMinus", proto.BellState.PHI_MINUS),
        ):
            src = circuits.load("bsa").replace("state PsiPlus", f"state {pair}")
            res = compile_circuit(parse(src)).run()
            for rec in res.distribution:
                assert proto.classify_outcome(rec) is bell
