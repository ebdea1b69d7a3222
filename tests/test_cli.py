"""Command-line interface: formats, exit codes, determinism."""

import csv
import io
import json
import math
import re
import tracemalloc
from importlib import resources

import pytest

from spinphoton import circuits, cli
from spinphoton import measurement as meas
from spinphoton.cavity import quality_ratio_from_losses
from spinphoton.cli import main


def _csv_rows(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def _call(argv: list[str], capsys) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process call, usage errors included."""
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _bundled_bytes(name: str) -> bytes:
    """The bytes of a bundled circuit file, as shipped."""
    return resources.files(circuits).joinpath(f"{name}.qc").read_bytes()


class TestGateTable:
    def test_ideal_is_controlled_flip(self, capsys):
        assert main(["cnot-table"]) == 0
        header, rows = _csv_rows(capsys.readouterr().out)
        assert header == ["input", "output", "amp_re", "amp_im", "prob"]
        assert len(rows) == 16
        ones = {(r[0], r[1]) for r in rows if float(r[4]) > 0.5}
        assert ones == {
            ("R_Up", "R_Up"),
            ("R_Down", "L_Down"),
            ("L_Up", "L_Up"),
            ("L_Down", "R_Down"),
        }
        for r in rows:
            expected = 1.0 if (r[0], r[1]) in ones else 0.0
            assert float(r[4]) == pytest.approx(expected, abs=1e-12)

    def test_lossy_probabilities_shrink(self, capsys):
        assert main(["cnot-table", "--model", "lossy"]) == 0
        _, rows = _csv_rows(capsys.readouterr().out)
        by_input: dict[str, float] = {}
        for r in rows:
            by_input[r[0]] = by_input.get(r[0], 0.0) + float(r[4])
        assert set(by_input) == {"R_Up", "R_Down", "L_Up", "L_Down"}
        for total in by_input.values():
            assert 0.0 < total < 1.0


class TestAnalyzerTable:
    def test_ideal_classification_is_exact(self, capsys):
        assert main(["bsa-table"]) == 0
        header, rows = _csv_rows(capsys.readouterr().out)
        assert len(rows) == 32  # 4 Bell states x 8 coincidence patterns
        for r in rows:
            assert r[header.index("classified_as")] == r[0]
            assert float(r[header.index("probability")]) == pytest.approx(0.125, abs=1e-12)
            assert float(r[header.index("heralded_weight")]) == pytest.approx(1.0, abs=1e-12)


class TestGhz:
    def test_ideal_branches(self, capsys):
        assert main(["ghz", "-n", "4"]) == 0
        header, rows = _csv_rows(capsys.readouterr().out)
        assert [r[0] for r in rows] == ["Minus", "Plus"]
        for r in rows:
            assert float(r[header.index("success_probability")]) == pytest.approx(0.5, abs=1e-12)
            assert float(r[header.index("fidelity")]) == pytest.approx(1.0, abs=1e-12)

    def test_photon_count_validated(self):
        with pytest.raises(SystemExit) as e:
            main(["ghz", "-n", "0"])
        assert e.value.code == 2


class TestSweep:
    def test_grid_and_flag(self, capsys):
        assert main(["sweep-delta", "--points", "21"]) == 0
        header, rows = _csv_rows(capsys.readouterr().out)
        assert len(rows) == 21
        flags = [r[header.index("operating_point")] for r in rows]
        assert flags.count("1") == 1
        for r in rows:
            refl = float(r[header.index("reflect_prob")])
            trans = float(r[header.index("transmit_prob")])
            assert refl + trans == pytest.approx(1.0, abs=1e-12)

    def test_too_many_points_are_refused_before_allocating(self, capsys):
        tracemalloc.start()
        try:
            with pytest.raises(SystemExit) as e:
                main(["sweep-delta", "--points", "1000000000000"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert e.value.code == 2
        assert f"at most {cli.MAX_POINTS}" in capsys.readouterr().err
        assert peak < 1 << 20

    def test_on_resonance_cell_is_blank(self, capsys):
        assert main(["sweep-delta", "--min", "-1", "--max", "1", "--points", "3"]) == 0
        header, rows = _csv_rows(capsys.readouterr().out)
        centre = rows[1]
        assert float(centre[header.index("delta_omega")]) == 0.0
        assert centre[header.index("xi_re")] == ""
        assert float(centre[header.index("reflect_prob")]) == pytest.approx(1.0)


class TestNonFinite:
    def test_infinite_model_parameter_is_refused(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["ghz", "-n", "3", "--model", "lossy", "--purcell", "inf", "--format", "json"])
        assert e.value.code == 2
        assert "finite" in capsys.readouterr().err

    def test_nan_sweep_bound_is_refused(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["sweep-delta", "--min", "nan", "--points", "3", "--format", "json"])
        assert e.value.code == 2
        assert "finite" in capsys.readouterr().err

    def test_non_finite_result_is_an_error_not_json(self, capsys):
        # finite input, but both terms of ξ overflow at a subnormal detuning
        # with a huge δ/κ, so ξ = inf − inf has no value: no JSON is written,
        # the run fails
        argv = ["sweep-delta", "--min", "1e-320", "--max", "2e-320", "--points", "2",
                "--g", "1", "--kappa", "1e-10", "--delta", "1e308", "--format", "json"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_overflowing_xi_is_the_perfect_reflection_limit(self, fmt, capsys):
        # Γ/(2Δω) overflows at subnormal detunings: r = 1, t = 0, blank ξ
        argv = ["sweep-delta", "--min", "1e-320", "--max", "2e-320", "--points", "2",
                "--g", "1", "--format", fmt]
        assert main(argv) == 0
        out = capsys.readouterr().out
        if fmt == "json":
            doc = json.loads(out)
            header, rows = doc["columns"], doc["rows"]
        else:
            assert "nan" not in out.lower()
            header, rows = _csv_rows(out)
        assert len(rows) == 2
        for row in rows:
            assert float(row[header.index("r_re")]) == 1.0
            assert float(row[header.index("t_re")]) == 0.0
            assert row[header.index("xi_re")] in ("", None)


    def test_overflowing_hwp_angle_is_one_error_line(self, tmp_path, capsys):
        # 2θ overflows: refused by the element before numpy warns
        qc = tmp_path / "hwp.qc"
        qc.write_text(
            "component h hwp(theta=1e308) in=[P] out=[P]\n"
            "input photon 1 port P state R\n"
            "measure photon 1 pol basis RL\n"
        )
        code, out, err = _call(["run", str(qc)], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "theta" in err

    @pytest.mark.parametrize("value", ["1e400", "pi/0", "pi/1e-320"])
    def test_non_finite_angle_in_a_circuit_is_located(self, value, tmp_path, capsys):
        qc = tmp_path / "phase.qc"
        qc.write_text(f"component p phase(phi={value}) in=[P] out=[P]\n")
        code, out, err = _call(["run", str(qc)], capsys)
        assert code == 1
        assert err.startswith("error: 1:") and "not a finite number" in err
        assert err.count("\n") == 1


class TestStateBudget:
    def test_oversized_ghz_fails_before_allocating(self, capsys):
        for photons in (40, 10**7):
            tracemalloc.start()
            try:
                code = main(["ghz", "-n", str(photons), "--model", "lossy"])
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert code == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error:")
            assert captured.err.count("\n") == 1
            assert f"2^{photons + 1}" in captured.err
            assert peak < 1 << 20


def test_an_internal_key_error_is_not_a_user_error(monkeypatch):
    # no user input reaches a KeyError, so one is a bug and is not caught
    def broken(*args, **kwargs):
        raise KeyError("internal")

    monkeypatch.setattr(cli.proto, "ghz", broken)
    with pytest.raises(KeyError, match="internal"):
        main(["ghz", "-n", "2"])


class TestRun:
    @pytest.mark.parametrize("n", [7, 24, 40])
    def test_oversized_circuit_is_refused_with_the_budget(self, n, tmp_path, capsys):
        # n lossy photons through the analyzer's five ports need 2·(2·5·2)^n
        # amplitudes, ≈ 2.6e9 for seven; the refusal builds nothing of that size
        photons = "".join(f"input photon {k} port In state R\n" for k in range(1, n + 1))
        src = circuits.load("bsa").replace("input photons 1 2 port In state PsiPlus\n", photons)
        assert photons in src
        path = tmp_path / "many.qc"
        path.write_text(src)
        tracemalloc.start()
        try:
            code = main(["run", str(path), "--model", "lossy"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert f"{n} photons need a state of {2 * 20**n} amplitudes" in captured.err
        assert "budget" in captured.err
        assert peak < 1 << 20

    def test_bundled_circuit(self, capsys):
        assert main(["run", "cnot"]) == 0
        header, rows = _csv_rows(capsys.readouterr().out)
        assert header == ["outcome", "probability"]
        got = {r[0]: float(r[1]) for r in rows}
        assert got == {
            "1=D:L spin=Down": pytest.approx(0.5, abs=1e-12),
            "1=D:R spin=Up": pytest.approx(0.5, abs=1e-12),
        }

    def test_circuit_file(self, tmp_path, capsys):
        path = tmp_path / "mine.qc"
        path.write_text(
            "component m mirror in=[P] out=[P]\n"
            "input photon 1 port P state H\n"
            "measure photon 1 pol basis HV\n"
        )
        assert main(["run", str(path)]) == 0
        _, rows = _csv_rows(capsys.readouterr().out)
        # mirror maps H -> -H: still a single H click
        assert [r[0] for r in rows] == ["1=H"]
        assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "extra, csv_row, json_row",
        [([], "-,1", ["-", 1.0]), (["--samples", "3", "--seed", "1"], "-,1,3", ["-", 1.0, 3])],
        ids=["exact", "sampled"],
    )
    def test_circuit_that_measures_nothing_prints_a_dash(
        self, extra, csv_row, json_row, tmp_path, capsys
    ):
        path = tmp_path / "dark.qc"
        path.write_text(
            "component p phase(phi=1) in=[P] out=[P]\n"
            "input photon 1 port P state R\n"
        )
        assert main(["run", str(path), *extra]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [csv_row]
        assert main(["run", str(path), "--format", "json", *extra]) == 0
        assert json.loads(capsys.readouterr().out)["rows"] == [json_row]

    def test_unknown_circuit_fails(self, capsys):
        assert main(["run", "nope"]) == 1
        assert "no file or bundled circuit" in capsys.readouterr().err

    def test_parse_error_fails_with_position(self, tmp_path, capsys):
        path = tmp_path / "bad.qc"
        path.write_text("component x junk in=[A] out=[B]\n")
        assert main(["run", str(path)]) == 1
        assert "1:13: Semantic" in capsys.readouterr().err

    def test_a_directory_does_not_hide_a_bundled_circuit(self, tmp_path, monkeypatch, capsys):
        assert main(["run", "cnot"]) == 0
        want = capsys.readouterr().out
        (tmp_path / "cnot").mkdir()
        monkeypatch.chdir(tmp_path)
        assert _call(["run", "cnot"], capsys) == (0, want, "")

    def test_a_leading_byte_order_mark_is_dropped(self, tmp_path, capsys):
        assert main(["run", "cnot"]) == 0
        want = capsys.readouterr().out
        path = tmp_path / "cnot-bom.qc"
        path.write_bytes(b"\xef\xbb\xbf" + _bundled_bytes("cnot"))
        assert _call(["run", str(path)], capsys) == (0, want, "")

    def test_a_byte_order_mark_in_a_line_is_a_lex_error(self, tmp_path, capsys):
        lines = _bundled_bytes("cnot").splitlines(keepends=True)
        at = lines.index(b"input photon 1 port A state R\n")
        lines[at] = b"input photon 1 \xef\xbb\xbfport A state R\n"
        path = tmp_path / "cnot-mid-bom.qc"
        path.write_bytes(b"".join(lines))
        code, out, err = _call(["run", str(path)], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: {at + 1}:16: Lex: unexpected character '\\ufeff'\n"

    def test_samples_need_seed(self):
        with pytest.raises(SystemExit) as e:
            main(["run", "cnot", "--samples", "10"])
        assert e.value.code == 2

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["--samples", "-5", "--seed", "1"], "--samples"),
            (["--samples", "0", "--seed", "1"], "--samples"),
            (["--samples", "10", "--seed", "-1"], "--seed"),
            (["--samples", "100000000000000000000000000000", "--seed", "1"], "--samples"),
        ],
        ids=["negative-samples", "zero-samples", "negative-seed", "samples-over-int64"],
    )
    def test_bad_sample_count_or_seed_is_a_usage_error(self, argv, option, capsys):
        code, out, err = _call(["run", "cnot", *argv], capsys)
        assert code == 2
        assert out == ""
        assert f"error: {option} must be" in err

    def test_sampled_run_enumerates_outcomes_once(self, monkeypatch, capsys):
        calls = []
        enumerate_outcomes = meas.enumerate_outcomes

        def counted(*args, **kwargs):
            calls.append(args)
            return enumerate_outcomes(*args, **kwargs)

        monkeypatch.setattr(meas, "enumerate_outcomes", counted)
        assert main(["run", "bsa", "--model", "lossy", "--samples", "100", "--seed", "2"]) == 0
        assert len(calls) == 1
        _, rows = _csv_rows(capsys.readouterr().out)
        assert sum(int(r[2]) for r in rows) == 100

    @pytest.mark.parametrize("samples", [[], ["--samples", "100", "--seed", "2"]], ids=["exact", "sampled"])
    def test_run_forms_each_record_string_once(self, samples, monkeypatch, capsys):
        formed = []
        record_str = meas.OutcomeRecord.__str__

        def counted(record):
            formed.append(record)
            return record_str(record)

        monkeypatch.setattr(meas.OutcomeRecord, "__str__", counted)
        assert main(["run", "bsa", "--model", "lossy", *samples]) == 0
        _, rows = _csv_rows(capsys.readouterr().out)
        assert len(formed) == len(rows) == len(set(formed))
        assert [r[0] for r in rows] == sorted(r[0] for r in rows)

    def test_sampling_is_deterministic(self, capsys):
        assert main(["run", "cnot", "--samples", "1000", "--seed", "11"]) == 0
        first = capsys.readouterr().out
        assert main(["run", "cnot", "--samples", "1000", "--seed", "11"]) == 0
        assert capsys.readouterr().out == first
        header, rows = _csv_rows(first)
        assert header == ["outcome", "probability", "count"]
        assert sum(int(r[2]) for r in rows) == 1000

    def test_out_writes_file(self, tmp_path, capsys):
        target = tmp_path / "table.csv"
        assert main(["run", "bsa", "--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        header, rows = _csv_rows(target.read_text())
        assert len(rows) == 8


class TestJsonFormat:
    def test_envelope(self, capsys):
        assert main(["run", "cnot", "--format", "json", "--samples", "5",
                     "--seed", "3", "--model", "lossy"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema_version"] == 1
        assert doc["command"] == "run"
        assert doc["seed"] == 3
        assert doc["rng"] == "numpy-pcg64"
        assert doc["model"]["mode"] == "lossy"
        assert doc["model"]["q_ratio_sq"] == pytest.approx(0.8)
        assert doc["model"]["purcell"] == pytest.approx(6.0)
        assert doc["columns"] == ["outcome", "probability", "count"]
        assert all(len(row) == 3 for row in doc["rows"])

    def test_model_defaults_give_reference_contrast(self, capsys):
        assert main(["ghz", "--model", "lossy", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["model"]["contrast"] == pytest.approx(38.4 / 49.0, abs=1e-12)


class TestModelFlags:
    def test_alpha_flags_derive_quality_ratio(self, capsys):
        assert main([
            "ghz", "--model", "lossy", "--format", "json",
            "--alpha-mirror", "13.9", "--alpha-scatter", "1.7",
            "--alpha-radiation", "0.0017",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        want = quality_ratio_from_losses(13.9, 1.7, 0.0017)
        assert doc["model"]["q_ratio_sq"] == pytest.approx(want, abs=1e-15)

    def test_alpha_flags_require_lossy(self):
        with pytest.raises(SystemExit) as e:
            main(["ghz", "--alpha-mirror", "1.0"])
        assert e.value.code == 2

    def test_alpha_flags_all_or_none(self):
        with pytest.raises(SystemExit) as e:
            main(["ghz", "--model", "lossy", "--alpha-mirror", "1.0"])
        assert e.value.code == 2


    @pytest.mark.parametrize(
        "alphas, name",
        [(("1", "0.5", "-0.4"), "alpha_radiation"), (("1", "-0.2", "0.1"), "alpha_scatter"),
         (("0", "0.5", "0.1"), "alpha_mirror")],
    )
    def test_bad_loss_coefficient_is_named(self, alphas, name, capsys):
        argv = ["cnot-table", "--model", "lossy", "--alpha-mirror", alphas[0],
                "--alpha-scatter", alphas[1], "--alpha-radiation", alphas[2]]
        code, out, err = _call(argv, capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert name in err


_MODEL_OPTIONS = ["--model", "--q-ratio-sq", "--purcell", "--alpha-mirror", "--alpha-scatter",
                  "--alpha-radiation"]
_OUTPUT_OPTIONS = ["--format", "--out"]


class TestHelp:
    OPTIONS = {
        "cnot-table": [*_MODEL_OPTIONS, *_OUTPUT_OPTIONS],
        "bsa-table": [*_MODEL_OPTIONS, *_OUTPUT_OPTIONS],
        "ghz": ["-n", "--photons", *_MODEL_OPTIONS, *_OUTPUT_OPTIONS],
        "sweep-delta": ["--kappa", "--g", "--delta", "--min", "--max", "--points",
                        *_OUTPUT_OPTIONS],
        "run": ["--samples", "--seed", *_MODEL_OPTIONS, *_OUTPUT_OPTIONS],
    }

    @pytest.mark.parametrize("command", OPTIONS)
    def test_help_names_each_option(self, command, capsys):
        code, out, err = _call([command, "--help"], capsys)
        assert (code, err) == (0, "")
        named = set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", out))
        assert named == {"-h", "--help", *self.OPTIONS[command]}
        if command == "run":
            assert "\npositional arguments:\n  circuit " in out


class TestFaultOrder:
    """A command's own arguments are checked before the model is built."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["ghz", "-n", "0", "--model", "lossy", "--q-ratio-sq", "2"],
             "--photons must be at least 1"),
            (["run", "cnot", "--samples", "0", "--seed", "1", "--alpha-mirror", "1"],
             f"--samples must be at least 1 and at most {meas.MAX_SHOTS}"),
        ],
        ids=["ghz-photons", "run-samples"],
    )
    def test_the_command_argument_is_reported_not_the_model(self, argv, message, capsys):
        code, out, err = _call(argv, capsys)
        assert (code, out) == (2, "")
        assert err.endswith(f"\nspinphoton: error: {message}\n")


class TestParserReuse:
    """The parser is built once per process; no call may leak into the next."""

    ALPHAS = ["--alpha-mirror", "13.9", "--alpha-scatter", "1.7", "--alpha-radiation", "0.0017"]
    SEQUENCE = [
        ["run", "cnot", "--samples", "5", "--seed", "1", "--format", "json"],
        ["run", "cnot", "--format", "json"],
        ["ghz", "-n", "5", "--format", "json"],
        ["ghz", "--format", "json"],
        ["cnot-table", "--model", "lossy", *ALPHAS, "--format", "json"],
        ["cnot-table", "--model", "lossy", "--format", "json"],
        ["run", "cnot", "--samples", "0", "--seed", "1"],
        ["run", "bsa", "--model", "lossy"],
    ]

    def test_built_once(self):
        assert cli._make_parser() is cli._make_parser()

    def test_each_call_matches_a_fresh_parser(self, monkeypatch, capsys):
        reused = [_call(argv, capsys) for argv in self.SEQUENCE]
        fresh = []
        for argv in self.SEQUENCE:
            with monkeypatch.context() as m:
                m.setattr(cli, "_make_parser", cli._make_parser.__wrapped__)
                fresh.append(_call(argv, capsys))
        assert reused == fresh

        codes = [code for code, _, _ in reused]
        assert codes == [0, 0, 0, 0, 0, 0, 2, 0]
        docs = [json.loads(out) for _, out, _ in reused[:6]]
        assert docs[0]["columns"][-1] == "count" and docs[0]["seed"] == 1
        assert docs[1]["columns"] == ["outcome", "probability"]
        assert docs[1]["seed"] is None and docs[1]["rng"] is None
        assert {row[1] for row in docs[2]["rows"]} == {5}
        assert {row[1] for row in docs[3]["rows"]} == {3}
        want = quality_ratio_from_losses(13.9, 1.7, 0.0017)
        assert docs[4]["model"]["q_ratio_sq"] == pytest.approx(want, abs=1e-15)
        assert docs[5]["model"]["q_ratio_sq"] == 0.8
        assert reused[6][1] == "" and "--samples" in reused[6][2]
        header, rows = _csv_rows(reused[7][1])
        assert header == ["outcome", "probability"] and rows
