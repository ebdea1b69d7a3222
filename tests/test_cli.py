"""Command-line interface: formats, exit codes, determinism."""

import csv
import io
import json
import math

import pytest

from spinphoton.cavity import quality_ratio_from_losses
from spinphoton.cli import main


def _csv_rows(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


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
        # finite input, but Γ/(2Δω) overflows at subnormal detunings, so the
        # ξ-derived cells are NaN: no JSON is written, the run fails
        argv = ["sweep-delta", "--min", "1e-320", "--max", "2e-320", "--points", "2",
                "--g", "1", "--format", "json"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")


class TestRun:
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

    def test_unknown_circuit_fails(self, capsys):
        assert main(["run", "nope"]) == 1
        assert "no file or bundled circuit" in capsys.readouterr().err

    def test_parse_error_fails_with_position(self, tmp_path, capsys):
        path = tmp_path / "bad.qc"
        path.write_text("component x junk in=[A] out=[B]\n")
        assert main(["run", str(path)]) == 1
        assert "1:13: Semantic" in capsys.readouterr().err

    def test_samples_need_seed(self):
        with pytest.raises(SystemExit) as e:
            main(["run", "cnot", "--samples", "10"])
        assert e.value.code == 2

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
