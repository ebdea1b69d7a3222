"""CLI outputs frozen as JSON files under ``tests/data/golden``.

Each file holds the JSON envelope of one command under one model, or of one
``sweep-delta`` grid (it takes no model).  A rerun must give the same labels,
columns and row order exactly, and every number to within 1e-12.  To
re-record a file after a deliberate change of output, run its command with
``--format json --out tests/data/golden/<name>.json``.
"""

import json
import pathlib

import pytest

from spinphoton.cli import main

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden"
TOL = 1e-12

COMMANDS = {
    "cnot-table": ["cnot-table"],
    "bsa-table": ["bsa-table"],
    "ghz-6": ["ghz", "-n", "6"],
    "run-cnot": ["run", "cnot"],
    "run-bsa": ["run", "bsa"],
}
CASES = [(name, model) for name in COMMANDS for model in ("ideal", "lossy")]
SWEEPS = {
    "default": [],
    "on-resonance": ["--min", "-1", "--max", "1", "--points", "3"],
    # Γ/(2Δω) overflows at a subnormal detuning: r = 1, t = 0 and a blank ξ
    "overflow": ["--min", "1e-320", "--max", "2e-320", "--points", "2", "--g", "1"],
}


def _assert_same(got, want, where: str) -> None:
    if isinstance(want, float):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), where
        assert abs(got - want) <= TOL, f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), where
        for key in want:
            _assert_same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


def _assert_matches_golden(argv: list[str], stem: str, tmp_path) -> None:
    out = tmp_path / "out.json"
    assert main(argv + ["--format", "json", "--out", str(out)]) == 0
    got = json.loads(out.read_text(encoding="utf-8"))
    want = json.loads((GOLDEN / f"{stem}.json").read_text(encoding="utf-8"))
    _assert_same(got, want, stem)


@pytest.mark.parametrize("name,model", CASES, ids=[f"{n}.{m}" for n, m in CASES])
def test_cli_output_matches_golden(name, model, tmp_path):
    _assert_matches_golden(COMMANDS[name] + ["--model", model], f"{name}.{model}", tmp_path)


@pytest.mark.parametrize("grid", SWEEPS)
def test_sweep_output_matches_golden(grid, tmp_path):
    _assert_matches_golden(["sweep-delta", *SWEEPS[grid]], f"sweep-delta.{grid}", tmp_path)
