"""Command-line front end.

    spinphoton cnot-table [--model lossy ...]
    spinphoton bsa-table  [--model lossy ...]
    spinphoton ghz -n 4   [--model lossy ...]
    spinphoton sweep-delta --kappa 1.0 --g 0.5 --points 61
    spinphoton run cnot --samples 1000 --seed 7

Every command emits a flat table, as CSV (default) or as a JSON document

    {"schema_version": 1, "command": ..., "model": ..., "seed": ...,
     "rng": ..., "columns": [...], "rows": [[...], ...]}

Real-valued options must be finite numbers; ``run --samples`` must lie in
[1, 2^63 - 1], ``--seed`` must be non-negative and ``sweep-delta --points``
must lie in [2, :data:`MAX_POINTS`].  Exit codes: 0 on success,
1 when the input or circuit is at fault (or a result is not finite, which
JSON cannot carry), 2 for bad command lines.

The argument parser is built once per process, on the first :func:`main`
call, and reused: it holds only immutable defaults, and every call parses
into a fresh namespace.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import pathlib
import sys

import numpy as np

from . import circuits
from . import measurement as meas
from . import protocols as proto
from .cavity import (
    CavityParams,
    ContrastParams,
    InteractionModel,
    scatter_coefficients,
    transmission_contrast,
)
from .dsl import CircuitError, ParseError, compile_circuit, parse

SCHEMA_VERSION = 1

#: Most grid points ``sweep-delta`` takes; each costs one ``CavityParams``,
#: its coefficients and one output row.
MAX_POINTS = 10**6

_GATE_LABELS = ("R_Up", "R_Down", "L_Up", "L_Down")
_BELL_LABELS = ("psi+", "psi-", "phi+", "phi-")


# ---------------------------------------------------------------------------
# model and output plumbing
# ---------------------------------------------------------------------------


def _finite_float(text: str) -> float:
    """argparse type for real-valued options: NaN and infinities are refused."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _add_model_args(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("interaction model")
    g.add_argument("--model", choices=("ideal", "lossy"), default="ideal")
    g.add_argument("--q-ratio-sq", type=_finite_float, default=0.8, metavar="Q2",
                   help="(Q/Q0)^2 of the loaded cavity (lossy model)")
    g.add_argument("--purcell", type=_finite_float, default=6.0, metavar="FP",
                   help="Purcell factor of the coupled emitter (lossy model)")
    g.add_argument("--alpha-mirror", type=_finite_float, metavar="A",
                   help="mirror transmission loss (overrides --q-ratio-sq)")
    g.add_argument("--alpha-scatter", type=_finite_float, metavar="A",
                   help="mirror scattering/absorption loss")
    g.add_argument("--alpha-radiation", type=_finite_float, metavar="A",
                   help="radiation leakage loss")


def _add_output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", type=pathlib.Path, metavar="PATH",
                   help="write to a file instead of stdout")


def _build_model(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> tuple[InteractionModel, dict]:
    alphas = (args.alpha_mirror, args.alpha_scatter, args.alpha_radiation)
    if any(a is not None for a in alphas):
        if args.model != "lossy":
            parser.error("--alpha-* options require --model lossy")
        if not all(a is not None for a in alphas):
            parser.error(
                "give all three of --alpha-mirror, --alpha-scatter, --alpha-radiation"
            )
        params = ContrastParams.from_losses(*alphas, purcell=args.purcell)
    else:
        params = ContrastParams(q_ratio_sq=args.q_ratio_sq, purcell=args.purcell)
    if args.model == "ideal":
        return InteractionModel.ideal(), {"mode": "ideal"}
    info = {
        "mode": "lossy",
        "q_ratio_sq": params.q_ratio_sq,
        "purcell": params.purcell,
        "contrast": transmission_contrast(params),
    }
    return InteractionModel.from_contrast(params), info


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.12g" % value
    return str(value)


def _json_cell(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value


def _emit(
    args: argparse.Namespace,
    command: str,
    columns: list[str],
    rows: list[list],
    *,
    model_info: dict | None = None,
    seed: int | None = None,
    rng: str | None = None,
) -> None:
    if args.format == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "model": model_info,
            "seed": seed,
            "rng": rng,
            "columns": columns,
            "rows": [[_json_cell(v) for v in row] for row in rows],
        }
        text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    else:
        lines = [",".join(columns)]
        lines.extend(",".join(_csv_cell(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    if args.out is not None:
        args.out.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_cnot_table(args, parser) -> int:
    model, info = _build_model(args, parser)
    mat = proto.cnot_gate_matrix(model)
    rows = []
    for j, col_label in enumerate(_GATE_LABELS):
        for i, row_label in enumerate(_GATE_LABELS):
            amp = mat[i, j]
            rows.append(
                [col_label, row_label, amp.real, amp.imag, abs(amp) ** 2]
            )
    _emit(args, "cnot-table", ["input", "output", "amp_re", "amp_im", "prob"],
          rows, model_info=info)
    return 0


def _cmd_bsa_table(args, parser) -> int:
    model, info = _build_model(args, parser)
    rows = []
    for label in _BELL_LABELS:
        bell = proto.BellState.from_label(label)
        result = proto.bsa(bell.state((1, 2)), model)
        for rec in sorted(result.distribution, key=str):
            p1, p2 = rec.photon(1), rec.photon(2)
            rows.append([
                label, rec.spin, p1.port, p1.pol, p2.port, p2.pol,
                result.distribution[rec],
                proto.classify_outcome(rec).value,
                result.success_probability,
            ])
    _emit(
        args, "bsa-table",
        ["input", "spin", "port_1", "pol_1", "port_2", "pol_2",
         "probability", "classified_as", "heralded_weight"],
        rows, model_info=info,
    )
    return 0


def _cmd_ghz(args, parser) -> int:
    if args.photons < 1:
        parser.error("--photons must be at least 1")
    model, info = _build_model(args, parser)
    results = proto.ghz(args.photons, model)
    rows = [
        [branch, args.photons, res.success_probability, res.fidelity]
        for branch, res in sorted(results.items())
    ]
    _emit(args, "ghz", ["branch", "photons", "success_probability", "fidelity"],
          rows, model_info=info)
    return 0


def _cmd_sweep_delta(args, parser) -> int:
    if not 2 <= args.points <= MAX_POINTS:
        parser.error(f"--points must be at least 2 and at most {MAX_POINTS}")
    grid = np.linspace(args.min, args.max, args.points)
    coeffs = [
        scatter_coefficients(
            CavityParams(delta_omega=float(d), delta=args.delta,
                         kappa=args.kappa, g=args.g)
        )
        for d in grid
    ]
    finite = [abs(c.xi - 1.0) if c.xi is not None else np.inf for c in coeffs]
    operating = int(np.argmin(finite))
    rows = []
    for k, (d, c) in enumerate(zip(grid, coeffs)):
        rows.append([
            float(d),
            None if c.xi is None else c.xi.real,
            None if c.xi is None else c.xi.imag,
            c.r.real, c.r.imag, c.t.real, c.t.imag,
            abs(c.r) ** 2, abs(c.t) ** 2,
            k == operating,
        ])
    _emit(
        args, "sweep-delta",
        ["delta_omega", "xi_re", "xi_im", "r_re", "r_im", "t_re", "t_im",
         "reflect_prob", "transmit_prob", "operating_point"],
        rows,
    )
    return 0


def _cmd_run(args, parser) -> int:
    if args.samples is not None and not 1 <= args.samples <= meas.MAX_SHOTS:
        parser.error(f"--samples must be at least 1 and at most {meas.MAX_SHOTS}")
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.samples is not None and args.seed is None:
        parser.error("--samples needs an explicit --seed for reproducibility")
    model, info = _build_model(args, parser)

    path = pathlib.Path(args.circuit)
    # a directory of the same name does not hide a bundled circuit; a BOM is dropped
    if path.exists() and not path.is_dir():
        source = path.read_text(encoding="utf-8-sig")
    elif args.circuit in circuits.names():
        source = circuits.load(args.circuit)
    else:
        raise FileNotFoundError(
            f"no file or bundled circuit named {args.circuit!r} "
            f"(bundled: {', '.join(circuits.names())})"
        )

    dist = compile_circuit(parse(source)).run(model).distribution
    # every record in str order, its string formed once; the draw takes the same order
    outcomes = dist._rows()
    if args.samples is None:
        rows = [[label, p] for label, _, p in outcomes]
        _emit(args, "run", ["outcome", "probability"], rows, model_info=info)
        return 0

    counts = dist._draw(args.samples, args.seed, outcomes)
    rows = [[label, p, count] for (label, _, p), count in zip(outcomes, counts)]
    _emit(args, "run", ["outcome", "probability", "count"], rows,
          model_info=info, seed=args.seed, rng=meas.RNG_NAME)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


@functools.cache
def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinphoton",
        description="Desktop simulator for a cavity spin-photon interface.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cnot-table", help="photon-spin gate matrix")
    _add_model_args(p)
    _add_output_args(p)
    p.set_defaults(func=_cmd_cnot_table)

    p = sub.add_parser("bsa-table", help="Bell-state analyzer outcome patterns")
    _add_model_args(p)
    _add_output_args(p)
    p.set_defaults(func=_cmd_bsa_table)

    p = sub.add_parser("ghz", help="multi-photon entanglement figures")
    p.add_argument("-n", "--photons", type=int, default=3)
    _add_model_args(p)
    _add_output_args(p)
    p.set_defaults(func=_cmd_ghz)

    p = sub.add_parser("sweep-delta", help="reflection/transmission vs detuning")
    p.add_argument("--kappa", type=_finite_float, default=1.0)
    p.add_argument("--g", type=_finite_float, default=0.5, help="emitter-cavity coupling")
    p.add_argument("--delta", type=_finite_float, default=0.0, help="emitter-cavity offset")
    p.add_argument("--min", type=_finite_float, default=-3.0, help="lowest photon detuning")
    p.add_argument("--max", type=_finite_float, default=3.0, help="highest photon detuning")
    p.add_argument("--points", type=int, default=61)
    _add_output_args(p)
    p.set_defaults(func=_cmd_sweep_delta)

    p = sub.add_parser("run", help="compile and run a circuit file")
    p.add_argument("circuit", help=".qc file path or a bundled name (cnot, bsa)")
    p.add_argument("--samples", type=int, metavar="N",
                   help="also draw N detection samples")
    p.add_argument("--seed", type=int, help="RNG seed for --samples")
    _add_model_args(p)
    _add_output_args(p)
    p.set_defaults(func=_cmd_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (ParseError, CircuitError, FileNotFoundError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
