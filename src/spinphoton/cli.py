"""Command-line front end.

    spinphoton cnot-table [--model lossy ...]
    spinphoton bsa-table  [--model lossy ...]
    spinphoton ghz -n 4   [--model lossy ...]
    spinphoton sweep-delta --kappa 1.0 --g 0.5 --points 61
    spinphoton run cnot --samples 1000 --seed 7

Each command is a function from its arguments (and the interaction model,
for those that take one) to its table: its columns and rows, plus the seed
and the generator of a sampled ``run``.  :func:`main` alone writes the table,
as CSV (default) or as a JSON document

    {"schema_version": 1, "command": ..., "model": ..., "seed": ...,
     "rng": ..., "columns": [...], "rows": [[...], ...]}

and maps errors to exit codes.  Real-valued options must be finite numbers;
``run --samples`` must lie in [1, 2^63 - 1], ``--seed`` must be
non-negative and ``sweep-delta --points`` must lie in [2, :data:`MAX_POINTS`].
Exit codes: 0 on success, 1 when the input or circuit is at fault (or a
result is not finite, which JSON cannot carry), 2 for bad command lines.  A
command's own arguments are checked before the model options, and both
before the model is built.

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
from .cavity import (CavityParams, ContrastParams, InteractionModel, scatter_coefficients,
                     transmission_contrast)
from .dsl import CircuitError, ParseError, compile_circuit, parse

SCHEMA_VERSION = 1

#: Most grid points ``sweep-delta`` takes; each costs one output row, and
#: the JSON or CSV text is built whole before it is written.
MAX_POINTS = 10**6

_GATE_LABELS = ("R_Up", "R_Down", "L_Up", "L_Down")


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


def _alphas(args: argparse.Namespace) -> tuple[float | None, ...]:
    return args.alpha_mirror, args.alpha_scatter, args.alpha_radiation


#: The usage faults of the model options, as (fault, message) pairs.
_MODEL_CHECKS = (
    (lambda args: args.model != "lossy" and _alphas(args).count(None) < 3,
     "--alpha-* options require --model lossy"),
    (lambda args: 0 < _alphas(args).count(None) < 3,
     "give all three of --alpha-mirror, --alpha-scatter, --alpha-radiation"),
)


def _build_model(args: argparse.Namespace) -> tuple[InteractionModel, dict]:
    if None in _alphas(args):
        params = ContrastParams(q_ratio_sq=args.q_ratio_sq, purcell=args.purcell)
    else:
        params = ContrastParams.from_losses(*_alphas(args), purcell=args.purcell)
    if args.model == "ideal":
        return InteractionModel.ideal(), {"mode": "ideal"}
    info = {"mode": "lossy", "q_ratio_sq": params.q_ratio_sq, "purcell": params.purcell,
            "contrast": transmission_contrast(params)}
    return InteractionModel.from_contrast(params), info


def _csv_cell(value) -> str:
    # a table holds what JSON can carry: Python scalars, and numpy's float64, a float
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return "%.12g" % value
    return str(value)


def _emit(args: argparse.Namespace, model_info: dict | None, columns: list[str], rows: list[list],
          seed: int | None = None, rng: str | None = None) -> None:
    if args.format == "json":
        doc = {"schema_version": SCHEMA_VERSION, "command": args.command, "model": model_info,
               "seed": seed, "rng": rng, "columns": columns, "rows": rows}
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

#: name -> (summary, own arguments, own checks, takes the model, table function)
_COMMANDS: dict[str, tuple] = {}


def _command(name: str, summary: str, *arguments: tuple, checks: tuple = (), model: bool = True):
    """Register a table function as the command ``name``: its own
    ``arguments`` are (flags, options) pairs for ``add_argument``, and its
    ``checks`` (fault, message) pairs, each a usage error when it holds."""
    def register(table):
        _COMMANDS[name] = (summary, arguments, checks, model, table)
        return table
    return register


def _arg(*flags: str, **options) -> tuple:
    return flags, options


@_command("cnot-table", "photon-spin gate matrix")
def _cnot_table(args, model):
    mat = proto.cnot_gate_matrix(model)
    rows = [
        [col_label, row_label, mat[i, j].real, mat[i, j].imag, abs(mat[i, j]) ** 2]
        for j, col_label in enumerate(_GATE_LABELS)
        for i, row_label in enumerate(_GATE_LABELS)
    ]
    return ["input", "output", "amp_re", "amp_im", "prob"], rows


@_command("bsa-table", "Bell-state analyzer outcome patterns")
def _bsa_table(args, model):
    rows = []
    for bell in proto.BellState:
        result = proto.bsa(bell.state(), model)
        for rec in sorted(result.distribution, key=str):
            p1, p2 = rec.photon(1), rec.photon(2)
            rows.append([
                bell.value, rec.spin, p1.port, p1.pol, p2.port, p2.pol,
                result.distribution[rec],
                proto.classify_outcome(rec).value,
                result.success_probability,
            ])
    columns = ["input", "spin", "port_1", "pol_1", "port_2", "pol_2",
               "probability", "classified_as", "heralded_weight"]
    return columns, rows


@_command(
    "ghz", "multi-photon entanglement figures",
    _arg("-n", "--photons", type=int, default=3),
    checks=((lambda args: args.photons < 1, "--photons must be at least 1"),),
)
def _ghz(args, model):
    rows = [
        [branch, args.photons, res.success_probability, res.fidelity]
        for branch, res in sorted(proto.ghz(args.photons, model).items())
    ]
    return ["branch", "photons", "success_probability", "fidelity"], rows


@_command(
    "sweep-delta", "reflection/transmission vs detuning",
    _arg("--kappa", type=_finite_float, default=1.0),
    _arg("--g", type=_finite_float, default=0.5, help="emitter-cavity coupling"),
    _arg("--delta", type=_finite_float, default=0.0, help="emitter-cavity offset"),
    _arg("--min", type=_finite_float, default=-3.0, help="lowest photon detuning"),
    _arg("--max", type=_finite_float, default=3.0, help="highest photon detuning"),
    _arg("--points", type=int, default=61),
    checks=((lambda args: not 2 <= args.points <= MAX_POINTS,
             f"--points must be at least 2 and at most {MAX_POINTS}"),),
    model=False,
)
def _sweep_delta(args, model):
    rows = []
    operating, least = 0, math.inf  # the first least |ξ − 1|, ∞ where ξ is undefined
    for k, d in enumerate(np.linspace(args.min, args.max, args.points).tolist()):
        c = scatter_coefficients(
            CavityParams(delta_omega=d, delta=args.delta, kappa=args.kappa, g=args.g)
        )
        xi = (None, None) if c.xi is None else (c.xi.real, c.xi.imag)
        rows.append([d, *xi, c.r.real, c.r.imag, c.t.real, c.t.imag,
                     abs(c.r) ** 2, abs(c.t) ** 2, False])
        gap = math.inf if c.xi is None else abs(c.xi - 1.0)
        if gap < least:
            operating, least = k, gap
    rows[operating][-1] = True
    columns = ["delta_omega", "xi_re", "xi_im", "r_re", "r_im", "t_re", "t_im",
               "reflect_prob", "transmit_prob", "operating_point"]
    return columns, rows


@_command(
    "run", "compile and run a circuit file",
    _arg("circuit", help=".qc file path or a bundled name (cnot, bsa)"),
    _arg("--samples", type=int, metavar="N", help="also draw N detection samples"),
    _arg("--seed", type=int, help="RNG seed for --samples"),
    checks=(
        (lambda args: args.samples is not None and not 1 <= args.samples <= meas.MAX_SHOTS,
         f"--samples must be at least 1 and at most {meas.MAX_SHOTS}"),
        (lambda args: args.seed is not None and args.seed < 0, "--seed must be non-negative"),
        (lambda args: args.samples is not None and args.seed is None,
         "--samples needs an explicit --seed for reproducibility"),
    ),
)
def _run(args, model):
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
        return ["outcome", "probability"], [[label, p] for label, _, p in outcomes]
    counts = dist._draw(args.samples, args.seed, outcomes)
    rows = [[label, p, count] for (label, _, p), count in zip(outcomes, counts)]
    return ["outcome", "probability", "count"], rows, args.seed, meas.RNG_NAME


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
    for name, (summary, arguments, checks, takes_model, table) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        if takes_model:
            _add_model_args(p)
            checks += _MODEL_CHECKS
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", type=pathlib.Path, metavar="PATH",
                       help="write to a file instead of stdout")
        p.set_defaults(table=table, checks=checks, takes_model=takes_model)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    for fault, message in args.checks:
        if fault(args):
            parser.error(message)
    try:
        model, info = _build_model(args) if args.takes_model else (None, None)
        _emit(args, info, *args.table(args, model))
    except (ParseError, CircuitError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
