"""The three benchmark workloads: seeded inputs, the timed call, the checks.

Each workload is built from a seed into a list of ops (plain tuples, so two
lists compare equal exactly when they hold the same inputs).  For one op the
benchmark calls ``run`` (the only timed part), turns the raw result into
plain data with ``digest``, and passes that to ``check``, which returns the
list of problems found; an empty list means the op is correct.

Ops are timed in blocks of ``block_ops`` consecutive ops, and every block of
a workload holds the same mix of work, so a median or a tail over blocks
describes one kind of call and not a blend of sizes.  ``kind`` names an op's
kind, so the record shows each kind's own latency too.

Call ``bench_env.use_source_tree()`` before importing this module.
"""

from __future__ import annotations

import json
import os
import pathlib

import numpy as np

from spinphoton import cavity as cav
from spinphoton import cli
from spinphoton import protocols as proto

import bench_env

REFS_PATH = bench_env.BENCH_DIR / "refs.json"
CIRCUIT_DIR = bench_env.BENCH_DIR / "circuits"

#: The headline lossy point of the paper's figures, (Q/Q0)^2 = 0.8, F_P = 6,
#: and three more points of the same cost, so that the seed picks the order.
GHZ_MODELS = ((0.8, 6.0), (0.5, 2.0), (0.9, 20.0), (0.65, 1.0))
GHZ_PHOTONS = 16

#: Bounds of the loss sweep: (Q/Q0)^2 in [0.3, 1], F_P in [0.5, 30].
Q2_RANGE = (0.3, 1.0)
FP_RANGE = (0.5, 30.0)
#: Every STORED_EVERY-th loss_sweep op is one of these fixed points, whose
#: outputs are compared with refs.json: (q2, F_P, photon (R, L), spin (Up,
#: Down), spin for conditional_spin_prep).
STORED_EVERY = 16
STORED_POINTS = (
    (0.8, 6.0, (1.0, 0.0), (0.6, 0.8), (0.6, 0.8j)),
    (0.3, 0.5, (0.6, 0.8j), (1.0, 1.0), (1.0, 0.0)),
    (1.0, 30.0, (1.0, 1.0j), (0.8, -0.6), (1.0, -1.0)),
    (0.55, 12.5, (0.28, -0.96), (0.0, 1.0), (0.8j, 0.6)),
)

BUNDLED_CIRCUITS = ("bsa", "cnot")
CLI_SAMPLES = 10000

GHZ_TOL = 1e-9
SWEEP_TOL = 1e-9
CLI_TOL = 1e-12
#: Slack on identities that hold exactly in exact arithmetic (norms, sums).
ROUND_TOL = 1e-12

#: Ops per list; lists are long enough that no run wraps round at the
#: current speed, and a run that does simply repeats the same inputs.
OPS_PER_LIST = 4096


def _complex_pair(rng: np.random.Generator) -> tuple[complex, complex]:
    re, im = rng.normal(size=(2, 2))
    return (complex(re[0], im[0]), complex(re[1], im[1]))


def build_ops(workload: str, seed: int) -> list[tuple]:
    """The op list of ``workload`` for ``seed``; the same seed, the same list."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "ghz_dense":
        picks = rng.integers(len(GHZ_MODELS), size=OPS_PER_LIST)
        return [GHZ_MODELS[int(k)] for k in picks]
    if workload == "loss_sweep":
        ops = []
        for i in range(OPS_PER_LIST):
            point = (
                float(rng.uniform(*Q2_RANGE)),
                float(rng.uniform(*FP_RANGE)),
                _complex_pair(rng),
                _complex_pair(rng),
                _complex_pair(rng),
            )
            if i % STORED_EVERY == 0:
                point = STORED_POINTS[(i // STORED_EVERY) % len(STORED_POINTS)]
            ops.append(point)
        return ops
    if workload == "cli_circuits":
        circuits = list(BUNDLED_CIRCUITS) + sorted(p.name for p in CIRCUIT_DIR.glob("*.qc"))
        combos = [
            (circuit, model_name, sampled)
            for circuit in circuits
            for model_name in ("ideal", "lossy")
            for sampled in (False, True)
        ]
        ops = []
        while len(ops) < OPS_PER_LIST:
            for k in rng.permutation(len(combos)):
                circuit, model_name, sampled = combos[int(k)]
                sample_seed = int(rng.integers(2**31)) if sampled else None
                ops.append((circuit, model_name, sample_seed))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def load_refs() -> dict:
    return json.loads(REFS_PATH.read_text(encoding="utf-8"))


def model(q2: float, fp: float) -> cav.InteractionModel:
    return cav.InteractionModel.from_contrast(cav.ContrastParams(q_ratio_sq=q2, purcell=fp))


def _pair(value: complex) -> list[float]:
    return [value.real, value.imag]


def in_unit_interval(value: float) -> bool:
    return -ROUND_TOL <= value <= 1.0 + ROUND_TOL


def compare(expected, actual, tol: float, where: str = "") -> list[str]:
    """Differences between two plain-data trees; numbers match within ``tol``."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(expected) != set(actual):
            return [f"{where}: keys differ from the reference"]
        return [e for k in expected for e in compare(expected[k], actual[k], tol, f"{where}/{k}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(expected) != len(actual):
            return [f"{where}: length differs from the reference"]
        return [e for i, (x, y) in enumerate(zip(expected, actual))
                for e in compare(x, y, tol, f"{where}[{i}]")]
    if isinstance(expected, float) or isinstance(actual, float):
        if not isinstance(actual, (int, float)) or not abs(expected - actual) <= tol:
            return [f"{where}: {actual!r} differs from reference {expected!r}"]
        return []
    return [] if expected == actual else [f"{where}: {actual!r} != reference {expected!r}"]


# ---------------------------------------------------------------------------
# ghz_dense: protocols.ghz(16) under a lossy model, both heralds
# ---------------------------------------------------------------------------


class GhzDense:
    """2^20 amplitudes (16 MiB) at the last photon: past the L2 cache, so the
    state kernel's memory traffic dominates."""

    #: Every op is one ghz(16); the four models cost the same.
    block_ops = 1
    warmup_ops = 1
    #: At least ten blocks beyond it in a 35 s run at the slowest speed seen (~80 blocks).
    tail_percentile = 85.0
    trace_ops = 4

    def __init__(self, refs: dict):
        self.refs = refs["ghz_dense"]

    def run(self, op):
        return proto.ghz(GHZ_PHOTONS, model(*op))

    def kind(self, op) -> str:
        return f"q2={op[0]:g}/F_P={op[1]:g}"

    def digest(self, op, out) -> dict:
        return {b: [r.success_probability, r.fidelity] for b, r in sorted(out.items())}

    def check(self, op, digest) -> list[str]:
        ref = self.refs[f"{op[0]}/{op[1]}"]
        errors = compare(ref["branches"], digest, GHZ_TOL, "ghz")
        total = sum(success for success, _ in digest.values())
        if not abs(total - ref["stream_success"]) <= GHZ_TOL:
            errors.append(f"branch successes sum to {total!r}, stream success "
                          f"is {ref['stream_success']!r}")
        return errors

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# loss_sweep: one point of the loss analysis through every protocol
# ---------------------------------------------------------------------------


class LossSweep:
    """Many tiny states: about 70 kernel applies per op, bound by per-call cost."""

    #: A block of 16 points, about 270 ms: a point's cost varies little with
    #: its parameters, but the machine's speed flips within a second, and a
    #: block averages over that.
    block_ops = 16
    warmup_ops = 16
    #: At least ten blocks beyond it in a 35 s run at the slowest speed seen (~110 blocks).
    tail_percentile = 90.0
    trace_ops = 64

    def __init__(self, refs: dict):
        self.refs = refs["loss_sweep"]

    def kind(self, op) -> str:
        return "stored" if op in STORED_POINTS else "seeded"

    def run(self, op):
        q2, fp, photon, spin, prep_spin = op
        lossy = model(q2, fp)
        return (
            proto.cnot_gate_matrix(lossy),
            proto.cnot(photon, spin, lossy),
            [proto.bsa(bell.state((1, 2)), lossy) for bell in proto.BellState],
            proto.conditional_spin_prep(prep_spin, lossy),
            proto.ghz(4, lossy),
        )

    def digest(self, op, out) -> dict:
        gate, cnot, bsas, prep, ghz = out
        analyzer = {}
        for bell, res in zip(proto.BellState, bsas):
            analyzer[bell.value] = {
                "success": res.success_probability,
                "dist": {str(rec): [p, proto.classify_outcome(rec).value]
                         for rec, p in sorted(res.distribution.items(), key=lambda kv: str(kv[0]))},
            }
        return {
            "gate": [_pair(complex(v)) for v in np.asarray(gate).reshape(-1)],
            "cnot": [cnot.success_probability, cnot.fidelity],
            "bsa": analyzer,
            "prep": {port: [r.success_probability, r.fidelity] for port, r in sorted(prep.items())},
            "ghz4": {b: [r.success_probability, r.fidelity] for b, r in sorted(ghz.items())},
        }

    @staticmethod
    def stored_view(digest: dict) -> dict:
        """The part of a digest compared with refs.json: the analyzer enters as
        its heralded weight and the weight classified as each Bell state."""
        view = dict(digest)
        view["bsa"] = {}
        for label, res in digest["bsa"].items():
            weights = {bell.value: 0.0 for bell in proto.BellState}
            for p, classified in res["dist"].values():
                weights[classified] += p
            view["bsa"][label] = {"success": res["success"], "classified": weights}
        return view

    def check(self, op, digest) -> list[str]:
        errors = []
        gate = np.array([complex(*v) for v in digest["gate"]]).reshape(4, 4)
        sigma_max = float(np.linalg.svd(gate, compute_uv=False)[0])
        if not sigma_max <= 1.0 + ROUND_TOL:
            errors.append(f"gate matrix sigma_max {sigma_max!r} exceeds 1")
        probs = [*digest["cnot"], *(v for r in digest["prep"].values() for v in r),
                 *(v for r in digest["ghz4"].values() for v in r)]
        prep_total = sum(r[0] for r in digest["prep"].values())
        if not all(in_unit_interval(p) for p in probs) or not in_unit_interval(prep_total):
            errors.append("a probability or fidelity lies outside [0, 1]")
        for label, res in digest["bsa"].items():
            dist = list(res["dist"].values())
            if not in_unit_interval(res["success"]) or not all(in_unit_interval(p) for p, _ in dist):
                errors.append(f"bsa {label}: a probability lies outside [0, 1]")
            if not abs(sum(p for p, _ in dist) - 1.0) <= ROUND_TOL:
                errors.append(f"bsa {label}: distribution does not sum to 1")
            # Under loss the analyzer misclassifies with a physical probability
            # (up to ~44% of the weight in this range), so not every record
            # names the input; the input must still carry the majority.
            correct = sum(p for p, classified in dist if classified == label)
            if not correct > 0.5:
                errors.append(f"bsa {label}: only {correct:.3g} of the weight classifies as input")
        if op in STORED_POINTS:
            ref = self.refs[STORED_POINTS.index(op)]
            errors += compare(ref, self.stored_view(digest), SWEEP_TOL, "loss_sweep")
        return errors

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# cli_circuits: the in-process `spinphoton run` a user pays for per file
# ---------------------------------------------------------------------------


class CliCircuits:
    """parse -> compile -> run -> enumerate/sample -> JSON, through ``cli.main``."""

    #: One block runs every combination once (build_ops lists them in
    #: permuted groups of 32): single runs cost 3.3-7.5 ms by combination,
    #: a block about 150 ms.
    block_ops = 32
    warmup_ops = 32
    #: At least ten blocks beyond it in a 35 s run at the slowest speed seen (~170 blocks).
    tail_percentile = 90.0
    trace_ops = 64

    def __init__(self, refs: dict, scratch_dir: pathlib.Path):
        self.refs = refs["cli_circuits"]
        scratch_dir.mkdir(parents=True, exist_ok=True)
        self.out_path = scratch_dir / f"cli_out_{os.getpid()}.json"

    def run(self, op):
        circuit, model_name, sample_seed = op
        source = circuit if circuit in BUNDLED_CIRCUITS else str(CIRCUIT_DIR / circuit)
        argv = ["run", source, "--model", model_name, "--format", "json", "--out", str(self.out_path)]
        if sample_seed is not None:
            argv += ["--samples", str(CLI_SAMPLES), "--seed", str(sample_seed)]
        return cli.main(argv)

    def kind(self, op) -> str:
        circuit, model_name, sample_seed = op
        return f"{circuit}/{model_name}/{'exact' if sample_seed is None else 'sampled'}"

    def digest(self, op, out) -> dict:
        try:
            doc = json.loads(self.out_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as e:
            doc = {"invalid_json": str(e)}
        finally:
            # an op that writes no output must not be checked on the last one's
            self.out_path.unlink(missing_ok=True)
        return {"exit_code": out, "doc": doc}

    def check(self, op, digest) -> list[str]:
        circuit, model_name, sample_seed = op
        doc = digest["doc"]
        if digest["exit_code"] != 0:
            return [f"exit code {digest['exit_code']}"]
        if "invalid_json" in doc:
            return [f"output is not JSON: {doc['invalid_json']}"]
        columns = ["outcome", "probability"] + (["count"] if sample_seed is not None else [])
        if doc.get("columns") != columns:
            return [f"columns {doc.get('columns')!r}, expected {columns!r}"]
        probs = {row[0]: row[1] for row in doc["rows"]}
        ref = self.refs[f"{circuit}/{model_name}"]
        errors = [
            f"{circuit}/{model_name} {k}: {probs.get(k, 0.0)!r} differs from reference {ref.get(k, 0.0)!r}"
            for k in sorted(set(ref) | set(probs))
            if not abs(probs.get(k, 0.0) - ref.get(k, 0.0)) <= CLI_TOL
        ]
        if sample_seed is not None:
            total = sum(row[2] for row in doc["rows"])
            if total != CLI_SAMPLES:
                errors.append(f"sample counts sum to {total}, not {CLI_SAMPLES}")
        return errors

    def close(self) -> None:
        self.out_path.unlink(missing_ok=True)


WORKLOADS = ("ghz_dense", "loss_sweep", "cli_circuits")


def make(workload: str):
    """The runner of ``workload``, holding its references and scratch file."""
    refs = load_refs()
    if workload == "ghz_dense":
        return GhzDense(refs)
    if workload == "loss_sweep":
        return LossSweep(refs)
    if workload == "cli_circuits":
        return CliCircuits(refs, bench_env.OUT_DIR / "tmp")
    raise ValueError(f"unknown workload {workload!r}")

