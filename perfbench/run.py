"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload ghz_dense --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout: the package is imported from
``src/`` there.  ``--trace 0`` times the workload with no instrumentation and
reports the end-to-end metrics; ``--trace 1`` reports the per-layer metrics
from a separate traced run.  Every op's output is checked.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``; a
fuller record, with the machine and the seed, goes to
``perfbench/out/BENCH_<workload>_seed<seed>[_trace].json``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback

import bench_env

#: Fresh interpreters started to time set-up, before the timed run and again
#: after it, and to time the import.  The median is reported: one start
#: swings by a third from the next, and the median of a few starts drifts
#: with the machine's speed over seconds.
SETUP_STARTS = 8
IMPORT_STARTS = 5

END_TO_END_UNITS = {
    "eval_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "success_rate": "ratio",
}

PER_LAYER_UNITS = {
    "qstate.self_ms": "ms",
    "qstate.calls": "count",
    "qstate.states_built": "count",
    "qstate.amps_moved": "count",
    "qstate.kept_amp_ratio": "ratio",
    "cavity.self_ms": "ms",
    "cavity.operators_built": "count",
    "optics.self_ms": "ms",
    "optics.operators_built": "count",
    "protocols.self_ms": "ms",
    "measurement.self_ms": "ms",
    "measurement.outcomes_enumerated": "count",
    "dsl.parse_ms": "ms",
    "dsl.compile_ms": "ms",
    "dsl.run_self_ms": "ms",
    "cli.self_ms": "ms",
    "import_ms": "ms",
    "import_numpy_ms": "ms",
    "trace_overhead_ms": "ms",
}

#: Per-layer self-time metric -> tracer layer.
SELF_TIME_LAYERS = {
    "qstate.self_ms": "qstate",
    "cavity.self_ms": "cavity",
    "optics.self_ms": "optics",
    "protocols.self_ms": "protocols",
    "measurement.self_ms": "measurement",
    "dsl.parse_ms": "dsl.parse",
    "dsl.compile_ms": "dsl.compile",
    "dsl.run_self_ms": "dsl.run",
    "cli.self_ms": "cli",
}

PER_OP_COUNTS = (
    "qstate.states_built",
    "qstate.amps_moved",
    "cavity.operators_built",
    "optics.operators_built",
    "measurement.outcomes_enumerated",
)

GHZ_SCALING_PHOTONS = (4, 8, 12, 16)

_SETUP_CODE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import spinphoton.cli, workloads; "
    "workloads.build_ops(sys.argv[3], int(sys.argv[4]))"
)
_IMPORT_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import spinphoton, spinphoton.cli; print(time.perf_counter() - t)"
)
_NUMPY_CODE = "import time; t = time.perf_counter(); import numpy; print(time.perf_counter() - t)"


def _fresh_interpreter(code: str, *args: str) -> tuple[float, str]:
    """Wall time and standard output of a new interpreter running ``code``."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, check=True, timeout=60)
    return time.perf_counter() - start, done.stdout


def time_setup(workload: str, seed: int) -> list[float]:
    """Wall times of fresh interpreters each importing the package (with its
    CLI) and building the workload's inputs."""
    args = (str(bench_env.SRC), str(bench_env.BENCH_DIR), workload, str(seed))
    return [_fresh_interpreter(_SETUP_CODE, *args)[0] for _ in range(SETUP_STARTS)]


def measure_import_ms() -> tuple[float, float]:
    """Median in-interpreter import time of the package, and of numpy alone."""
    package, numpy_only = [], []
    for _ in range(IMPORT_STARTS):
        package.append(float(_fresh_interpreter(_IMPORT_CODE, str(bench_env.SRC))[1]))
        numpy_only.append(float(_fresh_interpreter(_NUMPY_CODE)[1]))
    return statistics.median(package) * 1e3, statistics.median(numpy_only) * 1e3


class OpLog:
    """Attempted and failed ops, with the first few failures kept for the record."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run(self, runner, op) -> tuple[int, bool]:
        """Run and check one op; returns its duration in ns (a failed op's
        too) and whether it was correct."""
        self.attempted += 1
        start = time.perf_counter_ns()
        try:
            out = runner.run(op)
        except (Exception, SystemExit):  # a crashing op (argparse exits too) fails; the run goes on
            elapsed = time.perf_counter_ns() - start
            self._fail(op, traceback.format_exc(limit=3))
            return elapsed, False
        elapsed = time.perf_counter_ns() - start
        try:
            errors = runner.check(op, runner.digest(op, out))
        except Exception:  # malformed output the checker cannot read
            errors = [traceback.format_exc(limit=3)]
        if errors:
            self._fail(op, "; ".join(errors[:3]))
        return elapsed, not errors

    def _fail(self, op, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"{op!r}: {why}")


def timed_run(runner, ops: list, seconds: float, log: OpLog) -> tuple[dict, dict]:
    """Time whole blocks of ``runner.block_ops`` ops until ``seconds`` have
    passed.  Each block holds the same mix of work, so the median and the
    tail over blocks describe one kind of call; a stall of the machine is
    spread over a block rather than deciding an op's rank."""
    import numpy as np

    for op in ops[: runner.warmup_ops]:
        log.run(runner, op)
    gc.collect()
    block_ns, block_correct = [], []
    by_kind = {}  # kind of op -> latencies in ns
    deadline = time.perf_counter() + seconds
    i = runner.warmup_ops
    while time.perf_counter() < deadline:
        total_ns = correct = 0
        for _ in range(runner.block_ops):
            op = ops[i % len(ops)]
            elapsed, ok = log.run(runner, op)
            total_ns += elapsed
            correct += ok
            by_kind.setdefault(runner.kind(op), []).append(elapsed)
            i += 1
        block_ns.append(total_ns)
        block_correct.append(correct)
    block_ms = np.array(block_ns) / 1e6
    tail = float(np.percentile(block_ms, runner.tail_percentile))
    metrics = {
        # correct ops per second of each block; a failed op adds time, not work
        "eval_per_s": float(np.median(np.array(block_correct) / (block_ms / 1e3))),
        "latency_p50_ms": float(np.median(block_ms)),
        "latency_tail_ms": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_rate": (log.attempted - log.failed) / log.attempted,
    }
    details = {
        "ops_per_block": runner.block_ops,
        "timed_blocks": len(block_ms),
        "warmup_ops": runner.warmup_ops,
        "tail_percentile": runner.tail_percentile,
        "blocks_beyond_tail": int((block_ms > tail).sum()),
        "block_latencies_ms": block_ms.round(3).tolist(),
        "op_latency_by_kind_ms": {
            kind: {"ops": len(ns), "p50": float(np.median(ns)) / 1e6, "max": max(ns) / 1e6}
            for kind, ns in sorted(by_kind.items())
        },
    }
    return metrics, details


def _per_op_metrics(tracer_pass: dict, n_ops: int) -> dict:
    self_ns, counts, calls = tracer_pass["self_ns"], tracer_pass["counts"], tracer_pass["calls"]
    metrics = {name: self_ns[layer] / n_ops / 1e6 for name, layer in SELF_TIME_LAYERS.items()}
    metrics.update({name: counts.get(name, 0) / n_ops for name in PER_OP_COUNTS})
    metrics["qstate.calls"] = calls.get("qstate", 0) / n_ops
    computed = counts.get("qstate.amps_postselected", 0)
    # no post-selection means no computed amplitude was thrown away
    metrics["qstate.kept_amp_ratio"] = counts.get("qstate.amps_kept", 0) / computed if computed else 1.0
    return metrics


class _TracedRunner:
    """A runner whose program call is traced and whose checks are not."""

    def __init__(self, runner, tracer) -> None:
        self._runner = runner
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._runner, name)

    def run(self, op):
        self._tracer.active = True
        try:
            return self._runner.run(op)
        finally:
            self._tracer.active = False


def _traced_pass(runner, ops: list, tracer, log: OpLog) -> dict:
    tracer.reset()
    traced = _TracedRunner(runner, tracer)
    wall_ns = 0
    for k, op in enumerate(ops):
        tracer.op_id = k
        wall_ns += log.run(traced, op)[0]
    return {"wall_ns": wall_ns, **tracer.summary()}


def ghz_scaling(tracer) -> list[dict]:
    """One traced ghz(n) per n and model: how the kernel's work grows with n.
    Not gated; it shows the shape a change of algorithm would alter."""
    import workloads
    from spinphoton import cavity, protocols

    headline = workloads.model(*workloads.GHZ_MODELS[0])
    rows = []
    for name, model in (("ideal", cavity.InteractionModel.ideal()), ("lossy", headline)):
        for n in GHZ_SCALING_PHOTONS:
            tracer.reset()
            tracer.active = True
            start = time.perf_counter_ns()
            try:
                protocols.ghz(n, model)
            finally:
                tracer.active = False
            wall_ns = time.perf_counter_ns() - start
            per_op = _per_op_metrics(tracer.summary(), 1)
            rows.append({"model": name, "photons": n, "wall_ms": wall_ns / 1e6,
                         **{k: per_op[k] for k in ("qstate.amps_moved", "qstate.self_ms",
                                                   "qstate.kept_amp_ratio")}})
    return rows


def traced_run(workload: str, runner, ops: list, seconds: float, log: OpLog) -> tuple[dict, dict, list]:
    import tracer as tracing

    import_ms, import_numpy_ms = measure_import_ms()
    ops = ops[: runner.trace_ops]
    for op in ops:  # warm-up, untraced
        log.run(runner, op)
    passes = []
    deadline = time.perf_counter() + seconds
    with tracing.Tracer() as tracer:
        while not passes or time.perf_counter() < deadline:
            # alternate which pass goes first, so a drift in machine speed
            # does not bias the overhead one way
            if len(passes) % 2:
                traced = _traced_pass(runner, ops, tracer, log)
            untraced_ns = sum(log.run(runner, op)[0] for op in ops)
            if not len(passes) % 2:
                traced = _traced_pass(runner, ops, tracer, log)
            traced["overhead_ns"] = traced["wall_ns"] - untraced_ns
            passes.append(traced)
        spans = list(tracer.spans)
        scaling = ghz_scaling(tracer) if workload == "ghz_dense" else None
    n = len(ops)
    per_pass = [_per_op_metrics(p, n) for p in passes]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    metrics["import_ms"] = import_ms
    metrics["import_numpy_ms"] = import_numpy_ms
    metrics["trace_overhead_ms"] = statistics.median(p["overhead_ns"] for p in passes) / n / 1e6
    details = {
        "ops_per_pass": n,
        "passes": len(passes),
        "counts_repeat": all(p["counts"] == passes[0]["counts"] and p["calls"] == passes[0]["calls"]
                             for p in passes),
        "counts_per_pass": passes[0]["counts"],
        "calls_per_pass": passes[0]["calls"],
        "trace_overhead_share": statistics.median(p["overhead_ns"] / (p["wall_ns"] - p["overhead_ns"])
                                                  for p in passes),
        "computed_bytes_per_op": 16 * metrics["qstate.amps_moved"],
        "ghz_scaling": scaling,
    }
    return metrics, details, spans


def write_spans(path, spans) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for name, layer, start, end, parent, op_id in spans:
            f.write(json.dumps({"name": name, "layer": layer, "start_ns": start, "end_ns": end,
                                "parent": parent, "op": op_id}) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("ghz_dense", "loss_sweep", "cli_circuits"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench_env.pin_blas_threads()
    bench_env.use_source_tree()
    setup_times = [] if args.trace else time_setup(args.workload, args.seed)

    import workloads

    runner = workloads.make(args.workload)
    log = OpLog()
    tag = f"{args.workload}_seed{args.seed}" + ("_trace" if args.trace else "")
    bench_env.OUT_DIR.mkdir(parents=True, exist_ok=True)
    try:
        ops = workloads.build_ops(args.workload, args.seed)
        if args.trace:
            metrics, details, spans = traced_run(args.workload, runner, ops, args.seconds, log)
            write_spans(bench_env.OUT_DIR / f"spans_{tag}.jsonl", spans)
            units = PER_LAYER_UNITS
        else:
            metrics, details = timed_run(runner, ops, args.seconds, log)
            # starts on both sides of the timed run span two moments of a
            # machine whose speed drifts over seconds
            setup_times += time_setup(args.workload, args.seed)
            metrics["setup_s"] = statistics.median(setup_times)
            details["setup_starts_s"] = setup_times
            units = END_TO_END_UNITS
    finally:
        runner.close()

    # traced counts must repeat exactly from pass to pass
    counts_repeat = details.get("counts_repeat", True)
    if not counts_repeat:
        log.failures.append("traced counts differ from pass to pass")
    result = {
        "correct": log.failed == 0 and counts_repeat,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {"tag": tag, "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "machine": bench_env.machine_info(args.seed), "result": result, "details": details,
              "failures": log.failures}
    (bench_env.OUT_DIR / f"BENCH_{tag}.json").write_text(json.dumps(record, indent=2) + "\n",
                                                         encoding="utf-8")
    if "latency_tail_ms" in metrics:
        print(f"ops per block: {details['ops_per_block']}; latency_tail_ms is "
              f"p{details['tail_percentile']:g} of {details['timed_blocks']} blocks, "
              f"{details['blocks_beyond_tail']} beyond it")
    for failure in log.failures:
        print(f"failed: {failure}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
