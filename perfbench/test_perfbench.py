"""Tests of the benchmark itself: its checker, its tracer and its inputs.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys

import pytest

import bench_env

bench_env.use_source_tree()

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

#: Ops per workload for the slower tests; loss_sweep's first op is a stored point.
FEW_OPS = {"ghz_dense": 1, "loss_sweep": 4, "cli_circuits": 8}


@pytest.fixture(params=workloads.WORKLOADS)
def runner(request):
    r = workloads.make(request.param)
    r.name = request.param
    yield r
    r.close()


def _digests(runner, ops):
    return [runner.digest(op, runner.run(op)) for op in ops]


def test_one_seed_gives_one_op_sequence():
    for name in workloads.WORKLOADS:
        first = workloads.build_ops(name, 7)
        assert first == workloads.build_ops(name, 7)
        assert first != workloads.build_ops(name, 8)


def test_checker_accepts_the_program_at_this_commit(runner):
    ops = workloads.build_ops(runner.name, 3)[: FEW_OPS[runner.name]]
    for op, digest in zip(ops, _digests(runner, ops)):
        assert runner.check(op, digest) == []


def _perturbed(digest: dict, edit) -> dict:
    d = copy.deepcopy(digest)
    edit(d)
    return d


def _misclassify(d):
    for record in d["bsa"]["psi+"]["dist"].values():
        record[1] = "phi-"


def _unnormalize(d):
    next(iter(d["bsa"]["phi+"]["dist"].values()))[0] += 1e-6


def _miscount(d):
    d["doc"]["rows"][0][2] += 1


#: workload -> (index of the op in the seed-3 list, what is wrong, edit);
#: loss_sweep op 0 is a stored point, op 1 is checked by invariants alone.
PERTURBATIONS = {
    "ghz_dense": [
        (0, "success off by 1e-6", lambda d: d["Plus"].__setitem__(0, d["Plus"][0] + 1e-6)),
        (0, "fidelity off by 1e-6", lambda d: d["Minus"].__setitem__(1, d["Minus"][1] - 1e-6)),
    ],
    "loss_sweep": [
        (0, "stored gate entry off by 1e-6",
         lambda d: d["gate"][0].__setitem__(0, d["gate"][0][0] + 1e-6)),
        (1, "gate sigma_max past 1",
         lambda d: d.__setitem__("gate", [[2 * re, 2 * im] for re, im in d["gate"]])),
        (1, "analyzer names the wrong Bell state", _misclassify),
        (1, "distribution sums past 1", _unnormalize),
    ],
    "cli_circuits": [
        (0, "probability off by 1e-9",
         lambda d: d["doc"]["rows"][0].__setitem__(1, d["doc"]["rows"][0][1] + 1e-9)),
        (0, "counts do not sum to --samples", _miscount),
        (0, "invalid JSON", lambda d: d.__setitem__("doc", {"invalid_json": "truncated"})),
        (0, "non-zero exit", lambda d: d.__setitem__("exit_code", 1)),
    ],
}


class _Perturbing:
    """A runner whose digest is replaced by a perturbed one."""

    def __init__(self, runner, digest):
        self._runner = runner
        self._digest = digest

    def __getattr__(self, name):
        return getattr(self._runner, name)

    def digest(self, op, out):
        return self._digest


def test_perturbed_result_is_a_failed_op(runner):
    ops = workloads.build_ops(runner.name, 3)
    if runner.name == "cli_circuits":
        ops[0] = (ops[0][0], ops[0][1], 12345)  # sampled, so the counts are checked too
    for index, what, edit in PERTURBATIONS[runner.name]:
        op = ops[index]
        bad = _perturbed(runner.digest(op, runner.run(op)), edit)
        log = run.OpLog()
        log.run(_Perturbing(runner, bad), op)
        assert (log.attempted, log.failed) == (1, 1), what


class _Exiting:
    """A runner whose program call exits the way argparse does on bad arguments."""

    def run(self, op):
        raise SystemExit(2)


def test_an_exiting_op_is_a_failed_op_and_the_run_goes_on():
    log = run.OpLog()
    elapsed, ok = log.run(_Exiting(), ("bad",))
    assert (log.attempted, log.failed, ok) == (1, 1, False)
    assert elapsed >= 0


def test_cli_op_writing_no_output_is_not_checked_on_the_last_one():
    cli_runner = workloads.make("cli_circuits")
    try:
        op = workloads.build_ops("cli_circuits", 3)[0]
        log = run.OpLog()
        log.run(cli_runner, op)
        # the same op again, but the program returns 0 and writes nothing
        log.run(_Perturbing(cli_runner, cli_runner.digest(op, 0)), op)
        assert (log.attempted, log.failed) == (2, 1)
    finally:
        cli_runner.close()


def test_every_block_holds_the_same_mix(runner):
    ops = workloads.build_ops(runner.name, 3)
    blocks = [ops[i:i + runner.block_ops] for i in range(0, len(ops), runner.block_ops)]
    mixes = {tuple(sorted(runner.kind(op) for op in block)) for block in blocks}
    if runner.name == "ghz_dense":  # one op per block; the four models cost the same
        assert len(mixes) == len(workloads.GHZ_MODELS)
    else:
        assert len(mixes) == 1


def test_tracing_leaves_outputs_bit_identical(runner):
    ops = workloads.build_ops(runner.name, 5)[: FEW_OPS[runner.name]]
    plain = _digests(runner, ops)
    with tracing.Tracer() as tracer:
        tracer.active = True
        traced = _digests(runner, ops)
        tracer.active = False
        assert tracer.spans
    assert json.dumps(traced) == json.dumps(plain)
    # uninstalling put every original back
    assert workloads.proto.ghz.__module__ == "spinphoton.protocols"
    assert not hasattr(workloads.proto.ghz, "__wrapped__")


def test_traced_counts_repeat_exactly():
    sweep = workloads.make("loss_sweep")
    ops = workloads.build_ops("loss_sweep", 11)[:3]
    with tracing.Tracer() as tracer:
        passes = [run._traced_pass(sweep, ops, tracer, run.OpLog()) for _ in range(2)]
    assert passes[0]["counts"] == passes[1]["counts"]
    assert passes[0]["calls"] == passes[1]["calls"]
    assert passes[0]["counts"]["qstate.amps_moved"] > 0


def test_lossy_ghz_keeps_one_eighth_of_postselected_amplitudes():
    # each photon: 16x the state enters post-selection (pol x 4 paths x flag),
    # the port-D, alive branch keeps 2x
    model = workloads.model(0.8, 6.0)
    with tracing.Tracer() as tracer:
        tracer.active = True
        workloads.proto.ghz(5, model)
    assert tracer.counts["qstate.amps_kept"] * 8 == tracer.counts["qstate.amps_postselected"]


def test_units_match_benchmark_json():
    bench = json.loads((bench_env.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_without_package_source_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(bench_env.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(bench_env.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "loss_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
