"""Record the reference outputs the checker compares against, into refs.json.

    python3 perfbench/record_refs.py

The references pin the program's outputs at the commit that recorded them.
Re-record only for a change that is meant to alter results, and say so.
"""

from __future__ import annotations

import json

import bench_env


def main() -> None:
    bench_env.pin_blas_threads()
    bench_env.use_source_tree()
    import workloads
    from spinphoton import protocols as proto

    refs: dict = {"ghz_dense": {}, "loss_sweep": [], "cli_circuits": {}}

    for q2, fp in workloads.GHZ_MODELS:
        model = workloads.model(q2, fp)
        branches = proto.ghz(workloads.GHZ_PHOTONS, model)
        stream = proto.entangle_stream([(1.0, 0.0)] * workloads.GHZ_PHOTONS, model=model)
        refs["ghz_dense"][f"{q2}/{fp}"] = {
            "branches": workloads.GhzDense(refs).digest(None, branches),
            "stream_success": stream.success_probability,
        }

    sweep = workloads.LossSweep(refs)
    for point in workloads.STORED_POINTS:
        refs["loss_sweep"].append(sweep.stored_view(sweep.digest(point, sweep.run(point))))

    runner = workloads.CliCircuits(refs, bench_env.OUT_DIR / "tmp")
    try:
        for op in {(c, m, None) for c, m, _ in workloads.build_ops("cli_circuits", 0)}:
            doc = runner.digest(op, runner.run(op))["doc"]
            refs["cli_circuits"][f"{op[0]}/{op[1]}"] = {row[0]: row[1] for row in doc["rows"]}
    finally:
        runner.close()
    refs["cli_circuits"] = dict(sorted(refs["cli_circuits"].items()))

    workloads.REFS_PATH.write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {workloads.REFS_PATH}")


if __name__ == "__main__":
    main()
