"""Steadiness report: repeated sets of runs, their spread, and their agreement.

    python3 perfbench/steady.py --runs 10 --sets 2

Runs ``run.py`` on every workload, ``--runs`` times per set with a new seed
each time, interleaving the workloads so that a slow spell of the machine
touches all of them.  For each set it prints, per workload and end-to-end
metric, the median, the quartiles and their distance as a share of the median
(``statistics.quantiles(values, n=4)``).  It then compares the later sets'
medians with the first set's.  A spread above a third of the metric's bound
in ``BENCHMARK.json``, or a median worse than the first set's by more than
the bound, is marked and makes the exit code 1.  The workloads and the run
length are those of ``BENCHMARK.json``.  All
values go to ``perfbench/out/BENCH_steady_<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import bench_env

BENCHMARK_JSON = bench_env.ROOT / "BENCHMARK.json"


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(bench_env.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True, cwd=bench_env.ROOT, timeout=180,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and their distance over the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def worse_by(metric: dict, before: float, after: float) -> float:
    change = (after - before) / before
    return change if metric["better"] == "lower" else -change


def main(argv: list[str] | None = None) -> int:
    bench = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    parser.add_argument("--sets", type=int, default=2)
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    metrics = bench["end_to_end"]
    values = {}  # (set, workload, metric) -> values
    correct = True
    for s in range(args.sets):
        for r in range(args.runs):
            for workload in workloads:
                seed = 1000 * (s + 1) + r
                result = run_once(workload, seed, seconds)
                correct &= result["correct"]
                for m in metrics:
                    values.setdefault(f"{s}/{workload}/{m['name']}", []).append(
                        result["metrics"][m["name"]]["value"])
                print(f"set {s} run {r} {workload} seed {seed}: "
                      + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                      flush=True)

    ok = correct
    summary = {}
    print(f"\n{'set':>3} {'workload':<13} {'metric':<16} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>7} {'bound':>6} {'vs set 0':>9}")
    for s in range(args.sets):
        for workload in workloads:
            for m in metrics:
                median, q1, q3, iqr = spread(values[f"{s}/{workload}/{m['name']}"])
                first = statistics.median(values[f"0/{workload}/{m['name']}"])
                drift = worse_by(m, first, median)
                flag = ""
                if iqr > m["bound"] / 3:
                    flag += " SPREAD"
                if drift > m["bound"]:
                    flag += " DRIFT"
                ok &= not flag
                summary[f"{s}/{workload}/{m['name']}"] = {
                    "median": median, "q1": q1, "q3": q3, "spread": iqr, "worse_than_set0": drift}
                print(f"{s:>3} {workload:<13} {m['name']:<16} {median:>11.5g} {q1:>11.5g} {q3:>11.5g} "
                      f"{iqr:>7.2%} {m['bound']:>6.0%} {drift:>+9.2%}{flag}")

    bench_env.pin_blas_threads()
    bench_env.OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = bench_env.OUT_DIR / f"BENCH_steady_{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.write_text(json.dumps({"machine": bench_env.machine_info(seed=None), "seconds": seconds,
                               "runs": args.runs, "sets": args.sets, "all_correct": correct,
                               "summary": summary, "values": values}, indent=1) + "\n",
                   encoding="utf-8")
    print(f"\n{'steady' if ok else 'NOT steady'}; values in {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
