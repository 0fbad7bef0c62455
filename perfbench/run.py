"""subdecay benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload pde-decay --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a source checkout; the program is imported from its
``src/`` directory.  A run first times a few fresh-interpreter imports
(``setup_s``), then runs whole rounds of the workload, each in a fresh
interpreter (perfbench/worker.py), until ``--seconds`` have passed.  Every
metric is the median over the run's rounds.  ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Raw round records go
to perfbench/runs/.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"
DEADLINE_S = 170.0
SETUP_SAMPLES = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# end-to-end stage metrics: workload -> {metric: (name in the README, stage, reducer)}.
# The repeated short stages are totals, not medians: the machine's speed
# flips between states, and a median of a few samples flips with it.
STAGE_METRICS = {
    "pde-decay": {"primary_s": ("pde_long_s", "pde_long", sum),
                  "secondary_s": ("pde_wide_s", "pde_wide", sum)},
    "ode-sweep": {"primary_s": ("picard_s", "picard", sum),
                  "secondary_s": ("branch_cut_s", "branch_cut", sum)},
    "spectral-oracle": {"primary_s": ("oracle_point_s", "oracle_point", median),
                        "secondary_s": ("sin_point_s", "sin_point", sum)},
}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(args: list[str], timeout: float) -> str:
    try:
        proc = subprocess.run([sys.executable, *args], env=child_env(), cwd=ROOT,
                              stdout=subprocess.PIPE, text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args[0]} did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args)} exited with code {proc.returncode}")
    return proc.stdout


def setup_sample(timeout: float) -> float:
    """Seconds from starting an interpreter to subdecay and its modules imported."""
    t0 = time.perf_counter()
    run_child(["-c", "import subdecay, subdecay.cli"], timeout)
    return time.perf_counter() - t0


def round_record(workload: str, seed: int, traced: bool, timeout: float) -> dict:
    out = run_child([str(HERE / "worker.py"), workload, str(seed), "1" if traced else "0"],
                    timeout)
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"round of {workload} printed no record")
    record = json.loads(lines[-1])
    record["traced"] = traced
    return record


def round_metrics(workload: str, record: dict) -> dict[str, float]:
    stages = record["stages"]
    metrics = {"wall_s": sum(sum(v) for v in stages.values()),
               "peak_rss_mb": record["peak_rss_mb"]}
    for metric, (_, stage, reduce) in STAGE_METRICS[workload].items():
        if not stages.get(stage):
            raise BenchError(f"{workload}: no timed {stage} operation succeeded")
        metrics[metric] = float(reduce(stages[stage]))
    return metrics


def median_of(records: list[dict], key) -> dict[str, float]:
    per_round = [key(r) for r in records]
    return {name: median(m[name] for m in per_round) for name in per_round[0]}


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()

    def remaining() -> float:
        return DEADLINE_S - (time.perf_counter() - started)

    setup = [] if trace else [setup_sample(remaining()) for _ in range(SETUP_SAMPLES)]
    records: list[dict] = []
    measure_start = time.perf_counter()
    while True:
        traced = trace and len(records) % 2 == 1
        t0 = time.perf_counter()
        records.append(round_record(workload, seed, traced, remaining()))
        last = time.perf_counter() - t0
        complete = not trace or len(records) >= 2
        if complete and time.perf_counter() - measure_start >= seconds:
            break
        if last > remaining():
            if not complete:
                raise BenchError("no time left for a traced round")
            break

    plain = [r for r in records if not r["traced"]]
    traced_records = [r for r in records if r["traced"]]
    if trace:
        metrics = median_of(traced_records, lambda r: r["layers"])
        wall = [median_of(rs, lambda r: round_metrics(workload, r))["wall_s"]
                for rs in (traced_records, plain)]
        metrics["trace.overhead_s"] = wall[0] - wall[1]
        wanted = spec["per_layer"]
    else:
        metrics = median_of(plain, lambda r: round_metrics(workload, r))
        metrics["setup_s"] = median(setup)
        wanted = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} disagree "
                         f"with BENCHMARK.json")
    result = {
        "correct": not any(r["problems"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    }
    raw = {"workload": workload, "seed": seed, "trace": trace, "seconds": seconds,
           "setup_samples": setup, "rounds": records, "result": result}
    try:
        RUNS.mkdir(exist_ok=True)
        (RUNS / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
            json.dumps(raw, indent=1))
    except OSError as exc:
        print(f"warning: raw record not written: {exc}", file=sys.stderr)
    print_summary(workload, seed, records, result)
    return result


def print_summary(workload: str, seed: int, records: list[dict], result: dict):
    names = {metric: readme for metric, (readme, _, _) in STAGE_METRICS[workload].items()}
    traced = sum(r["traced"] for r in records)
    print(f"{workload} seed={seed}: {len(records)} round(s), {traced} traced")
    for name, m in result["metrics"].items():
        label = f"{names[name]} ({name})" if name in names else name
        print(f"  {label:<40} {m['value']:.6g} {m['unit']}")
    print(f"  operations attempted {result['attempted']}, failed {result['failed']}")
    for problem in sorted({p for r in records for p in r["problems"]}):
        print(f"  CHECK FAILED: {problem}")
    for name in sorted({a for r in records for a in r["absent"]}):
        print(f"  absent (not traced): {name}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (SRC / "subdecay" / "__init__.py").is_file():
            raise BenchError(f"no subdecay sources under {SRC}; run from a source checkout")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = [w["name"] for w in spec["workloads"]]
        chosen = names if args.workload == "all" else [args.workload]
        if not set(chosen) <= set(names):
            raise BenchError(f"unknown workload {args.workload!r}; choose from {names} or all")
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        results = [run_workload(spec, w, args.seed, seconds, bool(args.trace)) for w in chosen]
    except (BenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
