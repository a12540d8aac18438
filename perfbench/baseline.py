"""Run the benchmark over many seeds and append one entry to a BENCH file.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/BENCH_baseline.json \\
        --label "before <change>"

For every workload in BENCHMARK.json this runs ``run.py --trace 0`` once
per seed and ``run.py --trace 1`` once (first seed), in sequence, and
records per end-to-end metric the ten values, their median, quartiles and
spread ((q3 - q1) / median, quartiles as ``statistics.quantiles(n=4)``
gives them), next to the git SHA, Python and numpy versions, nproc and the
seeds, and how long each run took.  A spread above a third of the metric's bound is flagged (setup_s
excepted: its spread is not bounded, only its median).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    t0 = perf_counter()
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600,
                          check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["run_wall_s"] = perf_counter() - t0
    return result


def _environment(seeds: list[int], run_seconds: int) -> dict:
    import numpy
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seeds": seeds,
        "run_seconds": run_seconds,
    }


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", default=None, help="BENCH json file to append to")
    parser.add_argument("--label", default="")
    parser.add_argument("--no-trace", action="store_true")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seeds = _seeds(args.seeds)
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    entry = {"label": args.label, "environment": _environment(seeds, spec["run_seconds"]),
             "workloads": {}}
    steady = True
    for name in names:
        runs = [_run(spec, name, seed, 0) for seed in seeds]
        metrics = {}
        for metric, bound in bounds.items():
            stats = summarize([r["metrics"][metric]["value"] for r in runs])
            stats["unit"] = runs[0]["metrics"][metric]["unit"]
            stats["steady"] = metric == "setup_s" or stats["spread"] < bound / 3
            steady &= stats["steady"]
            metrics[metric] = stats
            print(f"{name:14s} {metric:18s} median {stats['median']:12.6g} "
                  f"spread {stats['spread']:.4f} (bound {bound})"
                  f"{'' if stats['steady'] else '  NOT STEADY'}", flush=True)
        record = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "correct": all(r["correct"] for r in runs),
            "run_wall_s": [r["run_wall_s"] for r in runs],
            "end_to_end": metrics,
        }
        if not args.no_trace:
            traced = _run(spec, name, seeds[0], 1)
            record["traced_run_wall_s"] = traced["run_wall_s"]
            record["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["workloads"][name] = record
        print(f"{name:14s} correct {record['correct']} failed {record['failed']}"
              f" of {record['attempted']}", flush=True)
    if args.out:
        path = Path(args.out)
        doc = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {"entries": []}
        doc["entries"].append(entry)
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
