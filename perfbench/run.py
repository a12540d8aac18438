"""casplit benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload static-burst --seed 1 --seconds 20 --trace 0

Workloads: static-burst, mobile-stream, cli-emit, oracle-batch (see
perfbench/README.md).  The workload runs as a closed batch in this one
process: each body starts when the previous one ends, until --seconds have
passed (and at least the workload's minimum number of bodies has run).

--trace 0 measures the end-to-end metrics with no instrumentation, plus
set-up time and peak RSS in fresh child processes.  --trace 1 runs the same
bodies untraced and then traced, and reports the per-layer metrics; the
span tree is written to perfbench/out/ once at the end.

Prints one line per metric and, as the last line, one JSON object with the
keys correct, attempted, failed and metrics.  Exits 2 without a result when
the casplit sources are not next to the benchmark.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from hostspeed import BURST_REF_S, REF_S, HostSpeed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 150
MAX_TRACED_OPS = 2500  # bounds the span tree of the many-tiny-op workload

# name, unit, host/sim; the order of the printed lines.
END_TO_END = (
    ("setup_s", "s", "host"),
    ("wall_s", "s", "host"),
    ("slots_per_s", "1/s", "host"),
    ("instances_per_s", "1/s", "host"),
    ("op_p50_ms", "ms", "host"),
    ("op_tail_ms", "ms", "host"),
    ("peak_rss_mb", "MB", "host"),
    ("fuzzy_efficiency", "ratio", "sim"),
)


def casplit_on_path() -> bool:
    """Put the checkout's casplit sources first on sys.path; False if absent."""
    if not (SRC / "casplit" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def _child(mode: str, workload: str, tiny: bool, workdir: Path) -> str:
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), mode, workload, str(int(tiny)), str(workdir)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} child failed: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def _run_body(wl, seed: int, index: int, span=None):
    from workloads import BodyResult, body_seed
    s = body_seed(seed, index)
    try:
        return wl.body(s, span)
    except Exception:  # noqa: BLE001 - a failing body is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        return BodyResult((0.0, 0.0), 0, 0, wl.ops_per_body,
                          failures=[f"body seed {s} raised"] * wl.ops_per_body)


def _bodies(wl, seed: int, seconds: float, min_bodies: int) -> tuple[list, list[float]]:
    """Run bodies until ``seconds`` pass; returns them and each call's wall time."""
    bodies, calls = [], []
    t_end = perf_counter() + seconds
    while len(bodies) < min_bodies or perf_counter() < t_end:
        t0 = perf_counter()
        bodies.append(_run_body(wl, seed, len(bodies)))
        calls.append(perf_counter() - t0)
    return bodies, calls


def _failed(bodies) -> int:
    return sum(min(len(b.failures), b.attempted) for b in bodies)


def tail(samples: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank ``pct`` percentile of ``samples`` and the number beyond it."""
    s = sorted(samples)
    rank = max(1, math.ceil(pct / 100 * len(s)))
    return s[rank - 1], len(s) - rank


def measure(wl, seed: int, seconds: float, tiny: bool = False) -> tuple[dict, list[str]]:
    """End-to-end metrics of one untraced run; returns (result, report lines)."""
    workdir = OUT / f"{wl.name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl.prepare(workdir)
        setup_raw, setup = [], []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            out = _child("setup", wl.name, tiny, workdir)
            setup_raw.append(perf_counter() - t0)
            costs = json.loads(out.splitlines()[-1])["calibration"]
            setup.append((setup_raw[-1] - sum(costs)) * BURST_REF_S / statistics.median(costs))
        child = json.loads(_child("rss", wl.name, tiny, workdir).splitlines()[-1])
        wl.setup(workdir)
        with HostSpeed() as speed:
            bodies, _ = _bodies(wl, seed, seconds, wl.min_bodies)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(b.attempted for b in bodies) + child["attempted"]
    failed = _failed(bodies) + child["failed"]
    notes = list(child["failures"])
    if not tiny:
        pinned = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))[wl.name]
        if child["digest"] != pinned:
            failed += 1
            notes.append(f"digest of seed {child['seed']} is {child['digest']}, pinned {pinned}")
    notes += [f for b in bodies for f in b.failures]

    # Host times at the reference host speed (see hostspeed.py).
    good = [b for b in bodies if b.instances]
    walls = [speed.normalise(*b.span) for b in good]
    ops = [speed.normalise(*s) for b in good for s in b.op_spans]
    tail_s, beyond = tail(ops, wl.tail_pct) if ops else (0.0, 0)
    quality = [q for b in bodies[:wl.min_bodies] for q in b.quality]
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls) if good else 0.0,
        "slots_per_s": (statistics.median(b.slots / w for b, w in zip(good, walls))
                        if good else 0.0),
        "instances_per_s": (statistics.median(b.instances / w for b, w in zip(good, walls))
                            if good else 0.0),
        "op_p50_ms": 1e3 * statistics.median(ops) if ops else 0.0,
        "op_tail_ms": 1e3 * tail_s,
        "peak_rss_mb": child["peak_rss_mb"],
        "fuzzy_efficiency": wl.efficiency(quality) if quality else 0.0,
    }
    lines = [f"workload {wl.name}  seed {seed}  bodies {len(bodies)}  op = {wl.op_unit}"]
    for name, unit, label in END_TO_END:
        lines.append(f"{name:18s} {values[name]:14.6g} {unit:6s} {label}")
    lines.append(f"{'':18s} op_tail is p{wl.tail_pct:g} of {len(ops)} ops"
                 f" ({beyond} beyond it)")
    lines.append(f"{'raw setup_s':18s} {statistics.median(setup_raw):14.6g}"
                 f" {'s':6s} host, not normalised")
    if good:
        lines.append(f"{'raw wall_s':18s} {statistics.median(b.wall_s for b in good):14.6g}"
                     f" {'s':6s} host, not normalised")
    lines.append(f"{'host speed':18s} {statistics.median(speed.costs) / REF_S:14.6g}"
                 f" {'x':6s} median calibration cost over reference, {len(speed.costs)} samples")
    lines.append(f"{'failed_frac':18s} {failed / attempted:14.6g} {'ratio':6s} host"
                 f"  ({failed} of {attempted} ops)")
    if quality:
        lines.append(f"{wl.sim_name:18s} {wl.sim_value(quality):14.6g} {'ratio':6s} sim"
                     f"  (first {wl.min_bodies} bodies)")
    lines += [f"FAILED: {n}" for n in notes[:20]]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, _ in END_TO_END},
    }
    return result, lines


def measure_layers(wl, seed: int, seconds: float) -> tuple[dict, list[str]]:
    """Per-layer metrics: untraced bodies, the same bodies traced, one memory pass."""
    from spans import LAYER_METRICS, Tracer, instrumented, layer_metrics, run_alloc_peaks
    from workloads import body_seed
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"{wl.name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    peaks: list[int] = []
    try:
        wl.prepare(workdir)
        wl.setup(workdir)
        untraced, calls = _bodies(wl, seed, seconds / 2, 1)
        k = min(len(untraced), max(1, MAX_TRACED_OPS // wl.ops_per_body))
        untraced, calls = untraced[:k], calls[:k]
        traced = []
        with instrumented(tracer), tracer.span("workload", workload=wl.name, seed=seed):
            for i in range(k):
                with tracer.span("seed", seed=body_seed(seed, i)):
                    traced.append(_run_body(wl, seed, i, tracer.span))
        with run_alloc_peaks(peaks):
            memory = _run_body(wl, seed, 0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    spans_path = OUT / f"spans-{wl.name}-{seed}.json"
    tracer.write(spans_path)

    bodies = untraced + traced + [memory]
    attempted = sum(b.attempted for b in bodies)
    failed = _failed(bodies)
    values = layer_metrics(tracer, sum(calls), sum(b.run_s for b in untraced), peaks)
    lines = [f"workload {wl.name}  seed {seed}  traced bodies {len(traced)}"
             f"  spans in {spans_path.relative_to(HERE.parent)}"]
    for name, unit, _ in LAYER_METRICS:
        lines.append(f"{name:42s} {values[name]:14.6g} {unit}")
    lines += [f"FAILED: {f}" for b in bodies for f in b.failures][:20]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, _ in LAYER_METRICS},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not casplit_on_path():
        print(f"perfbench: no casplit sources at {SRC}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    wl = workloads.make(args.workload)
    if args.trace:
        result, lines = measure_layers(wl, args.seed, args.seconds)
    else:
        result, lines = measure(wl, args.seed, args.seconds)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
