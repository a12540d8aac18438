"""Plain-text emission of per-slot traces, run summaries and sidecar
metadata.  Trace and summary files are byte-deterministic for a given
(config, seed); wall-clock and memory measurements go to a separate
timings file that is excluded from the determinism contract."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from casplit import __version__
from casplit.engine import RunResult
from casplit.metrics import EtaReport

FLOAT_FMT = "{:.6g}"


def _f(x: float) -> str:
    return FLOAT_FMT.format(x)


def trace_columns(n_scc: int) -> list[str]:
    cols = ["t", "b", "a_p", "a_s"]
    names = ["pcc"] + [f"scc{i + 1}" for i in range(n_scc)]
    cols += [f"rlc_{n}" for n in names]
    cols += [f"cap_{n}" for n in names]
    cols += ["delivered", "k_p", "k_i", "k_d", "g", "k", "mode"]
    return cols


def _formatted(column: np.ndarray, fmt) -> list[str]:
    """``fmt`` of each entry, called once per value; a float is told apart
    by its bits, so 0.0 from -0.0."""
    keys = column.view(np.int64) if column.dtype == np.float64 else column
    _, first, index = np.unique(keys, return_index=True, return_inverse=True)
    return np.array([fmt(x) for x in column[first].tolist()], dtype=object)[index].tolist()


def write_trace(path, result: RunResult) -> None:
    """One CSV row per simulated slot; requires a trace-collecting run.
    Each column is formatted whole, then the columns are joined by row."""
    if result.state is None:
        raise ValueError("run was not executed with collect_trace=True")
    kp, ki, kd, g, k, mode = result.state
    ints = (result.b, result.a_p, result.a_s, *result.occupancy, *result.capacity,
            result.delivered)
    columns = [list(map(str, range(result.t_slots))),
               *(_formatted(c, str) for c in ints),
               *(_formatted(c, _f) for c in (kp, ki, kd, g)), _formatted(k, str),
               mode.tolist()]
    lines = [",".join(trace_columns(len(result.occupancy) - 1)), *map(",".join, zip(*columns))]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


SUMMARY_COLUMNS = [
    "record", "scenario", "seed", "mode", "policy", "l", "t_slots",
    "total_delivered", "mean_throughput", "mean_abs_b", "completed",
    "eta", "eta_undefined", "window", "numerator", "den_pcc", "den_scc",
]


def summary_lines(runs: list[RunResult], etas: list[EtaReport]) -> list[str]:
    lines = [",".join(SUMMARY_COLUMNS)]
    for s in runs:
        lines.append(",".join([
            "run", s.scenario, str(s.seed), s.mode, s.policy, str(s.l),
            str(s.t_slots), str(s.total_delivered), _f(s.mean_throughput),
            _f(s.mean_abs_b), str(int(s.completed)), "", "", "", "", "", "",
        ]))
    for e in etas:
        lines.append(",".join([
            "eta", e.scenario_id, str(e.seed), "ca", e.policy, "", "", "", "",
            "", "", _f(e.eta) if e.eta is not None else "",
            str(int(e.undefined)), str(e.window), str(e.numerator),
            str(e.denominator_pcc), str(e.denominator_scc),
        ]))
    return lines


def write_summary(path, runs: list[RunResult], etas: list[EtaReport]) -> None:
    Path(path).write_text("\n".join(summary_lines(runs, etas)) + "\n",
                          encoding="utf-8")


def write_metadata(path, config_text: str, seeds: list[int], modes: list[str]) -> None:
    payload = {
        "artifact_version": __version__,
        "seeds": seeds,
        "modes": modes,
        "config": config_text,
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def write_table(path, columns: list[str], rows: list[list]) -> None:
    """Tidy results table for figure-style post-processing."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(
            _f(x) if isinstance(x, float) else str(x) for x in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
