"""Plain-text emission of per-slot traces, run summaries and sidecar
metadata.  Trace and summary files are byte-deterministic for a given
(config, seed); wall-clock and memory measurements go to a separate
timings file that is excluded from the determinism contract."""

from __future__ import annotations

import json
from pathlib import Path

from casplit import __version__
from casplit.engine import RunResult
from casplit.metrics import EtaReport, RunSummary

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


def write_trace(path, result: RunResult, n_scc: int) -> None:
    """One CSV row per simulated slot; requires a trace-collecting run."""
    if len(result.trace_extra) != result.t_slots:
        raise ValueError("run was not executed with collect_trace=True")
    lines = [",".join(trace_columns(n_scc))]
    for t in range(result.t_slots):
        occ, caps, gains, g, k, mode = result.trace_extra[t]
        row = [str(t), str(int(result.b[t])), str(int(result.a_p[t])),
               str(int(result.a_s[t]))]
        row += [str(int(x)) for x in occ]
        row += [str(int(x)) for x in caps]
        row += [str(int(result.delivered[t]))]
        row += [_f(gains[0]), _f(gains[1]), _f(gains[2]), _f(g), str(k), mode]
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


SUMMARY_COLUMNS = [
    "record", "scenario", "seed", "mode", "policy", "l", "t_slots",
    "total_delivered", "mean_throughput", "mean_abs_b", "completed",
    "eta", "eta_undefined", "window", "numerator", "den_pcc", "den_scc",
]


def summary_lines(summaries: list[RunSummary], etas: list[EtaReport]) -> list[str]:
    lines = [",".join(SUMMARY_COLUMNS)]
    for s in summaries:
        lines.append(",".join([
            "run", s.scenario_id, str(s.seed), s.mode, s.policy, str(s.l),
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


def write_summary(path, summaries: list[RunSummary], etas: list[EtaReport]) -> None:
    Path(path).write_text("\n".join(summary_lines(summaries, etas)) + "\n",
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


def write_timings(path, rows: list[dict]) -> None:
    """Wall-clock seconds per run and the process's peak RSS after it;
    not byte-reproducible."""
    lines = ["scenario,seed,mode,policy,wall_clock_s,process_peak_rss_kb"]
    for r in rows:
        lines.append(",".join([
            r["scenario"], str(r["seed"]), r["mode"], r["policy"],
            _f(r["wall_clock_s"]), str(r["process_peak_rss_kb"]),
        ]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_table(path, columns: list[str], rows: list[list]) -> None:
    """Tidy results table for figure-style post-processing."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(
            _f(x) if isinstance(x, float) else str(x) for x in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
