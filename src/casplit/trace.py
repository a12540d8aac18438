"""Plain-text emission of per-slot traces, run summaries and sidecar
metadata.  Trace and summary files are byte-deterministic for a given
(config, seed); wall-clock and memory measurements go to a separate
timings file that is excluded from the determinism contract.

A trace is written as one byte matrix, a row per slot, built a column at a
time with numpy: integers near 0 from a process-wide table of decimal
strings (at most ``DECIMALS_MAX`` rows), other values formatted once per
distinct value."""

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


DECIMALS_MAX = 2**17  # most entries of the decimal table: 6 bytes each, under 1 MB
_decimals = np.zeros((0, 1), np.uint8)  # row v: str(v), right-aligned in 0 bytes
_DIGITS = np.frombuffer(b"0123456789", np.uint8)


def _decimal_table(n: int) -> np.ndarray:
    """The process-wide decimal table with at least ``n`` <= ``DECIMALS_MAX``
    rows; grown to the next power of two (at most the bound) when it is
    shorter.  Row v holds the ASCII digits of v, right-aligned, and 0 bytes
    before them, which the writer drops."""
    global _decimals
    if len(_decimals) < n:
        size = min(1 << (n - 1).bit_length(), DECIMALS_MAX)
        width = len(str(size - 1))
        table = np.empty((size, width), np.uint8)
        for j in range(width):
            place = 10 ** (width - 1 - j)
            table[:, j] = np.resize(np.repeat(_DIGITS, place), size)  # (v // place) % 10
            if place > 1:
                table[:place, j] = 0  # no leading zeros; 0 keeps its last "0"
        _decimals = table
    return _decimals


def _column_bytes(column: np.ndarray) -> np.ndarray:
    """Each entry of a trace column as ASCII bytes: ``str`` of an integer
    or string, ``_f`` of a float, one row per entry, padded with 0 bytes
    to the longest.  Integers within ``DECIMALS_MAX`` of 0 gather their
    digits from the decimal table, with a sign column where any is
    negative.  Other values are formatted once each, a float told apart
    by its bits (so 0.0 from -0.0)."""
    kind = column.dtype.kind
    if kind in "iu":
        lo, hi = int(column.min(initial=0)), int(column.max(initial=0))
        if -DECIMALS_MAX < lo and hi < DECIMALS_MAX:
            most = max(hi, -lo)
            values = column.astype(np.intp)
            digits = _decimal_table(most + 1)[np.abs(values), -len(str(most)):]
            if lo >= 0:
                return digits
            return np.hstack([np.where(values < 0, ord("-"), 0).astype(np.uint8)[:, None],
                              digits])
    fmt = _f if kind == "f" else str
    keys = column.view(np.int64) if column.dtype == np.float64 else column
    _, first, index = np.unique(keys, return_index=True, return_inverse=True)
    texts = np.array([fmt(x).encode() for x in column[first].tolist()], dtype=np.bytes_)
    return texts.view(np.uint8).reshape(len(texts), texts.itemsize)[index]


def write_trace(path, result: RunResult) -> None:
    """One CSV row per simulated slot; requires a trace-collecting run.

    Each column becomes a block of ASCII bytes (``_column_bytes``), one row
    per slot, padded with 0 bytes.  The blocks and their ``,`` and ``\\n``
    bytes fill one byte matrix, and the file is the header followed by the
    matrix's bytes with the 0 bytes dropped."""
    if result.state is None:
        raise ValueError("run was not executed with collect_trace=True")
    n = result.t_slots
    columns = (np.arange(n), result.b, result.a_p, result.a_s, *result.occupancy,
               *result.capacity, result.delivered, *result.state)
    blocks = [_column_bytes(c) for c in columns]
    matrix = np.full((n, sum(b.shape[1] + 1 for b in blocks)), ord(","), np.uint8)
    at = 0
    for block in blocks:
        matrix[:, at:at + block.shape[1]] = block
        at += block.shape[1] + 1
    matrix[:, -1] = ord("\n")
    header = ",".join(trace_columns(len(result.occupancy) - 1)) + "\n"
    Path(path).write_bytes(header.encode() + matrix[matrix != 0].tobytes())


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
