import json
from pathlib import Path

import pytest

from casplit import scenario as sc
from casplit.cli import main
from casplit.scenario import default_static_scenario
from casplit.trace import trace_columns


@pytest.fixture()
def tiny_config(tmp_path):
    cfg = default_static_scenario(2).copy(l=60, max_slots=2_000)
    path = tmp_path / "tiny.ini"
    sc.to_file(cfg, path)
    return path, cfg


def run_cli(*argv):
    return main(list(argv))


def test_run_emits_traces_and_summary(tiny_config, tmp_path):
    path, cfg = tiny_config
    out = tmp_path / "out"
    seeds = ",".join(str(s) for s in range(1, 11))
    code = run_cli("run", "--config", str(path), "--seeds", seeds,
                   "--mode", "ca,pcc,scc", "--out", str(out))
    assert code == 0
    traces = sorted(out.glob("trace_*.csv"))
    assert len(traces) == 30  # 10 seeds x 3 modes
    assert (out / "summary.csv").exists()
    assert (out / "metadata.json").exists()
    summary = (out / "summary.csv").read_text().splitlines()
    assert sum(1 for line in summary if line.startswith("eta,")) == 10


def test_rerun_is_byte_identical(tiny_config, tmp_path):
    path, _ = tiny_config
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run_cli("run", "--config", str(path), "--seeds", "3",
                       "--mode", "ca,pcc,scc", "--out", str(out)) == 0
        outs.append(out)
    for fname in ["summary.csv"] + [p.name for p in outs[0].glob("trace_*.csv")]:
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_missing_carrier_section_exit_code_1(tmp_path, capsys):
    cfg_path = tmp_path / "broken.ini"
    text = "\n".join([
        "[workload]", "l = 10", "arrival_mode = burst", "arrival_rate = 5",
        "[channel]", "d_xn = 2",
        "[controller]", "policy = fuzzy_pid", "n = 16",
        "[trajectory]", "kind = static", "distance_m = 100.0",
        "[run]", "seed = 1", "max_slots = 100", "n_scc = 1",
    ])
    cfg_path.write_text(text, encoding="utf-8")
    code = run_cli("run", "--config", str(cfg_path), "--seeds", "1",
                   "--mode", "ca", "--out", str(tmp_path / "o"))
    assert code == 1
    assert "carriers.pcc" in capsys.readouterr().err


def test_unknown_mode_exit_code_1(tiny_config, tmp_path, capsys):
    path, _ = tiny_config
    code = run_cli("run", "--config", str(path), "--seeds", "1",
                   "--mode", "bogus", "--out", str(tmp_path / "o"))
    assert code == 1
    assert "mode" in capsys.readouterr().err


def test_unknown_suite_rejected(tmp_path, capsys):
    code = run_cli("suite", "--name", "fig99", "--out", str(tmp_path))
    assert code == 1
    assert "fig99" in capsys.readouterr().err


def test_suite_fig5_writes_tables(tmp_path):
    code = run_cli("suite", "--name", "fig5", "--out", str(tmp_path))
    assert code == 0
    assert (tmp_path / "fig5_sweep.csv").exists()
    assert (tmp_path / "fig5_correlation.csv").exists()


def test_suite_fig4_writes_ratio_table(tmp_path):
    code = run_cli("suite", "--name", "fig4", "--out", str(tmp_path))
    assert code == 0
    head = (tmp_path / "fig4_ratio.csv").read_text().splitlines()[0]
    assert head == "n_scc,policy,window,slot,scc_pcc_ratio"


def test_oracle_subcommand_min_t(tmp_path, capsys):
    inst = {
        "l": 3,
        "n_scc": 1,
        "caps": [[1] * 24, [1] * 24],
        "d_xn": 0,
        "max_slots": 24,
    }
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst), encoding="utf-8")
    assert run_cli("oracle", "--instance", str(path)) == 0
    out = capsys.readouterr().out
    assert "t_star=" in out and "matches=True" in out


def test_oracle_subcommand_identity(tmp_path, capsys):
    inst = {
        "l": 1,
        "n_scc": 1,
        "caps": [[1] * 24, [1] * 24],
        "d_xn": 0,
        "max_slots": 24,
        "preseed_rlc": [12, 0],
        "identity": {"pattern": [[1, 0], [0, 1]], "window": 10},
    }
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst), encoding="utf-8")
    assert run_cli("oracle", "--instance", str(path)) == 0
    out = capsys.readouterr().out
    assert "identity holds: True" in out


def test_oracle_rejects_oversized_instance(tmp_path, capsys):
    inst = {"l": 99, "n_scc": 1, "caps": [[1] * 24, [1] * 24]}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(inst), encoding="utf-8")
    assert run_cli("oracle", "--instance", str(path)) == 1


def test_summary_totals_match_trace_recomputation(tiny_config, tmp_path):
    path, cfg = tiny_config
    out = tmp_path / "recheck"
    assert run_cli("run", "--config", str(path), "--seeds", "4",
                   "--mode", "ca,pcc,scc", "--out", str(out)) == 0
    summary = {}
    for line in (out / "summary.csv").read_text().splitlines()[1:]:
        cells = line.split(",")
        if cells[0] == "run":
            summary[cells[4]] = int(cells[7])  # policy -> total_delivered
    for trace in out.glob("trace_*.csv"):
        lines = trace.read_text().splitlines()
        cols = lines[0].split(",")
        idx = cols.index("delivered")
        total = sum(int(row.split(",")[idx]) for row in lines[1:])
        policy = trace.stem[len(f"trace_{cfg.name}_"):-len("_4")]
        assert summary[policy] == total


def test_trace_schema_is_stable():
    assert trace_columns(2) == [
        "t", "b", "a_p", "a_s",
        "rlc_pcc", "rlc_scc1", "rlc_scc2",
        "cap_pcc", "cap_scc1", "cap_scc2",
        "delivered", "k_p", "k_i", "k_d", "g", "k", "mode",
    ]


def test_trace_file_golden_prefix(tmp_path):
    cfg = default_static_scenario(1).copy(l=4, max_slots=50, seed=1)
    path = tmp_path / "cfg.ini"
    sc.to_file(cfg, path)
    out = tmp_path / "o"
    assert run_cli("run", "--config", str(path), "--seeds", "1",
                   "--mode", "pcc", "--out", str(out)) == 0
    trace = next(out.glob("trace_*_forced-pcc_1.csv")).read_text().splitlines()
    assert trace[0] == ",".join(trace_columns(1))
    first = trace[1].split(",")
    assert first[0] == "0" and first[2] == "1" and first[3] == "0"


@pytest.mark.parametrize("field, value", [
    ("caps", [[1] * 24, [1, -1] + [1] * 22]),
    ("preseed_rlc", [3, -1]),
])
def test_oracle_rejects_negative_counts(tmp_path, capsys, field, value):
    inst = {"l": 3, "n_scc": 1, "caps": [[1] * 24, [1] * 24], field: value}
    path = tmp_path / "neg.json"
    path.write_text(json.dumps(inst), encoding="utf-8")
    assert run_cli("oracle", "--instance", str(path)) == 1
    captured = capsys.readouterr()
    assert field in captured.err and "t_star" not in captured.out


@pytest.mark.parametrize("identity, key", [
    ({"pattern": [[1, 0], [0, 1]], "window": 30}, "identity.window"),
    ({"pattern": [[1, 0], [0, 1]]}, "identity.window"),
    ({"pattern": [], "window": 10}, "identity.pattern"),
    ({"pattern": [[1, 2]], "window": 10}, "identity.pattern"),
])
def test_oracle_rejects_malformed_identity_block(tmp_path, capsys, identity, key):
    inst = {"l": 1, "n_scc": 1, "caps": [[1] * 24, [1] * 24], "max_slots": 24,
            "preseed_rlc": [12, 0], "identity": identity}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst), encoding="utf-8")
    assert run_cli("oracle", "--instance", str(path)) == 1
    assert key in capsys.readouterr().err
