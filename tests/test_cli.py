import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import casplit
from casplit import scenario as sc
from casplit.cli import main
from casplit.engine import Simulation
from casplit.oracle import MAX_SLOTS
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
        "[trajectory]", "d0_m = 100.0", "speed_mps = 0.0", "turn_time_s = 10.0",
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


@pytest.mark.parametrize("policy", ["", "bogus", "fuzzy"])
def test_run_refuses_an_empty_or_unknown_policy(tiny_config, tmp_path, capsys, policy):
    """An empty ``--policy`` is refused like an unknown one, naming
    ``--policy``, not read as no override."""
    path, _ = tiny_config
    code = run_cli("run", "--config", str(path), "--seeds", "1", "--mode", "ca",
                   "--out", str(tmp_path / "o"), "--policy", policy)
    assert code == 1
    assert capsys.readouterr().err == f"config error: --policy: unknown policy {policy!r}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("override", [None, "bwa"])
@pytest.mark.parametrize("mode", ["ca", "pcc,scc"])
def test_metadata_records_the_policy_that_ran(tiny_config, tmp_path, override, mode):
    """``metadata.json`` names the CA policy that ran: ``--policy`` where
    given, which ``scenario.ini`` does not record, else the config's; none
    when no CA mode ran."""
    path, cfg = tiny_config
    out = tmp_path / "o"
    policy = [] if override is None else ["--policy", override]
    assert run_cli("run", "--config", str(path), "--seeds", "1", "--mode", mode,
                   "--out", str(out), *policy) == 0
    meta = json.loads((out / "metadata.json").read_text(encoding="utf-8"))
    ran = (override or cfg.policy) if mode == "ca" else ""
    assert meta["policy"] == ran and cfg.policy == "fuzzy_pid"
    assert sorted(p.name for p in out.glob("trace_*_1.csv")) == sorted(
        f"trace_{cfg.name}_{label}_1.csv" for label in (ran or "forced-pcc,forced-scc").split(","))
    assert "policy = fuzzy_pid\n" in (out / "scenario.ini").read_text(encoding="utf-8")


def test_out_that_cannot_be_a_directory_exits_1_before_any_run(tiny_config, tmp_path,
                                                                capsys, monkeypatch):
    """An ``--out`` naming an existing file is refused naming ``--out``, by
    ``run`` before it computes any run and by ``suite`` alike."""
    path, _ = tiny_config
    out = tmp_path / "taken"
    out.write_text("", encoding="utf-8")

    def refused(sim):
        raise AssertionError("a run was computed")
    monkeypatch.setattr(Simulation, "run", refused)
    for argv in (("run", "--config", str(path), "--seeds", "1,2", "--mode", "ca,pcc,scc"),
                 ("suite", "--name", "fig6")):
        assert run_cli(*argv, "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith("config error: --out: ")


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


@pytest.mark.parametrize("make, names", [
    (lambda path: path.write_bytes(b'{"l": 3, "label": "\xff"}'), "not valid UTF-8"),
    (lambda path: path.mkdir(), "cannot read instance file"),
], ids=["not-utf8", "directory"])
def test_oracle_rejects_an_unreadable_instance_file(tmp_path, capsys, make, names):
    """Bytes that do not decode as UTF-8, or a path that is a directory,
    exit 1 naming the file, not 2."""
    path = tmp_path / "inst.json"
    make(path)
    assert run_cli("oracle", "--instance", str(path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and names in err and str(path) in err


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


def test_run_defaults_to_config_seed(tmp_path):
    """Without ``--seeds`` the run uses the config's ``[run] seed``."""
    path = tmp_path / "cfg.ini"
    sc.to_file(default_static_scenario(1).copy(l=4, max_slots=50, seed=7), path)
    out = tmp_path / "o"
    assert run_cli("run", "--config", str(path), "--mode", "ca,pcc", "--out", str(out)) == 0
    assert sorted(p.name for p in out.glob("trace_*.csv")) == [
        "trace_static-nscc1_forced-pcc_7.csv", "trace_static-nscc1_fuzzy_pid_7.csv"]


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
    ("d_xn", MAX_SLOTS + 1),
    ("preseed_rlc", [3, 0]),
])
def test_oracle_rejects_negative_counts(tmp_path, capsys, field, value):
    """A negative count, an Xn delay past the horizon or, without an
    ``identity`` block, a preseed the min-T search cannot start from exits
    1 naming its key, before any search."""
    inst = {"l": 3, "n_scc": 1, "caps": [[1] * 24, [1] * 24], field: value}
    path = tmp_path / "neg.json"
    path.write_text(json.dumps(inst), encoding="utf-8")
    assert run_cli("oracle", "--instance", str(path)) == 1
    captured = capsys.readouterr()
    assert field in captured.err and "t_star" not in captured.out


@pytest.mark.parametrize("raw", [[1, 2], 3, "l", None])
def test_oracle_rejects_an_instance_that_is_not_an_object(tmp_path, capsys, raw):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert run_cli("oracle", "--instance", str(path)) == 1
    assert "instance file must hold a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("max_slots", [0, -2])
def test_oracle_rejects_empty_horizon(tmp_path, capsys, max_slots):
    """A horizon of no slots is refused with a message naming ``max_slots``,
    not searched and reported as having no solution."""
    inst = {"l": 3, "n_scc": 1, "caps": [[1] * 24, [1] * 24], "max_slots": max_slots}
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(inst), encoding="utf-8")
    assert run_cli("oracle", "--instance", str(path)) == 1
    captured = capsys.readouterr()
    assert "config error: instance rejected: max_slots must be in [1, 24]" in captured.err
    assert "no solution" not in captured.out


@pytest.mark.parametrize("identity, key", [
    ({"pattern": [[1, 0], [0, 1]], "window": 30}, "identity.window"),
    ({"pattern": [[1, 0], [0, 1]]}, "identity.window"),
    ({"pattern": [], "window": 10}, "identity.pattern"),
    ({"pattern": [[1, 2]], "window": 10}, "identity.pattern"),
    ({"pattern": [[True, False]], "window": 10}, "identity.pattern"),
    ({"pattern": [[1.0, 0]], "window": 10}, "identity.pattern"),
    ({"pattern": [[1, 0], [0, 1.0]], "window": 10}, "identity.pattern"),
])
def test_oracle_rejects_malformed_identity_block(tmp_path, capsys, identity, key):
    inst = {"l": 1, "n_scc": 1, "caps": [[1] * 24, [1] * 24], "max_slots": 24,
            "preseed_rlc": [12, 0], "identity": identity}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst), encoding="utf-8")
    assert run_cli("oracle", "--instance", str(path)) == 1
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("l", 2.5),
    ("n_scc", True),
    ("d_xn", 1.5),
    ("max_slots", "24"),
    ("caps", [[1] * 24, [1.5] + [1] * 23]),
    ("preseed_rlc", [3, 0.5]),
    ("preseed_rlc", None),
    ("preseed_rlc", 0),
])
def test_oracle_rejects_non_integer_fields(tmp_path, capsys, field, value):
    inst = {"l": 3, "n_scc": 1, "caps": [[1] * 24, [1] * 24], field: value}
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(inst), encoding="utf-8")
    assert run_cli("oracle", "--instance", str(path)) == 1
    captured = capsys.readouterr()
    assert f"config error: instance rejected: {field}" in captured.err
    assert "t_star" not in captured.out


def test_python_m_casplit_runs_the_cli_and_exits_with_its_code(tmp_path):
    """``python -m casplit`` runs ``cli.main``: a solvable instance prints
    its T* and exits 0, a rejected one exits 1 naming the field."""
    src = str(Path(casplit.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    codes = []
    for name, l in (("good.json", 2), ("bad.json", 0)):
        path = tmp_path / name
        path.write_text(json.dumps({"l": l, "n_scc": 1, "caps": [[1] * 24, [1] * 24]}),
                        encoding="utf-8")
        done = subprocess.run([sys.executable, "-m", "casplit", "oracle", "--instance",
                               str(path)], capture_output=True, text=True, env=env, timeout=120)
        codes.append(done.returncode)
        assert ("t_star=" in done.stdout) == (l > 0)
        assert ("instance rejected: l" in done.stderr) == (l == 0)
    assert codes == [0, 1]


@pytest.mark.parametrize("field, value, message", [
    ("caps", 5, "caps must be a list of one list per carrier"),
    ("caps", [5, 6], "caps must be a list of one list per carrier"),
    ("caps", "ab", "caps must be a list of one list per carrier"),
    ("label", [1], "label: expected"),
    ("label", 7, "label: expected"),
])
def test_oracle_rejects_caps_and_labels_of_the_wrong_kind(tmp_path, capsys, field, value,
                                                          message):
    inst = {"l": 3, "n_scc": 1, "caps": [[1] * 24, [1] * 24], field: value}
    path = tmp_path / "kinds.json"
    path.write_text(json.dumps(inst), encoding="utf-8")
    assert run_cli("oracle", "--instance", str(path)) == 1
    captured = capsys.readouterr()
    assert f"config error: instance rejected: {message}" in captured.err
    assert "t_star" not in captured.out


@pytest.mark.parametrize("section, key, value", [
    ("workload", "l", "fifty"),
    ("carriers.pcc", "fading_family", "rayleigh"),
    ("carriers.pcc", "frequency_ghz", "0"),
    ("carriers.pcc", "frequency_ghz", "-1"),
    ("carriers.scc1", "bandwidth_mhz", "0"),
    ("carriers.pcc", "rho", "nan"),
    ("carriers.pcc", "n_th", "nan"),
    ("carriers.scc1", "sigma2", "nan"),
    ("controller", "kp", "nan"),
    ("trajectory", "d0_m", "nan"),
    ("trajectory", "d0_m", "inf"),
    ("run", "slot_duration", "-0.001"),
    ("trajectory", "kind", "spiral"),
    ("workload", "arrival_rat", "5"),
    ("channel", "d_x", "2"),
    ("run", "max_slot", "200"),
    ("trajectory", "distance", "100.0"),
    ("carriers.pcc", "sigma_2", "0.0004"),
    ("carriers.scc1", "sigma_2", "0.27"),
    ("workload", "l", None),
    ("controller", "policy", None),
    ("run", "name", "a,b"),
    ("run", "name", "a/b"),
])
def test_run_rejects_malformed_typed_field(tiny_config, tmp_path, capsys, section, key, value):
    """A malformed, non-finite or out-of-range value, an unknown key or a
    missing one (``value`` None) exits 1 naming its key; a key the file
    leaves out is added to its section."""
    path, _ = tiny_config
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    start = lines.index(f"[{section}]")
    end = next((i for i in range(start + 1, len(lines)) if lines[i].startswith("[")),
               len(lines))
    at = next((i for i in range(start, end) if lines[i].startswith(f"{key} = ")), None)
    if value is None:
        del lines[at]
    elif at is None:
        lines.insert(start + 1, f"{key} = {value}")
    else:
        lines[at] = f"{key} = {value}"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = run_cli("run", "--config", str(path), "--seeds", "1",
                   "--mode", "ca", "--out", str(tmp_path / "o"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and f"{section}.{key}" in err
    assert (value or "missing key") in err


@pytest.mark.parametrize("old", [["kind = static", "distance_m = 100.0"],
                                 ["kind = out_and_back", "d0_m = 70.0", "speed_mps = 10.0",
                                  "turn_time_s = 10.0"]],
                         ids=["static", "out_and_back"])
def test_run_rejects_the_old_trajectory_format(tiny_config, tmp_path, capsys, old):
    """A file whose ``[trajectory]`` still selects a class by ``kind`` exits 1
    naming ``trajectory.kind``; no reader of that format is left."""
    path, _ = tiny_config
    lines = path.read_text(encoding="utf-8").splitlines()
    start = lines.index("[trajectory]")
    end = next(i for i in range(start + 1, len(lines)) if lines[i].startswith("["))
    lines[start + 1:end] = old + [""]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = run_cli("run", "--config", str(path), "--seeds", "1",
                   "--mode", "ca", "--out", str(tmp_path / "o"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: trajectory.{old[0]}: unknown key")
    assert "takes d0_m, speed_mps, turn_time_s" in err


@pytest.mark.parametrize("edit, names", [
    (lambda text: "l = 60\n" + text, "no section headers"),
    (lambda text: text + "[run]\nseed = 2\n", "section 'run' already exists"),
    (lambda text: text.replace("l = 60\n", "l = 60\nl = 70\n"), "workload.l"),
    (lambda text: "[DEFAULT]\nseed = 3\n" + text, "[DEFAULT] seed"),
], ids=["no-section-header", "repeated-section", "repeated-key", "default-section"])
def test_run_rejects_malformed_ini(tiny_config, tmp_path, capsys, edit, names):
    path, _ = tiny_config
    path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
    code = run_cli("run", "--config", str(path), "--seeds", "1",
                   "--mode", "ca", "--out", str(tmp_path / "o"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and names in err


@pytest.mark.parametrize("argv, code, names", [
    (["run", "--config", "x.ini"], 1, "--out"),
    (["frobnicate"], 1, "frobnicate"),
    (["--frob"], 1, "--frob"),
    ([], 1, "required: command"),
    (["--help"], 0, "usage:"),
], ids=["missing-out", "unknown-command", "unknown-flag", "no-command", "help"])
def test_usage_errors_exit_1_and_help_exits_0(capsys, argv, code, names):
    """argparse's usage errors are configuration errors (exit 1, with its
    message naming what is wrong); ``--help`` succeeds."""
    assert run_cli(*argv) == code
    captured = capsys.readouterr()
    assert names in (captured.err if code else captured.out)


def test_run_rejects_config_that_is_not_utf8(tiny_config, tmp_path, capsys):
    """Bytes that do not decode as UTF-8 exit 1 naming the file, not 2."""
    path, _ = tiny_config
    text = path.read_bytes()
    assert b"l = 60\n" in text
    path.write_bytes(text.replace(b"l = 60\n", b"l = \xff\xfe10\n", 1))
    code = run_cli("run", "--config", str(path), "--seeds", "1",
                   "--mode", "ca", "--out", str(tmp_path / "o"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "not valid UTF-8" in err and str(path) in err


@pytest.mark.parametrize("make, names", [
    (lambda path: None, "config file not found"),
    (lambda path: path.mkdir(), "cannot read config file"),
], ids=["missing", "directory"])
def test_run_names_a_config_file_it_cannot_read(tmp_path, capsys, make, names):
    """A config path that does not exist, or exists but cannot be read (a
    directory), exits 1 with a message that says which, naming the path."""
    path = tmp_path / "scenario.ini"
    make(path)
    code = run_cli("run", "--config", str(path), "--seeds", "1", "--out", str(tmp_path / "o"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and names in err and str(path) in err


def test_run_refuses_two_carriers_of_one_name(tiny_config, tmp_path, capsys):
    """``[carriers.]`` takes its kind's name, so next to ``[carriers.scc]``
    two SCCs would share one fading stream and one written-back section:
    exit 1 naming the carrier, before any run."""
    path, _ = tiny_config
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace("[carriers.scc1]", "[carriers.]")
                    .replace("[carriers.scc2]", "[carriers.scc]"), encoding="utf-8")
    out = tmp_path / "o"
    code = run_cli("run", "--config", str(path), "--seeds", "1", "--out", str(out))
    assert code == 1
    assert "carriers.scc: two carriers share this name" in capsys.readouterr().err
    assert not list(out.glob("trace_*.csv"))


@pytest.mark.parametrize("policy, key, value", [
    ("fuzzy_pid", "escape_divisr", "4"),
    ("fuzzy_pid", "probe_resets_gains", "maybe"),
    ("stationary_k", "k", "1.5"),
    ("fuzzy_pid", "b_max", "abc"),
    ("fuzzy_pid", "kp", "abc"),
    ("fuzzy_pid", "t_p", "1,2,3"),
    ("fuzzy_pid", "escape_divisor", "0"),
    ("qlearning", "epsilon", "2"),
    ("qlearning", "n_bins", "0"),
    ("qlearning", "discount", "5"),
    ("qlearning", "discount", "1"),
    ("qlearning", "learn_rate", "-2"),
    ("qlearning", "learn_rate", "1.5"),
    ("bwa", "k", "3"),
    ("fuzzy_pid", "membership_width", "0"),
    ("fuzzy_pid", "membership_width_change", "0"),
    ("fuzzy_pid", "gain_min", "2"),
    ("ltr", "eps_rate", "0"),
    ("ltr", "smoothing", "1.5"),
])
def test_run_rejects_malformed_controller_key(tmp_path, capsys, policy, key, value):
    path = tmp_path / "ctl.ini"
    sc.to_file(default_static_scenario(1).copy(l=20, max_slots=200, policy=policy), path)
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace("n = 16\n", f"n = 16\n{key} = {value}\n", 1), encoding="utf-8")
    code = run_cli("run", "--config", str(path), "--seeds", "1",
                   "--mode", "ca", "--out", str(tmp_path / "o"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and f"controller.{key}" in err


def test_nofuzzy_pid_accepts_zero_membership_widths(tmp_path):
    """nofuzzy_pid never fuzzifies, so zero widths are harmless there."""
    path = tmp_path / "ctl.ini"
    sc.to_file(default_static_scenario(1).copy(l=20, max_slots=200, policy="nofuzzy_pid"), path)
    text = path.read_text(encoding="utf-8")
    widths = "membership_width = 0\nmembership_width_change = 0\n"
    path.write_text(text.replace("n = 16\n", "n = 16\n" + widths, 1), encoding="utf-8")
    assert run_cli("run", "--config", str(path), "--seeds", "1",
                   "--mode", "ca", "--out", str(tmp_path / "o")) == 0


def test_run_rejects_malformed_seeds(tiny_config, tmp_path, capsys):
    """Not an integer, negative, repeated or none at all: exit 1 naming
    ``--seeds``, before any file is written."""
    path, _ = tiny_config
    out = tmp_path / "o"
    for seeds in ("1,x", "-1", "1,1", ",", ""):
        code = run_cli("run", "--config", str(path), "--seeds", seeds,
                       "--mode", "ca", "--out", str(out))
        assert code == 1, seeds
        assert "--seeds" in capsys.readouterr().err, seeds
        assert not out.exists(), seeds


@pytest.mark.parametrize("mode", [",", "", "ca,ca", "ca,pcc,ca"])
def test_run_rejects_empty_or_repeated_modes(tiny_config, tmp_path, capsys, mode):
    """No mode or a repeated one exits 1 naming ``--mode``, before any file
    is written; a header-only ``summary.csv`` is not a result."""
    path, _ = tiny_config
    out = tmp_path / "o"
    code = run_cli("run", "--config", str(path), "--seeds", "1",
                   "--mode", mode, "--out", str(out))
    assert code == 1
    assert "--mode" in capsys.readouterr().err
    assert not out.exists()
