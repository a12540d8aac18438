"""Pinned SHA-256 digests of the CLI's outputs.

``casplit run --mode ca,pcc,scc --seeds 1,2`` for every policy on the static
and mobile presets at n_scc 1 and 3 (3000 slots; the static burst is cut to
2000 packets so that it completes inside them), ``casplit oracle`` with
and without ``--unrestricted`` on generated instances, and ``casplit
suite`` for every figure preset must write the same bytes as when
``golden_digests.json`` was made: every trace, ``summary.csv``, the
``scenario.ini`` a run writes back (so the config format changes only on
purpose), the oracle's printed report and every CSV a suite writes.  A
change that means to alter outputs regenerates the file, and says so:

    PYTHONPATH=src python tests/test_golden.py > tests/golden_digests.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from casplit import scenario as sc
from casplit.cli import main
from casplit.core import make_rng
from casplit.experiments import FIGURE_SUITES
from casplit.oracle import gen_min_t_instance

GOLDEN = Path(__file__).with_name("golden_digests.json")
PRESETS = {"static": lambda n_scc: sc.default_static_scenario(n_scc, l=2000),
           "mobile": sc.default_mobile_scenario}
RUN_CASES = [f"{preset}-nscc{n_scc}-{policy}"
             for preset in PRESETS for n_scc in (1, 3) for policy in sc.POLICIES]
ORACLE_INSTANCES = 8


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digests(case: str, tmp: Path) -> dict[str, str]:
    """The digest of each trace, of ``summary.csv`` and of ``scenario.ini``
    of one ``casplit run``."""
    preset, n_scc, policy = case.split("-")
    cfg = PRESETS[preset](int(n_scc[len("nscc"):])).copy(max_slots=3000)
    config, out = tmp / f"{case}.ini", tmp / case
    sc.to_file(cfg, config)
    assert main(["run", "--config", str(config), "--seeds", "1,2", "--mode", "ca,pcc,scc",
                 "--policy", policy, "--out", str(out)]) == 0
    files = sorted(out.glob("trace_*.csv")) + [out / "summary.csv", out / "scenario.ini"]
    return {p.name: _sha(p.read_bytes()) for p in files}


def oracle_digests(tmp: Path) -> dict[str, str]:
    """The digest of ``casplit oracle``'s report on generated instances and
    on one identity instance."""
    rng = make_rng(1, "golden-oracle")
    docs = {}
    for i in range(ORACLE_INSTANCES):
        inst = gen_min_t_instance(rng)
        docs[f"min-t-{i}"] = {"l": inst.l, "n_scc": inst.n_scc, "caps": inst.caps,
                              "d_xn": inst.d_xn}
    docs["identity"] = {"l": 1, "n_scc": 2, "caps": [[2] * 24, [1] * 24, [1] * 24],
                        "preseed_rlc": [0, 10, 10],
                        "identity": {"pattern": [[1, 0], [0, 1], [0, 1]], "window": 9}}
    out = {}
    for name, doc in docs.items():
        path = tmp / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for flags in ([], ["--unrestricted"]):
            text = io.StringIO()
            with contextlib.redirect_stdout(text):
                assert main(["oracle", "--instance", str(path), *flags]) == 0
            out[" ".join([name, *flags])] = _sha(text.getvalue().encode())
    return out


def suite_digests(name: str, tmp: Path) -> dict[str, str]:
    """The digest of each CSV ``casplit suite --name <name>`` writes."""
    out = tmp / name
    assert main(["suite", "--name", name, "--out", str(out)]) == 0
    return {p.name: _sha(p.read_bytes()) for p in sorted(out.glob("*.csv"))}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", RUN_CASES)
def test_run_outputs_match_pinned_digests(case, golden, tmp_path):
    assert run_digests(case, tmp_path) == golden["run"][case]


def test_oracle_outputs_match_pinned_digests(golden, tmp_path):
    assert oracle_digests(tmp_path) == golden["oracle"]


@pytest.mark.parametrize("name", sorted(FIGURE_SUITES))
def test_suite_outputs_match_pinned_digests(name, golden, tmp_path):
    assert suite_digests(name, tmp_path) == golden["suite"][name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        doc = {"run": {case: run_digests(case, Path(tmp)) for case in RUN_CASES},
               "oracle": oracle_digests(Path(tmp)),
               "suite": {name: suite_digests(name, Path(tmp)) for name in sorted(FIGURE_SUITES)}}
    json.dump(doc, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
