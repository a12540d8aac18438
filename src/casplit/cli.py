"""Command line entry point.

Subcommands: ``run`` (batch of seeds x modes from a scenario config file),
``suite`` (named figure-style presets), ``oracle`` (brute-force solver and
identity checks on a tiny instance file).  Exit codes: 0 success, 1
configuration error, 2 runtime failure.  Set CASPLIT_LOG=debug|info|...
for verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from casplit import scenario as sc
from casplit.experiments import FIGURE_SUITES, ExperimentSpec, run_experiment
from casplit.fuzzy_pid import SplitAction
from casplit.oracle import TinyInstance, brute_force_min_T, replay_witness, \
    verify_nstep_identity
from casplit.scenario import RunMode

log = logging.getLogger("casplit")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


def _setup_logging() -> None:
    level = os.environ.get("CASPLIT_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _parse_args(argv):
    parser = argparse.ArgumentParser(prog="casplit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario over seeds and modes")
    p_run.add_argument("--config", required=True, help="scenario .ini file")
    p_run.add_argument("--seeds", help="comma separated seed list (default: [run] seed)")
    p_run.add_argument("--mode", default="ca,pcc,scc",
                       help="comma separated subset of ca,pcc,scc")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--policy", default=None,
                       help="override the config's splitting policy")

    p_suite = sub.add_parser("suite", help="run a named figure preset")
    p_suite.add_argument("--name", required=True,
                         help="|".join(sorted(FIGURE_SUITES)))
    p_suite.add_argument("--out", required=True)

    p_oracle = sub.add_parser("oracle", help="brute-force a tiny instance file")
    p_oracle.add_argument("--instance", required=True, help="instance .json file")
    p_oracle.add_argument("--unrestricted", action="store_true",
                          help="search the full two-bit action space")
    return parser.parse_args(argv)


def _check_list(option: str, values: list, text: str) -> None:
    """A comma separated option names at least one value, each once: a
    repeated one would write its summary rows twice and overwrite its traces."""
    if not values:
        raise sc.ConfigError(f"{option}: expected at least one value, got {text!r}")
    if len(set(values)) != len(values):
        raise sc.ConfigError(f"{option}: each value may appear once, got {text!r}")


def _out_dir(text: str) -> Path:
    """``--out``, made before any run: a path that cannot be a directory is refused first."""
    out = Path(text)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise sc.ConfigError(f"--out: cannot make directory {text!r}: {exc.strerror}") from None
    return out


def _cmd_run(args) -> int:
    cfg = sc.from_file(args.config)
    text = str(cfg.seed) if args.seeds is None else args.seeds
    try:
        seeds = [int(s) for s in text.split(",") if s]
    except ValueError:
        raise sc.ConfigError(f"--seeds: expected comma separated integers, "
                             f"got {text!r}") from None
    _check_list("--seeds", seeds, text)
    if min(seeds) < 0:
        raise sc.ConfigError(f"--seeds: seeds must be non-negative, got {text!r}")
    modes = []
    for m in args.mode.split(","):
        m = m.strip()
        if not m:
            continue
        try:
            modes.append(RunMode(m))
        except ValueError:
            raise sc.ConfigError(f"--mode: unknown mode {m!r} (use ca,pcc,scc)")
    _check_list("--mode", modes, args.mode)
    policies = [args.policy] if args.policy else None
    if policies and policies[0] not in sc.POLICIES:
        raise sc.ConfigError(f"--policy: unknown policy {policies[0]!r}")
    spec = ExperimentSpec(config=cfg, seeds=seeds, modes=modes,
                          out_dir=_out_dir(args.out), policies=policies)
    outcome = run_experiment(spec)
    log.info("wrote %d files to %s", len(outcome.files), args.out)
    return EXIT_OK


def _cmd_suite(args) -> int:
    if args.name not in FIGURE_SUITES:
        raise sc.ConfigError(
            f"--name: unknown suite {args.name!r} (known: {sorted(FIGURE_SUITES)})")
    FIGURE_SUITES[args.name](_out_dir(args.out))
    return EXIT_OK


def _load_instance(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise sc.ConfigError(f"instance file not found: {path}")
    except json.JSONDecodeError as exc:
        raise sc.ConfigError(f"instance file is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise sc.ConfigError(f"instance file must hold a JSON object, got {type(raw).__name__}")
    return raw


def _parse_identity(identity, max_slots: int) -> tuple[list[SplitAction], int]:
    """The ``identity`` block: a non-empty list of [a_p, a_s] pairs and a window."""
    try:
        pattern = [SplitAction(*pair) for pair in identity["pattern"]]
    except (KeyError, TypeError, ValueError):
        pattern = None
    if not pattern:
        raise sc.ConfigError("identity.pattern: expected a non-empty list of [a_p, a_s] 0/1 pairs")
    window = identity.get("window")
    if type(window) is not int or not 1 <= window <= max_slots:
        raise sc.ConfigError(f"identity.window: expected an integer in [1, {max_slots}], "
                             f"got {window!r}")
    return pattern, window


def _cmd_oracle(args) -> int:
    raw = _load_instance(args.instance)
    identity = raw.pop("identity", None)
    try:
        inst = TinyInstance(**raw)
    except (TypeError, ValueError) as exc:
        raise sc.ConfigError(f"instance rejected: {exc}")

    if identity is not None:
        pattern, window = _parse_identity(identity, inst.max_slots)
        report = verify_nstep_identity(inst, pattern, window)
        print(f"identity case: {report.valid_case}")
        print(f"identity holds: {report.holds}")
        print(f"delta_h={report.delta_h} workload={report.workload} "
              f"delivered={report.delivered}")
        for v in report.violations:
            print(f"assumption violated: {v}")
        return EXIT_OK

    if any(inst.preseed_rlc):
        raise sc.ConfigError("preseed_rlc: the min-T search starts from an empty stack; "
                             "a preseed needs an identity block")
    result = brute_force_min_T(inst, allow_noncomplementary=args.unrestricted)
    if not result.feasible:
        print("no solution within the instance horizon")
        return EXIT_OK
    print(f"t_star={result.t_star}")
    print("witness=" + "".join("P" if a.a_p else "S" for a in result.actions))
    print("per_slot_throughput=" + ",".join(str(x) for x in result.per_slot_throughput))
    replay_t, _ = replay_witness(inst, result.actions)
    print(f"replay_t={replay_t} (matches={replay_t == result.t_star})")
    return EXIT_OK


def main(argv=None) -> int:
    _setup_logging()
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "suite":
            return _cmd_suite(args)
        return _cmd_oracle(args)
    except sc.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        log.debug("runtime failure", exc_info=True)
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
