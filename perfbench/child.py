"""Fresh-process measurements for perfbench/run.py.

    python3 perfbench/child.py setup <workload> <tiny 0|1> <workdir>
    python3 perfbench/child.py rss <workload> <tiny 0|1> <workdir>

``setup`` imports casplit and builds the workload's scenario, nothing else,
between two bursts of host-speed calibration whose costs it prints as JSON;
the parent times the whole process.  ``rss`` runs one body at the default
seed and prints, as JSON, the process's peak RSS and the digest of the
body's simulated outputs.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

from hostspeed import calibrate
from run import casplit_on_path


def main(argv: list[str]) -> int:
    mode, name, tiny, workdir = argv
    costs = calibrate() if mode == "setup" else []
    if not casplit_on_path():
        return 2
    import workloads
    wl = workloads.make(name, tiny=tiny == "1")
    wl.setup(Path(workdir))
    if mode == "setup":
        print(json.dumps({"calibration": costs + calibrate()}))
        return 0
    try:
        body = wl.body(workloads.DEFAULT_SEED)
    except Exception as exc:  # noqa: BLE001 - reported as failed ops
        body = workloads.BodyResult((0.0, 0.0), 0, 0, wl.ops_per_body,
                                    failures=[f"seed {workloads.DEFAULT_SEED}: {exc!r}"]
                                    * wl.ops_per_body)
    print(json.dumps({
        "seed": workloads.DEFAULT_SEED,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digest": workloads.digest(body.rows),
        "attempted": body.attempted,
        "failed": min(len(body.failures), body.attempted),
        "failures": body.failures,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
