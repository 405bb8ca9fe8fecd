"""One pipeline iteration in a fresh interpreter.

Imports the CLI from the checkout's `src/`, writes the workload's spec and
config files (that much is set-up), then calls `cli_main` for each stage in
order, one after the other. Writes a JSON result for `run.py`:

    python3 perfbench/child.py --workload NAME --seed N --dir DIR --result FILE
                               [--trace] [--setup-only]

`ready` in the result is a `time.monotonic()` reading. On Linux that clock
is system-wide, so `run.py` subtracts its own reading taken just before
it started this process to get the set-up time.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    from coupled_labels.cli import cli_main

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    paths = workload.write_inputs(Path(args.dir), args.seed)
    result = {"ready": time.monotonic(), "stages": []}

    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            result["untraced_targets"] = tracer.install()
        for name, argv in workload.stages(paths, args.seed):
            start = time.perf_counter()
            if tracer is None:
                rc = cli_main(argv)
            else:
                with tracer.root(f"cli.{name}", run_id=f"{paths.dir.name}.{name}"):
                    rc = cli_main(argv)
            result["stages"].append({"name": name, "rc": rc,
                                     "wall_s": time.perf_counter() - start})
            sys.stdout.flush()
            if rc != 0:
                break
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            tracer.uninstall()
            tracer.write_csv(paths.dir / "spans.csv")

    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
