"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload graph_bulk --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` is the separate traced run that wraps each layer's entry
points and prints the per-layer breakdown (and the tracing overhead
against an untraced loop of the same length).  ``--tiny`` shrinks every
input for the benchmark's own smoke test.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  A failed correctness check prints no result and exits 1.

Run it from the root of the repository: it imports the package from
``src/`` and keeps its scratch directories under ``.perfbench-work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAMES = ("graph_bulk", "hyper_bulk", "served_trickle")


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workdir = ROOT / ".perfbench-work" / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                               args.tiny, workdir)
    except workloads.GateFailure as exc:
        print(f"perfbench: correctness check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass                          # another run still uses it
    for line in result.lines:
        print(line)
    if result.ops.errors:
        print("failed operations: " + "; ".join(result.ops.errors))
    for name, (value, unit, samples) in result.metrics.items():
        print(f"metric {name} {value:.6g} {unit} n={samples}")
    print(json.dumps({
        "correct": True,
        "attempted": result.ops.attempted,
        "failed": result.ops.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
