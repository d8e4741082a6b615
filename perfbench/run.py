"""Layered host-time benchmark of the SGX EPC simulator.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload solo-faultbound --seed 1 --seconds 25 --trace 0

Workloads: solo-faultbound, solo-hitbound, fleet-churn, solo-observed
(see ``perfbench/workloads.py``).  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Lines before it are the host record and
the per-job rows; the full record (with spans in a traced run) is
written to ``perfbench/out/``.

``--write-references`` recomputes ``perfbench/references.json``, the
job digests the output check compares against at the reference seed;
run it only for a change meant to alter simulated results.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-references", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import bench, workloads

    if args.write_references:
        digests = bench.write_references()
        print(f"wrote {len(digests)} digests to {bench.REFERENCE_FILE}")
        return 0
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    record = bench.measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print("host " + json.dumps(record["host"], sort_keys=True))
    bench.print_rows(record["jobs"])
    bench.write_record(record, bool(args.trace))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
