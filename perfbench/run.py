"""Benchmark entry point.

    python3 perfbench/run.py --workload fig4-scalar --seed 1 --seconds 15 --trace 0

Runs one workload from the root of a source checkout, checks its
outputs, prints every metric by name and unit, and ends with one JSON
line ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the ``end_to_end`` ones of
``BENCHMARK.json``; with ``--trace 1`` they are the ``per_layer`` ones,
and the spans go to ``.perfbench/traces/<workload>.json``.
``--workload all`` runs every workload, each in a fresh process.
A failed check exits 1 without printing a result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import ROOT, BenchError, bootstrap  # noqa: E402

WORKLOADS = ("fig4-scalar", "fig4-batch", "engine-variants", "serve-routed")


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def run_one(args) -> int:
    bootstrap()
    declared = declared_metrics(bool(args.trace))
    t0 = time.perf_counter()
    if args.workload == "serve-routed":
        from perfbench import serve

        metrics, attempted, lines = serve.run(
            args.seed, args.seconds, bool(args.trace), args.size
        )
    else:
        from perfbench import sweeps

        metrics, attempted, lines = sweeps.run(
            args.workload, args.seed, args.seconds, bool(args.trace), args.size
        )
    print(f"== {args.workload} seed {args.seed} ({args.size}, "
          f"{time.perf_counter() - t0:.1f} s)")
    for line in lines:
        print(line)
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name:<28} {value:>14.6g} {unit}")
    out = {}
    for entry in declared:
        name = entry["name"]
        if name in metrics:
            value, unit = metrics[name]
        elif args.trace:
            # A layer this workload never enters did no work.
            value, unit = 0, entry["unit"]
        else:
            raise BenchError(f"{args.workload} did not measure {name}")
        if unit != entry["unit"]:
            raise BenchError(f"{name}: measured in {unit}, declared {entry['unit']}")
        out[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0,
                      "metrics": out}))
    return 0


def run_all(args) -> int:
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace), "--size", args.size]
        status |= subprocess.run(cmd, timeout=900).returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: a tiny input for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args)
    except BenchError as exc:
        print(f"perfbench: FAILED: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        print("perfbench: FAILED with an unexpected error", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
