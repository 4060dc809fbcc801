"""Steadiness check: repeat every workload and compare spreads to bounds.

    python3 perfbench/steady.py --runs 10 --sets 2 --out .perfbench/steady.json

Each set runs every workload ``--runs`` times, each time with another
seed, alternating the workload order between passes.  For every
end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread
``(q3 - q1) / median`` against the metric's bound from
``BENCHMARK.json``.  With two or more sets it also prints how far each
later set's median lies from the first set's, against the same bound.
Exits 1 if any run fails or any spread or median shift exceeds its
bound.  Run length is ``run_seconds`` of ``BENCHMARK.json``, and every
workload it names is run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import ROOT, quartiles  # noqa: E402


def run_set(workloads, runs, seed0, seconds) -> dict:
    """``{workload: [result, ...]}`` for one set of alternating runs."""
    results: dict[str, list[dict]] = {w: [] for w in workloads}
    for i in range(runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", w,
                   "--seed", str(seed0 + i), "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                                  timeout=900)
            if proc.returncode != 0:
                raise SystemExit(f"{w} seed {seed0 + i} failed:\n{proc.stderr[-2000:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            results[w].append(result)
            print(f"  {w} seed {seed0 + i}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                flush=True)
    return results


def summarize(results: dict, bounds: dict) -> tuple[dict, bool]:
    ok = True
    summary: dict[str, dict] = {}
    for w, runs in results.items():
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{w}: {len(runs)} runs, failed share {sorted(shares)}")
        summary[w] = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = quartiles(values)
            spread = (q3 - q1) / q2 if q2 else float("inf")
            flag = "ok" if spread <= bound / 3 else ("near" if spread <= bound else "WIDE")
            if spread > bound:
                ok = False
            summary[w][name] = {"q1": q1, "median": q2, "q3": q3, "spread": spread,
                                "bound": bound, "values": values}
            print(f"  {name:<14} median {q2:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  "
                  f"spread {spread:6.3f} / bound {bound:.2f}  {flag}")
    return summary, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seed", type=int, default=1, help="first seed of set 1")
    parser.add_argument("--out", type=Path, default=None, help="write all figures here")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sets, ok = [], True
    for k in range(args.sets):
        print(f"set {k + 1}:", flush=True)
        results = run_set(workloads, args.runs, args.seed + 1000 * k, seconds)
        summary, set_ok = summarize(results, bounds)
        sets.append(summary)
        ok = ok and set_ok
    for k in range(1, len(sets)):
        print(f"set {k + 1} against set 1 (median shift, worse direction only):")
        for w in workloads:
            for m in spec["end_to_end"]:
                a, b = sets[0][w][m["name"]]["median"], sets[k][w][m["name"]]["median"]
                worse = (a - b) / a if m["better"] == "higher" else (b - a) / a
                if worse > m["bound"]:
                    ok = False
                print(f"  {w:<16} {m['name']:<14} {worse:+.3f} / bound {m['bound']:.2f}")
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"seconds": seconds, "sets": sets}, indent=1))
    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
