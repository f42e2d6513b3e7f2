#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the benchmark command from BENCHMARK.json once per seed and prints,
for every metric, the median and the distance between the first and third
quartiles (statistics.quantiles, n=4) as a share of the median, next to
the metric's bound.

    python3 perfbench/spread.py --workload fig7_detailed --runs 10

Run it from the root of the repository.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=100)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = bench["command"] + [
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]),
            "--trace", "0",
        ]
        out = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if out.returncode != 0:
            print(out.stderr, file=sys.stderr)
            return out.returncode
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        meta = json.loads(lines[-2]).get("meta", {}) if len(lines) > 1 else {}
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: incorrect result {result}", file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        # The unnormalized figures, for comparison.
        for name, v in meta.items():
            if name.startswith("raw_"):
                values.setdefault(name, []).append(float(v))
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    worst = 0.0
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        note = f"bound {bound}" if bound is not None else ""
        if bound is not None and name != "setup_s":
            worst = max(worst, spread / bound)
        print(f"{name:24s} median {med:12.6g}  spread {spread:7.2%}  {note}")
    print(f"largest spread / bound (setup_s aside): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
