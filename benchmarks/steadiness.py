"""Run-to-run spread of the end-to-end metrics, against their bounds.

    python3 benchmarks/steadiness.py --workloads flow-repair --seeds 1 2 3 4 5

Runs each workload once per seed (sequentially, each run as the benchmark
runner would start it) and prints, per end-to-end metric, the median, the
quartiles, the spread (distance between the first and third quartile as a
share of the median) and the bound from BENCHMARK.json. A spread below a
third of its bound is marked `ok`. The failed share of every run is printed
too: it must be the same in every run. The bounds in BENCHMARK.json were set
from this command's output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values), q1, q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    steady = True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [*SPEC["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(out)
            print(f"{workload} seed {seed}: failed {out['failed']}/{out['attempted']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in out["metrics"].items()),
                  flush=True)
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{workload}: failed share {sorted(shares)}"
              + ("" if len(shares) == 1 else "  NOT THE SAME IN EVERY RUN"))
        steady &= len(shares) == 1 and all(r["correct"] for r in runs)
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            s, q1, q3 = spread(values)
            # setup_s has no spread gate, only the bound on its median
            verdict = "ok" if s < bound / 3 or name == "setup_s" else "WIDE"
            steady &= verdict == "ok"
            print(f"  {name:12s} median {statistics.median(values):.5g}  q1 {q1:.5g}  "
                  f"q3 {q3:.5g}  spread {s:.4f}  bound {bound}  {verdict}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
