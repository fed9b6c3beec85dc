"""Benchmark of the build-order solver: one workload per call.

    python3 benchmarks/run.py --workload matching-lp --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Each run executes a fixed list of like-sized
operations in a fresh single-threaded worker process (worker.py), checks
every output with check.py after the worker has exited, and prints, as the
last line of standard output, one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. With --trace 0 the metrics are the
end-to-end ones (setup_s, op_s, ops_per_s, peak_rss_mb); with --trace 1 the
same operations run with span tracing and the metrics are the per-layer
ones. The lines before it are a human-readable summary; the whole record,
with per-operation times, is written under benchmarks/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up is timed in the measuring worker and in this many set-up-only
# processes before it and as many after it; the median of all is reported.
# Spreading the samples over the run keeps one slow spell of the machine
# from setting them all.
SETUP_PROBES = 4
WORKER_TIMEOUT_S = 170

# Pin BLAS/OpenMP pools to one thread before numpy is imported anywhere.
THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_ENV)
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, instance_docs  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "op_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


@contextlib.contextmanager
def worker(args, work_dir: Path, extra=()):
    """A started worker process and the seconds from its start to its READY
    line (set-up time). The process is killed if it still runs on exit."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--work-dir", str(work_dir), *extra]
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        if line.strip() != "READY":
            raise BenchError("worker did not set up")
        yield proc, ready
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()


def setup_sample(args, work_dir: Path) -> float:
    with worker(args, work_dir, ["--setup-only"]) as (proc, ready):
        if proc.wait(timeout=WORKER_TIMEOUT_S) != 0:
            raise BenchError(f"set-up worker exited with {proc.returncode}")
    return ready


def run_worker(args, results_dir: Path, tag: str) -> tuple[list, dict]:
    """Set-up samples and the record of the one measuring worker."""
    work_dir = HERE / ".work" / f"{tag}-{os.getpid()}"
    probes = 0 if args.trace else SETUP_PROBES
    setups = [setup_sample(args, work_dir) for _ in range(probes)]
    extra = ["--spans-file", str(results_dir / f"{tag}.spans.jsonl")] if args.trace else []
    with worker(args, work_dir, extra) as (proc, ready):
        setups.append(ready)
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    setups += [setup_sample(args, work_dir) for _ in range(probes)]
    lines = [ln for ln in out.splitlines() if ln.startswith("RESULT ")]
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}")
    return setups, json.loads(lines[-1][len("RESULT "):])


def check_outputs(workload, docs, results) -> tuple[list, list, float]:
    """(problems per operation, indices that raised, median HiGHS seconds)."""
    import check

    problems, raised, highs = [], [], []
    for k, (doc, res) in enumerate(zip(docs, results)):
        if "error" in res:
            raised.append(k)
            problems.append([])
            continue
        ref = check.Reference(doc)
        verify = check.check_library if workload.api == "library" else check.check_cli_compare
        try:
            found = verify(ref, res["ok"])
        except Exception as exc:  # an unreadable output is a wrong output
            found = [f"checker could not use the output: {type(exc).__name__}: {exc}"]
        problems.append(found)
        highs.append(ref.highs_s)
    return problems, raised, statistics.median(highs) if highs else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="nominal run length; sets the fixed number of operations")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: small instances, for the benchmark's self-test")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "permopt" / "__init__.py").is_file():
        print(f"no permopt package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    tiny = args.size == "tiny"
    docs = instance_docs(workload, args.seed, workload.ops(args.seconds, tiny), tiny)
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if tiny else "")
    try:
        setups, rec = run_worker(args, results_dir, tag)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    problems, raised, highs_s = check_outputs(workload, docs, rec["results"])
    wrong = [k for k, p in enumerate(problems) if p]
    failed = sorted(set(raised) | set(wrong))
    done = [t for k, t in enumerate(rec["op_s"]) if k not in failed]
    attempted = len(docs)
    if args.trace:
        from tracing import PER_LAYER_UNITS

        values = rec["per_layer"]
        units = PER_LAYER_UNITS
    else:
        values = {
            "setup_s": statistics.median(setups),
            "op_s": statistics.median(done or rec["op_s"]),
            "ops_per_s": len(done) / rec["timed_s"],
            "peak_rss_mb": rec["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {attempted} operations, "
          f"{len(raised)} raised, {len(wrong)} wrong, timed phase {rec['timed_s']:.3f} s")
    print(f"  op_s median {statistics.median(rec['op_s']):.4f} s over {attempted} operations; "
          f"HiGHS median {highs_s * 1e3:.1f} ms per master program")
    for k in failed:
        detail = rec["results"][k].get("error") or "; ".join(problems[k])
        print(f"  operation {k} failed: {detail}")
    if args.trace:
        mean_op = statistics.mean(rec["op_s"])
        shares = ", ".join(f"{layer} {secs / mean_op:.1%}"
                           for layer, secs in sorted(rec["layer_self_s"].items()))
        print(f"  layer self-time shares of the mean traced operation: {shares}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")

    summary = {"correct": not wrong, "attempted": attempted, "failed": len(failed),
               "metrics": metrics}
    (results_dir / f"{tag}.json").write_text(json.dumps(
        {**summary, "setup_samples_s": setups, "op_s_each": rec["op_s"],
         "timed_s": rec["timed_s"], "highs_median_s": highs_s,
         "layer_self_s": rec.get("layer_self_s"),
         "problems": {k: problems[k] for k in wrong},
         "raised": {k: rec["results"][k]["error"] for k in raised}}, indent=1))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
