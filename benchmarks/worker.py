"""One workload in a fresh, single-threaded process.

Started by run.py. It imports the package from the checkout's `src`, makes
the run's instances, prints `READY` (the parent times set-up up to that
line), then runs the fixed list of operations back to back through the
public API and prints `RESULT <json>` with per-operation times and outputs.
With --trace 1 it wraps the program's module boundaries first and adds the
per-layer metrics. Nothing here checks answers; the parent does that after
this process has exited.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import permopt  # noqa: E402
import permopt.cli  # noqa: E402

from workloads import WORKLOADS, instance_docs  # noqa: E402


def library_result(s) -> dict:
    return {"order": list(s.order), "steps": list(s.step_values), "total": s.total,
            "lp_bound": s.lp_bound, "certified": s.certified, "repaired": s.repaired}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--spans-file", help="with --trace 1, write every span here as JSON lines")
    args = ap.parse_args(argv)

    if not Path(permopt.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"permopt imported from {permopt.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    tiny = args.size == "tiny"
    docs = instance_docs(w, args.seed, w.ops(args.seconds, tiny), tiny)
    work = Path(args.work_dir)
    if w.api == "library":
        instances = [permopt.parse_instance(json.dumps(d)) for d in docs]
        ops = [lambda inst=inst: library_result(permopt.solve_schedule(inst, mode=w.mode))
               for inst in instances]
    else:
        work.mkdir(parents=True, exist_ok=True)
        paths = []
        for k, d in enumerate(docs):
            path = work / f"instance-{k}.json"
            path.write_text(json.dumps(d))
            paths.append(str(path))
        ops = [lambda p=p: run_cli(["compare", "--instance", p, "--mode", w.mode])
               for p in paths]
    print("READY", flush=True)
    if args.setup_only:
        shutil.rmtree(work, ignore_errors=True)
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install({name: sys.modules[name] for name in
                        ("permopt.scheduler", "permopt.subproblems", "permopt.baselines",
                         "permopt.cli")})
        if w.api == "library":
            permopt.solve_schedule = tracer.wrap(permopt.solve_schedule,
                                                 "scheduler.solve", "scheduler")
        else:
            permopt.cli.run = tracer.wrap(permopt.cli.run, "cli.run", "cli")

    results, op_s = [], []
    t_start = time.perf_counter()
    for k, op in enumerate(ops):
        if tracer is not None:
            tracer.op = k
        t0 = time.perf_counter()
        try:
            out = {"ok": op()}
        except Exception as exc:  # a failed operation is counted, not fatal
            out = {"error": f"{type(exc).__name__}: {exc}"}
        op_s.append(time.perf_counter() - t0)
        results.append(out)
    timed_s = time.perf_counter() - t_start
    shutil.rmtree(work, ignore_errors=True)

    record = {
        "op_s": op_s,
        "timed_s": timed_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "results": results,
    }
    if tracer is not None:
        record["per_layer"] = tracer.metrics(len(ops))
        record["layer_self_s"] = tracer.layer_self_seconds(len(ops))
        if args.spans_file:
            with open(args.spans_file, "w") as f:
                for span in tracer.spans:
                    f.write(json.dumps(span._asdict()) + "\n")
    print("RESULT " + json.dumps(record), flush=True)
    return 0


def run_cli(argv) -> dict:
    """`permopt <argv>` in this process, with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = permopt.cli.run(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


if __name__ == "__main__":
    sys.exit(main())
