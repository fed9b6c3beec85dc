"""Command-line surface: solve / compare / validate over instance files.

Reports go to stdout as JSON with all values printed at 9 decimal digits so
identical inputs produce byte-identical output. Exit codes: 0 success,
2 validation error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .baselines import brute_force, greedy_marginal, greedy_optimal_first
from .instance_io import BUNDLED, ValidationError, bundled_instance, parse_instance
from .lp import LpError
from .scheduler import EXTENDED, MODES, Schedule, SolveError, solve_schedule
from .subproblems import SUBSET_GUARD, Instance, InstanceError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3

METHODS = ("lp", "greedy-marginal", "greedy-first", "brute")


def _load_instance(path: str, epsilon: float | None) -> tuple[str, Instance]:
    stem = Path(path).stem
    if epsilon is not None:
        if stem not in BUNDLED:
            raise ValidationError(
                f"--epsilon only applies to bundled templates {sorted(BUNDLED)}, not {stem!r}"
            )
        return stem, bundled_instance(stem, epsilon)
    p = Path(path)
    if not p.exists() and stem in BUNDLED:
        return stem, bundled_instance(stem)
    try:
        text = p.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    return stem, parse_instance(text)


def _run_method(instance: Instance, method: str, mode: str) -> Schedule:
    if method == "lp":
        return solve_schedule(instance, mode=mode)
    if method == "greedy-marginal":
        return greedy_marginal(instance)
    if method == "greedy-first":
        return greedy_optimal_first(instance)
    if method == "brute":
        return brute_force(instance)
    raise ValidationError(f"unknown method {method!r}")


def _fmt(x: float) -> str:
    return f"{x:.9f}"


def _schedule_doc(s: Schedule) -> dict:
    doc = {
        "method": s.method,
        "total": _fmt(s.total),
        "steps": [_fmt(v) for v in s.step_values],
        "order": list(s.order),
    }
    if s.lp_bound is not None:
        doc["lp_bound"] = _fmt(s.lp_bound)
    if s.certified is not None:
        doc["certified"] = s.certified
        doc["repaired"] = s.repaired
    return doc


def _report(name: str, schedules: list) -> dict:
    best = max(schedules, key=lambda s: s.total)
    comparison = {
        "best": best.method,
        "ratios": {
            s.method: _fmt(1.0 if s is best else (s.total / best.total if best.total > 0 else 1.0))
            for s in schedules
        },
    }
    return {
        "instance": name,
        "methods": [_schedule_doc(s) for s in schedules],
        "comparison": comparison,
    }


def run(argv) -> int:
    parser = argparse.ArgumentParser(prog="permopt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_method):
        p.add_argument("--instance", required=True, help="instance file or bundled name")
        if with_method:
            p.add_argument("--method", choices=METHODS, default="lp")
        p.add_argument("--mode", choices=MODES, default=EXTENDED,
                       help="kept for existing callers: both names build the one master LP")
        p.add_argument("--epsilon", type=float, default=None,
                       help="regenerate a bundled template with this gap value")

    common(sub.add_parser("solve", help="run one method"), with_method=True)
    common(sub.add_parser("compare", help="run all methods"), with_method=False)
    vp = sub.add_parser("validate", help="parse and check an instance")
    vp.add_argument("--instance", required=True)
    vp.add_argument("--epsilon", type=float, default=None)

    args = parser.parse_args(argv)
    try:
        name, instance = _load_instance(args.instance, args.epsilon)
    except (ValidationError, InstanceError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    if args.command == "validate":
        print(json.dumps({"instance": name, "family": instance.family,
                          "m": instance.m, "fixed": len(instance.fixed), "valid": True}))
        return EXIT_OK

    methods = [args.method] if args.command == "solve" else list(METHODS)
    if args.command == "compare" and instance.m > SUBSET_GUARD:
        methods.remove("brute")
    schedules = []
    try:
        for method in methods:
            schedules.append(_run_method(instance, method, args.mode))
    except (ValidationError, InstanceError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (SolveError, LpError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER

    print(json.dumps(_report(name, schedules), indent=2))
    return EXIT_OK


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
