"""Span tracing around the program's module boundaries, from the outside.

The tracer replaces names as they are bound in the calling module (for
example `permopt.scheduler.lp_solve`, which `solve_schedule` looks up at
call time) with wrappers that record a span per call: name, layer, start,
end, the span that caused it and the operation it belongs to. Spans stay in
memory; per-layer metrics are computed from them when the run ends.

A layer's self time is its spans' durations minus the time covered by their
direct child spans. Time the tracer spends on its own bookkeeping inside a
wrapper is charged to no layer.
"""

from __future__ import annotations

import math
import time
from typing import NamedTuple

# (module, attribute, span name, layer). Several bindings of one callee share
# a span name: `_repair_subset_dp` reads `permopt.subproblems.step_value` at
# call time, while `evaluate_schedule` and the baselines use their own
# module-level bindings of the same oracle.
BOUNDARIES = (
    ("permopt.scheduler", "build_master_lp", "scheduler.build", "scheduler.build"),
    ("permopt.scheduler", "lp_solve", "lp.solve", "lp"),
    ("permopt.scheduler", "_solve_with_cuts", "scheduler.cuts", "scheduler"),
    ("permopt.scheduler", "separate_permutahedron", "perms.separate", "perms"),
    ("permopt.scheduler", "_repair_subset_dp", "scheduler.repair", "scheduler"),
    ("permopt.scheduler", "step_value", "subproblems.oracle", "subproblems"),
    ("permopt.subproblems", "step_value", "subproblems.oracle", "subproblems"),
    ("permopt.baselines", "step_value", "subproblems.oracle", "subproblems"),
    ("permopt.cli", "_run_method", "cli.method", "cli"),
    ("permopt.cli", "parse_instance", "instance_io.parse", "instance_io"),
    ("permopt.cli", "solve_schedule", "scheduler.solve", "scheduler"),
    ("permopt.cli", "brute_force", "baselines.brute", "baselines"),
    ("permopt.cli", "greedy_marginal", "baselines.greedy", "baselines"),
    ("permopt.cli", "greedy_optimal_first", "baselines.greedy", "baselines"),
)

# Every per-layer metric the traced run reports, with its unit.
PER_LAYER_UNITS = {
    "lp.solve_s": "s",
    "lp.calls": "count",
    "lp.pivots": "count",
    "lp.ms_per_pivot": "ms",
    "lp.tableau_mb": "MB",
    "lp.iteration_limits": "count",
    "scheduler.build_s": "s",
    "scheduler.self_s": "s",
    "scheduler.repairs": "count",
    "perms.separation_calls": "count",
    "perms.cuts_added": "count",
    "subproblems.oracle_calls": "count",
    "subproblems.oracle_s": "s",
    "subproblems.us_per_oracle_call": "us",
    "subproblems.oracle_unique_ratio": "ratio",
    "baselines.brute_s": "s",
    "baselines.greedy_s": "s",
    "instance_io.parse_s": "s",
    "cli.self_s": "s",
}


class Span(NamedTuple):
    """A finished span. Only numbers and strings, so the garbage collector
    stops tracking it and a long traced run does not slow down as spans
    accumulate."""

    op: int
    span_id: int
    parent: int  # -1 for an operation's top span
    name: str
    layer: str
    start: float
    end: float
    self_time: float  # duration minus direct children and tracer bookkeeping
    attr: object  # per-boundary number or tuple of numbers, see _ANNOTATE


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[list] = []  # open spans: [span_id, time covered by children]
        self._ids = 0
        self.op = -1

    def install(self, modules: dict):
        """Wrap every boundary in BOUNDARIES; `modules` maps module names to
        the imported module objects."""
        for mod_name, attr, name, layer in BOUNDARIES:
            module = modules[mod_name]
            setattr(module, attr, self.wrap(getattr(module, attr), name, layer))

    def wrap(self, fn, name: str, layer: str):
        before, after = _ANNOTATE.get(name, (None, None))

        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            parent = self._stack[-1] if self._stack else None
            pre = before(args) if before is not None else None
            frame = [self._ids, 0.0]
            self._ids += 1
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
            attr = after(args, result, pre) if after is not None else None
            self.spans.append(Span(self.op, frame[0], parent[0] if parent else -1, name, layer,
                                   start, end, end - start - frame[1], attr))
            if parent is not None:
                parent[1] += time.perf_counter() - t0
            return result

        return traced

    def metrics(self, n_ops: int) -> dict:
        """Per-layer metrics: totals over the run divided by the number of
        operations, and ratios of totals."""
        total = {}
        self_by_layer = {}
        count = {}
        pivots = 0
        tableau_peak = {}
        keys = {}
        for s in self.spans:
            total[s.name] = total.get(s.name, 0.0) + s.end - s.start
            count[s.name] = count.get(s.name, 0) + 1
            self_by_layer[s.layer] = self_by_layer.get(s.layer, 0.0) + s.self_time
            if s.name == "lp.solve":
                piv, limit, mb = s.attr
                pivots += piv
                count["lp.limit"] = count.get("lp.limit", 0) + limit
                tableau_peak[s.op] = max(tableau_peak.get(s.op, 0.0), mb)
            elif s.name == "perms.separate":
                count["perms.cut"] = count.get("perms.cut", 0) + s.attr
            elif s.name == "subproblems.oracle":
                keys.setdefault(s.op, set()).add(s.attr)
        lp_s = total.get("lp.solve", 0.0)
        oracle_s = total.get("subproblems.oracle", 0.0)
        oracle_calls = count.get("subproblems.oracle", 0)
        per_op = 1.0 / n_ops
        values = {
            "lp.solve_s": lp_s * per_op,
            "lp.calls": count.get("lp.solve", 0) * per_op,
            "lp.pivots": pivots * per_op,
            "lp.ms_per_pivot": 1e3 * lp_s / pivots if pivots else 0.0,
            "lp.tableau_mb": sum(tableau_peak.values()) * per_op,
            "lp.iteration_limits": count.get("lp.limit", 0) * per_op,
            "scheduler.build_s": total.get("scheduler.build", 0.0) * per_op,
            "scheduler.self_s": self_by_layer.get("scheduler", 0.0) * per_op,
            "scheduler.repairs": count.get("scheduler.repair", 0) * per_op,
            "perms.separation_calls": count.get("perms.separate", 0) * per_op,
            "perms.cuts_added": count.get("perms.cut", 0) * per_op,
            "subproblems.oracle_calls": oracle_calls * per_op,
            "subproblems.oracle_s": oracle_s * per_op,
            "subproblems.us_per_oracle_call": 1e6 * oracle_s / oracle_calls if oracle_calls else 0.0,
            "subproblems.oracle_unique_ratio":
                sum(len(k) for k in keys.values()) / oracle_calls if oracle_calls else 0.0,
            "baselines.brute_s": total.get("baselines.brute", 0.0) * per_op,
            "baselines.greedy_s": total.get("baselines.greedy", 0.0) * per_op,
            "instance_io.parse_s": total.get("instance_io.parse", 0.0) * per_op,
            "cli.self_s": self_by_layer.get("cli", 0.0) * per_op,
        }
        return values

    def layer_self_seconds(self, n_ops: int) -> dict:
        """Self time per layer and operation, for layer shares of op_s."""
        out = {}
        for s in self.spans:
            out[s.layer] = out.get(s.layer, 0.0) + s.self_time / n_ops
        return out


def _lp_before(args):
    return tableau_bytes(args[0]) / 2**20


def _lp_after(args, sol, tableau_mb):
    return (sol.iterations, int(sol.status == "iteration_limit"), tableau_mb)


def _separation_after(args, cut, _):
    return int(cut is not None)


def _oracle_after(args, value, _):
    return sum(1 << e for e in set(args[1]))  # the available set, as a bitmask


# span name -> (called before the span opens, called after it closes and
# returning the span's attr)
_ANNOTATE = {
    "lp.solve": (_lp_before, _lp_after),
    "perms.separate": (None, _separation_after),
    "subproblems.oracle": (None, _oracle_after),
}


def tableau_bytes(lp) -> int:
    """Bytes of the dense float64 tableau the two-phase simplex allocates
    for `lp`, computed from its rows, columns and bounds.

    Standard form shifts each variable by its finite lower bound (or
    reflects it at a finite upper bound, or splits a free one in two) and
    adds one row per variable bounded on both sides. Each inequality row
    gets a slack, and each row that is `>=` or `=` after making its right
    side nonnegative gets an artificial; the tableau has one more row for
    the objective and one more column for the right side.
    """
    shift = []
    n_std = 0
    bounded = 0
    for lb, ub in zip(lp.lower, lp.upper):
        if lb > -math.inf:
            shift.append(lb)
            n_std += 1
            bounded += ub < math.inf
        elif ub < math.inf:
            shift.append(ub)
            n_std += 1
        else:
            shift.append(0.0)
            n_std += 2
    slacks = bounded
    artificials = 0
    for con in lp.constraints:
        rhs = con.rhs - sum(c * shift[v] for v, c in con.coefficients.items())
        rel = con.relation
        if rhs < 0 and rel != "=":
            rel = ">=" if rel == "<=" else "<="
        slacks += rel != "="
        artificials += rel != "<="
    rows = len(lp.constraints) + bounded
    return (rows + 1) * (n_std + slacks + artificials + 1) * 8
