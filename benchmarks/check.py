"""Independent checker for every operation's output.

Nothing here is compared with a stored copy of the program's output:
- step values are re-evaluated with networkx (`max_weight_matching`,
  `maximum_flow_value`) on the instance document;
- the optimum comes from this file's own dynamic program over realized
  subsets, on those same networkx oracles;
- the LP bound is compared with HiGHS (`scipy.optimize.linprog`) on the
  program's own `build_master_lp` output, built in extended mode: its
  optimum is the relaxation over the whole permutahedron, which is also
  where the cutting-plane loop stops, so one reference serves both modes;
- the method's properties are checked: the order is a permutation of the
  orderable ids, step values are nondecreasing and sum to the total, the
  total is at most the bound, the answer is certified, and in the CLI
  report lp == brute >= each greedy and every ratio is total / best.

The checker runs in the parent process after the timed worker has exited.
"""

from __future__ import annotations

import json
import math
import time

import networkx as nx
import numpy as np
from scipy import sparse
from scipy.optimize import linprog

TOL = 1e-6


class Reference:
    """Oracle values, optimum and HiGHS bound of one instance document."""

    def __init__(self, doc: dict):
        self.doc = doc
        self.orderable = sorted(e["id"] for e in doc["elements"] if not e["fixed"])
        self.fixed = [e["id"] for e in doc["elements"] if e["fixed"]]
        self.by_id = {e["id"]: e for e in doc["elements"]}
        self._values = {}
        self._optimum = None
        self._bound = None
        self.highs_s = 0.0

    def value(self, available) -> float:
        key = frozenset(available)
        if key not in self._values:
            usable = [self.by_id[i] for i in sorted(key | set(self.fixed))]
            if self.doc["family"] == "matching":
                self._values[key] = _matching_value(usable)
            else:
                self._values[key] = _flow_value(usable, self.doc["source"], self.doc["sink"])
        return self._values[key]

    def optimum(self) -> float:
        """best(S) = value(S) + max over e in S of best(S - e), over bitmasks."""
        if self._optimum is None:
            ids = self.orderable
            best = [0.0] * (1 << len(ids))
            for mask in range(1, 1 << len(ids)):
                subset = [ids[i] for i in range(len(ids)) if mask >> i & 1]
                prev = max(best[mask & ~(1 << i)] for i in range(len(ids)) if mask >> i & 1)
                best[mask] = self.value(subset) + prev
            self._optimum = best[-1]
        return self._optimum

    def lp_bound(self) -> float:
        if self._bound is None:
            from permopt import build_master_lp, parse_instance

            builder, _ = build_master_lp(parse_instance(json.dumps(self.doc)), "extended")
            t0 = time.perf_counter()
            self._bound = highs_optimum(builder.build("max"))
            self.highs_s = time.perf_counter() - t0
        return self._bound


def _matching_value(edges) -> float:
    g = nx.Graph()
    for e in edges:
        # of parallel edges only the heaviest can be in a maximum matching
        if not g.has_edge(e["u"], e["v"]) or g[e["u"]][e["v"]]["weight"] < e["w"]:
            g.add_edge(e["u"], e["v"], weight=e["w"])
    return float(sum(g[u][v]["weight"] for u, v in nx.max_weight_matching(g)))


def _flow_value(arcs, source, sink) -> float:
    g = nx.DiGraph()
    g.add_nodes_from((source, sink))
    for a in arcs:
        if a["cap"] == "inf":
            raise ValueError("the reference oracle takes finite capacities only")
        t, h = a["tail"], a["head"]
        # parallel arcs act as one arc with the summed capacity
        cap = a["cap"] + (g[t][h]["capacity"] if g.has_edge(t, h) else 0)
        g.add_edge(t, h, capacity=cap)
    return float(nx.maximum_flow_value(g, source, sink))


def highs_optimum(lp) -> float:
    """Optimum of a permopt LinearProgram, solved by HiGHS."""
    rows_ub, rows_eq = [], []
    for con in lp.constraints:
        sign = -1.0 if con.relation == ">=" else 1.0
        row = ({v: sign * c for v, c in con.coefficients.items()}, sign * con.rhs)
        (rows_eq if con.relation == "=" else rows_ub).append(row)

    def matrix(rows):
        if not rows:
            return None, None
        data, ri, ci = [], [], []
        for r, (coefs, _) in enumerate(rows):
            for v, c in coefs.items():
                data.append(c)
                ri.append(r)
                ci.append(v)
        a = sparse.csr_matrix((data, (ri, ci)), shape=(len(rows), lp.n))
        return a, np.array([rhs for _, rhs in rows])

    a_ub, b_ub = matrix(rows_ub)
    a_eq, b_eq = matrix(rows_eq)
    sign = -1.0 if lp.sense == "max" else 1.0
    bounds = [(None if math.isinf(lo) else lo, None if math.isinf(hi) else hi)
              for lo, hi in zip(lp.lower, lp.upper)]
    res = linprog(sign * np.array(lp.objective), A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS: {res.message}")
    return sign * res.fun


def _close(a, b, tol=TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def check_schedule(ref: Reference, order, steps, total) -> list:
    """Problems with one returned schedule, as messages (empty when right)."""
    problems = []
    if sorted(order) != ref.orderable:
        return [f"order {order} is not a permutation of {ref.orderable}"]
    if len(steps) != len(order):
        problems.append(f"{len(steps)} step values for {len(order)} steps")
    if any(b < a - 1e-9 for a, b in zip(steps, steps[1:])):
        problems.append(f"step values decrease: {steps}")
    if not _close(sum(steps), total):
        problems.append(f"step values sum to {sum(steps)}, total is {total}")
    for j, got in enumerate(steps):
        want = ref.value(order[: j + 1])
        if not _close(got, want):
            problems.append(f"step {j + 1}: value {got}, networkx gives {want}")
    return problems


def check_exact(ref: Reference, total, lp_bound, certified) -> list:
    problems = []
    if certified is not True:
        problems.append(f"certified is {certified!r}")
    if lp_bound is None or total > lp_bound + TOL:
        problems.append(f"total {total} exceeds the LP bound {lp_bound}")
    if not _close(total, ref.optimum()):
        problems.append(f"total {total}, subset DP optimum {ref.optimum()}")
    if lp_bound is not None and not _close(lp_bound, ref.lp_bound()):
        problems.append(f"LP bound {lp_bound}, HiGHS gives {ref.lp_bound()}")
    return problems


def check_library(ref: Reference, out: dict) -> list:
    """Output of `solve_schedule`, as the worker recorded it."""
    return (check_schedule(ref, out["order"], out["steps"], out["total"])
            + check_exact(ref, out["total"], out["lp_bound"], out["certified"]))


def check_cli_compare(ref: Reference, out: dict) -> list:
    """Output of `permopt compare` on the instance file."""
    if out["exit"] != 0:
        return [f"exit code {out['exit']}: {out['stderr'].strip()}"]
    report = json.loads(out["stdout"])
    methods = {d["method"]: d for d in report["methods"]}
    if sorted(methods) != sorted(("lp", "greedy-marginal", "greedy-first", "brute")):
        return [f"methods {sorted(methods)}"]
    totals = {name: float(d["total"]) for name, d in methods.items()}
    problems = []
    for name, d in methods.items():
        problems += [f"{name}: {p}" for p in
                     check_schedule(ref, d["order"], [float(v) for v in d["steps"]],
                                    totals[name])]
    lp = methods["lp"]
    problems += check_exact(ref, totals["lp"], float(lp["lp_bound"]), lp["certified"])
    if not _close(totals["lp"], totals["brute"]):
        problems.append(f"lp total {totals['lp']} != brute total {totals['brute']}")
    for name in ("greedy-marginal", "greedy-first"):
        if totals[name] > totals["brute"] + TOL:
            problems.append(f"{name} total {totals[name]} beats brute {totals['brute']}")
    best = max(totals.values())
    if not _close(totals[report["comparison"]["best"]], best):
        problems.append(f"best is {report['comparison']['best']}, not a maximum")
    for name, ratio in report["comparison"]["ratios"].items():
        want = totals[name] / best if best > 0 else 1.0
        if abs(float(ratio) - want) > 1e-8:
            problems.append(f"ratio of {name} is {ratio}, total / best is {want}")
    return problems
