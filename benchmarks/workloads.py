"""Workload definitions and seeded instance generators.

Instances are produced as plain documents in the instance-file JSON schema
(see `permopt.instance_io`), so the worker, which hands them to the
program, and the checker, which re-derives every answer on its own, start
from the same data without either trusting the other's objects.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

MATCHING_LEFT = (0, 1, 2, 3)
MATCHING_RIGHT = (4, 5, 6, 7)
FLOW_SOURCE, FLOW_SINK = 0, 1
FLOW_NODES = (0, 1, 2, 3, 4)


@dataclass(frozen=True)
class Workload:
    name: str
    api: str  # "library": solve_schedule(inst, mode) | "cli": permopt compare
    mode: str
    families: tuple  # instance family per operation, cycled
    m: int
    tiny_m: int
    nominal_op_s: float  # seconds per operation at the commit that set the run length

    def ops(self, seconds: float, tiny: bool) -> int:
        """Fixed operation count for a run of about `seconds` seconds.

        The count depends only on the arguments, never on a clock, so every
        run of a workload executes the same whole list of operations. It
        stays below 40 so the median is the only statistic reported.
        """
        if tiny:
            return 2 * len(self.families)
        return max(len(self.families), min(39, round(seconds / self.nominal_op_s)))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("matching-lp", "library", "extended", ("matching",), 8, 4, 1.2),
        Workload("flow-repair", "library", "cutting-plane", ("flow",), 10, 5, 0.63),
        Workload("cli-compare", "cli", "cutting-plane", ("matching", "flow"), 9, 5, 2.4),
    )
}


def matching_doc(rng: random.Random, m: int) -> dict:
    """Random bipartite graph on 4+4 vertices with m orderable edges,
    weights 1..10; parallel edges may occur."""
    elements = []
    for e in range(m):
        u, v = rng.choice(MATCHING_LEFT), rng.choice(MATCHING_RIGHT)
        elements.append({"id": e, "fixed": False, "u": u, "v": v, "w": rng.randint(1, 10)})
    return {"family": "matching", "elements": elements, "left": list(MATCHING_LEFT)}


def flow_doc(rng: random.Random, m: int) -> dict:
    """Random s-t network on 5 nodes with one fixed arc out of the source
    and m orderable arcs, capacities 1..10.

    No arc enters the source or leaves the sink. A network whose sink is
    unreachable even with every arc built has value 0 at every step and a
    much smaller solve, so it is drawn again to keep operations like-sized.
    """
    interior = [n for n in FLOW_NODES if n not in (FLOW_SOURCE, FLOW_SINK)]
    while True:
        arcs = [(FLOW_SOURCE, rng.choice(interior), rng.randint(1, 10))]
        while len(arcs) < m + 1:
            tail = rng.choice([n for n in FLOW_NODES if n != FLOW_SINK])
            head = rng.choice([n for n in FLOW_NODES if n not in (FLOW_SOURCE, tail)])
            arcs.append((tail, head, rng.randint(1, 10)))
        if _sink_reachable(arcs):
            break
    elements = [
        {"id": a, "fixed": a == 0, "tail": t, "head": h, "cap": c}
        for a, (t, h, c) in enumerate(arcs)
    ]
    return {"family": "flow", "elements": elements, "source": FLOW_SOURCE, "sink": FLOW_SINK}


def _sink_reachable(arcs) -> bool:
    seen, stack = {FLOW_SOURCE}, [FLOW_SOURCE]
    while stack:
        node = stack.pop()
        for t, h, _ in arcs:
            if t == node and h not in seen:
                seen.add(h)
                stack.append(h)
    return FLOW_SINK in seen


def instance_docs(workload: Workload, seed: int, n_ops: int, tiny: bool) -> list:
    """The run's instances, one per operation; the same arguments always
    give the same documents."""
    rng = random.Random(f"{workload.name}/{seed}")
    m = workload.tiny_m if tiny else workload.m
    make = {"matching": matching_doc, "flow": flow_doc}
    return [make[workload.families[k % len(workload.families)]](rng, m) for k in range(n_ops)]
