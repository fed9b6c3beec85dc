"""Instance file schema, validation, and the bundled example instances.

Schema (JSON):
    {"family": "matching" | "flow",
     "elements": [{"id": int, "fixed": bool, ...}, ...],
     matching element fields: "u", "v" (vertex ids), "w" (weight >= 0)
     flow element fields:     "tail", "head", "cap" (number >= 0 or "inf")
     matching extra: "left": [vertex ids]          (one bipartition class)
     flow extra:     "source": int, "sink": int}

Element ids are the ground-set indices; orderable elements are those with
fixed=false. The id order is meaningful: every deterministic tie-break in
the solvers (greedy ties, augmenting-path scans, matching enumeration)
follows ascending id.
"""

from __future__ import annotations

import json
import math

from .subproblems import FLOW, MATCHING, FlowInstance, Instance, MatchingInstance, make_instance


class ValidationError(Exception):
    """Schema or invariant violation; message names the offending field."""


def _is_int(x) -> bool:
    # JSON true/false load as bool, which Python counts as an int
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def parse_instance(text: str) -> Instance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("top level must be an object")
    family = doc.get("family")
    if family not in (MATCHING, FLOW):
        raise ValidationError(f"family: expected 'matching' or 'flow', got {family!r}")
    elements = doc.get("elements")
    if not isinstance(elements, list) or not elements:
        raise ValidationError("elements: expected a non-empty list")

    seen = set()
    fixed_ids = []
    for k, el in enumerate(elements):
        if not isinstance(el, dict):
            raise ValidationError(f"elements[{k}]: expected an object")
        eid = el.get("id")
        if not _is_int(eid):
            raise ValidationError(f"elements[{k}].id: expected an integer")
        if eid in seen:
            raise ValidationError(f"elements[{k}].id: duplicate id {eid}")
        seen.add(eid)
        if not isinstance(el.get("fixed"), bool):
            raise ValidationError(f"elements[{k}].fixed: expected a boolean")
        if el["fixed"]:
            fixed_ids.append(eid)

    try:
        if family == MATCHING:
            data = _parse_matching(doc, elements)
        else:
            data = _parse_flow(doc, elements)
        return make_instance(data, fixed_ids)
    except ValidationError:
        raise
    except Exception as exc:
        raise ValidationError(str(exc)) from exc


def _parse_matching(doc, elements) -> MatchingInstance:
    left = doc.get("left")
    if not isinstance(left, list) or not all(_is_int(v) for v in left):
        raise ValidationError("left: expected a list of vertex ids")
    edges, weights = {}, {}
    for el in elements:
        eid = el["id"]
        for key in ("u", "v"):
            if not _is_int(el.get(key)):
                raise ValidationError(f"element {eid}.{key}: expected an integer vertex id")
        w = el.get("w")
        if not _is_number(w):
            raise ValidationError(f"element {eid}.w: expected a number")
        if w < 0:
            raise ValidationError(f"element {eid}.w: negative weight {w}")
        edges[eid] = (el["u"], el["v"])
        weights[eid] = float(w)
    return MatchingInstance(edges, weights, frozenset(left))


def _parse_flow(doc, elements) -> FlowInstance:
    for key in ("source", "sink"):
        if not _is_int(doc.get(key)):
            raise ValidationError(f"{key}: expected an integer node id")
    arcs, caps = {}, {}
    for el in elements:
        eid = el["id"]
        for key in ("tail", "head"):
            if not _is_int(el.get(key)):
                raise ValidationError(f"element {eid}.{key}: expected an integer node id")
        cap = el.get("cap")
        if cap == "inf":
            cap = math.inf
        elif _is_number(cap):
            if cap < 0:
                raise ValidationError(f"element {eid}.cap: negative capacity {cap}")
            cap = float(cap)
        else:
            raise ValidationError(f"element {eid}.cap: expected a number or 'inf'")
        arcs[eid] = (el["tail"], el["head"])
        caps[eid] = cap
    return FlowInstance(arcs, caps, doc["source"], doc["sink"])


def serialize_instance(instance: Instance) -> str:
    elements, data = [], instance.data
    if instance.family == MATCHING:
        for eid in sorted(data.edges):
            u, v = data.edges[eid]
            elements.append(
                {"id": eid, "fixed": eid in instance.fixed, "u": u, "v": v,
                 "w": data.weights[eid]}
            )
        doc = {"family": MATCHING, "elements": elements, "left": sorted(data.left)}
    elif instance.family == FLOW:
        for eid in sorted(data.arcs):
            t, h = data.arcs[eid]
            cap = data.capacities[eid]
            elements.append(
                {"id": eid, "fixed": eid in instance.fixed, "tail": t, "head": h,
                 "cap": "inf" if math.isinf(cap) else cap}
            )
        doc = {"family": FLOW, "elements": elements,
               "source": data.source, "sink": data.sink}
    else:
        raise ValidationError(f"family: {instance.family!r} has no JSON schema")
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# bundled instances (templates parameterized by the small gap epsilon)


def build_g1(eps: float = 0.1) -> Instance:
    """Three-edge path; best play realizes the heavy middle edge first."""
    data = MatchingInstance(
        edges={0: (1, 2), 1: (2, 3), 2: (3, 4)},
        weights={0: 1.0, 1: 2.0 - eps, 2: 1.0},
        left=frozenset({1, 3}),
    )
    return make_instance(data, [])


def build_g2(eps: float = 0.1) -> Instance:
    """Four-edge cycle; marginal greedy locks onto the heavy edge and loses."""
    data = MatchingInstance(
        edges={0: (1, 2), 1: (2, 3), 2: (3, 4), 3: (1, 4)},
        weights={0: 1.0 + eps, 1: 1.0, 2: eps, 3: 1.0},
        left=frozenset({1, 3}),
    )
    return make_instance(data, [])


def build_d1(eps: float = 0.1) -> Instance:
    """Flow analogue of the path instance; nodes s=5, t=6."""
    data = FlowInstance(
        arcs={0: (5, 0), 1: (0, 1), 2: (0, 3), 3: (1, 2), 4: (3, 4), 5: (3, 2),
              6: (2, 6), 7: (4, 6)},
        capacities={0: 2.0, 1: math.inf, 2: math.inf, 3: 1.0, 4: 1.0, 5: 2.0 - eps,
                    6: math.inf, 7: math.inf},
        source=5,
        sink=6,
    )
    return make_instance(data, [0, 1, 2, 6, 7])


def build_d2(eps: float = 0.1) -> Instance:
    """Flow analogue of the cycle instance; nodes s=5, t=6."""
    data = FlowInstance(
        arcs={0: (5, 0), 1: (0, 1), 2: (0, 3), 3: (1, 2), 4: (3, 2), 5: (3, 4),
              6: (1, 4), 7: (2, 6), 8: (4, 6)},
        capacities={0: 2.0, 1: 1.0 + eps, 2: math.inf, 3: 1.0 + eps, 4: 1.0, 5: eps,
                    6: 1.0, 7: 1.0 + eps, 8: math.inf},
        source=5,
        sink=6,
    )
    return make_instance(data, [0, 1, 2, 7, 8])


def build_d3(eps: float = 0.1) -> Instance:
    """Long path with a parallel shortcut; greedy can be a factor Omega(|V|)
    off. Nodes s=7, t=8; one fixed inlet arc."""
    data = FlowInstance(
        arcs={0: (7, 0), 1: (0, 1), 2: (1, 2), 3: (2, 3), 4: (3, 4), 5: (4, 5),
              6: (5, 8), 7: (0, 6), 8: (6, 8)},
        capacities={0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0, 4: 1.0, 5: 1.0, 6: 1.0,
                    7: 1.0 - eps, 8: 1.0 - eps},
        source=7,
        sink=8,
    )
    return make_instance(data, [0])


BUNDLED = {
    "g1": build_g1,
    "g2": build_g2,
    "d1": build_d1,
    "d2": build_d2,
    "d3": build_d3,
}


def bundled_instance(name: str, eps: float = 0.1) -> Instance:
    if name not in BUNDLED:
        raise ValidationError(f"unknown bundled instance {name!r}; have {sorted(BUNDLED)}")
    return BUNDLED[name](eps)
