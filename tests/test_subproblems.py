import itertools
import math
import random

import pytest

from conftest import random_flow_instance
from permopt.instance_io import bundled_instance
from permopt.lp import OPTIMAL, LpBuilder, solve
from permopt.subproblems import (
    FlowInstance,
    Instance,
    InstanceError,
    MatchingInstance,
    best_matching,
    emit_step,
    make_instance,
    max_flow_value,
    max_matching_value,
    step_value,
    subset_values,
)


class TestOracles:
    def test_d1_all_arcs(self):
        inst = bundled_instance("d1")
        assert max_flow_value(inst.flow, inst.flow.arcs.keys()) == pytest.approx(2.0)

    def test_d3_path_arcs_only(self):
        inst = bundled_instance("d3")
        # the six path arcs plus the fixed inlet
        assert max_flow_value(inst.flow, {0, 1, 2, 3, 4, 5, 6}) == pytest.approx(1.0)

    def test_d3_shortcut_only(self):
        inst = bundled_instance("d3")
        assert max_flow_value(inst.flow, {0, 7, 8}) == pytest.approx(0.9)

    def test_g1_single_edge(self):
        inst = bundled_instance("g1")
        assert max_matching_value(inst.matching, {1}) == pytest.approx(1.9)

    def test_g1_all_edges(self):
        inst = bundled_instance("g1")
        assert max_matching_value(inst.matching, {0, 1, 2}) == pytest.approx(2.0)

    def test_empty_available(self):
        inst = bundled_instance("g1")
        assert max_matching_value(inst.matching, set()) == 0.0
        d1 = bundled_instance("d1")
        assert max_flow_value(d1.flow, set()) == 0.0

    def test_enumeration_guard(self):
        left = frozenset(range(30))
        edges = {e: (e, 100 + e) for e in range(30)}
        weights = {e: 1.0 for e in range(30)}
        data = MatchingInstance(edges, weights, left)
        with pytest.raises(InstanceError):
            max_matching_value(data, range(30))

    def test_best_matching_lexicographic_tie(self):
        data = MatchingInstance(
            edges={0: (0, 10), 1: (1, 11)}, weights={0: 1.0, 1: 1.0},
            left=frozenset({0, 1}),
        )
        w, edges = best_matching(data, {0, 1})
        assert w == pytest.approx(2.0)
        assert edges == (0, 1)


class TestStepValue:
    def test_empty_no_fixed(self):
        inst = bundled_instance("g1")
        assert step_value(inst, set()) == 0.0

    def test_g2_all_edges(self):
        inst = bundled_instance("g2")
        assert step_value(inst, set(inst.orderable)) == pytest.approx(2.0)

    def test_d2_all_arcs(self):
        inst = bundled_instance("d2")
        assert step_value(inst, set(inst.orderable)) == pytest.approx(2.0)

    def test_rejects_non_orderable(self):
        inst = bundled_instance("d1")
        with pytest.raises(InstanceError):
            step_value(inst, {0})  # arc 0 is fixed


class TestSubsetValues:
    def test_matches_step_value_on_every_subset(self):
        inst = random_flow_instance(random.Random(7), 5)
        assert inst.fixed
        table = subset_values(inst)
        assert len(table) == 32
        for mask in range(32):
            subset = [e for i, e in enumerate(inst.orderable) if mask >> i & 1]
            assert table[mask] == step_value(inst, subset)
        assert table[0] == step_value(inst, ())


def step_lp_value(instance: Instance, subset) -> float:
    """Optimum of the step LP with the availability column pinned to the
    subset's characteristic vector."""
    b = LpBuilder()
    h = {}
    for e in instance.orderable:
        v = 1.0 if e in subset else 0.0
        h[e] = b.add_var(f"h[{e}]", v, v)
    emit_step(instance, 1, h, b)
    sol = solve(b.build("max"))
    assert sol.status == OPTIMAL
    return sol.objective


class TestEmitStep:
    def test_single_edge_available(self):
        data = MatchingInstance({0: (0, 1)}, {0: 5.0}, frozenset({0}))
        inst = make_instance("matching", data, [])
        assert step_lp_value(inst, {0}) == pytest.approx(5.0)

    def test_single_arc_available(self):
        data = FlowInstance({0: (0, 1)}, {0: 2.0}, 0, 1)
        inst = make_instance("flow", data, [])
        assert step_lp_value(inst, {0}) == pytest.approx(2.0)

    def test_d1_single_orderable_arc(self):
        inst = bundled_instance("d1")
        # arc 5 is 3->2 with capacity 2 - eps
        assert step_lp_value(inst, {5}) == pytest.approx(1.9)
        assert step_value(inst, {5}) == pytest.approx(1.9)

    def test_arc_into_source_counts_net_flow(self):
        # s->2 and 2->s form a cycle through the source; only s->t reaches t
        data = FlowInstance({0: (0, 2), 1: (2, 0), 2: (0, 1)}, {0: 5.0, 1: 5.0, 2: 1.0}, 0, 1)
        inst = make_instance("flow", data, [])
        for r in range(inst.m + 1):
            for subset in itertools.combinations(inst.orderable, r):
                assert step_lp_value(inst, set(subset)) == pytest.approx(
                    step_value(inst, set(subset)), abs=1e-9)

    def test_bad_step_index(self):
        inst = bundled_instance("g1")
        b = LpBuilder()
        with pytest.raises(InstanceError):
            emit_step(inst, 0, {}, b)


@pytest.mark.parametrize("name", ["g1", "g2", "d1", "d2"])
def test_oracle_lp_agreement_exhaustive(name):
    inst = bundled_instance(name)
    for r in range(inst.m + 1):
        for subset in itertools.combinations(inst.orderable, r):
            assert step_lp_value(inst, set(subset)) == pytest.approx(
                step_value(inst, set(subset)), abs=1e-6
            )


@pytest.mark.parametrize("name", ["g1", "g2", "d1", "d2", "d3"])
def test_monotonicity(name):
    inst = bundled_instance(name)
    elems = list(inst.orderable)
    prev = step_value(inst, set())
    for k in range(1, len(elems) + 1):
        cur = step_value(inst, set(elems[:k]))
        assert cur >= prev - 1e-9
        prev = cur


def test_fixed_element_consistency():
    # moving an element from orderable to fixed never decreases a step value
    inst = bundled_instance("d1")
    promote = inst.orderable[0]
    promoted = make_instance("flow", inst.flow, list(inst.fixed) + [promote])
    for r in range(len(promoted.orderable) + 1):
        for subset in itertools.combinations(promoted.orderable, r):
            assert step_value(promoted, set(subset)) >= step_value(inst, set(subset)) - 1e-9


class TestValidation:
    def test_negative_weight(self):
        with pytest.raises(InstanceError):
            MatchingInstance({0: (0, 1)}, {0: -1.0}, frozenset({0}))

    def test_non_crossing_edge(self):
        with pytest.raises(InstanceError):
            MatchingInstance({0: (0, 1)}, {0: 1.0}, frozenset({0, 1}))

    def test_source_equals_sink(self):
        with pytest.raises(InstanceError):
            FlowInstance({0: (0, 1)}, {0: 1.0}, 0, 0)

    def test_orderable_fixed_disjoint(self):
        data = FlowInstance({0: (0, 1)}, {0: 1.0}, 0, 1)
        with pytest.raises(InstanceError):
            Instance("flow", None, data, (0,), (0,))

    def test_uncapacitated_source_sink_path_rejected(self):
        # s->2 and 2->t uncapacitated: the max flow with every arc built is
        # unbounded, which no finite stand-in capacity may report
        arcs = {0: (0, 2), 1: (2, 1), 2: (0, 1)}
        with pytest.raises(InstanceError, match="unbounded"):
            FlowInstance(arcs, {0: math.inf, 1: math.inf, 2: 2.0}, 0, 1)
        # one finite arc on the path keeps the flow bounded
        FlowInstance(arcs, {0: math.inf, 1: 5.0, 2: 2.0}, 0, 1)
        # an uncapacitated path that leads away from the sink is fine
        FlowInstance({0: (0, 2), 1: (1, 2), 2: (0, 1)}, {0: math.inf, 1: math.inf, 2: 2.0}, 0, 1)

    def test_uncapacitated_bound_is_finite(self):
        data = FlowInstance({0: (0, 1), 1: (1, 2)}, {0: 3.0, 1: math.inf}, 0, 2)
        assert data.finite_cap(1) == 3.0
