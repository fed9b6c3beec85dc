import dataclasses
import itertools
import math
import random

import pytest

from conftest import (
    per_set_values,
    random_flow_instance,
    random_matching_instance,
    random_network_instance,
)
from permopt.instance_io import bundled_instance
from permopt.lp import OPTIMAL, LpBuilder, solve
from permopt.scheduler import solve_schedule
from permopt.subproblems import (
    FlowInstance,
    Instance,
    InstanceError,
    MatchingInstance,
    best_matching,
    emit_step,
    make_instance,
    step_value,
    subset_values,
)


class TestOracles:
    def test_d1_all_arcs(self):
        inst = bundled_instance("d1")
        assert inst.data.value(inst.data.arcs.keys()) == pytest.approx(2.0)

    def test_d3_path_arcs_only(self):
        inst = bundled_instance("d3")
        # the six path arcs plus the fixed inlet
        assert inst.data.value({0, 1, 2, 3, 4, 5, 6}) == pytest.approx(1.0)

    def test_d3_shortcut_only(self):
        inst = bundled_instance("d3")
        assert inst.data.value({0, 7, 8}) == pytest.approx(0.9)

    def test_g1_single_edge(self):
        inst = bundled_instance("g1")
        assert inst.data.value({1}) == pytest.approx(1.9)

    def test_g1_all_edges(self):
        inst = bundled_instance("g1")
        assert inst.data.value({0, 1, 2}) == pytest.approx(2.0)

    def test_empty_available(self):
        inst = bundled_instance("g1")
        assert inst.data.value(set()) == 0.0
        d1 = bundled_instance("d1")
        assert d1.data.value(set()) == 0.0

    def test_enumeration_guard(self):
        left = frozenset(range(30))
        edges = {e: (e, 100 + e) for e in range(30)}
        weights = {e: 1.0 for e in range(30)}
        data = MatchingInstance(edges, weights, left)
        with pytest.raises(InstanceError):
            data.value(range(30))

    def test_best_matching_lexicographic_tie(self):
        data = MatchingInstance(
            edges={0: (0, 10), 1: (1, 11)}, weights={0: 1.0, 1: 1.0},
            left=frozenset({0, 1}),
        )
        w, edges = best_matching(data, {0, 1})
        assert w == pytest.approx(2.0)
        assert edges == (0, 1)

    def test_tiny_weights_are_not_ties(self):
        # both weights sit below an absolute 1e-12, yet the heavier edge wins
        data = MatchingInstance({0: (0, 1), 1: (0, 2)}, {0: 1e-13, 1: 5e-13}, frozenset({0}))
        assert best_matching(data, {0, 1}) == (5e-13, (1,))
        assert data.value({0, 1}) == 5e-13

    def test_tiny_capacities_are_not_zero_flow(self):
        # both capacities sit below an absolute 1e-12, yet the path carries them
        data = FlowInstance({0: (0, 2), 1: (2, 1)}, {0: 5e-13, 1: 5e-13}, 0, 1)
        assert data.value({0, 1}) == 5e-13
        assert data.support({0, 1}) == {0, 1}
        s = solve_schedule(make_instance(data, []))
        assert (s.total, s.certified) == (5e-13, True)

    def test_huge_dead_end_does_not_hide_a_unit_path(self):
        # a 1e13 dead end s->3 beside the unit path s->2->t: each arc's zero
        # test is relative to its own capacity, so the path still counts
        data = FlowInstance({0: (0, 3), 1: (0, 2), 2: (2, 1)}, {0: 1e13, 1: 1.0, 2: 1.0}, 0, 1)
        assert data.value({1, 2}) == 1.0
        assert data.value({0, 1, 2}) == 1.0
        assert data.support({0, 1, 2}) == {1, 2}
        s = solve_schedule(make_instance(data, []))
        assert (s.total, s.certified) == (2.0, True)


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

    @pytest.mark.parametrize("m", range(1, 9))
    @pytest.mark.parametrize("n_fixed", [0, 1, 2])
    def test_equals_the_per_set_loop(self, m, n_fixed):
        # the table grows each set's max flow from its parent's; the loop
        # solves every set from the zero flow, and integral capacities make
        # the two agree exactly
        for seed in range(3):
            rng = random.Random(f"table/{m}/{n_fixed}/{seed}")
            for inst in (random_network_instance(rng, m, n_fixed),
                         random_flow_instance(rng, m, n_fixed),
                         random_matching_instance(rng, m)):
                assert subset_values(inst) == per_set_values(inst)

    def test_network_draws_hold_every_kind_of_arc(self):
        # what test_equals_the_per_set_loop relies on its networks to hold
        seen = set()
        for seed in range(3):
            for n_fixed in (0, 1, 2):
                rng = random.Random(f"table/8/{n_fixed}/{seed}")
                data = random_network_instance(rng, 8, n_fixed).data
                ends = list(data.arcs.values())
                seen |= {"zero" for c in data.capacities.values() if c == 0.0}
                seen |= {"inf" for c in data.capacities.values() if math.isinf(c)}
                seen |= {"into source" for _, head in ends if head == data.source}
                seen |= {"parallel" for a in ends if ends.count(a) > 1}
        assert seen == {"zero", "inf", "into source", "parallel"}


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
        inst = make_instance(data, [])
        assert step_lp_value(inst, {0}) == pytest.approx(5.0)

    def test_single_arc_available(self):
        data = FlowInstance({0: (0, 1)}, {0: 2.0}, 0, 1)
        inst = make_instance(data, [])
        assert step_lp_value(inst, {0}) == pytest.approx(2.0)

    def test_d1_single_orderable_arc(self):
        inst = bundled_instance("d1")
        # arc 5 is 3->2 with capacity 2 - eps
        assert step_lp_value(inst, {5}) == pytest.approx(1.9)
        assert step_value(inst, {5}) == pytest.approx(1.9)

    def test_arc_into_source_counts_net_flow(self):
        # s->2 and 2->s form a cycle through the source; only s->t reaches t
        data = FlowInstance({0: (0, 2), 1: (2, 0), 2: (0, 1)}, {0: 5.0, 1: 5.0, 2: 1.0}, 0, 1)
        inst = make_instance(data, [])
        for r in range(inst.m + 1):
            for subset in itertools.combinations(inst.orderable, r):
                assert step_lp_value(inst, set(subset)) == pytest.approx(
                    step_value(inst, set(subset)), abs=1e-9)

    def test_zero_capacity_arc(self):
        # s->2 has capacity 0: its variable's [0, 0] bound holds it, and no
        # availability row with a zero coefficient is emitted
        data = FlowInstance({0: (0, 2), 1: (2, 1), 2: (0, 1)}, {0: 0.0, 1: 3.0, 2: 1.0}, 0, 1)
        inst = make_instance(data, [])
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
    promoted = make_instance(inst.data, list(inst.fixed) + [promote])
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

    def test_instance_holds_one_family(self):
        data = FlowInstance({0: (0, 1)}, {0: 1.0}, 0, 1)
        assert [f.name for f in dataclasses.fields(Instance)] == ["data", "orderable", "fixed"]
        assert Instance(data, (0,), ()).family == "flow"
        with pytest.raises(InstanceError, match="MatchingInstance or FlowInstance"):
            Instance("flow", (0,), ())

    def test_orderable_fixed_disjoint(self):
        data = FlowInstance({0: (0, 1)}, {0: 1.0}, 0, 1)
        with pytest.raises(InstanceError):
            Instance(data, (0,), (0,))

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
