import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest

from conftest import (
    additive_function,
    enumerated_best_order,
    per_set_values,
    random_coverage_function,
    random_flow_instance,
    random_matching_instance,
    random_network_instance,
    random_weighted_coverage,
    spiked,
    subset_values,
    table_order,
)
from permopt.baselines import brute_force
from permopt.instance_io import bundled_instance
from permopt.lp import EQ, LE, OPTIMAL, LpBuilder, solve
from permopt.scheduler import solve_schedule
from permopt.subproblems import (
    CoverageInstance,
    FlowInstance,
    Instance,
    InstanceError,
    MatchingInstance,
    SolveError,
    best_matching,
    emit_step,
    exact_order,
    make_instance,
    step_value,
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
        with pytest.raises(InstanceError):
            data = MatchingInstance(edges, weights, left)
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
        # a 1e13 dead end s->3 beside the unit path s->2->t: capacities are
        # exact ints, so the 1e13 arc's size cannot hide the path
        data = FlowInstance({0: (0, 3), 1: (0, 2), 2: (2, 1)}, {0: 1e13, 1: 1.0, 2: 1.0}, 0, 1)
        assert data.value({1, 2}) == 1.0
        assert data.value({0, 1, 2}) == 1.0
        assert data.support({0, 1, 2}) == {1, 2}
        s = solve_schedule(make_instance(data, []))
        assert (s.total, s.certified) == (2.0, True)


def usable(instance, mask) -> list:
    """The fixed elements plus the orderable ones in the bitmask."""
    return [*instance.fixed, *(e for i, e in enumerate(instance.orderable) if mask >> i & 1)]


def networkx_max_flow(data, arcs) -> float:
    """networkx's max s-t flow over `arcs` in Fractions, rounded once;
    parallel arcs merge and an uncapacitated arc stays inf."""
    nx = pytest.importorskip("networkx")
    caps = {}
    for a in arcs:
        c = data.capacities[a]
        caps[data.arcs[a]] = caps.get(data.arcs[a], 0) + (c if math.isinf(c) else Fraction(c))
    g = nx.DiGraph()
    g.add_nodes_from((data.source, data.sink))
    g.add_edges_from((t, h, {"capacity": c}) for (t, h), c in caps.items())
    return float(nx.maximum_flow_value(g, data.source, data.sink))


def fraction_best_matching(data, edges) -> float:
    """The largest weight of a matching among `edges`, every matching's
    weight summed in Fractions, rounded once."""
    best = Fraction(0)
    for r in range(1, len(edges) + 1):
        for chosen in itertools.combinations(edges, r):
            ends = [v for e in chosen for v in data.edges[e]]
            if len(set(ends)) == len(ends):
                best = max(best, sum(Fraction(data.weights[e]) for e in chosen))
    return float(best)


class TestExactOracles:
    """Both oracles count in exact ints: every value a warm walk reads is
    the exact optimum rounded once, however far the values spread."""

    @pytest.mark.parametrize("k", [14, -14])
    def test_spiked_flow_walks_equal_networkx(self, k):
        # a zero rule of 1e-12 of each arc's capacity read 12 of these
        # values wrong, at the keys (6, -14, 2) and (8, -14, 2)
        for m in range(3, 9):
            for seed in range(3):
                rng = random.Random(f"sp/random_flow_instance/{m}/{k}/{seed}")
                inst = spiked(random_flow_instance(rng, m), 10.0 ** k, rng)
                for mask, value in enumerate(subset_values(inst)):
                    assert value == networkx_max_flow(inst.data, usable(inst, mask))

    @pytest.mark.parametrize("m", range(3, 9))
    def test_spiked_matchings_are_monotone_and_exact(self, m):
        # a relative 1e-12 tie rule left 12 pairs non-monotone at m=7, seed 0
        for seed in range(8):
            rng = random.Random(f"sp/random_matching_instance/{m}/12/{seed}")
            inst = spiked(random_matching_instance(rng, m), 1e12, rng)
            table = subset_values(inst)
            for mask in range(1 << m):
                assert all(table[mask | 1 << i] >= table[mask] for i in range(m))
                if m <= 6:
                    assert table[mask] == fraction_best_matching(inst.data, usable(inst, mask))

    def test_overflowing_stand_in(self):
        # the uncapacitated arc 2's stand-in, the sum of the finite
        # capacities, overflows a float but not an int, so arc 2 still
        # carries the unit path 0->2->3->1
        data = FlowInstance({0: (0, 2), 1: (0, 3), 2: (2, 3), 3: (3, 1)},
                            {0: 1e308, 1: 1e308, 2: math.inf, 3: 1.0}, 0, 1)
        inst = make_instance(data, [])
        for values in (subset_values(inst), per_set_values(inst)):
            for mask, value in enumerate(values):
                assert value == networkx_max_flow(data, usable(inst, mask))
        assert values[-1] == values[0b1101] == 1.0

    def test_overflowing_dual_still_bounds(self):
        # the same network: the cut weighs arc 2 at its stand-in, so the
        # engine's sums of dual weights pass the float range; +inf is still
        # an upper bound, and the exact order is networkx's
        data = FlowInstance({0: (0, 2), 1: (0, 3), 2: (2, 3), 3: (3, 1)},
                            {0: 1e308, 1: 1e308, 2: math.inf, 3: 1.0}, 0, 1)
        inst = make_instance(data, [])
        table = [networkx_max_flow(data, usable(inst, mask)) for mask in range(1 << inst.m)]
        s = brute_force(inst)
        assert (s.total, s.order) == enumerated_best_order(table, inst.m) == (3.0, (1, 3, 0, 2))


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


def dual_instances(m):
    """Matchings, flows with 0-2 fixed arcs, and networks with zero and
    uncapacitated arcs, parallel arcs and arcs into the source, at m
    orderable elements, plus flows and matchings with one value spiked by
    10^±14; integral values but for the 10^-14 spikes, so most sums are
    exact."""
    for seed in range(2):
        rng = random.Random(f"dual/{m}/{seed}")
        yield random_matching_instance(rng, m)
        for n_fixed in (0, 1, 2):
            yield random_flow_instance(rng, m, n_fixed)
            yield random_network_instance(rng, m, n_fixed)
        for factor in (1e14, 1e-14):
            yield spiked(random_flow_instance(rng, m), factor, rng)
            yield spiked(random_matching_instance(rng, m), factor, rng)
        yield from coverage_instances(rng, m)


def coverage_instances(rng, m):
    """Unit-weight coverage, weighted coverage with 0-2 fixed elements, one
    point weight spiked by 10^±14, and additive functions with repeated
    weights, at m orderable elements."""
    yield random_coverage_function(rng, m)
    for n_fixed in (0, 1, 2):
        yield random_weighted_coverage(rng, m, n_fixed)
    for factor in (1e14, 1e-14):
        yield spiked(random_weighted_coverage(rng, m), factor, rng)
    yield additive_function([float(rng.choice((0, 1, 1, 3))) for _ in range(m)])


def read_dual(instance, mask):
    """(value, the dual's bound on every bitmask) at the state `grow` reaches
    from nothing on the fixed elements plus the set `mask`."""
    value, state = instance.data.grow(None, usable(instance, mask))
    constant, weights = instance.data.dual(value, state)
    for e in instance.fixed:
        constant += weights.get(e, 0.0)
    bound = [constant]
    for e in instance.orderable:
        bound += [b + weights.get(e, 0.0) for b in bound]
    return value, bound


class TestDuals:
    """Each family's `dual` at a state of `grow` is a modular upper bound on
    the step value of every set, tight at the state's own set."""

    @pytest.mark.parametrize("m", range(1, 7))
    def test_bounds_every_subset_and_is_tight_at_its_own(self, m):
        for inst in dual_instances(m):
            values = per_set_values(inst)
            for mask in range(1 << m):
                value, bound = read_dual(inst, mask)
                assert value == values[mask] == bound[mask]
                assert all(v <= b for v, b in zip(values, bound))

    def test_generators_hold_every_case(self):
        # what test_bounds_every_subset_and_is_tight_at_its_own relies on
        seen = set()
        for m in range(1, 7):
            for inst in dual_instances(m):
                data = inst.data
                if inst.fixed:
                    seen.add("fixed")
                if data.family == "flow":
                    ends = list(data.arcs.values())
                    caps = list(data.capacities.values())
                    seen |= {"parallel"} if len(set(ends)) < len(ends) else set()
                    seen |= {"inf"} if math.inf in caps else set()
                    seen |= {"zero"} if 0.0 in caps else set()
        assert seen == {"fixed", "parallel", "inf", "zero"}

    @pytest.mark.parametrize("k", [-60, -1, 1, 60])
    def test_scales_exactly(self, k):
        for m in (3, 5):
            for inst in dual_instances(m):
                scaled = dataclasses.replace(inst, data=inst.data.scaled(2.0**k))
                for mask in range(1 << m):
                    value, bound = read_dual(inst, mask)
                    scaled_value, scaled_bound = read_dual(scaled, mask)
                    assert scaled_value == value / 2.0**k
                    assert scaled_bound == [b / 2.0**k for b in bound]

    def test_flow_cut_is_the_source_side_of_the_residual_graph(self):
        # arcs 0 and 1 form s->2->t with capacities 3 and 1: arc 1 saturates,
        # so the source side is {s, 2} and the cut is arc 1 alone, with the
        # unbuilt s->t arc 2 weighing its capacity
        data = FlowInstance({0: (0, 2), 1: (2, 1), 2: (0, 1)}, {0: 3.0, 1: 1.0, 2: 5.0}, 0, 1)
        value, state = data.grow(None, (0, 1))
        assert data.dual(value, state) == (0.0, {1: 1.0, 2: 5.0})

    def test_matching_bound_is_marginal(self):
        data = MatchingInstance({0: (0, 2), 1: (1, 2), 2: (1, 3)}, {0: 4.0, 1: 2.0, 2: 3.0},
                                frozenset({0, 1}))
        value, state = data.grow(None, (0,))
        assert data.dual(value, state) == (4.0, {1: 2.0, 2: 3.0})

    def test_coverage_bound_is_marginal(self):
        # element 1 adds only point 2 to the points {0, 1} of element 0
        data = CoverageInstance({0: frozenset({0, 1}), 1: frozenset({1, 2}), 2: frozenset()},
                                {0: 1.0, 1: 2.0, 2: 0.5})
        value, state = data.grow(None, (0,))
        assert (value, state) == (3.0, frozenset({0, 1}))
        assert data.dual(value, state) == (3.0, {0: 0.0, 1: 0.5, 2: 0.0})


class TestExactOrder:
    """The engine's order is the scalar DP's on the full subset table, read
    from a few dual bounds and walks instead of the table."""

    @pytest.mark.parametrize("m", range(1, 10))
    def test_equals_the_table_order(self, m):
        for seed in range(2):
            rng = random.Random(f"engine/{m}/{seed}")
            for n_fixed in (0, 1, 2):
                for inst in (random_flow_instance(rng, m, n_fixed),
                             random_network_instance(rng, m, n_fixed),
                             random_matching_instance(rng, m)):
                    assert exact_order(inst) == table_order(inst)

    @pytest.mark.parametrize("make", [random_flow_instance, random_matching_instance],
                             ids=["flow", "matching"])
    def test_walks_far_fewer_sets_than_the_table(self, make, monkeypatch):
        m, walked = 12, []
        inst = make(random.Random(f"walks/{m}"), m)
        grow = type(inst.data).grow
        monkeypatch.setattr(type(inst.data), "grow",
                            lambda data, state, added: walked.append(added) or grow(data, state, added))
        order = exact_order(inst)
        monkeypatch.undo()
        assert order == table_order(inst)
        assert len(walked) <= 20 * m < 2**m

    @pytest.mark.parametrize("m", range(1, 10))
    def test_coverage_equals_the_table_order(self, m):
        for seed in range(2):
            for inst in coverage_instances(random.Random(f"engine/coverage/{m}/{seed}"), m):
                assert exact_order(inst) == table_order(inst)

    def test_a_dual_that_never_tightens_raises(self, monkeypatch):
        # a bound one unit above every value lowers each prefix once, then
        # nothing: the second round must stop with a typed error
        monkeypatch.setattr(FlowInstance, "dual", lambda data, value, state: (value + 1.0, {}))
        inst = random_flow_instance(random.Random(5), 6)
        with pytest.raises(SolveError, match="lower none"):
            exact_order(inst)

    def test_size_guard(self):
        with pytest.raises(InstanceError, match="m=21 exceeds subset-table guard 20"):
            exact_order(random_flow_instance(random.Random(3), 21))


def step_lp_value(instance: Instance, subset) -> float:
    """Optimum of the step LP with the availability column pinned to the
    subset's characteristic vector."""
    b = LpBuilder()
    h = {}
    for e in instance.orderable:
        v = 1.0 if e in subset else 0.0
        h[e] = b.add_var(v, v)
    emit_step(instance, 1, h, b)
    sol = solve(b.build("max"))
    assert sol.status == OPTIMAL
    return sol.objective


def assert_block_equals_oracle(instance: Instance):
    """The step LP and the oracle agree on every subset of the orderable elements."""
    for r in range(instance.m + 1):
        for subset in itertools.combinations(instance.orderable, r):
            assert step_lp_value(instance, set(subset)) == pytest.approx(
                step_value(instance, set(subset)), abs=1e-9)


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
        assert_block_equals_oracle(make_instance(data, []))

    def test_loops_parallel_arcs_and_an_arc_into_the_source(self):
        # self-loops at s and at 2 (the latter uncapacitated), 2->s, and two
        # parallel arcs s->2: the block read off the network equals the oracle
        arcs = {0: (0, 0), 1: (2, 2), 2: (2, 0), 3: (0, 2), 4: (0, 2), 5: (2, 1), 6: (0, 1)}
        caps = {0: 3.0, 1: math.inf, 2: 2.0, 3: 1.5, 4: 2.5, 5: 3.5, 6: 1.0}
        assert_block_equals_oracle(make_instance(FlowInstance(arcs, caps, 0, 1), []))

    def test_zero_capacity_arc(self):
        # s->2 has capacity 0: its variable's [0, 0] bound holds it, and no
        # availability row with a zero coefficient is emitted
        data = FlowInstance({0: (0, 2), 1: (2, 1), 2: (0, 1)}, {0: 0.0, 1: 3.0, 2: 1.0}, 0, 1)
        assert_block_equals_oracle(make_instance(data, []))

    def test_matching_block_is_data_built_once(self):
        # edges in ascending id, bound 1, the weights, one <= 1 row per vertex
        data = MatchingInstance({3: (0, 5), 1: (0, 4), 2: (1, 4)}, {3: 2.0, 1: 1.0, 2: 4.0},
                                frozenset({0, 1}))
        assert data.block == ((1, 2, 3), [1.0, 1.0, 1.0], [1.0, 4.0, 2.0], [
            ({2: 1.0, 0: 1.0}, LE, 1.0), ({1: 1.0}, LE, 1.0),
            ({0: 1.0, 1: 1.0}, LE, 1.0), ({2: 1.0}, LE, 1.0)])
        assert data.block is data.block

    def test_flow_block_is_data_built_once(self):
        # a self-loop at 2 cancels; the source's net outflow is the
        # objective; no row for the source or the sink
        data = FlowInstance({0: (0, 2), 1: (2, 2), 2: (2, 0), 3: (2, 1)},
                            {0: 5.0, 1: 1.0, 2: 2.0, 3: math.inf}, 0, 1)
        assert data.block == ((0, 1, 2, 3), [5.0, 1.0, 2.0, 8.0], [1.0, 0.0, -1.0, 0.0],
                              [({2: 1.0, 3: 1.0, 0: -1.0}, EQ, 0.0)])
        assert data.block is data.block

    @pytest.mark.parametrize("m", range(1, 7))
    def test_coverage_block_equals_the_oracle(self, m):
        for seed in range(2):
            for inst in coverage_instances(random.Random(f"block/{m}/{seed}"), m):
                assert_block_equals_oracle(inst)

    def test_coverage_block_is_data_built_once(self):
        # elements at 0, then one variable per point keyed apart from the
        # element ids; point 5 is covered by no element, so its row is y <= 0
        data = CoverageInstance({1: frozenset({0}), 0: frozenset({0, 3})}, {3: 2.0, 0: 1.5, 5: 4.0})
        assert data.block == ((0, 1, ("point", 0), ("point", 3), ("point", 5)), [1.0] * 5,
                              [0.0, 0.0, 1.5, 2.0, 4.0],
                              [({2: 1.0, 0: -1.0, 1: -1.0}, LE, 0.0), ({3: 1.0, 0: -1.0}, LE, 0.0),
                               ({4: 1.0}, LE, 0.0)])
        assert data.block is data.block

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

    def test_element_ids_strictly_increasing(self):
        # a repeated id made m = 3 out of two edges, and every exact method
        # certified order (1, 0, 0) at total 8.0 against an optimum of 5.0
        data = MatchingInstance({0: (0, 10), 1: (1, 11)}, {0: 1.0, 1: 2.0}, frozenset({0, 1}))
        for orderable, fixed in (((0, 0, 1), ()), ((1, 0), ()), ((), (1, 0)), ((1,), (0, 0))):
            with pytest.raises(InstanceError, match="strictly increasing"):
                Instance(data, orderable, fixed)
        assert Instance(data, (0, 1), ()).m == 2

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
        # a finite arc beside an uncapacitated parallel one does not block the path
        with pytest.raises(InstanceError, match="unbounded"):
            FlowInstance({0: (0, 2), 1: (0, 2), 2: (2, 1)},
                         {0: 1.0, 1: math.inf, 2: math.inf}, 0, 1)
        # uncapacitated arcs are followed from tail to head only: 2->s and 2->t
        FlowInstance({0: (2, 0), 1: (2, 1), 2: (0, 1)}, {0: math.inf, 1: math.inf, 2: 2.0}, 0, 1)

    def test_uncapacitated_bound_is_finite(self):
        data = FlowInstance({0: (0, 1), 1: (1, 2)}, {0: 3.0, 1: math.inf}, 0, 2)
        assert data.network.caps[data.network.index[1]] == 3.0

    def test_edge_without_a_weight(self):
        # unchecked, it reaches the solvers, which raise KeyError: 1
        edges = {0: (0, 1), 1: (0, 2)}
        with pytest.raises(InstanceError, match="weights"):
            solve_schedule(make_instance(MatchingInstance(edges, {0: 1.0}, frozenset({0})), []))

    def test_weight_without_an_edge(self):
        # unchecked, it is silently ignored
        with pytest.raises(InstanceError, match="weights"):
            MatchingInstance({0: (0, 1)}, {0: 1.0, 1: 2.0}, frozenset({0}))

    def test_arc_without_a_capacity(self):
        # unchecked, construction raises KeyError: 1
        with pytest.raises(InstanceError, match="capacities"):
            FlowInstance({0: (0, 1), 1: (0, 1)}, {0: 1.0}, 0, 1)

    @pytest.mark.parametrize("weight", [-1.0, math.nan, math.inf])
    def test_coverage_weight_finite_and_nonnegative(self, weight):
        with pytest.raises(InstanceError, match="point 1 has weight"):
            CoverageInstance({0: frozenset({1})}, {1: weight})

    def test_covered_point_without_a_weight(self):
        with pytest.raises(InstanceError, match=r"element 0 covers points \[2\] with no weight"):
            CoverageInstance({0: frozenset({1, 2})}, {1: 1.0})

    def test_instance_accepts_coverage(self):
        inst = Instance(CoverageInstance({0: frozenset({1})}, {1: 1.0}), (0,), ())
        assert (inst.family, inst.m) == ("coverage", 1)

    def test_capacity_without_an_arc(self):
        # unchecked, phantom arc 7 lifts the uncapacitated arc's stand-in from 1.0 to 51.0
        arcs = {0: (0, 2), 1: (2, 1)}
        with pytest.raises(InstanceError, match="capacities"):
            FlowInstance(arcs, {0: 1.0, 1: math.inf, 7: 50.0}, 0, 1)
        assert FlowInstance(arcs, {0: 1.0, 1: math.inf}, 0, 1).network.caps == [1.0, 1.0]
