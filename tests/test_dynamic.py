from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from knapgreedy import (
    DirectedCutObjective,
    DynamicGreedy,
    EmptyAfterReductionError,
    EntropyObjective,
    GroundSet,
    Instance,
    InvalidInstanceError,
    KnapsackConstraints,
    ModularObjective,
    brute_force_curvature,
    brute_force_opt,
    check_guarantee,
    chi,
    complement_search,
    guarantee_bound,
    lambda_greedy,
    run_with_updates,
    split_by_threshold,
)
from knapgreedy.core import FEAS_TOL, Solution
from knapgreedy.dynamic import WeightUpdate
from knapgreedy.solver import BOUND_SLACK, Partition, best_singleton, greedy_phase

from conftest import (
    FAMILIES,
    eager_greedy_step,
    integer_instance,
    random_instance,
    reference_greedy,
    reference_restart_depth,
    twin_instance,
    worked_example_instance,
)


def tightened_weights(rng, weights):
    """Random update that never grows the cheap set (per-knapsack shrink)."""
    return weights * rng.uniform(0.4, 1.0, size=len(weights))


class TestInit:
    def test_worked_example_pool(self, worked_example):
        eng = DynamicGreedy(worked_example, 1.0)
        assert eng.pool == [0, 1, 2, 3, 4]
        assert eng.sigma.order == []
        assert eng.phase == "greedy"

    def test_empty_cheap_finishes_immediately(self):
        inst = Instance(
            GroundSet(2),
            KnapsackConstraints([[3.0, 3.0], [0.5, 0.5]], [4.0, 4.0]),
            ModularObjective([1.0, 1.0]),
        )
        eng = DynamicGreedy(inst, 1.0)  # threshold 2.0 in knapsack 0
        assert eng.phase == "finished"
        assert eng.pool == []

    @pytest.mark.parametrize("family", FAMILIES)
    def test_budgets_that_admit_nothing_build_like_an_update_to_them(self, family):
        # zero budgets admit no element: the engine is built finished, with
        # no call, and an update to the instance's budgets leaves it where a
        # fresh engine under them ends, calls included
        inst = random_instance(np.random.default_rng(31), 10, 2, family)
        obj = inst.objective.clone()
        eng = DynamicGreedy(Instance(inst.ground, inst.constraints.with_weights([0.0, 0.0]), obj), 1.5)
        assert (eng.phase, eng.vstar, eng.current_best(), obj.eval_count) == ("finished", None, 0.0, 0)
        eng.apply_weights(inst.constraints.weights)
        eng.run_to_completion()
        fresh = DynamicGreedy(inst, 1.5)
        fresh.run_to_completion()
        assert eng.sigma.order == fresh.sigma.order != []
        assert _bits(eng.sigma) == _bits(fresh.sigma)
        assert eng.current_best() == fresh.current_best()
        assert obj.eval_count == inst.objective.eval_count

    def test_init_costs_exactly_singleton_scan(self, worked_example):
        before = worked_example.objective.eval_count
        DynamicGreedy(worked_example, 1.0)
        assert worked_example.objective.eval_count - before == 5

    def test_vstar_and_pool_fit_when_the_cheap_bound_rounds_up(self):
        # element 0 fits the cheap threshold 3 * 0.1 / 3, one ulp above the
        # budget 0.1, but not the budget itself
        c = 3.0 * 0.1 / 3 + FEAS_TOL
        inst = Instance(GroundSet(2), KnapsackConstraints([[c, 0.01]] * 3, [0.1] * 3),
                        ModularObjective([5.0, 1.0]))
        eng = DynamicGreedy(inst, 3.0)
        assert (eng.pool, eng.vstar, eng.vstar_value) == ([1], 1, 1.0)

    def test_vstar_ties_to_lowest_fitting_index(self):
        # a NaN never wins; of equal maxima the lowest index does, in the
        # solver's scan and in the engine after an update alike
        obj = ModularObjective([1.0, float("nan"), 3.0, 3.0, 2.0])
        inst = Instance(GroundSet(5), KnapsackConstraints([[1, 1, 2, 1, 1]], [2.0]), obj)
        assert best_singleton(obj, range(5), {}) == (2, 3.0)
        eng = DynamicGreedy(inst, 1.0)
        assert (eng.vstar, eng.vstar_value) == (2, 3.0)
        eng.apply_weights([1.0])  # element 2 no longer fits
        assert (eng.vstar, eng.vstar_value) == (3, 3.0)

    def test_vstar_is_never_a_nan_element(self):
        # the first maximum over the values that are numbers, wherever the
        # NaN sits; the greedy reaches 2.0 and v* beats it
        nan = float("nan")
        for values, costs, vstar in (([nan, 1.0, 1.0, 2.5], [0.1, 0.1, 0.1, 1.0], 3),
                                     ([2.5, 1.0, 1.0, nan], [1.0, 0.1, 0.1, 0.1], 0)):
            cons = KnapsackConstraints([costs], [1.0])
            inst = Instance(GroundSet(4), cons, ModularObjective(values))
            result = lambda_greedy(inst, 1.0)
            assert (result.chosen, result.value, result.which) == ((vstar,), 2.5, "singleton-vstar")
        # elements that fit but have no number for a value leave no v*, and
        # the engine still starts
        inst = Instance(GroundSet(1), KnapsackConstraints([[1.0]], [1.0]), ModularObjective([nan]))
        eng = DynamicGreedy(inst, 1.0)
        assert (eng.vstar, eng.vstar_value) == (None, 0.0)


class TestStep:
    def test_first_step_appends_densest(self, worked_example):
        eng = DynamicGreedy(worked_example, 1.0)
        eng.step()
        assert eng.sigma.order == [4]
        assert eng.sigma.value == 3.0

    def test_skips_infeasible_then_appends(self, worked_example):
        eng = DynamicGreedy(worked_example, 1.0)
        for _ in range(4):
            eng.step()
        # picks 2 and 3 (density 0.5) but both overflow W=2; then appends 0
        assert eng.sigma.order == [4, 0]

    def test_negative_marginal_element_dropped(self):
        # arc 0->1: once 0 is chosen, adding 1 removes the cut edge
        obj = DirectedCutObjective(2, [(0, 1, 2.0)])
        inst = Instance(GroundSet(2), KnapsackConstraints([[1.0, 1.0]], [2.0]), obj)
        eng = DynamicGreedy(inst, 1.0)
        eng.step()
        assert eng.sigma.order == [0]
        eng.step()
        assert eng.sigma.order == [0]  # 1 had marginal -2: removed, not added
        assert eng.phase == "finished"

    def test_negative_gain_winner_finishes(self):
        # variance-0.02 elements have negative entropy gain: the third scan's
        # winner is one of them, so that step empties the pool; the first
        # scan is answered from the memo's root entry, the singleton values
        inst = Instance(
            GroundSet(5),
            KnapsackConstraints([[1.0] * 5], [5.0]),
            EntropyObjective(np.diag([1.0, 0.02, 1.0, 0.02, 0.02])),
        )
        eng = DynamicGreedy(inst, 1.0)
        start = eng.obj.eval_count
        for _ in range(3):
            eng.step()
        assert eng.sigma.order == [0, 2]
        assert eng.pool == [] and eng.phase == "finished"
        assert eng.obj.eval_count - start == 0 + 4 + 3

    def test_a_nan_density_never_wins(self):
        # a NaN density first in the pool does not win its scan: one step
        # appends the best number, where the eager reference's first scan
        # picks the NaN and discards it. The scan is of the empty prefix,
        # answered from the memo's root entry, where the eager reference
        # pays for both of its scans. A pool left with the NaN alone is
        # cleared, not appended to
        def inst():
            return Instance(GroundSet(3), KnapsackConstraints([[1.0] * 3], [3.0]),
                            ModularObjective([np.nan, 1.0, 2.0]))

        eng = DynamicGreedy(inst(), 1.0)
        start = eng.obj.eval_count
        eng.step()
        assert (eng.sigma.order, eng.sigma.value, eng.pool) == ([2], 2.0, [0, 1])
        ref = inst()
        sigma, pool = Solution(1), [0, 1, 2]
        for _ in range(2):
            eager_greedy_step(ref.objective, ref.constraints, sigma, pool)
        assert sigma.order == eng.sigma.order
        assert (ref.objective.eval_count, eng.obj.eval_count - start) == (3 + 2, 0)
        eng.step()
        eng.step()
        assert (eng.sigma.order, eng.pool) == ([2, 1], [])


class TestApplyWeights:
    def test_worked_example_budget_increase(self, worked_example):
        eng = DynamicGreedy(worked_example, 1.0)
        eng.run_to_completion()
        assert eng.sigma.order == [4, 0]
        eng.apply_weights([3.0])
        # elements 2 and 3 now fit on top of [4], and their singleton
        # density 0.5 outranks element 0's 0.25: one pop
        assert eng.sigma.order == [4]
        result = eng.finalize()
        assert result.value == 4.0
        assert result.greedy_order == (4, 2)

    def test_identity_update_keeps_the_prefix(self, worked_example):
        # the same budgets let no element in: a restart builds [4, 0] again
        eng = DynamicGreedy(worked_example, 1.0)
        eng.run_to_completion()
        before = eng.obj.eval_count
        eng.apply_weights([2.0])
        assert eng.sigma.order == [4, 0]
        assert eng.obj.eval_count == before

    def test_loosening_stops_where_a_newcomer_outranks(self):
        # element 2 (cost 2.5) does not fit W = 2; at W = 3 it is cheap, and
        # its singleton density 2 beats element 0's, the first of the prefix
        # [0, 1]: every depth goes, though [0, 1] is cheap and fits W = 3
        inst = Instance(GroundSet(3), KnapsackConstraints([[1.0, 1.0, 2.5]], [2.0]),
                        ModularObjective([1.0, 0.5, 5.0]))
        eng = DynamicGreedy(inst, 1.0)
        eng.run_to_completion()
        assert eng.sigma.order == [0, 1]
        eng.apply_weights([3.0])
        assert eng.sigma.order == []
        eng.run_to_completion()
        fresh = DynamicGreedy(Instance(inst.ground, eng.cons, inst.objective.clone()), 1.0)
        fresh.run_to_completion()
        assert eng.sigma.order == fresh.sigma.order == [2]

    def test_loosening_keeps_what_no_newcomer_can_outrank(self):
        # at W = 2.5 element 2 (cost 2.2, density 5) fits alone, below
        # element 0's density 10, but not on top of [0], where it would
        # outrank element 1: the whole prefix stays, and only element 2's
        # singleton is evaluated. chi at W = 2 is 0, so the old rule kept
        # nothing here
        inst = Instance(GroundSet(3), KnapsackConstraints([[1.0, 1.0, 2.2]], [2.0]),
                        ModularObjective([10.0, 1.0, 11.0]))
        eng = DynamicGreedy(inst, 1.0)
        eng.run_to_completion()
        assert eng.sigma.order == [0, 1] and chi(eng.cons) == 0
        before = eng.obj.eval_count
        eng.apply_weights([2.5])
        assert eng.sigma.order == [0, 1]
        assert eng.obj.eval_count - before == 1
        fresh = DynamicGreedy(Instance(inst.ground, eng.cons, inst.objective.clone()), 1.0)
        fresh.run_to_completion()
        assert fresh.sigma.order == [0, 1]

    def test_a_newcomer_that_ties_from_a_lower_index_outranks(self):
        # at W = 2 element 0 fits, with element 1's density 1: a restart
        # takes the lower index first, so the kept [1] goes
        inst = Instance(GroundSet(2), KnapsackConstraints([[2.0, 1.0]], [1.5]),
                        ModularObjective([2.0, 1.0]))
        eng = DynamicGreedy(inst, 1.0)
        eng.run_to_completion()
        assert eng.sigma.order == [1]
        eng.apply_weights([2.0])
        assert eng.sigma.order == []
        eng.run_to_completion()
        assert eng.sigma.order == [0]

    def test_a_newcomer_exactly_at_the_slack_floor_outranks(self):
        # Under W = 2 the engine takes [0, 1]; element 2 (cost 2) lost at
        # depth 0 and did not fit on top of [0]. W = 3 makes it a newcomer
        # at depth 1, and its singleton density is order[1]'s density less
        # the rounding slack, to the bit: the rollback stops at depth 1. A
        # rule without the slack, or comparing with >, keeps [0, 1].
        d, v = (6.0 - 4.0) / 1.0, 4.0  # order[1]'s density and f(order[:1])
        min_cost = 1.0
        floor = d - BOUND_SLACK * (max(1.0, abs(d)) + v / min_cost)
        assert floor < d
        inst = Instance(GroundSet(3), KnapsackConstraints([[1.0, 1.0, 2.0]], [2.0]),
                        ModularObjective([4.0, 2.0, 2.0 * floor]))
        eng = DynamicGreedy(inst, 1.0)
        eng.run_to_completion()
        assert eng.sigma.order == [0, 1]
        assert [value for value, _ in eng.sigma.history] == [0.0, v, v + d]
        assert min(eng.cons.max_costs) == min_cost
        assert eng.singleton_values[2] / eng.cons.max_costs[2] == floor
        eng.apply_weights([3.0])
        assert eng.sigma.order == [0]

    def test_shrinking_cheap_set_empties_stack(self):
        # first-added element leaves the cheap set: stack pops cannot skip it
        inst = Instance(
            GroundSet(3),
            KnapsackConstraints([[2.0, 1.0, 1.0]], [4.0]),
            ModularObjective([8.0, 1.0, 1.0]),
        )
        eng = DynamicGreedy(inst, 1.0)
        eng.run_to_completion()
        assert eng.sigma.order[0] == 0
        eng.apply_weights([1.5])  # element 0 (cost 2) no longer cheap
        assert eng.sigma.order == []

    def test_stack_discipline_costs_match_recompute(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            inst = random_instance(rng, 10, 2, "cut")
            try:
                eng = DynamicGreedy(inst, 1.0)
            except EmptyAfterReductionError:
                continue
            for _ in range(6):
                eng.step()
            eng.apply_weights(tightened_weights(rng, eng.cons.weights))
            fresh = eng.cons.set_cost(eng.sigma.order)
            assert np.allclose(eng.sigma.cost_acc, fresh, atol=1e-9)

    def test_rollback_restores_the_prefix_cost_exactly(self):
        # (0.1 + 0.2) - 0.2 is not 0.1: popping must restore, not subtract
        inst = Instance(
            GroundSet(2),
            KnapsackConstraints([[0.1, 0.2]], [1.0]),
            ModularObjective([2.0, 1.0]),
        )
        eng = DynamicGreedy(inst, 1.0)
        eng.step()
        eng.step()
        assert eng.sigma.order == [0, 1]
        eng.apply_weights([0.25])  # [0, 1] costs 0.3: one pop
        assert eng.sigma.order == [0]
        assert eng.sigma.cost_acc.tolist() == [0.1]
        assert eng.sigma.value == 2.0

    @pytest.mark.parametrize("bad", [[float("nan")], [float("inf")], [-1.0]])
    def test_rejects_non_finite_or_negative_weights(self, worked_example, bad):
        eng = DynamicGreedy(worked_example, 1.0)
        eng.run_to_completion()
        with pytest.raises(InvalidInstanceError, match="weight for knapsack 0"):
            eng.apply_weights(bad)
        # a rejected update leaves the engine as it was
        assert eng.sigma.order == [4, 0]
        assert list(eng.cons.weights) == [2.0]
        assert eng.finalize().value == 3.25

    def test_rejects_wrong_length(self, worked_example):
        eng = DynamicGreedy(worked_example, 1.0)
        with pytest.raises(InvalidInstanceError, match="dimension mismatch"):
            eng.apply_weights([2.0, 2.0])


class TestMemo:
    def test_a_regrown_prefix_costs_no_call(self):
        # unit costs: under a budget of 6 every element fits, so no winner
        # is discarded. Cut to 1, the engine keeps one element; back at 6 it
        # grows the same prefix again, with the same bits, and every scan
        # is read from the memo, since a rollback drops no value
        inst = random_instance(np.random.default_rng(1), 6, 1, "dpp")
        inst = Instance(inst.ground, KnapsackConstraints([[1.0] * 6], [6.0]), inst.objective)
        eng = DynamicGreedy(inst, 1.0)
        while eng.pool:
            eng.step()
        built, calls = _bits(eng.sigma), eng.obj.eval_count
        assert len(eng.sigma.order) > 2
        eng.apply_weights([1.0])
        assert len(eng.sigma.order) == 1
        eng.apply_weights([6.0])
        while eng.pool:
            eng.step()
        assert (_bits(eng.sigma), eng.obj.eval_count) == (built, calls)

    def test_each_order_of_a_set_keeps_its_own_values(self):
        # [0, 1] and [1, 0] hold one set, but their prefix states round
        # some values on top of it apart (this DPP kernel): a memo filled on
        # top of one order leaves the lazy phase on top of the other with
        # the values and the prefix a fresh memo gives
        inst = random_instance(np.random.default_rng(1), 6, 1, "dpp")
        cons = KnapsackConstraints([[1.0] * 6], [6.0])
        part = Partition(cheap=(2, 3, 4, 5), expensive=())

        def phase(obj, memo, order):
            sigma = Solution(1)
            for e in order:
                obj.follow(sigma.order)
                sigma.take(e, obj.value(sigma.order + [e]), sigma.cost_acc + cons.costs[:, e])
            return greedy_phase(obj, cons, part, memo, sigma)

        obj = inst.objective.clone()
        memo = {(): {}}
        best_singleton(obj, range(6), memo[()])
        phase(obj, memo, [0, 1])
        got = phase(obj, memo, [1, 0])
        fresh_obj = inst.objective.clone()
        fresh = {(): dict(memo[()])}
        want = phase(fresh_obj, fresh, [1, 0])
        assert _bits(got) == _bits(want)
        assert {e: v.hex() for e, v in memo[(1, 0)].items()} == {e: v.hex() for e, v in fresh[(1, 0)].items()}
        assert any(memo[(0, 1)][e].hex() != v.hex() for e, v in fresh[(1, 0)].items())

    def test_no_entry_holds_an_element_that_did_not_fit_on_top_of_its_key(self):
        # random walks of eager steps, limited runs and mixed updates, then
        # finalize(): an element is evaluated on top of a prefix only when
        # it fits there under the budgets of the moment, so it fits under
        # the widest, each knapsack's largest budget of the walk. The key's
        # cost is its columns added in order, the prefix's own sums
        rng = np.random.default_rng(43)
        for walk in range(80):
            n, k = int(rng.integers(3, 11)), int(rng.integers(1, 4))
            inst = random_instance(rng, n, k, FAMILIES[walk % len(FAMILIES)])
            eng = DynamicGreedy(inst, float(rng.choice([1.0, k])))
            widest = eng.cons.weights
            for _ in range(4):
                for _ in range(int(rng.integers(0, n))):
                    eng.step()
                eng.run_to_completion(eng.obj.eval_count + int(rng.integers(0, 3 * n)))
                eng.apply_weights(eng.cons.weights * rng.uniform(0.3, 1.7, size=k))
                widest = np.maximum(widest, eng.cons.weights)
            eng.finalize()
            cons = eng.cons.with_weights(widest)
            for prefix, values in eng.memo.items():
                cost = np.zeros(k)
                for e in prefix:
                    cost = cost + cons.costs[:, e]
                fits = cons.fits(cost)
                assert all(fits[e] for e in values), (walk, prefix)


class TestRunToCompletion:
    def test_call_limit_stops_at_step_boundary(self, worked_example):
        eng = DynamicGreedy(worked_example, 1.0)
        start = eng.obj.eval_count
        eng.run_to_completion(start + 1)
        # the limit is checked between steps: the first step is answered
        # from the memo's root entry, so the second runs too, past the
        # limit, and scans the 2 candidates that fit on top of [4]; elements
        # 2 and 3 would overflow the budget and are never evaluated there
        assert eng.obj.eval_count - start == 2
        assert (eng.sigma.order, eng.pool) == ([4, 0], [])
        assert sorted(eng.memo[(4,)]) == [0, 1]
        eng.run_to_completion(start)  # limit already reached: no step
        assert eng.obj.eval_count - start == 2
        eng.run_to_completion()
        assert eng.phase == "finished"
        assert eng.sigma.order == [4, 0]
        assert eng.obj.eval_count - start == 2


class TestFinalize:
    def test_without_updates_equals_static_solver(self):
        # lambda_greedy is a fresh engine's lazy finalize(); an engine
        # stepped eagerly to the end picks the same, with no fewer calls
        rng = np.random.default_rng(33)
        for family in FAMILIES:
            inst = random_instance(rng, 8, 2, family)
            try:
                eng = DynamicGreedy(
                    Instance(inst.ground, inst.constraints, inst.objective.clone()), 1.0
                )
            except EmptyAfterReductionError:
                continue
            while eng.pool:
                eng.step()
            dyn = eng.finalize()
            static = lambda_greedy(
                Instance(inst.ground, inst.constraints, inst.objective.clone()), 1.0
            )
            assert dyn.chosen == static.chosen
            assert dyn.value == static.value
            assert dyn.which == static.which
            assert dyn.greedy_order == static.greedy_order
            assert static.oracle_calls <= dyn.oracle_calls

    def test_complement_search_floored_at_current_best(self):
        # best_of takes the complement set only when it beats the greedy
        # prefix and the best singleton strictly, so the search may skip
        # whatever cannot beat current_best(); its root reads the engine's
        # cached singleton values
        rng = np.random.default_rng(34)
        inst = random_instance(rng, 10, 3, "dpp")
        eng = DynamicGreedy(inst, 1.0)
        eng.apply_weights(0.8 * inst.constraints.weights)
        eng.run_to_completion()
        with mock.patch("knapgreedy.dynamic.complement_search", wraps=complement_search) as search:
            eng.finalize()
        (_, _, part, values, floor), _ = search.call_args
        assert part.expensive and floor == eng.current_best()
        assert values is eng.singleton_values

    @pytest.mark.parametrize("solve", [
        lambda inst: lambda_greedy(inst, 1.0),
        lambda inst: run_with_updates(inst, 1.0, []),
        lambda inst: DynamicGreedy(inst, 1.0).finalize(),
    ], ids=["lambda_greedy", "run_with_updates", "finalize"])
    def test_every_solve_drops_the_prefix_state(self, worked_example, solve):
        # the lazy phase follows its prefix on the objective; no solve
        # leaves that state behind
        solve(worked_example)
        assert worked_example.objective._prefix is None

    def test_empty_expensive_max_of_sigma_vstar(self, worked_example):
        eng = DynamicGreedy(worked_example, 1.0)
        eng.run_to_completion()
        result = eng.finalize()
        assert result.value == max(eng.sigma.value, eng.vstar_value)


class TestLazyFinish:
    def test_unlimited_run_reaches_the_eager_prefix(self):
        # random walks of eager steps and mixed updates: after each
        # unlimited run_to_completion(), the prefix, its value bits and its
        # cost bytes are those of stepping eagerly until the pool is empty,
        # with no more calls; a rollback, also after finalize(), restores
        # the value and the cost vector the prefix had when it was built
        rng = np.random.default_rng(41)

        def state(eng):
            return tuple(eng.sigma.order), eng.sigma.value.hex(), eng.sigma.cost_acc.tobytes()

        def update(eng, factors):
            built = [(v.hex(), c.tobytes()) for v, c in eng.sigma.history]
            eng.apply_weights(eng.cons.weights * factors)
            assert state(eng)[1:] == built[len(eng.sigma.order)]

        def walk(inst, lam, script, finish):
            eng = DynamicGreedy(Instance(inst.ground, inst.constraints, inst.objective.clone()), lam)
            seen = []
            for steps, factors in script:
                for _ in range(steps):
                    eng.step()
                finish(eng)
                seen.append(state(eng))
                update(eng, factors)
                seen.append(state(eng))
            result = eng.finalize()
            seen.append(state(eng))
            update(eng, script[0][1])
            seen.append((result.chosen, result.value.hex(), result.which, result.greedy_order))
            seen.append(state(eng))
            return seen, eng.obj.eval_count

        def eager(eng):
            while eng.pool:
                eng.step()

        walks, lazy_calls, eager_calls = 0, 0, 0
        while walks < 300:
            n, k = int(rng.integers(3, 13)), int(rng.integers(1, 4))
            family = FAMILIES[walks % len(FAMILIES)]
            lam = float(rng.choice([1.0, k]))
            inst = random_instance(rng, n, k, family)
            script = [(int(rng.integers(0, n)), rng.uniform(0.3, 1.7, size=k))
                      for _ in range(int(rng.integers(1, 5)))]
            try:
                got, calls = walk(inst, lam, script, DynamicGreedy.run_to_completion)
            except EmptyAfterReductionError:
                continue
            expected, eager_walk_calls = walk(inst, lam, script, eager)
            assert got == expected
            assert calls <= eager_walk_calls
            lazy_calls += calls
            eager_calls += eager_walk_calls
            walks += 1
        assert lazy_calls < eager_calls



class TestRestartEquivalence:
    def test_sequences_identical_under_tightening_updates(self):
        rng = np.random.default_rng(35)
        checked = 0
        while checked < 40:
            n = int(rng.integers(4, 13))
            k = int(rng.integers(1, 4))
            family = FAMILIES[int(rng.integers(0, len(FAMILIES)))]
            lam = float(rng.choice([1.0, np.ceil(k / 2), k]))
            inst = random_instance(rng, n, k, family)
            try:
                eng = DynamicGreedy(inst, lam)
            except EmptyAfterReductionError:
                continue
            for _ in range(int(rng.integers(0, n))):
                eng.step()
            new_w = tightened_weights(rng, eng.cons.weights)
            eng.apply_weights(new_w)
            eng.run_to_completion()
            cons = inst.constraints.with_weights(new_w)
            scratch = reference_greedy(eng.obj, cons, split_by_threshold(cons, lam))
            assert scratch.order == eng.sigma.order
            checked += 1

    def test_sequences_identical_under_mixed_updates(self):
        # a budget increase can let in an element that no early depth
        # considered; the rollback stops where its singleton density could
        # outrank the kept element, so the order is a restart's too
        rng = np.random.default_rng(7)
        for _ in range(150):
            n = int(rng.integers(4, 13))
            k = int(rng.integers(1, 4))
            family = FAMILIES[int(rng.integers(0, len(FAMILIES)))]
            lam = float(rng.choice([1.0, np.ceil(k / 2), k]))
            inst = random_instance(rng, n, k, family)
            try:
                eng = DynamicGreedy(inst, lam)
            except EmptyAfterReductionError:
                continue
            for _ in range(int(rng.integers(0, n))):
                eng.step()
            new_w = eng.cons.weights * rng.uniform(0.5, 1.5, size=k)
            eng.apply_weights(new_w)
            eng.run_to_completion()
            cons = inst.constraints.with_weights(new_w)
            scratch = reference_greedy(eng.obj, cons, split_by_threshold(cons, lam))
            assert scratch.order == eng.sigma.order


class TestGuaranteeUnderUpdates:
    def test_finalize_meets_bound_in_new_constraints(self):
        rng = np.random.default_rng(37)
        checked = 0
        while checked < 15:
            n = int(rng.integers(4, 10))
            k = int(rng.integers(1, 4))
            family = FAMILIES[int(rng.integers(0, len(FAMILIES)))]
            lam = float(rng.choice([1.0, k]))
            inst = random_instance(rng, n, k, family)
            try:
                eng = DynamicGreedy(inst, lam)
            except EmptyAfterReductionError:
                continue
            for _ in range(int(rng.integers(0, n))):
                eng.step()
            new_w = tightened_weights(rng, eng.cons.weights)
            eng.apply_weights(new_w)
            value = eng.finalize().value
            final_inst = Instance(
                inst.ground,
                inst.constraints.with_weights(new_w),
                inst.objective.clone(),
            )
            opt_val, _ = brute_force_opt(final_inst)
            alpha = brute_force_curvature(inst.objective.clone(), n)
            assert value >= guarantee_bound(lam, alpha) * opt_val - 1e-9
            checked += 1


class TestRecoveryCost:
    def test_calls_bounded_by_rollback_depth(self):
        rng = np.random.default_rng(39)
        checked = 0
        while checked < 25:
            n = int(rng.integers(5, 13))
            k = int(rng.integers(1, 4))
            inst = random_instance(rng, n, k, "modular")
            try:
                eng = DynamicGreedy(inst, float(k))
            except EmptyAfterReductionError:
                continue
            m = int(eng.cons.fits().sum())  # the elements that fit; the rest sit out
            for _ in range(int(rng.integers(0, m))):
                eng.step()
            old_chi = chi(eng.cons)
            new_w = tightened_weights(rng, eng.cons.weights)
            before = eng.obj.eval_count
            eng.apply_weights(new_w)
            chi_rec = min(old_chi, chi(eng.cons), len(eng.sigma.order))
            eng.run_to_completion()
            calls = eng.obj.eval_count - before
            if chi_rec >= m:
                assert calls == 0
            else:
                assert calls <= 3 * m * (m - chi_rec)
            checked += 1


class TestScriptedUpdates:
    def test_worked_example_scripted_stream(self, worked_example):
        result = run_with_updates(
            worked_example, 1.0, [WeightUpdate(at_call=30, weights=np.array([3.0]))]
        )
        assert result.value == 4.0

    def test_update_after_finish_still_applies(self, worked_example):
        result = run_with_updates(
            worked_example, 1.0, [WeightUpdate(at_call=10 ** 6, weights=np.array([3.0]))]
        )
        assert result.value == 4.0


    @pytest.mark.parametrize("solve", [
        lambda inst, lam: lambda_greedy(inst, lam),
        lambda inst, lam: run_with_updates(inst, lam, [WeightUpdate(at_call=0, weights=np.array([3.0]))]),
    ], ids=["lambda_greedy", "run_with_updates"])
    def test_a_degenerate_instance_is_rejected_before_any_call(self, solve):
        # W = 0.5 admits no element; an update that would admit some does
        # not save the instance, and a bad lambda is reported first
        inst = worked_example_instance(W=0.5)
        with pytest.raises(InvalidInstanceError, match="lambda out of"):
            solve(inst, 2.0)
        with pytest.raises(EmptyAfterReductionError):
            solve(inst, 1.0)
        assert inst.objective.eval_count == 0


class TestBacktrackFoil:
    def test_plain_backtracking_underperforms_rollback(self, worked_example):
        # keep-and-extend on the worked example reaches only 3 + 2/n,
        # while the restart-exact rollback reaches 4
        eng = DynamicGreedy(worked_example, 1.0)
        eng.run_to_completion()
        sigma = list(eng.sigma.order)
        cons3 = worked_example.constraints.with_weights([3.0])
        obj = worked_example.objective.clone()
        # naive extension: keep sigma (still feasible under W=3), greedily add
        current = set(sigma)
        while True:
            best, best_gain = None, 0.0
            base = obj.value(current)
            for e in range(5):
                if e in current:
                    continue
                if not cons3.is_feasible(current | {e}):
                    continue
                gain = obj.value(current | {e}) - base
                if gain > best_gain:
                    best, best_gain = e, gain
            if best is None:
                break
            current.add(best)
        foil_value = obj.value(current)
        assert foil_value == pytest.approx(3.5)  # 3 + 2/n with n = 4

        eng.apply_weights([3.0])
        assert eng.finalize().value == 4.0


# ---------------------------------------------------------------------------
# property-based checks over random instances and update sequences (n <= 8)

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=200, deadline=None, database=None)


@st.composite
def engine_runs(draw, low, high):
    """A random instance and a sequence of (steps, per-knapsack weight
    factor) updates with factors drawn from [low, high].

    Half the instances have narrow costs in [1.5, 2] and budgets of k to
    1.5k times the largest cost, so every element starts cheap. With
    lam < k, a budget cut can then push a prefix element out of the cheap
    set (cost > lam * W / k) while the prefix still fits the budgets, so
    that only the cheap-set rule forces the pop."""
    n = draw(st.integers(2, 8))
    k = draw(st.integers(1, 3))
    family = draw(st.sampled_from(FAMILIES))
    lam = draw(st.sampled_from([1.0, float(k)]))
    narrow = draw(st.booleans())
    seed = draw(st.integers(0, 2 ** 32 - 1))
    factors = st.lists(st.floats(low, high), min_size=k, max_size=k)
    updates = draw(st.lists(st.tuples(st.integers(0, n), factors), max_size=5))
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, n, k, family)
    if narrow:
        costs = rng.uniform(1.5, 2.0, size=(k, n))
        weights = k * costs.max(axis=1) * rng.uniform(1.0, 1.5, size=k)
        inst.constraints = KnapsackConstraints(costs, weights)
    return inst, lam, updates


def _engine_after(inst, lam, updates):
    """Engine stepped and updated as scripted, or None when nothing fits."""
    try:
        eng = DynamicGreedy(inst, lam)
    except EmptyAfterReductionError:
        return None
    for steps, factors in updates:
        for _ in range(steps):
            eng.step()
        eng.apply_weights(eng.cons.weights * np.array(factors))
        assert np.allclose(
            eng.sigma.cost_acc, eng.cons.set_cost(eng.sigma.order), rtol=0, atol=FEAS_TOL
        )
    return eng


class TestEngineProperties:
    @PROPERTY_SETTINGS
    @given(engine_runs(0.3, 1.7))
    def test_mixed_updates_keep_costs_and_feasibility(self, run):
        inst, lam, updates = run
        eng = _engine_after(inst, lam, updates)
        if eng is None:
            return
        result = eng.finalize()
        assert np.allclose(
            eng.sigma.cost_acc, eng.cons.set_cost(eng.sigma.order), rtol=0, atol=FEAS_TOL
        )
        assert inst.constraints.with_weights(eng.cons.weights).is_feasible(result.chosen)

    @PROPERTY_SETTINGS
    @given(engine_runs(0.3, 1.7))
    def test_mixed_updates_trail_matches_eager_engine(self, run):
        # the same prefix after every step and update, and the same result,
        # as an engine that discards a winner that does not fit or has a
        # negative gain one scan at a time, with no more oracle calls. A
        # step appends or ends the phase, so the eager engine is compared at
        # equal depth: it steps until it appends or its pool is empty
        inst, lam, updates = run

        def trail(advance):
            try:
                eng = DynamicGreedy(
                    Instance(inst.ground, inst.constraints, inst.objective.clone()), lam
                )
            except EmptyAfterReductionError:
                return None, 0
            seen = []
            for steps, factors in updates:
                for _ in range(steps):
                    advance(eng)
                    seen.append((tuple(eng.sigma.order), eng.sigma.value))
                eng.apply_weights(eng.cons.weights * np.array(factors))
                seen.append((tuple(eng.sigma.order), eng.sigma.value))
            result = eng.finalize()
            seen.append((result.chosen, result.value, result.which, result.greedy_order))
            return seen, eng.obj.eval_count

        def eager(eng):
            depth = len(eng.sigma.order)
            while eng.pool and len(eng.sigma.order) == depth:
                EagerTwin.step(eng)

        got, calls = trail(DynamicGreedy.step)
        expected, eager_calls = trail(eager)
        assert got == expected
        assert calls <= eager_calls

    @PROPERTY_SETTINGS
    @given(engine_runs(0.3, 1.7))
    def test_mixed_updates_meet_guarantee(self, run):
        # an element that did not fit at start-up competes again once a
        # budget grows, so the bound holds against the final budgets' optimum
        inst, lam, updates = run
        eng = _engine_after(
            Instance(inst.ground, inst.constraints, inst.objective.clone()), lam, updates
        )
        if eng is None:
            return
        value = eng.finalize().value
        final = Instance(inst.ground, eng.cons, inst.objective.clone())
        opt_val, _ = brute_force_opt(final)
        alpha = brute_force_curvature(inst.objective.clone(), inst.ground.n)
        assert value >= guarantee_bound(lam, alpha) * opt_val - 1e-9

    @PROPERTY_SETTINGS
    @given(engine_runs(0.4, 1.0))
    def test_tightening_updates_match_reference(self, run):
        inst, lam, updates = run
        eng = _engine_after(inst, lam, updates)
        if eng is None:
            return
        eng.run_to_completion()
        scratch = reference_greedy(eng.obj, eng.cons, split_by_threshold(eng.cons, lam))
        assert scratch.order == eng.sigma.order


# ---------------------------------------------------------------------------
# the engine's contract, checked after every operation of random histories


class EagerTwin(DynamicGreedy):
    """The engine stepped by conftest.eager_greedy_step, which discards a
    negative-gain winner one scan at a time, and stepped eagerly by an
    unlimited run too."""

    def step(self):
        if self.pool:
            eager_greedy_step(self.obj, self.cons, self.sigma, self.pool)

    def run_to_completion(self, call_limit=None):
        while self.pool and (call_limit is None or self.obj.eval_count < call_limit):
            self.step()


@st.composite
def machine_cases(draw):
    """(instance, lam, whether from-scratch values tie as the prefix state
    does) over all four families. Instances are random, narrow-cost,
    integer or twin ones, and half are built at 0.3 of their budgets, so
    that loosening lets elements in that did not fit at start-up.

    Narrow costs lie in [1.5, 2] with budgets of k to 1.5k times the largest
    cost, so every element starts cheap. With lam < k, a budget cut can then
    push a prefix element out of the cheap set while the prefix still fits
    the budgets, so that only the cheap-set rule forces the pop."""
    family = draw(st.sampled_from(FAMILIES))
    kind = draw(st.sampled_from(("random", "narrow", "integer", "twin")))
    n, k = draw(st.integers(2, 8)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "twin":
        inst = twin_instance(rng, family, n // 2)
    elif kind == "integer":
        inst = integer_instance(rng, n, k, family)
    else:
        inst = random_instance(rng, n, k, family)
    if kind == "narrow":
        costs = rng.uniform(1.5, 2.0, size=(k, n))
        weights = k * costs.max(axis=1) * rng.uniform(1.0, 1.5, size=k)
        inst.constraints = KnapsackConstraints(costs, weights)
    if draw(st.booleans()):
        inst.constraints = inst.constraints.with_weights(0.3 * inst.constraints.weights)
    assume(inst.constraints.fits().any())
    lam = draw(st.sampled_from([1.0, float(inst.constraints.k)]))
    # integer kernels tie elements that are not twins, and the prefix state
    # and a from-scratch determinant may round such ties apart
    return inst, lam, kind != "integer" or family in ("modular", "cut")


def _bits(sigma):
    return [(value.hex(), cost.tobytes()) for value, cost in sigma.history]


def factors(low, high):
    """Per-knapsack budget factors; an update reads the first k."""
    return st.lists(st.floats(low, high), min_size=3, max_size=3)


class EngineMachine(RuleBasedStateMachine):
    """An engine and its eager twin, driven through the same steps, limited
    and unlimited runs, budget updates and finalize() calls. A step of the
    engine appends or ends the phase, where one of the twin's may discard:
    after the engine steps, the twin steps until it holds as many elements.

    After every rule, the engine's prefix, the value bits and cost bytes of
    every depth, equal the twin's, with no more oracle calls; the cost
    bytes are the prefix's cost columns added one by one, and feasible; the
    partition, the pool and v* are those of the current budgets, and the
    pool holds only cheap elements outside the prefix that fit on top of
    it; and, after
    any updates, a complete prefix is the one a from-scratch greedy under
    the current budgets builds. Each update keeps the depth that
    conftest.reference_restart_depth's loop finds, and under tightening no
    fewer elements than the chi rule."""

    @initialize(case=machine_cases())
    def build(self, case):
        self.inst, self.lam, self.ties_exact = case
        inst = self.inst
        self.eng, self.twin = self.engines = [
            cls(Instance(inst.ground, inst.constraints, inst.objective.clone()), self.lam)
            for cls in (DynamicGreedy, EagerTwin)
        ]
        self._check_pool_refilled()

    def _check_pool_refilled(self):
        taken, fits = set(self.eng.sigma.order), self.eng.cons.fits(self.eng.sigma.cost_acc)
        assert self.eng.pool == [e for e in self.eng.part.cheap if e not in taken and fits[e]]

    def _catch_up(self):
        while self.twin.pool and len(self.twin.sigma.order) < len(self.eng.sigma.order):
            self.twin.step()

    @rule()
    def step(self):
        self.eng.step()
        self._catch_up()

    @rule(calls=st.integers(0, 30))
    def limited_run(self, calls):
        # the memo answers some of the engine's scans and its pool holds
        # only what fits, so under one call limit it steps further than its
        # twin: the twin steps until it holds as many elements
        eng = self.eng
        limit = eng.obj.eval_count + calls
        eng.run_to_completion(limit)
        assert eng.obj.eval_count >= limit or not eng.pool
        self._catch_up()

    @rule()
    def unlimited_run(self):
        for eng in self.engines:
            eng.run_to_completion()
        assert self.eng.pool == self.twin.pool == []

    def _update(self, factors):
        factors = np.array(factors[: self.eng.cons.k])
        order, built = list(self.eng.sigma.order), _bits(self.eng.sigma)
        history, old = list(self.eng.sigma.history), (self.eng.cons, self.eng.part)
        weights = self.eng.cons.weights * factors
        for eng in self.engines:
            eng.apply_weights(weights)
        depth = len(self.eng.sigma.order)
        assert self.eng.sigma.order == order[:depth]
        assert _bits(self.eng.sigma) == built[: depth + 1]
        new = (self.eng.cons, self.eng.part)
        assert depth == reference_restart_depth(order, history, old, new,
                                                self.eng.singleton_values)
        self._check_pool_refilled()
        if (factors <= 1.0).all():
            # under tightening the paper's rule keeps the longest prefix of
            # at most chi elements in both cheap sets; this one keeps no less
            (old_cons, old_part), (new_cons, new_part) = old, new
            both = set(old_part.cheap).intersection(new_part.cheap)
            in_both = next((i for i, e in enumerate(order) if e not in both), len(order))
            assert depth >= min(in_both, chi(old_cons), chi(new_cons))

    @rule(factors=factors(0.4, 1.0))
    def tighten(self, factors):
        self._update(factors)

    @rule(factors=factors(1.0, 2.5))
    def loosen(self, factors):
        self._update(factors)

    @rule(factors=factors(0.3, 1.7))
    def mixed(self, factors):
        self._update(factors)

    @rule()
    def finalize(self):
        got, want = (eng.finalize() for eng in self.engines)
        assert (got.chosen, got.value.hex(), got.which, got.greedy_order) == (
            want.chosen, want.value.hex(), want.which, want.greedy_order)
        assert got.oracle_calls == self.eng.obj.eval_count <= want.oracle_calls
        assert self.eng.cons.is_feasible(got.chosen)
        now = Instance(self.inst.ground, self.eng.cons, self.eng.obj)
        assert check_guarantee(now, self.lam, got.value).passed

    @invariant()
    def prefix_matches_twin(self):
        assert self.eng.sigma.order == self.twin.sigma.order
        assert _bits(self.eng.sigma) == _bits(self.twin.sigma)
        assert self.eng.obj.eval_count <= self.twin.obj.eval_count

    @invariant()
    def costs_added_one_by_one_and_feasible(self):
        sigma, cons = self.eng.sigma, self.eng.cons
        cost = np.zeros(cons.k)
        assert len(sigma.history) == len(sigma.order) + 1
        for i, (_, built) in enumerate(sigma.history):
            assert built.tobytes() == cost.tobytes()
            if i < len(sigma.order):
                cost = cost + cons.costs[:, sigma.order[i]]
        assert cons.is_feasible_cost(sigma.cost_acc)

    @invariant()
    def state_of_the_current_budgets(self):
        eng = self.eng
        part = split_by_threshold(eng.cons, self.lam)
        assert eng.part == part
        assert set(eng.sigma.order) <= set(part.cheap)
        assert eng.pool == sorted(eng.pool)
        values, fitting = eng.singleton_values, sorted(part.cheap + part.expensive)
        assert set(fitting) <= set(values)
        numbers = [e for e in fitting if values[e] == values[e]]
        vstar = max(numbers, key=values.__getitem__, default=None)
        assert (eng.vstar, eng.vstar_value) == (vstar, 0.0 if vstar is None else values[vstar])

    @invariant()
    def pool_fits_on_top_of_prefix(self):
        eng = self.eng
        fits = eng.cons.fits(eng.sigma.cost_acc)
        assert set(eng.pool) <= set(eng.part.cheap) - set(eng.sigma.order)
        assert all(fits[e] for e in eng.pool)

    @invariant()
    def restart_exact(self):
        eng = self.eng
        if self.ties_exact and not eng.pool:
            assert eng.sigma.order == reference_greedy(eng.obj, eng.cons, eng.part).order


TestEngineMachine = EngineMachine.TestCase
TestEngineMachine.settings = settings(
    derandomize=True, database=None, deadline=None, max_examples=200, stateful_step_count=10
)
