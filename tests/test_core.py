import itertools

import numpy as np
import pytest

from knapgreedy import (
    DynamicGreedy,
    EmptyAfterReductionError,
    GroundSet,
    Instance,
    InvalidInstanceError,
    KnapsackConstraints,
    ModularObjective,
    brute_force_opt,
    check_guarantee,
    chi,
    lambda_greedy,
    reduce_instance,
    validate,
)
from knapgreedy.core import FEAS_TOL, SUBSET_CHUNK, _whole, subsets_by_size

from conftest import random_instance, random_objective, reference_chi, FAMILIES


def modular(values):
    return ModularObjective(values)


class TestSetCost:
    def test_empty(self):
        cons = KnapsackConstraints([[2, 2, 1, 1, 1]], [2])
        assert np.array_equal(cons.set_cost(set()), [0.0])

    def test_single_knapsack(self):
        cons = KnapsackConstraints([[2, 2, 1, 1, 1]], [2])
        assert np.array_equal(cons.set_cost({0, 2}), [3.0])

    def test_two_knapsacks(self):
        cons = KnapsackConstraints([[3, 2, 2], [1, 1, 1]], [9, 9])
        assert np.array_equal(cons.set_cost({0, 1, 2}), [7.0, 3.0])


class TestIsFeasibleCost:
    """The package's one budget comparison: a cost sum fits when each of its
    components is at most limit, for one vector or for a stack of them."""

    def test_at_the_limit_fits_and_one_ulp_above_does_not(self):
        cons = KnapsackConstraints([[1, 2], [1, 2], [1, 2]], [0.5, 3.0, 7.0])
        for i in range(cons.k):
            cost = np.zeros(cons.k)
            cost[i] = cons.limit[i]
            fits = cons.is_feasible_cost(cost)
            assert type(fits) is np.bool_ and fits
            cost[i] = np.nextafter(cons.limit[i], np.inf)
            assert not cons.is_feasible_cost(cost)

    def test_a_stack_gives_the_mask_of_its_vectors(self):
        rng = np.random.default_rng(7)
        cons = KnapsackConstraints(rng.uniform(0.0, 2.0, size=(3, 5)), [1.0, 2.0, 3.0])
        # each component one ulp below, at, or one ulp above its limit
        near = np.stack([np.nextafter(cons.limit, -np.inf), cons.limit,
                         np.nextafter(cons.limit, np.inf)])
        stack = near[rng.integers(0, 3, size=(4, 6, 3)), np.arange(3)]  # (d, m, k)
        mask = cons.is_feasible_cost(stack)
        assert mask.shape == (4, 6) and mask.any() and not mask.all()
        for idx in np.ndindex(*mask.shape):
            by_component = all(c <= w for c, w in zip(stack[idx].tolist(), cons.limit.tolist()))
            assert mask[idx] == cons.is_feasible_cost(stack[idx]) == by_component

    @pytest.mark.parametrize("costs, weights", [
        ([[2, 2, 1, 1, 1]], [2]),
        ([[2, 2, 1, 1, 1]], [3]),
        ([[1] * 7], [4]),
        ([[3, 2, 2], [1, 1, 1]], [5, 3]),
        (np.random.default_rng(3).uniform(0.0, 2.0, size=(3, 12)), [4.0, 6.0, 8.0]),
    ])
    def test_chi_counts_the_prefixes_that_fit_every_knapsack(self, costs, weights):
        cons = KnapsackConstraints(costs, weights)
        assert chi(cons) == reference_chi(cons)


class TestSubsetsBySize:
    @pytest.mark.parametrize("n", [15, 16])
    def test_chunks_follow_combinations(self, n):
        # C(15, 7) = 6,435 and C(16, 8) = 12,870 exceed SUBSET_CHUNK, so a
        # size spans several chunks there
        chunks = list(subsets_by_size(n))
        rows = [tuple(r) for chunk, _ in chunks for r in chunk.tolist()]
        expected = [c for s in range(1, n + 1) for c in itertools.combinations(range(n), s)]
        assert rows == expected
        assert max(len(chunk) for chunk, _ in chunks) == SUBSET_CHUNK
        for chunk, masks in chunks:
            assert chunk.dtype == np.intp and chunk.ndim == 2
            assert masks.tolist() == [sum(1 << e for e in r) for r in chunk.tolist()]


class TestValidate:
    def test_well_formed(self, worked_example):
        validate(worked_example)

    def test_zero_max_cost_element(self):
        inst = Instance(GroundSet(2), KnapsackConstraints([[1, 0]], [2]), modular([1, 1]))
        with pytest.raises(InvalidInstanceError, match="zero max-cost element"):
            validate(inst)

    def test_dimension_mismatch(self):
        inst = Instance(GroundSet(3), KnapsackConstraints([[1, 1]], [2]), modular([1, 1, 1]))
        with pytest.raises(InvalidInstanceError, match="dimension mismatch"):
            validate(inst)

    def test_negative_cost(self):
        inst = Instance(GroundSet(2), KnapsackConstraints([[1, -1]], [2]), modular([1, 1]))
        with pytest.raises(InvalidInstanceError, match="negative cost"):
            validate(inst)

    def test_empty_ground_set(self):
        with pytest.raises(InvalidInstanceError, match="at least one element"):
            GroundSet(0)

    @pytest.mark.parametrize("costs", [[1.0, 2.0], [[[1.0]]]], ids=["vector", "3-d"])
    def test_costs_that_are_not_a_matrix(self, costs):
        with pytest.raises(InvalidInstanceError, match="costs must be a k x n matrix"):
            KnapsackConstraints(costs, [2])

    def test_negative_weight(self):
        # budgets are checked where they are built, before validate can run
        with pytest.raises(InvalidInstanceError, match="negative weight"):
            KnapsackConstraints([[1, 1]], [-2])

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("size", [2, 4])
    @pytest.mark.parametrize("entry", ["engine", "lambda_greedy", "check_guarantee", "brute_force_opt"])
    def test_objective_of_another_size(self, family, size, entry):
        # too small used to raise IndexError mid-solve; too large was solved
        # silently on the first 3 elements
        obj = random_objective(np.random.default_rng(size), size, family)
        inst = Instance(GroundSet(3), KnapsackConstraints([[1, 1, 1]], [2.0]), obj)
        run = {
            "engine": lambda: DynamicGreedy(inst, 1.0),
            "lambda_greedy": lambda: lambda_greedy(inst, 1.0),
            "check_guarantee": lambda: check_guarantee(inst, 1.0, 0.0),
            "brute_force_opt": lambda: brute_force_opt(inst),
        }[entry]
        with pytest.raises(InvalidInstanceError, match="objective has size %d but n=3" % size):
            run()
        assert obj.eval_count == 0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_cost(self, bad):
        # unchecked, a NaN cost compares false everywhere and the element is dropped
        inst = Instance(GroundSet(2), KnapsackConstraints([[1, bad]], [2]), modular([1, 1]))
        with pytest.raises(InvalidInstanceError, match="non-finite cost for element 1 in knap"):
            validate(inst)
        with pytest.raises(InvalidInstanceError, match="non-finite cost"):
            lambda_greedy(inst, 1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_weight(self, bad):
        with pytest.raises(InvalidInstanceError, match="non-finite weight for knapsack 1"):
            KnapsackConstraints([[1, 1], [1, 1]], [2, bad])


class TestBudgetGate:
    """A budget vector is checked where it is taken: at construction and in
    with_weights, the first offending knapsack named, non-finite before
    negative."""

    COSTS = [[1, 1], [1, 1], [1, 1]]

    @pytest.mark.parametrize("weights, message", [
        ([2, float("nan"), 2], "non-finite weight for knapsack 1"),
        ([2, 2, float("inf")], "non-finite weight for knapsack 2"),
        ([2, -1e-12, 2], "negative weight for knapsack 1"),
        ([-1, float("nan"), 2], "negative weight for knapsack 0"),
        ([2, float("-inf"), 2], "non-finite weight for knapsack 1"),
    ])
    def test_bad_budget_raises_at_construction_and_in_with_weights(self, weights, message):
        with pytest.raises(InvalidInstanceError, match=message):
            KnapsackConstraints(self.COSTS, weights)
        cons = KnapsackConstraints(self.COSTS, [2, 2, 2])
        with pytest.raises(InvalidInstanceError, match=message):
            cons.with_weights(weights)
        assert cons.weights.tolist() == [2.0, 2.0, 2.0]

    def test_length_checked_first(self):
        with pytest.raises(InvalidInstanceError, match="weights length 2, costs rows 3"):
            KnapsackConstraints(self.COSTS, [float("nan"), 2])

    def test_limit_follows_the_weights(self):
        cons = KnapsackConstraints(self.COSTS, [2, 0, 1])
        assert cons.limit.tolist() == [2 + FEAS_TOL, FEAS_TOL, 1 + FEAS_TOL]
        assert cons.with_weights([1, 1, 1]).limit.tolist() == [1 + FEAS_TOL] * 3


class TestWhole:
    """The reader of every whole number a file gives: n, k, at_call, arc
    endpoints and partition labels."""

    @pytest.mark.parametrize("x", [2, 2.0, -3.0, np.int64(2), np.float64(2.0), np.float32(2.0)])
    def test_a_whole_number_reads_as_an_int(self, x):
        assert _whole(x, "n") == int(x)
        assert type(_whole(x, "n")) is int

    @pytest.mark.parametrize("x", [2.5, 1.9, float("inf"), float("nan"), np.float32(2.5), "2", None, [2], True])
    def test_anything_else_is_named(self, x):
        # int() would truncate 2.5 and 1.9, and read "2" as 2
        with pytest.raises(InvalidInstanceError, match=r"^n must be a whole number, got "):
            _whole(x, "n")


class TestReduce:
    def test_all_feasible_identity(self, worked_example):
        assert reduce_instance(worked_example) == ([0, 1, 2, 3, 4], [])

    def test_removes_heavy_singleton(self):
        inst = Instance(GroundSet(3), KnapsackConstraints([[5, 1, 3]], [2]), modular([1, 1, 1]))
        assert reduce_instance(inst) == ([1], [0, 2])

    def test_empty_after_reduction(self):
        inst = Instance(
            GroundSet(2), KnapsackConstraints([[1, 3], [3, 1]], [2, 2]), modular([1, 1])
        )
        with pytest.raises(EmptyAfterReductionError):
            reduce_instance(inst)

    def test_idempotent(self):
        # the kept elements partition the ground set with the removed ones,
        # and restricted to the kept columns nothing more is removed
        rng = np.random.default_rng(5)
        for _ in range(20):
            inst = random_instance(rng, 8, 2, "modular")
            try:
                kept, removed = reduce_instance(inst)
            except EmptyAfterReductionError:
                continue
            assert sorted(kept + removed) == list(range(8))
            assert kept == sorted(kept) and removed == sorted(removed)
            cons = KnapsackConstraints(inst.constraints.costs[:, kept], inst.constraints.weights)
            sub = Instance(GroundSet(len(kept)), cons, inst.objective)
            assert reduce_instance(sub) == (list(range(len(kept))), [])


class TestOracleAccounting:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_solver_reports_exact_call_total(self, family):
        rng = np.random.default_rng(11)
        inst = random_instance(rng, 7, 2, family)
        before = inst.objective.eval_count
        result = lambda_greedy(inst, 1.5)
        assert inst.objective.eval_count - before == result.oracle_calls


class TestExports:
    def test_star_import_gives_the_public_names_and_no_module(self):
        import knapgreedy

        names = {}
        exec("from knapgreedy import *", names)
        names.pop("__builtins__")
        assert sorted(names) == knapgreedy.__all__
        assert len(names) == 41
        assert all(value.__module__.startswith("knapgreedy.") for value in names.values())
