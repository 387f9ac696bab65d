import itertools
from unittest import mock

import numpy as np
import pytest

from knapgreedy import (
    DirectedCutObjective,
    DppLogDetObjective,
    DynamicGreedy,
    EmptyAfterReductionError,
    EntropyObjective,
    GroundSet,
    Instance,
    InvalidInstanceError,
    KnapsackConstraints,
    ModularObjective,
    Solution,
    brute_force_curvature,
    brute_force_opt,
    chi,
    complement_search,
    greedy_phase,
    guarantee_bound,
    lambda_greedy,
    reduce_instance,
    split_by_threshold,
)
from knapgreedy.core import FEAS_TOL
from knapgreedy.solver import Partition, Reader, best_of, best_singleton

from conftest import (
    FAMILIES,
    eager_greedy_calls,
    eager_greedy_step,
    integer_instance,
    random_instance,
    random_objective,
    random_spd,
    reference_chi,
    reference_complement,
    reference_greedy,
    twin_instance,
)


def lazy_case(rng, family, trial):
    """An instance on which lazy evaluation has shortcuts to get wrong:
    integer data with exact ties, twins, scaled kernels or signed values
    for negative gains, or tightened budgets that some elements do not fit
    alone; with k = 1 or 2."""
    kind = trial % 4
    k = int(rng.integers(1, 3))
    if kind == 0:
        return integer_instance(rng, int(rng.integers(2, 16)), k, family)
    if kind == 1:
        return twin_instance(rng, family, int(rng.integers(2, 8)))
    n = int(rng.integers(3, 21))
    inst = random_instance(rng, n, k, family)
    if kind == 2:
        obj = inst.objective
        if family == "modular":
            obj = ModularObjective(rng.uniform(-1.0, 2.0, n))
        elif family == "dpp":
            obj = DppLogDetObjective(0.5 * random_spd(rng, n))
        elif family == "entropy":
            obj = EntropyObjective(0.05 * random_spd(rng, n))
        return Instance(inst.ground, inst.constraints, obj)
    # element 0 always fits, some others do not
    weights = np.maximum(np.quantile(inst.constraints.costs, 0.8, axis=1), inst.constraints.costs[:, 0])
    return Instance(inst.ground, inst.constraints.with_weights(weights), inst.objective)


def with_unfit_elements(rng, inst, m):
    """inst with m elements interleaved that do not fit the budgets alone,
    each costing more than its budget in one knapsack, and an objective
    whose values on the original elements are unchanged. Returns the new
    instance and the positions of the original elements in it."""
    n, cons, obj = inst.ground.n, inst.constraints, inst.objective
    N = n + m
    extra = np.sort(rng.choice(N, m, replace=False))
    pos = np.setdiff1d(np.arange(N), extra)
    costs = np.empty((cons.k, N))
    costs[:, pos] = cons.costs
    costs[:, extra] = rng.uniform(0.2, 2.0, size=(cons.k, m))
    over = rng.integers(0, cons.k, size=m)
    costs[over, extra] = cons.weights[over] * rng.uniform(1.01, 2.0, size=m) + 0.01
    if isinstance(obj, ModularObjective):
        values = np.empty(N)
        values[pos] = obj.singleton_values
        values[extra] = rng.uniform(0.0, 5.0, m)
        new = ModularObjective(values)
    elif isinstance(obj, DirectedCutObjective):
        arcs = [(pos[u], pos[v], w) for u, v, w in obj.arcs]
        arcs += [(a, b, 1.0) for a in extra for b in extra if a != b and rng.random() < 0.5]
        new = DirectedCutObjective(N, arcs)
    else:
        # [K, KX; X'K, X'KX + I] is positive definite with K as its block
        K = obj.L if isinstance(obj, DppLogDetObjective) else obj.Sigma
        X = rng.normal(size=(n, m))
        KX = K @ X
        C = X.T @ KX
        big = np.empty((N, N))
        big[np.ix_(pos, pos)] = K
        big[np.ix_(pos, extra)] = KX
        big[np.ix_(extra, pos)] = KX.T
        big[np.ix_(extra, extra)] = (C + C.T) / 2 + np.eye(m)
        new = type(obj)(big)
    return Instance(GroundSet(N), KnapsackConstraints(costs, cons.weights), new), pos


def lazy_phase(obj, cons, part):
    """greedy_phase from the empty prefix, seeded by best_singleton's scan
    of the cheap set, whose calls count on obj."""
    values = {}
    best_singleton(obj, part.cheap, values)
    return greedy_phase(obj, cons, part, {(): values}, Solution(cons.k))


def eager_phase(obj, cons, part):
    """The greedy phase as a loop over conftest.eager_greedy_step."""
    sigma = Solution(cons.k)
    pool = list(part.cheap)
    while pool:
        eager_greedy_step(obj, cons, sigma, pool)
    return sigma


class TestChi:
    def test_worked_example(self):
        costs = [[2, 2, 1, 1, 1]]
        assert chi(KnapsackConstraints(costs, [2])) == 1
        assert chi(KnapsackConstraints(costs, [3])) == 1

    def test_unit_costs(self):
        cons = KnapsackConstraints([[1] * 7], [4])
        assert chi(cons) == 4

    def test_two_knapsacks(self):
        cons = KnapsackConstraints([[3, 2, 2], [1, 1, 1]], [5, 3])
        assert chi(cons) == 2

    def test_matches_reference_loop(self):
        # integer costs make budgets that equal a prefix sum exactly common
        rng = np.random.default_rng(22)
        for _ in range(2000):
            k, n = int(rng.integers(1, 4)), int(rng.integers(1, 15))
            if rng.random() < 0.5:
                costs = rng.integers(0, 5, size=(k, n)).astype(float)
                weights = rng.integers(0, 5 * n, size=k).astype(float)
            else:
                # a budget at a prefix sum, or just inside or outside its
                # FEAS_TOL slack
                costs = rng.uniform(0.0, 2.0, size=(k, n))
                prefix = np.cumsum(-np.sort(-costs, axis=1), axis=1)
                weights = prefix[np.arange(k), rng.integers(0, n, size=k)]
                weights = weights + rng.choice([-2.0, -0.5, 0.0, 0.5], size=k) * FEAS_TOL
            cons = KnapsackConstraints(costs, weights)
            assert chi(cons) == reference_chi(cons)

    def test_soundness_exhaustive(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            n = int(rng.integers(3, 11))
            k = int(rng.integers(1, 4))
            costs = rng.uniform(0.1, 2.0, size=(k, n))
            weights = rng.uniform(0.5, 0.7 * costs.sum(axis=1))
            cons = KnapsackConstraints(costs, weights)
            c = chi(cons)
            for size in range(c + 1):
                for S in itertools.combinations(range(n), size):
                    assert cons.is_feasible(S)
            if c < n:
                infeasible = [
                    S
                    for S in itertools.combinations(range(n), c + 1)
                    if not cons.is_feasible(S)
                ]
                assert infeasible


class TestSplit:
    def test_lambda_k_everything_cheap_after_reduction(self, worked_example):
        part = split_by_threshold(worked_example.constraints, 1.0)  # k = 1
        assert part.cheap == (0, 1, 2, 3, 4)
        assert part.expensive == ()

    def test_expensive_under_tight_threshold(self):
        cons = KnapsackConstraints([[3], [1]], [4, 4])
        assert split_by_threshold(cons, 1.0).expensive == (0,)
        assert split_by_threshold(cons, 2.0).cheap == (0,)

    def test_unfit_element_is_never_cheap(self):
        # lam = k = 3: 3 * 0.1 / 3 rounds one ulp above 0.1, and element 0
        # costs more than the budget but no more than that threshold
        c = 3.0 * 0.1 / 3 + FEAS_TOL
        cons = KnapsackConstraints([[c, 0.01]] * 3, [0.1] * 3)
        assert cons.fits().tolist() == [False, True]
        assert split_by_threshold(cons, 3.0) == Partition((1,), ())

    def test_matches_per_element_loop(self):
        # the per-element loop the vectorized masks replaced, as the
        # reference; integer costs put many elements exactly on a threshold,
        # and a base of the slack limit less the last element's costs puts
        # sums on top of it exactly on the slack
        rng = np.random.default_rng(61)
        landed = 0
        for _ in range(50):
            k, n = int(rng.integers(1, 4)), int(rng.integers(1, 30))
            costs = rng.integers(0, 5, size=(k, n)).astype(float)
            weights = rng.integers(1, 10, size=k).astype(float)
            cons = KnapsackConstraints(costs, weights)
            fits = [bool(np.all(costs[:, e] <= weights + FEAS_TOL)) for e in range(n)]
            assert cons.fits().tolist() == fits
            base = weights + FEAS_TOL - costs[:, n - 1]
            on_top = [bool(np.all(base + costs[:, e] <= weights + FEAS_TOL)) for e in range(n)]
            assert cons.fits(base).tolist() == on_top
            landed += sum((base + costs[:, e] == weights + FEAS_TOL).all() for e in range(n))
            for lam in (1.0, float(k)):
                bounds = lam * weights / k + FEAS_TOL
                cheap = tuple(e for e in range(n) if np.all(costs[:, e] <= bounds))
                part = split_by_threshold(cons, lam)
                assert part.cheap == cheap
                # an element that does not fit alone is in neither part
                assert part.expensive == tuple(e for e in range(n) if fits[e] and e not in cheap)
        assert landed > 50


class TestGreedyPhase:
    def test_worked_example_sequence(self, worked_example):
        part = split_by_threshold(worked_example.constraints, 1.0)
        sigma = lazy_phase(worked_example.objective, worked_example.constraints, part)
        assert sigma.order == [4, 0]
        assert sigma.value == 3.25

    def test_empty_cheap_set(self, worked_example):
        part = Partition(cheap=(), expensive=(0, 1, 2, 3, 4))
        sigma = lazy_phase(worked_example.objective, worked_example.constraints, part)
        assert sigma.order == []

    def test_monotone_modular_sorts_by_value(self):
        values = [3.0, 1.0, 4.0, 1.5]
        cons = KnapsackConstraints([[1, 1, 1, 1]], [4])
        obj = ModularObjective(values)
        sigma = lazy_phase(obj, cons, split_by_threshold(cons, 1.0))
        assert sigma.order == [2, 0, 3, 1]

    def test_prefix_values_nondecreasing(self):
        rng = np.random.default_rng(23)
        for family in FAMILIES:
            inst = random_instance(rng, 8, 2, family)
            part = split_by_threshold(inst.constraints, 2.0)
            obj = inst.objective
            sigma_obj = obj.clone()
            sigma = lazy_phase(sigma_obj, inst.constraints, part)
            prev = 0.0
            running = []
            for e in sigma.order:
                running.append(e)
                v = obj.clone().value(running)
                assert v >= prev - 1e-9
                prev = v


    def test_negative_gain_winner_ends_phase(self):
        # independent entropy: an element of variance 0.02 has gain
        # 1.419 + ln(0.02) / 2 < 0. The singleton scan evaluates all 5 and
        # the first pick none; element 2's stale bound is exact again at
        # depth 1 (1 call), and at depth 2 the top, element 1, has a stale
        # bound that is already negative, which ends the phase with no
        # call: 6 calls. The eager greedy discards the last three one scan
        # at a time
        cons = KnapsackConstraints([[1.0] * 5], [5.0])
        obj = EntropyObjective(np.diag([1.0, 0.02, 1.0, 0.02, 0.02]))
        part = split_by_threshold(cons, 1.0)
        sigma = lazy_phase(obj, cons, part)
        assert sigma.order == [0, 2] == reference_greedy(obj, cons, part).order
        assert obj.eval_count == 6 < eager_greedy_calls(5)

    def test_sum_exactly_on_the_slack_still_fits(self):
        # the fits mask compares as Solution.take does, <= limit: 0.5 +
        # (limit - 0.5) lands exactly on weights + FEAS_TOL, so element 1
        # is evaluated and taken after 0
        cons = KnapsackConstraints([[0.5, 1.0 + FEAS_TOL - 0.5]], [1.0])
        assert cons.costs[0, 0] + cons.costs[0, 1] == cons.limit[0]
        obj = ModularObjective([2.0, 1.0])
        part = split_by_threshold(cons, 1.0)
        sigma = lazy_phase(obj, cons, part)
        assert sigma.order == [0, 1] == reference_greedy(obj, cons, part).order
        assert obj.eval_count == 3

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_reference_with_no_more_calls(self, family):
        # kernels scaled down and modular values of both signs, so that
        # negative gains are common in every family
        rng = np.random.default_rng(24)
        for _ in range(15):
            n, k = int(rng.integers(3, 21)), int(rng.integers(1, 4))
            inst = random_instance(rng, n, k, family)
            obj = inst.objective
            if family == "modular":
                obj = ModularObjective(rng.uniform(-1.0, 2.0, n))
            elif family == "dpp":
                obj = DppLogDetObjective(0.5 * random_spd(rng, n))
            elif family == "entropy":
                obj = EntropyObjective(0.05 * random_spd(rng, n))
            part = split_by_threshold(inst.constraints, float(rng.choice([1.0, k])))
            sigma = lazy_phase(obj, inst.constraints, part)
            ref = reference_greedy(obj, inst.constraints, part)
            assert (sigma.order, sigma.value) == (ref.order, pytest.approx(ref.value))
            assert obj.eval_count <= eager_greedy_calls(len(part.cheap))

    def test_seeded_first_pick_makes_no_call(self):
        # singleton values are exact densities at depth 0, so the first pick
        # is free; modular gains never shrink, so each later pick
        # re-evaluates only the top: 0 + 1 + 1 + 1 calls
        values = [3.0, 1.0, 4.0, 1.5]
        cons = KnapsackConstraints([[1, 1, 1, 1]], [4])
        obj = ModularObjective(values)
        part = split_by_threshold(cons, 1.0)
        seeds = {}
        vstar, vstar_val = best_singleton(obj, range(4), seeds)
        assert (vstar, vstar_val, seeds) == (2, 4.0, dict(enumerate(values)))
        assert obj.eval_count == 4
        assert greedy_phase(obj, cons, part, {(): seeds}, Solution(cons.k)).order == [2, 0, 3, 1]
        assert obj.eval_count == 4 + 3

    def test_discarded_winner_costs_no_call(self):
        # element 0 is the densest but does not fit; once it is discarded,
        # element 1's density, computed at the same depth, is still exact
        cons = KnapsackConstraints([[4.0, 1.0]], [3.0])
        obj = ModularObjective([10.0, 1.0])
        part = Partition(cheap=(0, 1), expensive=())
        sigma = lazy_phase(obj, cons, part)
        assert sigma.order == [1] == reference_greedy(obj, cons, part).order
        assert obj.eval_count == 2 < eager_greedy_calls(2)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_lazy_matches_eager_and_reference(self, family):
        # the eager loop's order and value bit for bit, the standalone
        # reference's order, and no more calls
        rng = np.random.default_rng(31)
        for trial in range(48):
            inst = lazy_case(rng, family, trial)
            cons, n = inst.constraints, inst.ground.n
            if trial % 3 == 0:
                part = Partition(cheap=tuple(range(n)), expensive=())
            else:
                part = split_by_threshold(cons, float(rng.choice([1.0, cons.k])))
            eager_obj = inst.objective.clone()
            eager = eager_phase(eager_obj, cons, part)
            if trial % 4 or family in ("modular", "cut"):
                # integer kernels tie elements that are not twins, and the
                # prefix state and a from-scratch determinant may round such
                # ties apart; the eager loop shares the prefix state
                ref = reference_greedy(inst.objective, cons, part)
                assert eager.order == ref.order
            assert eager_obj.eval_count <= eager_greedy_calls(len(part.cheap))
            obj = inst.objective.clone()
            seeds = {}
            best_singleton(obj, range(n), seeds)
            start = obj.eval_count
            sigma = greedy_phase(obj, cons, part, {(): seeds}, Solution(cons.k))
            assert (sigma.order, sigma.value) == (eager.order, eager.value)
            assert np.array_equal(sigma.cost_acc, eager.cost_acc)
            assert obj.eval_count - start <= eager_obj.eval_count

    def test_gain_rounded_above_stale_bound(self):
        # In the fixed cases elements 1 and 2 differ by one ulp, or sit just
        # below one multiple of the ulp of f({0}) = 1e6: both gains over {0}
        # round to the same value, above element 1's singleton bound, so
        # the eager scan ties them and takes element 1, where taking element
        # 2 once it is exact gives [0, 2, 1]. The random cases put values a
        # fraction of an ulp of a large first element apart, so that gains
        # over it round onto a few values, up or down.
        u = np.spacing(1e6)
        m = round(0.1 / u)
        cases = [([1.0, 0.1, np.nextafter(0.1, 1)], [[1, 1, 1]]),
                 ([1e6, (m - 0.3) * u, (m - 0.2) * u], [[1, 1, 1]])]
        rng = np.random.default_rng(33)
        for _ in range(60):
            n = int(rng.integers(3, 12))
            base = float(rng.choice([1.0, 1e3, 1e6]))
            values = (rng.integers(1, 4, n) * 1000 + rng.uniform(-0.5, 0.5, n)) * np.spacing(base)
            values[0] = base
            cases.append((values, rng.integers(1, 3, size=(1, n)).astype(float)))
        for i, (values, costs) in enumerate(cases):
            n = len(values)
            cons = KnapsackConstraints(costs, [0.7 * np.sum(costs)] if i >= 2 else [3])
            part = Partition(cheap=tuple(range(n)), expensive=())
            eager_obj = ModularObjective(values)
            eager = eager_phase(eager_obj, cons, part)
            if i < 2:
                assert values[1] < values[2] and eager.order == [0, 1, 2]
            obj = ModularObjective(values)
            seeds = {}
            best_singleton(obj, range(n), seeds)
            start = obj.eval_count
            sigma = greedy_phase(obj, cons, part, {(): seeds}, Solution(cons.k))
            assert (sigma.order, sigma.value) == (eager.order, eager.value)
            assert obj.eval_count - start <= eager_obj.eval_count

    def test_nan_density_never_appended(self):
        # every set holding a NaN-valued element evaluates to NaN; such a
        # density sorts as -inf, so the order is the reference's, in which
        # a NaN winner is discarded
        rng = np.random.default_rng(32)
        for _ in range(40):
            n = int(rng.integers(3, 25))
            values = rng.integers(-1, 5, n).astype(float)
            values[rng.random(n) < 0.3] = np.nan
            costs = rng.integers(1, 4, size=(1, n)).astype(float)
            cons = KnapsackConstraints(costs, [0.6 * costs.sum()])
            part = Partition(cheap=tuple(range(n)), expensive=())
            ref = reference_greedy(ModularObjective(values), cons, part)
            sigma = lazy_phase(ModularObjective(values), cons, part)
            assert sigma.order == ref.order
            assert not np.isnan(values[sigma.order]).any()
            assert sigma.value == pytest.approx(ref.value)


def _hex(values):
    return {e: v.hex() for e, v in values.items()}


class TestReader:
    """Reader(obj, values, order): f(order + [e]) read from values, the
    objective following order at the first miss, one stored call per miss."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_follows_its_prefix_at_the_first_miss(self, family):
        # the objective follows a disjoint prefix after the reader is made;
        # its answers still have the bits of calls on top of order, which
        # from-scratch values (a reader that never follows) do not always
        rng = np.random.default_rng(5)
        apart = 0
        for _ in range(12):
            obj = random_objective(rng, 6, family)
            order = tuple(rng.permutation(6)[:rng.integers(1, 4)].tolist())
            rest = [e for e in range(6) if e not in order]
            ref = obj.clone()
            ref.follow(order)
            want = {e: ref.value(order + (e,)) for e in rest}
            scratch = {e: obj._value(frozenset(order + (e,))) for e in rest}
            reader = Reader(obj, {}, order)
            obj.follow(rest[:2])
            got = {rest[0]: reader.read(rest[0])}
            got.update(zip(rest[1:], reader.read_all(rest[1:])))
            assert _hex(got) == _hex(want)
            apart += _hex(scratch) != _hex(want)
        assert apart

    @pytest.mark.parametrize("family", FAMILIES)
    def test_one_call_per_miss_and_none_per_hit(self, family):
        obj = random_objective(np.random.default_rng(2), 6, family)
        values = {4: 0.25}  # a stored answer is returned as it is
        reader = Reader(obj, values, (1,))
        assert (reader.read(4), reader.read_all([4]), obj.eval_count) == (0.25, [0.25], 0)
        assert obj._prefix is None  # a hit does not follow either
        reader.read(2)
        reader.read(2)
        assert obj.eval_count == 1
        got = reader.read_all([0, 2, 3, 4, 5])
        assert (got, obj.eval_count) == ([values[e] for e in (0, 2, 3, 4, 5)], 4)
        assert reader.read_all([5, 3, 0]) == [values[e] for e in (5, 3, 0)]
        assert (sorted(values), obj.eval_count) == ([0, 2, 3, 4, 5], 4)

    @pytest.mark.parametrize("family, seed, apart", [
        ("modular", 0, False), ("cut", 8, True), ("dpp", 0, True), ("entropy", 4, True),
    ])
    def test_stores_the_bits_of_a_fresh_reader(self, family, seed, apart):
        # the objective has made calls on top of [0, 2], the same set in
        # another order, whose values round apart from [2, 0]'s on these
        # kernels (apart); a reader on [2, 0] stores what a fresh one reads
        obj = random_objective(np.random.default_rng(seed), 6, family)
        fresh_obj = obj.clone()
        other = Reader(obj, {}, (0, 2))
        other.read_all([1, 3, 4, 5])
        values = {}
        reader = Reader(obj, values, (2, 0))
        reader.read(3)
        reader.read_all([1, 4, 5])
        fresh = {}
        Reader(fresh_obj, fresh, (2, 0)).read_all([1, 3, 4, 5])
        assert _hex(values) == _hex(fresh)
        assert (_hex(other.values) != _hex(values)) == apart


class TestBestSingleton:
    def test_evaluates_only_what_is_missing(self):
        obj = ModularObjective([1.0, 4.0, 2.0, 4.0])
        values = {1: 4.0, 3: 4.0}
        assert best_singleton(obj, [0, 1, 2, 3], values) == (1, 4.0)
        assert obj.eval_count == 2
        assert values == {0: 1.0, 1: 4.0, 2: 2.0, 3: 4.0}

    def test_empty_elements(self):
        obj = ModularObjective([1.0])
        assert best_singleton(obj, [], {}) == (None, 0.0)
        assert obj.eval_count == 0

    def test_full_cache_keeps_the_followed_prefix(self):
        rng = np.random.default_rng(11)
        obj = DppLogDetObjective(0.5 * random_spd(rng, 6))
        values = {e: obj._value(frozenset([e])) for e in range(6)}
        obj.follow([4, 1])
        best = max(range(6), key=values.__getitem__)
        assert best_singleton(obj, range(6), values) == (best, values[best])
        assert obj.eval_count == 0
        assert obj._prefix.order == [4, 1]


class TestComplementSearch:
    def test_empty_expensive(self, worked_example):
        part = Partition(cheap=(0, 1), expensive=())
        s, v = complement_search(worked_example.objective, worked_example.constraints, part, {})
        assert s == frozenset() and v == 0.0

    def test_pairwise_infeasible(self):
        cons = KnapsackConstraints([[6, 7]], [10])
        obj = ModularObjective([5.0, 6.0])
        part = Partition(cheap=(), expensive=(0, 1))
        s, v = complement_search(obj, cons, part, {})
        assert s == frozenset({1}) and v == 6.0

    def test_matches_full_subset_scan(self):
        rng = np.random.default_rng(25)
        inst = random_instance(rng, 6, 2, "cut")
        part = Partition(cheap=(), expensive=tuple(range(6)))
        s, v = complement_search(inst.objective.clone(), inst.constraints, part, {})
        best, best_set = 0.0, frozenset()
        for mask in range(1, 1 << 6):
            S = [e for e in range(6) if mask >> e & 1]
            if inst.constraints.is_feasible(S):
                value = inst.objective.clone().value(S)
                if value > best:
                    best, best_set = value, frozenset(S)
        assert v == pytest.approx(best)
        assert s == best_set

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_exhaustive_reference(self, family):
        # the same set and value as the exhaustive search, ties included,
        # with no more oracle calls
        rng = np.random.default_rng(26)
        for trial in range(40):
            if trial % 4 == 3:
                inst = twin_instance(rng, family, int(rng.integers(2, 7)))
            else:
                inst = integer_instance(rng, int(rng.integers(1, 13)), int(rng.integers(1, 3)), family)
            part = Partition(cheap=(), expensive=tuple(range(inst.ground.n)))
            bb_obj, ref_obj = inst.objective.clone(), inst.objective.clone()
            got = complement_search(bb_obj, inst.constraints, part, {})
            expected = reference_complement(ref_obj, inst.constraints, part)
            assert got == expected
            assert bb_obj.eval_count <= ref_obj.eval_count

    def test_tie_inside_a_subtree_whose_bound_equals_the_best(self):
        # {0, 1} and {1} both have value 2; the exhaustive preorder finds
        # {0, 1} first. Child 0's bound 0 + 2 equals the best so far, found
        # at child 1, so its subtree must still be entered.
        cons = KnapsackConstraints([[1.0, 1.0]], [2.0])
        obj = ModularObjective([0.0, 2.0])
        part = Partition(cheap=(), expensive=(0, 1))
        assert complement_search(obj.clone(), cons, part, {}) == (frozenset({0, 1}), 2.0)
        assert reference_complement(obj.clone(), cons, part) == (frozenset({0, 1}), 2.0)

    def test_heavy_tail_prunes(self):
        # a DPP whose elements each take a tenth to two fifths of the budget,
        # with qualities that make some gains negative: the same answer as
        # the exhaustive search with strictly fewer calls
        rng = np.random.default_rng(28)
        n, k = 16, 2
        cons = KnapsackConstraints(rng.uniform(0.1, 0.4, size=(k, n)), [1.0] * k)
        q = rng.uniform(0.5, 2.0, n)
        obj = DppLogDetObjective(0.3 * q[:, None] * random_spd(rng, n) * q[None, :])
        part = Partition(cheap=(), expensive=tuple(range(n)))
        bb_obj, ref_obj = obj.clone(), obj.clone()
        assert complement_search(bb_obj, cons, part, {}) == reference_complement(ref_obj, cons, part)
        assert bb_obj.eval_count < ref_obj.eval_count

    @pytest.mark.parametrize("family", FAMILIES)
    def test_floor_keeps_every_answer_above_it(self, family):
        # above the floor the same set as the exhaustive search, ties
        # included; at or below it some set no better than the floor
        rng = np.random.default_rng(31)
        for trial in range(40):
            if trial % 4 == 3:
                inst = twin_instance(rng, family, int(rng.integers(2, 7)))
            else:
                inst = integer_instance(rng, int(rng.integers(1, 13)), int(rng.integers(1, 3)), family)
            part = Partition(cheap=(), expensive=tuple(range(inst.ground.n)))
            plain_obj = inst.objective.clone()
            expected = complement_search(plain_obj, inst.constraints, part, {})
            for floor in (expected[1] - 1.0, expected[1] - 1e-9, expected[1], expected[1] + 1.0):
                floored_obj = inst.objective.clone()
                got_set, got_val = complement_search(floored_obj, inst.constraints, part, {}, floor)
                if expected[1] > floor:
                    assert (got_set, got_val) == expected
                else:
                    assert got_val <= floor
                    assert inst.constraints.is_feasible(got_set)
                    assert got_val == pytest.approx(inst.objective._value(got_set))
                assert floored_obj.eval_count <= plain_obj.eval_count

    @pytest.mark.parametrize("family", FAMILIES)
    def test_root_reads_cached_singletons(self, family):
        # the root's children are the singletons: a cached f({e}) costs no
        # call, a missing one is evaluated once and stored, and the answer
        # is that of a search with an empty cache
        rng = np.random.default_rng(53)
        for trial in range(10):
            inst = integer_instance(rng, int(rng.integers(2, 11)), 2, family)
            cons, n = inst.constraints, inst.ground.n
            part = Partition(cheap=(), expensive=tuple(range(n)))
            cached = {}
            best_singleton(inst.objective.clone(), list(range(0, n, 2)), cached)
            cold_obj, warm_obj = inst.objective.clone(), inst.objective.clone()
            cold = complement_search(cold_obj, cons, part, {})
            values = dict(cached)
            with mock.patch.object(warm_obj, "value", wraps=warm_obj.value) as value:
                warm = complement_search(warm_obj, cons, part, values)
            assert warm == cold
            singletons = [min(S) for (S,), _ in value.call_args_list if len(S) == 1]
            assert singletons == list(range(1, n, 2))
            assert warm_obj.eval_count == cold_obj.eval_count - len(cached)
            assert values.keys() == set(range(n)) and values.items() >= cached.items()

    def test_large_complement_warns(self):
        n = 30
        cons = KnapsackConstraints([[1.0] * n], [0.5])
        obj = ModularObjective([1.0] * n)
        part = Partition(cheap=(), expensive=tuple(range(n)))
        with pytest.warns(RuntimeWarning, match="complement too large"):
            complement_search(obj, cons, part, {})


class TestEvaluatesOnlyFeasibleSets:
    """The unlimited lazy path asks f only for sets feasible under the
    weights in force: v* and the complement root for elements that fit,
    the lazy phase for the prefix plus an element that fits beside it, and
    the complement search for a path plus a child that fits it."""

    @staticmethod
    def assert_all_feasible(value, cons):
        sets = [S for (S,), _ in value.call_args_list]
        assert all(cons.is_feasible(S) for S in sets), [
            sorted(S) for S in sets if not cons.is_feasible(S)]
        return sum(len(S) > 1 for S in sets)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_lambda_greedy(self, family):
        rng = np.random.default_rng(54)
        pairs = 0
        for trial in range(40):
            inst = lazy_case(rng, family, trial)
            obj = inst.objective
            with mock.patch.object(obj, "value", wraps=obj.value) as value:
                try:
                    lambda_greedy(inst, float(rng.choice([1.0, inst.constraints.k])))
                except EmptyAfterReductionError:
                    continue
            pairs += self.assert_all_feasible(value, inst.constraints)
        assert pairs > 0

    @pytest.mark.parametrize("family", FAMILIES)
    def test_engine_after_mixed_updates(self, family):
        # eager steps, which may ask for infeasible sets, run unrecorded
        # between the updates; the last update, the unlimited run and
        # finalize are recorded under the weights that update sets
        rng = np.random.default_rng(55)
        pairs = 0
        for trial in range(40):
            inst = lazy_case(rng, family, trial)
            cons = inst.constraints
            try:
                eng = DynamicGreedy(inst, float(rng.choice([1.0, cons.k])))
            except EmptyAfterReductionError:
                continue
            for _ in range(int(rng.integers(0, 3))):
                eng.run_to_completion(eng.obj.eval_count + int(rng.integers(0, 8)))
                eng.apply_weights(cons.weights * rng.uniform(0.4, 1.6, cons.k))
            eng.run_to_completion(eng.obj.eval_count + int(rng.integers(0, 8)))
            with mock.patch.object(eng.obj, "value", wraps=eng.obj.value) as value:
                eng.apply_weights(cons.weights * rng.uniform(0.4, 1.6, cons.k))
                eng.run_to_completion()
                eng.finalize()
            pairs += self.assert_all_feasible(value, eng.cons)
        assert pairs > 0


class TestUnfitElements:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_invisible(self, family):
        # elements that never fit change no pick and no oracle call: the
        # solver and the engine leave them out by the same fits mask
        def picks(r, pos):
            return (tuple(pos[e] for e in r.chosen), r.value, r.which,
                    tuple(pos[e] for e in r.greedy_order), r.oracle_calls)

        def fresh(case):
            return Instance(case.ground, case.constraints, case.objective.clone())

        rng = np.random.default_rng(33)
        checked = 0
        while checked < 25:
            n, k = int(rng.integers(3, 12)), int(rng.integers(1, 4))
            inst = random_instance(rng, n, k, family)
            if family == "cut":
                # integer weights: the prefix state's row sums are exact
                # whatever the number of nodes
                arcs = [(u, v, float(round(4 * w))) for u, v, w in inst.objective.arcs]
                inst = Instance(inst.ground, inst.constraints, DirectedCutObjective(n, arcs))
            big, pos = with_unfit_elements(rng, inst, int(rng.integers(1, 4)))
            pos, same = pos.tolist(), range(big.ground.n)
            lam = float(rng.choice([1.0, k]))
            try:
                small = lambda_greedy(fresh(inst), lam)
            except EmptyAfterReductionError:
                continue
            result = lambda_greedy(fresh(big), lam)
            assert picks(result, same) == picks(small, pos)

            # and through updates: an element that never fits is never a
            # newcomer, so each rollback keeps the same depth in both engines
            finals = []
            for case in (inst, big):
                eng = DynamicGreedy(fresh(case), lam)
                for factor in (0.6, 1.0):
                    for _ in range(3):
                        eng.step()
                    eng.apply_weights(factor * case.constraints.weights)
                finals.append(eng.finalize())
            assert picks(finals[1], same) == picks(finals[0], pos)
            checked += 1


class TestLambdaGreedy:
    def test_worked_example_value(self, worked_example):
        result = lambda_greedy(worked_example, 1.0)
        assert result.value == 3.25
        assert result.which == "greedy-sigma"
        assert result.chosen == (4, 0)

    def test_dominant_singleton(self):
        # one huge item too dense to ignore but greedy grabs cheap junk first
        inst = Instance(
            GroundSet(3),
            KnapsackConstraints([[1.0, 1.0, 1.9]], [2.0]),
            ModularObjective([1.0, 1.0, 50.0]),
        )
        result = lambda_greedy(inst, 1.0)
        brute_val, _ = brute_force_opt(inst)
        # greedy takes item 2 first here (densest); build the foil differently:
        assert result.value <= brute_val

    def test_singleton_vstar_branch(self):
        # dense cheap items fill the budget before the big expensive-ish one
        inst = Instance(
            GroundSet(3),
            KnapsackConstraints([[0.4, 0.4, 2.0]], [2.0]),
            ModularObjective([4.0, 4.0, 11.0]),
        )
        result = lambda_greedy(inst, 1.0)
        assert result.which == "singleton-vstar"
        assert result.value == 11.0

    def test_guarantee_on_random_instances(self):
        rng = np.random.default_rng(27)
        checked = 0
        while checked < 20:
            n = int(rng.integers(3, 10))
            k = int(rng.integers(1, 4))
            family = FAMILIES[int(rng.integers(0, len(FAMILIES)))]
            inst = random_instance(rng, n, k, family)
            lam = float(rng.uniform(1.0, k))
            try:
                result = lambda_greedy(inst, lam)
            except EmptyAfterReductionError:
                continue
            checked += 1
            opt_val, _ = brute_force_opt(
                Instance(inst.ground, inst.constraints, inst.objective.clone())
            )
            alpha = brute_force_curvature(inst.objective.clone(), n)
            assert result.value >= guarantee_bound(lam, alpha) * opt_val - 1e-9

    def test_greedy_order_matches_reference(self):
        # differential check against the standalone greedy in conftest, whose
        # cheap set leaves out the elements that do not fit
        rng = np.random.default_rng(30)
        checked = 0
        while checked < 40:
            family = FAMILIES[checked % len(FAMILIES)]
            n = int(rng.integers(3, 21))
            k = int(rng.integers(1, 4))
            lam = float(rng.choice([1.0, np.ceil(k / 2), k]))
            inst = random_instance(rng, n, k, family)
            try:
                result = lambda_greedy(
                    Instance(inst.ground, inst.constraints, inst.objective.clone()), lam
                )
            except EmptyAfterReductionError:
                continue
            fitting, _ = reduce_instance(inst)
            part = split_by_threshold(inst.constraints, lam)
            ref = reference_greedy(inst.objective, inst.constraints, part)
            assert result.greedy_order == tuple(ref.order)
            # no more calls than the singleton scan, the eager greedy and
            # the exhaustive complement search
            comp_obj = inst.objective.clone()
            reference_complement(comp_obj, inst.constraints, part)
            eager = len(fitting) + eager_greedy_calls(len(part.cheap)) + comp_obj.eval_count
            assert result.oracle_calls <= eager
            checked += 1

    def test_complement_pair_beats_the_floor_by_a_little(self):
        # element 2 is cheap and worth 9.9 alone; 0 and 1 are expensive and
        # only their pair, worth 10, beats it, so the subtree below 0 must
        # be entered although the floor is above f({0}) + 0
        inst = Instance(
            GroundSet(3),
            KnapsackConstraints([[8.0, 1.0, 7.0], [1.0, 8.0, 7.0]], [14.0, 14.0]),
            ModularObjective([5.0, 5.0, 9.9]),
        )
        result = lambda_greedy(inst, 1.0)
        assert (result.chosen, result.value, result.which) == ((0, 1), 10.0, "complement-set")

    def test_singleton_floor_prunes_the_complement(self):
        # 0 and 1 are cheap but do not fit together, so sigma is (1,) worth
        # 1.95 and the singleton 0 wins at 2.4; the complement pair {2, 3}
        # is worth 2.0, so its subtree (bound 1 + 1) is skipped only by the
        # singleton half of the floor. The only calls are the 4 singletons:
        # 0 no longer fits beside 1, so the lazy phase drops it unevaluated,
        # the complement roots read f({2}) and f({3}) from the engine's
        # cache, and f({2, 3}) is never asked for
        inst = Instance(
            GroundSet(4),
            KnapsackConstraints(
                [[2.0, 1.5, 0.1, 0.1], [0.1, 0.1, 2.5, 0.1], [0.1, 0.1, 0.1, 2.5]],
                [3.0, 3.0, 3.0],
            ),
            ModularObjective([2.4, 1.95, 1.0, 1.0]),
        )
        result = lambda_greedy(inst, 2.0)
        assert (result.chosen, result.which, result.greedy_order) == ((0,), "singleton-vstar", (1,))
        assert result.oracle_calls == 4

    @pytest.mark.parametrize("family", FAMILIES)
    def test_floored_complement_gives_the_unfloored_result(self, family):
        # lambda_greedy's complement search, and the engine's at finalize
        # after a tighten/loosen walk, skip what cannot beat the greedy value
        # and the best singleton; the pick is that of a full search
        def picks(r):
            return r.chosen, r.value, r.which, r.greedy_order

        rng = np.random.default_rng(32)
        for trial in range(40):
            inst = lazy_case(rng, family, trial)
            cons = inst.constraints
            lam = float(rng.choice([1.0, cons.k]))
            try:
                result = lambda_greedy(Instance(inst.ground, cons, inst.objective.clone()), lam)
            except EmptyAfterReductionError:
                continue
            fitting, _ = reduce_instance(inst)
            obj = inst.objective.clone()
            values = {}
            vstar, vstar_val = best_singleton(obj, fitting, values)
            part = split_by_threshold(cons, lam)
            sigma = greedy_phase(obj, cons, part, {(): values}, Solution(cons.k))
            comp_set, comp_val = complement_search(obj, cons, part, {})
            expected = best_of(sigma, vstar, vstar_val, comp_set, comp_val, obj.eval_count)
            assert picks(result) == picks(expected)
            assert result.oracle_calls <= expected.oracle_calls

            engines = [DynamicGreedy(Instance(inst.ground, cons, inst.objective.clone()), lam)
                       for _ in range(2)]
            for eng in engines:
                for factor in (0.7, 1.0):
                    eng.run_to_completion()
                    eng.apply_weights(factor * cons.weights)
            result = engines[0].finalize()
            eng = engines[1]
            eng.run_to_completion()
            part = split_by_threshold(eng.cons, lam)
            comp_set, comp_val = complement_search(eng.obj, eng.cons, part, {})
            expected = best_of(eng.sigma, eng.vstar, eng.vstar_value, comp_set, comp_val,
                               eng.obj.eval_count)
            assert picks(result) == picks(expected)
            assert result.oracle_calls <= expected.oracle_calls

    def test_deterministic(self):
        rng = np.random.default_rng(29)
        inst = random_instance(rng, 9, 3, "dpp")
        r1 = lambda_greedy(
            Instance(inst.ground, inst.constraints, inst.objective.clone()), 2.0
        )
        r2 = lambda_greedy(
            Instance(inst.ground, inst.constraints, inst.objective.clone()), 2.0
        )
        assert r1 == r2

    def test_lambda_out_of_range(self, worked_example):
        with pytest.raises(InvalidInstanceError, match="lambda out of"):
            lambda_greedy(worked_example, 0.5)
