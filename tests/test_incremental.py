"""Differential tests of the incremental oracle path.

Objective.value answers the list P + [e], for the prefix P named by
follow(), from per-family state; any other argument, a set holding P + {e}
too, goes to _value, the from-scratch reference. These tests drive follow()
through pushes, pops and jumps, and compare the two on all four families,
together with the call accounting, clone independence, the
non-positive-definite errors and the greedy order on exact ties.
"""

import numpy as np
import pytest

from knapgreedy import (
    DirectedCutObjective,
    DppLogDetObjective,
    DynamicGreedy,
    EntropyObjective,
    GroundSet,
    Instance,
    KnapsackConstraints,
    ModularObjective,
    NotPositiveDefiniteError,
    Objective,
    Solution,
    greedy_phase,
    split_by_threshold,
)
from knapgreedy.solver import best_singleton

from conftest import FAMILIES, random_objective, reference_greedy, twin_instance


def close(v, ref):
    return abs(v - ref) <= 1e-9 * max(1.0, abs(ref))


def random_orders(rng, n, steps):
    """A walk over prefixes: push one element, pop a few, or jump to an
    unrelated prefix."""
    order = []
    for _ in range(steps):
        move = rng.random()
        rest = [e for e in range(n) if e not in order]
        if move < 0.5 and rest:
            order = order + [int(rng.choice(rest))]
        elif move < 0.8:
            order = order[: int(rng.integers(0, len(order) + 1))]
        else:
            order = [int(e) for e in rng.permutation(n)[: int(rng.integers(0, n))]]
        yield order


class CountingReference:
    """Counts the from-scratch evaluations that one objective makes."""

    def __init__(self, monkeypatch, obj):
        self.calls = 0
        original = type(obj)._value

        def counted(this, S):
            self.calls += this is obj
            return original(this, S)

        monkeypatch.setattr(type(obj), "_value", counted)


class TestFastPathMatchesReference:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_push_pop_and_jump(self, family, monkeypatch):
        rng = np.random.default_rng(FAMILIES.index(family))
        for _ in range(8):
            n = int(rng.integers(2, 16))
            obj = random_objective(rng, n, family)
            reference = obj.clone()
            counter = CountingReference(monkeypatch, obj)
            for order in random_orders(rng, n, 25):
                obj.follow(order)
                assert obj._prefix.order == order
                for e in range(n):
                    if e in order:
                        continue
                    S = frozenset(order) | {e}
                    # the list order + [e], as Reader asks, is answered from
                    # the state with no _value call; the set of the same
                    # elements is one _value call, with its bits
                    calls, before = counter.calls, obj.eval_count
                    v = obj.value(order + [e])
                    assert (counter.calls, obj.eval_count) == (calls, before + 1)
                    assert close(v, reference._value(S))
                    assert obj.value(S).hex() == reference._value(S).hex()
                    assert (counter.calls, obj.eval_count) == (calls + 1, before + 2)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_other_sets_fall_back(self, family):
        rng = np.random.default_rng(10 + FAMILIES.index(family))
        obj = random_objective(rng, 8, family)
        obj.follow([3, 1, 5])
        for S in ([3, 1, 5], [3, 1], [0, 2, 4, 6], [1, 5, 0, 2], []):
            assert close(obj.value(S), obj._value(frozenset(S)))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_other_lists_get_the_answer_of_their_set(self, family, monkeypatch):
        # in another order, with repeats, of another set, or P + {e} as a
        # set, a frozenset or a tuple: the bits of value(frozenset(S)) and
        # its one from-scratch evaluation, since only the list P + [e] is
        # answered from the state
        rng = np.random.default_rng(70 + FAMILIES.index(family))
        obj = random_objective(rng, 8, family)
        twin = obj.clone()
        obj.follow([3, 1, 5])
        twin.follow([3, 1, 5])
        counter, twin_counter = CountingReference(monkeypatch, obj), CountingReference(monkeypatch, twin)
        for S in ([1, 3, 5, 0], [0, 3, 1, 5], [3, 1, 5, 0, 0], [3, 1, 5, 5], [3, 3, 1, 0],
                  [3, 1, 2, 0], [3, 1, 0], [3, 1], [], {3, 1, 5, 0}, frozenset({3, 1, 5, 0}),
                  (3, 1, 5, 0)):
            v = obj.value(S)
            assert v.hex() == twin.value(frozenset(S)).hex()
            assert counter.calls == twin_counter.calls == 1
            assert close(v, obj._value(frozenset(S)))
            counter.calls, twin_counter.calls = 0, 0
        assert obj._prefix.order == twin._prefix.order == [3, 1, 5]

    @pytest.mark.parametrize("family", FAMILIES)
    def test_one_new_element_short_of_the_prefix_falls_back(self, family):
        # each list ends in one element outside the followed prefix but
        # misses a prefix member, so the state's f(prefix + [0]) is not its
        # value
        rng = np.random.default_rng(20 + FAMILIES.index(family))
        obj = random_objective(rng, 8, family)
        obj.follow([3, 1, 5])
        for S in ([0], [3, 0], [1, 5, 0]):
            assert close(obj.value(S), obj._value(frozenset(S)))


class TestAccounting:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_one_count_per_value_call(self, family):
        rng = np.random.default_rng(30 + FAMILIES.index(family))
        obj = random_objective(rng, 7, family)
        obj.follow([2, 0])
        for S in ([2, 0, 4], [2, 0, 1], [5], [2, 0], [1, 3, 6, 4], {2, 0, 4}):
            before = obj.eval_count
            obj.value(S)
            assert obj.eval_count == before + 1

    def test_follow_makes_no_oracle_call(self):
        obj = random_objective(np.random.default_rng(31), 6, "entropy")
        obj.follow([4, 1, 3])
        obj.follow([4])
        obj.follow(None)
        assert obj.eval_count == 0

    def test_family_without_state_behaves_as_before(self):
        class Squared(Objective):
            def _value(self, S):
                return float(len(S)) ** 0.5

        obj = Squared()
        obj.follow([0, 1])
        assert obj._prefix is None
        assert obj.value({0, 1, 2}) == 3 ** 0.5
        assert obj.eval_count == 1


class TestClones:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_clones_following_different_prefixes(self, family):
        rng = np.random.default_rng(40 + FAMILIES.index(family))
        n = 10
        obj = random_objective(rng, n, family)
        obj.follow([1, 2])
        a, b = obj.clone(), obj.clone()
        assert a._prefix is None and b._prefix is None
        walks = zip(random_orders(rng, n, 20), random_orders(rng, n, 20))
        for order_a, order_b in walks:
            for clone, order in ((a, order_a), (b, order_b)):
                clone.follow(order)
            for clone, order in ((a, order_a), (b, order_b)):
                assert clone._prefix.order == order
                for e in set(range(n)) - set(order):
                    assert close(clone.value(order + [e]), obj._value(frozenset(order) | {e}))
        assert obj._prefix.order == [1, 2]


class TestNotPositiveDefinite:
    # eigenvalues 3 and -1: every singleton is fine, the pair is not
    INDEFINITE = [[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]

    @pytest.mark.parametrize("make", [
        lambda M: DppLogDetObjective(M, jitter=0.0),
        lambda M: DppLogDetObjective(M),
        EntropyObjective,
    ])
    def test_same_error_as_from_scratch(self, make):
        obj = make(self.INDEFINITE)
        with pytest.raises(NotPositiveDefiniteError) as scratch:
            obj._value(frozenset({0, 1}))
        obj.follow([0])
        with pytest.raises(NotPositiveDefiniteError) as fast:
            obj.value([0, 1])  # the state has no answer, and _value raises
        assert str(fast.value) == str(scratch.value)
        # a prefix that cannot be factored stops the tracking before it
        obj.follow([0, 1])
        assert obj._prefix.order == [0]
        with pytest.raises(NotPositiveDefiniteError):
            obj.value([0, 1, 2])
        assert obj.eval_count == 2
        assert obj.value([0, 2]) == pytest.approx(obj._value(frozenset({0, 2})))

    def test_negative_diagonal_singleton(self):
        obj = EntropyObjective([[-1.0, 0.0], [0.0, 1.0]])
        obj.follow([])
        with pytest.raises(NotPositiveDefiniteError):
            obj.value([0])
        assert obj.value([1]) == pytest.approx(obj._value(frozenset({1})))


# ---------------------------------------------------------------------------
# exact ties: the fast path must break them exactly as the reference does


class TestTies:
    @pytest.mark.parametrize("family", FAMILIES + ("dpp-duplicate-rows",))
    def test_greedy_order_equals_reference(self, family):
        rng = np.random.default_rng(50)
        for _ in range(10):
            inst = twin_instance(rng, family, int(rng.integers(2, 7)))
            obj, cons = inst.objective, inst.constraints
            part = split_by_threshold(cons, 2.0)
            expected = reference_greedy(obj, cons, part).order
            seeds = {}
            best_singleton(obj, part.cheap, seeds)
            sigma = Solution(cons.k)
            assert greedy_phase(obj, cons, part, {(): seeds}, sigma).order == expected
            eng = DynamicGreedy(Instance(inst.ground, cons, obj.clone()), 2.0)
            eng.run_to_completion()
            assert eng.sigma.order == expected
