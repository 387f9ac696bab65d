"""Stepwise greedy engine that survives budget updates without a restart.

The engine interleaves single greedy selections with weight-update events.
On an update it pops the most recently added elements of the current
sequence until the remainder is a prefix that is safe under both the old
and the new budgets (small enough to be automatically feasible in both,
and contained in both cheap sets), then resumes stepping under the new
weights. Popping restores cached costs and values, and the objective's
prefix state is truncated on the next step, so recovery consumes oracle
calls only for the greedy re-extension. The engine keeps the whole ground
set: an element that does not fit the budgets sits out until an update
makes it fit again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EmptyAfterReductionError, InvalidInstanceError, Solution, validate
from .solver import (
    Partition,
    best_of,
    best_singleton,
    chi,
    complement_search,
    greedy_phase,
    split_by_threshold,
)


@dataclass
class WeightUpdate:
    at_call: int
    weights: np.ndarray


class DynamicGreedy:
    """Single-owner state machine running the density greedy under mutable
    budgets.

    The phase is derived from the pool, never stored: "greedy" while
    candidates remain, "finished" when the pool is empty. apply_weights()
    may be called in either phase; it refills the pool with the cheap
    elements outside the surviving prefix.
    """

    def __init__(self, inst, lam):
        k = inst.constraints.k
        if not 1.0 <= lam <= k:
            raise InvalidInstanceError("lambda out of [1,k]: %r with k=%d" % (lam, k))
        validate(inst)
        self._calls_baseline = inst.objective.eval_count
        self.lam = float(lam)
        self.obj = inst.objective
        self.sigma = Solution(k)
        # An element that does not fit the current budgets is in no cheap
        # set and no complement. Its singleton value is evaluated the first
        # time it fits (n calls at most over a run) and kept, so later
        # updates re-derive the best feasible singleton for free.
        self.singleton_values = {}
        self._adopt(inst.constraints, split_by_threshold(inst.constraints, lam))
        if not (self.part.cheap or self.part.expensive):
            raise EmptyAfterReductionError("empty after reduction")

    def _adopt(self, cons, part):
        """Take cons and its partition as the current budgets: pick v* over
        the elements that fit (both parts) with best_singleton, which
        evaluates only those not yet in singleton_values, and refill the
        pool with the cheap elements outside the prefix."""
        self.cons, self.part = cons, part
        fitting = sorted(part.cheap + part.expensive)
        self.vstar, self.vstar_value = best_singleton(self.obj, fitting, self.singleton_values)
        taken = set(self.sigma.order)
        self.pool = [e for e in part.cheap if e not in taken]

    @property
    def phase(self):
        return "greedy" if self.pool else "finished"

    def step(self):
        """One eager density-greedy selection when the pool is not empty.

        Follows sigma's order on the objective, then evaluates f(sigma + e)
        for every candidate in the pool (one oracle call each, answered
        from the prefix state). Removes the one with the largest density,
        marginal gain per maximum cost (ties to the earliest in pool
        order), and appends or discards it. When the winner's density is
        negative, every other candidate's density is at most that, so no
        gain in the pool is nonnegative and sigma cannot grow until it
        changes: the pool is cleared instead of being discarded one scan at
        a time.
        """
        obj, sigma, pool = self.obj, self.sigma, self.pool
        if not pool:
            return
        obj.follow(sigma.order)
        current, base = frozenset(sigma.order), sigma.value
        max_costs = self.cons.max_costs
        best_e, best_density, best_fval = None, None, None
        for e in pool:
            fe = obj.value(current | {e})
            density = (fe - base) / max_costs[e]
            if best_density is None or density > best_density:
                best_e, best_density, best_fval = e, density, fe
        if best_density < 0:
            pool.clear()
            return
        pool.remove(best_e)
        sigma.take(self.cons, best_e, best_fval)

    def apply_weights(self, new_weights):
        """Stack-rollback update rule for a new budget vector. A vector of
        the wrong length, or with a non-finite or negative entry, raises
        InvalidInstanceError and leaves the engine unchanged."""
        old_cons = self.cons
        new_cons = old_cons.with_weights(new_weights)
        new_part = split_by_threshold(new_cons, self.lam)
        chi_cap = min(chi(old_cons), chi(new_cons))

        # the longest prefix of at most chi_cap elements, all in both cheap sets
        both = set(self.part.cheap).intersection(new_part.cheap)
        order = self.sigma.order
        depth = next((i for i, e in enumerate(order) if e not in both), len(order))
        self.sigma.truncate(min(depth, chi_cap))
        self._adopt(new_cons, new_part)

    def run_to_completion(self, call_limit=None):
        """Extend the prefix until the pool is empty. With call_limit, an
        absolute count (obj.eval_count + b budgets b more calls), step
        eagerly until eval_count reaches it; the limit is checked between
        steps, so the last step may run past it by one scan of the pool.
        Without one, run the lazy greedy_phase from the current prefix,
        seeded by the cached singleton values, which bound the gains at any
        depth by submodularity: it reaches the prefix eager steps reach."""
        if call_limit is None:
            part = Partition(cheap=tuple(self.pool), expensive=())
            greedy_phase(self.obj, self.cons, part, self.singleton_values, self.sigma)
            self.pool.clear()
            return
        while self.pool and self.obj.eval_count < call_limit:
            self.step()

    def current_best(self):
        """Best feasible value known right now, without extra oracle calls:
        the greedy prefix versus the best feasible singleton."""
        return max(self.sigma.value, self.vstar_value)

    def finalize(self):
        """Exhaust the pool lazily, search the expensive remainder under the
        current weights, and return the overall argmax (with no update, the
        static solve). The search is floored at current_best(): best_of
        takes the complement set only when it beats the greedy prefix and
        the best singleton strictly."""
        self.run_to_completion()
        comp_set, comp_val = complement_search(
            self.obj, self.cons, self.part, self.singleton_values, self.current_best()
        )
        calls = self.obj.eval_count - self._calls_baseline
        return best_of(self.sigma, self.vstar, self.vstar_value, comp_set, comp_val, calls)
