"""Stepwise greedy engine that survives budget updates without a restart.

The engine interleaves single greedy selections with weight-update events.
On an update it pops the most recently added elements of the current
sequence until the remainder is a prefix that a greedy started from
scratch under the new budgets would build too, then resumes stepping under
the new weights. Whether a restart rebuilds a depth is decided without
oracle calls: its element must still be cheap and fit, and no element that
the new budgets let in there may outrank it, which its singleton value
bounds by submodularity (DynamicGreedy._restart_depth). So after any
update, tightening, loosening or mixed, the sequence is the one a restart
appends. Popping restores cached costs and values, and the objective's
prefix state is truncated on the next step, so recovery consumes oracle
calls only for the greedy re-extension, and only for values the engine
has never asked for: f is fixed while the budgets drift, so every answer
is kept, keyed by its ordered prefix (DynamicGreedy.memo), and a depth
scanned again or a prefix grown again is read from there. The engine keeps
the whole ground set: an element that does not fit the budgets sits out
until an update makes it fit again, and budgets that admit none leave the
value at 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Solution, _check_lambda, validate
from .solver import (
    Partition,
    Reader,
    best_of,
    best_singleton,
    chi,  # no caller here; benchmark/tracing.py patches this binding
    complement_search,
    density_slack,
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
    elements outside the surviving prefix that fit on top of it, the only
    elements the pool ever holds, so every step appends or ends the phase.
    Built under budgets that admit no element, the engine is finished at
    once, with vstar None.

    memo maps an ordered prefix, as a tuple, to {e: f(prefix + [e])} for
    every e evaluated on top of it, and every value is read through a
    Reader on its entry. The key is the order, not the set: another order
    may round differently. Its root entry memo[()] is singleton_values, the
    same dict. Nothing is dropped, not on an update nor on a rollback,
    since f never changes: the memo holds one float per distinct (prefix,
    element) pair the engine evaluates, plus one key per distinct prefix it
    scans.
    """

    def __init__(self, inst, lam):
        k = inst.constraints.k
        _check_lambda(lam, k)
        validate(inst)
        self._calls_baseline = inst.objective.eval_count
        self.lam = float(lam)
        self.obj = inst.objective
        self.sigma = Solution(k)
        # An element that does not fit the current budgets is in no cheap
        # set and no complement. Its singleton value is evaluated the first
        # time it fits (n calls at most over a run) and kept, so later
        # updates re-derive the best feasible singleton for free.
        self.memo = {(): {}}
        self.singleton_values = self.memo[()]
        self._adopt(inst.constraints)
        self._refill(self.part.cheap)

    def _adopt(self, cons):
        """Take cons as the current budgets, at construction and on every
        update: split it at lam with split_by_threshold, and pick v* over
        both parts with best_singleton, which evaluates only the elements
        not yet in singleton_values."""
        self.cons, self.part = cons, split_by_threshold(cons, self.lam)
        fitting = sorted(self.part.cheap + self.part.expensive)
        self.vstar, self.vstar_value = best_singleton(self.obj, fitting, self.singleton_values)

    def _refill(self, source):
        """Refill the pool with the elements of source outside the prefix
        that fit on top of it. source is the cheap set after an update, and
        the pool after an append: the prefix only grows until the next
        update and costs are nonnegative, so the rest fit on top of no later
        prefix."""
        taken, fits = set(self.sigma.order), self.cons.fits(self.sigma.cost_acc).tolist()
        self.pool = [e for e in source if fits[e] and e not in taken]

    @property
    def phase(self):
        return "greedy" if self.pool else "finished"

    def step(self):
        """One eager density-greedy selection, when the pool is not empty:
        it appends an element or ends the phase.

        Reads f(sigma + e) for the pool, in its order, through one Reader
        on the memo entry of sigma's order. The winner has the largest
        density, marginal gain per maximum cost, ties to the earliest in
        pool order; a NaN density never wins. A winner of density >= 0
        fits, as the whole pool does: it is appended and the pool refilled.
        Otherwise no gain in the pool is a nonnegative number, since a
        negative winner's density bounds every other's, and sigma cannot
        grow until the budgets change: the pool is cleared.
        """
        sigma, pool = self.sigma, self.pool
        if not pool:
            return
        prefix, base, max_costs = tuple(sigma.order), sigma.value, self.cons.max_costs
        fvals = Reader(self.obj, self.memo.setdefault(prefix, {}), prefix).read_all(pool)
        best_e, best_density, best_fval = None, -math.inf, None
        for e, fe in zip(pool, fvals):
            density = (fe - base) / max_costs[e]
            if density > best_density:
                best_e, best_density, best_fval = e, density, fe
        if best_density < 0:
            pool.clear()
            return
        sigma.take(best_e, best_fval, sigma.cost_acc + self.cons.costs[:, best_e])
        self._refill(pool)

    def apply_weights(self, new_weights):
        """Stack-rollback update rule for a new budget vector: adopt it, pop
        to the longest prefix a from-scratch greedy under it would build
        (_restart_depth), and refill the pool. A vector of the wrong length,
        or with a non-finite or negative entry, raises InvalidInstanceError
        and leaves the engine unchanged."""
        old_cons, old_part = self.cons, self.part
        new_cons = old_cons.with_weights(new_weights)
        # v* first: the rule reads the singleton value of every element
        # that fits now, and best_singleton evaluates those it has not seen
        self._adopt(new_cons)
        self.sigma.truncate(self._restart_depth(old_cons, old_part))
        self._refill(self.part.cheap)

    def _restart_depth(self, old_cons, old_part):
        """The longest depth d such that order[:d] is the prefix a fresh
        greedy under the current budgets appends, when the prefix was that
        greedy's under old_cons and old_part. Makes no oracle call: it
        reads singleton_values, which must hold every cheap element.

        At each depth j the greedy appends the densest element that is
        cheap and fits on top of order[:j] (see greedy_phase). Depth d is
        kept when, for every j < d:
        (a) order[j] is cheap now, and order[:j + 1] fits the budgets now;
        (b) no newcomer can outrank order[j]. A newcomer at depth j is an
            element outside order[:j] that is cheap now and fits on top of
            order[:j] now, but was not cheap-and-fitting under old_cons: it
            was no candidate when order[j] won. The others were, and lost,
            with the same gains now. By submodularity f({x}) bounds x's
            gain at any depth, so x cannot outrank order[j] when
            f({x}) / max_cost(x) is below order[j]'s density
            (history[j + 1] minus history[j] value, over its max cost) by
            more than density_slack, greedy_phase's. A NaN bound never blocks.
        When no budget grew, nothing is a newcomer and (a) decides alone;
        under tightening the kept prefix is then never shorter than chi's.
        """
        order, history, cons = self.sigma.order, self.sigma.history, self.cons
        cheap = set(self.part.cheap)
        depth = next((j for j, e in enumerate(order) if e not in cheap), len(order))
        if depth and not cons.is_feasible_cost(history[depth][1]):
            acc = np.array([cost for _, cost in history[1:depth + 1]])
            depth = int(cons.is_feasible_cost(acc).argmin())
        if not depth or (cons.weights <= old_cons.weights).all():
            return depth

        # An element that was cheap and fits on top of order[:depth - 1]
        # under old_cons fits on top of every shorter prefix: it is never a
        # newcomer. Nor is an element of the prefix.
        old_cheap = set(old_part.cheap)
        deepest = old_cons.fits(history[depth - 1][1]).tolist()
        cand = [e for e in cheap.difference(order) if not (deepest[e] and e in old_cheap)]
        if not cand:
            return depth
        # order[j]'s density less density_slack at the least max cost
        max_costs, values = cons.max_costs, [value for value, _ in history[:depth + 1]]
        min_cost = min(max_costs)
        floor = [(values[j + 1] - values[j]) / max_costs[order[j]] for j in range(depth)]
        floor = [d - density_slack(d, v, min_cost) for d, v in zip(floor, values)]
        acc = np.array([cost for _, cost in history[:depth]])
        sums = acc[:, None] + cons.costs[:, cand].T  # (depth, candidates, k)
        fits_now = cons.is_feasible_cost(sums)
        was_candidate = old_cons.is_feasible_cost(sums) & [e in old_cheap for e in cand]
        bound = np.array([self.singleton_values[e] / max_costs[e] for e in cand])
        outranks = bound >= np.array(floor)[:, None]  # a NaN bound never blocks
        stops = (fits_now & ~was_candidate & outranks).any(axis=1)
        return int(stops.argmax()) if stops.any() else depth

    def run_to_completion(self, call_limit=None):
        """Extend the prefix until the pool is empty. With call_limit, an
        absolute count (obj.eval_count + b budgets b more calls), step
        eagerly until eval_count reaches it; the limit is checked between
        steps, so the last step may run past it by the misses of one scan of
        the pool, and steps whose scan the memo answers cost no call.
        Without one, run the lazy greedy_phase over the memo from the
        current prefix: it reaches the prefix eager steps reach."""
        if call_limit is None:
            part = Partition(cheap=tuple(self.pool), expensive=())
            greedy_phase(self.obj, self.cons, part, self.memo, self.sigma)
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
        the best singleton strictly. Drops the objective's prefix state."""
        self.run_to_completion()
        comp_set, comp_val = complement_search(
            self.obj, self.cons, self.part, self.singleton_values, self.current_best()
        )
        self.obj.follow(None)
        calls = self.obj.eval_count - self._calls_baseline
        return best_of(self.sigma, self.vstar, self.vstar_value, comp_set, comp_val, calls)
