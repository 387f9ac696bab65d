"""Static density-greedy solver with threshold split of the ground set.

The trade-off parameter lam in [1, k] splits elements into a cheap set
(every per-knapsack cost at most lam * W_j / k) that is optimized greedily
by marginal-gain-per-max-cost, and an expensive remainder that is searched
exhaustively. The returned solution is the best of the greedy sequence, the
best single element, and the best feasible expensive subset.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    FEAS_TOL,
    InvalidInstanceError,
    Solution,
    reduce_instance,
    validate,
)

# Exhaustive search over more expensive elements than this is legal but slow;
# a warning is emitted and the run proceeds.
COMPLEMENT_SIZE_WARNING = 25


@dataclass(frozen=True)
class Partition:
    cheap: tuple
    expensive: tuple


@dataclass
class SolveResult:
    chosen: tuple
    value: float
    which: str  # greedy-sigma | singleton-vstar | complement-set
    greedy_order: tuple
    oracle_calls: int

    def to_dict(self):
        return {
            "value": self.value,
            "chosen": list(self.chosen),
            "which": self.which,
            "oracle_calls": self.oracle_calls,
        }


def check_lambda(lam, k):
    if not 1.0 <= lam <= k:
        raise InvalidInstanceError("lambda out of [1,k]: %r with k=%d" % (lam, k))


def chi(cons):
    """Largest cardinality at which every subset is automatically feasible.

    Per knapsack: sort costs descending and take the longest prefix whose sum
    fits the budget; the result is the minimum over knapsacks.
    """
    best = None
    for i in range(cons.k):
        ordered = np.sort(cons.costs[i])[::-1]
        acc, j = 0.0, 0
        for c in ordered:
            acc += c
            if acc > cons.weights[i] + FEAS_TOL:
                break
            j += 1
        best = j if best is None else min(best, j)
    return best


def split_by_threshold(cons, lam):
    """Partition into cheap (c_j(e) <= lam*W_j/k for all j) and the rest."""
    cheap = cons.fits(lam * cons.weights / cons.k)
    return Partition(tuple(np.flatnonzero(cheap).tolist()), tuple(np.flatnonzero(~cheap).tolist()))


def greedy_step(obj, cons, sigma, pool):
    """One density-greedy selection, shared by the static solver and the
    dynamic engine.

    Follows sigma's order on the objective, then evaluates f(sigma + e) for
    every candidate in pool (one oracle call each, answered from the prefix
    state). Removes the one with the largest marginal gain divided by its
    maximum per-knapsack cost (ties to the earliest in pool order), and
    appends it to sigma when the gain is nonnegative and the extended set is
    feasible. A NaN gain is never appended. Returns whether sigma grew.
    """
    obj.follow(sigma.order)
    current = frozenset(sigma.order)
    max_costs = cons.max_costs
    best_e, best_density, best_fval = None, None, None
    for e in pool:
        fe = obj.value(current | {e})
        density = (fe - sigma.value) / max_costs[e]
        if best_density is None or density > best_density:
            best_e, best_density, best_fval = e, density, fe
    pool.remove(best_e)
    new_cost = sigma.cost_acc + cons.costs[:, best_e]
    if not (best_fval - sigma.value >= 0 and cons.is_feasible_cost(new_cost)):
        return False
    sigma.order.append(best_e)
    sigma.cost_acc = new_cost
    sigma.value = best_fval
    return True


def greedy_phase(obj, cons, part):
    """Density greedy over the cheap set: greedy_step until no candidate is
    left. Only nonnegative gains are appended, so prefix values never
    decrease."""
    sigma = Solution(order=[], cost_acc=np.zeros(cons.k), value=0.0)
    pool = list(part.cheap)
    while pool:
        greedy_step(obj, cons, sigma, pool)
    return sigma


def complement_search(obj, cons, part):
    """Exact maximizer of f over feasible subsets of the expensive set.

    Depth-first enumeration in index order; a branch is pruned as soon as
    some knapsack overflows, which is sound because costs are nonnegative.
    The objective follows the DFS path, so each subset is evaluated as the
    path plus one element.
    Returns (set, value); the empty set has value 0 by the oracle contract.
    """
    elems = list(part.expensive)
    if len(elems) > COMPLEMENT_SIZE_WARNING:
        warnings.warn(
            "complement too large: exhaustive search over %d elements" % len(elems),
            RuntimeWarning,
        )
    best_set, best_val = frozenset(), 0.0

    def dfs(i, chosen, cost):
        nonlocal best_set, best_val
        for j in range(i, len(elems)):
            e = elems[j]
            new_cost = cost + cons.costs[:, e]
            if cons.is_feasible_cost(new_cost):
                obj.follow(chosen)
                chosen.append(e)
                v = obj.value(chosen)
                if v > best_val:
                    best_set, best_val = frozenset(chosen), v
                dfs(j + 1, chosen, new_cost)
                chosen.pop()

    dfs(0, [], np.zeros(cons.k))
    return best_set, best_val


def best_singleton(obj, n):
    """argmax of f over single elements, ties to the lowest index. n calls."""
    obj.follow(())
    best_e, best_v = None, None
    for e in range(n):
        v = obj.value({e})
        if best_v is None or v > best_v:
            best_e, best_v = e, v
    return best_e, best_v


def best_of(inst, sigma, vstar, vstar_val, comp_set, comp_val, calls):
    """Argmax over the greedy sequence, the best singleton (None when no
    singleton fits) and the best complement subset, ties to that order;
    reported in the original indices of the instance inst was reduced from."""
    chosen, value, which = tuple(sigma.order), sigma.value, "greedy-sigma"
    if vstar is not None and vstar_val > value:
        chosen, value, which = (vstar,), vstar_val, "singleton-vstar"
    if comp_val > value:
        chosen, value, which = tuple(sorted(comp_set)), comp_val, "complement-set"
    return SolveResult(
        chosen=tuple(inst.to_original(e) for e in chosen),
        value=float(value),
        which=which,
        greedy_order=tuple(inst.to_original(e) for e in sigma.order),
        oracle_calls=calls,
    )


def lambda_greedy(inst, lam):
    """Full static solve; reports results in the instance's original indices.
    The objective's prefix state is dropped before returning."""
    check_lambda(lam, inst.constraints.k)
    validate(inst)
    red, _ = reduce_instance(inst)
    obj, cons = red.objective, red.constraints
    calls_before = obj.eval_count
    try:
        vstar, vstar_val = best_singleton(obj, red.ground.n)
        part = split_by_threshold(cons, lam)
        sigma = greedy_phase(obj, cons, part)
        comp_set, comp_val = complement_search(obj, cons, part)
    finally:
        obj.follow(None)

    return best_of(red, sigma, vstar, vstar_val, comp_set, comp_val, obj.eval_count - calls_before)
