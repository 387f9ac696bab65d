"""Static density-greedy solver with threshold split of the ground set.

The trade-off parameter lam in [1, k] splits elements into a cheap set
(every per-knapsack cost at most lam * W_j / k) that is optimized greedily
by marginal-gain-per-max-cost, and an expensive remainder whose best
feasible subset is found exactly by branch and bound. The returned solution
is the best of the greedy sequence, the best single element, and the best
feasible expensive subset.
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

# Searching more expensive elements than this is legal but may take time
# exponential in their number; a warning is emitted and the run proceeds.
COMPLEMENT_SIZE_WARNING = 25

# Relative slack on the branch-and-bound prune test, so that rounding in the
# oracle's prefix state can never prune a subtree holding a true optimum.
BOUND_SLACK = 1e-12


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

    Per knapsack: sort costs descending and count the prefix sums that fit
    the budget (cumsum adds in sequence, and costs are nonnegative, so the
    sums never decrease); the result is the minimum over knapsacks.
    """
    prefix = np.cumsum(np.sort(cons.costs, axis=1)[:, ::-1], axis=1)
    return int((prefix <= (cons.weights + FEAS_TOL)[:, None]).sum(axis=1).min())


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
    feasible. A NaN gain is never appended. When the winner's density is
    negative, every other candidate's density is at most that, so no gain
    in the pool is nonnegative and sigma cannot grow until it changes: the
    pool is cleared instead of being discarded one scan at a time. Returns
    whether sigma grew.
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
    if best_density < 0:
        pool.clear()
        return False
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

    Depth-first branch and bound over subsets in index order. At each node,
    with path S, every remaining element that still fits is evaluated once
    as f(S + e) (the objective follows S). For submodular f, monotone or
    not, f(S + T) <= f(S) + sum over e in T of max(0, f(S + e) - f(S)), so
    the subtree below S + e_j, whose sets add only later fitting siblings,
    is entered only when f(S + e_j) plus their positive gains is not below
    the best value so far (up to BOUND_SLACK). A sibling that does not fit
    S cannot fit any superset, because costs are nonnegative. Ties go to
    the lexicographically smallest index tuple, the set an exhaustive
    preorder enumeration finds first; every feasible subset is evaluated
    at most once.
    Returns (set, value); the empty set has value 0 by the oracle contract.
    """
    elems = list(part.expensive)
    if len(elems) > COMPLEMENT_SIZE_WARNING:
        warnings.warn(
            "complement too large: branch-and-bound search over %d elements" % len(elems),
            RuntimeWarning,
        )
    costs = cons.costs[:, elems]
    limit = (cons.weights + FEAS_TOL)[:, None]
    best_val, best_path = 0.0, ()
    path = []  # positions in elems

    def visit(cand, cost, f_path):
        nonlocal best_val, best_path
        child_costs = cost[:, None] + costs[:, cand]
        fit = (child_costs <= limit).all(axis=0)
        cand, child_costs = cand[fit], child_costs[:, fit]
        if not cand.size:
            return
        chosen = [elems[p] for p in path]
        obj.follow(chosen)
        base = frozenset(chosen)
        idx = cand.tolist()
        vals = np.array([obj.value(base | {elems[p]}) for p in idx])
        for p, v in zip(idx, vals.tolist()):
            if v > best_val or (v == best_val and tuple(path) + (p,) < best_path):
                best_val, best_path = v, tuple(path) + (p,)
        gains = np.maximum(vals - f_path, 0.0)
        later = np.append(np.cumsum(gains[:0:-1])[::-1], 0.0)  # sum of gains[j + 1:]
        for j, p in enumerate(idx):
            if vals[j] + later[j] + BOUND_SLACK * max(1.0, abs(best_val)) < best_val:
                continue
            path.append(p)
            visit(cand[j + 1:], child_costs[:, j], vals[j])
            path.pop()

    visit(np.arange(len(elems)), np.zeros(cons.k), 0.0)
    return frozenset(elems[p] for p in best_path), best_val


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
