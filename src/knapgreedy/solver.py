"""Static density-greedy solver with threshold split of the ground set.

The trade-off parameter lam in [1, k] splits elements into a cheap set
(every per-knapsack cost at most lam * W_j / k) that is optimized greedily
by marginal-gain-per-max-cost, and an expensive remainder whose best
feasible subset is found exactly by branch and bound. The returned solution
is the best of the greedy sequence, the best single element, and the best
feasible expensive subset.
"""

from __future__ import annotations

import heapq
import math
import warnings
from dataclasses import dataclass

import numpy as np


# Searching more expensive elements than this is legal but may take time
# exponential in their number; a warning is emitted and the run proceeds.
COMPLEMENT_SIZE_WARNING = 25

# Relative slack of density_slack and of the branch-and-bound prune test, so
# that rounding in the oracle's prefix state can never change a pick.
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


def chi(cons):
    """Largest cardinality at which every subset is automatically feasible.

    Per knapsack: sort costs descending and take the prefix sums (cumsum
    adds in sequence, and costs are nonnegative, so the sums never
    decrease); the count of prefix lengths that fit every knapsack is then
    the minimum over knapsacks of the lengths that fit each.
    """
    prefix = np.cumsum(np.sort(cons.costs, axis=1)[:, ::-1], axis=1)
    return int(cons.is_feasible_cost(prefix.T).sum())


def split_by_threshold(cons, lam):
    """Partition the elements that fit the budgets into cheap (they fit the
    budgets lam*W_j/k alone too) and expensive (the rest). An element that
    does not fit alone is in neither part: no feasible set holds it, even
    when lam*W_j/k rounds one ulp above W_j (lam = k = 3, say). The split is
    kept in cons.partitions, so the same constraints object is split once
    per lam."""
    part = cons.partitions.get(lam)
    if part is None:
        fits = cons.fits()
        cheap = fits & cons.with_weights(lam * cons.weights / cons.k).fits()
        expensive = fits & ~cheap
        part = cons.partitions[lam] = Partition(tuple(np.flatnonzero(cheap).tolist()),
                                                tuple(np.flatnonzero(expensive).tolist()))
    return part


def density_slack(density, value, min_cost):
    """How far a density may round above an earlier bound on it, when its
    gain is a difference of f-values of at most value over a max cost of at
    least min_cost: greedy_phase's and DynamicGreedy._restart_depth's slack."""
    return BOUND_SLACK * (max(1.0, abs(density)) + value / min_cost)


def _heap_key(density):
    """Min-heap key of a density: its negation, with NaN as +inf."""
    return -density if density == density else math.inf


class Reader:
    """f(order + [e]), the package's one way to obtain it: read(e) for one
    element, read_all(elements) for a list, in its order.

    values holds the answers stored for the ordered prefix order. A hit
    makes no call. At the reader's first miss the objective follows order;
    each miss is one oracle call, answered from the prefix state and stored
    in values, so a stored value has the bits a new call returns. Between
    two reads of one reader its caller makes no other oracle call and no
    follow: after the first miss the objective must follow order still.
    """

    def __init__(self, obj, values, order):
        self.obj, self.values, self.order, self._base = obj, values, order, None

    def _ask(self, missing):
        if missing and self._base is None:  # the first miss
            self.obj.follow(self.order)
            self._base = frozenset(self.order)
        base, value, values = self._base, self.obj.value, self.values
        for e in missing:
            values[e] = value(base | {e})

    def read(self, e):
        if e not in self.values:
            self._ask((e,))
        return self.values[e]

    def read_all(self, elements):
        self._ask([e for e in elements if e not in self.values])
        return [self.values[e] for e in elements]


def greedy_phase(obj, cons, part, memo, sigma):
    """Lazy density greedy over the cheap set (Minoux 1978): extends the
    prefix sigma in place with the sequence that repeated DynamicGreedy.step
    calls append, until no candidate can be appended, and returns sigma.

    memo is DynamicGreedy.memo. Each depth re-evaluates through its own
    Reader on memo[prefix], made after the append that reached it.

    For submodular f, monotone or not, a marginal gain can only shrink as
    the prefix grows and max_costs is fixed, so a density computed at an
    earlier depth bounds the current one from above. memo[()] (f({e})
    keyed by element, for every cheap e, from best_singleton) holds the
    gains over the empty prefix, so they bound the gains over any prefix.
    A heap holds one entry (key, e, depth, f) per candidate: key is
    -density and f is f(prefix[:depth] + [e]), depth 0 for the singleton
    values. The top is re-evaluated until its depth is the current one;
    in exact arithmetic an exact top is then the eager winner.
    In floating point a gain may round a little above an earlier bound, so
    before an exact top is taken the entries within density_slack of it
    are popped: the stale ones go back keyed -inf, to be re-evaluated
    lowest index first, the rest unchanged. Among exact entries the heap
    order is the eager scan's: the largest density, ties to the lowest
    index, the earliest position in the ascending cheap set. From the empty
    prefix the singleton values are exact, so the first pick makes no call.

    Only a candidate that can still be appended is evaluated:
    - Residual fit. The prefix only grows and costs are nonnegative, so an
      element that does not fit on top of the prefix fits on top of no
      later one. The fits mask, cons.fits(cost_acc), is rebuilt after each
      append and drops such a top, stale or exact, without a call, as the
      engine's pool leaves it out: a top that is taken fits.
    - Negative bound. Every key bounds its element's current -density
      from below, up to the rounding slack, and the top holds the least
      key. A top, stale or exact, whose key exceeds the slack leaves no
      candidate with a nonnegative gain, so the phase ends there with no
      re-evaluation. A NaN density sorts as -inf and is never appended.
    """
    max_costs, roots = cons.max_costs, memo[()]
    heap = [(_heap_key(roots[e] / max_costs[e]), e, 0, roots[e])
            for e in part.cheap]  # gain over f(empty) = 0
    heapq.heapify(heap)
    min_cost = min((max_costs[e] for e in part.cheap), default=1.0)
    depth, base, prefix = len(sigma.order), sigma.value, tuple(sigma.order)
    read = Reader(obj, memo.setdefault(prefix, {}), prefix).read
    fits = cons.fits(sigma.cost_acc)
    while heap:
        key, e, at, fe = heap[0]
        slack = density_slack(key, base, min_cost)
        if key > slack:  # every density bound left is negative, or NaN
            break
        if not fits[e]:  # never fits again: dropped without a call
            heapq.heappop(heap)
            continue
        if at != depth:
            fe = read(e)
            heapq.heapreplace(heap, (_heap_key((fe - base) / max_costs[e]), e, depth, fe))
            continue
        heapq.heappop(heap)  # the top, (key, e, at, fe)
        near, stale = [], False
        while heap and heap[0][0] <= key + slack:
            near.append(heapq.heappop(heap))
        for entry in near:
            if entry[2] != depth:  # to the top, where it is re-evaluated
                entry, stale = (-math.inf,) + entry[1:], True
            heapq.heappush(heap, entry)
        if stale:
            heapq.heappush(heap, (key, e, at, fe))
            continue
        if key > 0:
            break
        sigma.take(e, fe, sigma.cost_acc + cons.costs[:, e])
        depth, base, prefix = depth + 1, fe, tuple(sigma.order)
        read = Reader(obj, memo.setdefault(prefix, {}), prefix).read
        fits = cons.fits(sigma.cost_acc)
    return sigma


def complement_search(obj, cons, part, singleton_values, floor=0.0):
    """Exact maximizer of f over feasible subsets of the expensive set.

    Depth-first branch and bound over subsets in index order, on element
    ids. At each node, with path S, every later expensive element that
    still fits is evaluated once as f(S + e) (the objective follows S). For
    submodular f, monotone or not, f(S + T) <= f(S) + sum over e in T of
    max(0, f(S + e) - f(S)), so the subtree below S + e_j, whose sets add
    only later fitting siblings, is entered only when f(S + e_j) plus their
    positive gains is not below the best value so far (up to BOUND_SLACK).
    A sibling that does not fit S cannot fit any superset, because costs
    are nonnegative. Ties go to the lexicographically smallest element
    tuple, the set an exhaustive preorder enumeration finds first: paths
    are ascending, because part.expensive is (split_by_threshold builds it
    so). Every feasible subset is evaluated at most once: each node reads
    its children through a Reader on S, the root's over singleton_values
    (as best_singleton keeps it), every other's over a throwaway dict.
    floor is a value the caller already holds and keeps unless a subset
    beats it strictly; the default, 0.0, is the empty set's value, where
    the search starts anyway. A subtree is also skipped when its bound is
    below floor. The answer is unchanged when the maximum exceeds
    floor; otherwise it is some feasible subset of value at most floor.
    Returns (set, value); the empty set has value 0 by the oracle contract.
    """
    if len(part.expensive) > COMPLEMENT_SIZE_WARNING:
        warnings.warn(
            "complement too large: branch-and-bound search over %d elements" % len(part.expensive),
            RuntimeWarning,
        )
    best_val, best_path = 0.0, ()
    path = []

    def visit(cand, cost, f_path):
        nonlocal best_val, best_path
        child_costs = cost + cons.costs[:, cand].T  # (m, k)
        fit = cons.is_feasible_cost(child_costs)
        cand, child_costs = cand[fit], child_costs[fit]
        if not cand.size:
            return
        idx = cand.tolist()
        vals = np.array(Reader(obj, {} if path else singleton_values, tuple(path)).read_all(idx))
        for e, v in zip(idx, vals.tolist()):
            if v > best_val or (v == best_val and tuple(path) + (e,) < best_path):
                best_val, best_path = v, tuple(path) + (e,)
        gains = np.maximum(vals - f_path, 0.0)
        later = np.append(np.cumsum(gains[:0:-1])[::-1], 0.0)  # sum of gains[j + 1:]
        for j, e in enumerate(idx):
            bar = max(best_val, floor)
            if vals[j] + later[j] + BOUND_SLACK * max(1.0, abs(bar)) < bar:
                continue
            path.append(e)
            visit(cand[j + 1:], child_costs[j], vals[j])
            path.pop()

    visit(np.array(part.expensive, dtype=np.intp), np.zeros(cons.k), 0.0)
    return frozenset(best_path), best_val


def best_singleton(obj, elements, values):
    """The best single element v*: argmax of f({e}) over the ascending
    sequence elements, ties to the lowest index, and its value; a NaN value
    never wins, and (None, 0.0) is returned when no value is a number.
    values caches f({e}) keyed by element; the values are read through one
    Reader on the empty prefix over it."""
    numbers = [e for e, v in zip(elements, Reader(obj, values, ()).read_all(elements)) if v == v]
    best_e = max(numbers, key=values.__getitem__, default=None)
    return best_e, 0.0 if best_e is None else values[best_e]


def best_of(sigma, vstar, vstar_val, comp_set, comp_val, calls):
    """Argmax over the greedy sequence, the best singleton (None when no
    singleton fits) and the best complement subset, ties to that order."""
    chosen, value, which = tuple(sigma.order), sigma.value, "greedy-sigma"
    if vstar is not None and vstar_val > value:
        chosen, value, which = (vstar,), vstar_val, "singleton-vstar"
    if comp_val > value:
        chosen, value, which = tuple(sorted(comp_set)), comp_val, "complement-set"
    return SolveResult(
        chosen=chosen,
        value=float(value),
        which=which,
        greedy_order=tuple(sigma.order),
        oracle_calls=calls,
    )


def lambda_greedy(inst, lam):
    """Full static solve on the caller's instance, run_with_updates with no
    update: a fresh engine's finalize(), which drops the objective's prefix
    state. Elements that do not fit the budgets alone are never evaluated."""
    from .harness import run_with_updates  # harness imports this module, through dynamic

    return run_with_updates(inst, lam, ())
