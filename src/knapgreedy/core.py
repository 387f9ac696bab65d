"""Ground sets, knapsack constraints, value oracles and instance plumbing.

Elements are dense integer indices 0..n-1 with a fixed total order; every
tie-break in the package resolves to the lowest index so that repeated runs
are bit-identical.
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

# Feasibility comparisons allow this much absolute slack, to absorb
# accumulated floating-point error in cost sums.
FEAS_TOL = 1e-9
# Most subsets of one size handled at once by subsets_by_size's callers.
SUBSET_CHUNK = 4096


class InvalidInstanceError(ValueError):
    """Raised when an instance violates a structural invariant."""


class EmptyAfterReductionError(ValueError):
    """Raised when no element survives the singleton-feasibility filter."""


def _whole(x, what):
    """x as an int if it is a whole number, else InvalidInstanceError naming
    what (int() would truncate 2.5 to 2; true is none). Index-heavy callers skip it for an int."""
    if isinstance(x, (float, np.floating)) and x.is_integer():
        return int(x)
    if x.__class__ is not bool and hasattr(type(x), "__index__"):
        return operator.index(x)  # an int or a numpy integer; not a str or None
    raise InvalidInstanceError("%s must be a whole number, got %r" % (what, x))


def _shape(x, kind, what):
    """x, after checking that it is a JSON object (kind dict) or list (kind
    list), else InvalidInstanceError naming what."""
    if not isinstance(x, kind):
        name = "object" if kind is dict else "list"
        raise InvalidInstanceError("%s must be a JSON %s, got %s" % (what, name, type(x).__name__))
    return x


@dataclass(frozen=True)
class GroundSet:
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise InvalidInstanceError("ground set must contain at least one element")


class KnapsackConstraints:
    """k linear cost functions with budgets.

    costs is a (k, n) nonnegative matrix, weights a length-k nonnegative
    vector. A set S is feasible iff costs[i] summed over S stays within
    limit[i] = weights[i] + FEAS_TOL for every i. A budget vector is
    checked and taken in one place, _take_weights, at construction and in
    with_weights: one of the wrong length, or with a non-finite or negative
    entry, raises InvalidInstanceError naming the first offending knapsack.
    partitions holds split_by_threshold's partition of these budgets per
    lam; a with_weights copy starts with none.
    """

    def __init__(self, costs, weights):
        self.costs = np.asarray(costs, dtype=float)
        if self.costs.ndim != 2:
            raise InvalidInstanceError("costs must be a k x n matrix")
        self._take_weights(weights)

    def _take_weights(self, weights):
        """Check a budget vector and take it as weights, with limit, the
        budgets with the feasibility slack: a cost sum is within budget iff
        it is at most limit, per knapsack."""
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 1 or weights.shape[0] != self.costs.shape[0]:
            got = "length %d" % weights.shape[0] if weights.ndim == 1 else "shape %s" % (weights.shape,)
            raise InvalidInstanceError(
                "dimension mismatch: weights %s, costs rows %d" % (got, self.costs.shape[0])
            )
        for i, w in enumerate(weights.tolist()):
            if not math.isfinite(w):
                raise InvalidInstanceError("non-finite weight for knapsack %d" % i)
            if w < 0:
                raise InvalidInstanceError("negative weight for knapsack %d" % i)
        self.weights, self.limit, self.partitions = weights, weights + FEAS_TOL, {}

    @property
    def k(self):
        return self.costs.shape[0]

    @property
    def n(self):
        return self.costs.shape[1]

    @functools.cached_property
    def max_costs(self):
        """Largest per-knapsack cost of each element, the greedy's density
        denominator, as plain floats for the hot loop. Computed on first
        use; with_weights copies made after that share it."""
        return self.costs.max(axis=0).tolist()

    @functools.cached_property
    def cost_error(self):
        """Why costs is no valid cost matrix, naming the first non-finite or
        negative cost or the first element whose costs are all 0, or None
        when it is one: validate's verdict. Computed on first use; with_weights
        copies made after that share it, as the costs do."""
        for what, bad in (("non-finite", ~np.isfinite(self.costs)), ("negative", self.costs < 0)):
            if bad.any():
                i, e = np.argwhere(bad)[0]
                return "%s cost for element %d in knapsack %d" % (what, e, i)
        if 0 in self.max_costs:  # costs are nonnegative, so a max <= 0 is 0
            return "zero max-cost element %d" % self.max_costs.index(0)
        return None

    def with_weights(self, weights):
        """The same costs (with their column maxima and cost verdict, once
        computed) under another budget vector, with no partition yet."""
        other = copy.copy(self)
        other._take_weights(weights)
        return other

    def fits(self, base=None):
        """Boolean mask over elements: is_feasible_cost of each one alone,
        or with base, a prefix's cost vector, of base plus its costs (the
        sums the prefix makes with it appended)."""
        return self.is_feasible_cost(self.costs.T if base is None else base + self.costs.T)

    def set_cost(self, S):
        """Cost vector of a set: component i is the sum of costs[i] over S."""
        idx = list(S)
        if not idx:
            return np.zeros(self.k)
        return self.costs[:, idx].sum(axis=1)

    def is_feasible_cost(self, cost):
        """The package's one budget test: a cost sum fits when each
        component is at most limit. One length-k vector gives a numpy bool,
        a stack of shape (..., k) a boolean mask over its leading axes."""
        return np.logical_and.reduce(cost <= self.limit, axis=-1)

    def is_feasible(self, S):
        return self.is_feasible_cost(self.set_cost(S))


def subsets_by_size(n):
    """Every nonempty subset of range(n), by size and then in lexicographic
    order, as (rows, masks) chunks of at most SUBSET_CHUNK subsets of one
    size: rows is a (G, s) array of ascending elements, one subset per row,
    and masks their bitmasks. Memory stays at one chunk, never 2^n x n."""
    for s in range(1, n + 1):
        combos, total = itertools.combinations(range(n), s), math.comb(n, s)
        for start in range(0, total, SUBSET_CHUNK):
            g = min(SUBSET_CHUNK, total - start)
            flat = itertools.chain.from_iterable(itertools.islice(combos, g))
            rows = np.fromiter(flat, dtype=np.intp, count=g * s).reshape(g, s)
            yield rows, (1 << rows).sum(axis=1)


class PrefixState:
    """Oracle state of a tracked prefix P, kept as a stack.

    A family keeps, for every depth j <= len(P), what it needs to answer
    f(P[:j] + [e]) without a from-scratch evaluation, indexed by j. Popping
    back to depth j is then a truncation, and nothing is downdated. P
    holds distinct elements, so no stack is ever deeper than n + 1.
    Subclasses implement _push(d, e), which extends depth d by e and
    returns False when it cannot (tracking stops there), and _extend(d, e),
    which returns f(P[:d] + [e]) or None to fall back to Objective._value.
    Objective.value reads order and members to tell that a set is P plus
    one element, and asks _extend only then.
    """

    def __init__(self):
        self.order = []
        self.members = set()

    def follow(self, order):
        """Pop to the common prefix with order, then push the rest."""
        keep, common = 0, min(len(self.order), len(order))
        while keep < common and self.order[keep] == order[keep]:
            keep += 1
        self.members.difference_update(self.order[keep:])
        del self.order[keep:]
        for e in order[keep:]:
            if e in self.members or not self._push(len(self.order), e):
                break
            self.order.append(e)
            self.members.add(e)

    def _push(self, d, e):
        raise NotImplementedError

    def _extend(self, d, e):
        raise NotImplementedError


class Objective:
    """Abstract value oracle f: 2^V -> R with call accounting.

    Subclasses implement _value(frozenset) -> float, the from-scratch
    evaluation. Every call to value() is one oracle call and increments
    eval_count by exactly one; f(empty) must be 0. Families that return a
    PrefixState from _prefix_state() answer f(P + [e]) for the prefix P
    named by follow() from that state instead of calling _value. A set
    evaluated in a batch by value_table() is one call too. The built-in
    families implement _values(rows) instead, one arithmetic for a single
    set and for a batch (objectives._BatchedObjective), and set n, the
    size of the ground set they are defined on; None leaves it unchecked.
    """

    _prefix = None  # PrefixState while following a prefix
    n = None

    def __init__(self):
        self.eval_count = 0

    def value(self, S):
        """f(S), one oracle call: the prefix state's f(P + [e]) when S is the
        followed prefix P plus one element e and the state has it, else
        _value(S)."""
        self.eval_count += 1
        S = frozenset(S)
        state = self._prefix
        if state is not None:
            d = len(state.order)
            new = S - state.members if len(S) == d + 1 else ()
            if len(new) == 1:
                (e,) = new
                v = state._extend(d, e)
                if v is not None:
                    return v
        return self._value(S)

    def _value(self, S):
        raise NotImplementedError

    def value_table(self, n):
        """f on every subset of range(n), indexed by bitmask. f(empty) = 0 is
        not a call; every other subset is one oracle call, counted in
        eval_count. This default calls value(S) once per mask in mask order;
        the built-in families evaluate one chunk of same-size subsets at a
        time instead."""
        table = np.zeros(1 << n)
        for mask in range(1, 1 << n):
            table[mask] = self.value([e for e in range(n) if mask >> e & 1])
        return table

    def _prefix_state(self):
        """A PrefixState at the empty prefix, or None (the default) when the
        family evaluates every call from scratch."""
        return None

    def follow(self, order):
        """Hint that the next oracle calls are f(order + [e]): pop the
        tracked prefix back to its common prefix with order and push the
        rest. Makes no oracle call; values still agree with _value up to
        rounding. None drops the state."""
        if order is None:
            self._prefix = None
            return
        if self._prefix is None:
            self._prefix = self._prefix_state()
            if self._prefix is None:
                return
        self._prefix.follow(order)

    def clone(self):
        """Copy with a fresh eval counter and no tracked prefix (underlying
        data is shared)."""
        other = copy.copy(self)
        other.eval_count = 0
        other._prefix = None
        return other


@dataclass
class Instance:
    """Bundle of everything a solve operates on."""

    ground: GroundSet
    constraints: KnapsackConstraints
    objective: Objective


class Solution:
    """Ordered selection with its value and per-knapsack cost vector, and
    the only code that changes one.

    Insertion order matters: the dynamic engine pops elements strictly in
    reverse insertion order. history[i] is the (value, cost vector) of
    order[:i] for every i up to len(order), so value and cost_acc are read
    from its last entry, and truncate() restores an earlier one exactly.
    """

    def __init__(self, k):
        self.order = []
        self.history = [(0.0, np.zeros(k))]

    @property
    def value(self):
        return self.history[-1][0]

    @property
    def cost_acc(self):
        return self.history[-1][1]

    def take(self, e, fe, cost):
        """Record e as appended, with f(order + [e]) = fe and cost vector
        cost (cost_acc + costs[:, e]); the caller decides whether it is."""
        self.order.append(e)
        self.history.append((fe, cost))

    def truncate(self, depth):
        """Roll back to order[:depth] with its value and cost vector."""
        del self.order[depth:], self.history[depth + 1:]


def _check_size(obj, n):
    """InvalidInstanceError unless the objective's size is unset or n."""
    if obj.n is not None and obj.n != n:
        raise InvalidInstanceError("objective has size %d but n=%d" % (obj.n, n))


def validate(inst):
    """Check structural invariants; raises InvalidInstanceError on the first
    violation, naming the offending element. The budgets were checked when
    the constraints were built, and the costs are scanned once per cost
    matrix (KnapsackConstraints.cost_error)."""
    cons, n = inst.constraints, inst.ground.n
    if cons.n != n:
        raise InvalidInstanceError(
            "dimension mismatch: cost matrix has %d columns, ground set has %d elements"
            % (cons.n, n)
        )
    _check_size(inst.objective, n)
    if cons.cost_error is not None:
        raise InvalidInstanceError(cons.cost_error)


def reduce_instance(inst):
    """Split the elements by singleton feasibility under the budgets.

    Returns (kept, removed), ascending element lists: the elements that fit
    every knapsack alone, and the rest, which no feasible set holds. Raises
    EmptyAfterReductionError when nothing fits, the package's one such test,
    made by every solve. The zero-value filler element of the theory is not
    materialized; the solver's negative-marginal skip rule plays its role.
    """
    fits = inst.constraints.fits()
    kept, removed = np.flatnonzero(fits).tolist(), np.flatnonzero(~fits).tolist()
    if not kept:
        raise EmptyAfterReductionError("empty after reduction")
    return kept, removed
