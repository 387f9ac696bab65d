"""Ground sets, knapsack constraints, value oracles and instance plumbing.

Elements are dense integer indices 0..n-1 with a fixed total order; every
tie-break in the package resolves to the lowest index so that repeated runs
are bit-identical.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

# Feasibility comparisons allow this much absolute slack, to absorb
# accumulated floating-point error in cost sums.
FEAS_TOL = 1e-9


class InvalidInstanceError(ValueError):
    """Raised when an instance violates a structural invariant."""


class EmptyAfterReductionError(ValueError):
    """Raised when no element survives the singleton-feasibility filter."""


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
    weights[i] (+ FEAS_TOL) for every i.
    """

    def __init__(self, costs, weights):
        self.costs = np.asarray(costs, dtype=float)
        self.weights = np.asarray(weights, dtype=float)
        if self.costs.ndim != 2:
            raise InvalidInstanceError("costs must be a k x n matrix")
        if self.weights.ndim != 1 or self.weights.shape[0] != self.costs.shape[0]:
            raise InvalidInstanceError(
                "dimension mismatch: weights length %d, costs rows %d"
                % (self.weights.shape[0] if self.weights.ndim == 1 else -1, self.costs.shape[0])
            )

    @property
    def k(self):
        return self.costs.shape[0]

    @property
    def n(self):
        return self.costs.shape[1]

    def with_weights(self, weights):
        return KnapsackConstraints(self.costs, weights)

    def max_cost(self, e):
        return float(self.costs[:, e].max())

    def set_cost(self, S):
        """Cost vector of a set: component i is the sum of costs[i] over S."""
        idx = list(S)
        if not idx:
            return np.zeros(self.k)
        return self.costs[:, idx].sum(axis=1)

    def is_feasible_cost(self, cost_vec, weights=None):
        w = self.weights if weights is None else weights
        return bool(np.all(cost_vec <= w + FEAS_TOL))

    def is_feasible(self, S, weights=None):
        return self.is_feasible_cost(self.set_cost(S), weights)


class Objective:
    """Abstract value oracle f: 2^V -> R with call accounting.

    Subclasses implement _value(frozenset) -> float. Every call to value()
    increments eval_count by exactly one; f(empty) must be 0.
    """

    def __init__(self):
        self.eval_count = 0

    def value(self, S):
        self.eval_count += 1
        return self._value(frozenset(S))

    def _value(self, S):
        raise NotImplementedError

    def clone(self):
        """Copy with a fresh eval counter (underlying data is shared)."""
        other = copy.copy(self)
        other.eval_count = 0
        return other


class RestrictedObjective:
    """View of an objective over a re-indexed subset of the ground set.

    Oracle calls are forwarded to (and counted by) the base objective, so a
    solver running on a reduced instance keeps the caller's accounting.
    """

    def __init__(self, base, new_to_old):
        self.base = base
        self.new_to_old = tuple(new_to_old)

    def _map(self, S):
        return frozenset(self.new_to_old[e] for e in S)

    def value(self, S):
        return self.base.value(self._map(S))

    def _value(self, S):
        return self.base._value(self._map(S))

    @property
    def eval_count(self):
        return self.base.eval_count

    def clone(self):
        return RestrictedObjective(self.base.clone(), self.new_to_old)


@dataclass
class Instance:
    """Bundle of everything a solve operates on.

    index_map, when set, maps this instance's indices back to the indices of
    the instance it was reduced from; traces report original indices with it.
    """

    ground: GroundSet
    constraints: KnapsackConstraints
    objective: Objective
    index_map: tuple | None = None

    def to_original(self, e):
        return e if self.index_map is None else self.index_map[e]


@dataclass
class Solution:
    """Ordered selection with cached per-knapsack costs and cached f-value.

    Insertion order matters: the dynamic engine pops elements strictly in
    reverse insertion order.
    """

    order: list = field(default_factory=list)
    cost_acc: np.ndarray = None
    value: float = 0.0


def marginal(obj, S, omega):
    """f(S | omega) - f(S). Consumes exactly two oracle calls."""
    S = frozenset(S)
    return obj.value(S | frozenset(omega)) - obj.value(S)


def check_weights(weights):
    """Raise InvalidInstanceError unless every budget is finite and
    nonnegative, naming the first offending knapsack."""
    for i, w in enumerate(weights):
        if not np.isfinite(w):
            raise InvalidInstanceError("non-finite weight for knapsack %d" % i)
        if w < 0:
            raise InvalidInstanceError("negative weight for knapsack %d" % i)


def validate(inst):
    """Check structural invariants; raises InvalidInstanceError on the first
    violation, naming the offending element or knapsack."""
    cons = inst.constraints
    if cons.n != inst.ground.n:
        raise InvalidInstanceError(
            "dimension mismatch: cost matrix has %d columns, ground set has %d elements"
            % (cons.n, inst.ground.n)
        )
    for what, bad in (("non-finite", ~np.isfinite(cons.costs)), ("negative", cons.costs < 0)):
        if bad.any():
            i, e = np.argwhere(bad)[0]
            raise InvalidInstanceError("%s cost for element %d in knapsack %d" % (what, e, i))
    check_weights(cons.weights)
    col_max = cons.costs.max(axis=0)
    zero = np.nonzero(col_max <= 0)[0]
    if zero.size:
        raise InvalidInstanceError("zero max-cost element %d" % zero[0])


def reduce_instance(inst):
    """Drop every element whose singleton cost violates some knapsack.

    Returns (reduced instance, removed element list). The reduced instance
    is re-indexed densely and carries index_map back to the original
    indices. The theoretical zero-value filler element is not materialized;
    the solver's negative-marginal skip rule plays its role.
    """
    cons = inst.constraints
    keep, removed = [], []
    for e in range(inst.ground.n):
        if np.all(cons.costs[:, e] <= cons.weights + FEAS_TOL):
            keep.append(e)
        else:
            removed.append(e)
    if not keep:
        raise EmptyAfterReductionError("empty after reduction")
    if not removed:
        return inst, []
    sub = Instance(
        ground=GroundSet(len(keep)),
        constraints=KnapsackConstraints(cons.costs[:, keep], cons.weights),
        objective=RestrictedObjective(inst.objective, keep),
        index_map=tuple(inst.to_original(e) for e in keep),
    )
    return sub, [inst.to_original(e) for e in removed]
