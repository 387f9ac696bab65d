"""Shared instance generators and independent reference oracles.

The reference oracles here deliberately avoid the library's own numerics:
determinants go through cofactor expansion, eigenvalues through power
iteration, cut values through a plain adjacency scan, and the from-scratch
greedy is a standalone loop that shares no step code with the solver or the
dynamic engine.
"""

import math

import numpy as np
import pytest

from knapgreedy import (
    DirectedCutObjective,
    DppLogDetObjective,
    EntropyObjective,
    GroundSet,
    Instance,
    KnapsackConstraints,
    ModularObjective,
    Solution,
)


# ---------------------------------------------------------------------------
# reference oracles

def cofactor_det(M):
    """Determinant by first-row cofactor expansion. O(n!) but independent of
    any factorization code."""
    M = [list(row) for row in M]
    n = len(M)
    if n == 0:
        return 1.0
    if n == 1:
        return M[0][0]
    total = 0.0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in M[1:]]
        total += (-1) ** j * M[0][j] * cofactor_det(minor)
    return total


def power_iteration_max_eig(Sigma, iters=500):
    Sigma = np.asarray(Sigma, dtype=float)
    v = np.ones(Sigma.shape[0]) / math.sqrt(Sigma.shape[0])
    for _ in range(iters):
        w = Sigma @ v
        v = w / np.linalg.norm(w)
    return float(v @ Sigma @ v)


def adjacency_scan_cut(n, arcs, S):
    total = 0.0
    inside = [False] * n
    for e in S:
        inside[e] = True
    for u, v, w in arcs:
        if inside[u] and not inside[v]:
            total += w
    return total


def reference_greedy(obj, cons, part):
    """Density greedy over the cheap set, written out on its own so that
    restart-equivalence checks compare against code the library does not
    share: evaluate f(sigma + e) for every remaining candidate, take the
    largest gain per maximum cost (ties to the lowest index), and append it
    when feasible with nonnegative gain. It evaluates on a clone, which
    tracks no prefix, so every call is a from-scratch evaluation that leaves
    the caller's objective and its counter alone."""
    obj = obj.clone()
    sigma = Solution(order=[], cost_acc=np.zeros(cons.k), value=0.0)
    pool = list(part.cheap)
    current = frozenset()
    while pool:
        best_e, best_density, best_fval = None, None, None
        for e in pool:
            fe = obj.value(current | {e})
            density = (fe - sigma.value) / float(cons.costs[:, e].max())
            if best_density is None or density > best_density:
                best_e, best_density, best_fval = e, density, fe
        pool.remove(best_e)
        gain = best_fval - sigma.value
        new_cost = sigma.cost_acc + cons.costs[:, best_e]
        if gain >= 0 and cons.is_feasible_cost(new_cost):
            sigma.order.append(best_e)
            sigma.cost_acc = new_cost
            sigma.value = best_fval
            current = current | {best_e}
    return sigma


# ---------------------------------------------------------------------------
# random instance generators

def random_spd(rng, n):
    A = rng.normal(size=(n, n))
    return A @ A.T / n + np.eye(n)


def random_objective(rng, n, family):
    if family == "modular":
        return ModularObjective(rng.uniform(0.0, 2.0, n))
    if family == "cut":
        arcs = [
            (u, v, float(rng.uniform(0.0, 2.0)))
            for u in range(n)
            for v in range(n)
            if u != v and rng.random() < 0.4
        ]
        return DirectedCutObjective(n, arcs)
    if family == "dpp":
        return DppLogDetObjective(random_spd(rng, n))
    if family == "entropy":
        return EntropyObjective(random_spd(rng, n))
    raise ValueError(family)


def random_instance(rng, n, k, family):
    costs = rng.uniform(0.2, 2.0, size=(k, n))
    totals = costs.sum(axis=1)
    weights = rng.uniform(np.minimum(1.0, 0.3 * totals), 0.6 * totals)
    return Instance(
        ground=GroundSet(n),
        constraints=KnapsackConstraints(costs, weights),
        objective=random_objective(rng, n, family),
    )


FAMILIES = ("modular", "cut", "dpp", "entropy")


# ---------------------------------------------------------------------------
# the worked n+1-item single-knapsack example (n = 4)

def worked_example_instance(W=2.0):
    return Instance(
        ground=GroundSet(5),
        constraints=KnapsackConstraints([[1, 1, 2, 2, 1]], [W]),
        objective=ModularObjective([0.25, 0.25, 1.0, 1.0, 3.0]),
    )


@pytest.fixture
def worked_example():
    return worked_example_instance()
