"""Shared instance generators and independent reference oracles.

The reference oracles here deliberately avoid the library's own numerics:
determinants go through cofactor expansion, eigenvalues through power
iteration, cut values through a plain adjacency scan, and the from-scratch
greedy is a standalone loop that shares no step code with the solver or the
dynamic engine. The loops that faster library code replaced are kept here
as references: chi's per-element walk, the engine's rollback depth by its
definition, the exhaustive complement search, the greedy step that discards
a negative-gain winner one scan at a time, the one-call-per-mask value
table, the mask loop for the optimum and the pairwise curvature scan.
"""

import math
from types import SimpleNamespace

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
)
from knapgreedy.core import FEAS_TOL
from knapgreedy.oracle import (
    CURVATURE_CAP,
    OPT_CAP,
    CurvatureDegenerateError,
    OracleCapError,
)
from knapgreedy.solver import BOUND_SLACK


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
    the caller's objective and its counter alone. Returns the order and its
    value."""
    obj = obj.clone()
    order, value, cost = [], 0.0, np.zeros(cons.k)
    pool = list(part.cheap)
    while pool:
        best_e, best_density, best_fval = None, None, None
        for e in pool:
            fe = obj.value(order + [e])
            density = (fe - value) / float(cons.costs[:, e].max())
            if best_density is None or density > best_density:
                best_e, best_density, best_fval = e, density, fe
        pool.remove(best_e)
        gain = best_fval - value
        new_cost = cost + cons.costs[:, best_e]
        if gain >= 0 and cons.is_feasible_cost(new_cost):
            order.append(best_e)
            value, cost = best_fval, new_cost
    return SimpleNamespace(order=order, value=value)


def reference_chi(cons):
    """chi by the per-element loop: per knapsack, walk the costs in
    descending order and count them until the running sum exceeds the
    budget; the minimum over knapsacks."""
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


def reference_restart_depth(order, history, old, new, singleton_values):
    """The engine's rollback depth by its definition, one depth and one
    element at a time: the first j at which order[j] is not cheap under
    new, order[:j + 1] does not fit new, or an element outside order[:j]
    that is cheap under new and fits on top of order[:j] under new, but was
    not cheap and fitting under old, has a singleton density (a number) at
    least order[j]'s density less the slack; len(order) when there is none.
    old and new are (constraints, partition) pairs; history is the
    prefix's Solution.history under old."""
    (old_cons, old_part), (cons, part) = old, new
    max_costs = cons.max_costs
    for j, e in enumerate(order):
        (value, cost), (next_value, next_cost) = history[j], history[j + 1]
        if e not in part.cheap or not cons.is_feasible_cost(next_cost):
            return j
        density = (next_value - value) / max_costs[e]
        floor = density - BOUND_SLACK * (max(1.0, abs(density)) + value / min(max_costs))
        for x in part.cheap:
            grown = cost + cons.costs[:, x]
            newcomer = x not in order[:j] and cons.is_feasible_cost(grown) and not (
                x in old_part.cheap and old_cons.is_feasible_cost(grown))
            if newcomer and singleton_values[x] / max_costs[x] >= floor:
                return j
    return len(order)


def reference_complement(obj, cons, part):
    """The exhaustive complement search: depth-first enumeration of every
    feasible subset of the expensive set in index order, each evaluated once
    as its DFS path plus one element, keeping the first strictly better
    value. Returns (set, value)."""
    elems = list(part.expensive)
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


def reference_value_table(obj, n):
    """f over all 2^n subsets, indexed by bitmask: one value(S) call per
    mask in mask order, the loop that Objective.value_table's batched
    overrides replaced, verbatim."""
    table = np.empty(1 << n)
    table[0] = 0.0
    for mask in range(1, 1 << n):
        S = [e for e in range(n) if mask >> e & 1]
        table[mask] = obj.value(S)
    return table


def reference_opt(inst):
    """The mask loop that oracle.brute_force_opt's table argmax replaced,
    verbatim: every feasible mask evaluated on the instance's objective,
    ties to the lexicographically smallest index tuple, the empty set
    (value 0) always a candidate."""
    n = inst.ground.n
    if n > OPT_CAP:
        raise OracleCapError("instance too large for oracle: n=%d > %d" % (n, OPT_CAP))
    cons = inst.constraints
    obj = inst.objective
    best_val, best_set = 0.0, ()
    for mask in range(1, 1 << n):
        S = [e for e in range(n) if mask >> e & 1]
        if not cons.is_feasible(S):
            continue
        v = obj.value(S)
        key = tuple(S)
        if v > best_val or (v == best_val and key < best_set):
            best_val, best_set = v, key
    return float(best_val), best_set


def reference_curvature(obj, n):
    """The pairwise curvature scan that oracle.brute_force_curvature's
    subset-max transform replaced, verbatim: every submask pair A of B over
    the masks omitting omega, O(n * 3^(n-1)) table lookups, on the
    one-call-per-mask table."""
    if n > CURVATURE_CAP:
        raise OracleCapError("instance too large for oracle: n=%d > %d" % (n, CURVATURE_CAP))
    table = reference_value_table(obj, n)
    alpha = 0.0
    for omega in range(n):
        bit = 1 << omega
        others = [1 << e for e in range(n) if e != omega]
        full = sum(others)
        # All masks B omitting omega, then all submasks A of B.
        b = full
        while True:
            num = table[b | bit] - table[b]
            a = b
            while True:
                den = table[a | bit] - table[a]
                if den != 0.0:
                    alpha = max(alpha, 1.0 - num / den)
                elif num > 1e-12:
                    # Diminishing returns force num <= den; a zero gain that
                    # grows positive in a larger context breaks that, and no
                    # finite scalar can witness the pair.
                    raise CurvatureDegenerateError(
                        "not submodular under curvature semantics: zero gain "
                        "grows positive for element %d" % omega
                    )
                if a == 0:
                    break
                a = (a - 1) & b
            if b == 0:
                break
            b = (b - 1) & full
    return float(alpha)


def eager_greedy_step(obj, cons, sigma, pool):
    """DynamicGreedy.step without the negative-density early end: the
    winner is removed and discarded one scan at a time, so a pool whose
    gains are all negative takes one scan per candidate to empty. The
    winner is appended when its gain is a number at least 0 and the grown
    set fits, and discarded otherwise."""
    obj.follow(sigma.order)
    base = sigma.value
    max_costs = cons.max_costs
    best_e, best_density, best_fval = None, None, None
    for e in pool:
        fe = obj.value(sigma.order + [e])
        density = (fe - base) / max_costs[e]
        if best_density is None or density > best_density:
            best_e, best_density, best_fval = e, density, fe
    pool.remove(best_e)
    cost = sigma.cost_acc + cons.costs[:, best_e]
    if best_fval - base >= 0 and cons.is_feasible_cost(cost):
        sigma.take(best_e, best_fval, cost)


def eager_greedy_calls(cheap_size):
    """Oracle calls of an eager greedy phase over cheap_size candidates: one
    scan per step, and every step removes one candidate."""
    return cheap_size * (cheap_size + 1) // 2


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


def twin_instance(rng, family, pairs):
    """2 * pairs elements where 2i and 2i + 1 are twins: identical costs and
    interchangeable in f, so every density comparison between them ties
    exactly, in the fast path and in the from-scratch reference alike."""
    n = 2 * pairs
    twin = np.repeat(np.arange(pairs), 2)
    costs = np.repeat(rng.integers(1, 4, size=(2, pairs)).astype(float), 2, axis=1)
    weights = 0.5 * costs.sum(axis=1)
    if family == "modular":
        obj = ModularObjective(rng.integers(0, 3, pairs)[twin].astype(float))
    elif family == "cut":
        arcs = [(u, v, float(rng.integers(1, 3)))
                for u in range(pairs) for v in range(pairs) if u != v and rng.random() < 0.5]
        obj = DirectedCutObjective(n, [(2 * u + a, 2 * v + b, w)
                                       for u, v, w in arcs for a in (0, 1) for b in (0, 1)])
    else:
        M = rng.normal(size=(pairs, 3))[twin]
        if family == "dpp-duplicate-rows":
            L = M @ M.T + np.eye(n)
            L[1::2] = L[::2]
            L[:, 1::2] = L[:, ::2]
            obj = DppLogDetObjective(L)
        elif family == "dpp":
            obj = DppLogDetObjective(M @ M.T + np.eye(n))
        else:
            obj = EntropyObjective(M @ M.T + np.eye(n))
    return Instance(GroundSet(n), KnapsackConstraints(costs, weights), obj)


def integer_instance(rng, n, k, family):
    """Integer costs, budgets and objective data, so that many subsets tie
    exactly in value; every element fits its budgets alone."""
    costs = rng.integers(1, 4, size=(k, n)).astype(float)
    weights = rng.integers(costs.max(axis=1), np.maximum(costs.max(axis=1), costs.sum(axis=1) // 2) + 1)
    if family == "modular":
        obj = ModularObjective(rng.integers(0, 4, n).astype(float))
    elif family == "cut":
        arcs = [(u, v, float(rng.integers(1, 3)))
                for u in range(n) for v in range(n) if u != v and rng.random() < 0.3]
        obj = DirectedCutObjective(n, arcs)
    else:
        A = rng.integers(-1, 2, size=(n, 3)).astype(float)
        K = A @ A.T + np.eye(n)
        obj = DppLogDetObjective(K) if family == "dpp" else EntropyObjective(K)
    return Instance(GroundSet(n), KnapsackConstraints(costs, weights.astype(float)), obj)


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
