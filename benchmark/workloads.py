"""Seeded instance documents and the op list of each benchmark workload.

Everything here is plain data: the library only ever sees the JSON-style
documents built below, turned into instances by ``io.instance_from_dict``.
The same seed gives the same documents, op list and update walks.
"""

from __future__ import annotations

import math

import numpy as np

FAMILIES = ("modular", "cut", "dpp", "entropy")

# Sizes. Each workload keeps a fixed structure (families, k, lambda, tau,
# sigma, n) and draws only the numbers from the seed, so two seeds give
# different inputs of the same shape and comparable timings.
STATIC_N = 120
STATIC_BUDGET_FRACTION = 0.3
STATIC_KLAM = ((2, 1.0), (2, 2.0), (3, 1.0), (3, 3.0))
HEAVY_COUNT = 20
# Instances per (family, k, lambda) cell, and heavy-tail instances. Distinct
# instances rather than repeated passes: a pass then outlasts half a run, so
# every run times each op once and the latency sample count is fixed.
STATIC_ROUNDS = 5
CUT_OUT_DEGREE = 5

DRIFT_N = 60
# Ops per family and sigma at tau=n and at tau=3n. Every op has its own
# instance and walk, since the walk moves quality far more than the instance
# does. The counts put the median inside the tau=n ops and the tail (the
# 11th slowest) amid the tau=3n dpp and entropy ops, not on the step
# between two classes.
DRIFT_OPS = {"entropy/partition": (5, 5), "dpp/knapsack": (5, 5), "cut/knapsack": (5, 2)}
DRIFT_SIGMAS = (0.05, 0.1)
DRIFT_UPDATES = 50
DRIFT_INITIAL_FRACTION = 0.5

# verify-small: the share of ops at each ground-set size. The brute force
# grows as 3^n, so sizes are weighted to keep the median and the tail inside
# one size class each instead of on the step between two.
VERIFY_SIZES = ((7, 6), (8, 6), (9, 10), (10, 8))
VERIFY_ROUNDS = 5
# A fixed budget fraction: drawing it per instance made the brute force's
# feasible-set count, and so oracle_calls, vary by 10% between seeds.
VERIFY_BUDGET_FRACTION = 0.45
# Budget walk of the dynamic engine, as multiples of the instance weights:
# built tight, then loosened, tightened and loosened back to the instance.
VERIFY_WALK = (0.3, 0.6, 0.25, 1.0)


def _objective_doc(rng, family, n):
    if family == "modular":
        return {"kind": "modular", "values": rng.uniform(0.0, 2.0, n).tolist()}
    if family == "cut":
        arcs = []
        for u in range(n):
            targets = rng.choice(n - 1, size=CUT_OUT_DEGREE, replace=False)
            for v in sorted(int(t) + int(t >= u) for t in targets):
                arcs.append([u, v, float(rng.uniform(0.1, 2.0))])
        return {"kind": "cut", "arcs": arcs}
    if family == "dpp":
        qd = {
            "q": rng.uniform(0.5, 1.5, n).tolist(),
            "features": {
                "topic": rng.normal(size=(n, 4)).tolist(),
                "place": rng.uniform(size=(n, 2)).tolist(),
            },
            "sigmas": {"topic": 4.0, "place": 0.5},
        }
        return {"kind": "dpp", "qd": qd}
    if family == "entropy":
        r = max(2, n // 2)
        A = rng.normal(size=(n, r))
        Sigma = A @ A.T / r + np.eye(n)
        return {"kind": "entropy", "Sigma": (0.5 * (Sigma + Sigma.T)).tolist()}
    raise ValueError(family)


def knapsack_doc(rng, family, n, k, fraction):
    costs = rng.uniform(0.2, 2.0, size=(k, n))
    weights = fraction * costs.sum(axis=1)
    return {
        "n": n,
        "k": k,
        "costs": costs.tolist(),
        "weights": weights.tolist(),
        "objective": _objective_doc(rng, family, n),
    }


def heavy_tail_doc(rng, family, n, k, fraction):
    """Knapsack instance where HEAVY_COUNT elements cost more than W/k (but
    at most W) in one knapsack each, Pareto-distributed so most sit just
    above W/k; lambda=1 leaves them to the exhaustive complement search."""
    doc = knapsack_doc(rng, family, n, k, fraction)
    costs = np.asarray(doc["costs"])
    weights = np.asarray(doc["weights"])
    heavy = rng.choice(n, size=HEAVY_COUNT, replace=False)
    for e in heavy:
        j = int(rng.integers(k))
        costs[j, e] = min(weights[j], weights[j] / k * (1.0 + 0.5 * rng.pareto(2.0)))
    doc["costs"] = costs.tolist()
    return doc


def partition_doc(rng, n, groups):
    """Entropy objective under per-group cardinality budgets (0/1 costs)."""
    labels = [int(x) for x in rng.integers(groups, size=n)]
    for g in range(groups):  # every group non-empty
        labels[g] = g
    sizes = np.bincount(labels, minlength=groups)
    return {
        "n": n,
        "partition": {"labels": labels, "budgets": (sizes // 2).tolist()},
        "objective": _objective_doc(rng, "entropy", n),
    }


def static_solve(seed):
    """One op: lambda_greedy on an n=STATIC_N instance at 0.3 of total cost."""
    rng = np.random.default_rng([seed, 1])
    ops = []
    for _ in range(STATIC_ROUNDS):
        for family in FAMILIES:
            for k, lam in STATIC_KLAM:
                doc = knapsack_doc(rng, family, STATIC_N, k, STATIC_BUDGET_FRACTION)
                ops.append({"doc": doc, "lam": lam, "label": "%s/k%d/lam%g" % (family, k, lam)})
        doc = heavy_tail_doc(rng, "dpp", STATIC_N, 3, STATIC_BUDGET_FRACTION)
        ops.append({"doc": doc, "lam": 1.0, "label": "dpp/heavy-tail/k3/lam1"})
    return ops


def drift_race(seed):
    """One op: run_dynamic, engine versus restart on one budget walk."""
    rng = np.random.default_rng([seed, 2])
    n = DRIFT_N
    families = (
        ("entropy/partition", lambda: partition_doc(rng, n, 3), 3.0),
        ("dpp/knapsack", lambda: knapsack_doc(rng, "dpp", n, 2, 1.0), 1.0),
        ("cut/knapsack", lambda: knapsack_doc(rng, "cut", n, 2, 1.0), 1.0),
    )
    ops = []
    for tau_class, factor in enumerate((1, 3)):
        for sigma in DRIFT_SIGMAS:
            for label, make_doc, lam in families:
                for _ in range(DRIFT_OPS[label][tau_class]):
                    sim = {
                        "tau": factor * n,
                        "noise_sigma": sigma,
                        "n_updates": DRIFT_UPDATES,
                        "seed": int(rng.integers(2**31)),
                        "lam": lam,
                        "initial_fraction": DRIFT_INITIAL_FRACTION,
                    }
                    ops.append({"doc": make_doc(), "lam": lam, "sim": sim,
                                "label": "%s/tau%dn/sigma%g" % (label, factor, sigma)})
    return ops


def verify_small(seed):
    """One op: a small instance solved by the engine through a budget walk
    and by lambda_greedy, both checked against the brute-force oracle."""
    rng = np.random.default_rng([seed, 3])
    ops = []
    for _ in range(VERIFY_ROUNDS):
        for n, count in VERIFY_SIZES:
            for i in range(count):
                family = FAMILIES[i % len(FAMILIES)]
                k = 1 + i % 3
                lam = float((1, math.ceil(k / 2), k)[(i // 3) % 3])
                doc = _small_doc(rng, family, n, k)
                ops.append({
                    "doc": doc,
                    "lam": lam,
                    "walk": list(VERIFY_WALK),
                    "label": "%s/n%d/k%d/lam%g" % (family, n, k, lam),
                })
    return ops


def _small_doc(rng, family, n, k):
    """Small knapsack instance at VERIFY_BUDGET_FRACTION of total cost in
    which at least one element fits under the tightest budget of the walk,
    so the engine can always be built."""
    while True:
        costs = rng.uniform(0.2, 2.0, size=(k, n))
        weights = VERIFY_BUDGET_FRACTION * costs.sum(axis=1)
        if np.any(np.all(costs <= min(VERIFY_WALK) * weights[:, None], axis=0)):
            break
    return {
        "n": n,
        "k": k,
        "costs": costs.tolist(),
        "weights": weights.tolist(),
        "objective": _objective_doc(rng, family, n),
    }


WORKLOADS = {
    "static-solve": static_solve,
    "drift-race": drift_race,
    "verify-small": verify_small,
}
