"""Entropy maximization with per-region sensor budgets.

Sensors are Gaussian time series with a sample covariance matrix; the
entropy of a subset measures how informative it is. Each sensor belongs
to a geographical region and each region has a cardinality budget, which
the library encodes as 0/1-cost knapsacks.
"""

import numpy as np

from knapgreedy import (
    EntropyObjective,
    GroundSet,
    Instance,
    lambda_greedy,
    partition_constraints,
)

rng = np.random.default_rng(3)
n = 24

# correlated covariance: nearby sensors carry overlapping information
A = rng.normal(size=(n, n // 2))
Sigma = A @ A.T / (n // 2) + np.eye(n)

regions = [e % 4 for e in range(n)]
budgets = [3, 3, 2, 2]

inst = Instance(
    ground=GroundSet(n),
    constraints=partition_constraints(regions, budgets),
    objective=EntropyObjective(Sigma),
)

result = lambda_greedy(inst, lam=4.0)
print("picked sensors:", sorted(result.chosen))
print("entropy:", round(result.value, 4))

counts = [sum(1 for e in result.chosen if regions[e] == r) for r in range(4)]
print("per-region counts:", counts, "budgets:", budgets)
assert all(c <= b for c, b in zip(counts, budgets))

# ignoring regional structure buys almost nothing and breaks the budgets
top = [int(e) for e in np.argsort(np.diag(Sigma))[::-1][: sum(budgets)]]
naive_counts = [sum(1 for e in top if regions[e] == r) for r in range(4)]
print("naive top-variance picks:", sorted(top))
print("naive entropy:", round(EntropyObjective(Sigma).value(set(top)), 4))
print("naive per-region counts:", naive_counts, "(violates the budgets)")
