"""Instance files.

Schema:
    {"n": int, "k": int, "costs": [[real]], "weights": [real],
     "objective": {"kind": "modular"|"cut"|"dpp"|"entropy", ...}}

Instead of costs/weights, a per-group cardinality budget may be given as
    {"partition": {"labels": [int], "budgets": [int]}}
which expands to 0/1-cost knapsacks, one per group.

Objective fields by kind:
    modular: {"values": [real]}
    cut:     {"arcs": [[u, v, w]]}
    dpp:     {"L": [[real]]} or
             {"qd": {"q": [...], "features": {name: [[real]]}, "sigmas": {name: real}}}
    entropy: {"Sigma": [[real]]} or {"Sigma_csv": "path"}
"""

from __future__ import annotations

import json
import os

import numpy as np

from .core import GroundSet, Instance, InvalidInstanceError, KnapsackConstraints
from .objectives import (
    DirectedCutObjective,
    DppLogDetObjective,
    EntropyObjective,
    ModularObjective,
    PartitionBudget,
    QdKernelSpec,
    build_qd_kernel,
)


def _load_objective(spec, n, base_dir):
    kind = spec.get("kind")
    if kind == "modular":
        values = np.asarray(spec["values"], dtype=float)
        finite = np.isfinite(values)
        if not finite.all():
            raise InvalidInstanceError("non-finite modular value for element %d" % finite.argmin())
        return ModularObjective(values)
    if kind == "cut":
        return DirectedCutObjective(n, spec["arcs"])
    if kind == "dpp":
        if "L" in spec:
            L = np.asarray(spec["L"], dtype=float)
        else:
            qd = spec["qd"]
            L = build_qd_kernel(QdKernelSpec(qd["q"], qd["features"], qd["sigmas"]))
        return DppLogDetObjective(L, jitter=spec.get("jitter", 1e-10))
    if kind == "entropy":
        if "Sigma" in spec:
            Sigma = np.asarray(spec["Sigma"], dtype=float)
        else:
            path = spec["Sigma_csv"]
            if not os.path.isabs(path):
                path = os.path.join(base_dir, path)
            Sigma = np.loadtxt(path, delimiter=",", ndmin=2)
        return EntropyObjective(Sigma)
    raise InvalidInstanceError("unknown objective kind: %r" % kind)


def instance_from_dict(doc, base_dir="."):
    n = int(doc["n"])
    if "partition" in doc:
        part = doc["partition"]
        cons = PartitionBudget(part["labels"], part["budgets"]).to_constraints()
    else:
        cons = KnapsackConstraints(doc["costs"], doc["weights"])
        if "k" in doc and int(doc["k"]) != cons.k:
            raise InvalidInstanceError(
                "dimension mismatch: k=%d but %d cost rows" % (int(doc["k"]), cons.k)
            )
    obj = _load_objective(doc.get("objective", {}), n, base_dir)
    return Instance(ground=GroundSet(n), constraints=cons, objective=obj)


def load_instance(path):
    with open(path) as fh:
        doc = json.load(fh)
    return instance_from_dict(doc, base_dir=os.path.dirname(os.path.abspath(path)))
