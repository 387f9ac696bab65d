"""Instance files.

Schema:
    {"n": int, "k": int, "costs": [[real]], "weights": [real],
     "objective": {"kind": "modular"|"cut"|"dpp"|"entropy", ...}}

"n" and "k" are whole numbers: 2.0 reads as 2, and 2.5 and true are rejected.
Instead of costs/weights, a per-group cardinality budget may be given as
    {"partition": {"labels": [int], "budgets": [int]}}
which expands to 0/1-cost knapsacks, one per group.

Objective fields by kind:
    modular: {"values": [real]}
    cut:     {"arcs": [[u, v, w]]}
    dpp:     {"L": [[real]]} or
             {"qd": {"q": [...], "features": {name: [[real]]}, "sigmas": {name: real}}},
             and optionally "jitter": real (DppLogDetObjective's default otherwise)
    entropy: {"Sigma": [[real]]} or {"Sigma_csv": "path"}

The file, "objective", "partition", "qd" and its "features" and "sigmas"
must be JSON objects, "arcs" and "labels" lists, each arc a list of three
and each feature matrix a list of rows; any other shape raises
InvalidInstanceError naming the field, and so does an array that is
ragged or holds something that is not a number (_array), and an arc
weight, jitter or bandwidth that is not one number (_number).
"""

from __future__ import annotations

import json
import os

import numpy as np

from .core import GroundSet, Instance, InvalidInstanceError, KnapsackConstraints, _shape, _whole
from .objectives import (
    DirectedCutObjective,
    DppLogDetObjective,
    EntropyObjective,
    ModularObjective,
    build_qd_kernel,
    partition_constraints,
)


def _array(x, what):
    """x as a float array, else InvalidInstanceError naming what: the one
    reader of every array a file gives, since numpy's error names no field."""
    try:
        return np.asarray(x, dtype=float)
    except (TypeError, ValueError):
        raise InvalidInstanceError("%s must hold only numbers, in rows of equal length" % what) from None


def _number(x, what):
    """x as a float if it is a JSON number, else InvalidInstanceError naming what."""
    if x.__class__ is bool or not isinstance(x, (int, float, np.integer, np.floating)):
        raise InvalidInstanceError("%s must be a number, got %r" % (what, x))
    return float(x)


def _load_objective(spec, n, base_dir):
    kind = _shape(spec, dict, "objective").get("kind")
    if kind == "modular":
        obj = ModularObjective(_array(spec["values"], "modular values"))
        finite = np.isfinite(obj.singleton_values)
        if not finite.all():
            raise InvalidInstanceError("non-finite modular value for element %d" % finite.argmin())
        return obj
    if kind == "cut":
        arcs = _shape(spec["arcs"], list, "arcs")
        # one pass that builds no message: a file may hold thousands of arcs
        bad = [i for i, arc in enumerate(arcs) if type(arc) is not list or len(arc) != 3]
        if bad:
            i = bad[0]
            _shape(arcs[i], list, "arc %d" % i)
            raise InvalidInstanceError("arc %d must be [tail, head, weight], got %r" % (i, arcs[i]))
        if _array([arc[2] for arc in arcs], "arc weights").ndim != 1:
            raise InvalidInstanceError("arc weights must be numbers, one per arc")
        return DirectedCutObjective(n, arcs)
    if kind == "dpp":
        if "L" in spec:
            L = _array(spec["L"], "L")
        else:
            qd = _shape(spec["qd"], dict, "qd")
            features = _shape(qd["features"], dict, "qd features")
            L = build_qd_kernel(_array(qd["q"], "qd q"),
                                {f: _array(v, "feature family %r" % f) for f, v in features.items()},
                                {f: _number(s, "bandwidth of feature family %r" % f)
                                 for f, s in _shape(qd["sigmas"], dict, "qd sigmas").items()})
        jitter = {"jitter": _number(spec["jitter"], "jitter")} if "jitter" in spec else {}
        return DppLogDetObjective(L, **jitter)
    if kind == "entropy":
        if "Sigma" in spec:
            Sigma = _array(spec["Sigma"], "Sigma")
        else:
            path = spec["Sigma_csv"]
            if not os.path.isabs(path):
                path = os.path.join(base_dir, path)
            Sigma = np.loadtxt(path, delimiter=",", ndmin=2)
        return EntropyObjective(Sigma)
    raise InvalidInstanceError("unknown objective kind: %r" % kind)


def instance_from_dict(doc, base_dir="."):
    n = _whole(_shape(doc, dict, "instance file")["n"], "n")
    if "partition" in doc:
        part = _shape(doc["partition"], dict, "partition")
        cons = partition_constraints(_shape(part["labels"], list, "partition labels"),
                                     _array(part["budgets"], "partition budgets"))
    else:
        cons = KnapsackConstraints(_array(doc["costs"], "costs"), _array(doc["weights"], "weights"))
    if "k" in doc and _whole(doc["k"], "k") != cons.k:
        raise InvalidInstanceError("dimension mismatch: k=%d but %d cost rows" % (doc["k"], cons.k))
    obj = _load_objective(doc.get("objective", {}), n, base_dir)
    return Instance(ground=GroundSet(n), constraints=cons, objective=obj)


def load_instance(path):
    with open(path) as fh:
        doc = json.load(fh)
    return instance_from_dict(doc, base_dir=os.path.dirname(os.path.abspath(path)))
