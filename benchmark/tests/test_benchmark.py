"""Tests of the benchmark itself, on a few ops of each workload.

Run from the repository root:  python3 -m pytest -q benchmark/tests
"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from knapgreedy import core  # noqa: E402

# A few cheap ops per workload: the first static-solve ops are modular, the
# first verify-small ops are n=7.
LIMITS = {"static-solve": 3, "drift-race": 2, "verify-small": 8}
REPEATABLE = ("oracle_calls", "quality", "pass_rate")


def _values(result):
    return {k: result["metrics"][k]["value"] for k in REPEATABLE}


@pytest.mark.parametrize("workload", sorted(LIMITS))
def test_same_seed_repeats_exactly(workload):
    runs = [worker.run_workload(workload, 7, 0, False, LIMITS[workload])[0] for _ in range(2)]
    assert runs[0]["correct"] and runs[1]["correct"]
    assert _values(runs[0]) == _values(runs[1])
    assert runs[0]["attempted"] == runs[1]["attempted"] >= LIMITS[workload]


@pytest.mark.parametrize("workload", sorted(LIMITS))
def test_other_seed_changes_inputs(workload):
    make = workloads.WORKLOADS[workload]
    assert json.dumps(make(1)) == json.dumps(make(1))
    assert json.dumps(make(1)) != json.dumps(make(2))


def _wrapped():
    """(owner, attribute) of every knapgreedy binding that is a span wrapper."""
    found = []
    for m in tracing._modules():
        for attr, val in vars(m).items():
            if getattr(val, "_bench_span", None) is not None:
                found.append((m.__name__, attr))
            if isinstance(val, type) and val.__module__.startswith("knapgreedy"):
                for cattr, cval in vars(val).items():
                    if getattr(cval, "_bench_span", None) is not None:
                        found.append((m.__name__ + "." + val.__name__, cattr))
    return found


def _bindings():
    """Every function and method the tracer wraps, in every module that
    binds it, plus Objective.value and Objective.clone."""
    found = {}
    for m in tracing._modules():
        for attr, val in vars(m).items():
            if callable(val):
                found[(m.__name__, attr)] = val
    for mod, cname, meth, _name, _obj in tracing.METHODS:
        cls = getattr(sys.modules["knapgreedy." + mod], cname)
        found[(cname, meth)] = cls.__dict__[meth]
    for meth in ("value", "clone"):
        found[("Objective", meth)] = core.Objective.__dict__[meth]
    return found


@pytest.mark.parametrize("workload", sorted(LIMITS))
def test_traced_run_restores_every_binding(workload):
    before = _bindings()
    result, notes = worker.run_workload(workload, 7, 0, True, LIMITS[workload])
    assert notes["spans"] > 0
    assert notes["trace_missing"] == [] and notes["trace_misses"] == 0
    assert _wrapped() == []
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []
    assert result["metrics"]["trace.overhead_s"]["unit"] == "s"


def test_tracer_patches_names_imported_by_other_modules():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = set(_wrapped())
    finally:
        tracer.uninstall()
    for binding in [("knapgreedy.dynamic", "chi"), ("knapgreedy.dynamic", "split_by_threshold"),
                    ("knapgreedy.dynamic", "complement_search"), ("knapgreedy", "lambda_greedy"),
                    ("knapgreedy.core.Objective", "value")]:
        assert binding in wrapped
    assert _wrapped() == []


def test_traced_oracle_calls_match_end_to_end():
    plain, _ = worker.run_workload("static-solve", 7, 0, False, 2)
    traced, _ = worker.run_workload("static-solve", 7, 0, True, 2)
    spans = sum(traced["metrics"]["objectives.%s.calls" % fam]["value"]
                for _cls, fam in tracing.FAMILY_CLASSES)
    # Only the traced half of each paired pass records spans.
    assert spans == plain["metrics"]["oracle_calls"]["value"]
