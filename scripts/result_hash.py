"""Hash every benchmark op's outputs at two revisions and compare them.

    python3 scripts/result_hash.py <parent-rev>
    python3 scripts/result_hash.py HEAD~1 --change-rev HEAD --seeds 1911 1 2

Both revisions are exported with ``bench_pairs.export``, so each side sees
only committed files. In each tree, a fresh process imports that tree's own
``src/knapgreedy`` and ``benchmark/workloads.py`` (read only) and runs every
workload's seeded op list once, in-process, hashing the outputs of each op:

- static-solve: ``lambda_greedy``'s chosen set, value bits, branch, greedy
  order and oracle calls;
- drift-race: every ``TraceRow`` of ``run_dynamic``, weights and calls
  included;
- verify-small: the engine's result after its budget walk and the static
  ``lambda_greedy`` result, each with the oracle calls it made, and the
  brute-force guarantee report of each.

One line per workload and seed is printed, and the script exits 1 when any
parent and change hash differ.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import multiprocessing
import os
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_pairs import export, git  # noqa: E402

WORKLOADS = ("static-solve", "drift-race", "verify-small")


def canon(x):
    """A repr-stable form of x in which floats keep every bit."""
    if isinstance(x, (float, np.floating)):
        return float(x).hex()
    if isinstance(x, np.ndarray):
        return (x.dtype.str, x.shape, x.tobytes().hex())
    if dataclasses.is_dataclass(x):
        return (type(x).__name__,) + tuple(canon(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, (frozenset, set)):
        return sorted(canon(v) for v in x)
    if isinstance(x, (tuple, list)):
        return [canon(v) for v in x]
    return x


def _static(lib, inst, op):
    obj = inst.objective
    c0 = obj.eval_count
    res = lib.solver.lambda_greedy(inst, op["lam"])
    return res, obj.eval_count - c0


def _drift(lib, inst, op):
    return lib.harness.run_dynamic(inst, lib.harness.SimConfig(**op["sim"])).rows


def _verify(lib, inst, op):
    """The benchmark's verify-small op: the engine through the budget walk,
    then lambda_greedy on the instance, each checked by the brute force."""
    lam, obj = op["lam"], inst.objective
    walk = [f * inst.constraints.weights for f in op["walk"]]
    start = dataclasses.replace(inst, constraints=inst.constraints.with_weights(walk[0]))
    c0 = obj.eval_count
    engine = lib.dynamic.DynamicGreedy(start, lam)
    engine.run_to_completion()
    for w in walk[1:]:
        engine.apply_weights(w)
        engine.run_to_completion()
    dyn = engine.finalize()
    c1 = obj.eval_count
    stat = lib.solver.lambda_greedy(inst, lam)
    c2 = obj.eval_count
    reports = [lib.oracle.check_guarantee(inst, lam, r.value) for r in (dyn, stat)]
    return dyn, c1 - c0, stat, c2 - c1, reports


def tree_hashes(tree, seeds):
    """{(workload, seed): (ops, sha256 hex)} for the tree's own library and
    workloads. Runs in a fresh process, so that the tree's modules are the
    ones imported."""
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "benchmark")]
    import knapgreedy as lib  # its submodules below are its attributes
    import workloads
    from knapgreedy import dynamic, harness, io, oracle, solver  # noqa: F401

    if not os.path.abspath(lib.__file__).startswith(os.path.abspath(tree) + os.sep):
        raise RuntimeError("imported %s, not the tree's library" % lib.__file__)
    run_op = {"static-solve": _static, "drift-race": _drift, "verify-small": _verify}
    out = {}
    for workload in WORKLOADS:
        for seed in seeds:
            ops = workloads.WORKLOADS[workload](seed)
            built = {}
            digest = hashlib.sha256()
            for op in ops:
                if id(op["doc"]) not in built:
                    built[id(op["doc"])] = io.instance_from_dict(op["doc"])
                result = run_op[workload](lib, built[id(op["doc"])], op)
                digest.update(repr(canon(result)).encode())
            out[workload, seed] = (len(ops), digest.hexdigest())
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent_rev")
    p.add_argument("--change-rev", default="HEAD")
    p.add_argument("--seeds", type=int, nargs="+", default=[1911, 1, 2])
    args = p.parse_args(argv)

    revs = {side: git("rev-parse", "--verify", rev + "^{commit}").decode().strip()
            for side, rev in (("parent", args.parent_rev), ("change", args.change_rev))}
    ctx = multiprocessing.get_context("spawn")
    hashes = {}
    with tempfile.TemporaryDirectory(prefix="result-hash-") as tmp:
        for side, rev in revs.items():
            tree = os.path.join(tmp, side)
            export(rev, tree)
            with ctx.Pool(1) as pool:
                hashes[side] = pool.apply(tree_hashes, (tree, args.seeds))
    print("parent %s, change %s" % (revs["parent"][:12], revs["change"][:12]))
    differ = 0
    for key in hashes["parent"]:  # by workload, then seed
        (ops, a), (_, b) = hashes["parent"][key], hashes["change"][key]
        differ += a != b
        print("%-12s seed %-5d ops %3d  parent %s  change %s  %s" % (
            key[0], key[1], ops, a[:16], b[:16], "same" if a == b else "DIFFERENT"))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
