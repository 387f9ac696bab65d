"""Run one benchmark workload in this process and print its result.

Usage (normally through run.py, which pins BLAS threads and starts a fresh
process per workload):

    python3 benchmark/worker.py --workload static-solve --seed 1 --seconds 30 --trace 0

Ops run in a closed loop: one client, one op at a time. The op list of a
seed is run in whole passes until the time is used up; every op of every
pass is checked. The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

# Library functions are called through their modules, so that the traced
# run's patched bindings are the ones called.
from knapgreedy import core, dynamic, harness, io, oracle, solver  # noqa: E402
from knapgreedy.core import FEAS_TOL, Instance  # noqa: E402

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 15
SETUP_MIN_S = 1.0
VALUE_RTOL = 1e-9
TAIL_BEYOND = 10  # samples that must lie above the reported tail latency


# -- checks ----------------------------------------------------------------

def check_solution(inst, weights, result, measured_calls):
    """Failure kinds of one SolveResult under the given weights."""
    fails = []
    chosen = list(result.chosen)
    costs = inst.constraints.costs
    cost = costs[:, chosen].sum(axis=1) if chosen else np.zeros(costs.shape[0])
    if np.any(cost > np.asarray(weights) + FEAS_TOL):
        fails.append("infeasible")
    v = inst.objective._value(frozenset(chosen))
    if not abs(result.value - v) <= VALUE_RTOL * max(1.0, abs(v)):
        fails.append("value-mismatch")
    if result.oracle_calls != measured_calls:
        fails.append("calls-mismatch")
    return fails


@contextlib.contextmanager
def count_clones():
    """Collect every objective cloned inside the block, so calls made on
    clones (run_dynamic gives each contestant its own) can be counted."""
    made = []
    original = core.Objective.__dict__["clone"]

    def clone(self):
        other = original(self)
        made.append(other)
        return other

    core.Objective.clone = clone
    try:
        yield made
    finally:
        core.Objective.clone = original


def normaliser(inst):
    """max_e f({e}), computed with _value so no oracle call is counted."""
    best = max(inst.objective._value(frozenset([e])) for e in range(inst.ground.n))
    if not best > 0:
        raise ValueError("normaliser must be positive, got %r" % best)
    return best


# -- ops: each returns (seconds, oracle calls, quality or None, failures) ---

def op_static(inst, op, norm):
    obj = inst.objective
    c0 = obj.eval_count
    t0 = perf_counter()
    res = solver.lambda_greedy(inst, op["lam"])
    dt = perf_counter() - t0
    calls = obj.eval_count - c0
    fails = check_solution(inst, inst.constraints.weights, res, calls)
    return dt, calls, res.value / norm, fails


def op_drift(inst, op, norm):
    cfg = harness.SimConfig(**op["sim"])
    with count_clones() as clones:
        c0 = inst.objective.eval_count
        t0 = perf_counter()
        trace = harness.run_dynamic(inst, cfg)
        dt = perf_counter() - t0
        calls = inst.objective.eval_count - c0 + sum(c.eval_count for c in clones)
    fails = []
    rows = trace.rows
    cells = [(r.dgreedy_value, r.restart_value, r.dgreedy_calls, r.restart_calls) for r in rows]
    if len(rows) != cfg.n_updates:
        fails.append("trace-length")
    if any(not math.isfinite(x) or x < 0 for cell in cells for x in cell) or any(
        not np.all(np.isfinite(r.weights)) or np.any(r.weights < 0) for r in rows
    ):
        fails.append("trace-value")
    if sum(r.dgreedy_calls + r.restart_calls for r in rows) > calls:
        fails.append("calls-mismatch")
    quality = float(np.mean([r.dgreedy_value for r in rows])) / norm if rows else 0.0
    return dt, calls, quality, fails


def op_verify(inst, op, _norm):
    lam = op["lam"]
    obj = inst.objective
    weights = np.asarray(inst.constraints.weights)
    walk = [f * weights for f in op["walk"]]
    with count_clones() as clones:  # check_guarantee scans a clone for curvature
        c0 = obj.eval_count
        t0 = perf_counter()
        start = Instance(inst.ground, inst.constraints.with_weights(walk[0]), obj)
        engine = dynamic.DynamicGreedy(start, lam)
        engine.run_to_completion()
        for w in walk[1:]:
            engine.apply_weights(w)
            engine.run_to_completion()
        dyn = engine.finalize()
        c1 = obj.eval_count
        stat = solver.lambda_greedy(inst, lam)
        c2 = obj.eval_count
        dyn_report = oracle.check_guarantee(inst, lam, dyn.value)
        stat_report = oracle.check_guarantee(inst, lam, stat.value)
        dt = perf_counter() - t0
        calls = obj.eval_count - c0 + sum(c.eval_count for c in clones)
    fails = check_solution(inst, walk[-1], dyn, c1 - c0)
    fails += check_solution(inst, weights, stat, c2 - c1)
    if not dyn_report.passed:
        fails.append("guarantee-engine-after-walk")
    if not stat_report.passed:
        fails.append("guarantee-lambda-greedy")
    ratios = [r.ratio for r in (dyn_report, stat_report) if r.ratio is not None]
    quality = float(np.mean(ratios)) if ratios else None
    return dt, calls, quality, fails


OPS = {"static-solve": op_static, "drift-race": op_drift, "verify-small": op_verify}
# Failure kinds that mean the program's output is wrong, as opposed to the
# guarantee check, which measures the known budget-growth defect.
GUARANTEE_KINDS = ("guarantee-engine-after-walk", "guarantee-lambda-greedy")


# -- running ---------------------------------------------------------------

def build(docs):
    return [io.instance_from_dict(d) for d in docs]


def measure_setup(docs):
    """Median time, at reference speed, to build every instance of the
    workload, over repeated builds (at least SETUP_REPEATS, more while under
    SETUP_MIN_S)."""
    times = []
    t_start = perf_counter()
    while len(times) < SETUP_REPEATS or perf_counter() - t_start < SETUP_MIN_S:
        before = reference.kernel_time()
        t0 = perf_counter()
        build(docs)
        dt = perf_counter() - t0
        times.append(reference.at_reference_speed(dt, before, reference.kernel_time()))
    return statistics.median(times)


class Run:
    """Op list of one workload and seed, with the instances it runs on."""

    def __init__(self, workload, seed, limit=None):
        self.workload = workload
        self.ops = workloads.WORKLOADS[workload](seed)[:limit]
        self.docs, index = [], {}
        for op in self.ops:
            if id(op["doc"]) not in index:
                index[id(op["doc"])] = len(self.docs)
                self.docs.append(op["doc"])
        self.doc_of = [index[id(op["doc"])] for op in self.ops]
        self.op_fn = OPS[workload]
        self.latencies = []  # seconds at reference speed
        self.raw_latencies = []  # wall-clock seconds
        self.failures = {}
        self.attempted = 0
        self.failed = 0
        self.first = {}  # op index -> (calls, quality, failed) of its first run

    def prepare(self):
        self.instances = build(self.docs)
        self.norms = [normaliser(inst) if self.workload != "verify-small" else None
                      for inst in self.instances]

    def run_op(self, i):
        """Run and check op i; returns its wall-clock latency in seconds (0
        if it raised)."""
        d = self.doc_of[i]
        before = reference.kernel_time()
        try:
            dt, calls, quality, fails = self.op_fn(self.instances[d], self.ops[i], self.norms[d])
            after = reference.kernel_time()
            self.latencies.append(reference.at_reference_speed(dt, before, after))
            self.raw_latencies.append(dt)
        except Exception as exc:  # an op that raises is a failed op
            kind = "raised:" + type(exc).__name__
            if kind not in self.failures:
                traceback.print_exc()
            dt, calls, quality, fails = 0.0, 0, None, [kind]
        outcome = (calls, quality, bool(fails))
        if self.first.setdefault(i, outcome) != outcome:
            fails.append("nondeterministic")
        self.attempted += 1
        if fails:
            self.failed += 1
            for kind in fails:
                self.failures[kind] = self.failures.get(kind, 0) + 1
        return dt

    def run_pass(self):
        for i in range(len(self.ops)):
            self.run_op(i)

    def correct(self):
        return all(k in GUARANTEE_KINDS for k in self.failures)


def env_info():
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def tail(samples):
    """(value, percentile): the sample with TAIL_BEYOND samples above it,
    i.e. the highest percentile that still has that many beyond it. With
    too few samples the maximum is reported as p100."""
    s = sorted(samples)
    if len(s) <= TAIL_BEYOND:
        return s[-1], 100.0
    i = len(s) - 1 - TAIL_BEYOND
    return s[i], 100.0 * (i + 1) / len(s)


def until(seconds, step):
    """Call step() until the next call would overrun ``seconds``; at least
    once. Returns the number of calls."""
    t0 = perf_counter()
    done = 0
    while True:
        step()
        done += 1
        elapsed = perf_counter() - t0
        if elapsed + elapsed / done > seconds:
            return done


def end_to_end(run, setup_s):
    firsts = [run.first[i] for i in sorted(run.first)]
    qualities = [q for _c, q, _f in firsts if q is not None]
    lat = run.latencies or [float("inf")]  # every op raised
    tail_s, tail_pct = tail(lat)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(lat) / sum(lat), "ops/s"),
        "latency_ms.p50": (1e3 * statistics.median(lat), "ms"),
        "latency_ms.tail": (1e3 * tail_s, "ms"),
        "oracle_calls": (sum(c for c, _q, _f in firsts), "calls"),
        "quality": (float(np.mean(qualities)) if qualities else 0.0, "ratio"),
        "pass_rate": (1.0 - run.failed / run.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    raw = run.raw_latencies or lat
    notes = {
        "latency_samples": len(lat),
        "latency_tail_percentile": round(tail_pct, 2),
        "wall_ms": {"p50": 1e3 * statistics.median(raw), "tail": 1e3 * tail(raw)[0],
                    "ops_per_s": len(raw) / sum(raw)},
    }
    return metrics, notes


def traced(run, seconds, seed):
    """Passes in which every op runs once untraced and once traced, back to
    back, so that machine noise hits both alike. Per-layer metrics are per
    traced pass; the traced set-up is one build of every instance."""
    tracer = tracing.Tracer()
    plain, with_spans = [0.0], [0.0]

    def traced_op(i):
        tracer.install()
        try:
            return run.run_op(i)
        finally:
            tracer.uninstall()

    def paired_pass():
        for i in range(len(run.ops)):
            plain[0] += run.run_op(i)
            with_spans[0] += traced_op(i)

    tracer.install()
    try:
        build(run.docs)
    finally:
        tracer.uninstall()
    passes = until(seconds, paired_pass)
    metrics = tracing.layer_metrics(tracer, passes)
    metrics["trace.overhead_s"] = ((with_spans[0] - plain[0]) / passes, "s")
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, "spans-%s-seed%d.npz" % (run.workload, seed))
    tracer.save(spans_path)
    return metrics, {"traced_passes": passes, "spans": len(tracer.start),
                     "spans_file": os.path.relpath(spans_path, ROOT),
                     "trace_missing": tracer.missing, "trace_misses": tracer.misses}


def run_workload(workload, seed, seconds, trace, limit=None):
    """Run one workload; returns (result dict, notes dict)."""
    run = Run(workload, seed, limit)
    setup_s = None if trace else measure_setup(run.docs)
    run.prepare()
    if trace:
        metrics, notes = traced(run, seconds, seed)
    else:
        passes = until(seconds, run.run_pass)
        metrics, notes = end_to_end(run, setup_s)
        notes["passes"] = passes
    notes.update({"ops_per_pass": len(run.ops), "failures": run.failures})
    result = {
        "correct": run.correct(),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, notes


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    started = time.time()
    result, notes = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    env = env_info()
    for name, m in result["metrics"].items():
        print("%-40s %16.6g %s" % (name, m["value"], m["unit"]))
    print("# notes " + json.dumps(notes, sort_keys=True))
    print("# env " + json.dumps(env, sort_keys=True))
    os.makedirs(OUT_DIR, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "started": started, "env": env, "notes": notes, "result": result}
    path = os.path.join(OUT_DIR, "result-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
