"""Drifting-budget simulation: persistent engine versus restart-from-scratch.

Budgets drift as a clamped Gaussian random walk on the fraction-of-total
scale. Two contestants consume the same weight stream under the same
per-interval oracle-call budget: a persistent dynamic engine that rolls its
solution back at each update, and a static greedy restarted from scratch.
The trace records, at every update, each contestant's best feasible value
and the oracle calls it spent in the interval. Both are scored by the same
rule, DynamicGreedy.current_best(): the greedy prefix versus the best
feasible singleton, with no complement search outside the budget. Only
the engine has a warm-up, an unrecorded interval under the initial weights;
each recorded interval builds a fresh restart, so every restart call is
charged to a row. The engine keeps its memo of oracle answers across
intervals; each restart's memo starts empty and lives for its interval, so
the restart remembers nothing from an earlier update. A restart is built on
the engine's constraints object, whose cost scans and split it reuses.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from .core import Instance, _shape, _whole, reduce_instance
from .dynamic import DynamicGreedy, WeightUpdate
from .io import _array


@dataclass
class SimConfig:
    tau: int  # oracle calls between consecutive weight updates
    noise_sigma: float
    n_updates: int = 50
    seed: int = 0
    lam: float = 1.0
    initial_fraction: float | None = None  # None: keep the instance's weights

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.n_updates < 1:
            raise ValueError("n_updates must be at least 1")
        if not (np.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError("noise_sigma must be finite and nonnegative")
        if self.initial_fraction is not None and not 0 < self.initial_fraction <= 1:
            raise ValueError("initial_fraction must be in (0, 1]")


@dataclass
class TraceRow:
    update: int
    weights: np.ndarray
    dgreedy_value: float
    restart_value: float
    dgreedy_calls: int
    restart_calls: int


@dataclass
class RunTrace:
    config: SimConfig
    rows: list = field(default_factory=list)


def perturb_weights(weights, totals, noise_sigma, rng):
    """One random-walk step on the weight-as-fraction-of-total scale,
    clamped to [0, 1] per knapsack."""
    fractions = np.asarray(weights, dtype=float) / totals
    fractions = np.clip(fractions + rng.normal(0.0, noise_sigma, size=len(totals)), 0.0, 1.0)
    return fractions * totals


def run_dynamic(inst, cfg):
    """Simulate cfg.n_updates budget drifts; returns the per-update trace,
    in which a contestant under budgets that admit no element scores 0.0."""
    if cfg.tau < inst.ground.n:
        warnings.warn("budget too small: tau=%d < n=%d" % (cfg.tau, inst.ground.n), RuntimeWarning)
    rng = np.random.default_rng(cfg.seed)
    totals = inst.constraints.costs.sum(axis=1)
    if np.any(totals <= 0):
        raise ValueError("every knapsack needs positive total cost")

    weights = np.asarray(inst.constraints.weights, dtype=float)
    if cfg.initial_fraction is not None:
        weights = cfg.initial_fraction * totals

    dg_obj = inst.objective.clone()
    rs_obj = inst.objective.clone()
    dg_inst = Instance(inst.ground, inst.constraints.with_weights(weights), dg_obj)
    engine = DynamicGreedy(dg_inst, cfg.lam)
    # Warm-up interval of the engine under the initial weights, not recorded.
    engine.run_to_completion(dg_obj.eval_count + cfg.tau)

    trace = RunTrace(config=cfg)
    for u in range(1, cfg.n_updates + 1):
        weights = perturb_weights(weights, totals, cfg.noise_sigma, rng)
        dg_start, rs_start = dg_obj.eval_count, rs_obj.eval_count
        engine.apply_weights(weights)
        engine.run_to_completion(dg_start + cfg.tau)
        restart = DynamicGreedy(Instance(inst.ground, engine.cons, rs_obj), cfg.lam)
        restart.run_to_completion(rs_start + cfg.tau)
        trace.rows.append(
            TraceRow(
                update=u,
                weights=weights.copy(),
                dgreedy_value=engine.current_best(),
                restart_value=restart.current_best(),
                dgreedy_calls=dg_obj.eval_count - dg_start,
                restart_calls=rs_obj.eval_count - rs_start,
            )
        )
    return trace


def load_updates(path):
    """Update stream file: [{"at_call": int, "weights": [real]}], sorted.
    at_call is a whole number, and a stream or an update of another JSON
    shape, or weights that io._array cannot read, raises
    InvalidInstanceError. A bad weights vector raises it when its update is
    applied, by DynamicGreedy.apply_weights, which leaves the engine as it
    was."""
    with open(path) as fh:
        doc = json.load(fh)
    updates = []
    for i, u in enumerate(_shape(doc, list, "update stream")):
        at_call = _whole(_shape(u, dict, "update %d" % i)["at_call"], "at_call of update %d" % i)
        updates.append(WeightUpdate(at_call, _array(u["weights"], "weights of update %d" % i)))
    if any(b.at_call < a.at_call for a, b in zip(updates, updates[1:])):
        raise ValueError("update stream must be sorted by at_call")
    return updates


def run_with_updates(inst, lam, updates):
    """Run the dynamic engine, delivering each scripted weight update once
    the engine's oracle-call counter reaches its timestamp, at a step
    boundary; any still pending when the pool empties are applied before
    finalizing. reduce_instance rejects inst when nothing fits its budgets."""
    baseline = inst.objective.eval_count
    engine = DynamicGreedy(inst, lam)
    reduce_instance(inst)
    for u in updates:
        engine.run_to_completion(baseline + u.at_call)
        engine.apply_weights(u.weights)
    return engine.finalize()


def summarize(trace):
    """Mean and population standard deviation of solution quality per
    contestant, over the recorded updates."""
    if not trace.rows:
        raise ValueError("empty trace")
    dg = np.array([r.dgreedy_value for r in trace.rows])
    rs = np.array([r.restart_value for r in trace.rows])
    return {
        "dgreedy": {"mean": float(dg.mean()), "std": float(dg.std())},
        "restart": {"mean": float(rs.mean()), "std": float(rs.std())},
    }


def _fmt(x):
    return "%.9g" % x


def trace_to_csv(trace, path):
    k = len(trace.rows[0].weights) if trace.rows else 0
    header = ["update"] + ["weight_%d" % i for i in range(k)]
    header += ["dgreedy_value", "restart_value", "dgreedy_calls", "restart_calls"]
    lines = [",".join(header)]
    for r in trace.rows:
        cells = [str(r.update)] + [_fmt(w) for w in r.weights]
        cells += [_fmt(r.dgreedy_value), _fmt(r.restart_value), str(r.dgreedy_calls), str(r.restart_calls)]
        lines.append(",".join(cells))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def summary_to_json(trace, path):
    payload = summarize(trace)
    payload["config"] = asdict(trace.config)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
