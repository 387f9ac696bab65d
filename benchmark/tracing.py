"""Spans around calls into each knapgreedy layer, recorded from outside.

``Tracer.install()`` replaces the public functions named in ``FUNCTIONS``
and the methods named in ``METHODS`` with wrappers that record one span per
call (name, start, end, parent, oracle calls as an ``eval_count`` delta).
Every module binding of a wrapped function is patched, not only the
defining module, and ``uninstall()`` puts every original back. Spans live in
flat in-memory arrays until ``save()`` writes them when the run ends.
"""

from __future__ import annotations

import functools
import sys
import weakref
from array import array
from time import perf_counter

import numpy as np

PACKAGE = "knapgreedy"

# (module, function, span name, argument holding the objective or None).
FUNCTIONS = (
    ("io", "instance_from_dict", "io.instance_from_dict", None),
    ("core", "reduce_instance", "core.reduce_instance", None),
    ("core", "validate", "core.validate", None),
    ("solver", "lambda_greedy", "solver.lambda_greedy", lambda a: a[0].objective),
    ("solver", "best_singleton", "solver.best_singleton", lambda a: a[0]),
    ("solver", "greedy_phase", "solver.greedy_phase", lambda a: a[0]),
    ("solver", "complement_search", "solver.complement_search", lambda a: a[0]),
    ("solver", "chi", "solver.chi", None),
    ("solver", "split_by_threshold", "solver.split_by_threshold", None),
    ("harness", "run_dynamic", "harness.run_dynamic", None),
    ("oracle", "brute_force_opt", "oracle.brute_force_opt", lambda a: a[0].objective),
    ("oracle", "brute_force_curvature", "oracle.brute_force_curvature", lambda a: a[0]),
    ("oracle", "check_guarantee", "oracle.check_guarantee", lambda a: a[0].objective),
)

# (module, class, method, span name, argument holding the objective or None).
METHODS = (
    ("core", "KnapsackConstraints", "is_feasible_cost", "core.is_feasible_cost", None),
    ("core", "KnapsackConstraints", "is_feasible", "core.is_feasible", None),
    ("dynamic", "DynamicGreedy", "__init__", "dynamic.init", lambda a: a[1].objective),
    ("dynamic", "DynamicGreedy", "step", "dynamic.step", lambda a: a[0].obj),
    ("dynamic", "DynamicGreedy", "apply_weights", "dynamic.apply_weights", lambda a: a[0].obj),
    ("dynamic", "DynamicGreedy", "finalize", "dynamic.finalize", lambda a: a[0].obj),
)

# Objective.value is wrapped once on the base class: RestrictedObjective
# forwards to it, so each oracle call gets exactly one span, named after the
# concrete family.
FAMILY_CLASSES = (
    ("ModularObjective", "modular"),
    ("DirectedCutObjective", "cut"),
    ("DppLogDetObjective", "dpp"),
    ("EntropyObjective", "entropy"),
)


def _modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    """Single-threaded span recorder; one per traced run."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.calls = array("q")
        self._stack = [-1]
        self._patches = []  # (owner, attribute, original)
        # Counters observed at the layer boundaries, for ratios that spans
        # alone do not give.
        self.counts = dict.fromkeys((
            "greedy.appended", "greedy.discarded", "greedy.evaluations",
            "rollback.popped", "rollback.kept", "rollback.before",
            "recovery.calls", "guarantee.violations",
            "harness.updates", "harness.dgreedy_calls", "harness.restart_calls",
            "harness.restart_overbudget", "harness.restart_quality_sum", "harness.runs",
        ), 0.0)
        self._recovering = weakref.WeakKeyDictionary()
        # Library internals change between commits. A wrapped name that is
        # gone, or an argument or attribute an observer reads that moved,
        # must not stop the run: it is listed or counted instead.
        self.missing = []
        self.misses = 0

    def _intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self.calls.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx, calls):
        self.end[idx] = perf_counter()
        self.calls[idx] = calls
        self._stack.pop()

    # -- wrappers --------------------------------------------------------

    def _probe(self, fn, *args):
        try:
            return fn(*args)
        except (AttributeError, KeyError, IndexError, TypeError):
            self.misses += 1
            return None

    def _wrap(self, fn, name, objective_of, observe=None):
        nid = self._intern(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            obj = tracer._probe(objective_of, args) if objective_of is not None else None
            c0 = obj.eval_count if obj is not None else 0
            before = tracer._probe(observe.before, args) if observe is not None else None
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(idx, 0)
                raise
            calls = obj.eval_count - c0 if obj is not None else 0
            tracer._close(idx, calls)
            if observe is not None:
                tracer._probe(observe.after, tracer, before, args, result, calls)
            return result

        wrapper._bench_span = name
        return wrapper

    def _wrap_value(self, fn, family_of):
        ids = {cls: self._intern("objectives." + fam) for cls, fam in family_of.items()}
        tracer = self

        @functools.wraps(fn)
        def value(obj, S):
            cls = type(obj)
            if cls not in ids:
                ids[cls] = tracer._intern("objectives." + cls.__name__)
            idx = tracer._open(ids[cls])
            try:
                return fn(obj, S)
            finally:
                tracer._close(idx, 1)

        value._bench_span = "objectives"
        return value

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        import knapgreedy  # noqa: F401  (loads every submodule)

        mods = {m.__name__.rsplit(".", 1)[-1]: m for m in _modules()}
        observers = _observers()
        for mod, fname, name, objective_of in FUNCTIONS:
            original = getattr(mods.get(mod), fname, None)
            if original is None:
                self._note_missing(name)
                continue
            wrapper = self._wrap(original, name, objective_of, observers.get(name))
            for m in _modules():
                for attr, val in list(vars(m).items()):
                    if val is original:
                        self._patch(m, attr, wrapper)
        for mod, cname, meth, name, objective_of in METHODS:
            cls = getattr(mods.get(mod), cname, None)
            original = vars(cls).get(meth) if cls is not None else None
            if original is None:
                self._note_missing(name)
                continue
            self._patch(cls, meth, self._wrap(original, name, objective_of, observers.get(name)))
        family_of = {getattr(mods["objectives"], c, None): fam for c, fam in FAMILY_CLASSES}
        base = mods["core"].Objective
        self._patch(base, "value", self._wrap_value(base.__dict__["value"], family_of))

    def _note_missing(self, name):
        if name not in self.missing:
            self.missing.append(name)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def arrays(self):
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "calls": np.frombuffer(self.calls, dtype=np.int64).copy(),
        }

    def summary(self):
        """Per span name: count, total seconds, self seconds, oracle calls."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros(len(dur))
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_s = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            sel = a["name_id"] == nid
            out[name] = {
                "count": int(sel.sum()),
                "s": float(dur[sel].sum()),
                "self_s": float(self_s[sel].sum()),
                "calls": int(a["calls"][sel].sum()),
            }
        return out

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


# -- observers: counts taken at a boundary from arguments and results ------

class _GreedyPhase:
    @staticmethod
    def before(args):
        return len(args[2].cheap)

    @staticmethod
    def after(tr, cheap, args, sigma, calls):
        c = tr.counts
        c["greedy.appended"] += len(sigma.order)
        c["greedy.discarded"] += cheap - len(sigma.order)
        c["greedy.evaluations"] += calls


class _Step:
    @staticmethod
    def before(args):
        eng = args[0]
        return eng.phase, len(eng.sigma.order)

    @staticmethod
    def after(tr, before, args, _result, calls):
        eng = args[0]
        phase, length = before
        c = tr.counts
        if phase == "greedy":
            grew = len(eng.sigma.order) > length
            c["greedy.appended"] += grew
            c["greedy.discarded"] += not grew
            c["greedy.evaluations"] += calls
        if tr._recovering.get(eng):
            c["recovery.calls"] += calls
            if eng.phase != "greedy":
                tr._recovering[eng] = False


class _ApplyWeights:
    @staticmethod
    def before(args):
        return len(args[0].sigma.order)

    @staticmethod
    def after(tr, length, args, _result, _calls):
        eng = args[0]
        kept = len(eng.sigma.order)
        c = tr.counts
        c["rollback.popped"] += length - kept
        c["rollback.kept"] += kept
        c["rollback.before"] += length
        tr._recovering[eng] = eng.phase == "greedy"


class _CheckGuarantee:
    @staticmethod
    def before(args):
        return None

    @staticmethod
    def after(tr, _before, _args, report, _calls):
        tr.counts["guarantee.violations"] += not report.passed


class _RunDynamic:
    @staticmethod
    def before(args):
        return None

    @staticmethod
    def after(tr, _before, args, trace, _calls):
        inst, cfg = args[0], args[1]
        rows = trace.rows
        c = tr.counts
        c["harness.runs"] += 1
        c["harness.updates"] += len(rows)
        c["harness.dgreedy_calls"] += sum(r.dgreedy_calls for r in rows)
        c["harness.restart_calls"] += sum(r.restart_calls for r in rows)
        c["harness.restart_overbudget"] += sum(max(0, r.restart_calls - cfg.tau) for r in rows)
        if rows:
            norm = max(inst.objective._value(frozenset([e])) for e in range(inst.ground.n))
            c["harness.restart_quality_sum"] += float(np.mean([r.restart_value for r in rows])) / norm


def _observers():
    return {
        "solver.greedy_phase": _GreedyPhase,
        "dynamic.step": _Step,
        "dynamic.apply_weights": _ApplyWeights,
        "oracle.check_guarantee": _CheckGuarantee,
        "harness.run_dynamic": _RunDynamic,
    }


def layer_metrics(tracer, passes):
    """Per-layer metrics as name -> (value, unit), per traced pass; the io
    set-up metric is per build of every instance (one per traced run)."""
    s = tracer.summary()
    c = tracer.counts

    def per_pass(name, field):
        return s.get(name, {}).get(field, 0) / passes

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "io.instance_from_dict.s": (s.get("io.instance_from_dict", {}).get("s", 0.0), "s"),
        "core.reduce_instance.s": (per_pass("core.reduce_instance", "s"), "s"),
        "core.validate.s": (per_pass("core.validate", "s"), "s"),
        "core.is_feasible_cost.calls": (per_pass("core.is_feasible_cost", "count"), "count"),
        "core.is_feasible_cost.s": (per_pass("core.is_feasible_cost", "s"), "s"),
        "core.is_feasible.calls": (per_pass("core.is_feasible", "count"), "count"),
        "core.is_feasible.s": (per_pass("core.is_feasible", "s"), "s"),
    }
    for _cls, fam in FAMILY_CLASSES:
        name = "objectives." + fam
        count, secs = per_pass(name, "count"), per_pass(name, "s")
        m[name + ".calls"] = (count, "calls")
        m[name + ".s"] = (secs, "s")
        m[name + ".us_per_call"] = (1e6 * ratio(secs, count), "us")
    applies = s.get("dynamic.apply_weights", {}).get("count", 0)
    updates = c["harness.updates"]
    run_dynamic_s = s.get("harness.run_dynamic", {}).get("s", 0.0)
    m.update({
        "solver.best_singleton.calls": (per_pass("solver.best_singleton", "calls"), "calls"),
        "solver.best_singleton.s": (per_pass("solver.best_singleton", "s"), "s"),
        "solver.greedy_phase.calls": (per_pass("solver.greedy_phase", "calls"), "calls"),
        "solver.greedy_phase.s": (per_pass("solver.greedy_phase", "s"), "s"),
        "solver.greedy_phase.self_s": (per_pass("solver.greedy_phase", "self_s"), "s"),
        "solver.greedy.useful_ratio": (ratio(c["greedy.appended"], c["greedy.evaluations"]), "ratio"),
        "solver.greedy.discarded": (c["greedy.discarded"] / passes, "count"),
        "solver.complement_search.calls": (per_pass("solver.complement_search", "calls"), "calls"),
        "solver.complement_search.s": (per_pass("solver.complement_search", "s"), "s"),
        "solver.chi.s": (per_pass("solver.chi", "s"), "s"),
        "solver.split_by_threshold.s": (per_pass("solver.split_by_threshold", "s"), "s"),
        "dynamic.init.calls": (per_pass("dynamic.init", "calls"), "calls"),
        "dynamic.init.s": (per_pass("dynamic.init", "s"), "s"),
        "dynamic.apply_weights.count": (per_pass("dynamic.apply_weights", "count"), "count"),
        "dynamic.apply_weights.s": (per_pass("dynamic.apply_weights", "s"), "s"),
        "dynamic.rollback_depth.mean": (ratio(c["rollback.popped"], applies), "elements"),
        "dynamic.kept_ratio": (ratio(c["rollback.kept"], c["rollback.before"]), "ratio"),
        "dynamic.step.count": (per_pass("dynamic.step", "count"), "count"),
        "dynamic.step.calls": (per_pass("dynamic.step", "calls"), "calls"),
        "dynamic.step.s": (per_pass("dynamic.step", "s"), "s"),
        "dynamic.recovery_calls": (c["recovery.calls"] / passes, "calls"),
        "dynamic.finalize.calls": (per_pass("dynamic.finalize", "calls"), "calls"),
        "dynamic.finalize.s": (per_pass("dynamic.finalize", "s"), "s"),
        "harness.run_dynamic.self_s": (per_pass("harness.run_dynamic", "self_s"), "s"),
        "harness.interval_ms": (1e3 * ratio(run_dynamic_s, updates), "ms"),
        "harness.dgreedy_calls_per_update": (ratio(c["harness.dgreedy_calls"], updates), "calls"),
        "harness.restart_calls_per_update": (ratio(c["harness.restart_calls"], updates), "calls"),
        "harness.restart_overbudget_calls": (c["harness.restart_overbudget"] / passes, "calls"),
        "harness.restart_quality": (ratio(c["harness.restart_quality_sum"], c["harness.runs"]), "ratio"),
        "oracle.brute_force_opt.calls": (per_pass("oracle.brute_force_opt", "calls"), "calls"),
        "oracle.brute_force_opt.s": (per_pass("oracle.brute_force_opt", "s"), "s"),
        "oracle.brute_force_curvature.calls": (per_pass("oracle.brute_force_curvature", "calls"), "calls"),
        "oracle.brute_force_curvature.s": (per_pass("oracle.brute_force_curvature", "s"), "s"),
        "oracle.check_guarantee.s": (per_pass("oracle.check_guarantee", "s"), "s"),
        "oracle.guarantee_violations": (c["guarantee.violations"] / passes, "count"),
    })
    return m
