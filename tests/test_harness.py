import json
import math

import numpy as np
import pytest

from knapgreedy import (
    DynamicGreedy,
    EmptyAfterReductionError,
    GroundSet,
    Instance,
    InvalidInstanceError,
    KnapsackConstraints,
    ModularObjective,
    Objective,
    SimConfig,
    perturb_weights,
    run_dynamic,
    summarize,
)
from knapgreedy.harness import RunTrace, TraceRow, summary_to_json, trace_to_csv

from conftest import random_instance, worked_example_instance


def make_trace(dg_values, rs_values, cfg=None):
    cfg = cfg or SimConfig(tau=10, noise_sigma=0.0)
    rows = [
        TraceRow(i + 1, np.array([1.0]), dv, rv, 3, 4)
        for i, (dv, rv) in enumerate(zip(dg_values, rs_values))
    ]
    return RunTrace(config=cfg, rows=rows)


class TestPerturbWeights:
    def test_zero_sigma_identity(self):
        rng = np.random.default_rng(0)
        w = np.array([2.0, 3.0])
        totals = np.array([10.0, 10.0])
        out = perturb_weights(w, totals, 0.0, rng)
        assert np.array_equal(out, w)

    def test_clamped_at_total(self):
        rng = np.random.default_rng(1)
        totals = np.array([10.0])
        out = perturb_weights(np.array([10.0]), totals, 1e-9, rng)
        assert out[0] <= 10.0

    def test_clamped_at_zero(self):
        rng = np.random.default_rng(2)
        totals = np.array([10.0])
        for _ in range(50):
            out = perturb_weights(np.array([0.05]), totals, 0.5, rng)
            assert out[0] >= 0.0

    def test_step_distribution(self):
        # away from the clamps the step is Gaussian on the fraction scale
        rng = np.random.default_rng(3)
        totals = np.array([100.0])
        w = np.array([50.0])
        deltas = np.array(
            [perturb_weights(w, totals, 0.05, rng)[0] / 100.0 - 0.5 for _ in range(10000)]
        )
        assert abs(deltas.mean()) < 0.002
        assert 0.045 < deltas.std() < 0.055


class TestSummarize:
    def test_constant_series(self):
        s = summarize(make_trace([5.0, 5.0, 5.0], [2.0, 2.0, 2.0]))
        assert s["dgreedy"] == {"mean": 5.0, "std": 0.0}
        assert s["restart"] == {"mean": 2.0, "std": 0.0}

    def test_known_population_std(self):
        s = summarize(make_trace([1.0, 2.0, 3.0], [0.0, 0.0, 0.0]))
        assert s["dgreedy"]["mean"] == pytest.approx(2.0)
        assert s["dgreedy"]["std"] == pytest.approx(math.sqrt(2.0 / 3.0))

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(4)
        dg = rng.uniform(0.0, 5.0, 30)
        rs = rng.uniform(0.0, 5.0, 30)
        s = summarize(make_trace(dg, rs))
        mean = sum(dg) / len(dg)
        var = sum((x - mean) ** 2 for x in dg) / len(dg)
        assert s["dgreedy"]["mean"] == pytest.approx(mean, abs=1e-12)
        assert s["dgreedy"]["std"] == pytest.approx(math.sqrt(var), abs=1e-12)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError, match="empty trace"):
            summarize(RunTrace(config=SimConfig(tau=5, noise_sigma=0.0)))


class TestSimConfig:
    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError):
            SimConfig(tau=0, noise_sigma=0.1)

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            SimConfig(tau=5, noise_sigma=-0.1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_sigma(self, bad):
        # unchecked, a NaN sigma turns every budget into NaN
        with pytest.raises(ValueError, match="finite and nonnegative"):
            SimConfig(tau=5, noise_sigma=bad)

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            SimConfig(tau=5, noise_sigma=0.1, initial_fraction=1.5)


class TestRunDynamic:
    def test_zero_noise_contestants_agree(self):
        inst = worked_example_instance()
        cfg = SimConfig(tau=10000, noise_sigma=0.0, n_updates=5, seed=0)
        trace = run_dynamic(inst, cfg)
        assert len(trace.rows) == 5
        for row in trace.rows:
            assert row.dgreedy_value == pytest.approx(row.restart_value)
            assert row.dgreedy_value == pytest.approx(3.25)

    @pytest.mark.parametrize("lam", [0.5, 2.0])
    def test_lambda_out_of_range_before_any_call(self, lam, monkeypatch):
        # the engine checks lambda first; k = 1 here
        def no_call(obj, S):
            raise AssertionError("oracle call")

        monkeypatch.setattr(Objective, "value", no_call)  # on the clones too
        inst = worked_example_instance()
        with pytest.raises(InvalidInstanceError, match="lambda out of"):
            run_dynamic(inst, SimConfig(tau=10, noise_sigma=0.1, n_updates=3, lam=lam))
        assert inst.objective.eval_count == 0

    def test_rejects_a_knapsack_with_zero_total_cost(self):
        # the drift is a fraction of each knapsack's total cost
        inst = Instance(GroundSet(2), KnapsackConstraints([[0.0, 0.0], [1.0, 1.0]], [0.0, 1.0]),
                        ModularObjective([1.0, 1.0]))
        with pytest.raises(ValueError, match="every knapsack needs positive total cost"):
            run_dynamic(inst, SimConfig(tau=5, noise_sigma=0.1, n_updates=3))

    def test_budget_honesty(self):
        rng = np.random.default_rng(5)
        inst = random_instance(rng, 12, 2, "modular")
        n = inst.ground.n
        cfg = SimConfig(tau=n, noise_sigma=0.1, n_updates=20, seed=7, lam=2.0,
                        initial_fraction=0.5)
        trace = run_dynamic(inst, cfg)
        for row in trace.rows:
            # one greedy step can overshoot by at most a full candidate scan
            assert row.dgreedy_calls <= cfg.tau + n
            assert row.restart_calls <= cfg.tau + n

    @pytest.mark.parametrize("family", ["modular", "dpp"])
    def test_restart_scored_like_engine_within_tau(self, family):
        # tau covers a whole run, so each restart finishes its greedy; it is
        # scored by current_best() like the engine and runs no complement
        # search, so its row holds exactly the calls of a fresh engine run
        # under the same limit
        rng = np.random.default_rng(8)
        inst = random_instance(rng, 12, 2, family)
        cfg = SimConfig(tau=10000, noise_sigma=0.1, n_updates=10, seed=3, lam=1.0)
        trace = run_dynamic(inst, cfg)
        for row in trace.rows:
            obj = inst.objective.clone()
            try:
                fresh = DynamicGreedy(
                    Instance(inst.ground, inst.constraints.with_weights(row.weights), obj), cfg.lam)
            except EmptyAfterReductionError:
                assert (row.restart_value, row.restart_calls) == (0.0, 0)
                continue
            fresh.run_to_completion(cfg.tau)
            assert fresh.phase == "finished"
            assert row.restart_calls == obj.eval_count
            assert row.restart_value == fresh.current_best()

    def test_every_restart_call_is_charged_to_a_row(self, monkeypatch):
        # run_dynamic clones the objective once per contestant, the engine's
        # first; every restart call falls in a recorded interval, and the
        # engine's only uncharged calls are its warm-up interval: the
        # singleton scan, tau, and the pool scan of the step that passes
        # tau, which may follow steps the memo answered
        made = []
        clone = Objective.clone

        def collecting_clone(obj):
            made.append(clone(obj))
            return made[-1]

        monkeypatch.setattr(Objective, "clone", collecting_clone)
        inst = random_instance(np.random.default_rng(5), 12, 2, "dpp")
        cfg = SimConfig(tau=12, noise_sigma=0.1, n_updates=20, seed=7, lam=2.0,
                        initial_fraction=0.5)
        trace = run_dynamic(inst, cfg)
        dg_obj, rs_obj = made
        assert rs_obj.eval_count == sum(r.restart_calls for r in trace.rows)
        warm_up = dg_obj.eval_count - sum(r.dgreedy_calls for r in trace.rows)
        assert 0 < warm_up <= inst.ground.n + cfg.tau + inst.ground.n

    @pytest.mark.parametrize("family", ["modular", "dpp"])
    def test_budgets_that_admit_nothing_score_zero(self, tmp_path, family):
        # 1% of the total cost admits no element (every cost is at least
        # 0.2 of a total below 20): the race starts anyway, each row under
        # budgets that admit nothing reads 0 with no call for both
        # contestants, and a rerun writes the same bytes
        inst = random_instance(np.random.default_rng(12), 10, 2, family)
        cfg = SimConfig(tau=10, noise_sigma=0.1, n_updates=30, seed=4, lam=1.0,
                        initial_fraction=0.01)
        traces = [run_dynamic(Instance(inst.ground, inst.constraints, inst.objective.clone()), cfg)
                  for _ in range(2)]
        rows = traces[0].rows
        assert len(rows) == cfg.n_updates
        empty = [not inst.constraints.with_weights(r.weights).fits().any() for r in rows]
        assert any(empty) and not all(empty)
        for r, nothing_fits in zip(rows, empty):
            if nothing_fits:
                assert (r.dgreedy_value, r.restart_value, r.dgreedy_calls, r.restart_calls) == (0.0, 0.0, 0, 0)
        assert max(r.dgreedy_value for r in rows) > 0
        paths = [tmp_path / ("trace_%d.csv" % i) for i in range(2)]
        for trace, path in zip(traces, paths):
            trace_to_csv(trace, path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_small_tau_warns(self):
        inst = worked_example_instance()
        with pytest.warns(RuntimeWarning, match="budget too small"):
            run_dynamic(inst, SimConfig(tau=2, noise_sigma=0.0, n_updates=1))

    def test_seed_reproducibility(self, tmp_path):
        rng = np.random.default_rng(6)
        inst = random_instance(rng, 8, 2, "entropy")
        cfg = SimConfig(tau=20, noise_sigma=0.05, n_updates=10, seed=11, lam=2.0)
        paths = []
        for tag in ("a", "b"):
            trace = run_dynamic(
                Instance(inst.ground, inst.constraints, inst.objective.clone()), cfg
            )
            p = tmp_path / ("trace_%s.csv" % tag)
            trace_to_csv(trace, p)
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_different_seeds_differ(self):
        rng = np.random.default_rng(8)
        inst = random_instance(rng, 8, 2, "modular")
        traces = []
        for seed in (1, 2):
            cfg = SimConfig(tau=20, noise_sigma=0.1, n_updates=10, seed=seed, lam=2.0)
            traces.append(
                run_dynamic(
                    Instance(inst.ground, inst.constraints, inst.objective.clone()), cfg
                )
            )
        w1 = [tuple(r.weights) for r in traces[0].rows]
        w2 = [tuple(r.weights) for r in traces[1].rows]
        assert w1 != w2


class TestSerialization:
    def test_csv_layout(self, tmp_path):
        trace = make_trace([1.0], [0.5])
        p = tmp_path / "t.csv"
        trace_to_csv(trace, p)
        lines = p.read_text().splitlines()
        assert lines[0] == "update,weight_0,dgreedy_value,restart_value,dgreedy_calls,restart_calls"
        assert lines[1] == "1,1,1,0.5,3,4"

    def test_summary_json_roundtrip(self, tmp_path):
        trace = make_trace([1.0, 3.0], [2.0, 2.0])
        p = tmp_path / "s.json"
        summary_to_json(trace, p)
        doc = json.loads(p.read_text())
        assert doc["dgreedy"]["mean"] == 2.0
        assert doc["restart"]["std"] == 0.0
        assert doc["config"]["tau"] == 10
