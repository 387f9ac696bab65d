"""Acceptance gate: one test per release criterion, each printing a single
PASS/FAIL line to the terminal (bypassing capture).

Criterion 6's directed-cut curvature bound is reported honestly as FAIL and
the test is xfailed: under the curvature definition used by the guarantee
machinery (max over witness triples of 1 - num/den), directed cuts admit
arbitrarily large curvature (a 3-cycle with weights 1, 2, 0.5 already gives
alpha = 5), so the advertised alpha <= 2 cannot hold. The guarantee checks
themselves remain valid because they consume the computed alpha.
"""

import json
import math
import time

import numpy as np
import pytest

from knapgreedy import (
    DirectedCutObjective,
    DppLogDetObjective,
    DynamicGreedy,
    EmptyAfterReductionError,
    EntropyObjective,
    GroundSet,
    Instance,
    KnapsackConstraints,
    ModularObjective,
    SimConfig,
    brute_force_curvature,
    brute_force_opt,
    chi,
    guarantee_bound,
    lambda_greedy,
    partition_constraints,
    run_dynamic,
    split_by_threshold,
    summarize,
)
from knapgreedy.harness import trace_to_csv

from conftest import (
    FAMILIES,
    cofactor_det,
    power_iteration_max_eig,
    random_instance,
    random_objective,
    random_spd,
    reference_greedy,
    worked_example_instance,
)


def report(capsys, line):
    with capsys.disabled():
        print(line)


def test_criterion_1_worked_example(capsys):
    """Exact values on the hand-worked single-knapsack example."""
    ok = True
    static = lambda_greedy(worked_example_instance(W=2.0), 1.0)
    ok &= static.value == 3.25 and static.chosen == (4, 0)
    ok &= brute_force_opt(worked_example_instance(W=2.0)) == (3.25, (0, 4))
    ok &= brute_force_opt(worked_example_instance(W=3.0)) == (4.0, (2, 4))

    eng = DynamicGreedy(worked_example_instance(W=2.0), 1.0)
    eng.run_to_completion()
    ok &= eng.sigma.order == [4, 0]
    eng.apply_weights([3.0])
    ok &= eng.sigma.order == [4]
    result = eng.finalize()
    ok &= result.value == 4.0 and result.chosen == (4, 2)

    report(capsys, "[criterion 1] worked-example exactness: %s" % ("PASS" if ok else "FAIL"))
    assert ok


def test_criterion_2_static_guarantee(capsys):
    """>= 500 random instances meet the curvature-based bound."""
    start = time.time()
    rng = np.random.default_rng(101)
    checked, failures = 0, 0
    while checked < 500:
        n = int(rng.integers(3, 11))
        k = int(rng.integers(1, 4))
        family = FAMILIES[int(rng.integers(0, len(FAMILIES)))]
        lam = float(rng.choice([1.0, math.ceil(k / 2), k]))
        inst = random_instance(rng, n, k, family)
        try:
            result = lambda_greedy(inst, lam)
        except EmptyAfterReductionError:
            continue
        opt_val, _ = brute_force_opt(
            Instance(inst.ground, inst.constraints, inst.objective.clone())
        )
        alpha = brute_force_curvature(inst.objective.clone(), n)
        if result.value < guarantee_bound(lam, alpha) * opt_val - 1e-9:
            failures += 1
        checked += 1
    elapsed = time.time() - start
    ok = failures == 0 and elapsed < 300
    report(
        capsys,
        "[criterion 2] static guarantee on %d random instances "
        "(%d violations, %.1fs): %s" % (checked, failures, elapsed, "PASS" if ok else "FAIL"),
    )
    assert ok


def _dynamic_trial(rng):
    """One mid-run tightening weight update on a random instance; returns
    (ordered-equality, recovery-calls, n, chi_rec) or None if degenerate."""
    n = int(rng.integers(4, 13))
    k = int(rng.integers(1, 4))
    family = FAMILIES[int(rng.integers(0, len(FAMILIES)))]
    lam = float(rng.choice([1.0, math.ceil(k / 2), k]))
    inst = random_instance(rng, n, k, family)
    try:
        eng = DynamicGreedy(inst, lam)
    except EmptyAfterReductionError:
        return None
    m = int(eng.cons.fits().sum())  # the elements that fit; the rest sit out
    for _ in range(int(rng.integers(0, m))):
        eng.step()
    old_chi = chi(eng.cons)
    new_w = eng.cons.weights * rng.uniform(0.4, 1.0, size=k)
    before = eng.obj.eval_count
    eng.apply_weights(new_w)
    chi_rec = min(old_chi, chi(eng.cons), len(eng.sigma.order))
    eng.run_to_completion()
    recovery_calls = eng.obj.eval_count - before

    cons = inst.constraints.with_weights(new_w)
    scratch = reference_greedy(eng.obj, cons, split_by_threshold(cons, lam))
    return scratch.order == eng.sigma.order, recovery_calls, m, chi_rec


def test_criterion_3_restart_equivalence(capsys):
    """>= 100 dynamic trials: engine sequence equals from-scratch greedy."""
    start = time.time()
    rng = np.random.default_rng(103)
    trials, mismatches = 0, 0
    while trials < 120:
        out = _dynamic_trial(rng)
        if out is None:
            continue
        equal, _, _, _ = out
        mismatches += not equal
        trials += 1
    elapsed = time.time() - start
    ok = mismatches == 0 and elapsed < 120
    report(
        capsys,
        "[criterion 3] restart equivalence on %d dynamic trials "
        "(%d mismatches, %.1fs): %s" % (trials, mismatches, elapsed, "PASS" if ok else "FAIL"),
    )
    assert ok


def test_criterion_3b_guarantee_after_any_updates(capsys):
    """>= 200 engines meet the curvature-based bound after loosening and
    mixed budget updates, n <= 9, all families; elements that did not fit
    at start-up come back when a budget grows."""
    start = time.time()
    rng = np.random.default_rng(109)
    checked, failures, regained = 0, 0, 0
    while checked < 200:
        n = int(rng.integers(4, 10))
        k = int(rng.integers(1, 4))
        family = FAMILIES[checked % len(FAMILIES)]
        lam = float(rng.choice([1.0, math.ceil(k / 2), k]))
        inst = random_instance(rng, n, k, family)
        base = inst.constraints.weights
        if checked % 2:  # built tight, then loosened back to the instance's budgets
            walk = [f * base for f in (0.3, 0.6, 1.0)]
        else:  # per-knapsack factors in [0.3, 1.7], tightening and loosening
            walk = [base * rng.uniform(0.3, 1.7, size=k) for _ in range(int(rng.integers(2, 5)))]
        try:
            eng = DynamicGreedy(
                Instance(inst.ground, inst.constraints.with_weights(walk[0]),
                         inst.objective.clone()), lam
            )
        except EmptyAfterReductionError:
            continue
        unfit = set(np.flatnonzero(~eng.cons.fits()).tolist())
        for w in walk[1:]:
            for _ in range(int(rng.integers(0, n + 1))):
                eng.step()
            eng.apply_weights(w)
        result = eng.finalize()
        final = Instance(inst.ground, inst.constraints.with_weights(walk[-1]),
                         inst.objective.clone())
        opt_val, _ = brute_force_opt(final)
        alpha = brute_force_curvature(inst.objective.clone(), n)
        bad = result.value < guarantee_bound(lam, alpha) * opt_val - 1e-9
        failures += bad or not final.constraints.is_feasible(result.chosen)
        regained += bool(unfit & set(result.chosen))
        checked += 1
    elapsed = time.time() - start
    ok = failures == 0 and regained > 0 and elapsed < 120
    report(
        capsys,
        "[criterion 3b] guarantee after loosening and mixed updates on %d engines "
        "(%d violations, %d solutions hold a regained element, %.1fs): %s"
        % (checked, failures, regained, elapsed, "PASS" if ok else "FAIL"),
    )
    assert ok


def test_criterion_4_recovery_cost(capsys):
    """Recovery oracle calls <= C*n*(n - chi_rec) with C = 3."""
    rng = np.random.default_rng(104)
    trials, violations, worst_c = 0, 0, 0.0
    while trials < 120:
        out = _dynamic_trial(rng)
        if out is None:
            continue
        _, calls, n, chi_rec = out
        if chi_rec >= n:
            violations += calls > 0
        else:
            c = calls / (n * (n - chi_rec))
            worst_c = max(worst_c, c)
            violations += c > 3.0
        trials += 1
    ok = violations == 0
    report(
        capsys,
        "[criterion 4] recovery cost <= 3*n*(n-chi) on %d trials "
        "(max observed C = %.2f): %s" % (trials, worst_c, "PASS" if ok else "FAIL"),
    )
    assert ok


def test_criterion_5_chi_soundness(capsys):
    """Every subset of size <= chi feasible; a size chi+1 witness fails."""
    import itertools

    rng = np.random.default_rng(105)
    ok = True
    for _ in range(40):
        n = int(rng.integers(3, 11))
        k = int(rng.integers(1, 4))
        costs = rng.uniform(0.1, 2.0, size=(k, n))
        weights = rng.uniform(0.5, 0.7 * costs.sum(axis=1))
        cons = KnapsackConstraints(costs, weights)
        c = chi(cons)
        for size in range(c + 1):
            for S in itertools.combinations(range(n), size):
                ok &= cons.is_feasible(S)
        if c < n:
            # witness lives in the knapsack that attains the chi minimum
            per_knapsack = []
            for j in range(k):
                desc = np.sort(costs[j])[::-1]
                per_knapsack.append(int(np.searchsorted(np.cumsum(desc), weights[j], side="right")))
            j = int(np.argmin(per_knapsack))
            top = np.argsort(costs[j])[::-1][: c + 1]
            ok &= not cons.is_feasible(top)
    report(capsys, "[criterion 5] chi soundness (exhaustive, 40 draws): %s"
           % ("PASS" if ok else "FAIL"))
    assert ok


def test_criterion_6_objective_correctness(capsys):
    """Determinant oracles, submodularity, and curvature bounds.

    The directed-cut alpha <= 2 sub-check is expected to fail: the witness
    3-cycle below has alpha = 5 under the triple-ratio curvature used
    throughout, so the criterion is reported FAIL and the test xfailed.
    """
    rng = np.random.default_rng(106)

    # log-det and entropy against cofactor expansion, n <= 6
    for _ in range(5):
        n = int(rng.integers(2, 7))
        M = random_spd(rng, n)
        dpp = DppLogDetObjective(M, jitter=0.0)
        ent = EntropyObjective(M)
        for _ in range(10):
            S = {e for e in range(n) if rng.random() < 0.5}
            if not S:
                continue
            idx = sorted(S)
            det = cofactor_det(M[np.ix_(idx, idx)])
            assert abs(dpp.value(S) - math.log(det)) < 1e-8
            expected = 0.5 * (1 + math.log(2 * math.pi)) * len(idx) + 0.5 * math.log(det)
            assert abs(ent.value(S) - expected) < 1e-8

    # submodularity inequality on random triples, all families
    for family in FAMILIES:
        for _ in range(3):
            n = int(rng.integers(3, 9))
            obj = random_objective(rng, n, family)
            for _ in range(30):
                S = {e for e in range(n) if rng.random() < 0.5}
                Om = {e for e in range(n) if rng.random() < 0.5}
                assert (obj.value(S) + obj.value(Om)
                        >= obj.value(S | Om) + obj.value(S & Om) - 1e-7)

    # entropy curvature against the spectral bound
    for _ in range(5):
        n = int(rng.integers(3, 7))
        Sigma = random_spd(rng, n)
        alpha = brute_force_curvature(EntropyObjective(Sigma), n)
        assert alpha <= 1 - 1 / power_iteration_max_eig(Sigma) + 1e-6

    # directed-cut curvature bound: demonstrably false
    cut_alphas = [
        brute_force_curvature(
            DirectedCutObjective(3, [(0, 1, 1.0), (1, 2, 2.0), (2, 0, 0.5)]), 3
        )
    ]
    for _ in range(10):
        n = int(rng.integers(3, 7))
        cut_alphas.append(brute_force_curvature(random_objective(rng, n, "cut"), n))
    cut_bound_holds = max(cut_alphas) <= 2 + 1e-9

    verdict = "PASS" if cut_bound_holds else (
        "FAIL (directed-cut alpha <= 2 violated, max alpha = %.2f; "
        "determinant, submodularity and entropy sub-checks pass)" % max(cut_alphas)
    )
    report(capsys, "[criterion 6] objective correctness: %s" % verdict)
    if not cut_bound_holds:
        pytest.xfail("directed-cut curvature is unbounded under the "
                     "triple-ratio definition; see notes and README")


def _advantage_instances():
    rng = np.random.default_rng(107)
    n = 30
    Sigma = random_spd(rng, n)
    labels = [e % 3 for e in range(n)]
    ent = Instance(
        GroundSet(n),
        partition_constraints(labels, [5, 5, 5]),
        EntropyObjective(Sigma),
    )
    mod = Instance(
        GroundSet(n),
        KnapsackConstraints(rng.uniform(0.2, 2.0, size=(1, n)), [1.0]),
        ModularObjective(rng.uniform(0.0, 2.0, n)),
    )
    return [("entropy/partition", ent, 3.0), ("modular", mod, 1.0)]


def test_criterion_7_dynamic_advantage(capsys):
    """Engine beats restart under a tight per-update oracle budget."""
    start = time.time()
    ok = True
    details = []
    for name, inst, lam in _advantage_instances():
        n = inst.ground.n
        for sigma in (0.05, 0.075, 0.1):
            gaps = []
            for seed in range(50):
                cfg = SimConfig(tau=n, noise_sigma=sigma, n_updates=50, seed=seed,
                                lam=lam, initial_fraction=0.5)
                trial = Instance(inst.ground, inst.constraints, inst.objective.clone())
                s = summarize(run_dynamic(trial, cfg))
                gaps.append(s["dgreedy"]["mean"] - s["restart"]["mean"])
            gaps = np.array(gaps)
            win_rate = float((gaps >= 0).mean())
            mean_gap = float(gaps.mean())
            ok &= win_rate >= 0.8 and mean_gap > 0
            details.append("%s sigma=%g wins=%.0f%% gap=%.3f" % (name, sigma, 100 * win_rate, mean_gap))
    elapsed = time.time() - start
    ok &= elapsed < 600
    report(
        capsys,
        "[criterion 7] dynamic advantage (%s; %.1fs): %s"
        % ("; ".join(details), elapsed, "PASS" if ok else "FAIL"),
    )
    assert ok


def test_criterion_8_determinism(capsys, tmp_path):
    """Fixed seeds give byte-identical traces and solver JSON."""
    rng = np.random.default_rng(108)
    inst = random_instance(rng, 10, 2, "entropy")
    cfg = SimConfig(tau=25, noise_sigma=0.08, n_updates=15, seed=42, lam=2.0,
                    initial_fraction=0.5)
    blobs = []
    for tag in ("a", "b"):
        trial = Instance(inst.ground, inst.constraints, inst.objective.clone())
        trace = run_dynamic(trial, cfg)
        p = tmp_path / ("trace_%s.csv" % tag)
        trace_to_csv(trace, p)
        blobs.append(p.read_bytes())
    ok = blobs[0] == blobs[1]

    docs = []
    for _ in range(2):
        trial = Instance(inst.ground, inst.constraints, inst.objective.clone())
        docs.append(json.dumps(lambda_greedy(trial, 2.0).to_dict(), sort_keys=True))
    ok &= docs[0] == docs[1]

    report(capsys, "[criterion 8] determinism (byte-identical reruns): %s"
           % ("PASS" if ok else "FAIL"))
    assert ok
