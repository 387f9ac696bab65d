import math

import numpy as np
import pytest

from knapgreedy import (
    CurvatureDegenerateError,
    GroundSet,
    Instance,
    InvalidInstanceError,
    KnapsackConstraints,
    ModularObjective,
    Objective,
    OracleCapError,
    brute_force_curvature,
    brute_force_opt,
    check_guarantee,
    guarantee_bound,
    lambda_greedy,
)
from knapgreedy.core import FEAS_TOL

from conftest import (
    FAMILIES,
    random_instance,
    random_objective,
    reference_curvature,
    reference_opt,
    twin_instance,
    worked_example_instance,
)


class CoverageLikeObjective(Objective):
    """f({}) = 0, f({0}) = 1, f({1}) = 1, f({0, 1}) = 1.5."""

    def _value(self, S):
        if not S:
            return 0.0
        if len(S) == 2:
            return 1.5
        return 1.0


class SupermodularObjective(Objective):
    """Adding 1 to {} gains nothing but to {0} strictly gains: the zero
    marginal grows, so no finite curvature scalar exists."""

    def _value(self, S):
        table = {frozenset(): 0.0, frozenset({0}): 0.0,
                 frozenset({1}): 0.0, frozenset({0, 1}): 1.0}
        return table[frozenset(S)]


class TableObjective(Objective):
    """f given by a table indexed by bitmask. Entries may be NaN or
    infinite, to reach every branch of the curvature scan, which never asks
    for f of the empty set."""

    def __init__(self, table):
        super().__init__()
        self.table = table

    def _value(self, S):
        return self.table[sum(1 << e for e in S)]


def curvature_outcome(fn, obj, n):
    """("alpha", value) or ("raises", error type, message)."""
    try:
        return ("alpha", fn(obj, n))
    except CurvatureDegenerateError as exc:
        return ("raises", type(exc), str(exc))


def random_table(rng, n, trial):
    """Small integers, so gains tie and hit zero often, with NaN, +inf and
    -inf entries sprinkled in; some tables are scaled to gains around the
    1e-12 raise threshold."""
    if trial % 3:
        table = rng.integers(-3, 4, size=1 << n).astype(float)
    else:
        table = np.cumsum(rng.integers(-1, 3, size=1 << n)).astype(float)
    u = rng.random(1 << n)
    table[u < 0.05] = np.nan
    table[(u >= 0.05) & (u < 0.1)] = np.inf
    table[(u >= 0.1) & (u < 0.15)] = -np.inf
    if trial % 7 == 0:
        table *= rng.choice([1e-13, 1e-12, 2e-12, 0.1, 1.0], size=1 << n)
    return table


def opt_instances(rng):
    """Random instances for the OPT differential, n up to 14: plain ones,
    twins (exact ties), integer modular values (ties among sets), and
    budgets set to the cost of some subset, with and without FEAS_TOL taken
    off, so that sets sit on the feasibility boundary."""
    for trial in range(48):
        family = FAMILIES[trial % 4]
        n = 14 if trial in (3, 13) else int(rng.integers(1, 13))
        k = int(rng.integers(1, 4))
        kind = trial // 4 % 4
        if kind == 0:
            yield random_instance(rng, n, k, family)
        elif kind == 1:
            yield twin_instance(rng, family, max(1, n // 2))
        else:
            inst = random_instance(rng, n, k, family)
            if kind == 2 and family == "modular":
                inst.objective = ModularObjective(rng.integers(0, 3, n).astype(float))
            S = [e for e in range(n) if rng.random() < 0.4]
            w = inst.constraints.set_cost(S) - (FEAS_TOL if trial % 2 else 0.0)
            inst.constraints = inst.constraints.with_weights(np.maximum(w, 0.0))
            yield inst


def same_opt(got, want):
    return got[0].hex() == want[0].hex() and got[1] == want[1]


class TestBruteForceOpt:
    def test_worked_example_tight_budget(self, worked_example):
        val, S = brute_force_opt(worked_example)
        assert val == 3.25
        assert S == (0, 4)

    def test_worked_example_relaxed_budget(self):
        val, S = brute_force_opt(worked_example_instance(W=3.0))
        assert val == 4.0
        assert S == (2, 4)

    def test_nothing_feasible_returns_empty(self):
        inst = Instance(
            GroundSet(3),
            KnapsackConstraints([[5.0, 5.0, 5.0]], [1.0]),
            ModularObjective([1.0, 1.0, 1.0]),
        )
        assert brute_force_opt(inst) == (0.0, ())

    def test_tie_prefers_lexicographically_smallest(self):
        inst = Instance(
            GroundSet(3),
            KnapsackConstraints([[1.0, 1.0, 1.0]], [1.0]),
            ModularObjective([2.0, 2.0, 2.0]),
        )
        assert brute_force_opt(inst) == (2.0, (0,))

    def test_matches_reference_loop(self):
        # value bits and set, ties and budgets on the FEAS_TOL boundary
        rng = np.random.default_rng(71)
        ties = boundary = 0
        for inst in opt_instances(rng):
            want = reference_opt(inst)
            assert same_opt(brute_force_opt(inst), want)
            ties += np.count_nonzero(inst.objective.clone().value_table(inst.ground.n) == want[0]) > 1
            cost = inst.constraints.set_cost(want[1])
            boundary += bool(np.any(cost == inst.constraints.weights))
        assert ties >= 10 and boundary >= 5

    def test_size_cap(self):
        n = 25
        inst = Instance(
            GroundSet(n),
            KnapsackConstraints([[1.0] * n], [3.0]),
            ModularObjective([1.0] * n),
        )
        with pytest.raises(OracleCapError, match="too large"):
            brute_force_opt(inst)


class TestBruteForceCurvature:
    def test_empty_ground_set_is_zero(self):
        assert brute_force_curvature(ModularObjective([]), 0) == 0.0

    def test_modular_is_zero(self):
        obj = ModularObjective([0.5, 2.0, 1.0])
        assert brute_force_curvature(obj, 3) == 0.0

    def test_coverage_half(self):
        # the gain of 0 drops from 1 to 0.5 once 1 is present
        assert brute_force_curvature(CoverageLikeObjective(), 2) == pytest.approx(0.5)

    def test_monotone_submodular_in_unit_interval(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            n = 4
            weights = rng.uniform(0.5, 2.0, n)
            cover = [set(rng.choice(6, size=3, replace=False)) for _ in range(n)]

            class Cover(Objective):
                def _value(self, S):
                    hit = set().union(*(cover[e] for e in S)) if S else set()
                    return float(sum(1.0 for _ in hit))

            alpha = brute_force_curvature(Cover(), n)
            assert -1e-12 <= alpha <= 1 + 1e-12

    def test_zero_denominator_violation_raises(self):
        with pytest.raises(CurvatureDegenerateError):
            brute_force_curvature(SupermodularObjective(), 2)

    def test_nonmonotone_zero_denominator_is_skipped(self):
        # directed cut with a pure sink: adding the sink to {} gains 0 but
        # to {0} strictly loses; that is ordinary diminishing returns and
        # must not be flagged
        from knapgreedy import DirectedCutObjective

        obj = DirectedCutObjective(2, [(0, 1, 1.0)])
        # the only nonzero-denominator shrink is 1 - 0/1 from the source
        assert brute_force_curvature(obj, 2) == 1.0

    def test_size_cap(self):
        with pytest.raises(OracleCapError, match="too large"):
            brute_force_curvature(ModularObjective([1.0] * 11), 11)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("size", [2, 4])
    def test_objective_of_another_size(self, family, size):
        # too small used to raise IndexError; too large gave the curvature
        # of the first 3 elements
        obj = random_objective(np.random.default_rng(size), size, family)
        with pytest.raises(InvalidInstanceError, match="objective has size %d but n=3" % size):
            brute_force_curvature(obj, 3)
        assert obj.eval_count == 0

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_pairwise_scan_on_families(self, family):
        # bit for bit (==), at every size up to the cap
        rng = np.random.default_rng(43)
        for n in range(1, 11):
            obj = random_objective(rng, n, family)
            got = curvature_outcome(brute_force_curvature, obj.clone(), n)
            assert got == curvature_outcome(reference_curvature, obj.clone(), n)

    def test_matches_pairwise_scan_on_tables(self):
        # zeros, ties, NaN and +-inf gains; a degenerate table raises the
        # same error with the same message, so at the same omega
        rng = np.random.default_rng(47)
        raised = 0
        for trial in range(400):
            n = int(rng.integers(1, 7))
            table = random_table(rng, n, trial)
            with np.errstate(all="ignore"):
                want = curvature_outcome(reference_curvature, TableObjective(table), n)
                got = curvature_outcome(brute_force_curvature, TableObjective(table), n)
            assert got == want, table.tolist()
            raised += want[0] == "raises"
        assert 100 < raised < 300

    @pytest.mark.parametrize("table", [[0.0, np.inf, 0.0, -1.0], [0.0, -np.inf, 2.0, 3.0]])
    def test_infinite_gain_is_a_denominator(self, table):
        # for omega = 0 and B = {1}, the only positive (first table) or
        # negative (second) denominator is the gain at A = {}, +inf or
        # -inf: 1 - g[B]/(+-inf) = 1, and every other ratio is at most 0
        # or NaN
        with np.errstate(all="ignore"):
            assert reference_curvature(TableObjective(np.array(table)), 2) == 1.0
            assert brute_force_curvature(TableObjective(np.array(table)), 2) == 1.0

    def test_same_oracle_calls_in_the_same_order(self):
        seen = []

        class Logged(TableObjective):
            def _value(self, S):
                seen.append(tuple(sorted(S)))
                return super()._value(S)

        table = np.arange(16, dtype=float)
        obj = Logged(table)
        brute_force_curvature(obj, 4)
        ours, seen[:] = list(seen), []
        reference_curvature(Logged(table), 4)
        assert ours == seen and len(seen) == 15
        assert obj.eval_count == 15


class TestGuaranteeBound:
    def test_lambda_one_alpha_small(self):
        assert guarantee_bound(1.0, 0.0) == pytest.approx((1 - math.exp(-1)) / 3)

    def test_alpha_above_one_scales(self):
        assert guarantee_bound(1.0, 2.0) == pytest.approx((1 - math.exp(-1)) / 6)

    def test_larger_lambda_weakens(self):
        assert guarantee_bound(3.0, 0.5) < guarantee_bound(1.0, 0.5)


class TestCheckGuarantee:
    def test_worked_example_solver_passes(self, worked_example):
        result = lambda_greedy(worked_example, 1.0)
        report = check_guarantee(worked_example_instance(), 1.0, result.value)
        assert report.passed
        assert report.ratio == pytest.approx(1.0)
        assert report.opt_value == 3.25
        assert report.alpha == 0.0

    def test_zero_opt_vacuous(self):
        inst = Instance(
            GroundSet(2),
            KnapsackConstraints([[1.0, 1.0]], [2.0]),
            ModularObjective([0.0, 0.0]),
        )
        report = check_guarantee(inst, 1.0, 0.0)
        assert report.passed
        assert report.ratio is None

    def test_opt_matches_reference_loop(self):
        rng = np.random.default_rng(73)
        checked = 0
        for inst in opt_instances(rng):
            if inst.ground.n > 10:
                continue
            want = reference_opt(inst)
            try:
                report = check_guarantee(inst, 1.0, 0.0)
            except CurvatureDegenerateError:
                continue
            assert same_opt((report.opt_value, report.opt_set), want)
            checked += 1
        assert checked >= 30

    def test_leaves_the_callers_objective_alone(self):
        rng = np.random.default_rng(79)
        for family in FAMILIES:
            inst = random_instance(rng, 8, 2, family)
            obj = inst.objective
            obj.follow([3, 0, 5])
            obj.value([3, 0, 5, 1])
            state, count = obj._prefix, obj.eval_count
            check_guarantee(inst, 1.0, 1.0)
            assert obj.eval_count == count
            assert obj._prefix is state and state.order == [3, 0, 5]

    def test_one_table_on_one_clone(self, monkeypatch):
        clones = []
        clone = Objective.clone

        def logged_clone(obj):
            clones.append(clone(obj))
            return clones[-1]

        monkeypatch.setattr(Objective, "clone", logged_clone)
        check_guarantee(worked_example_instance(), 1.0, 3.0)
        assert [c.eval_count for c in clones] == [31]

    @pytest.mark.parametrize("costs, message", [
        ([[1, -1, 2, 2, 1]], "negative cost for element 1"),
        ([[1, 0, 2, 2, 1]], "zero max-cost element 1"),
    ])
    def test_malformed_instance_raises_before_any_call(self, monkeypatch, costs, message):
        # unchecked, a negative cost makes a too-costly set look feasible,
        # and a zero-cost element one that fits any budget
        clones = []
        monkeypatch.setattr(Objective, "clone", lambda obj: clones.append(obj))
        inst = Instance(GroundSet(5), KnapsackConstraints(costs, [2.0]),
                        worked_example_instance().objective)
        for check in (brute_force_opt, lambda i: check_guarantee(i, 1.0, 0.0)):
            with pytest.raises(InvalidInstanceError, match=message):
                check(inst)
        assert clones == []

    def test_low_claimed_value_fails(self, worked_example):
        report = check_guarantee(worked_example, 1.0, 0.01)
        assert not report.passed
        assert report.ratio == pytest.approx(0.01 / 3.25)
