import math

import numpy as np
import pytest

import knapgreedy.core as core
import knapgreedy.objectives as objectives

from knapgreedy import (
    DirectedCutObjective,
    DppLogDetObjective,
    EntropyObjective,
    InvalidInstanceError,
    KnapsackConstraints,
    ModularObjective,
    NotPositiveDefiniteError,
    brute_force_curvature,
    build_qd_kernel,
    partition_constraints,
)

from conftest import (
    FAMILIES,
    adjacency_scan_cut,
    cofactor_det,
    power_iteration_max_eig,
    random_objective,
    random_spd,
    reference_value_table,
)


def random_subset(rng, n):
    return {e for e in range(n) if rng.random() < 0.5}


class TestQdKernel:
    def test_identical_features_all_ones(self):
        L = build_qd_kernel([1, 1, 1], {"a": [[2.0], [2.0], [2.0]]}, {"a": 1.0})
        assert np.allclose(L, np.ones((3, 3)))

    def test_two_items_unit_gap(self):
        L = build_qd_kernel([1, 1], {"a": [[0.0], [1.0]]}, {"a": 1.0})
        assert L[0, 0] == pytest.approx(1.0)
        assert L[0, 1] == pytest.approx(math.exp(-1.0))

    def test_matches_double_loop(self):
        rng = np.random.default_rng(3)
        q = rng.uniform(0.5, 2.0, 3)
        feats = {"a": rng.normal(size=(3, 2)), "b": rng.normal(size=(3, 4))}
        sigmas = {"a": 0.7, "b": 2.3}
        L = build_qd_kernel(q, feats, sigmas)
        for i in range(3):
            for j in range(3):
                expo = 0.0
                for f in feats:
                    diff = feats[f][i] - feats[f][j]
                    expo += float(diff @ diff) / sigmas[f]
                assert L[i, j] == pytest.approx(q[i] * math.exp(-expo) * q[j], abs=1e-12)

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(InvalidInstanceError):
            build_qd_kernel([1, 1], {"a": [[0.0], [1.0]]}, {"a": 0.0})

    def test_rejects_nonpositive_quality(self):
        with pytest.raises(InvalidInstanceError):
            build_qd_kernel([1, 0], {"a": [[0.0], [1.0]]}, {"a": 1.0})

    @pytest.mark.parametrize("features, sigmas, message", [
        ({"a": [[0.0], [1.0]], "b": [[0.0], [1.0]]}, {"a": 1.0},
         "missing bandwidth for feature family 'b'"),
        ({"a": [[0.0], [1.0], [2.0]]}, {"a": 1.0}, "feature family 'a' has 3 rows, expected 2"),
        ({"a": [[0.0], [1.0]], "b": [[0.0]]}, {"a": 0.0},
         "missing bandwidth for feature family 'b'"),  # every family before any bandwidth
    ], ids=["no-bandwidth", "row-count", "families-first"])
    def test_rejects_a_feature_family_it_cannot_use(self, features, sigmas, message):
        with pytest.raises(InvalidInstanceError, match=message):
            build_qd_kernel([1, 1], features, sigmas)


class TestDppLogDet:
    def test_identity_kernel_is_zero(self):
        obj = DppLogDetObjective(np.eye(4), jitter=0.0)
        assert obj.value({0, 2, 3}) == pytest.approx(0.0)

    def test_diagonal(self):
        obj = DppLogDetObjective(np.diag([2.0, 3.0]), jitter=0.0)
        assert obj.value({0, 1}) == pytest.approx(math.log(6.0))

    def test_matches_cofactor_expansion(self):
        rng = np.random.default_rng(4)
        L = random_spd(rng, 5)
        obj = DppLogDetObjective(L, jitter=0.0)
        for _ in range(20):
            S = random_subset(rng, 5)
            if not S:
                continue
            idx = sorted(S)
            expected = math.log(cofactor_det(L[np.ix_(idx, idx)]))
            assert obj.value(S) == pytest.approx(expected, abs=1e-8)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(9)
        obj = DppLogDetObjective(random_spd(rng, 5))
        assert obj.value([3, 1, 4]) == obj.value([4, 3, 1])

    @pytest.mark.parametrize("jitter", [float("nan"), float("inf"), -1e-10])
    def test_rejects_non_finite_or_negative_jitter(self, jitter):
        # unchecked, a NaN jitter makes every value NaN, so the solver
        # returns 0.0, and an infinite one makes every value infinite
        with pytest.raises(InvalidInstanceError, match="jitter must be finite and nonnegative"):
            DppLogDetObjective(np.eye(2), jitter=jitter)

    @pytest.mark.parametrize("family", [DppLogDetObjective, EntropyObjective])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_a_non_finite_kernel(self, family, bad):
        # np.allclose(inf, inf) holds, so the symmetry check alone let an
        # infinite kernel through, and a NaN one failed as "not symmetric"
        M = np.eye(2)
        M[1, 1] = bad
        with pytest.raises(InvalidInstanceError, match="must be finite"):
            family(M)

    @pytest.mark.parametrize("family", [DppLogDetObjective, EntropyObjective])
    @pytest.mark.parametrize("shape", [(2, 3), (4,)])
    def test_rejects_a_kernel_that_is_not_square(self, family, shape):
        with pytest.raises(InvalidInstanceError, match="must be square"):
            family(np.ones(shape))

    @pytest.mark.parametrize("family", [DppLogDetObjective, EntropyObjective])
    def test_symmetry_tolerance(self, family):
        M = np.eye(2)
        M[0, 1] = objectives.SYMMETRY_TOL
        family(M)
        M[0, 1] = 2 * objectives.SYMMETRY_TOL
        with pytest.raises(InvalidInstanceError, match="must be symmetric"):
            family(M)

    def test_not_positive_definite(self):
        L = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
        obj = DppLogDetObjective(L, jitter=0.0)
        with pytest.raises(NotPositiveDefiniteError):
            obj.value({0, 1})


class TestEntropy:
    def test_identity_singleton(self):
        obj = EntropyObjective(np.eye(4))
        assert obj.value({2}) == pytest.approx(0.5 * (1 + math.log(2 * math.pi)))

    def test_identity_triple(self):
        obj = EntropyObjective(np.eye(4))
        assert obj.value({0, 1, 3}) == pytest.approx(1.5 * (1 + math.log(2 * math.pi)))

    def test_matches_cofactor_expansion(self):
        rng = np.random.default_rng(6)
        Sigma = random_spd(rng, 6)
        obj = EntropyObjective(Sigma)
        for _ in range(20):
            S = random_subset(rng, 6)
            if not S:
                continue
            idx = sorted(S)
            expected = 0.5 * (1 + math.log(2 * math.pi)) * len(idx) + 0.5 * math.log(
                cofactor_det(Sigma[np.ix_(idx, idx)])
            )
            assert obj.value(S) == pytest.approx(expected, abs=1e-8)

    def test_singular_submatrix_rejected(self):
        Sigma = np.array([[1.0, 1.0], [1.0, 1.0]])
        obj = EntropyObjective(Sigma)
        with pytest.raises(NotPositiveDefiniteError):
            obj.value({0, 1})


class TestDirectedCut:
    def test_empty_and_full_are_zero(self):
        arcs = [(0, 1, 2.0), (1, 2, 1.0)]
        obj = DirectedCutObjective(3, arcs)
        assert obj.value(set()) == 0.0
        assert obj.value({0, 1, 2}) == 0.0

    def test_single_arc(self):
        obj = DirectedCutObjective(2, [(0, 1, 2.0)])
        assert obj.value({0}) == 2.0

    @pytest.mark.parametrize("arc", [(0, 2, 1.0), (-1, 0, 1.0)])
    def test_rejects_arc_out_of_range(self, arc):
        with pytest.raises(InvalidInstanceError, match="out of range"):
            DirectedCutObjective(2, [arc])

    @pytest.mark.parametrize("weight", [math.inf, math.nan])
    def test_rejects_a_non_finite_arc_weight(self, weight):
        # unchecked, an infinite weight makes values infinite, and a NaN
        # one makes every set that the arc leaves worth NaN
        with pytest.raises(InvalidInstanceError, match=r"arc weight on \(0, 1\) must be finite and nonnegative"):
            DirectedCutObjective(2, [(1, 0, 1.0), (0, 1, weight)])

    @pytest.mark.parametrize("arc, message", [
        ((0.7, 1, 1.0), "tail of arc 0 must be a whole number, got 0.7"),
        ((0, 1.9, 1.0), "head of arc 0 must be a whole number, got 1.9"),
        ((math.nan, 1, 1.0), "tail of arc 0 must be a whole number, got nan"),
    ])
    def test_rejects_an_endpoint_that_is_not_whole(self, arc, message):
        # int() would truncate it to another arc
        with pytest.raises(InvalidInstanceError, match=message):
            DirectedCutObjective(2, [arc])

    def test_whole_float_endpoints_stay_legal(self):
        obj = DirectedCutObjective(2, [(0.0, 1.0, 2.0), (np.float64(1.0), np.int64(0), 1.0)])
        assert obj.arcs == [(0, 1, 2.0), (1, 0, 1.0)]

    def test_self_loop_never_counts(self):
        obj = DirectedCutObjective(2, [(0, 0, 5.0), (0, 1, 1.0)])
        obj.follow([])
        assert obj.value({0}) == obj._value(frozenset({0})) == 1.0

    def test_full_table_matches_adjacency_scan(self):
        rng = np.random.default_rng(8)
        obj = random_objective(rng, 6, "cut")
        for mask in range(1 << 6):
            S = {e for e in range(6) if mask >> e & 1}
            assert obj.value(S) == pytest.approx(adjacency_scan_cut(6, obj.arcs, S))


class TestSubmodularityAndCurvature:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_submodular_inequality(self, family):
        rng = np.random.default_rng(13)
        for _ in range(5):
            n = int(rng.integers(3, 9))
            obj = random_objective(rng, n, family)
            for _ in range(40):
                S = random_subset(rng, n)
                Om = random_subset(rng, n)
                lhs = obj.value(S) + obj.value(Om)
                rhs = obj.value(S | Om) + obj.value(S & Om)
                assert lhs >= rhs - 1e-7

    @pytest.mark.parametrize("family", FAMILIES)
    def test_diminishing_returns(self, family):
        rng = np.random.default_rng(14)
        for _ in range(5):
            n = int(rng.integers(3, 9))
            obj = random_objective(rng, n, family)
            for _ in range(40):
                S = random_subset(rng, n)
                T = S | random_subset(rng, n)
                rest = [e for e in range(n) if e not in T]
                if not rest:
                    continue
                e = rest[int(rng.integers(0, len(rest)))]
                gain_small = obj.value(S | {e}) - obj.value(S)
                gain_large = obj.value(T | {e}) - obj.value(T)
                assert gain_small >= gain_large - 1e-7

    def test_entropy_curvature_bounded_by_spectrum(self):
        rng = np.random.default_rng(15)
        for _ in range(5):
            n = int(rng.integers(3, 7))
            Sigma = random_spd(rng, n)
            alpha = brute_force_curvature(EntropyObjective(Sigma), n)
            mu = power_iteration_max_eig(Sigma)
            assert alpha <= 1 - 1 / mu + 1e-6

    def test_directed_cut_curvature_three_cycle(self):
        # hand witness: adding 2 to {} gains 0.5 but to {0, 1} loses 2
        obj = DirectedCutObjective(3, [(0, 1, 1.0), (1, 2, 2.0), (2, 0, 0.5)])
        assert brute_force_curvature(obj, 3) == 5.0

    def test_curvature_matches_direct_triple_scan(self):
        # independent oracle: enumerate (S, Omega, omega) literally
        rng = np.random.default_rng(16)
        for family in FAMILIES:
            n = 4
            obj = random_objective(rng, n, family)
            elems = list(range(n))
            f = {}
            for mask in range(1 << n):
                S = frozenset(e for e in elems if mask >> e & 1)
                f[S] = obj.value(S)
            alpha = 0.0
            for s_mask in range(1 << n):
                S = frozenset(e for e in elems if s_mask >> e & 1)
                for o_mask in range(1 << n):
                    Om = frozenset(e for e in elems if o_mask >> e & 1)
                    for w in S - Om:
                        den = f[(S - {w}) | {w}] - f[S - {w}]
                        num = f[(S | Om) - {w} | {w}] - f[(S | Om) - {w}]
                        if den != 0.0:
                            alpha = max(alpha, 1.0 - num / den)
            assert brute_force_curvature(obj.clone(), n) == pytest.approx(alpha, abs=1e-12)


class TestPartitionBudget:
    def test_encoding(self):
        cons = partition_constraints([0, 1, 0, 2], [1, 2, 1])
        assert cons.k == 3
        assert np.array_equal(cons.costs, [[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
        assert np.array_equal(cons.weights, [1.0, 2.0, 1.0])
        assert isinstance(cons, KnapsackConstraints)
        assert cons.is_feasible({0, 1, 3})
        assert not cons.is_feasible({0, 2})

    def test_label_out_of_range(self):
        with pytest.raises(InvalidInstanceError):
            partition_constraints([0, 3], [1, 1])

    def test_rejects_a_label_that_is_not_whole(self):
        # int() would put elements 1 and 2 in groups 0 and 1
        with pytest.raises(InvalidInstanceError, match="partition label of element 1 must be a whole number, got 0.9"):
            partition_constraints([0, 0.9, 1.5], [1, 1])

    def test_whole_float_labels_stay_legal(self):
        assert partition_constraints([0, 1.0, np.float64(1.0)], [1, 1]).costs.tolist() == [[1, 0, 0], [0, 1, 1]]


class TestModular:
    @pytest.mark.parametrize("values, shape", [([[1.0, 2.0]], r"\(1, 2\)"), (3.0, r"\(\)")])
    def test_rejects_values_that_are_not_one_dimensional(self, values, shape):
        # n would be the array's size, so validate would accept [[1, 2]] for
        # n = 2, and a value would then fail to broadcast in numpy
        with pytest.raises(InvalidInstanceError, match="modular values must be one-dimensional, got shape " + shape):
            ModularObjective(values)


class TestEvalCounting:
    def test_counter_increments_once_per_call(self):
        obj = ModularObjective([1.0, 2.0])
        assert obj.eval_count == 0
        obj.value({0})
        obj.value({0, 1})
        assert obj.eval_count == 2

    def test_clone_has_fresh_counter(self):
        obj = ModularObjective([1.0])
        obj.value({0})
        c = obj.clone()
        assert c.eval_count == 0
        assert obj.eval_count == 1


def compensated_sum(xs):
    """CPython's sum() over floats from 3.12 on, transcribed: Neumaier's
    compensation term, added at the end when it is finite and nonzero."""
    total, comp = 0.0, 0.0
    for x in xs:
        t = total + x
        if abs(total) >= abs(x):
            comp += (total - t) + x
        else:
            comp += (x - t) + total
        total = t
    if comp and math.isfinite(comp):
        total += comp
    return total


def plain_sum(xs):
    """Left to right, one rounding per term: sum() over floats before 3.12."""
    total = 0.0
    for x in xs:
        total += x
    return total


def cut_terms(obj, mask):
    """The arc weights that _value sums for the set with bitmask mask."""
    return [w for u, v, w in obj.arcs if mask >> u & 1 and not mask >> v & 1]


def wide_cut(rng, n):
    """A cut whose arc weights span 16 decades, so that sums round."""
    arcs = [(u, v, float(rng.uniform(0.5, 1.0) * 10.0 ** rng.integers(-8, 8)))
            for u in range(n) for v in range(n) if u != v and rng.random() < 0.6]
    return DirectedCutObjective(n, arcs)


def wide_values(rng, n):
    """Modular values spanning 16 decades, so that sums round."""
    return rng.uniform(0.5, 1.0, n) * 10.0 ** rng.integers(-8, 8, n)


class TestValueTable:
    """value_table against the one-call-per-mask loop on _value: equal bit
    for bit, the same oracle calls, and the same error."""

    @staticmethod
    def assert_same_table(obj, n):
        want_obj, got_obj = obj.clone(), obj.clone()
        want = reference_value_table(want_obj, n)
        got = got_obj.value_table(n)
        assert got.tobytes() == want.tobytes()
        assert got_obj.eval_count == want_obj.eval_count == (1 << n) - 1

    @pytest.mark.parametrize("family", FAMILIES)
    def test_equals_scalar_loop(self, family):
        rng = np.random.default_rng(53)
        for n in range(1, 11):
            for _ in range(3):
                self.assert_same_table(random_objective(rng, n, family), n)

    @pytest.mark.parametrize("jitter", [0.0, 1e-10, 1e-3])
    def test_dpp_jitter(self, jitter):
        rng = np.random.default_rng(59)
        for n in range(1, 11):
            self.assert_same_table(DppLogDetObjective(random_spd(rng, n), jitter=jitter), n)

    def test_cut_with_weights_that_round(self):
        rng = np.random.default_rng(61)
        for n in range(1, 11):
            self.assert_same_table(wide_cut(rng, n), n)

    @pytest.mark.parametrize("compensated", [False, True])
    def test_cut_sums_like_either_builtin_sum(self, compensated, monkeypatch):
        # Either rule of sum(), as if each Python ran the suite: the cut
        # table is the left-to-right sum in arc order under both.
        add = compensated_sum if compensated else plain_sum
        for module in (core, objectives):
            monkeypatch.setattr(module, "sum", add, raising=False)
        rng = np.random.default_rng(67)
        differ = 0
        for n in range(2, 10):
            obj = wide_cut(rng, n)
            terms = [cut_terms(obj, mask) for mask in range(1 << n)]
            assert obj.value_table(n).tobytes() == np.array([plain_sum(t) for t in terms]).tobytes()
            differ += sum(plain_sum(t) != compensated_sum(t) for t in terms)
        assert differ > 0  # the two rules round apart on these weights

    def test_sums_left_to_right(self):
        # One summation rule on every Python: the cut adds its arcs in arc
        # order, modular its values in ascending element order.
        rng = np.random.default_rng(67)
        reordered = {"cut": 0, "modular": 0}
        for n in range(2, 10):
            cut = wide_cut(rng, n)
            modular = ModularObjective(wide_values(rng, n))
            for family, obj, terms in (
                ("cut", cut, lambda mask: cut_terms(cut, mask)),
                ("modular", modular, lambda mask: [
                    modular.singleton_values[e] for e in range(n) if mask >> e & 1]),
            ):
                sums = [terms(mask) for mask in range(1 << n)]
                assert obj.value_table(n).tobytes() == np.array([plain_sum(t) for t in sums]).tobytes()
                reordered[family] += sum(plain_sum(t) != plain_sum(t[::-1]) for t in sums)
        assert min(reordered.values()) > 0  # another order rounds apart on these values

    @pytest.mark.parametrize("make", [
        lambda M: DppLogDetObjective(M, jitter=0.0),
        lambda M: EntropyObjective(M),
    ])
    @pytest.mark.parametrize("bad", [(3,), (1, 2)])
    def test_not_positive_definite_raises_the_same_error(self, make, bad):
        # Singletons fine and the pair {1, 2} indefinite, or a negative
        # diagonal entry at 3: the first failing subset in mask order is named.
        M = np.eye(5)
        if bad == (3,):
            M[3, 3] = -1.0
        else:
            M[1, 2] = M[2, 1] = 2.0
        outcomes = []
        for table in (reference_value_table, lambda o, n: o.value_table(n)):
            obj = make(M)
            with pytest.raises(NotPositiveDefiniteError) as exc:
                table(obj, 5)
            outcomes.append((str(exc.value), obj.eval_count))
        assert outcomes[0] == outcomes[1]
        assert repr(list(bad)) in outcomes[0][0]
