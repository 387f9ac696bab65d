"""Concrete submodular objective families.

Four families: modular sums, directed-graph cuts, log-determinants of PSD
kernels (DPP-style diversity), and Gaussian differential entropy of a
covariance submatrix. Also the quality/diversity kernel builder and the
encoding of per-group cardinality budgets as 0/1-cost knapsacks.

Each family's arithmetic exists once, as _values(rows): f on every row of
a (G, s) array of ascending elements, with bits that do not depend on G.
A set alone is a batch of one, and value_table runs one batch per chunk
of same-size subsets, so both agree bit for bit on every Python version.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .core import InvalidInstanceError, KnapsackConstraints, Objective, PrefixState, _whole, subsets_by_size

SYMMETRY_TOL = 1e-9
ENTROPY_PER_ELEMENT = 0.5 * (1.0 + math.log(2.0 * math.pi))


class NotPositiveDefiniteError(ValueError):
    """Factorization of a principal submatrix failed."""


def _check_symmetric(M, name):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvalidInstanceError("%s must be square" % name)
    if not np.isfinite(M).all():
        raise InvalidInstanceError("%s must be finite" % name)
    # M is finite, so this is np.allclose(M, M.T, atol=SYMMETRY_TOL, rtol=0)
    if not (np.abs(M - M.T) <= SYMMETRY_TOL).all():
        raise InvalidInstanceError("%s must be symmetric" % name)
    return M


def _logdet_principals(M, rows, jitter=0.0):
    """log det of the principal submatrix of M + jitter*I indexed by each
    row of rows, a (G, s) array of ascending indices, via one stacked
    Cholesky. Raises np.linalg.LinAlgError when any submatrix is not
    positive definite."""
    sub = M[rows[:, :, None], rows[:, None, :]]
    if jitter:
        sub = sub + jitter * np.eye(rows.shape[1])
    L = np.linalg.cholesky(sub)
    return 2.0 * np.log(np.diagonal(L, axis1=1, axis2=2)).sum(axis=-1)


class _SumPrefix(PrefixState):
    """f(P) and the gain f(P + [e]) - f(P) of every element, per depth.
    A push of x subtracts the row drop[x] from the gains; without drop
    (modular) the gains never change and one row is kept."""

    def __init__(self, gains, drop=None):
        super().__init__()
        n = gains.shape[0]
        self.f = np.zeros(n + 1)
        self.gains = np.empty((1 if drop is None else n + 1, n))
        self.gains[0] = gains
        self.drop = drop

    def _push(self, d, e):
        self.f[d + 1] = self._extend(d, e)
        if self.drop is not None:
            np.subtract(self.gains[d], self.drop[e], out=self.gains[d + 1])
        return True

    def _extend(self, d, e):
        row = 0 if self.drop is None else d  # modular gains never change
        return float(self.f[d] + self.gains[row, e])


class _CholeskyPrefix(PrefixState):
    """Incremental Cholesky of the principal submatrix of K + jitter*I on P
    (Chen, Zhang & Zhou, "Fast Greedy MAP Inference for Determinantal Point
    Process", NeurIPS 2018): per depth, the Cholesky row of the element
    pushed there, the residual variances d2 of every element and log det.
    Then log det on P + [e] is log det on P plus log d2[e]."""

    def __init__(self, K, jitter=0.0):
        super().__init__()
        n = K.shape[0]
        self.K = K
        self.rows = np.empty((n, n))
        self.d2 = np.empty((n + 1, n))
        self.d2[0] = np.diag(K) + jitter  # jitter enters on the diagonal only
        self.logdet = np.zeros(n + 1)

    def _push(self, d, e):
        de = self.d2[d, e]
        if not de > 0:
            return False
        # Elementwise products summed over axis 0 put every column through
        # the same roundings, so elements with equal columns tie exactly, as
        # they do in _value; a BLAS product may round columns differently.
        row = self.rows[d]
        np.subtract(self.K[e], (self.rows[:d, e, None] * self.rows[:d]).sum(axis=0), out=row)
        row /= math.sqrt(de)
        np.subtract(self.d2[d], row * row, out=self.d2[d + 1])
        self.logdet[d + 1] = self.logdet[d] + math.log(de)
        return True

    def _extend(self, d, e):
        de = self.d2[d, e]
        if not de > 0:
            return None  # not positive definite: _value raises as it always has
        return float(self.logdet[d] + math.log(de))


class _EntropyPrefix(_CholeskyPrefix):
    """Entropy on the same state: ENTROPY_PER_ELEMENT * |S| + log det / 2."""

    def _extend(self, d, e):
        logdet = super()._extend(d, e)
        return None if logdet is None else ENTROPY_PER_ELEMENT * (d + 1) + 0.5 * logdet


class _BatchedObjective(Objective):
    """A family that implements _values(rows), f on each row of a (G, s)
    array of ascending elements, and gets _value and value_table from it."""

    def _values(self, rows):
        raise NotImplementedError

    def _value(self, S):
        if not S:
            return 0.0
        idx = sorted(S)
        try:
            return float(self._values(np.array([idx]))[0])
        except np.linalg.LinAlgError:
            raise NotPositiveDefiniteError(
                "principal submatrix %r is not positive definite" % (idx,)
            )

    def value_table(self, n):
        """One _values batch per chunk of same-size subsets. On a LinAlgError
        the default one-by-one loop runs instead, so _value raises
        NotPositiveDefiniteError at the first such subset in mask order."""
        table = np.zeros(1 << n)
        try:
            for rows, masks in subsets_by_size(n):
                table[masks] = self._values(rows)
        except np.linalg.LinAlgError:
            return Objective.value_table(self, n)
        self.eval_count += (1 << n) - 1
        return table


def _sum_in_order(terms):
    """Column sums of an (m, G) array, each added top to bottom (np.sum adds
    pairwise, so its rounding would depend on the shape)."""
    if not terms.shape[0]:
        return np.zeros(terms.shape[1])
    return np.add.accumulate(terms)[-1]


class ModularObjective(_BatchedObjective):
    """f(S) = sum of fixed singleton values, added in ascending element
    order."""

    def __init__(self, singleton_values):
        super().__init__()
        self.singleton_values = np.asarray(singleton_values, dtype=float)
        if self.singleton_values.ndim != 1:
            raise InvalidInstanceError(
                "modular values must be one-dimensional, got shape %s" % (self.singleton_values.shape,)
            )
        self.n = self.singleton_values.size

    def _values(self, rows):
        return _sum_in_order(self.singleton_values[rows.T])

    def _prefix_state(self):
        return _SumPrefix(self.singleton_values)


class DirectedCutObjective(_BatchedObjective):
    """Weight of arcs leaving S, added in arc order. Non-monotone
    submodular. Its curvature is not bounded by a constant; see "Known
    limitation" in the README."""

    def __init__(self, n, arcs):
        super().__init__()
        self.n = n
        self.arcs = [
            (u if u.__class__ is int else _whole(u, "tail of arc %d" % i),
             v if v.__class__ is int else _whole(v, "head of arc %d" % i), float(w))
            for i, (u, v, w) in enumerate(arcs)
        ]
        for u, v, w in self.arcs:
            if not 0 <= w < math.inf:
                raise InvalidInstanceError(
                    "arc weight on (%d, %d) must be finite and nonnegative, got %r" % (u, v, w)
                )
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidInstanceError("arc (%d, %d) out of range for n=%d" % (u, v, n))

    @functools.cached_property
    def _arc_arrays(self):
        """Tails, heads and weights of the arcs as arrays, built on first use
        so that construction costs no more than the validation above."""
        arcs = np.array(self.arcs, dtype=float).reshape(-1, 3)
        return arcs[:, 0].astype(np.intp), arcs[:, 1].astype(np.intp), arcs[:, 2]

    def _values(self, rows):
        u, v, w = self._arc_arrays
        inside = np.zeros((self.n, rows.shape[0]), dtype=bool)
        inside[rows, np.arange(rows.shape[0])[:, None]] = True
        return _sum_in_order(np.where(inside[u] & ~inside[v], w[:, None], 0.0))

    def _prefix_state(self):
        # W[u, v]: weight of the arcs u -> v, added in arc order; a self-loop
        # never leaves S. The gain of x is its out-weight to V - P minus its
        # in-weight from P, so pushing x lowers every gain by (W + W^T)[x].
        u, v, w = self._arc_arrays
        W = np.zeros((self.n, self.n))
        loop = u == v
        np.add.at(W, (u[~loop], v[~loop]), w[~loop])
        return _SumPrefix(W.sum(axis=1), drop=W + W.T)


class DppLogDetObjective(_BatchedObjective):
    """f(S) = log det(L_S + jitter*I) for a symmetric PSD kernel L.

    f(empty) = 0 by convention; the normalization constant det(L + I) of the
    underlying point process is selection-invariant and dropped.
    """

    def __init__(self, L, jitter=1e-10):
        super().__init__()
        self.L = _check_symmetric(L, "L")
        self.n = self.L.shape[0]
        self.jitter = float(jitter)
        if not (math.isfinite(self.jitter) and self.jitter >= 0):
            raise InvalidInstanceError("jitter must be finite and nonnegative, got %r" % self.jitter)

    def _values(self, rows):
        return _logdet_principals(self.L, rows, self.jitter)

    def _prefix_state(self):
        return _CholeskyPrefix(self.L, self.jitter)


class EntropyObjective(_BatchedObjective):
    """Differential entropy of the Gaussian restricted to the chosen sensors:
    f(S) = (1 + ln(2 pi)) / 2 * |S| + ln det(Sigma_S) / 2."""

    def __init__(self, Sigma):
        super().__init__()
        self.Sigma = _check_symmetric(Sigma, "Sigma")
        self.n = self.Sigma.shape[0]

    def _values(self, rows):
        return ENTROPY_PER_ELEMENT * rows.shape[1] + 0.5 * _logdet_principals(self.Sigma, rows)

    def _prefix_state(self):
        return _EntropyPrefix(self.Sigma)


def build_qd_kernel(qualities, feature_sets, sigmas):
    """Quality/diversity kernel L[i, j] = q(i) * exp(-sum_f ||v_f_i - v_f_j||^2 / sigma_f) * q(j)
    from n positive qualities q, a mapping of feature-family name f -> (n, d)
    feature matrix v_f, and a mapping of f -> positive bandwidth sigma_f."""
    q = np.asarray(qualities, dtype=float)
    if np.any(q <= 0):
        raise InvalidInstanceError("qualities must be positive")
    feature_sets = {f: np.asarray(v, dtype=float) for f, v in feature_sets.items()}
    sigmas = {f: float(s) for f, s in sigmas.items()}
    n = q.shape[0]
    for f, V in feature_sets.items():
        if f not in sigmas:
            raise InvalidInstanceError("missing bandwidth for feature family %r" % f)
        if V.ndim != 2:
            raise InvalidInstanceError("feature family %r must be an (n, d) matrix, got shape %s"
                                       % (f, V.shape))
        if V.shape[0] != n:
            raise InvalidInstanceError("feature family %r has %d rows, expected %d" % (f, V.shape[0], n))
    for f, s in sigmas.items():
        if s <= 0:
            raise InvalidInstanceError("nonpositive bandwidth for feature family %r" % f)
    expo = np.zeros((n, n))
    for f, V in feature_sets.items():
        expo += np.sum((V[:, None, :] - V[None, :, :]) ** 2, axis=2) / sigmas[f]
    L = np.outer(q, q) * np.exp(-expo)
    return 0.5 * (L + L.T)


def partition_constraints(labels, budgets):
    """Per-group cardinality caps as 0/1-cost knapsacks: element e costs 1 in
    knapsack labels[e] only, and knapsack g has budget budgets[g]."""
    weights = np.asarray(budgets, dtype=float)
    costs = np.zeros((weights.size, len(labels)))
    for e, lab in enumerate(labels):
        lab = lab if lab.__class__ is int else _whole(lab, "partition label of element %d" % e)
        if not 0 <= lab < weights.size:
            raise InvalidInstanceError("partition label %d of element %d out of range" % (lab, e))
        costs[lab, e] = 1.0
    return KnapsackConstraints(costs, weights)
