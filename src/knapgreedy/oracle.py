"""Exhaustive ground truth for small instances.

Brute-force optimum over all feasible subsets, exact curvature over all
witness triples, and the approximation-guarantee check that ties the two
together with the solver's bound (1 - e^(-1/lam)) / (3 * max(1, alpha)).
Both read f from a value table over all 2^n subsets
(Objective.value_table), and the check builds that table once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _check_size, subsets_by_size, validate

OPT_CAP = 20
CURVATURE_CAP = 10


class OracleCapError(ValueError):
    """Instance too large for exhaustive computation."""


class CurvatureDegenerateError(ValueError):
    """A zero-denominator witness triple violates the marginal inequality."""


@dataclass
class OracleReport:
    opt_value: float
    opt_set: tuple
    alpha: float
    bound: float
    ratio: float | None
    passed: bool


def _check_cap(n, cap):
    if n > cap:
        raise OracleCapError("instance too large for oracle: n=%d > %d" % (n, cap))


def _opt(cons, table, n):
    """The largest entry of the value table over the nonempty masks feasible
    under cons, and its index tuple. Ties resolve to the lexicographically
    smallest tuple; NaN never wins; when no feasible entry is > 0 the empty
    set (value 0) wins."""
    feasible = np.zeros(1 << n, dtype=bool)
    for rows, masks in subsets_by_size(n):
        # Each row's costs are summed as set_cost sums a set, so a set on
        # the slack's boundary falls on the same side.
        feasible[masks] = cons.is_feasible_cost(cons.costs[:, rows].sum(axis=-1).T)
    candidates = feasible & (table > 0)
    if not candidates.any():
        return 0.0, ()
    best = table[candidates].max()
    winners = np.flatnonzero(candidates & (table == best)).tolist()
    return float(best), min(tuple(e for e in range(n) if m >> e & 1) for m in winners)


def brute_force_opt(inst):
    """Exact maximum of f over feasible subsets, read from the value table
    of all 2^n subsets, evaluated on a clone of the objective.

    Ties resolve to the lexicographically smallest index tuple. The empty
    set (value 0) is always a candidate. A malformed instance raises
    InvalidInstanceError (core.validate) before any oracle call.
    """
    validate(inst)
    n = inst.ground.n
    _check_cap(n, OPT_CAP)
    return _opt(inst.constraints, inst.objective.clone().value_table(n), n)


def _submask_extremes(g):
    """Over every submask A of each mask B (the last axis of g, indexed by
    mask): the largest and the smallest positive g[A], the largest and the
    smallest negative g[A], and whether some g[A] == 0. A max is -inf and a
    min +inf where no g[A] qualifies; NaN never qualifies. One pass per bit:
    each mask with bit j set takes the elementwise max with the mask
    without it, so after the last bit every entry holds the max over all of
    its submasks (m log m steps for m masks, against the m^log2(3) submask
    pairs). A min is the negated max of -g; negation is exact."""
    none = -np.inf
    rows = np.stack([
        np.where(g > 0, g, none),
        np.where(g < 0, g, none),
        np.where(g > 0, -g, none),
        np.where(g < 0, -g, none),
        np.where(g == 0, 1.0, none),
    ])
    for j in range(g.shape[-1].bit_length() - 1):
        v = rows.reshape(rows.shape[:-1] + (-1, 2, 1 << j))
        np.maximum(v[..., 1, :], v[..., 0, :], out=v[..., 1, :])
    return rows[0], rows[1], -rows[2], -rows[3], rows[4] > 0


def brute_force_curvature(obj, n):
    """Exact curvature over all (omega, S, S-union-Omega) triples.

    For omega in S, Omega omitting omega, the witness ratio is
    1 - f_omega((S|Omega) - omega) / f_omega(S - omega), taken over all
    triples with a nonzero denominator; the result is the maximum, clamped
    below at zero. Zero-denominator triples are skipped (diminishing returns
    make the numerator nonpositive there; a positive numerator is a
    submodularity violation and raises, at the lowest such omega). Triples
    reduce to pairs A subset-of B of masks omitting omega, with gains
    g[X] = f(X + omega) - f(X), numerator g[B] and denominator g[A].

    Correctly rounded division is monotone in the denominator on each side
    of zero, so for a fixed numerator the largest 1 - g[B]/g[A] comes at an
    extreme of the submask gains: the largest positive or the largest
    negative g[A] when g[B] >= 0, the smallest positive or the smallest
    negative when g[B] < 0. Those extremes come from a subset-max transform
    (O(n * 2^n) per omega instead of O(3^n)), and the result equals the
    pairwise scan's bit for bit, NaN ratios ignored. The 2^n values of f
    come from obj.value_table(n), one oracle call per nonempty subset. An
    objective whose size is set and is not n raises InvalidInstanceError
    before any call.
    """
    _check_size(obj, n)
    _check_cap(n, CURVATURE_CAP)
    return _curvature(obj.value_table(n), n)


def _curvature(table, n):
    """brute_force_curvature's transform of a value table over range(n)."""
    if n == 0:
        return 0.0
    # g[omega, B] for the 2^(n-1) masks B omitting omega, bit omega squeezed
    # out, which keeps the subset order.
    with np.errstate(invalid="ignore", divide="ignore"):
        g = np.stack([np.diff(table.reshape(-1, 2, 1 << w), axis=1).reshape(-1) for w in range(n)])
        maxpos, maxneg, minpos, minneg, zero = _submask_extremes(g)
        bad = (zero & (g > 1e-12)).any(axis=1)
        if bad.any():
            raise CurvatureDegenerateError(
                "not submodular under curvature semantics: zero gain "
                "grows positive for element %d" % np.flatnonzero(bad)[0]
            )
        # +-inf are legitimate extremes, so existence is tested on the
        # sentinel side: some positive gain iff maxpos > 0, some negative
        # iff minneg < 0.
        up = g >= 0
        ratios = np.concatenate([
            (1.0 - g / np.where(up, maxpos, minpos))[maxpos > 0],
            (1.0 - g / np.where(up, maxneg, minneg))[minneg < 0],
        ])
    ratios = ratios[~np.isnan(ratios)]
    return float(max(0.0, ratios.max())) if ratios.size else 0.0


def guarantee_bound(lam, alpha):
    return (1.0 - math.exp(-1.0 / lam)) / (3.0 * max(1.0, alpha))


def check_guarantee(inst, lam, alg_value):
    """Verify alg_value >= bound * OPT - 1e-9 with exhaustively computed
    OPT and curvature, both read from one value table evaluated on a clone
    of the objective, so the caller's count and prefix are left alone. A
    zero optimum passes vacuously (ratio None). A malformed instance raises
    InvalidInstanceError (core.validate) before any oracle call."""
    validate(inst)
    n = inst.ground.n
    _check_cap(n, CURVATURE_CAP)
    table = inst.objective.clone().value_table(n)
    opt_val, opt_set = _opt(inst.constraints, table, n)
    alpha = _curvature(table, n)
    bound = guarantee_bound(lam, alpha)
    if opt_val <= 0:
        return OracleReport(opt_val, opt_set, alpha, bound, None, True)
    ratio = alg_value / opt_val
    passed = alg_value >= bound * opt_val - 1e-9
    return OracleReport(opt_val, opt_set, alpha, bound, ratio, passed)
