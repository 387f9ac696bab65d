"""Greedy maximization of non-monotone submodular functions under multiple
knapsack constraints, in static and dynamically-changing-budget settings."""

import types as _types

from .core import (
    EmptyAfterReductionError,
    GroundSet,
    Instance,
    InvalidInstanceError,
    KnapsackConstraints,
    Objective,
    Solution,
    reduce_instance,
    validate,
)
from .dynamic import DynamicGreedy, WeightUpdate
from .harness import (
    RunTrace,
    SimConfig,
    load_updates,
    perturb_weights,
    run_dynamic,
    run_with_updates,
    summarize,
)
from .io import instance_from_dict, load_instance
from .objectives import (
    DirectedCutObjective,
    DppLogDetObjective,
    EntropyObjective,
    ModularObjective,
    NotPositiveDefiniteError,
    build_qd_kernel,
    partition_constraints,
)
from .oracle import (
    CurvatureDegenerateError,
    OracleCapError,
    OracleReport,
    brute_force_curvature,
    brute_force_opt,
    check_guarantee,
    guarantee_bound,
)
from .solver import (
    Partition,
    SolveResult,
    chi,
    complement_search,
    greedy_phase,
    lambda_greedy,
    split_by_threshold,
)

__version__ = "0.1.0"

# Every public name imported above, and no submodule.
__all__ = sorted(
    name for name, value in globals().items()
    if not (name.startswith("_") or isinstance(value, _types.ModuleType))
)
