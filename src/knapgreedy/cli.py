"""Command-line front end.

Subcommands: solve, simulate, oracle, curvature. Exit codes: 0 success,
1 guarantee violation (oracle only), 2 usage or validation error (a
malformed file, a fractional whole-number field, or JSON of the wrong
shape), 3 degenerate instance (solve, and oracle with or without
--assert-value: no element fits alone).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .core import EmptyAfterReductionError, InvalidInstanceError, reduce_instance, validate
from .harness import (
    SimConfig,
    load_updates,
    run_dynamic,
    run_with_updates,
    summary_to_json,
    trace_to_csv,
)
from .io import load_instance
from .objectives import EntropyObjective
from .oracle import OracleCapError, brute_force_curvature, check_guarantee
from .solver import lambda_greedy

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_DEGENERATE = 3


def _emit(payload, pretty, out_path=None):
    text = json.dumps(payload, indent=2 if pretty else None, sort_keys=True)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_solve(args):
    inst = load_instance(args.instance)
    updates = load_updates(args.updates) if args.updates else []
    _emit(run_with_updates(inst, args.lam, updates).to_dict(), args.pretty, args.json_out)
    return EXIT_OK


def cmd_simulate(args):
    inst = load_instance(args.instance)
    lam = args.lam if args.lam is not None else float(inst.constraints.k)
    cfg = SimConfig(
        tau=args.tau,
        noise_sigma=args.sigma,
        n_updates=args.updates,
        seed=args.seed,
        lam=lam,
        initial_fraction=args.initial_fraction,
    )
    trace = run_dynamic(inst, cfg)
    trace_to_csv(trace, args.out)
    summary_path = args.summary or args.out + ".summary.json"
    summary_to_json(trace, summary_path)
    return EXIT_OK


def cmd_oracle(args):
    inst = load_instance(args.instance)
    validate(inst)
    reduce_instance(inst)  # exit 3 when nothing fits, with or without a claimed value
    alg_value = lambda_greedy(inst, args.lam).value if args.assert_value is None else args.assert_value
    report = check_guarantee(inst, args.lam, alg_value)
    _emit(dict(dataclasses.asdict(report), alg_value=alg_value), args.pretty)
    return EXIT_OK if report.passed else EXIT_VIOLATION


def cmd_curvature(args):
    inst = load_instance(args.instance)
    validate(inst)
    alpha = brute_force_curvature(inst.objective.clone(), inst.ground.n)
    payload = {"alpha": alpha}
    obj = inst.objective
    if isinstance(obj, EntropyObjective):
        mu = float(np.linalg.eigvalsh(obj.Sigma).max())
        payload["entropy_upper_bound"] = 1.0 - 1.0 / mu
    _emit(payload, args.pretty)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(prog="knapgreedy")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--instance", required=True)
        p.add_argument("--pretty", action="store_true")

    p = sub.add_parser("solve", help="run the static greedy on an instance file")
    common(p)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--json-out", default=None)
    p.add_argument("--updates", default=None, help="scripted weight-update stream (JSON)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("simulate", help="drifting-budget engine-vs-restart simulation")
    p.add_argument("--instance", required=True)  # writes files only, so no --pretty
    p.add_argument("--tau", type=int, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--updates", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--initial-fraction", type=float, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--summary", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("oracle", help="brute-force guarantee check (small n)")
    common(p)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--assert-value", type=float, default=None)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("curvature", help="exact curvature (small n)")
    common(p)
    p.set_defaults(func=cmd_curvature)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EmptyAfterReductionError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_DEGENERATE
    except (InvalidInstanceError, OracleCapError, ValueError, OSError, KeyError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
