"""knapgreedy benchmark launcher.

    python3 benchmark/run.py --workload static-solve --seed 1 --seconds 30 --trace 0
    python3 benchmark/run.py --workload all --seed 1

Runs each workload in a fresh Python process (so peak RSS belongs to that
workload) with BLAS/OpenMP pinned to one thread, on the library sources in
src/ of the checkout this file sits in. ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a separate traced run. With
``--workload all`` every workload is run both ways and everything is
printed; the last line is then a JSON object keyed by workload.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("static-solve", "drift-race", "verify-small")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# The worker stops starting passes once ``seconds`` are used; this leaves
# room for start-up, set-up and the last pass before it is stopped.
GRACE_S = 120


def run_one(workload, seed, seconds, trace):
    """Run the worker; returns (exit code, stdout)."""
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=GRACE_S + 1.5 * seconds)
    except subprocess.TimeoutExpired:
        print("benchmark: %s timed out" % workload, file=sys.stderr)
        return 1, ""
    return proc.returncode, proc.stdout


def main(argv=None):
    p = argparse.ArgumentParser(description="knapgreedy benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "knapgreedy", "__init__.py")):
        print("benchmark: no library sources at src/knapgreedy next to %s" % HERE, file=sys.stderr)
        return 2
    if args.seconds < 1:
        p.error("--seconds must be at least 1")

    if args.workload != "all":
        code, out = run_one(args.workload, args.seed, args.seconds, args.trace)
        sys.stdout.write(out)
        return code

    combined = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            print("== %s (trace %d)" % (workload, trace), flush=True)
            code, out = run_one(workload, args.seed, args.seconds, trace)
            sys.stdout.write(out)
            if code != 0:
                return code
            combined.setdefault(workload, {})["trace%d" % trace] = json.loads(out.splitlines()[-1])
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
