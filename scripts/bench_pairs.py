"""Alternating parent/change benchmark pairs, summarized in one JSON file.

    python3 scripts/bench_pairs.py <parent-rev> --out BENCH_8.json
    python3 scripts/bench_pairs.py HEAD~1 --change-rev HEAD --out BENCH_8.json

Both revisions are exported with ``git archive`` into fresh temporary
directories, so each run sees only committed files, and the working tree and
the repository's git metadata are left alone. For every workload that
BENCHMARK.json declares, PAIRS pairs of ``benchmark/run.py --trace 0`` runs
at the held-out seed 1911, each as long as run.py's default, are made one
after the other, the parent first in even pairs and the change first in odd
ones, so slow drift of the machine's speed falls on both sides. The output holds every
run's end-to-end metrics, per metric the median and quartiles of each side,
the ratio of the medians and the number of pairs the change won (by the
``better`` direction in BENCHMARK.json), the environment the benchmark
reported, and both full revisions. One ``--trace 1`` run per side and
workload follows the pairs, and each side's per-layer metrics (seconds and
calls per pass of every traced layer) are recorded beside them, so that a
claim can show in which layer the time went. Each run's ``correct`` flag is
recorded too; when any run was not correct the script still writes the file
but exits 1, so that its numbers are not taken for a valid pair.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10  # the pairs a claimed gain is judged on
SEED = 1911  # held out from development


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, stdout=subprocess.PIPE).stdout


def export(rev, dest):
    """The committed tree of rev, extracted into dest."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        tar.extractall(dest, filter="data")


def run(tree, workload, trace=0):
    """One benchmark run in tree; returns its result (the JSON document it
    prints last) and the environment it reports on its "# env" line."""
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(SEED),
           "--trace", str(trace)]
    lines = subprocess.run(cmd, cwd=tree, check=True, stdout=subprocess.PIPE,
                           text=True).stdout.splitlines()
    env = next((json.loads(x[len("# env "):]) for x in lines if x.startswith("# env ")), None)
    return json.loads(lines[-1]), env


def quartiles(values):
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3)}


def summarize(runs, better):
    """Per metric: each side's median and quartiles, the change/parent
    ratio of the medians and the pairs the change won."""
    summary = {}
    for name, direction in better.items():
        parent = [r["parent"][name] for r in runs]
        change = [r["change"][name] for r in runs]
        sign = 1.0 if direction == "higher" else -1.0
        p, c = quartiles(parent), quartiles(change)
        summary[name] = {
            "better": direction,
            "parent": p,
            "change": c,
            "ratio": c["median"] / p["median"] if p["median"] else None,
            "change_wins": sum(sign * (b - a) > 0 for a, b in zip(parent, change)),
        }
    return summary


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent_rev")
    p.add_argument("--change-rev", default="HEAD")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    revs = {side: git("rev-parse", "--verify", rev + "^{commit}").decode().strip()
            for side, rev in (("parent", args.parent_rev), ("change", args.change_rev))}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}

    doc = {"revs": revs, "seed": SEED, "pairs": PAIRS, "started": time.time(), "env": None,
           "workloads": {}}
    incorrect = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: os.path.join(tmp, side) for side in revs}
        for side, tree in trees.items():
            export(revs[side], tree)
        for workload in (w["name"] for w in bench["workloads"]):
            runs = []
            for i in range(PAIRS):
                pair = {}
                for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                    res, env = run(trees[side], workload)
                    doc["env"] = doc["env"] or env
                    if not res["correct"]:
                        incorrect.append("%s %s run %d" % (side, workload, i))
                    pair[side] = {m: v["value"] for m, v in res["metrics"].items()}
                    pair[side + "_correct"] = res["correct"]
                    pair[side + "_failed"] = res["failed"]
                runs.append(pair)
                print("%s pair %d/%d: ops_per_s %.4g -> %.4g" % (
                    workload, i + 1, PAIRS, pair["parent"]["ops_per_s"],
                    pair["change"]["ops_per_s"]), flush=True)
            doc["workloads"][workload] = {"summary": summarize(runs, better), "runs": runs}
            layers = {}
            for side in ("parent", "change"):
                res, _ = run(trees[side], workload, trace=1)
                if not res["correct"]:
                    incorrect.append("%s %s traced run" % (side, workload))
                layers[side] = {m: v["value"] for m, v in res["metrics"].items() if m not in better}
            doc["workloads"][workload]["per_layer"] = layers

    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for run_name in incorrect:
        print("bench_pairs: %s is not correct" % run_name, file=sys.stderr)
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
