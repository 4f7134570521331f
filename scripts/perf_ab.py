#!/usr/bin/env python3
"""A/B of the repo benchmark between a base revision and the working tree.

    python3 scripts/perf_ab.py --base HEAD~1 --scratch DIR
        [--workloads ldbc_serving,job_ingest] [--pairs 10]

Exports the base revision with `git archive` and copies the working tree
(its tracked files and its untracked files that are not ignored, edits
included) into two fresh directories under --scratch, which must lie
outside the repository. Then runs `perfbench/run.py` from each for the
`run_seconds` that BENCHMARK.json sets, in alternating pairs: pair i runs
seed i + 1 on both sides, base first on even pairs and change first on
odd ones. Each side builds its own `.bench_build/` on its first run; the
build is not in any metric.

Prints, per workload and metric, the median and interquartile range of
each side, the relative change of the medians, and in how many pairs the
change was better. End-to-end metrics carry their `BENCHMARK.json` bound:
`BOUND` marks a median that got worse by more than it, `NOISY` a side
whose IQR is wider than the bound times its median. `GAIN` marks a
metric the change improved in at least 9 of 10 pairs (ten pairs or
more), with the medians further apart than the base runs' IQR. Every run
whose result is not `correct` or has failed operations is listed. Exits 1
when any bound is crossed or any run is incorrect, 2 when a run produced
no result.

Writes only under --scratch, so nothing under the repository (perfbench/
included) is touched.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args):
    return subprocess.run(["git", "-C", REPO] + list(args), check=True,
                          stdout=subprocess.PIPE).stdout


def fresh_dir(dest):
    if os.path.exists(dest):
        shutil.rmtree(dest)
    os.makedirs(dest)


def copy_worktree(dest):
    """Copies the working tree's tracked and unignored files into `dest`."""
    fresh_dir(dest)
    names = git("ls-files", "-z", "--cached", "--others",
                "--exclude-standard").split(b"\0")
    for name in filter(None, (n.decode() for n in names)):
        src = os.path.join(REPO, name)
        if not os.path.isfile(src):
            continue  # deleted in the working tree
        os.makedirs(os.path.dirname(os.path.join(dest, name)), exist_ok=True)
        shutil.copy2(src, os.path.join(dest, name))
    return "working tree"


def export(rev, dest):
    """Writes the committed files of `rev` into `dest`."""
    fresh_dir(dest)
    sha = git("rev-parse", "--verify", rev + "^{commit}").decode().strip()
    archive = dest + ".tar"
    with open(archive, "wb") as out:
        subprocess.run(["git", "-C", REPO, "archive", sha], check=True,
                       stdout=out)
    with tarfile.open(archive) as tar:
        tar.extractall(dest)
    os.remove(archive)
    return sha[:12]


def run_bench(tree, workload, seed, seconds, log):
    """One untraced perfbench run from `tree`; its JSON result, or None."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                          stderr=log, universal_newlines=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def fmt(v):
    if v == 0 or 0.01 <= abs(v) < 1e5:
        return "%.4g" % v
    return "%.3e" % v


def report(workload, results, spec, base_label, change_label):
    """Prints one workload's table; returns the number of bounds crossed."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = dict(bounds)
    better.update({m["name"]: m for m in spec.get("per_layer", [])})
    pairs = list(zip(results["base"], results["change"]))
    names = []
    for base, change in pairs:
        for name in list(base["metrics"]) + list(change["metrics"]):
            if name not in names:
                names.append(name)

    print("\n## %s (%d pairs; base %s, change %s)\n"
          % (workload, len(pairs), base_label, change_label))
    print("| metric | base median [IQR] | change median [IQR] | change "
          "| change better | flags |")
    print("|---|---|---|---|---|---|")
    crossed = 0
    for name in names:
        got = [(b["metrics"][name]["value"], c["metrics"][name]["value"])
               for b, c in pairs
               if name in b["metrics"] and name in c["metrics"]]
        if not got:
            continue
        base = [b for b, _ in got]
        change = [c for _, c in got]
        bmed, cmed = statistics.median(base), statistics.median(change)
        bq, cq = quartiles(base), quartiles(change)
        higher = better.get(name, {}).get("better", "lower") == "higher"
        wins = sum(1 for b, c in got if (c > b if higher else c < b))
        rel = (cmed - bmed) / bmed if bmed else 0.0
        flags = []
        # A clear gain: at least ten pairs, better in at least 9 of 10,
        # and the medians further apart than the base runs' IQR.
        gained = cmed > bmed if higher else cmed < bmed
        if (gained and len(got) >= 10 and wins * 10 >= 9 * len(got) and
                abs(cmed - bmed) > bq[1] - bq[0]):
            flags.append("GAIN")
        bound = bounds.get(name, {}).get("bound")
        if bound is not None:
            worse = -rel if higher else rel
            if worse > bound:
                flags.append("BOUND")
                crossed += 1
            for med, (q1, q3) in ((bmed, bq), (cmed, cq)):
                if med and (q3 - q1) > bound * abs(med):
                    flags.append("NOISY")
                    break
        print("| %s | %s [%s, %s] | %s [%s, %s] | %+.1f%% | %d/%d | %s |"
              % (name, fmt(bmed), fmt(bq[0]), fmt(bq[1]), fmt(cmed),
                 fmt(cq[0]), fmt(cq[1]), 100.0 * rel, wins, len(got),
                 " ".join(flags)))
    return crossed


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True,
                        help="revision to compare against")
    parser.add_argument("--workloads", default="",
                        help="comma-separated; default: all in BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--scratch", required=True,
                        help="directory outside the repository for the two "
                        "source trees and the build log (emptied of earlier "
                        "trees)")
    args = parser.parse_args(argv)

    scratch = os.path.realpath(args.scratch)
    if os.path.commonpath([scratch, os.path.realpath(REPO)]) == \
            os.path.realpath(REPO):
        parser.error("--scratch must lie outside the repository, or the "
                     "working-tree copy would take in earlier exports")
    os.makedirs(scratch, exist_ok=True)
    trees = {"base": os.path.join(scratch, "base"),
             "change": os.path.join(scratch, "change")}
    labels = {"base": export(args.base, trees["base"]),
              "change": copy_worktree(trees["change"])}
    with open(os.path.join(trees["change"], "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])

    # The run length is the benchmark's own, so an A/B measures what the
    # benchmark check measures.
    seconds = spec["run_seconds"]
    log_path = os.path.join(scratch, "perf_ab.log")
    incorrect = []
    results = {w: {"base": [], "change": []} for w in workloads}
    with open(log_path, "w") as log:
        for i in range(args.pairs):
            seed = i + 1
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for workload in workloads:
                for side in order:
                    sys.stderr.write("pair %d/%d %s %s seed=%d\n"
                                     % (i + 1, args.pairs, workload, side,
                                        seed))
                    log.flush()
                    result = run_bench(trees[side], workload, seed,
                                       seconds, log)
                    if result is None:
                        sys.stderr.write("no result from %s (see %s)\n"
                                         % (side, log_path))
                        return 2
                    if not result.get("correct") or result.get("failed"):
                        incorrect.append((workload, side, seed,
                                          result.get("failed")))
                    results[workload][side].append(result)

    crossed = 0
    for workload in workloads:
        crossed += report(workload, results[workload], spec,
                          labels["base"], labels["change"])
    print()
    for workload, side, seed, failed in incorrect:
        print("INCORRECT: %s %s seed=%d failed=%s"
              % (workload, side, seed, failed))
    print("bounds crossed: %d; incorrect runs: %d" % (crossed, len(incorrect)))
    return 1 if crossed or incorrect else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
