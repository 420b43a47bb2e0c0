#!/usr/bin/env python3
"""Alternating parent/change pairs on the repository benchmark.

    python3 tools/bench_pairs.py --parent REV [--change REV]
        [--workloads lu_wide,fw_apsp] [--seeds 23] [--pairs 10]
        [--scratch DIR]

Extracts the committed files of both revisions (git archive) into two
directories under the scratch directory and builds the benchmark in each.
Then, per workload and seed, it runs --pairs pairs of
`perfbench/run.py --trace 0` of BENCHMARK.json's run_seconds, alternating
which side runs first. It prints every pair with each run's attempted op
count, and each side's failed ops and median attempted ops. Per end-to-end
metric of BENCHMARK.json it prints each side's median [q1, q3], the
change's wins (ties count for neither side), and the parent's
interquartile range against the metric's bound. At a fixed run length a
faster side attempts more ops, and a metric that grows with the op count,
such as peak_rss_mb, reads higher for it. A run that exits non-zero,
prints no result or reports a wrong one counts as at least one failed op
and gives no metrics; its pair still counts. Two verdicts follow each
metric:

  gain        at least 10 pairs ran, the change won at least 9 in 10 of
              them, the medians differ, in its favour, by more than the
              parent's interquartile range, and the change failed no more
              ops than the parent;
  regression  the change failed more ops than the parent, or its median is
              worse than the parent's by more than the bound. When the
              parent's own spread exceeds the bound the metric reads
              "unresolved" unless every change run beats every parent run.

Defaults: all workloads, seed 1, 10 pairs.
Run it from anywhere inside the repository. A directory that already holds
a revision's files is reused with its build, so a second call on the same
revisions starts measuring at once. Nothing in the repository is written.
"""

import argparse
import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

MIN_PAIRS = 10  # fewer pairs show no gain, however they read


def git(repo, *args):
    return subprocess.run(["git", "-C", repo] + list(args), check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def extract(repo, rev, dest):
    """The committed files of `rev` in `dest`, reused when already there."""
    sha = git(repo, "rev-parse", "--verify", rev + "^{commit}")
    marker = os.path.join(dest, ".bench_pairs_rev")
    if os.path.exists(marker) and open(marker).read().strip() == sha:
        return sha
    if os.path.exists(dest):
        shutil.rmtree(dest)
    os.makedirs(dest)
    proc = subprocess.Popen(["git", "-C", repo, "archive", sha],
                            stdout=subprocess.PIPE)
    with tarfile.open(fileobj=proc.stdout, mode="r|") as tar:
        tar.extractall(dest)
    if proc.wait() != 0:
        sys.exit("bench_pairs: git archive %s failed" % rev)
    with open(marker, "w") as f:
        f.write(sha + "\n")
    return sha


def build(tree):
    """Build the benchmark with the tree's own perfbench/run.py."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(tree, "perfbench", "run.py"))
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    run.build()


def run_once(tree, workload, seed, seconds):
    """One untraced benchmark run: (failed ops, attempted ops or None,
    {metric: value} or None)."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return 1, None, None
    res = json.loads(lines[-1])
    if not res["correct"]:
        return max(res["failed"], 1), res["attempted"], None
    return 0, res["attempted"], {k: v["value"]
                                 for k, v in res["metrics"].items()}


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def summary(failed, attempted):
    """The summary's first line: failed ops and median attempted ops per side.

    `attempted` maps each side to its runs' op counts, None for a run that
    reported none.
    """
    def median(side):
        counts = [n for n in attempted[side] if n is not None]
        return "%g" % statistics.median(counts) if counts else "-"
    return ("  summary (parent/change), failed ops %d/%d, median ops "
            "attempted %s/%s:" % (failed["parent"], failed["change"],
                                  median("parent"), median("change")))


def verdicts(metric, pairs, failed):
    """Summary lines of one metric.

    `pairs` holds one (parent, change) value per pair run, None for a side
    whose run failed; `failed` maps each side to its failed ops.
    """
    parent = [p for p, _ in pairs if p is not None]
    change = [c for _, c in pairs if c is not None]
    more_failed = failed["change"] > failed["parent"]
    why = (" (change failed %d ops vs parent %d)" %
           (failed["change"], failed["parent"]) if more_failed else "")
    if not parent or not change:
        return "  %-12s no result from the %s  gain: no%s  regression: %s" % (
            metric["name"], "parent" if change else "change", why,
            "REGRESSION" + why if more_failed else "unresolved")
    if failed["parent"] + failed["change"] == 0 \
            and len(set(parent + change)) == 1:
        return "  %-12s identical on all %d runs: %r" % (
            metric["name"], len(parent) + len(change), parent[0])
    lower = metric["better"] == "lower"
    sign = 1.0 if lower else -1.0
    done = [(p, c) for p, c in pairs if p is not None and c is not None]
    wins = sum(1 for p, c in done if sign * (p - c) > 0)
    ties = sum(1 for p, c in done if p == c)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    iqr = p3 - p1
    bound = metric["bound"]
    gain = not more_failed and len(pairs) >= MIN_PAIRS \
        and wins >= 0.9 * len(pairs) and sign * (pm - cm) > iqr
    if gain:
        gain_text = "yes"
    elif more_failed or len(pairs) >= MIN_PAIRS:
        gain_text = "no" + why
    else:
        gain_text = "no (%d pairs, fewer than %d)" % (len(pairs), MIN_PAIRS)
    worse = sign * (cm - pm)  # > 0 when the change's median is worse
    if more_failed or (pm != 0 and worse > bound * abs(pm)):
        regression = "REGRESSION" + why
    elif pm != 0 and iqr > bound * abs(pm):
        beats_all = (max(change) < min(parent) if lower
                     else min(change) > max(parent))
        regression = "no (all change runs better)" if beats_all \
            else "unresolved (parent IQR above bound)"
    else:
        regression = "no"
    rel = (cm / pm) if pm else float("nan")
    iqr_rel = (iqr / abs(pm)) if pm else float("nan")
    return ("  %-12s parent %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g]  "
            "change/parent %.3f\n"
            "  %-12s wins %d/%d (ties %d)  parent IQR %.1f%% of median vs "
            "bound %.0f%%  gain: %s  regression: %s"
            % (metric["name"], pm, p1, p3, cm, c1, c3, rel, "", wins,
               len(pairs), ties, 100 * iqr_rel, 100 * bound,
               gain_text, regression))


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="parent revision")
    ap.add_argument("--change", default="HEAD", help="change revision")
    ap.add_argument("--workloads", help="comma-separated (default: all)")
    ap.add_argument("--seeds", default="1", help="comma-separated seeds")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--scratch",
                    default=os.path.join(tempfile.gettempdir(),
                                         "bench_pairs"),
                    help="where the two trees and their builds live")
    args = ap.parse_args()

    repo = git(os.path.dirname(os.path.abspath(__file__)), "rev-parse",
               "--show-toplevel")
    trees = {"parent": os.path.join(args.scratch, "parent"),
             "change": os.path.join(args.scratch, "change")}
    shas = {side: extract(repo, getattr(args, side), tree)
            for side, tree in trees.items()}
    for side, tree in trees.items():
        print("%s %s: building in %s" % (side, shas[side][:12], tree),
              flush=True)
        build(tree)

    with open(os.path.join(trees["parent"], "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["end_to_end"]
    seconds = spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seeds = [int(s) for s in args.seeds.split(",")]

    for w in workloads:
        for seed in seeds:
            print("\n%s seed %d, %d pairs of %g s runs" %
                  (w, seed, args.pairs, seconds), flush=True)
            pairs = []
            failed = {"parent": 0, "change": 0}
            attempted = {"parent": [], "change": []}
            for i in range(args.pairs):
                order = ["parent", "change"] if i % 2 == 0 \
                    else ["change", "parent"]
                got = {}
                ops = {}
                for side in order:
                    n, ops[side], got[side] = run_once(trees[side], w, seed,
                                                       seconds)
                    failed[side] += n
                    attempted[side].append(ops[side])
                pairs.append((got["parent"], got["change"]))
                if got["parent"] is None or got["change"] is None:
                    print("  pair %2d: FAILED (%s)" % (i + 1, ", ".join(
                        s for s in order if got[s] is None)), flush=True)
                    continue
                print("  pair %2d (%s first): ops %d/%d  " %
                      (i + 1, order[0], ops["parent"], ops["change"]) +
                      "  ".join("%s %.6g/%.6g" % (m["name"],
                                                  got["parent"][m["name"]],
                                                  got["change"][m["name"]])
                                for m in metrics), flush=True)
            print(summary(failed, attempted))
            for m in metrics:
                print(verdicts(m, [tuple(None if r is None else r[m["name"]]
                                         for r in pair) for pair in pairs],
                               failed))


if __name__ == "__main__":
    main()
