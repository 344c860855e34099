#!/usr/bin/env python3
"""Compares two sets of benchmark results by the rule in perfbench/README.md.

Run alternating pairs of a parent and a change checkout, then compare:

    python3 perfbench/compare.py run --parent DIR --change DIR \\
        --workload NAME [--out DIR]
    python3 perfbench/compare.py compare PARENT.jsonl CHANGE.jsonl

`run` executes 10 alternating pairs of `python3 perfbench/run.py` at the
run length of BENCHMARK.json, one in each checkout, pair i on seed i + 1
for both sides, the parent first in even pairs and the change first in odd
ones, and appends the records to OUT/parent.jsonl and OUT/change.jsonl
(default perfbench/results/). `compare` pairs the records of each workload
in order and reports, per end-to-end metric of this checkout's
BENCHMARK.json: both medians and quartiles, the change's win share, and
one verdict:

  gain        the change wins at least 9/10 of the pairs (ties count for
              neither side) and the medians differ, in the better
              direction, by more than the parent's quartile spread;
  void        it would be a gain, but a change run failed its output
              checks or failed a larger share of its requests than its
              paired parent run, so no gain counts on that workload;
  regression  the change's median is worse than the parent's by more
              than the metric's bound (a share of the parent median);
  unresolved  the parent's quartile spread exceeds the bound, so a
              regression of that size could not be seen, and not every
              change run beats every parent run;
  within      none of the above.

Exit status: 1 when any metric regressed, or when a change run failed its
checks or more of its requests than its paired parent run; else 0.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def by_workload(records):
    groups = {}
    for rec in records:
        if rec["provenance"]["trace"] == 0:
            groups.setdefault(rec["provenance"]["workload"], []).append(rec)
    return groups


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def better(a, b, direction):
    """True when value a is strictly better than value b."""
    return a > b if direction == "higher" else a < b


def failed_share(record):
    result = record["result"]
    return result["failed"] / result["attempted"]


def change_failed_more(parent, change):
    """Pair indices where the change run failed its checks, or failed a
    larger share of its requests than its paired parent run."""
    return [i for i, (p, c) in enumerate(zip(parent, change))
            if not c["result"]["correct"]
            or failed_share(c) > failed_share(p)]


def verdict(parent, change, metric):
    direction, bound = metric["better"], metric["bound"]
    pairs = list(zip(parent, change))
    wins = sum(better(c, p, direction) for p, c in pairs)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    spread = p3 - p1
    worse = (cm - pm) if direction == "lower" else (pm - cm)
    worse_share = worse / abs(pm) if pm else 0.0
    spread_share = spread / abs(pm) if pm else 0.0
    all_better = all(better(c, p, direction) for c in change for p in parent)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and -worse > spread):
        label = "gain"
    elif spread_share > bound and not all_better:
        label = "unresolved"
    elif worse_share > bound:
        label = "regression"
    else:
        label = "within"
    return {
        "wins": wins, "parent_median": pm, "parent_q1": p1, "parent_q3": p3,
        "change_median": cm, "worse_share": worse_share,
        "spread_share": spread_share, "bound": bound, "verdict": label,
    }


def alternated(parent, change):
    """Whether the pairs alternated which side started first."""
    firsts = [p["provenance"]["started"] < c["provenance"]["started"]
              for p, c in zip(parent, change)]
    return all(firsts[i] != firsts[i + 1] for i in range(len(firsts) - 1))


def compare(parent_path, change_path):
    with open(BENCHMARK) as f:
        metrics = json.load(f)["end_to_end"]
    parent = by_workload(load(parent_path))
    change = by_workload(load(change_path))
    regressed = False
    worse_checks = False
    for workload in sorted(set(parent) & set(change)):
        p_recs, c_recs = parent[workload], change[workload]
        n = min(len(p_recs), len(c_recs))
        p_recs, c_recs = p_recs[:n], c_recs[:n]
        print(f"== {workload}: {n} pairs"
              + ("" if alternated(p_recs, c_recs) else
                 " (WARNING: pairs did not alternate which side ran first)")
              + ("" if n >= MIN_PAIRS else
                 f" (WARNING: fewer than {MIN_PAIRS} pairs;"
                 " no gain can be claimed)"))
        bad = [r for r in p_recs + c_recs if not r["result"]["correct"]]
        if bad:
            print(f"   {len(bad)} run(s) failed their output checks")
        failing = change_failed_more(p_recs, c_recs)
        if failing:
            worse_checks = True
            print(f"   change worse on checks or failed requests in pair(s) "
                  f"{[i + 1 for i in failing]}: gains on {workload} are void")
        for side, recs in (("parent", p_recs), ("change", c_recs)):
            audits = sorted({json.dumps(r.get("audit")) for r in recs})
            print(f"   {side} route audit: {', '.join(audits)}")
        print(f"   {'metric':14s} {'parent median [q1, q3]':>36s} "
              f"{'change median':>14s} {'wins':>6s} {'worse':>8s} "
              f"{'spread':>8s} {'bound':>6s}  verdict")
        for m in metrics:
            name = m["name"]
            pv = [r["result"]["metrics"][name]["value"] for r in p_recs]
            cv = [r["result"]["metrics"][name]["value"] for r in c_recs]
            v = verdict(pv, cv, m)
            if failing and v["verdict"] == "gain":
                v["verdict"] = "void"
            regressed |= v["verdict"] == "regression"
            print(f"   {name:14s} {v['parent_median']:12.6g} "
                  f"[{v['parent_q1']:.6g}, {v['parent_q3']:.6g}]".ljust(52)
                  + f"{v['change_median']:14.6g} {v['wins']:>3d}/{n:<2d} "
                  f"{v['worse_share']:+8.3f} {v['spread_share']:8.3f} "
                  f"{v['bound']:6.2f}  {v['verdict']}")
    return 1 if regressed or worse_checks else 0


def run_pairs(args):
    with open(BENCHMARK) as f:
        seconds = json.load(f)["run_seconds"]
    os.makedirs(args.out, exist_ok=True)
    sides = {"parent": args.parent, "change": args.change}
    for i in range(MIN_PAIRS):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            record = os.path.abspath(os.path.join(args.out, f"{side}.jsonl"))
            cmd = ["python3", "perfbench/run.py", "--workload", args.workload,
                   "--seed", str(i + 1), "--seconds", str(seconds),
                   "--trace", "0", "--record", record]
            done = subprocess.run(cmd, cwd=sides[side],
                                  stdout=subprocess.DEVNULL)
            print(f"pair {i + 1} {side}: exit {done.returncode}", flush=True)
    return compare(os.path.join(args.out, "parent.jsonl"),
                   os.path.join(args.out, "change.jsonl"))


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("compare")
    c.add_argument("parent")
    c.add_argument("change")
    r = sub.add_parser("run")
    r.add_argument("--parent", required=True)
    r.add_argument("--change", required=True)
    r.add_argument("--workload", required=True)
    r.add_argument("--out", default=os.path.join(HERE, "results"))
    args = parser.parse_args()
    if args.cmd == "compare":
        return compare(args.parent, args.change)
    return run_pairs(args)


if __name__ == "__main__":
    sys.exit(main())
