#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workloads agg_fine ycsb_a_durable \
        --seeds 1-10 [--save set.jsonl] [--against old.jsonl]

For every workload and metric it prints the median of the runs and the
distance between the first and third quartile (statistics.quantiles,
n=4) as a share of that median, next to the metric's bound from
BENCHMARK.json; a spread above a third of its bound is flagged.
`--save` keeps the result set (one JSON line per run, with the run's
machine descriptor); `--against` compares medians with a saved set and
refuses when the descriptors differ (seed and commit aside).

Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys

IGNORED_IN_DESCRIPTOR = {"seed", "commit"}


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    descriptor = next(
        json.loads(l[len("descriptor "):]) for l in lines if l.startswith("descriptor ")
    )
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result} \n{out.stderr}")
    return {"workload": workload, "seed": seed, "descriptor": descriptor, "result": result}


def comparable(a, b):
    strip = lambda d: {k: v for k, v in d.items() if k not in IGNORED_IN_DESCRIPTOR}
    return strip(a) == strip(b)


def medians(runs):
    by = {}
    for r in runs:
        for name, m in r["result"]["metrics"].items():
            by.setdefault((r["workload"], name), []).append(m["value"])
    return by


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--save")
    ap.add_argument("--against")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    runs = []
    for w in workloads:
        for s in seeds(args.seeds):
            runs.append(run_once(bench, w, s))
            print(f"{w} seed {s} done", file=sys.stderr)
    if args.save:
        with open(args.save, "w") as f:
            for r in runs:
                f.write(json.dumps(r) + "\n")

    values = medians(runs)
    ok = True
    for (w, name), xs in values.items():
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag, ok = "  <-- above a third of the bound", False
        bound_s = f"{bound:.2f}" if bound is not None else "-"
        print(f"{w:16s} {name:40s} median {med:14.4f}  spread {spread:7.4f}  bound {bound_s}{flag}")

    if args.against:
        old = [json.loads(l) for l in open(args.against)]
        if not all(
            comparable(o["descriptor"], r["descriptor"])
            for o in old for r in runs if o["workload"] == r["workload"]
        ):
            sys.exit("descriptors differ: refusing to compare result sets")
        old_values = medians(old)
        for key, xs in values.items():
            if key in old_values:
                a, b = statistics.median(old_values[key]), statistics.median(xs)
                print(f"{key[0]:16s} {key[1]:40s} {a:14.4f} -> {b:14.4f}  ({(b - a) / a:+.2%})")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
