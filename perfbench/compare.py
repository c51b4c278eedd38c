#!/usr/bin/env python3
"""Summarise or compare recorded benchmark runs.

    python3 perfbench/run.py ... --record runs.jsonl      # one line per run
    python3 perfbench/compare.py runs.jsonl               # spread per metric
    python3 perfbench/compare.py base.jsonl new.jsonl     # regression check

With one file: per workload and metric, the median of the recorded runs and
the spread (distance between first and third quartile as a share of the
median), flagged when it exceeds a third of the metric's bound in
BENCHMARK.json.  With two files: per workload and end-to-end metric, both
medians and the change, flagged as a regression when the new median is
worse by more than the bound.  Two sets are compared only when their stamps
agree on host, build and pipeline threads; sanitizer or unoptimised builds
never produce a record (the driver refuses to run).
"""
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Stamp fields that must agree before two sets of runs may be compared.
SAME_HOST_AND_BUILD = ("nproc", "cpu_model", "build_type", "compiler",
                       "threads", "seconds", "size")


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                key = (rec["stamp"]["workload"], bool(rec["stamp"]["trace"]))
                runs.setdefault(key, []).append(rec)
    return runs


def bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def values(recs, name):
    return [r["result"]["metrics"][name]["value"] for r in recs
            if name in r["result"]["metrics"]]


def summarise(runs, meta):
    ok = True
    for (workload, trace), recs in sorted(runs.items()):
        failed = sum(r["result"]["failed"] for r in recs)
        attempted = sum(r["result"]["attempted"] for r in recs)
        print(f"{workload} trace={int(trace)}: {len(recs)} runs, "
              f"{failed}/{attempted} operations failed")
        for name in recs[0]["result"]["metrics"]:
            vals = values(recs, name)
            s = spread(vals)
            bound = meta.get(name, {}).get("bound")
            flag = ""
            if bound is not None and name != "setup_s" and s > bound / 3:
                flag = "  SPREAD ABOVE BOUND/3"
                ok = False
            print(f"  {name:26s} median {statistics.median(vals):14.6g} "
                  f"spread {s:7.2%}"
                  + (f" (bound {bound:.0%})" if bound is not None else "")
                  + flag)
    return ok


def stamp_mismatch(a, b):
    return [k for k in SAME_HOST_AND_BUILD
            if a["stamp"].get(k) != b["stamp"].get(k)]


def compare(base, new, meta):
    ok = True
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        if trace:
            continue
        diff = stamp_mismatch(base[key][0], new[key][0])
        if diff:
            print(f"{workload}: refusing to compare, stamps differ in "
                  + ", ".join(diff))
            ok = False
            continue
        print(f"{workload}: {base[key][0]['stamp']['revision']} -> "
              f"{new[key][0]['stamp']['revision']}")
        for name, m in meta.items():
            if "bound" not in m:
                continue
            b, n = values(base[key], name), values(new[key], name)
            if not b or not n:
                continue
            mb, mn = statistics.median(b), statistics.median(n)
            change = (mn - mb) / mb if mb else 0.0
            worse = change if m["better"] == "lower" else -change
            verdict = "REGRESSION" if worse > m["bound"] else "ok"
            if spread(b) > m["bound"] and verdict == "ok":
                verdict = "unresolved (spread above bound)"
            ok = ok and verdict != "REGRESSION"
            print(f"  {name:26s} {mb:14.6g} -> {mn:14.6g} {change:+8.2%} "
                  f"(bound {m['bound']:.0%}) {verdict}")
    return ok


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    meta = bounds()
    if len(argv) == 1:
        return 0 if summarise(load(argv[0]), meta) else 1
    return 0 if compare(load(argv[0]), load(argv[1]), meta) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
