"""Steadiness of the benchmark: repeated runs, alternating workloads.

    python3 perfbench/steady.py --runs 10 [--workloads cloud-field,cli-io]

Pass i runs every workload once, with seed i + 1, untraced and for the run
length in BENCHMARK.json, so slow drift of
the machine spreads over all workloads alike.  For every metric of every
workload it prints the median, the quartiles (statistics.quantiles, n=4)
and the interquartile range as a share of the median, next to the metric's
bound from BENCHMARK.json, and it checks that the share of failed operations
is the same in every run.  The full table is also written as JSON under
.perfbench-results/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["wall_s"] = wall
    return res


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / med if med else 0.0}


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workloads.split(",")
    runs = {w: [] for w in names}
    for i in range(args.runs):
        for w in names:
            res = one_run(w, i + 1, spec["run_seconds"])
            runs[w].append(res)
            print(f"pass {i} {w}: {res['wall_s']:.1f} s, "
                  f"correct={res['correct']} failed={res['failed']}/"
                  f"{res['attempted']}", flush=True)

    table = {}
    for w in names:
        shares = {r["failed"] / r["attempted"] for r in runs[w]}
        correct = all(r["correct"] for r in runs[w])
        wall = statistics.fmean(r["wall_s"] for r in runs[w])
        same = "" if len(shares) == 1 else " DIFFER between runs"
        print(f"\n{w}: {len(runs[w])} runs, correct={correct}, failed "
              f"shares {sorted(shares)}{same}, mean wall {wall:.1f} s")
        table[w] = {"correct": correct, "failed_shares": sorted(shares),
                    "metrics": {}}
        for metric in runs[w][0]["metrics"]:
            vals = [r["metrics"][metric]["value"] for r in runs[w]]
            unit = runs[w][0]["metrics"][metric]["unit"]
            s = summarize(vals) if len(vals) > 1 else {
                "median": vals[0], "q1": vals[0], "q3": vals[0],
                "iqr_share": 0.0}
            s["unit"] = unit
            s["values"] = vals
            table[w]["metrics"][metric] = s
            bound = bounds.get(metric)
            flag = ""
            if bound is not None:
                flag = "ok" if s["iqr_share"] < bound / 3 else (
                    "WIDE" if s["iqr_share"] > bound else "over 1/3")
            print(f"  {metric:34s} median {s['median']:12.6g} {unit:6s} "
                  f"q1 {s['q1']:12.6g} q3 {s['q3']:12.6g} "
                  f"iqr/median {s['iqr_share']:7.4f}"
                  + (f"  bound {bound} {flag}" if bound is not None else ""))
    out_dir = os.path.join(ROOT, ".perfbench-results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, time.strftime("steady-%Y%m%d-%H%M%S.json"))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"runs": args.runs, "seconds": spec["run_seconds"],
                   "table": table}, fh, indent=1)
    print(f"\nwritten to {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
