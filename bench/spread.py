#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports run-to-run spread.

For each workload and each set, the timed pass runs once per seed. For
each end-to-end metric this prints the median of the per-run values and
the spread (q3 - q1) / median, with quartiles from statistics.quantiles,
next to the bound in BENCHMARK.json; with two sets it also prints how far
the second set's median moved from the first's. With --traced-seeds it
then runs the traced pass for that many seeds per workload. Every run's
result and detail line, less the per-call samples, goes to --out as JSON.
Run from the root of a checkout:

    python3 bench/spread.py --seeds 10 --sets 2 --traced-seeds 1 --out bench/results/<commit>.json
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(workload, seed, seconds, trace):
    cmd = ["bash", "bench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    detail = json.loads(lines[-2])["detail"]
    detail.pop("samples")
    result = json.loads(lines[-1])
    print(f"{workload} seed {seed} trace {trace}: correct={result['correct']}", file=sys.stderr)
    return {"workload": workload, "seed": seed, "result": result, "detail": detail}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="", help="comma-separated; default all")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--traced-seeds", type=int, default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    secs = bench["run_seconds"]
    doc = {"run_seconds": secs, "bounds": {m["name"]: m["bound"] for m in bench["end_to_end"]},
           "sets": [[run(w, seed, secs, 0) for w in names for seed in range(1, args.seeds + 1)]
                    for _ in range(args.sets)]}
    doc["traced"] = [run(w, seed, secs, 1) for w in names for seed in range(1, args.traced_seeds + 1)]
    ok = True
    for w in names:
        for m in bench["end_to_end"]:
            meds = []
            for s, runs in enumerate(doc["sets"]):
                vals = [r["result"]["metrics"][m["name"]]["value"] for r in runs if r["workload"] == w]
                meds.append(statistics.median(vals))
                line = f"set {s + 1} {w:14} {m['name']:18} median {meds[-1]:<12.6g}"
                if len(vals) > 1 and meds[-1] != 0:
                    line += f" spread {spread(vals):.4f} (bound {m['bound']})"
                    ok = ok and (m["name"] == "setup_s" or spread(vals) <= m["bound"])
                print(line)
            if len(meds) == 2 and meds[0] != 0:
                worse = (meds[1] - meds[0]) / meds[0] * (-1 if m["better"] == "higher" else 1)
                print(f"      {w:14} {m['name']:18} set 2 worse by {worse:+.4f} (bound {m['bound']})")
                ok = ok and worse <= m["bound"]
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    print("every spread and shift is within its bound" if ok else "SOME SPREAD OR SHIFT EXCEEDS ITS BOUND")


if __name__ == "__main__":
    main()
