#!/usr/bin/env python3
"""Runs the benchmark once per seed and reports each end-to-end metric's
median, quartiles and spread (Q3 - Q1, as a share of the median) against
the bound in BENCHMARK.json.

Run from the repository root:

    python3 benchmark/spread.py --workload plan-drupal --seeds 1-10

Each run's result and output digest are saved under .bench_build/spread/.
With --against <earlier saved set>, it also reports how far each median
moved and whether every seed's digest and simulated figures repeated.
With --pin, it records each seed's output digest in benchmark/digests.json
(one short run per seed suffices: --seconds 1).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

EXACT = ("l1i_mpki",)  # simulated: must repeat exactly per seed


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds):
    cmd = ["bash", "benchmark/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}")
    key, digest = next((l.split()[1:3] for l in lines if l.startswith("digest ")), ("", ""))
    return {"seed": seed, "key": key, "digest": digest, **json.loads(lines[-1])}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--save", help="file to save this set to (default .bench_build/spread/<workload>.json)")
    ap.add_argument("--against", help="an earlier saved set to compare with")
    ap.add_argument("--pin", action="store_true", help="record the digests in benchmark/digests.json")
    a = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = a.seconds or bench["run_seconds"]

    runs = []
    for s in seeds(a.seeds):
        r = run(a.workload, s, seconds)
        runs.append(r)
        print(f"seed {s}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']} digest={r['digest'][:16]}",
              flush=True)
    save = a.save or os.path.join(".bench_build", "spread", a.workload + ".json")
    os.makedirs(os.path.dirname(save), exist_ok=True)
    with open(save, "w") as f:
        json.dump(runs, f, indent=1)

    if a.pin:
        path = os.path.join("benchmark", "digests.json")
        with open(path) as f:
            pinned = json.load(f)
        for r in runs:
            pinned[r["key"]] = r["digest"]
        with open(path, "w") as f:
            json.dump(dict(sorted(pinned.items())), f, indent=1)
            f.write("\n")

    ok = all(r["correct"] for r in runs)
    print(f"{'metric':14} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for name, bound in bounds.items():
        vals = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / med if med else float("inf")
        flag = "" if name == "setup_s" or spread <= bound / 3 else ("  > bound/3" if spread <= bound else "  > BOUND")
        if name != "setup_s" and spread > bound:
            ok = False
        print(f"{name:14} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} {bound:6.2f}{flag}")

    if a.against:
        with open(a.against) as f:
            old = json.load(f)
        byseed = {r["seed"]: r for r in old}
        for r in runs:
            o = byseed.get(r["seed"])
            if o is None:
                continue
            if o["digest"] != r["digest"]:
                print(f"seed {r['seed']}: digest differs between sets")
                ok = False
            for name in EXACT:
                if o["metrics"][name]["value"] != r["metrics"][name]["value"]:
                    print(f"seed {r['seed']}: {name} differs between sets")
                    ok = False
        for m in bench["end_to_end"]:
            name = m["name"]
            m1 = statistics.median(o["metrics"][name]["value"] for o in old)
            m2 = statistics.median(r["metrics"][name]["value"] for r in runs)
            worse = (m2 - m1) / m1 if m["better"] == "lower" else (m1 - m2) / m1
            print(f"{name:14} median {m1:.6g} -> {m2:.6g}: {100 * worse:+.2f}% worse (bound {100 * m['bound']:.0f}%)")
            if worse > m["bound"]:
                ok = False
    print("steady" if ok else "NOT STEADY")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
