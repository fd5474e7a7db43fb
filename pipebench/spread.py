#!/usr/bin/env python3
"""Run the benchmark on several seeds and report how steady each metric is.

For every workload given, runs the command from BENCHMARK.json once per
seed (untraced), then prints, per end-to-end metric, the median of the
runs and the distance between the first and third quartile as a share
of the median (`statistics.quantiles(values, n=4)`), next to the
metric's bound. Run from the repository root:

    python3 pipebench/spread.py --workload campaign --seeds 1-10

`--command` replaces the BENCHMARK.json command (for example with an
already-built binary) for quicker tuning loops. `--save FILE` writes the
values of this set; `--against FILE` also checks each median against a
saved set: it may not be worse than the saved median by more than the
metric's bound (the two-set check).
"""

import argparse
import json
import shlex
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--command", help="command to run instead of BENCHMARK.json's")
    ap.add_argument("--save", help="write this set's values to FILE (JSON)")
    ap.add_argument("--against", help="compare medians with a set saved by --save")
    args = ap.parse_args()
    command = shlex.split(args.command) if args.command else bench["command"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}
    earlier = json.load(open(args.against)) if args.against else {}
    saved = {}
    steady = True
    for workload in args.workload:
        values = {}
        for seed in parse_seeds(args.seeds):
            run = subprocess.run(
                command
                + ["--workload", workload, "--seed", str(seed)]
                + ["--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True,
                text=True,
            )
            if run.returncode != 0:
                print(f"{workload} seed {seed}: exit {run.returncode}\n{run.stderr}")
                steady = False
                continue
            result = json.loads(run.stdout.strip().splitlines()[-1])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            summary = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            steal = [l for l in run.stderr.splitlines() if "host stole" in l]
            note = steal[-1].split("host ")[-1] if steal else ""
            print(f"{workload} seed {seed}: {summary}  ({note})", flush=True)
        for name, vals in sorted(values.items()):
            if len(vals) < 2:
                continue
            q = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q[2] - q[0]) / med if med else float("inf")
            bound = bounds.get(name)
            ok = bound is None or spread <= bound
            verdict = "ok" if ok else "TOO WIDE"
            before = earlier.get(workload, {}).get(name)
            if before and bound is not None:
                old = statistics.median(before)
                worse = (med - old) / old if lower[name] else (old - med) / old
                drift_ok = worse <= bound
                ok &= drift_ok
                verdict += f"; vs saved median {old:.6g}: {worse:+.3f} worse"
                verdict += "" if drift_ok else " DRIFTED"
            steady &= ok
            print(
                f"{workload:13} {name:18} median {med:12.6g}  spread {spread:6.3f}"
                f"  bound {bound}  {verdict}"
            )
        saved[workload] = values
    if args.save:
        json.dump(saved, open(args.save, "w"), indent=1)
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
