#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads engine-ou spine-m2 --seeds 1-10
    python3 perfbench/spread.py --workloads pool-gw --seeds 1 --trace 1 --save perfbench/baseline_seed.json

For each workload and metric it prints the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the spread (q3 - q1) / median,
and for end-to-end metrics the spread as a share of the bound in
BENCHMARK.json. `--save FILE` merges every run's result line into FILE,
keyed by trace mode, workload and seed. Runs are sequential.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    provenance = next(json.loads(l.split(": ", 1)[1]) for l in lines if l.startswith("provenance: "))
    return json.loads(lines[-1]), provenance


def summarize(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "n": len(values)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path)
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else declared["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    saved = json.loads(args.save.read_text()) if args.save and args.save.exists() else {}
    mode = f"trace{args.trace}"

    for workload in args.workloads:
        results, values = {}, {}
        for seed in parse_seeds(args.seeds):
            line, provenance = run_once(workload, seed, seconds, args.trace)
            results[str(seed)] = line
            for name, metric in line["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: correct={line['correct']} "
                  f"failed={line['failed']}/{line['attempted']} "
                  + " ".join(f"{n}={m['value']:.5g}" for n, m in line["metrics"].items()
                             if n in bounds or args.trace), flush=True)
        for name, s in {name: summarize(v) for name, v in values.items()}.items():
            share = f"  {s['spread'] / bounds[name]:.2f} of bound {bounds[name]}" if name in bounds else ""
            print(f"{workload:10s} {name:36s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {s['spread']:.4f}{share}")
        entry = saved.setdefault(mode, {}).setdefault(workload, {"runs": {}})
        entry["runs"].update(results)
        entry["seconds"] = seconds
        entry["summary"] = {
            name: summarize([line["metrics"][name]["value"] for line in entry["runs"].values()])
            for name in values
        }
        saved["provenance"] = {k: provenance[k] for k in
                               ("cpu", "nproc", "python", "numpy", "scipy", "git_rev", "note")}
    if args.save:
        args.save.write_text(json.dumps(saved, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
