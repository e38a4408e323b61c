#!/usr/bin/env python3
"""Benchmark of `branchsim simulate` on three experiment workloads.

Run from the root of a branchsim checkout:

    python3 perfbench/run.py --workload engine-ou --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload pool-gw --seed 1 --trace 1
    python3 perfbench/run.py --quick

The program is imported from `src/` of the checkout and driven through its
CLI entry point (`cli.main(["simulate", spec, "--threads", N, "--assert",
"--out", DIR])`), so each run goes spec file -> `ExperimentSpec.build` ->
runner -> CSV and JSON sidecar. Specs are generated from `--seed` by
`workloads.py`; temporary files live in `.perfbench-tmp-*` under the
checkout and are removed on exit.

`--trace 0` measures the end-to-end metrics with no tracing: after two
small warm-up runs, as many runs as fit in `--seconds` seconds, then peak
RSS and the set-up time of fresh interpreters. `--trace 1` runs the workload
three times (coarse spans at 1 thread, fully traced at 1 thread, coarse spans
at 2 threads) and reports the per-layer metrics; the spans of the fully
traced run are written to `.perfbench-out/`.
`--quick` runs every workload at a tiny size in both modes and checks that
every metric named in BENCHMARK.json is printed; it gates on names only,
since the statistical checks are underpowered at that size.

Every run passes `--assert`; the benchmark adds its own output checks. The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` (correctness checks) and `metrics`.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import tracer as tr
from workloads import WORKLOADS, killed_ou_mean_population

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench-out"

SETUP_PROBES = 7
CV_WARNING = "two-spine weights are heavy-tailed"
CSV_HEADER = "time,estimator,value,std_error,n_effective,excluded_truncated"

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "check_pass_ratio": "ratio",
}

PER_LAYER_UNITS = {
    "motions.step_calls": "count",
    "motions.step_us": "us",
    "motions.step_many_calls": "count",
    "motions.step_many_ns_per_particle": "ns",
    "motions.busy_s": "s",
    "branching.offspring_draws": "count",
    "branching.offspring_us": "us",
    "branching.busy_s": "s",
    "engine.busy_s": "s",
    "engine.self_s": "s",
    "engine.replicas_per_s": "1/s",
    "engine.offspring_draws_per_s": "1/s",
    "engine.replica_ms_p50": "ms",
    "engine.replica_ms_p99": "ms",
    "engine.peak_population": "count",
    "engine.truncated_ratio": "ratio",
    "parallel.busy_s": "s",
    "parallel.rng_setup_s": "s",
    "parallel.result_bytes_per_replica": "bytes",
    "parallel.speedup": "ratio",
    "parallel.pool_starts": "count",
    "stats.busy_s": "s",
    "stats.D_evals": "count",
    "stats.h_evals": "count",
    "stats.phi_quadrature_ms": "ms",
    "spine.busy_s": "s",
    "spine.paths_per_s": "1/s",
    "spine.useful_path_ratio": "ratio",
    "spine.cv_warnings": "count",
    "fixedpoint.self_s": "s",
    "experiments.build_s": "s",
    "experiments.csv_s": "s",
    "experiments.self_s": "s",
    "trace.overhead_ratio": "ratio",
}

SETUP_PROBE = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import branchsim
from branchsim.experiments import load_spec
load_spec(sys.argv[2]).build()
print(repr(time.perf_counter() - start))
"""


# ---------------------------------------------------------------------------
# the program under test
# ---------------------------------------------------------------------------


def load_program():
    """Import branchsim from this checkout's src/, never from anywhere else."""
    package = SRC / "branchsim"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no branchsim package under {SRC}; run inside a checkout")
    sys.path.insert(0, str(SRC))
    import branchsim
    from branchsim import cli, experiments  # noqa: F401  (experiments: import before timing)

    if Path(branchsim.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported branchsim from {branchsim.__file__}, not {package}")
    return cli


class Run:
    """One `branchsim simulate` call through the CLI entry point."""

    def __init__(self, cli, spec_path: Path, threads: int, out_dir: Path):
        argv = ["simulate", str(spec_path), "--threads", str(threads), "--assert",
                "--out", str(out_dir)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings():
            # as in a fresh interpreter: each distinct RuntimeWarning printed once
            warnings.filterwarnings("default", category=RuntimeWarning)
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                start = time.perf_counter()
                self.code = cli.main(argv)
                self.wall_s = time.perf_counter() - start
        self.csv = stdout.getvalue()
        self.stderr = stderr.getvalue()
        self.kind = json.loads(spec_path.read_text())["experiment"]
        self.csv_file = (out_dir / f"{self.kind}.csv").read_text()
        self.sidecar = json.loads((out_dir / f"{self.kind}.json").read_text())


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, name, passed, detail=""):
        self.attempted += 1
        if not passed:
            self.failures.append(f"{name}: {detail}" if detail else name)

    def run(self, run: Run, label: str):
        """The built-in --assert checks plus the benchmark's checks on the outputs."""
        self.add(f"{label}: exit code 0", run.code == 0, f"exit code {run.code}")
        for check in run.sidecar["checks"]:
            self.add(f"{label}: {check['name']}", check["passed"], check["detail"])
        self.output(run, label)

    def output(self, run: Run, label: str):
        self.add(f"{label}: stdout CSV equals the CSV file", run.csv == run.csv_file)
        self.add(f"{label}: CSV header", run.csv.split("\n", 1)[0] == CSV_HEADER)
        if run.kind == "eta-sigma":
            self.eta_monotone(run, label)

    def eta_monotone(self, run: Run, label: str):
        """eta_hat(t) = P(extinct by t) on one set of replicas: surely non-decreasing."""
        rows = [r for r in csv.DictReader(io.StringIO(run.csv)) if r["estimator"] == "eta_hat"]
        values = [float(r["value"]) for r in sorted(rows, key=lambda r: float(r["time"]))]
        ok = bool(values) and all(a <= b for a, b in zip(values, values[1:]))
        self.add(f"{label}: eta_hat non-decreasing in t", ok, f"eta_hat = {values}")


def write_spec(work: Path, workload, seed: int, run: int, quick: bool, tag: str = "run") -> Path:
    path = work / f"spec-{tag}-{run}.yaml"
    if not path.exists():
        path.write_text(json.dumps(workload.spec(seed, run, quick)))  # JSON is YAML
    return path


# ---------------------------------------------------------------------------
# end-to-end measurement (no tracing)
# ---------------------------------------------------------------------------


def measure_setup(spec_path: Path, probes: int) -> list:
    """import branchsim + load_spec (parse_spec) + build, in fresh interpreters."""
    times = []
    for _ in range(probes):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(spec_path)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def end_to_end(cli, workload, seed, seconds, quick, work):
    checks = Checks()
    out_dir = work / "out"
    # Warm-up: the run-0 spec at the quick size, at 1 thread and at the
    # workload's thread count. Equal CSV bytes show repeatability and
    # independence from --threads. The built-in verdicts of these two runs are
    # not counted: they are statistical checks and underpowered at that size.
    small = write_spec(work, workload, seed, 0, True, "warm")
    warm = [Run(cli, small, threads, out_dir) for threads in (1, workload.threads)]
    for run, label in zip(warm, ("warm-up 1", "warm-up 2")):
        checks.output(run, label)
    checks.add(
        f"CSV bytes identical at --threads 1 and --threads {workload.threads}"
        if workload.threads > 1 else "CSV bytes identical across two runs of one spec",
        warm[0].csv == warm[1].csv,
    )
    # Measured runs: each with its own spec seed, as many as fit in the window.
    runs = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start + runs[-1].wall_s <= seconds:
        k = len(runs)
        run = Run(cli, write_spec(work, workload, seed, k, quick), workload.threads, out_dir)
        checks.run(run, f"run {k}")
        runs.append(run)
    # children so far are the pool workers only; the set-up probes come after
    rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    setup = measure_setup(write_spec(work, workload, seed, 0, quick), 1 if quick else SETUP_PROBES)

    walls = [r.wall_s for r in runs]
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_kb / 1024.0,
        "check_pass_ratio": 1.0 - len(checks.failures) / checks.attempted,
    }
    q = quartiles(walls)
    notes = {
        "wall_s": f"median of {len(walls)} run(s), q1 {q[0]:.4f} q3 {q[2]:.4f}, "
                  f"threads {workload.threads}",
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "peak_rss_mb": "benchmark process + largest pool worker (ru_maxrss)",
        "check_pass_ratio": f"check_fail_ratio = {len(checks.failures)}/{checks.attempted}",
    }
    hashes = {workload.spec(seed, k, quick)["seed"]: sha256(run.csv) for k, run in enumerate(runs)}
    return metrics, notes, checks, {"runs": len(runs), "csv_sha256_by_spec_seed": hashes}


# ---------------------------------------------------------------------------
# traced run (per-layer metrics)
# ---------------------------------------------------------------------------


def traced(cli, workload, seed, quick, work):
    checks = Checks()
    out_dir = work / "out"
    spec_path = write_spec(work, workload, seed, 0, quick)
    spec = json.loads(spec_path.read_text())

    # Coarse spans cost about one wrapper per replica plus a few dozen spans,
    # so the coarse 1-thread run stands for the untraced run.
    with tr.Tracer(tr.COARSE) as coarse1:
        run_c1 = Run(cli, spec_path, 1, out_dir)
    with tr.Tracer(tr.FULL) as full:
        run_full = Run(cli, spec_path, 1, out_dir)
    with tr.Tracer(tr.COARSE) as coarse2:
        run_c2 = Run(cli, spec_path, 2, out_dir)

    labelled = (("coarse, 1 thread", run_c1), ("traced", run_full), ("coarse, 2 threads", run_c2))
    for label, run in labelled:
        checks.run(run, label)
    checks.add("CSV bytes identical traced, coarse, at 1 and 2 threads",
               len({run.csv for _, run in labelled}) == 1)

    replicas = [snaps for result in full.results for snaps in result]
    if workload.name == "engine-ou":
        check_population(checks, spec, full.results[0])

    pool = coarse2 if workload.threads > 1 else full
    paths = full.calls("sample_two_spine")
    engine_s = coarse1.total_s("run_replicas")
    durations_ms = sorted(d / 1e6 for d in coarse1.stats["run_replica"].durations)
    snapshots = [snap for snaps in replicas for snap in snaps]
    step_many_particles = full.counts.get("step_many_particles", 0)
    metrics = {
        "motions.step_calls": full.calls("step"),
        "motions.step_us": ratio(full.total_s("step") * 1e6, full.calls("step")),
        "motions.step_many_calls": full.calls("step_many"),
        "motions.step_many_ns_per_particle":
            ratio(full.total_s("step_many") * 1e9, step_many_particles),
        "motions.busy_s": full.busy_s("motions"),
        "branching.offspring_draws": full.calls("sample_offspring"),
        "branching.offspring_us":
            ratio(full.total_s("sample_offspring") * 1e6, full.calls("sample_offspring")),
        "branching.busy_s": full.busy_s("branching"),
        "engine.busy_s": full.busy_s("engine"),
        "engine.self_s": full.self_s("engine"),
        "engine.replicas_per_s": ratio(len(durations_ms), engine_s),
        "engine.offspring_draws_per_s": ratio(full.calls("sample_offspring"), engine_s),
        "engine.replica_ms_p50": percentile(durations_ms, 0.50),
        "engine.replica_ms_p99": percentile(durations_ms, 0.99),
        "engine.peak_population": max((s.size for s in snapshots), default=0),
        "engine.truncated_ratio": ratio(sum(s.truncated for s in snapshots), len(snapshots)),
        "parallel.busy_s": pool.self_s("parallel"),
        "parallel.rng_setup_s": full.total_s("replica_rng"),
        "parallel.result_bytes_per_replica":
            ratio(sum(len(pickle.dumps(snaps)) for snaps in replicas), len(replicas)),
        "parallel.speedup":
            ratio(coarse1.total_s("map_replicas"), coarse2.total_s("map_replicas")),
        "parallel.pool_starts": pool.pool_starts,
        "stats.busy_s": full.busy_s("stats"),
        "stats.D_evals": full.calls("malthusian_D"),
        "stats.h_evals": full.counts.get("h_evals", 0),
        "stats.phi_quadrature_ms": full.total_s("phi_quadrature") * 1e3,
        "spine.busy_s": full.busy_s("spine"),
        "spine.paths_per_s": ratio(paths, coarse1.total_s("many_to_two")),
        "spine.useful_path_ratio": ratio(full.counts.get("useful_paths", 0), paths),
        "spine.cv_warnings": run_c1.stderr.count(CV_WARNING),
        "fixedpoint.self_s": full.self_s("fixedpoint"),
        "experiments.build_s": full.total_s("load_spec") + full.total_s("ExperimentSpec.build"),
        "experiments.csv_s": sum(
            (parent[3] - child[2]) / 1e9 for parent, child in full.span_pairs("run_experiment", "rows_to_csv")
        ),
        "experiments.self_s": full.self_s("experiments"),
        "trace.overhead_ratio": run_full.wall_s / run_c1.wall_s - 1.0,
    }
    notes = {
        "engine.replica_ms_p99": f"{len(durations_ms)} replicas, coarse spans only",
        "engine.replicas_per_s": "replicas / run_replicas time, coarse spans only",
        "parallel.busy_s": f"parallel's own time at {workload.threads} thread(s)",
        "parallel.speedup": "map_replicas time at 1 thread / at 2 threads",
        "trace.overhead_ratio": f"traced {run_full.wall_s:.3f} s / coarse {run_c1.wall_s:.3f} s - 1",
    }
    SPANS_DIR.mkdir(exist_ok=True)
    spans_path = SPANS_DIR / f"spans-{workload.name}-seed{seed}.json"
    full.dump(spans_path, f"{workload.name} seed {seed}, full tracing at 1 thread")
    return metrics, notes, checks, {"spans": str(spans_path.relative_to(ROOT))}


def check_population(checks, spec, replicas):
    """Mean live population at the last snapshot within 4 SE of the exact mean."""
    t = spec["snapshot_times"][-1]
    sizes = [snaps[-1].size for snaps in replicas if not snaps[-1].truncated]
    mean = statistics.fmean(sizes)
    se = statistics.stdev(sizes) / math.sqrt(len(sizes))
    exact = killed_ou_mean_population(spec, t)
    checks.add(
        f"mean live population at t={t:g} = exact {exact:.1f} within 4 SE",
        abs(mean - exact) <= 4.0 * se,
        f"mean {mean:.1f}, SE {se:.1f}, {len(sizes)} replicas",
    )


# ---------------------------------------------------------------------------
# helpers and output
# ---------------------------------------------------------------------------


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def percentile(sorted_values, q):
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def quartiles(values):
    if len(values) < 2:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4))


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def provenance(workload, seed):
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    rev = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        rev = out.stdout.strip() or rev
    nproc = os.cpu_count()
    return {
        "cpu": cpu,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_rev": rev,
        "workload": workload.name,
        "workload_seed": seed,
        "size": workload.size(),
        "threads": workload.threads,
        "spec_run_0": workload.spec(seed, 0),
        "note": f"{nproc} CPUs: thread scaling beyond {nproc} workers is not measured here",
    }


def measure(cli, workload, seed, seconds, trace, quick):
    work = Path(tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT))
    try:
        if trace:
            return traced(cli, workload, seed, quick, work)
        return end_to_end(cli, workload, seed, seconds, quick, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(workload, metrics, units, notes, checks, extra):
    for name, value in metrics.items():
        print(f"{workload.name:10s} {name:36s} {value:>16.6g} {units[name]:6s} {notes.get(name, '')}")
    print(f"{workload.name:10s} checks: {checks.attempted - len(checks.failures)}"
          f"/{checks.attempted} passed")
    for failure in checks.failures:
        print(f"[FAIL] {failure}")
    print("details: " + json.dumps(extra, sort_keys=True))


def result_line(metrics, units, checks):
    return json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    })


def quick_check(cli):
    """Every workload, tiny size, both modes: are all BENCHMARK.json metrics printed?"""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in WORKLOADS.values():
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            metrics, _, checks, _ = measure(cli, workload, 1, 0, trace, quick=True)
            units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
            line = json.loads(result_line(metrics, units, checks))
            want = {m["name"]: m["unit"] for m in declared[key]}
            got = {name: m["unit"] for name, m in line["metrics"].items()}
            ok = got == want and all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())
            print(f"{workload.name:10s} trace {trace}: {len(got)} metrics "
                  f"{'OK' if ok else 'MISMATCH'} ({line['attempted']} checks, {line['failed']} failed)")
            if not ok:
                problems.append((workload.name, trace, sorted(set(want.items()) ^ set(got.items()))))
    for problem in problems:
        print("mismatch:", problem)
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes, every workload, both modes: check metric names only")
    args = parser.parse_args(argv)
    if not args.quick and args.workload is None:
        parser.error("--workload is required unless --quick")
    cli = load_program()
    if args.quick:
        return quick_check(cli)

    workload = WORKLOADS[args.workload]
    metrics, notes, checks, extra = measure(cli, workload, args.seed, args.seconds, args.trace, False)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print("provenance: " + json.dumps(provenance(workload, args.seed), sort_keys=True))
    report(workload, metrics, units, notes, checks, extra)
    print(result_line(metrics, units, checks))
    return 0


if __name__ == "__main__":
    sys.exit(main())
