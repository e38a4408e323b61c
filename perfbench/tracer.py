"""Tracing of branchsim from outside the program.

`Tracer.install` replaces public entry points of the branchsim modules with
timing wrappers and `Tracer.uninstall` puts the originals back. Coarse calls
(a handful per run) are kept as spans (name, start, end, parent). Per-call
entry points such as `MotionModel.step` are only counted: calls, busy time
and self time, so that a run with hundreds of thousands of calls stays cheap.

Self time is a call's duration minus the time of the wrapped calls made
inside it. A layer's busy time is the time during which at least one of its
wrapped calls is running; its self time is the sum of its calls' self times.
"""

from __future__ import annotations

import functools
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter_ns

COARSE = "coarse"  # spans only: negligible overhead, usable with a process pool
FULL = "full"  # spans plus per-call counters; run at threads 1


class Stat:
    __slots__ = ("calls", "total_ns", "self_ns", "durations")

    def __init__(self, keep_durations):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.durations = [] if keep_durations else None


class Tracer:
    def __init__(self, level: str):
        self.level = level
        self.stats = {}  # entry-point name -> Stat
        self.layer_busy_ns = {}
        self.layer_self_ns = {}
        self.layer_depth = {}
        self.spans = []  # (id, name, start_ns, end_ns, parent_id)
        self.counts = {}  # computed counts filled by observers
        self.results = []  # return values of run_replicas, for post-hoc checks
        self.pool_starts = 0
        self._stack = []  # frames [child_ns, span_id]
        self._patches = []  # (owner, attribute, original)

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, name, layer, span=False, keep_durations=False, observe=None):
        stat = self.stats.setdefault(name, Stat(keep_durations))
        self.layer_busy_ns.setdefault(layer, 0)
        self.layer_self_ns.setdefault(layer, 0)
        self.layer_depth.setdefault(layer, 0)
        stack, spans = self._stack, self.spans
        busy, own, depth = self.layer_busy_ns, self.layer_self_ns, self.layer_depth
        durations = stat.durations

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = None
            if span:
                span_id = len(spans)
                parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
                spans.append([span_id, name, 0, 0, parent])
            frame = [0, span_id]
            stack.append(frame)
            depth[layer] += 1
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                depth[layer] -= 1
                dur = end - start
                stat.calls += 1
                stat.total_ns += dur
                stat.self_ns += dur - frame[0]
                own[layer] += dur - frame[0]
                if depth[layer] == 0:
                    busy[layer] += dur
                if stack:
                    stack[-1][0] += dur
                if durations is not None:
                    durations.append(dur)
                if span_id is not None:
                    spans[span_id][2:4] = [start, end]
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _patch(self, owner, attribute, replacement):
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def _patch_function(self, fn, replacement):
        """Rebind fn in every branchsim module that imported it by name."""
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "branchsim":
                continue
            for attribute, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attribute, replacement)

    def _count(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    def install(self):
        from branchsim import (
            branching,
            engine,
            experiments,
            fixedpoint,
            motions,
            parallel,
            spine,
            states,
            stats,
        )

        tracer = self

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                tracer.pool_starts += 1
                super().__init__(*args, **kwargs)

        self._patch(parallel, "ProcessPoolExecutor", CountingPool)

        coarse = [
            (experiments.load_spec, "load_spec", "experiments"),
            (experiments.run_experiment, "run_experiment", "experiments"),
            (experiments.rows_to_csv, "rows_to_csv", "experiments"),
            (engine.run_replicas, "run_replicas", "engine"),
            (parallel.map_replicas, "map_replicas", "parallel"),
            (stats.martingale_curve, "martingale_curve", "stats"),
            (stats.snapshot_statistic, "snapshot_statistic", "stats"),
            (stats.phi_quadrature, "phi_quadrature", "stats"),
            (spine.many_to_two, "many_to_two", "spine"),
            (fixedpoint.eta_curve, "eta_curve", "fixedpoint"),
            (fixedpoint.sigma_estimate, "sigma_estimate", "fixedpoint"),
        ]
        for fn, name, layer in coarse:
            observe = None
            if name == "run_replicas":
                observe = lambda args, result: self.results.append(result)
            self._patch_function(fn, self._wrap(fn, name, layer, span=True, observe=observe))
        # one wrapper per replica costs well under 1% of a replica, so replica
        # durations are taken at both levels
        self._patch_function(
            engine.run_replica,
            self._wrap(engine.run_replica, "run_replica", "engine", keep_durations=True),
        )
        build = experiments.ExperimentSpec.__dict__["build"]
        self._patch(
            experiments.ExperimentSpec,
            "build",
            self._wrap(build, "ExperimentSpec.build", "experiments", span=True),
        )
        if self.level != FULL:
            return

        def observe_D(args, result):
            self._count("h_evals", len(args[0].live_states))

        def observe_path(args, result):
            alive = not (states.is_absorbed(result.terminal_1) or states.is_absorbed(result.terminal_2))
            self._count("useful_paths", int(alive))

        def observe_many(args, result):
            self._count("step_many_particles", len(result))

        per_call = [
            (parallel.replica_rng, "replica_rng", "parallel", None),
            (stats.malthusian_D, "malthusian_D", "stats", observe_D),
            (spine.sample_two_spine, "sample_two_spine", "spine", observe_path),
        ]
        for fn, name, layer, observe in per_call:
            self._patch_function(fn, self._wrap(fn, name, layer, observe=observe))
        self._patch(
            motions.MotionModel,
            "step",
            self._wrap(motions.MotionModel.__dict__["step"], "step", "motions"),
        )
        for cls in vars(motions).values():
            if isinstance(cls, type) and issubclass(cls, motions.MotionModel):
                if "step_many" in cls.__dict__:
                    fn = cls.__dict__["step_many"]
                    self._patch(
                        cls, "step_many", self._wrap(fn, "step_many", "motions", observe=observe_many)
                    )
        sample = branching.BranchingLaw.__dict__["sample_offspring"]
        self._patch(
            branching.BranchingLaw,
            "sample_offspring",
            self._wrap(sample, "sample_offspring", "branching"),
        )

    def uninstall(self):
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ----------------------------------------------------------

    def calls(self, name):
        stat = self.stats.get(name)
        return stat.calls if stat else 0

    def total_s(self, name):
        stat = self.stats.get(name)
        return stat.total_ns / 1e9 if stat else 0.0

    def busy_s(self, layer):
        return self.layer_busy_ns.get(layer, 0) / 1e9

    def self_s(self, layer):
        return self.layer_self_ns.get(layer, 0) / 1e9

    def span_pairs(self, parent_name, child_name):
        """(parent span, child span) for each child directly under a parent."""
        by_id = {s[0]: s for s in self.spans}
        return [
            (by_id[s[4]], s)
            for s in self.spans
            if s[1] == child_name and s[4] is not None and by_id[s[4]][1] == parent_name
        ]

    def dump(self, path, label):
        t0 = min((s[2] for s in self.spans), default=0)
        doc = {
            "label": label,
            "level": self.level,
            "spans": [
                {"id": i, "name": n, "start_s": (a - t0) / 1e9, "end_s": (b - t0) / 1e9, "parent": p}
                for i, n, a, b, p in self.spans
            ],
            "calls": {
                name: {"calls": s.calls, "busy_s": s.total_ns / 1e9, "self_s": s.self_ns / 1e9}
                for name, s in self.stats.items()
            },
            "layers": {
                layer: {"busy_s": self.busy_s(layer), "self_s": self.self_s(layer)}
                for layer in self.layer_busy_ns
            },
            "counts": dict(self.counts, pool_starts=self.pool_starts),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
