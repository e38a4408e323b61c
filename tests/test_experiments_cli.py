import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest
import yaml

from branchsim import ConfigurationError, FiniteSet, Interval
from branchsim.cli import main
from branchsim.experiments import (
    _RUNNERS,
    CSV_COLUMNS,
    DEFAULT_SEED,
    build_motion,
    build_test_set,
    parse_spec,
    rows_to_csv,
    run_experiment,
)

BASE_DOC = {
    "experiment": "many-to-one-check",
    "motion": {"kind": "ergodic-ctmc"},
    "branching": {"pmf": [[0, 0.2], [2, 0.8]], "rate": 1.0},
    "x0": 0,
    "snapshot_times": [0.5, 1.0],
    "replicas": 300,
    "seed": 7,
}


def write_spec(tmp_path, doc, name="spec.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def test_parse_spec_collects_all_problems():
    with pytest.raises(ConfigurationError) as err:
        parse_spec({"experiment": "nope", "snapshot_times": []})
    msg = str(err.value)
    for fragment in ("experiment must be", "motion", "branching", "x0", "snapshot_times"):
        assert fragment in msg


def test_parse_spec_defaults():
    doc = dict(BASE_DOC)
    del doc["seed"]
    spec = parse_spec(doc)
    assert spec.seed == DEFAULT_SEED
    assert spec.horizon == 1.0  # defaults to max snapshot time
    assert spec.threads == 1 and spec.replicas == 300


def test_override_dotted_keys_are_typed():
    spec = parse_spec(
        dict(BASE_DOC),
        overrides={"seed": "42", "motion.kind": "ergodic-ctmc", "replicas": "50"},
    )
    assert spec.seed == 42 and spec.replicas == 50


def test_build_test_set_forms():
    assert build_test_set([1, 2]) == Interval(1.0, 2.0)
    assert build_test_set({"interval": [0, math.inf]}) == Interval(0.0, math.inf)
    assert build_test_set({"finite": [1, 3]}) == FiniteSet((1, 3))
    with pytest.raises(ConfigurationError):
        build_test_set("everything")


def test_build_motion_rejects_bad_blocks():
    with pytest.raises(ConfigurationError, match="unknown motion kind"):
        build_motion({"kind": "levy"})
    with pytest.raises(ConfigurationError, match="unknown parameters"):
        build_motion({"kind": "killed-ou", "lambda": 1.0, "mu": 2.0})
    with pytest.raises(ConfigurationError, match="missing parameter"):
        build_motion({"kind": "killed-drift-bm"})


def test_csv_format_roundtrips_floats():
    rows = [
        {
            "time": 1.0,
            "estimator": "mean_D",
            "value": 1 / 3,
            "std_error": 0.1,
            "n_effective": 10,
            "excluded_truncated": 0,
        }
    ]
    text = rows_to_csv(rows)
    header, line = text.strip().split("\n")
    assert header == ",".join(CSV_COLUMNS)
    fields = line.split(",")
    assert float(fields[2]) == 1 / 3  # repr() round-trips exactly
    assert fields[4] == "10" and fields[5] == "0"


def test_cli_simulate_writes_csv_and_sidecar(tmp_path, capsys):
    path = write_spec(tmp_path, BASE_DOC)
    out = tmp_path / "out"
    assert main(["simulate", path, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert stdout.splitlines()[0] == ",".join(CSV_COLUMNS)
    csv_file = out / "many-to-one-check.csv"
    assert csv_file.read_text() == stdout
    meta = json.loads((out / "many-to-one-check.json").read_text())
    assert meta["experiment"] == "many-to-one-check"
    assert meta["spec"]["seed"] == 7
    assert meta["checks"]  # consistency checks always reported


def test_cli_set_override_changes_output(tmp_path, capsys):
    path = write_spec(tmp_path, BASE_DOC)
    out = ["--out", str(tmp_path / "o")]
    assert main(["simulate", path] + out) == 0
    base = capsys.readouterr().out
    assert main(["simulate", path, "--set", "seed=99"] + out) == 0
    assert capsys.readouterr().out != base
    assert main(["simulate", path, "--set", "seed=7"] + out) == 0
    assert capsys.readouterr().out == base  # same seed reproduces bytes


def test_cli_configuration_error_exits_2(tmp_path, capsys):
    doc = dict(BASE_DOC)
    doc["branching"] = {"pmf": [[0, 0.6], [2, 0.4]], "rate": 1.0}  # subcritical
    path = write_spec(tmp_path, doc)
    assert main(["simulate", path]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_cli_bad_override_syntax_exits_2(tmp_path, capsys):
    path = write_spec(tmp_path, BASE_DOC)
    assert main(["simulate", path, "--set", "seed:99"]) == 2


def test_assert_failure_exits_3(monkeypatch):
    spec = parse_spec(dict(BASE_DOC))

    def failing_runner(spec, motion, law, x0):
        return [], [("forced", False, "synthetic failure")]

    monkeypatch.setitem(_RUNNERS, "many-to-one-check", failing_runner)
    code, _, meta = run_experiment(spec, do_assert=True)
    assert code == 3
    assert meta["checks"][0]["passed"] is False
    code, _, _ = run_experiment(spec, do_assert=False)
    assert code == 0  # without --assert the failure is reported, not fatal


def test_thread_count_does_not_change_bytes(tmp_path):
    doc = dict(BASE_DOC)
    doc.update(experiment="martingale-curve", replicas=200)
    spec1 = parse_spec(doc, overrides={"threads": "1"})
    spec8 = parse_spec(doc, overrides={"threads": "8"})
    _, csv1, _ = run_experiment(spec1)
    _, csv8, _ = run_experiment(spec8)
    assert csv1 == csv8


@pytest.mark.parametrize(
    "spec_update, overrides, problem",
    [
        ({}, ["--set", "replicas=abc"], "replicas must be an integer, got 'abc'"),
        ({}, ["--set", "snapshot_times=[a]"], "snapshot_times must be a nonempty list of numbers"),
        ({"threads": "x"}, [], "threads must be an integer, got 'x'"),
        ({"seed": 1.5}, [], "seed must be an integer, got 1.5"),
    ],
    ids=["replicas-abc", "snapshot-times-a", "threads-x", "seed-1.5"],
)
def test_cli_bad_spec_value_exits_2(tmp_path, capsys, spec_update, overrides, problem):
    path = write_spec(tmp_path, {**BASE_DOC, **spec_update})
    assert main(["simulate", path] + overrides) == 2
    assert problem in capsys.readouterr().err


def test_cli_lists_every_bad_value(tmp_path, capsys):
    path = write_spec(tmp_path, {**BASE_DOC, "threads": "x", "seed": 1.5})
    overrides = ["--set", "replicas=abc", "--set", "snapshot_times=[a]"]
    assert main(["simulate", path] + overrides) == 2
    err = capsys.readouterr().err
    for key in ("replicas", "snapshot_times", "threads", "seed"):
        assert f"{key} must be" in err


def test_cli_simulate_without_out_writes_no_files(tmp_path, monkeypatch, capsys):
    path = write_spec(tmp_path, BASE_DOC)
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", path]) == 0
    assert capsys.readouterr().out.startswith(",".join(CSV_COLUMNS))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.yaml"]


KILLED_OU_DOC = {**BASE_DOC, "experiment": "many-to-two-check",
                 "motion": {"kind": "killed-ou", "lambda": 1.0}, "x0": 1.0}


@pytest.mark.parametrize(
    "overrides, problem",
    [
        (["--set", "x0=abc"], "x0 must be a number for the killed-ou motion, got 'abc'"),
        (["--set", "spine_paths=abc"], "spine_paths must be an integer >= 1, got 'abc'"),
        (["--set", "motion.lambda=abc"], "motion.lambda must be a number, got 'abc'"),
    ],
    ids=["x0-abc", "spine-paths-abc", "motion-lambda-abc"],
)
def test_cli_bad_build_value_exits_2(tmp_path, capsys, overrides, problem):
    path = write_spec(tmp_path, KILLED_OU_DOC)
    assert main(["simulate", path] + overrides) == 2
    err = capsys.readouterr().err
    assert problem in err and "Traceback" not in err


def test_cli_lists_every_bad_build_value(tmp_path, capsys):
    path = write_spec(tmp_path, {**KILLED_OU_DOC, "test_sets": [{"interval": ["a", 1]}]})
    overrides = ["x0=abc", "spine_paths=abc", "motion.lambda=abc", "replicas=abc",
                 "branching.pmf=[[0.5, 1]]"]
    assert main(["simulate", path] + [arg for o in overrides for arg in ("--set", o)]) == 2
    err = capsys.readouterr().err
    for key in ("x0", "spine_paths", "motion.lambda", "replicas", "branching.pmf"):
        assert f"{key} must be" in err
    assert "cannot interpret test set" in err


def test_cli_unknown_key_exits_2(tmp_path, capsys):
    path = write_spec(tmp_path, KILLED_OU_DOC)
    assert main(["simulate", path, "--set", "spine_path=7"]) == 2
    err = capsys.readouterr().err
    assert "unknown key 'spine_path' for experiment many-to-two-check" in err
    assert "Traceback" not in err


def test_cli_lists_every_unknown_key(tmp_path, capsys):
    # epsilon is an extra of eta-sigma only; rates is no key of the branching block
    path = write_spec(tmp_path, KILLED_OU_DOC)
    overrides = ["spine_path=7", "replica=3", "epsilon=0.1", "branching.rates=1"]
    assert main(["simulate", path] + [arg for o in overrides for arg in ("--set", o)]) == 2
    err = capsys.readouterr().err
    for key in ("spine_path", "replica", "epsilon"):
        assert f"unknown key {key!r} for experiment many-to-two-check" in err
    assert "unknown key 'rates' in the branching block" in err


def test_benchmark_workload_specs_use_known_keys(monkeypatch):
    source = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    module_spec = importlib.util.spec_from_file_location("perfbench_workloads", source)
    workloads = importlib.util.module_from_spec(module_spec)
    monkeypatch.setitem(sys.modules, module_spec.name, workloads)  # for its dataclasses
    module_spec.loader.exec_module(workloads)
    for workload in workloads.WORKLOADS.values():
        for quick in (False, True):
            parse_spec(workload.spec(1, 0, quick))


@pytest.mark.parametrize(
    "env, argv, problem",
    [
        ("abc", [], "BRANCHSIM_THREADS must be an integer >= 1, got 'abc'"),
        ("0", [], "BRANCHSIM_THREADS must be an integer >= 1, got '0'"),
        (None, ["--threads", "0"], "--threads must be >= 1, got 0"),
    ],
    ids=["env-abc", "env-0", "flag-0"],
)
def test_cli_verify_bad_thread_count_exits_2(monkeypatch, capsys, env, argv, problem):
    if env is None:
        monkeypatch.delenv("BRANCHSIM_THREADS", raising=False)
    else:
        monkeypatch.setenv("BRANCHSIM_THREADS", env)
    assert main(["verify"] + argv) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and problem in err
